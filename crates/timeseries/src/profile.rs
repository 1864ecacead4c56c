//! Temporal profiles: folding a week of telemetry into daily shapes and
//! cross-population percentile bands (Figure 6).

use crate::error::SeriesError;
use crate::series::Series;
use cloudscope_stats::percentile::percentiles_into;
use serde::{Deserialize, Serialize};

/// Minutes per day, re-declared to avoid a model-crate dependency.
const MINUTES_PER_DAY: i64 = 24 * 60;

/// Folds a series into its average daily shape: bucket `i` is the mean of
/// all samples whose time-of-day falls in the `i`-th step-sized slot.
/// Non-finite samples (gaps) are skipped; a bucket with no finite sample
/// folds to 0, like a bucket the series never covers.
///
/// # Errors
/// Returns [`SeriesError::TooShort`] if the series is empty or its step
/// does not divide a day.
pub fn daily_profile(series: &Series) -> Result<Vec<f64>, SeriesError> {
    let step = series.step_minutes();
    if series.is_empty() || MINUTES_PER_DAY % step != 0 {
        return Err(SeriesError::TooShort(series.len()));
    }
    let buckets = (MINUTES_PER_DAY / step) as usize;
    let mut sums = vec![0.0f64; buckets];
    let mut counts = vec![0u32; buckets];
    for (i, &v) in series.values().iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let minute = series.time_of(i).rem_euclid(MINUTES_PER_DAY);
        let b = (minute / step) as usize;
        sums[b] += v;
        counts[b] += 1;
    }
    Ok(sums
        .into_iter()
        .zip(counts)
        .map(|(s, c)| if c == 0 { 0.0 } else { s / f64::from(c) })
        .collect())
}

/// Percentile bands across a *population* of series: at each time index,
/// the requested percentiles of the population's values — exactly what
/// Figure 6 plots for CPU utilization over a week and over a day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PercentileBands {
    /// Percentile levels, ascending (e.g. `[5, 25, 50, 75, 95]`).
    pub levels: Vec<f64>,
    /// `bands[level_idx][time_idx]` = that percentile at that time.
    pub bands: Vec<Vec<f64>>,
    /// Step in minutes of the underlying series.
    pub step_minutes: i64,
}

impl PercentileBands {
    /// Computes bands across equally long series.
    ///
    /// # Errors
    /// - [`SeriesError::TooShort`] if `population` is empty or any series
    ///   is empty.
    /// - [`SeriesError::Misaligned`] if lengths or steps differ.
    pub fn across(population: &[&Series], levels: &[f64]) -> Result<Self, SeriesError> {
        let first = population.first().ok_or(SeriesError::TooShort(0))?;
        if first.is_empty() {
            return Err(SeriesError::TooShort(0));
        }
        if population
            .iter()
            .any(|s| s.len() != first.len() || s.step_minutes() != first.step_minutes())
        {
            return Err(SeriesError::Misaligned);
        }
        let mut bands = vec![Vec::with_capacity(first.len()); levels.len()];
        let mut column = Vec::with_capacity(population.len());
        let mut scratch = Vec::with_capacity(population.len());
        let mut vals = Vec::with_capacity(levels.len());
        for t in 0..first.len() {
            column.clear();
            // Gap slots (NaN) drop out of the column: the band at time t
            // is the percentile over the series that have a sample there.
            column.extend(
                population
                    .iter()
                    .map(|s| s.values()[t])
                    .filter(|v| v.is_finite()),
            );
            if column.is_empty() {
                return Err(SeriesError::TooShort(0));
            }
            percentiles_into(&column, levels, &mut scratch, &mut vals)
                .map_err(|_| SeriesError::Misaligned)?;
            for (band, &v) in bands.iter_mut().zip(&vals) {
                band.push(v);
            }
        }
        Ok(Self {
            levels: levels.to_vec(),
            bands,
            step_minutes: first.step_minutes(),
        })
    }

    /// The band for one level, if it was requested.
    #[must_use]
    pub fn band(&self, level: f64) -> Option<&[f64]> {
        self.levels
            .iter()
            .position(|&l| l == level)
            .map(|i| self.bands[i].as_slice())
    }

    /// Temporal variability of the median band (its population standard
    /// deviation over time): near zero for a flat profile.
    #[must_use]
    pub fn median_band_std(&self) -> f64 {
        let Some(median) = self.band(50.0) else {
            return 0.0;
        };
        let mean = median.iter().sum::<f64>() / median.len() as f64;
        (median.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / median.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_sine(step: i64, days: usize, amp: f64, phase_minutes: f64) -> Series {
        let per_day = (MINUTES_PER_DAY / step) as usize;
        let values = (0..per_day * days)
            .map(|i| {
                let minute = i as f64 * step as f64;
                50.0 + amp
                    * (std::f64::consts::TAU * (minute - phase_minutes) / MINUTES_PER_DAY as f64)
                        .sin()
            })
            .collect();
        Series::new(0, step, values)
    }

    #[test]
    fn daily_profile_folds_days() {
        let s = day_sine(60, 7, 10.0, 0.0);
        let profile = daily_profile(&s).unwrap();
        assert_eq!(profile.len(), 24);
        // All days identical, so the profile equals one day's shape.
        for (i, &v) in profile.iter().enumerate() {
            assert!((v - s.values()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn daily_profile_requires_divisible_step() {
        let s = Series::new(0, 7, vec![1.0; 100]);
        assert!(daily_profile(&s).is_err());
        let empty = Series::new(0, 60, vec![]);
        assert!(daily_profile(&empty).is_err());
    }

    #[test]
    fn bands_across_population() {
        let population: Vec<Series> = (0..10)
            .map(|k| Series::new(0, 60, vec![k as f64; 24]))
            .collect();
        let refs: Vec<&Series> = population.iter().collect();
        let bands = PercentileBands::across(&refs, &[25.0, 50.0, 75.0]).unwrap();
        let median = bands.band(50.0).unwrap();
        assert!(median.iter().all(|&v| (v - 4.5).abs() < 1e-9));
        assert!(bands.band(99.0).is_none());
        assert!(bands.median_band_std() < 1e-12);
    }

    #[test]
    fn bands_reject_misaligned_population() {
        let a = Series::new(0, 60, vec![1.0; 24]);
        let b = Series::new(0, 60, vec![1.0; 23]);
        assert!(PercentileBands::across(&[&a, &b], &[50.0]).is_err());
        assert!(PercentileBands::across(&[], &[50.0]).is_err());
        let c = Series::new(0, 30, vec![1.0; 24]);
        assert!(PercentileBands::across(&[&a, &c], &[50.0]).is_err());
    }

    #[test]
    fn profiles_skip_gap_samples() {
        let mut s = day_sine(60, 7, 10.0, 0.0);
        let clean_profile = daily_profile(&s).unwrap();
        // Punch out one full day; all days are identical so the folds
        // must not move.
        for v in &mut s.values_mut()[24..48] {
            *v = f64::NAN;
        }
        let gappy_profile = daily_profile(&s).unwrap();
        for (a, b) in clean_profile.iter().zip(&gappy_profile) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bands_skip_gap_columns_per_slot() {
        let mut population: Vec<Series> = (0..10)
            .map(|k| Series::new(0, 60, vec![k as f64; 4]))
            .collect();
        // At t=1 the top half of the population is missing.
        for s in population.iter_mut().skip(5) {
            s.values_mut()[1] = f64::NAN;
        }
        let refs: Vec<&Series> = population.iter().collect();
        let bands = PercentileBands::across(&refs, &[50.0]).unwrap();
        let median = bands.band(50.0).unwrap();
        assert!((median[0] - 4.5).abs() < 1e-9);
        assert!((median[1] - 2.0).abs() < 1e-9, "median over present half");
        // A slot missing everywhere is an error, not a silent zero.
        let mut all_gone = population;
        for s in &mut all_gone {
            s.values_mut()[2] = f64::NAN;
        }
        let refs: Vec<&Series> = all_gone.iter().collect();
        assert!(PercentileBands::across(&refs, &[50.0]).is_err());
    }

    #[test]
    fn flat_vs_varying_median_band() {
        // A population whose median moves over time has a larger
        // median-band std than a static one.
        let moving: Vec<Series> = (0..6).map(|_| day_sine(60, 1, 20.0, 0.0)).collect();
        let flat: Vec<Series> = (0..6)
            .map(|k| Series::new(0, 60, vec![10.0 + k as f64; 24]))
            .collect();
        let m_refs: Vec<&Series> = moving.iter().collect();
        let f_refs: Vec<&Series> = flat.iter().collect();
        let m = PercentileBands::across(&m_refs, &[50.0]).unwrap();
        let f = PercentileBands::across(&f_refs, &[50.0]).unwrap();
        assert!(m.median_band_std() > 5.0 * f.median_band_std());
    }
}
