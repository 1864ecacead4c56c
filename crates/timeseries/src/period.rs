//! Periodicity detection in the style of Vlachos, Yu & Castelli (ICDM'05),
//! the method the paper cites (\[18\]) for identifying diurnal and
//! hourly-peak utilization patterns.
//!
//! Stage 1 extracts candidate periods from periodogram bins whose power
//! clears an adaptive threshold. Stage 2 validates each candidate on the
//! autocorrelation function: a true period must land on an ACF *hill*
//! (local maximum above a correlation threshold); spectral leakage and
//! harmonics land on slopes or valleys and are discarded.
//!
//! Both stages read one spectrum: [`Spectrum`] transforms the centred
//! signal once, padded to `m = next_pow2(n + n/2)` so that its inverse is
//! the ACF up to lag `n/2` without wrap-around. The periodogram of the
//! `N = next_pow2(n)`-padded signal is part of it, since zero padding to
//! `2N` only interleaves bins: when `m == 2N`, bin `k` is bin `2k` of the
//! spectrum.

use crate::acf::{refine_on_acf, Centred, Spectrum};
use crate::error::SeriesError;
use crate::fft::{next_power_of_two, with_plan};
use crate::series::Series;
use serde::{Deserialize, Serialize};

/// A detected period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectedPeriod {
    /// Period length in minutes.
    pub minutes: f64,
    /// Period length in samples of the analyzed series.
    pub lag: usize,
    /// ACF value at the validated lag (strength of the periodicity).
    pub acf_strength: f64,
    /// Normalized periodogram power of the originating candidate bin.
    pub power_fraction: f64,
}

/// How many of the strongest periodogram bins become candidates.
pub const MAX_CANDIDATES: usize = 8;
/// A candidate bin must carry at least this fraction of total (non-DC)
/// spectral power.
pub const MIN_POWER_FRACTION: f64 = 0.04;
/// Minimum ACF value for a hill to validate a candidate.
pub const MIN_ACF: f64 = 0.3;
/// Search radius (in samples) around the candidate lag when looking for
/// the ACF hill, as a fraction of the candidate lag.
pub const REFINE_RADIUS_FRACTION: f64 = 0.2;

/// Periodicity detector, tuned by the constants above.
///
/// # Examples
/// ```
/// # use cloudscope_timeseries::period::PeriodDetector;
/// # use cloudscope_timeseries::series::Series;
/// // A daily (1440-minute) pattern sampled every 5 minutes for a week.
/// let values: Vec<f64> = (0..2016)
///     .map(|i| (std::f64::consts::TAU * (i as f64) / 288.0).sin())
///     .collect();
/// let series = Series::new(0, 5, values);
/// let detector = PeriodDetector;
/// let periods = detector.detect(series.values(), series.step_minutes()).unwrap();
/// assert!(periods.iter().any(|p| (p.minutes - 1440.0).abs() < 150.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeriodDetector;

impl PeriodDetector {
    /// Detects periods in `values`, sampled every `step_minutes`,
    /// strongest (by ACF) first.
    ///
    /// Gap-bearing series (NaN slots) are handled transparently: the
    /// periodogram is taken over the centred signal with its gaps zeroed,
    /// and the ACF switches to its mask-and-renormalize estimator. Either
    /// way the detection needs at least 16 *present* samples, and makes
    /// one forward and one inverse transform.
    ///
    /// # Errors
    /// - [`SeriesError::TooShort`] if the series has fewer than 16
    ///   (present) samples.
    /// - [`SeriesError::ZeroVariance`] if the (present) series is constant.
    pub fn detect(
        &self,
        values: &[f64],
        step_minutes: i64,
    ) -> Result<Vec<DetectedPeriod>, SeriesError> {
        let max_lag = values.len() / 2;
        let centred = Centred::new(values, max_lag, 16)?;
        // Periodogram of the signal padded to N, read off the m-point
        // spectrum at a stride of m / N.
        let padded_n = next_power_of_two(values.len());
        let stride = centred.m / padded_n;
        let (bins, acf) = with_plan(centred.plan_len(), |plan, buf| {
            let spectrum = Spectrum::new(plan, buf, values, &centred);
            let power = |k: usize| spectrum.power(k * stride);
            let total_power: f64 = (1..padded_n / 2).map(power).sum();
            if total_power <= 0.0 {
                return Err(SeriesError::ZeroVariance);
            }
            // Stage 1: candidate bins, strongest first, above the power floor.
            let mut bins: Vec<(usize, f64)> = (1..padded_n / 2)
                .map(|k| (k, power(k) / total_power))
                .filter(|&(_, frac)| frac >= MIN_POWER_FRACTION)
                .collect();
            bins.sort_by(|a, b| b.1.total_cmp(&a.1));
            bins.truncate(MAX_CANDIDATES);
            Ok((bins, spectrum.acf(max_lag)))
        })??;

        // Stage 2: validate on the ACF.
        let mut found: Vec<DetectedPeriod> = Vec::new();
        for (k, frac) in bins {
            // Bin k of an N-point transform corresponds to period N/k samples.
            let lag_estimate = (padded_n as f64 / k as f64).round() as usize;
            if lag_estimate < 2 || lag_estimate > max_lag {
                continue;
            }
            let radius = ((lag_estimate as f64 * REFINE_RADIUS_FRACTION) as usize).max(1);
            let Some((lag, strength)) = refine_on_acf(&acf, lag_estimate, radius, MIN_ACF) else {
                continue;
            };
            // Deduplicate: skip lags within 10% of an accepted period.
            if found
                .iter()
                .any(|p| (p.lag as f64 - lag as f64).abs() < 0.1 * p.lag as f64)
            {
                continue;
            }
            found.push(DetectedPeriod {
                minutes: lag as f64 * step_minutes as f64,
                lag,
                acf_strength: strength,
                power_fraction: frac,
            });
        }
        found.sort_by(|a, b| b.acf_strength.total_cmp(&a.acf_strength));
        Ok(found)
    }

    /// Convenience: `true` if some detected period lies within
    /// `tolerance_minutes` of `target_minutes`. Constant or too-short
    /// series simply report `false`.
    #[must_use]
    pub fn has_period_near(
        &self,
        series: &Series,
        target_minutes: f64,
        tolerance_minutes: f64,
    ) -> bool {
        self.detect(series.values(), series.step_minutes())
            .is_ok_and(|periods| {
                periods
                    .iter()
                    .any(|p| (p.minutes - target_minutes).abs() <= tolerance_minutes)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use cloudscope_obs::testing::snapshot_diff;
    use cloudscope_obs::Registry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn detect(series: &Series) -> Result<Vec<DetectedPeriod>, SeriesError> {
        PeriodDetector.detect(series.values(), series.step_minutes())
    }

    /// Deterministic pseudo-noise in [-1, 1] via a splitmix64-style hash.
    fn noise(i: usize) -> f64 {
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        (z % 10_000) as f64 / 5_000.0 - 1.0
    }

    fn weekly_series(period_samples: usize, amplitude: f64, noise_amp: f64) -> Series {
        let values: Vec<f64> = (0..2016)
            .map(|i| {
                amplitude * (std::f64::consts::TAU * i as f64 / period_samples as f64).sin()
                    + noise_amp * noise(i)
            })
            .collect();
        Series::new(0, 5, values)
    }

    #[test]
    fn detects_daily_period_in_five_minute_data() {
        // 288 five-minute samples per day.
        let series = weekly_series(288, 10.0, 1.0);
        let detector = PeriodDetector;
        let periods = detect(&series).unwrap();
        assert!(!periods.is_empty());
        assert!(
            (periods[0].minutes - 1440.0).abs() <= 150.0,
            "got {:?}",
            periods[0]
        );
        assert!(detector.has_period_near(&series, 1440.0, 150.0));
    }

    #[test]
    fn detects_hourly_period() {
        let series = weekly_series(12, 10.0, 1.0);
        let detector = PeriodDetector;
        assert!(detector.has_period_near(&series, 60.0, 10.0));
        assert!(!detector.has_period_near(&series, 1440.0, 150.0));
    }

    #[test]
    fn pure_noise_detects_nothing_strong() {
        let values: Vec<f64> = (0..2016).map(noise).collect();
        let series = Series::new(0, 5, values);
        let periods = detect(&series).unwrap();
        for p in &periods {
            assert!(
                p.acf_strength < 0.5,
                "noise produced a strong period: {p:?}"
            );
        }
    }

    #[test]
    fn constant_series_errors() {
        let series = Series::new(0, 5, vec![3.0; 64]);
        assert!(matches!(detect(&series), Err(SeriesError::ZeroVariance)));
        assert!(!PeriodDetector.has_period_near(&series, 60.0, 5.0));
    }

    #[test]
    fn short_series_errors() {
        let series = Series::new(0, 5, vec![1.0, 2.0, 3.0]);
        assert!(matches!(detect(&series), Err(SeriesError::TooShort(3))));
    }

    #[test]
    fn two_superimposed_periods_both_found() {
        let values: Vec<f64> = (0..2016)
            .map(|i| {
                10.0 * (std::f64::consts::TAU * i as f64 / 288.0).sin()
                    + 6.0 * (std::f64::consts::TAU * i as f64 / 12.0).sin()
                    + 0.5 * noise(i)
            })
            .collect();
        let series = Series::new(0, 5, values);
        let detector = PeriodDetector;
        assert!(
            detector.has_period_near(&series, 1440.0, 150.0),
            "daily missing"
        );
        assert!(
            detector.has_period_near(&series, 60.0, 10.0),
            "hourly missing"
        );
    }

    #[test]
    fn gap_bearing_series_still_detects_daily_period() {
        let mut series = weekly_series(288, 10.0, 1.0);
        let values = series.values_mut();
        // 5% pseudo-random loss plus a 6-hour blackout (72 slots).
        for i in (0..values.len()).step_by(20) {
            values[i] = f64::NAN;
        }
        for v in &mut values[500..572] {
            *v = f64::NAN;
        }
        let detector = PeriodDetector;
        assert!(detector.has_period_near(&series, 1440.0, 150.0));
        assert!(!detector.has_period_near(&series, 60.0, 10.0));
    }

    #[test]
    fn gap_bearing_series_needs_sixteen_present() {
        let mut values = vec![f64::NAN; 64];
        for (i, v) in values.iter_mut().enumerate().take(10) {
            *v = i as f64;
        }
        let series = Series::new(0, 5, values);
        assert!(matches!(detect(&series), Err(SeriesError::TooShort(10))));
    }

    #[test]
    fn results_sorted_by_strength() {
        let series = weekly_series(288, 10.0, 1.0);
        let periods = detect(&series).unwrap();
        for w in periods.windows(2) {
            assert!(w[0].acf_strength >= w[1].acf_strength);
        }
    }

    /// A seeded random series of `n` samples: up to three sines of random
    /// period and amplitude over noise, quantized to 0.1 like telemetry,
    /// and with `gapped` a random mix of scattered loss, one blackout,
    /// and (one case in four) every odd slot missing, so that odd lags
    /// have no jointly-present pair.
    fn random_series(rng: &mut StdRng, n: usize, gapped: bool) -> Vec<f64> {
        let sines: Vec<(f64, f64)> = (0..rng.random_range(0..=3usize))
            .map(|_| {
                (
                    rng.random_range(2.0..n as f64 / 2.0),
                    rng.random_range(0.5..20.0),
                )
            })
            .collect();
        let noise = rng.random_range(0.1..5.0);
        let mut values: Vec<f64> = (0..n)
            .map(|i| {
                let periodic: f64 = sines
                    .iter()
                    .map(|&(p, a)| a * (std::f64::consts::TAU * i as f64 / p).sin())
                    .sum();
                ((50.0 + periodic + noise * rng.random_range(-1.0..1.0)) * 10.0).round() / 10.0
            })
            .collect();
        if gapped {
            let loss = rng.random_range(0.0..0.3);
            for v in &mut values {
                if rng.random_bool(loss) {
                    *v = f64::NAN;
                }
            }
            let start = rng.random_range(0..n);
            let len = rng.random_range(0..=n / 3);
            for v in values.iter_mut().skip(start).take(len) {
                *v = f64::NAN;
            }
            if rng.random_range(0..4) == 0 {
                values
                    .iter_mut()
                    .skip(1)
                    .step_by(2)
                    .for_each(|v| *v = f64::NAN);
            }
            // At least one gap, so the masked path runs.
            values[rng.random_range(0..n)] = f64::NAN;
        }
        values
    }

    /// The one-spectrum detector against the reference: the same error,
    /// or the same lags with ACF strengths and power fractions within
    /// 1e-9; and the ACF itself within 1e-9 of the reference estimator,
    /// exactly 0 at every lag without a jointly-present pair.
    fn assert_matches_reference(values: &[f64]) {
        let detector = PeriodDetector;
        let fast = detector.detect(values, 5);
        let slow = reference::detect(values, 5);
        match (&fast, &slow) {
            (Ok(fast), Ok(slow)) => {
                let lags = |p: &[DetectedPeriod]| p.iter().map(|p| p.lag).collect::<Vec<_>>();
                assert_eq!(lags(fast), lags(slow), "n {}", values.len());
                for (a, b) in fast.iter().zip(slow) {
                    assert!((a.acf_strength - b.acf_strength).abs() < 1e-9);
                    assert!((a.power_fraction - b.power_fraction).abs() < 1e-9);
                }
            }
            _ => assert_eq!(fast, slow, "n {}", values.len()),
        }
        let max_lag = values.len() / 2;
        let Ok(centred) = Centred::new(values, max_lag, 16) else {
            return;
        };
        let acf = with_plan(centred.plan_len(), |plan, buf| {
            Spectrum::new(plan, buf, values, &centred).acf(max_lag)
        })
        .unwrap();
        let oracle = if centred.masked {
            reference::autocorrelation_masked(values, max_lag).unwrap()
        } else {
            reference::autocorrelation_fft(values, max_lag).unwrap()
        };
        for (lag, (a, b)) in acf.iter().zip(&oracle).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "n {} lag {lag}: {a} vs {b}",
                values.len()
            );
            let paired = values[..values.len() - lag]
                .iter()
                .zip(&values[lag..])
                .any(|(x, y)| x.is_finite() && y.is_finite());
            if !paired {
                assert_eq!(*a, 0.0, "n {} lag {lag} has no pair", values.len());
            }
        }
    }

    #[test]
    fn one_spectrum_matches_reference_detector() {
        let mut rng = StdRng::seed_from_u64(39);
        // Every length to 320 (171..=256 included, where the ACF's padding
        // is twice the periodogram's), then a stride to a week of samples.
        let lengths = (16..=320)
            .chain((321..=2016).step_by(37))
            .chain([576, 1008, 1024, 2016]);
        for n in lengths {
            for gapped in [false, true] {
                assert_matches_reference(&random_series(&mut rng, n, gapped));
            }
        }
    }

    #[test]
    fn errors_fire_on_the_same_inputs_as_the_reference() {
        let detector = PeriodDetector;
        let both = |values: &[f64]| {
            let fast = detector.detect(values, 5).err();
            assert_eq!(fast, reference::detect(values, 5).err());
            fast
        };
        for n in 0..16 {
            let ramp: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(both(&ramp), Some(SeriesError::TooShort(n)));
        }
        for n in 16..=300 {
            let mut ramp: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(both(&ramp), None);
            for v in ramp.iter_mut().skip(15) {
                *v = f64::NAN;
            }
            assert_eq!(both(&ramp), Some(SeriesError::TooShort(15)));
            for level in [0.0, 3.0, -2.5, 0.5] {
                let mut flat = vec![level; n];
                assert_eq!(both(&flat), Some(SeriesError::ZeroVariance));
                flat[n / 3] = f64::NAN;
                let want = if n > 16 {
                    SeriesError::ZeroVariance
                } else {
                    SeriesError::TooShort(15)
                };
                assert_eq!(both(&flat), Some(want));
            }
        }
    }

    #[test]
    fn one_detection_is_one_transform() {
        let registry = Arc::new(Registry::new());
        let dense = weekly_series(288, 10.0, 1.0);
        let mut gappy = dense.clone();
        for v in &mut gappy.values_mut()[500..572] {
            *v = f64::NAN;
        }
        for series in [&dense, &gappy] {
            let (periods, diff) = snapshot_diff(&registry, || detect(series));
            assert!(periods.is_ok_and(|p| !p.is_empty()));
            let get = |name| diff.counter(name).unwrap_or(0);
            assert_eq!(
                get("timeseries.fft.plan_cache_hits") + get("timeseries.fft.plan_cache_misses"),
                1,
                "one with_plan call per detection"
            );
        }
    }
}
