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

/// Periodicity detector, tuned by the constants above. Its one question
/// is [`PeriodDetector::has_period_near`]: is there a period near one of
/// some targets?
///
/// # Examples
/// ```
/// # use cloudscope_timeseries::period::PeriodDetector;
/// // A daily (1440-minute) pattern sampled every 5 minutes for a week.
/// let values: Vec<f64> = (0..2016)
///     .map(|i| (std::f64::consts::TAU * (i as f64) / 288.0).sin())
///     .collect();
/// let detector = PeriodDetector;
/// assert!(detector.has_period_near(&values, 5, &[1440.0], 150.0));
/// assert!(!detector.has_period_near(&values, 5, &[60.0, 30.0], 12.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeriodDetector;

impl PeriodDetector {
    /// `true` if some period detected in `values`, sampled every
    /// `step_minutes`, lies within `tolerance_minutes` of one of
    /// `targets`. Constant or too-short series (fewer than 16 present
    /// samples) simply report `false`.
    ///
    /// Gap-bearing series (NaN slots) are handled transparently: the
    /// periodogram is taken over the centred signal with its gaps zeroed,
    /// and the ACF switches to its mask-and-renormalize estimator.
    ///
    /// The answer is that of detecting every period and then filtering,
    /// at less cost: stage 2 searches each candidate's ACF hill within
    /// `lag ± 20 %` of the candidate's lag estimate, and deduplication
    /// only removes periods, so when no candidate's search window can
    /// reach a target band the answer is `false` without the inverse
    /// transform (counted under `timeseries.period.acf_skipped`).
    /// Otherwise both stages run as a full detection.
    #[must_use]
    pub fn has_period_near(
        &self,
        values: &[f64],
        step_minutes: i64,
        targets: &[f64],
        tolerance_minutes: f64,
    ) -> bool {
        let step = step_minutes as f64;
        let near = |minutes: f64| {
            targets
                .iter()
                .any(|t| (minutes - t).abs() <= tolerance_minutes)
        };
        // |lag·step - t| falls, then rises, with the lag, so the lags of
        // a window nearest t / step (either side, with a lag's slack for
        // the rounding of the quotient) are the only ones to try.
        let reachable = |lo: usize, hi: usize| {
            targets.iter().any(|t| {
                let below = (t / step).floor();
                [below - 1.0, below, below + 1.0, below + 2.0]
                    .into_iter()
                    .any(|lag| near(lag.clamp(lo as f64, hi as f64) * step))
            })
        };
        match detect(values, step_minutes, reachable) {
            Ok(Some(periods)) => periods.as_slice().iter().any(|p| near(p.minutes)),
            Ok(None) => {
                cloudscope_obs::counter("timeseries.period.acf_skipped").inc();
                false
            }
            Err(_) => false,
        }
    }
}

/// Up to [`MAX_CANDIDATES`] items, in a fixed array: a detection's
/// candidates and the periods they validate, kept off the heap.
#[derive(Debug, Clone, Copy)]
struct Few<T> {
    items: [T; MAX_CANDIDATES],
    len: usize,
}

impl<T: Copy> Few<T> {
    fn new(fill: T) -> Self {
        Self {
            items: [fill; MAX_CANDIDATES],
            len: 0,
        }
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    /// Inserts `item` at `at`, dropping the last item if full.
    fn insert(&mut self, at: usize, item: T) {
        if at >= MAX_CANDIDATES {
            return;
        }
        self.len = (self.len + 1).min(MAX_CANDIDATES);
        self.items.copy_within(at..self.len - 1, at + 1);
        self.items[at] = item;
    }
}

/// Detects the periods of `values`, sampled every `step_minutes`, in
/// candidate order (strongest periodogram bin first) — or `None`,
/// without the ACF, if `reachable(lo, hi)` is false for every
/// candidate's refine window `lo..=hi` (the lags stage 2 can validate
/// the candidate at), as when there is no candidate at all.
///
/// # Errors
/// - [`SeriesError::TooShort`] if the series has fewer than 16
///   (present) samples.
/// - [`SeriesError::ZeroVariance`] if the (present) series is constant.
fn detect(
    values: &[f64],
    step_minutes: i64,
    reachable: impl Fn(usize, usize) -> bool,
) -> Result<Option<Few<DetectedPeriod>>, SeriesError> {
    let max_lag = values.len() / 2;
    let centred = Centred::new(values, max_lag, 16)?;
    // Periodogram of the signal padded to N, read off the m-point
    // spectrum at a stride of m / N.
    let padded_n = next_power_of_two(values.len());
    let stride = centred.m / padded_n;
    // Bin k of an N-point transform corresponds to period N/k samples;
    // stage 2 searches lag_estimate ± radius, inside lags 1..max_lag.
    let window = |k: usize| {
        let lag_estimate = (padded_n as f64 / k as f64).round() as usize;
        if lag_estimate < 2 || lag_estimate > max_lag {
            return None;
        }
        let radius = ((lag_estimate as f64 * REFINE_RADIUS_FRACTION) as usize).max(1);
        Some((lag_estimate, radius))
    };
    with_plan(centred.plan_len(), |plan, buf| {
        let spectrum = Spectrum::new(plan, buf, values, &centred);
        let power = |k: usize| spectrum.power(k * stride);
        let total_power: f64 = (1..padded_n / 2).map(power).sum();
        if total_power <= 0.0 {
            return Err(SeriesError::ZeroVariance);
        }
        // Stage 1: candidate bins, strongest first (ties in bin order),
        // above the power floor.
        let mut bins = Few::new((0usize, 0.0f64));
        for k in 1..padded_n / 2 {
            let frac = power(k) / total_power;
            if frac >= MIN_POWER_FRACTION {
                let at = bins.as_slice().partition_point(|&(_, f)| f >= frac);
                bins.insert(at, (k, frac));
            }
        }
        let in_reach = bins.as_slice().iter().any(|&(k, _)| {
            window(k).is_some_and(|(lag, radius)| {
                let lo = lag.saturating_sub(radius).max(1);
                let hi = (lag + radius).min(max_lag - 1);
                lo <= hi && reachable(lo, hi)
            })
        });
        if !in_reach {
            return Ok(None);
        }
        // Stage 2: validate on the ACF.
        let acf = spectrum.acf(max_lag);
        let mut found = Few::new(DetectedPeriod {
            minutes: 0.0,
            lag: 0,
            acf_strength: 0.0,
            power_fraction: 0.0,
        });
        for &(k, frac) in bins.as_slice() {
            let Some((lag_estimate, radius)) = window(k) else {
                continue;
            };
            let Some((lag, strength)) = refine_on_acf(&acf, lag_estimate, radius, MIN_ACF) else {
                continue;
            };
            // Deduplicate: skip lags within 10% of an accepted period.
            if found
                .as_slice()
                .iter()
                .any(|p| (p.lag as f64 - lag as f64).abs() < 0.1 * p.lag as f64)
            {
                continue;
            }
            found.insert(
                found.len,
                DetectedPeriod {
                    minutes: lag as f64 * step_minutes as f64,
                    lag,
                    acf_strength: strength,
                    power_fraction: frac,
                },
            );
        }
        Ok(Some(found))
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::series::Series;
    use cloudscope_obs::testing::snapshot_diff;
    use cloudscope_obs::Registry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Every period of `values`, strongest (by ACF) first.
    fn detect_all(values: &[f64], step: i64) -> Result<Vec<DetectedPeriod>, SeriesError> {
        // `None` here means no candidate at all.
        let periods = super::detect(values, step, |_, _| true)?;
        let mut periods = periods.map_or_else(Vec::new, |p| p.as_slice().to_vec());
        periods.sort_by(|a, b| b.acf_strength.total_cmp(&a.acf_strength));
        Ok(periods)
    }

    fn detect(series: &Series) -> Result<Vec<DetectedPeriod>, SeriesError> {
        detect_all(series.values(), series.step_minutes())
    }

    fn near(series: &Series, target: f64, tolerance: f64) -> bool {
        PeriodDetector.has_period_near(series.values(), series.step_minutes(), &[target], tolerance)
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
        let periods = detect(&series).unwrap();
        assert!(!periods.is_empty());
        assert!(
            (periods[0].minutes - 1440.0).abs() <= 150.0,
            "got {:?}",
            periods[0]
        );
        assert!(near(&series, 1440.0, 150.0));
    }

    #[test]
    fn detects_hourly_period() {
        let series = weekly_series(12, 10.0, 1.0);
        assert!(near(&series, 60.0, 10.0));
        assert!(!near(&series, 1440.0, 150.0));
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
        assert!(!near(&series, 60.0, 5.0));
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
        assert!(near(&series, 1440.0, 150.0), "daily missing");
        assert!(near(&series, 60.0, 10.0), "hourly missing");
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
        assert!(near(&series, 1440.0, 150.0));
        assert!(!near(&series, 60.0, 10.0));
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
        let fast = detect_all(values, 5);
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
        let both = |values: &[f64]| {
            let fast = detect_all(values, 5).err();
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

    /// The targeted query against detecting everything with the
    /// reference and then filtering, over random series and the bands
    /// the pattern classifier asks for, at its two steps, plus bands
    /// spread over every lag.
    #[test]
    fn targeted_query_equals_detect_then_filter() {
        let mut rng = StdRng::seed_from_u64(43);
        let bands: Vec<(Vec<f64>, f64)> = [
            (vec![60.0, 30.0], 12.0),
            (vec![1440.0], 240.0),
            (vec![7.0], 0.5),
        ]
        .into_iter()
        .chain((1..40).map(|i| (vec![i as f64 * 37.0], rng.random_range(0.0..30.0))))
        .collect();
        let lengths = (16..=200).step_by(3).chain([336, 576, 1008, 2016]);
        let (mut asked, mut skipped) = (0, 0);
        for n in lengths {
            for gapped in [false, true] {
                let values = random_series(&mut rng, n, gapped);
                for (targets, tolerance) in &bands {
                    for step in [5, 30] {
                        let reference = reference::detect(&values, step);
                        let want = reference.is_ok_and(|periods| {
                            periods.iter().any(|p| {
                                targets.iter().any(|t| (p.minutes - t).abs() <= *tolerance)
                            })
                        });
                        let got =
                            PeriodDetector.has_period_near(&values, step, targets, *tolerance);
                        assert_eq!(got, want, "n {n} step {step} targets {targets:?}");
                        asked += 1;
                        let reachable = |lo: usize, hi: usize| {
                            (lo..=hi).any(|lag| {
                                targets
                                    .iter()
                                    .any(|t| (lag as f64 * step as f64 - t).abs() <= *tolerance)
                            })
                        };
                        skipped += usize::from(matches!(
                            super::detect(&values, step, reachable),
                            Ok(None)
                        ));
                    }
                }
            }
        }
        assert!(
            skipped > asked / 4,
            "{skipped} of {asked} queries skip the ACF"
        );
    }

    #[test]
    fn an_unreachable_band_takes_no_inverse_transform() {
        let registry = Arc::new(Registry::new());
        // A daily cycle on the classifier's two-day window: every
        // candidate lies near 288 samples, far from an hourly band.
        let daily = weekly_series(288, 10.0, 1.0);
        let two_days = &daily.values()[..576];
        let count = |diff: &cloudscope_obs::Snapshot| {
            let get = |name| diff.counter(name).unwrap_or(0);
            (
                get("timeseries.period.acf_skipped"),
                get("timeseries.fft.plan_cache_hits") + get("timeseries.fft.plan_cache_misses"),
            )
        };
        let (found, diff) = snapshot_diff(&registry, || {
            PeriodDetector.has_period_near(two_days, 5, &[60.0, 30.0], 12.0)
        });
        assert!(!found);
        assert_eq!(count(&diff), (1, 1), "one forward transform, no ACF");
        // The daily band is in reach: the ACF is taken and validates it.
        let (found, diff) = snapshot_diff(&registry, || {
            PeriodDetector.has_period_near(two_days, 5, &[1440.0], 240.0)
        });
        assert!(found);
        assert_eq!(count(&diff), (0, 1));
    }
}
