//! The utilization-pattern classifier (Figure 5): assigns each VM's CPU
//! series to one of the four archetypes — diurnal, stable, irregular, or
//! hourly-peak — using the Vlachos-style period detector plus a standard-
//! deviation gate, exactly the recipe the paper describes.

use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::{MISSING_SAMPLE_BYTE, QUANT_STEPS_PER_PERCENT};
use cloudscope_model::time::SAMPLE_INTERVAL_MINUTES;
use cloudscope_par::Parallelism;
use cloudscope_timeseries::gaps::{fill_linear_capped, finite_std};
use cloudscope_timeseries::series::downsample_mean_into;
use cloudscope_timeseries::PeriodDetector;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

pub use cloudscope_model::pattern::UtilizationPattern;

/// Series with standard deviation below this (percentage points) are
/// stable.
const STABLE_STD_THRESHOLD: f64 = 3.0;
/// Sub-daily periods within this tolerance of 30 or 60 minutes count as
/// hourly peaks.
const HOURLY_TOLERANCE_MINUTES: f64 = 12.0;
/// Periods within this tolerance of 24 h count as diurnal.
const DAILY_TOLERANCE_MINUTES: f64 = 240.0;
/// Minimum telemetry length (in days) to classify a VM at all.
const MIN_DAYS: usize = 3;
/// Minimum fraction of present (non-gap) samples to classify a
/// gap-bearing series at all.
const MIN_COVERAGE: f64 = 0.6;
/// Gaps up to this many samples (30 minutes) are linearly interpolated
/// before classification: short monitor hiccups are repaired, but a
/// blackout window stays masked, for the gap-aware period detector,
/// rather than invented.
const MAX_FILL_GAP_SAMPLES: usize = 6;

thread_local! {
    /// This thread's working buffers: a series as `f64` percentages
    /// (gaps NaN, then filled in place; of a gap-free series only the
    /// two-day window is needed), and its half-hourly downsample.
    /// They grow to the longest series classified here and are reused,
    /// so steady-state classification allocates only inside the period
    /// detector.
    static BUFFERS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The pattern classifier, tuned by the constants above.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatternClassifier;

impl PatternClassifier {
    /// Classifies one VM's telemetry as the monitor reported it; `None`
    /// if it is too short or too sparse. The batch, out-of-core, and
    /// streaming paths all land here, which is what makes their outputs
    /// directly comparable.
    #[must_use]
    pub fn classify_util(&self, util: &UtilSeries) -> Option<UtilizationPattern> {
        self.classify_levels(util.as_quantized())
    }

    /// Classifies a 5-minute series given as its stored levels (the
    /// bytes [`UtilSeries::as_quantized`] exposes, missing slots
    /// included); `None` if it is too short (fewer than `MIN_DAYS` days
    /// of *present* samples after the fill) or too sparse (coverage
    /// below `MIN_COVERAGE`).
    ///
    /// Gap-bearing series are repaired first: gaps up to
    /// `MAX_FILL_GAP_SAMPLES` are linearly interpolated, longer ones
    /// stay masked and flow into the gap-aware period detector. The
    /// levels are read into this thread's reused buffers, as the
    /// percentages [`UtilSeries::to_f64_vec`] yields.
    #[must_use]
    pub fn classify_levels(&self, levels: &[u8]) -> Option<UtilizationPattern> {
        let (mut values, mut coarse) = BUFFERS.take();
        let pattern = classify_into(levels, &mut values, &mut coarse);
        BUFFERS.set((values, coarse));
        pattern
    }

    /// Classifies one VM given any [`TelemetrySource`] — a resident
    /// [`Trace`], an out-of-core store, or a live ingest session — and
    /// returns `None` if the VM lacks telemetry or the telemetry is too
    /// short. A caller that already holds the series uses
    /// [`PatternClassifier::classify_util`] instead of loading it again.
    #[must_use]
    pub fn classify_vm(
        &self,
        source: &(impl TelemetrySource + ?Sized),
        vm: VmId,
    ) -> Option<UtilizationPattern> {
        self.classify_util(&source.load(vm)?)
    }
}

/// A present stored level as the percentage [`UtilSeries::to_f64_vec`]
/// yields for it.
fn percent(q: u8) -> f64 {
    f64::from(q) / f64::from(QUANT_STEPS_PER_PERCENT)
}

/// [`PatternClassifier::classify_levels`] in the buffers `values` and
/// `coarse`.
///
/// A gap-free series is read off its bytes with integer sums where the
/// `f64` fold would be exact anyway: every percentage is a multiple of
/// ½ and a week's sum stays far below 2⁵³, so adding them in order loses
/// nothing, and the mean and each half-hourly bucket mean come out bit
/// for bit as the `f64` loops of `finite_std` and `downsample_mean_into`
/// compute them. The squared deviations are not exact, so they are
/// summed in series order, as `finite_std` sums them.
fn classify_into(
    levels: &[u8],
    values: &mut Vec<f64>,
    coarse: &mut Vec<f64>,
) -> Option<UtilizationPattern> {
    let step = SAMPLE_INTERVAL_MINUTES;
    let samples_per_day = (24 * 60 / step) as usize;
    let factor = (30 / step).max(1) as usize;
    let missing = levels.iter().filter(|&&q| q == MISSING_SAMPLE_BYTE).count();
    let dense = missing == 0;
    let std = if dense {
        cloudscope_obs::counter("analysis.classify.dense_dispatch").inc();
        if levels.len() < MIN_DAYS * samples_per_day {
            return None;
        }
        dense_std(levels)
    } else {
        let coverage = (levels.len() - missing) as f64 / levels.len() as f64;
        if coverage < MIN_COVERAGE {
            cloudscope_obs::counter("analysis.classify.coverage_rejections").inc();
            return None;
        }
        cloudscope_obs::counter("analysis.classify.masked_dispatch").inc();
        values.clear();
        values.extend(levels.iter().map(|&q| {
            if q == MISSING_SAMPLE_BYTE {
                f64::NAN
            } else {
                percent(q)
            }
        }));
        let fill = fill_linear_capped(values, MAX_FILL_GAP_SAMPLES);
        if fill.remaining > 0 {
            cloudscope_obs::counter("analysis.classify.fill_cap_hits").inc();
        }
        if values.len() - fill.remaining < MIN_DAYS * samples_per_day {
            return None;
        }
        finite_std(values).unwrap_or(0.0)
    };
    // Stable gate first: the paper extracts the stable class by
    // restricting the standard deviation (over present samples).
    if std < STABLE_STD_THRESHOLD {
        return Some(UtilizationPattern::Stable);
    }
    // Hourly-peak: a strong sub-daily period at 30/60 minutes,
    // detected on a two-day window at native resolution. One
    // spectrum serves both targets.
    let two_days = (2 * samples_per_day).min(levels.len());
    if dense {
        values.clear();
        values.extend(levels[..two_days].iter().map(|&q| percent(q)));
    }
    if PeriodDetector.has_period_near(
        &values[..two_days],
        step,
        &[60.0, 30.0],
        HOURLY_TOLERANCE_MINUTES,
    ) {
        return Some(UtilizationPattern::HourlyPeak);
    }
    // Diurnal: a 24-hour period, detected on a half-hourly
    // downsample of the full series (cheap and leakage-resistant).
    if dense {
        dense_downsample(levels, factor, coarse);
    } else {
        downsample_mean_into(values, factor, coarse).expect("positive factor");
    }
    if PeriodDetector.has_period_near(
        coarse,
        step * factor as i64,
        &[24.0 * 60.0],
        DAILY_TOLERANCE_MINUTES,
    ) {
        return Some(UtilizationPattern::Diurnal);
    }
    Some(UtilizationPattern::Irregular)
}

/// `finite_std` of a gap-free series' percentages, from its levels.
fn dense_std(levels: &[u8]) -> f64 {
    let steps: u64 = levels.iter().map(|&q| u64::from(q)).sum();
    let mean = steps as f64 / f64::from(QUANT_STEPS_PER_PERCENT) / levels.len() as f64;
    let mut sum_sq = 0.0;
    for &q in levels {
        sum_sq += (percent(q) - mean) * (percent(q) - mean);
    }
    (sum_sq / levels.len() as f64).sqrt()
}

/// `downsample_mean_into` of a gap-free series' percentages, from its
/// levels.
fn dense_downsample(levels: &[u8], factor: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend(levels.chunks(factor).map(|bucket| {
        let steps: u32 = bucket.iter().map(|&q| u32::from(q)).sum();
        f64::from(steps) / f64::from(QUANT_STEPS_PER_PERCENT) / bucket.len() as f64
    }));
}

/// Class shares over a VM population (Figure 5(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PatternShares {
    /// VMs classified diurnal.
    pub diurnal: usize,
    /// VMs classified stable.
    pub stable: usize,
    /// VMs classified irregular.
    pub irregular: usize,
    /// VMs classified hourly-peak.
    pub hourly_peak: usize,
    /// VMs skipped (no or too-short telemetry).
    pub unclassified: usize,
}

impl PatternShares {
    /// Total classified VMs.
    #[must_use]
    pub fn classified(&self) -> usize {
        self.diurnal + self.stable + self.irregular + self.hourly_peak
    }

    /// Fraction of classified VMs in `pattern` (0 if nothing classified).
    #[must_use]
    pub fn fraction(&self, pattern: UtilizationPattern) -> f64 {
        let total = self.classified();
        if total == 0 {
            return 0.0;
        }
        let count = match pattern {
            UtilizationPattern::Diurnal => self.diurnal,
            UtilizationPattern::Stable => self.stable,
            UtilizationPattern::Irregular => self.irregular,
            UtilizationPattern::HourlyPeak => self.hourly_peak,
        };
        count as f64 / total as f64
    }

    fn add(&mut self, pattern: Option<UtilizationPattern>) {
        match pattern {
            Some(UtilizationPattern::Diurnal) => self.diurnal += 1,
            Some(UtilizationPattern::Stable) => self.stable += 1,
            Some(UtilizationPattern::Irregular) => self.irregular += 1,
            Some(UtilizationPattern::HourlyPeak) => self.hourly_peak += 1,
            None => self.unclassified += 1,
        }
    }
}

/// Classifies (up to `max_vms`, stride-sampled) VMs of one cloud and
/// tallies the class shares. Work is spread over worker threads.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no VM could be classified.
pub fn pattern_shares(
    trace: &Trace,
    cloud: CloudKind,
    classifier: &PatternClassifier,
    max_vms: usize,
) -> Result<PatternShares, AnalysisError> {
    pattern_shares_from(trace, trace, cloud, classifier, max_vms)
}

/// [`pattern_shares`] with telemetry decoupled from VM metadata: `trace`
/// supplies the population, `source` the samples. Pass the trace itself
/// for resident telemetry, a [`StoreTelemetry`] for out-of-core reads,
/// or an `IngestSession` for streamed state — same classifier, same
/// tallies. A VM whose verdict the source already holds
/// ([`TelemetrySource::classified`]) is tallied as it stands; the rest
/// of the sample is pulled through `source` in ascending batches of
/// bounded size, each classified in parallel.
///
/// [`StoreTelemetry`]: https://docs.rs/cloudscope-store
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no VM could be classified.
pub fn pattern_shares_from(
    trace: &Trace,
    source: &(impl TelemetrySource + ?Sized),
    cloud: CloudKind,
    classifier: &PatternClassifier,
    max_vms: usize,
) -> Result<PatternShares, AnalysisError> {
    let candidates: Vec<VmId> = trace
        .vms_of(cloud)
        .filter(|vm| source.has(vm.id))
        .map(|vm| vm.id)
        .collect();
    let stride = (candidates.len() / max_vms.max(1)).max(1);
    let mut shares = PatternShares::default();
    let unknown: Vec<VmId> = candidates
        .into_iter()
        .step_by(stride)
        .take(max_vms)
        .filter(|&vm| match source.classified(vm) {
            Some(pattern) => {
                shares.add(pattern);
                false
            }
            None => true,
        })
        .collect();

    for (batch, gathered) in trace.gather_batches(source, &unknown, |&vm, ids| ids.push(vm)) {
        for pattern in
            Parallelism::auto().par_map(batch, |&vm| classifier.classify_vm(&gathered, vm))
        {
            shares.add(pattern);
        }
    }

    if shares.classified() == 0 {
        return Err(AnalysisError::NoData("classifiable telemetry"));
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{diurnal_series, stable_series, tiny_trace};

    /// Classifies 5-minute percentages (NaN a missing slot), stored as
    /// the monitor would store them.
    fn classify(values: &[f64]) -> Option<UtilizationPattern> {
        let util = UtilSeries::from_percentages(SimTime::ZERO, values.iter().map(|&v| v as f32));
        PatternClassifier.classify_util(&util)
    }

    #[test]
    fn classifies_diurnal() {
        assert_eq!(
            PatternClassifier.classify_util(&diurnal_series(14.0, 0, 1)),
            Some(UtilizationPattern::Diurnal)
        );
    }

    #[test]
    fn classifies_stable() {
        assert_eq!(
            PatternClassifier.classify_util(&stable_series(20.0, 3)),
            Some(UtilizationPattern::Stable)
        );
    }

    #[test]
    fn classifies_hourly_peak() {
        // Spikes at :00 and :30 during work hours for a week.
        let values: Vec<f64> = (0..2016)
            .map(|i| {
                let minute = i * 5;
                let t = cloudscope_model::time::SimTime::from_minutes(minute);
                let work = !t.is_weekend() && (8..18).contains(&t.hour_of_day());
                let m = minute % 30;
                let spike = if m < 10 {
                    40.0 * (1.0 - m as f64 / 10.0)
                } else {
                    0.0
                };
                8.0 + if work { spike } else { 0.0 }
            })
            .collect();
        assert_eq!(classify(&values), Some(UtilizationPattern::HourlyPeak));
    }

    #[test]
    fn classifies_irregular() {
        // Low base, a few tall aperiodic plateaus.
        let values: Vec<f64> = (0..2016)
            .map(|i| {
                let spike = matches!(i, 200..=215 | 777..=790 | 1500..=1540);
                if spike {
                    70.0
                } else {
                    5.0
                }
            })
            .collect();
        assert_eq!(classify(&values), Some(UtilizationPattern::Irregular));
    }

    #[test]
    fn too_short_series_is_unclassified() {
        assert_eq!(classify(&[10.0; 100]), None);
    }

    #[test]
    fn corrupted_diurnal_still_classifies_diurnal() {
        let mut values = diurnal_series(14.0, 0, 1).to_f64_vec();
        // 5% pseudo-random loss plus a 6-hour blackout.
        for i in (0..values.len()).step_by(20) {
            values[i] = f64::NAN;
        }
        for v in &mut values[700..772] {
            *v = f64::NAN;
        }
        assert_eq!(classify(&values), Some(UtilizationPattern::Diurnal));
    }

    #[test]
    fn corrupted_stable_still_classifies_stable() {
        let mut values = stable_series(20.0, 3).to_f64_vec();
        for i in (0..values.len()).step_by(13) {
            values[i] = f64::NAN;
        }
        assert_eq!(classify(&values), Some(UtilizationPattern::Stable));
    }

    #[test]
    fn sparse_series_is_unclassified() {
        // Only every fourth sample present: coverage 0.25 < 0.6 floor.
        let values: Vec<f64> = (0..2016)
            .map(|i| if i % 4 == 0 { 10.0 } else { f64::NAN })
            .collect();
        assert_eq!(classify(&values), None);
    }

    #[test]
    fn shares_over_tiny_trace() {
        let trace = tiny_trace();
        let classifier = PatternClassifier;
        let private = pattern_shares(&trace, CloudKind::Private, &classifier, 1000).unwrap();
        // All 6 telemetry VMs of the private cloud are diurnal.
        assert_eq!(private.diurnal, 6);
        assert_eq!(private.classified(), 6);
        assert!((private.fraction(UtilizationPattern::Diurnal) - 1.0).abs() < 1e-12);
        let public = pattern_shares(&trace, CloudKind::Public, &classifier, 1000).unwrap();
        assert_eq!(public.stable, 2, "sub2 and sub5");
        assert_eq!(public.diurnal, 2, "sub4's two VMs");
    }

    #[test]
    fn max_vms_caps_work() {
        let trace = tiny_trace();
        let classifier = PatternClassifier;
        let shares = pattern_shares(&trace, CloudKind::Private, &classifier, 2).unwrap();
        assert!(shares.classified() <= 2);
    }

    proptest::proptest! {
        /// The integer folds of a gap-free series are the `f64` folds
        /// they replace, bit for bit, on any present level (201..=254
        /// included) and any length.
        #[test]
        fn dense_folds_equal_the_f64_folds(
            levels in proptest::collection::vec(0u8..MISSING_SAMPLE_BYTE, 1..2100),
            factor in 1usize..13,
        ) {
            let values: Vec<f64> = levels.iter().map(|&q| percent(q)).collect();
            let want = finite_std(&values).expect("present samples");
            proptest::prop_assert_eq!(dense_std(&levels).to_bits(), want.to_bits());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            dense_downsample(&levels, factor, &mut got);
            downsample_mean_into(&values, factor, &mut want).expect("positive factor");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(UtilizationPattern::HourlyPeak.to_string(), "hourly-peak");
        assert_eq!(UtilizationPattern::ALL.len(), 4);
    }
}
