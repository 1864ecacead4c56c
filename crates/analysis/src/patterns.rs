//! The utilization-pattern classifier (Figure 5): assigns each VM's CPU
//! series to one of the four archetypes — diurnal, stable, irregular, or
//! hourly-peak — using the Vlachos-style period detector plus a standard-
//! deviation gate, exactly the recipe the paper describes.

use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_par::Parallelism;
use cloudscope_timeseries::gaps::{coverage, fill_linear_capped, finite_std};
use cloudscope_timeseries::{DetectedPeriod, PeriodDetector, Series, SeriesError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four utilization-pattern classes of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilizationPattern {
    /// Daily periodicity tied to user activity.
    Diurnal,
    /// Low standard deviation — over-subscription candidate.
    Stable,
    /// Neither periodic nor flat.
    Irregular,
    /// Periodicity at the hour/half-hour scale (meeting joins).
    HourlyPeak,
}

impl UtilizationPattern {
    /// All classes, in Figure 5 order.
    pub const ALL: [UtilizationPattern; 4] = [
        UtilizationPattern::Diurnal,
        UtilizationPattern::Stable,
        UtilizationPattern::Irregular,
        UtilizationPattern::HourlyPeak,
    ];
}

impl fmt::Display for UtilizationPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UtilizationPattern::Diurnal => "diurnal",
            UtilizationPattern::Stable => "stable",
            UtilizationPattern::Irregular => "irregular",
            UtilizationPattern::HourlyPeak => "hourly-peak",
        })
    }
}

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

/// The pattern classifier, tuned by the constants above.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatternClassifier;

impl PatternClassifier {
    /// Classifies a 5-minute utilization series; `None` if it is too
    /// short (fewer than `MIN_DAYS` days of *present* samples) or too
    /// sparse (coverage below `MIN_COVERAGE`).
    ///
    /// Gap-bearing series (NaN slots) are repaired first: gaps up to
    /// `MAX_FILL_GAP_SAMPLES` are linearly interpolated, longer ones
    /// stay masked and flow into the gap-aware period detector.
    #[must_use]
    pub fn classify_series(&self, series: &Series) -> Option<UtilizationPattern> {
        self.classify_series_with(series, |values, step| PeriodDetector.detect(values, step))
    }

    /// [`PatternClassifier::classify_series`] with `detect` (values, step
    /// in minutes) as the period detector: the decision logic, whichever
    /// detector computes the periods it decides on.
    #[must_use]
    pub fn classify_series_with(
        &self,
        series: &Series,
        detect: impl Fn(&[f64], i64) -> Result<Vec<DetectedPeriod>, SeriesError>,
    ) -> Option<UtilizationPattern> {
        let step = series.step_minutes();
        let samples_per_day = (24 * 60 / step) as usize;
        let has_gaps = series.values().iter().any(|v| !v.is_finite());
        let filled_storage: Series;
        let series = if has_gaps {
            if coverage(series.values()) < MIN_COVERAGE {
                cloudscope_obs::counter("analysis.classify.coverage_rejections").inc();
                return None;
            }
            cloudscope_obs::counter("analysis.classify.masked_dispatch").inc();
            let mut values = series.values().to_vec();
            fill_linear_capped(&mut values, MAX_FILL_GAP_SAMPLES);
            if values.iter().any(|v| !v.is_finite()) {
                cloudscope_obs::counter("analysis.classify.fill_cap_hits").inc();
            }
            filled_storage = Series::new(series.start_minute(), step, values);
            &filled_storage
        } else {
            cloudscope_obs::counter("analysis.classify.dense_dispatch").inc();
            series
        };
        let present = if has_gaps {
            series.values().iter().filter(|v| v.is_finite()).count()
        } else {
            series.len()
        };
        if present < MIN_DAYS * samples_per_day {
            return None;
        }
        // Stable gate first: the paper extracts the stable class by
        // restricting the standard deviation (over present samples).
        if finite_std(series.values()).unwrap_or(0.0) < STABLE_STD_THRESHOLD {
            return Some(UtilizationPattern::Stable);
        }
        let has_period_near = |values: &[f64], step: i64, targets: &[f64], tol: f64| {
            detect(values, step).is_ok_and(|periods| {
                periods
                    .iter()
                    .any(|p| targets.iter().any(|t| (p.minutes - t).abs() <= tol))
            })
        };
        // Hourly-peak: a strong sub-daily period at 30/60 minutes,
        // detected on a two-day window at native resolution. One
        // spectrum serves both targets.
        let two_days = (2 * samples_per_day).min(series.len());
        if has_period_near(
            &series.values()[..two_days],
            step,
            &[60.0, 30.0],
            HOURLY_TOLERANCE_MINUTES,
        ) {
            return Some(UtilizationPattern::HourlyPeak);
        }
        // Diurnal: a 24-hour period, detected on a half-hourly
        // downsample of the full series (cheap and leakage-resistant).
        let coarse = series
            .downsample_mean((30 / step).max(1) as usize)
            .expect("positive factor");
        if has_period_near(
            coarse.values(),
            coarse.step_minutes(),
            &[24.0 * 60.0],
            DAILY_TOLERANCE_MINUTES,
        ) {
            return Some(UtilizationPattern::Diurnal);
        }
        Some(UtilizationPattern::Irregular)
    }

    /// Classifies one VM's telemetry as the monitor reported it; `None`
    /// if it is too short or too sparse. The batch, out-of-core, and
    /// streaming paths all land here, which is what makes their outputs
    /// directly comparable.
    #[must_use]
    pub fn classify_util(&self, util: &UtilSeries) -> Option<UtilizationPattern> {
        let series = Series::new(
            util.start().minutes(),
            cloudscope_model::time::SAMPLE_INTERVAL_MINUTES,
            util.to_f64_vec(),
        );
        self.classify_series(&series)
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
/// tallies. The sample is pulled through `source` in ascending batches
/// of bounded size, each classified in parallel.
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
    let sampled: Vec<VmId> = candidates
        .into_iter()
        .step_by(stride)
        .take(max_vms)
        .collect();

    let mut shares = PatternShares::default();
    for (batch, gathered) in trace.gather_batches(source, &sampled, |&vm, ids| ids.push(vm)) {
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

    fn to_series(util: &UtilSeries) -> Series {
        Series::new(util.start().minutes(), 5, util.to_f64_vec())
    }

    #[test]
    fn classifies_diurnal() {
        let classifier = PatternClassifier;
        let series = to_series(&diurnal_series(14.0, 0, 1));
        assert_eq!(
            classifier.classify_series(&series),
            Some(UtilizationPattern::Diurnal)
        );
    }

    #[test]
    fn classifies_stable() {
        let classifier = PatternClassifier;
        let series = to_series(&stable_series(20.0, 3));
        assert_eq!(
            classifier.classify_series(&series),
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
        let series = Series::new(0, 5, values);
        assert_eq!(
            PatternClassifier.classify_series(&series),
            Some(UtilizationPattern::HourlyPeak)
        );
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
        let series = Series::new(0, 5, values);
        assert_eq!(
            PatternClassifier.classify_series(&series),
            Some(UtilizationPattern::Irregular)
        );
    }

    #[test]
    fn too_short_series_is_unclassified() {
        let series = Series::new(0, 5, vec![10.0; 100]);
        assert_eq!(PatternClassifier.classify_series(&series), None);
    }

    #[test]
    fn corrupted_diurnal_still_classifies_diurnal() {
        let classifier = PatternClassifier;
        let mut series = to_series(&diurnal_series(14.0, 0, 1));
        let values = series.values_mut();
        // 5% pseudo-random loss plus a 6-hour blackout.
        for i in (0..values.len()).step_by(20) {
            values[i] = f64::NAN;
        }
        for v in &mut values[700..772] {
            *v = f64::NAN;
        }
        assert_eq!(
            classifier.classify_series(&series),
            Some(UtilizationPattern::Diurnal)
        );
    }

    #[test]
    fn corrupted_stable_still_classifies_stable() {
        let classifier = PatternClassifier;
        let mut series = to_series(&stable_series(20.0, 3));
        for i in (0..series.len()).step_by(13) {
            series.values_mut()[i] = f64::NAN;
        }
        assert_eq!(
            classifier.classify_series(&series),
            Some(UtilizationPattern::Stable)
        );
    }

    #[test]
    fn sparse_series_is_unclassified() {
        // Only every fourth sample present: coverage 0.25 < 0.6 floor.
        let values: Vec<f64> = (0..2016)
            .map(|i| if i % 4 == 0 { 10.0 } else { f64::NAN })
            .collect();
        let series = Series::new(0, 5, values);
        assert_eq!(PatternClassifier.classify_series(&series), None);
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

    #[test]
    fn display_names() {
        assert_eq!(UtilizationPattern::HourlyPeak.to_string(), "hourly-peak");
        assert_eq!(UtilizationPattern::ALL.len(), 4);
    }
}
