//! CPU-utilization distribution analyses (Figure 6): percentile bands
//! across the VM population, over the week and folded into a day.

use crate::coverage::{filled_week_series, passes_week_coverage};
use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_model::time::SAMPLE_INTERVAL_MINUTES;
use cloudscope_stats::percentile::FIGURE6_LEVELS;
use cloudscope_timeseries::{daily_profile, PercentileBands, Series};

/// A VM must cover at least this fraction of the week's slots to join
/// the band population. High enough to keep the population semantics of
/// "VMs that span the whole week", tolerant enough that realistic sample
/// loss (a few percent plus a blackout window) does not empty the figure.
pub const MIN_VM_WEEK_COVERAGE: f64 = 0.88;

/// Below this mean coverage across the included VMs the bands are
/// considered untrustworthy and [`UtilizationDistribution::run`] degrades
/// to [`AnalysisError::InsufficientData`].
pub const MIN_POPULATION_COVERAGE: f64 = 0.75;

/// Collects the hourly-resolution utilization series of up to `max_vms`
/// VMs of one cloud whose telemetry covers (almost all of) the week,
/// with gaps repaired. Returns the series and the mean pre-fill
/// coverage.
fn full_week_hourly_series(trace: &Trace, cloud: CloudKind, max_vms: usize) -> (Vec<Series>, f64) {
    // Pass 1 streams the population and keeps only (id, coverage) per
    // eligible VM — coverage is read off the stored samples, nothing is
    // filled. Pass 2 fills the series of just the strided selection; on
    // an out-of-core trace that means two forward passes over the
    // telemetry instead of ever materializing every series at once.
    let population: Vec<VmId> = trace.vms_of(cloud).map(|vm| vm.id).collect();
    let mut candidates: Vec<(VmId, f64)> = Vec::new();
    trace.scan(&population, &mut |id, util| {
        if let Some(cov) = passes_week_coverage(&util, MIN_VM_WEEK_COVERAGE) {
            candidates.push((id, cov));
        }
    });
    let stride = (candidates.len() / max_vms.max(1)).max(1);
    let (selected, coverages): (Vec<VmId>, Vec<f64>) =
        candidates.into_iter().step_by(stride).take(max_vms).unzip();
    let coverage_sum = coverages.iter().fold(0.0, |sum, cov| sum + cov);
    let mut series: Vec<Series> = Vec::with_capacity(selected.len());
    trace.scan(&selected, &mut |_, util| {
        let (values, _) =
            filled_week_series(&util, MIN_VM_WEEK_COVERAGE).expect("eligible in pass 1");
        series.push(
            Series::new(0, SAMPLE_INTERVAL_MINUTES, values)
                .downsample_mean(12)
                .expect("positive factor"),
        );
    });
    let mean_coverage = if series.is_empty() {
        0.0
    } else {
        coverage_sum / series.len() as f64
    };
    (series, mean_coverage)
}

/// The Figure 6 bundle for one cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationDistribution {
    /// Fig 6(a)/(b): percentile bands over the week (hourly resolution).
    pub weekly: PercentileBands,
    /// Fig 6(c)/(d): percentile bands over the folded day (hourly).
    pub daily: PercentileBands,
    /// Number of VMs the bands aggregate.
    pub vms: usize,
    /// Mean pre-fill week coverage of the aggregated VMs, in `[0, 1]` —
    /// how much measured (rather than interpolated) data backs the bands.
    pub coverage: f64,
}

impl UtilizationDistribution {
    /// Computes the weekly and daily utilization bands for `cloud` from
    /// up to `max_vms` week-covering telemetry series. Gap-bearing
    /// series participate as long as they cover at least
    /// [`MIN_VM_WEEK_COVERAGE`] of the week; their gaps are linearly
    /// interpolated before banding and the achieved mean coverage is
    /// reported in [`UtilizationDistribution::coverage`].
    ///
    /// # Errors
    /// - [`AnalysisError::NoData`] if no VM covers enough of the week.
    /// - [`AnalysisError::InsufficientData`] if VMs qualified but their
    ///   mean coverage falls below [`MIN_POPULATION_COVERAGE`].
    pub fn run(trace: &Trace, cloud: CloudKind, max_vms: usize) -> Result<Self, AnalysisError> {
        let (hourly, coverage) = full_week_hourly_series(trace, cloud, max_vms);
        if hourly.is_empty() {
            return Err(AnalysisError::NoData("full-week telemetry"));
        }
        if coverage < MIN_POPULATION_COVERAGE {
            return Err(AnalysisError::InsufficientData {
                what: "figure 6 utilization bands",
                coverage,
                required: MIN_POPULATION_COVERAGE,
            });
        }
        let refs: Vec<&Series> = hourly.iter().collect();
        let weekly = PercentileBands::across(&refs, &FIGURE6_LEVELS)?;

        let daily_profiles: Vec<Series> = hourly
            .iter()
            .map(|s| Series::new(0, 60, daily_profile(s).expect("hourly divides a day")))
            .collect();
        let daily_refs: Vec<&Series> = daily_profiles.iter().collect();
        let daily = PercentileBands::across(&daily_refs, &FIGURE6_LEVELS)?;

        Ok(Self {
            weekly,
            daily,
            vms: hourly.len(),
            coverage,
        })
    }

    /// Maximum of the 75th-percentile band over the week — the paper
    /// observes it stays below 30% in both clouds.
    #[must_use]
    pub fn p75_peak(&self) -> f64 {
        self.weekly
            .band(75.0)
            .map_or(0.0, |b| b.iter().cloned().fold(0.0, f64::max))
    }

    /// Standard deviation of the daily median band over the day: high
    /// for a working-hours shape (private), near zero for a flat profile
    /// (public).
    #[must_use]
    pub fn daily_median_variability(&self) -> f64 {
        self.daily.median_band_std()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn bands_have_expected_shape() {
        let trace = tiny_trace();
        let private = UtilizationDistribution::run(&trace, CloudKind::Private, 100).unwrap();
        assert_eq!(private.vms, 6);
        assert_eq!(private.weekly.bands[0].len(), 168);
        assert_eq!(private.daily.bands[0].len(), 24);
        // Bands are ordered.
        let p25 = private.weekly.band(25.0).unwrap();
        let p75 = private.weekly.band(75.0).unwrap();
        assert!(p25.iter().zip(p75).all(|(a, b)| a <= b));
    }

    #[test]
    fn private_daily_profile_varies_more_than_stable_public() {
        let trace = tiny_trace();
        let private = UtilizationDistribution::run(&trace, CloudKind::Private, 100).unwrap();
        let public = UtilizationDistribution::run(&trace, CloudKind::Public, 100).unwrap();
        // Private VMs are all diurnal; the public population is
        // stable-dominated, so its median band is flatter.
        assert!(
            private.daily_median_variability() > 1.3 * public.daily_median_variability(),
            "private {} vs public {}",
            private.daily_median_variability(),
            public.daily_median_variability()
        );
    }

    #[test]
    fn max_vms_caps_population() {
        let trace = tiny_trace();
        let d = UtilizationDistribution::run(&trace, CloudKind::Private, 3).unwrap();
        assert!(d.vms <= 3);
    }

    #[test]
    fn p75_peak_reported() {
        let trace = tiny_trace();
        let d = UtilizationDistribution::run(&trace, CloudKind::Public, 100).unwrap();
        assert!(d.p75_peak() > 0.0);
        assert!(d.p75_peak() <= 100.0);
    }

    #[test]
    fn clean_trace_reports_full_coverage() {
        let trace = tiny_trace();
        let d = UtilizationDistribution::run(&trace, CloudKind::Private, 100).unwrap();
        assert!((d.coverage - 1.0).abs() < 1e-9);
    }
}
