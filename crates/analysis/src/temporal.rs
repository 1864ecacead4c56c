//! Temporal deployment analyses (Figure 3): lifetime CDFs, VM counts and
//! creations per hour, and the cross-region coefficient of variation.

use crate::deployment::record_in_cloud;
use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_model::time::MINUTES_PER_HOUR;
use cloudscope_stats::{coefficient_of_variation, BoxPlot, Ecdf};
use cloudscope_timeseries::Series;
use std::collections::BTreeSet;

/// Hours in the trace week.
const HOURS_PER_WEEK: usize = 168;

/// ECDF of lifetimes (in minutes) of VMs that both started and ended
/// within the trace week — the paper's Figure 3(a) filter. Its value at
/// 60 minutes is the shortest-bin fraction the paper reports.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no bounded VM exists.
pub fn lifetime_cdf_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
) -> Result<Ecdf, AnalysisError> {
    let lifetimes: Vec<f64> = records
        .iter()
        .filter(|vm| record_in_cloud(vm, subscriptions, cloud))
        .filter(|vm| vm.bounded_by_trace_week())
        .filter_map(|vm| vm.lifetime())
        .map(|d| d.minutes() as f64)
        .collect();
    if lifetimes.is_empty() {
        return Err(AnalysisError::NoData("bounded vm lifetimes"));
    }
    Ecdf::new(lifetimes).map_err(AnalysisError::from)
}

/// Hourly series of alive VM counts in one region over the trace week
/// (Figure 3(b)): sample `t = 0h, 1h, …, 167h`, counting VMs alive at
/// each boundary. `records` may already be sliced to `region` (a
/// pushed-down store read); any other-region record is still filtered
/// out.
#[must_use]
pub fn vm_counts_per_hour_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
    region: RegionId,
) -> Series {
    let mut counts = vec![0.0f64; HOURS_PER_WEEK];
    for vm in records {
        if vm.region != region || vm.node.is_none() || !record_in_cloud(vm, subscriptions, cloud) {
            continue;
        }
        let Some((start, end)) = vm.overlap_with(SimTime::ZERO, SimTime::WEEK_END) else {
            continue;
        };
        // Hour boundaries h with start <= h < end.
        let first = (start.minutes() + MINUTES_PER_HOUR - 1) / MINUTES_PER_HOUR;
        let last = (end.minutes() - 1) / MINUTES_PER_HOUR;
        for h in first..=last.min(HOURS_PER_WEEK as i64 - 1) {
            counts[h as usize] += 1.0;
        }
    }
    Series::new(0, MINUTES_PER_HOUR, counts)
}

/// Hourly series of VM creations in one region over the trace week
/// (Figure 3(c)).
#[must_use]
pub fn creations_per_hour_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
    region: RegionId,
) -> Series {
    let mut counts = vec![0.0f64; HOURS_PER_WEEK];
    for vm in records {
        if vm.region == region
            && record_in_cloud(vm, subscriptions, cloud)
            && vm.created.in_trace_week()
        {
            counts[vm.created.hours() as usize] += 1.0;
        }
    }
    Series::new(0, MINUTES_PER_HOUR, counts)
}

/// Coefficient of variation of hourly creations, per region (Figure
/// 3(d)); regions with no creations are skipped. The regions are the
/// distinct ones appearing in `records`, in id order.
#[must_use]
pub fn creation_cv_by_region_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
) -> Vec<f64> {
    let regions: BTreeSet<RegionId> = records
        .iter()
        .filter(|vm| record_in_cloud(vm, subscriptions, cloud))
        .map(|vm| vm.region)
        .collect();
    regions
        .into_iter()
        .filter_map(|region| {
            let series = creations_per_hour_from(records, subscriptions, cloud, region);
            coefficient_of_variation(series.values())
        })
        .collect()
}

/// The Figure 3 bundle for both clouds.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalAnalysis {
    /// Fig 3(a): lifetime CDF, private.
    pub private_lifetimes: Ecdf,
    /// Fig 3(a): lifetime CDF, public.
    pub public_lifetimes: Ecdf,
    /// Shortest-bin (≤ 1 h) fraction, private — paper: 0.49.
    pub private_short_fraction: f64,
    /// Shortest-bin (≤ 1 h) fraction, public — paper: 0.81.
    pub public_short_fraction: f64,
    /// Fig 3(b): hourly VM counts in the sample region (private, public).
    pub vm_counts: (Series, Series),
    /// Fig 3(c): hourly creations in the sample region (private, public).
    pub creations: (Series, Series),
    /// Fig 3(d): per-region creation CV box-plots (private, public).
    pub creation_cv: (BoxPlot, BoxPlot),
}

impl TemporalAnalysis {
    /// Runs the Figure 3 analyses, using `sample_region` for the 3(b)/(c)
    /// curves.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud lacks bounded
    /// VMs or creations.
    pub fn run(trace: &Trace, sample_region: RegionId) -> Result<Self, AnalysisError> {
        Self::run_from_records(
            trace.vms(),
            trace.vms(),
            trace.subscriptions(),
            sample_region,
        )
    }

    /// Runs the Figure 3 analyses over bare record slices: `records`
    /// feeds the global curves (lifetimes, per-region CVs) and
    /// `region_records` the `sample_region`-sliced 3(b)/(c) series —
    /// the split lets a store-backed run push the region predicate
    /// down to the chunk scan instead of sweeping every VM.
    /// `region_records` may be any superset of the region's records
    /// (the region filter still applies), so passing the full set
    /// reproduces [`TemporalAnalysis::run`] exactly.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud lacks bounded
    /// VMs or creations.
    pub fn run_from_records(
        records: &[VmRecord],
        region_records: &[VmRecord],
        subscriptions: &[Subscription],
        sample_region: RegionId,
    ) -> Result<Self, AnalysisError> {
        let private_lifetimes = lifetime_cdf_from(records, subscriptions, CloudKind::Private)?;
        let public_lifetimes = lifetime_cdf_from(records, subscriptions, CloudKind::Public)?;
        let private_short_fraction = private_lifetimes.eval(60.0);
        let public_short_fraction = public_lifetimes.eval(60.0);
        let cv_private = creation_cv_by_region_from(records, subscriptions, CloudKind::Private);
        let cv_public = creation_cv_by_region_from(records, subscriptions, CloudKind::Public);
        if cv_private.is_empty() || cv_public.is_empty() {
            return Err(AnalysisError::NoData("per-region creation CVs"));
        }
        Ok(Self {
            private_lifetimes,
            public_lifetimes,
            private_short_fraction,
            public_short_fraction,
            vm_counts: (
                vm_counts_per_hour_from(
                    region_records,
                    subscriptions,
                    CloudKind::Private,
                    sample_region,
                ),
                vm_counts_per_hour_from(
                    region_records,
                    subscriptions,
                    CloudKind::Public,
                    sample_region,
                ),
            ),
            creations: (
                creations_per_hour_from(
                    region_records,
                    subscriptions,
                    CloudKind::Private,
                    sample_region,
                ),
                creations_per_hour_from(
                    region_records,
                    subscriptions,
                    CloudKind::Public,
                    sample_region,
                ),
            ),
            creation_cv: (BoxPlot::new(cv_private)?, BoxPlot::new(cv_public)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn lifetime_cdf_only_counts_bounded_vms() {
        let trace = tiny_trace();
        let private =
            lifetime_cdf_from(trace.vms(), trace.subscriptions(), CloudKind::Private).unwrap();
        // Only sub1's VM is bounded: 30 minutes.
        assert_eq!(private.len(), 1);
        assert_eq!(private.quantile(1.0), 30.0);
        let public =
            lifetime_cdf_from(trace.vms(), trace.subscriptions(), CloudKind::Public).unwrap();
        // Only sub3's VM: 600 minutes.
        assert_eq!(public.len(), 1);
        assert_eq!(public.quantile(1.0), 600.0);
    }

    #[test]
    fn shortest_bin_fraction_uses_one_hour_bin() {
        let trace = tiny_trace();
        let analysis = TemporalAnalysis::run(&trace, RegionId::new(0)).unwrap();
        assert_eq!(analysis.private_short_fraction, 1.0);
        assert_eq!(analysis.public_short_fraction, 0.0);
    }

    #[test]
    fn vm_counts_track_alive_population() {
        let trace = tiny_trace();
        let counts = vm_counts_per_hour_from(
            trace.vms(),
            trace.subscriptions(),
            CloudKind::Private,
            RegionId::new(0),
        );
        assert_eq!(counts.len(), 168);
        // 4 standing VMs always; the short-lived VM only exists between
        // 10:00 and 10:30, so it never crosses an hour boundary after 10.
        assert_eq!(counts.values()[9], 4.0);
        assert_eq!(counts.values()[10], 5.0, "alive at the 10:00 boundary");
        assert_eq!(counts.values()[11], 4.0);
    }

    #[test]
    fn creations_bucket_by_hour() {
        let trace = tiny_trace();
        let (vms, subs) = (trace.vms(), trace.subscriptions());
        let created = creations_per_hour_from(vms, subs, CloudKind::Private, RegionId::new(0));
        assert_eq!(created.values().iter().sum::<f64>(), 1.0);
        assert_eq!(created.values()[10], 1.0);
        let public_created =
            creations_per_hour_from(vms, subs, CloudKind::Public, RegionId::new(0));
        assert_eq!(public_created.values()[20], 1.0);
    }

    #[test]
    fn cv_by_region_skips_empty_regions() {
        let trace = tiny_trace();
        // Private creations only happen in region 0; region 1 has none
        // (its mean is 0 so CV is undefined and skipped).
        let cvs =
            creation_cv_by_region_from(trace.vms(), trace.subscriptions(), CloudKind::Private);
        assert_eq!(cvs.len(), 1);
        assert!(cvs[0] > 5.0, "a single spike hour has a huge CV");
    }

    #[test]
    fn full_temporal_analysis() {
        let trace = tiny_trace();
        let analysis = TemporalAnalysis::run(&trace, RegionId::new(0)).unwrap();
        assert!(analysis.private_short_fraction > analysis.public_short_fraction - 1.5);
        assert_eq!(analysis.vm_counts.0.len(), 168);
        assert_eq!(analysis.creations.1.len(), 168);
    }
}
