//! Spatial deployment analyses (Figure 4): regions per subscription and
//! the core-weighted variant.

use crate::deployment::record_in_cloud;
use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_stats::Ecdf;
use std::collections::{HashMap, HashSet};

/// Per-subscription deployment extent: distinct regions and allocated
/// cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionExtent {
    /// The subscription.
    pub subscription: SubscriptionId,
    /// Number of distinct regions with at least one placed VM.
    pub regions: usize,
    /// Total allocated cores over the subscription's placed VMs.
    pub cores: u64,
}

/// Computes the deployment extent of every subscription of `cloud` that
/// placed at least one VM. It only needs VM metadata, so a pushed-down
/// store read that skips every telemetry chunk reproduces it exactly.
#[must_use]
pub fn subscription_extents_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
) -> Vec<SubscriptionExtent> {
    let mut regions: HashMap<SubscriptionId, HashSet<RegionId>> = HashMap::new();
    let mut cores: HashMap<SubscriptionId, u64> = HashMap::new();
    for vm in records {
        if !record_in_cloud(vm, subscriptions, cloud) || vm.node.is_none() {
            continue;
        }
        regions
            .entry(vm.subscription)
            .or_default()
            .insert(vm.region);
        *cores.entry(vm.subscription).or_insert(0) += u64::from(vm.size.cores());
    }
    let mut extents: Vec<SubscriptionExtent> = regions
        .into_iter()
        .map(|(subscription, set)| SubscriptionExtent {
            subscription,
            regions: set.len(),
            cores: cores[&subscription],
        })
        .collect();
    extents.sort_by_key(|e| e.subscription);
    extents
}

/// ECDF of the number of deployed regions per subscription
/// (Figure 4(a)).
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if the cloud has no subscriptions
/// with placed VMs.
fn regions_cdf_from_extents(extents: Vec<SubscriptionExtent>) -> Result<Ecdf, AnalysisError> {
    if extents.is_empty() {
        return Err(AnalysisError::NoData("regions per subscription"));
    }
    Ecdf::from_iter(extents.into_iter().map(|e| e.regions as f64)).map_err(AnalysisError::from)
}

/// The core-weighted CDF of Figure 4(b): point `(k, F)` means a fraction
/// `F` of the cloud's allocated cores belongs to subscriptions deployed
/// in at most `k` regions.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if the cloud has no allocated cores.
fn core_weighted_from_extents(
    extents: &[SubscriptionExtent],
) -> Result<Vec<(usize, f64)>, AnalysisError> {
    let total: u64 = extents.iter().map(|e| e.cores).sum();
    if total == 0 {
        return Err(AnalysisError::NoData("allocated cores"));
    }
    let max_regions = extents.iter().map(|e| e.regions).max().unwrap_or(1);
    let mut curve = Vec::with_capacity(max_regions);
    let mut acc = 0u64;
    for k in 1..=max_regions {
        acc += extents
            .iter()
            .filter(|e| e.regions == k)
            .map(|e| e.cores)
            .sum::<u64>();
        curve.push((k, acc as f64 / total as f64));
    }
    Ok(curve)
}

/// The Figure 4 bundle for both clouds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialAnalysis {
    /// Fig 4(a), private.
    pub private_regions: Ecdf,
    /// Fig 4(a), public.
    pub public_regions: Ecdf,
    /// Fig 4(b), private.
    pub private_core_weighted: Vec<(usize, f64)>,
    /// Fig 4(b), public.
    pub public_core_weighted: Vec<(usize, f64)>,
    /// Fraction of private cores held by single-region subscriptions —
    /// paper: ≈ 0.40.
    pub private_single_region_core_share: f64,
    /// Fraction of public cores held by single-region subscriptions —
    /// paper: ≈ 0.70.
    pub public_single_region_core_share: f64,
}

impl SpatialAnalysis {
    /// Runs the Figure 4 analyses.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud is empty.
    pub fn run(trace: &Trace) -> Result<Self, AnalysisError> {
        Self::run_from_records(trace.vms(), trace.subscriptions())
    }

    /// Runs the Figure 4 analyses over a bare record slice, as produced
    /// by a metadata-only store scan (`read_vm_records`) that never
    /// touches a telemetry chunk.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud is empty.
    pub fn run_from_records(
        records: &[VmRecord],
        subscriptions: &[Subscription],
    ) -> Result<Self, AnalysisError> {
        let private_extents = subscription_extents_from(records, subscriptions, CloudKind::Private);
        let public_extents = subscription_extents_from(records, subscriptions, CloudKind::Public);
        let private_core_weighted = core_weighted_from_extents(&private_extents)?;
        let public_core_weighted = core_weighted_from_extents(&public_extents)?;
        let single_share = |curve: &[(usize, f64)]| curve.first().map_or(0.0, |&(_, f)| f);
        Ok(Self {
            private_regions: regions_cdf_from_extents(private_extents)?,
            public_regions: regions_cdf_from_extents(public_extents)?,
            private_single_region_core_share: single_share(&private_core_weighted),
            public_single_region_core_share: single_share(&public_core_weighted),
            private_core_weighted,
            public_core_weighted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn extents_count_regions_and_cores() {
        let trace = tiny_trace();
        let extents =
            subscription_extents_from(trace.vms(), trace.subscriptions(), CloudKind::Private);
        assert_eq!(extents.len(), 2);
        // sub0: 6 VMs of 4 cores in 2 regions.
        assert_eq!(extents[0].regions, 2);
        assert_eq!(extents[0].cores, 24);
        // sub1: one 2-core VM in one region.
        assert_eq!(extents[1].regions, 1);
        assert_eq!(extents[1].cores, 2);
    }

    #[test]
    fn regions_cdf() {
        let trace = tiny_trace();
        let public = SpatialAnalysis::run(&trace).unwrap().public_regions;
        // sub2: 1, sub3: 1, sub4: 2, sub5: 1 regions.
        assert_eq!(public.eval(1.0), 0.75);
        assert_eq!(public.eval(2.0), 1.0);
    }

    #[test]
    fn core_weighted_curve() {
        let trace = tiny_trace();
        let private = SpatialAnalysis::run(&trace).unwrap().private_core_weighted;
        // Single-region sub1 holds 2 of 26 private cores.
        assert_eq!(private[0], (1, 2.0 / 26.0));
        assert_eq!(private.last().unwrap().1, 1.0);
    }

    #[test]
    fn full_spatial_analysis_orders_clouds() {
        let trace = tiny_trace();
        let analysis = SpatialAnalysis::run(&trace).unwrap();
        // The private single-region core share is lower than public:
        // private cores are concentrated in the multi-region sub0.
        assert!(
            analysis.private_single_region_core_share < analysis.public_single_region_core_share
        );
        // Public: sub2 (2) + sub3 (2) + sub5 (2) of 14 cores are
        // single-region.
        assert!((analysis.public_single_region_core_share - 6.0 / 14.0).abs() < 1e-9);
    }
}
