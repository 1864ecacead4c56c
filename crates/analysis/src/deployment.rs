//! Deployment-size analyses (Figure 1): VMs per subscription and
//! subscriptions per cluster.

use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_stats::{BoxPlot, Ecdf};
use std::collections::{HashMap, HashSet};

/// Whether `vm` belongs to `cloud`, resolved through the dense
/// subscription table (the record itself does not carry the cloud).
pub(crate) fn record_in_cloud(
    vm: &VmRecord,
    subscriptions: &[Subscription],
    cloud: CloudKind,
) -> bool {
    subscriptions
        .get(vm.subscription.as_usize())
        .is_some_and(|s| s.cloud == cloud)
}

/// ECDF of the number of alive VMs per subscription at time `at`
/// (Figure 1(a)). Subscriptions with zero alive VMs are excluded, as the
/// trace only records deploying subscriptions. `records` may be any
/// superset of the VMs alive at `at` (e.g. a store read pushed down to
/// the snapshot's creation days); the liveness filter still applies.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no subscription of `cloud` has an
/// alive VM at `at`.
pub fn vms_per_subscription_cdf_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
    at: SimTime,
) -> Result<Ecdf, AnalysisError> {
    let mut counts: HashMap<SubscriptionId, u64> = HashMap::new();
    for vm in records {
        if record_in_cloud(vm, subscriptions, cloud) && vm.node.is_some() && vm.alive_at(at) {
            *counts.entry(vm.subscription).or_insert(0) += 1;
        }
    }
    if counts.is_empty() {
        return Err(AnalysisError::NoData("vms per subscription"));
    }
    Ecdf::from_iter(counts.into_values().map(|c| c as f64)).map_err(AnalysisError::from)
}

/// Box-plot of the number of distinct subscriptions with at least one
/// alive VM per cluster at time `at` (Figure 1(b)). Clusters hosting no
/// VM are skipped.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no cluster of `cloud` hosts VMs.
pub fn subscriptions_per_cluster_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
    at: SimTime,
) -> Result<BoxPlot, AnalysisError> {
    let mut per_cluster: HashMap<ClusterId, HashSet<SubscriptionId>> = HashMap::new();
    for vm in records {
        if record_in_cloud(vm, subscriptions, cloud) && vm.node.is_some() && vm.alive_at(at) {
            per_cluster
                .entry(vm.cluster)
                .or_default()
                .insert(vm.subscription);
        }
    }
    if per_cluster.is_empty() {
        return Err(AnalysisError::NoData("subscriptions per cluster"));
    }
    BoxPlot::new(
        per_cluster
            .into_values()
            .map(|subs| subs.len() as f64)
            .collect(),
    )
    .map_err(AnalysisError::from)
}

/// The Figure 1 bundle for both clouds, plus the headline ratio the paper
/// reports (a public cluster hosts ≈ 20× the subscriptions of a private
/// one at the median).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSizeAnalysis {
    /// Fig 1(a), private curve.
    pub private_vms_per_subscription: Ecdf,
    /// Fig 1(a), public curve.
    pub public_vms_per_subscription: Ecdf,
    /// Fig 1(b), private box.
    pub private_subscriptions_per_cluster: BoxPlot,
    /// Fig 1(b), public box.
    pub public_subscriptions_per_cluster: BoxPlot,
    /// Median subscriptions-per-cluster ratio, public / private.
    pub subscriptions_per_cluster_ratio: f64,
}

impl DeploymentSizeAnalysis {
    /// Runs the Figure 1 analyses at time `at`.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud is empty at `at`.
    pub fn run(trace: &Trace, at: SimTime) -> Result<Self, AnalysisError> {
        Self::run_from_records(trace.vms(), trace.subscriptions(), at)
    }

    /// Runs the Figure 1 analyses over a bare record slice — every
    /// input is point-in-time metadata, so a pushed-down store read of
    /// the snapshot's creation days reproduces [`DeploymentSizeAnalysis::run`]
    /// exactly without materializing a [`Trace`].
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud is empty at `at`.
    pub fn run_from_records(
        records: &[VmRecord],
        subscriptions: &[Subscription],
        at: SimTime,
    ) -> Result<Self, AnalysisError> {
        let private_vms =
            vms_per_subscription_cdf_from(records, subscriptions, CloudKind::Private, at)?;
        let public_vms =
            vms_per_subscription_cdf_from(records, subscriptions, CloudKind::Public, at)?;
        let private_clusters =
            subscriptions_per_cluster_from(records, subscriptions, CloudKind::Private, at)?;
        let public_clusters =
            subscriptions_per_cluster_from(records, subscriptions, CloudKind::Public, at)?;
        let ratio = if private_clusters.median > 0.0 {
            public_clusters.median / private_clusters.median
        } else {
            f64::INFINITY
        };
        Ok(Self {
            private_vms_per_subscription: private_vms,
            public_vms_per_subscription: public_vms,
            private_subscriptions_per_cluster: private_clusters,
            public_subscriptions_per_cluster: public_clusters,
            subscriptions_per_cluster_ratio: ratio,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn counts_alive_vms_per_subscription() {
        let trace = tiny_trace();
        let at = SimTime::from_hours(24);
        let cdf = vms_per_subscription_cdf_from(
            trace.vms(),
            trace.subscriptions(),
            CloudKind::Private,
            at,
        )
        .unwrap();
        // sub0 holds 6 standing VMs; sub1's VM is already gone at 24h.
        assert_eq!(cdf.max(), 6.0);
        assert_eq!(cdf.len(), 1);
        let public = vms_per_subscription_cdf_from(
            trace.vms(),
            trace.subscriptions(),
            CloudKind::Public,
            at,
        )
        .unwrap();
        assert!(public.median() <= 2.0);
    }

    #[test]
    fn cluster_subscription_counts() {
        let trace = tiny_trace();
        let at = SimTime::from_hours(24);
        let private = subscriptions_per_cluster_from(
            trace.vms(),
            trace.subscriptions(),
            CloudKind::Private,
            at,
        )
        .unwrap();
        assert_eq!(private.median, 1.0, "one private subscription");
        let public = subscriptions_per_cluster_from(
            trace.vms(),
            trace.subscriptions(),
            CloudKind::Public,
            at,
        )
        .unwrap();
        assert!(
            public.median >= 2.0,
            "several public subscriptions share a cluster"
        );
    }

    #[test]
    fn full_analysis_ratio() {
        let trace = tiny_trace();
        let analysis = DeploymentSizeAnalysis::run(&trace, SimTime::from_hours(24)).unwrap();
        assert!(analysis.subscriptions_per_cluster_ratio >= 2.0);
        // Private deployments are larger.
        assert!(
            analysis.private_vms_per_subscription.median()
                > analysis.public_vms_per_subscription.median()
        );
    }

    #[test]
    fn dead_time_has_no_data() {
        let trace = tiny_trace();
        // Far before any VM exists.
        let at = SimTime::from_minutes(-100 * 24 * 60);
        assert!(matches!(
            vms_per_subscription_cdf_from(
                trace.vms(),
                trace.subscriptions(),
                CloudKind::Private,
                at
            ),
            Err(AnalysisError::NoData(_))
        ));
    }
}
