//! Correlation analyses (Figure 7): VM↔host-node similarity, cross-region
//! similarity per subscription, and region-agnostic workload detection.

use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_model::trace::GatheredSeries;
use cloudscope_par::Parallelism;
use cloudscope_stats::{pearson, pearson_or_zero, Ecdf};
use cloudscope_timeseries::{daily_profile, Series};
use std::collections::{HashMap, HashSet};

/// Geography tag of the paper's cross-region study (Fig 7(b)): the
/// regions correlated pairwise, and the default of
/// [`ReportConfig::geo`](crate::report::ReportConfig::geo).
pub const STUDY_GEO: &str = "US";

/// Minimum overlapping samples for a correlation to be meaningful
/// (one day of 5-minute telemetry).
const MIN_OVERLAP_SAMPLES: usize = 288;

/// ECDF of Pearson correlations between each VM's CPU series and its host
/// node's aggregate CPU series (Figure 7(a)).
///
/// As in the paper, nodes hosting a single VM are filtered out (their
/// correlation is trivially 1). Constant series count as correlation 0.
/// At most `max_nodes` nodes are examined (stride-sampled).
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no correlations can be computed.
pub fn node_vm_correlation_cdf(
    trace: &Trace,
    cloud: CloudKind,
    max_nodes: usize,
) -> Result<Ecdf, AnalysisError> {
    // Nodes of this cloud's clusters.
    let cloud_clusters: HashSet<ClusterId> =
        trace.topology().clusters_of(cloud).map(|c| c.id).collect();
    let mut nodes: Vec<NodeId> = trace
        .occupied_nodes()
        .filter(|&n| {
            trace
                .topology()
                .node(n)
                .is_ok_and(|info| cloud_clusters.contains(&info.cluster))
        })
        .collect();
    nodes.sort_unstable();
    let stride = (nodes.len() / max_nodes.max(1)).max(1);
    let sampled: Vec<NodeId> = nodes.into_iter().step_by(stride).take(max_nodes).collect();

    // Nodes are taken a bounded batch at a time: one ascending scan
    // gathers the telemetry of every VM on the batch's nodes, then the
    // nodes are worked out from the gathered series on every worker and
    // their correlations appended in node order.
    let mut correlations = Vec::new();
    let batches = trace.gather_batches(trace, &sampled, |&node, ids| {
        ids.extend_from_slice(trace.vms_on_node(node));
    });
    for (batch, gathered) in batches {
        let per_node = Parallelism::auto()
            .par_map(batch, |&node| node_vm_correlations(trace, &gathered, node));
        for node_correlations in per_node {
            correlations.extend(node_correlations?);
        }
    }
    if correlations.is_empty() {
        return Err(AnalysisError::NoData("node-vm correlations"));
    }
    Ecdf::new(correlations).map_err(AnalysisError::from)
}

/// The correlation of each VM on `node` with the node's aggregate
/// series, in VM order; empty for a node the paper's filter skips.
fn node_vm_correlations(
    trace: &Trace,
    gathered: &GatheredSeries,
    node: NodeId,
) -> Result<Vec<f64>, AnalysisError> {
    // The paper's filter: skip trivial single-VM nodes.
    let vms_with_telemetry: Vec<UtilSeries> = trace
        .vms_on_node(node)
        .iter()
        .filter_map(|&vm| gathered.load(vm))
        .filter(|u| u.len() >= MIN_OVERLAP_SAMPLES)
        .collect();
    if vms_with_telemetry.len() < 2 {
        return Ok(Vec::new());
    }
    let node_series = trace
        .node_utilization(gathered, node)
        .map_err(|_| AnalysisError::NoData("node utilization"))?
        .to_f64_vec();
    let mut scratch = (Vec::new(), Vec::new());
    Ok(vms_with_telemetry
        .iter()
        .filter_map(|util| {
            let offset = (util.start().minutes() / SAMPLE_INTERVAL_MINUTES) as usize;
            // Joint-finite masking: gap slots in the VM series drop out
            // of the correlation instead of poisoning it.
            joint_pearson(
                util.iter().map(f64::from),
                node_series.get(offset..).unwrap_or_default(),
                &mut scratch,
            )
        })
        .collect())
}

/// The VMs of `sub` deployed in `region`, ascending.
fn vms_in(trace: &Trace, sub: SubscriptionId, region: RegionId) -> impl Iterator<Item = VmId> + '_ {
    trace
        .vms_of_subscription(sub)
        .iter()
        .copied()
        .filter(move |&vm| trace.vm(vm).expect("indexed vm exists").region == region)
}

/// The per-region average utilization of one subscription on the full
/// week grid, its samples scanned from `source`; `None` where no VM
/// reports. Returns `None` if coverage is below one day of samples.
fn region_mean_series(
    trace: &Trace,
    source: &(impl TelemetrySource + ?Sized),
    sub: SubscriptionId,
    region: RegionId,
) -> Option<Vec<f64>> {
    let mut sum = vec![0.0f64; SAMPLES_PER_WEEK];
    let mut count = vec![0u32; SAMPLES_PER_WEEK];
    let ids: Vec<VmId> = vms_in(trace, sub, region).collect();
    source.scan(&ids, &mut |_, util| {
        let offset = (util.start().minutes() / SAMPLE_INTERVAL_MINUTES) as usize;
        for (i, v) in util.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let slot = offset + i;
            if slot < SAMPLES_PER_WEEK {
                sum[slot] += f64::from(v);
                count[slot] += 1;
            }
        }
    });
    let covered = count.iter().filter(|&&c| c > 0).count();
    if covered < MIN_OVERLAP_SAMPLES {
        return None;
    }
    Some(
        sum.into_iter()
            .zip(count)
            .map(|(s, c)| if c == 0 { f64::NAN } else { s / f64::from(c) })
            .collect(),
    )
}

/// Pearson correlation over the jointly covered slots of two aligned
/// series (the longer one is cut to the shorter). `scratch` receives
/// the covered samples; a task lends the same pair to every call.
fn joint_pearson(
    a: impl IntoIterator<Item = f64>,
    b: &[f64],
    scratch: &mut (Vec<f64>, Vec<f64>),
) -> Option<f64> {
    let (xs, ys) = scratch;
    xs.clear();
    ys.clear();
    for (x, &y) in a.into_iter().zip(b) {
        if x.is_finite() && y.is_finite() {
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.len() < MIN_OVERLAP_SAMPLES {
        return None;
    }
    pearson_or_zero(xs, ys)
}

/// One subscription's cross-region utilization similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossRegionCorrelation {
    /// The subscription.
    pub subscription: SubscriptionId,
    /// Pairwise correlations over its deployed-region pairs.
    pub pair_correlations: Vec<f64>,
}

impl CrossRegionCorrelation {
    /// The minimum pairwise correlation — the conservative
    /// region-agnosticism score.
    #[must_use]
    pub fn min_correlation(&self) -> f64 {
        self.pair_correlations
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Computes cross-region utilization correlations for every multi-region
/// subscription of `cloud`, restricted to regions whose `geo` tag equals
/// `geo` (the paper restricts to US regions).
#[must_use]
pub fn cross_region_correlations(
    trace: &Trace,
    cloud: CloudKind,
    geo: &str,
) -> Vec<CrossRegionCorrelation> {
    let geo_regions: HashSet<RegionId> =
        trace.topology().regions_in_geo(geo).map(|r| r.id).collect();
    // Regions per subscription.
    let mut sub_regions: HashMap<SubscriptionId, HashSet<RegionId>> = HashMap::new();
    for vm in trace.vms_of(cloud) {
        if geo_regions.contains(&vm.region) {
            sub_regions
                .entry(vm.subscription)
                .or_default()
                .insert(vm.region);
        }
    }
    // Multi-region subscriptions in id order, regions sorted. A bounded
    // batch of them at a time has the telemetry of its VMs in those
    // regions gathered by one ascending scan.
    let mut subs: Vec<(SubscriptionId, Vec<RegionId>)> = sub_regions
        .into_iter()
        .filter(|(_, regions)| regions.len() >= 2)
        .map(|(sub, regions)| {
            let mut regions: Vec<RegionId> = regions.into_iter().collect();
            regions.sort_unstable();
            (sub, regions)
        })
        .collect();
    subs.sort_by_key(|(s, _)| *s);
    let mut out = Vec::new();
    let batches = trace.gather_batches(trace, &subs, |(sub, regions), ids| {
        for &region in regions {
            ids.extend(vms_in(trace, *sub, region));
        }
    });
    for (batch, gathered) in batches {
        // Subscriptions are independent reads of the gathered batch:
        // correlate on every worker, keep subscription order.
        let per_sub = Parallelism::auto().par_map(batch, |(sub, regions)| {
            let means: Vec<Vec<f64>> = regions
                .iter()
                .filter_map(|&r| region_mean_series(trace, &gathered, *sub, r))
                .collect();
            let mut scratch = (Vec::new(), Vec::new());
            let mut pair_correlations = Vec::new();
            for i in 0..means.len() {
                for j in i + 1..means.len() {
                    pair_correlations.extend(joint_pearson(
                        means[i].iter().copied(),
                        &means[j],
                        &mut scratch,
                    ));
                }
            }
            (!pair_correlations.is_empty()).then_some(CrossRegionCorrelation {
                subscription: *sub,
                pair_correlations,
            })
        });
        out.extend(per_sub.into_iter().flatten());
    }
    out
}

/// ECDF over all region-pair correlations of a cloud (Figure 7(b)).
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if no multi-region subscription has
/// enough telemetry.
pub fn region_pair_correlation_cdf(
    trace: &Trace,
    cloud: CloudKind,
    geo: &str,
) -> Result<Ecdf, AnalysisError> {
    let pairs: Vec<f64> = cross_region_correlations(trace, cloud, geo)
        .into_iter()
        .flat_map(|c| c.pair_correlations)
        .collect();
    if pairs.is_empty() {
        return Err(AnalysisError::NoData("region-pair correlations"));
    }
    Ecdf::new(pairs).map_err(AnalysisError::from)
}

/// Subscriptions whose minimum cross-region correlation exceeds
/// `threshold` — region-agnostic *candidates* (the paper notes data
/// locality/compliance must also be checked before acting).
#[must_use]
pub fn region_agnostic_candidates(
    trace: &Trace,
    cloud: CloudKind,
    geo: &str,
    threshold: f64,
) -> Vec<SubscriptionId> {
    cross_region_correlations(trace, cloud, geo)
        .into_iter()
        .filter(|c| c.min_correlation() >= threshold)
        .map(|c| c.subscription)
        .collect()
}

/// Figure 7(c): the average *daily* CPU profile (hourly resolution, UTC)
/// of one service in each region it occupies.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if the service has no usable
/// telemetry in at least one region.
pub fn service_region_daily_profiles(
    trace: &Trace,
    service: ServiceId,
) -> Result<Vec<(RegionId, Vec<f64>)>, AnalysisError> {
    let vm_ids = trace.vms_of_service(service);
    if vm_ids.is_empty() {
        return Err(AnalysisError::NoData("service vms"));
    }
    let sub = trace
        .vm(vm_ids[0])
        .map_err(|_| AnalysisError::NoData("service vms"))?
        .subscription;
    let mut regions: Vec<RegionId> = vm_ids
        .iter()
        .filter_map(|&vm| trace.vm(vm).ok().map(|r| r.region))
        .collect();
    regions.sort_unstable();
    regions.dedup();
    let mut out = Vec::new();
    for region in regions {
        let Some(mean) = region_mean_series(trace, trace, sub, region) else {
            continue;
        };
        // NaN gaps would poison the profile: fill with 0 (no activity).
        let filled: Vec<f64> = mean
            .into_iter()
            .map(|v| if v.is_finite() { v } else { 0.0 })
            .collect();
        let series = Series::new(0, SAMPLE_INTERVAL_MINUTES, filled)
            .downsample_mean(12)
            .expect("positive factor");
        out.push((region, daily_profile(&series)?));
    }
    if out.is_empty() {
        return Err(AnalysisError::NoData("service telemetry"));
    }
    Ok(out)
}

/// Peak-alignment score for Figure 7(c): the pairwise Pearson correlation
/// of a service's per-region daily profiles, averaged. Near 1 for a
/// geo-load-balanced service; low for local-clock services spread over
/// time zones.
///
/// # Errors
/// Propagates [`service_region_daily_profiles`] errors; also fails if the
/// service occupies fewer than two regions.
pub fn service_region_alignment(trace: &Trace, service: ServiceId) -> Result<f64, AnalysisError> {
    let profiles = service_region_daily_profiles(trace, service)?;
    if profiles.len() < 2 {
        return Err(AnalysisError::NoData("multi-region service"));
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for i in 0..profiles.len() {
        for j in i + 1..profiles.len() {
            if let Ok(r) = pearson(&profiles[i].1, &profiles[j].1) {
                total += r;
                n += 1;
            }
        }
    }
    if n == 0 {
        return Err(AnalysisError::NoData("alignment pairs"));
    }
    Ok(total / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn private_node_correlation_higher_than_public() {
        let trace = tiny_trace();
        let private = node_vm_correlation_cdf(&trace, CloudKind::Private, 100).unwrap();
        let public = node_vm_correlation_cdf(&trace, CloudKind::Public, 100).unwrap();
        // Node 0 hosts two same-profile diurnal VMs -> high correlation;
        // node 4 hosts a stable and a diurnal VM -> mixed.
        assert!(
            private.median() > 0.9,
            "private median {}",
            private.median()
        );
        assert!(
            private.median() > public.median(),
            "private {} vs public {}",
            private.median(),
            public.median()
        );
    }

    #[test]
    fn single_vm_nodes_are_filtered() {
        let trace = tiny_trace();
        let private = node_vm_correlation_cdf(&trace, CloudKind::Private, 100).unwrap();
        // Only node 0 qualifies (two telemetry VMs): exactly 2 pairs.
        assert_eq!(private.len(), 2);
    }

    #[test]
    fn cross_region_correlation_separates_geo_lb() {
        let trace = tiny_trace();
        let private = cross_region_correlations(&trace, CloudKind::Private, "US");
        assert_eq!(private.len(), 1, "only sub0 is multi-region");
        assert!(
            private[0].min_correlation() > 0.9,
            "geo-LB service aligns: {}",
            private[0].min_correlation()
        );
        let public = cross_region_correlations(&trace, CloudKind::Public, "US");
        assert_eq!(public.len(), 1, "only sub4");
        assert!(
            public[0].min_correlation() < private[0].min_correlation(),
            "local-clock service across 3 zones correlates less"
        );
    }

    #[test]
    fn region_agnostic_candidates_detected() {
        let trace = tiny_trace();
        let candidates = region_agnostic_candidates(&trace, CloudKind::Private, "US", 0.9);
        assert_eq!(candidates, vec![SubscriptionId::new(0)]);
        // At an impossible threshold nothing qualifies.
        assert!(region_agnostic_candidates(&trace, CloudKind::Private, "US", 1.01).is_empty());
    }

    #[test]
    fn service_daily_profiles_align_for_geo_lb() {
        let trace = tiny_trace();
        // Service 0 = sub0, region-agnostic.
        let aligned = service_region_alignment(&trace, ServiceId::new(0)).unwrap();
        assert!(aligned > 0.95, "geo-LB alignment {aligned}");
        // Service 4 = sub4, local clocks 3 zones apart.
        let shifted = service_region_alignment(&trace, ServiceId::new(4)).unwrap();
        assert!(shifted < aligned, "shifted {shifted} < aligned {aligned}");
    }

    #[test]
    fn profiles_cover_each_region() {
        let trace = tiny_trace();
        let profiles = service_region_daily_profiles(&trace, ServiceId::new(0)).unwrap();
        assert_eq!(profiles.len(), 2);
        assert!(profiles.iter().all(|(_, p)| p.len() == 24));
    }

    #[test]
    fn errors_on_missing_data() {
        let trace = tiny_trace();
        // Service 1's only VM has no telemetry.
        assert!(service_region_alignment(&trace, ServiceId::new(1)).is_err());
        assert!(service_region_daily_profiles(&trace, ServiceId::new(99)).is_err());
        assert!(region_pair_correlation_cdf(&trace, CloudKind::Private, "EU").is_err());
    }
}
