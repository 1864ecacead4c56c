//! Extraction of workload knowledge from trace telemetry.

use crate::knowledge::{LifetimeClass, WorkloadKnowledge};
use cloudscope_analysis::correlation::cross_region_correlations;
use cloudscope_analysis::{PatternClassifier, UtilizationPattern};
use cloudscope_model::prelude::*;
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_stats::sketch::P2Quantile;
use cloudscope_stats::summary::Summary;
use std::collections::{HashMap, HashSet};

/// Threshold on the short-lifetime share above which churn counts as
/// mostly short (paper: public cloud ≈ 81% in the shortest bin).
const MOSTLY_SHORT_THRESHOLD: f64 = 0.6;
/// Threshold below which churn counts as mostly long.
const MOSTLY_LONG_THRESHOLD: f64 = 0.2;
/// Cross-region correlation above which a workload is region-agnostic.
const REGION_AGNOSTIC_THRESHOLD: f64 = 0.8;

/// Extracts knowledge for every subscription of `cloud` in the trace.
///
/// `max_classified_vms_per_sub` caps the pattern-classification work per
/// subscription (the dominant cost).
#[must_use]
pub fn extract_cloud_knowledge(
    trace: &Trace,
    cloud: CloudKind,
    classifier: &PatternClassifier,
    max_classified_vms_per_sub: usize,
) -> Vec<WorkloadKnowledge> {
    // Region-agnosticism comes from the cross-region study, computed
    // once for the whole cloud.
    let agnostic: HashMap<SubscriptionId, bool> = cross_region_correlations(trace, cloud, "US")
        .into_iter()
        .map(|c| {
            (
                c.subscription,
                c.min_correlation() >= REGION_AGNOSTIC_THRESHOLD,
            )
        })
        .collect();

    trace
        .subscriptions_of(cloud)
        .filter_map(|sub| {
            extract_subscription_knowledge(
                trace,
                sub.id,
                classifier,
                max_classified_vms_per_sub,
                agnostic.get(&sub.id).copied(),
            )
        })
        .collect()
}

/// Extracts knowledge for one subscription; `None` if it has no VMs.
///
/// `region_agnostic` is threaded in when the caller already ran the
/// cross-region study; pass `None` to leave it unmeasured.
#[must_use]
pub fn extract_subscription_knowledge(
    trace: &Trace,
    subscription: SubscriptionId,
    classifier: &PatternClassifier,
    max_classified_vms: usize,
    region_agnostic: Option<bool>,
) -> Option<WorkloadKnowledge> {
    extract_subscription_knowledge_from(
        trace,
        trace,
        subscription,
        classifier,
        max_classified_vms,
        region_agnostic,
        SimTime::WEEK_END,
    )
}

/// [`extract_subscription_knowledge`] with telemetry decoupled from VM
/// metadata: `trace` supplies the subscription's population, `source`
/// the samples, and `updated_at` stamps the entry — the batch path
/// passes week-end, a streaming producer passes its window-close time so
/// the KB's staleness gate orders refreshes correctly.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn extract_subscription_knowledge_from(
    trace: &Trace,
    source: &(impl TelemetrySource + ?Sized),
    subscription: SubscriptionId,
    classifier: &PatternClassifier,
    max_classified_vms: usize,
    region_agnostic: Option<bool>,
    updated_at: SimTime,
) -> Option<WorkloadKnowledge> {
    let vm_ids = trace.vms_of_subscription(subscription);
    if vm_ids.is_empty() {
        return None;
    }
    let cloud = trace.subscription(subscription).ok()?.cloud;

    let mut regions: HashSet<RegionId> = HashSet::new();
    let mut cores = 0u64;
    let mut bounded = 0usize;
    let mut bounded_short = 0usize;
    let mut aggregate = vec![0.0f64; SAMPLES_PER_WEEK];
    let mut aggregate_n = vec![0u32; SAMPLES_PER_WEEK];
    // Streaming p95 over every utilization sample: constant memory even
    // for subscriptions with thousands of VMs.
    let mut p95_sketch = P2Quantile::new(0.95).expect("0.95 is a valid level");

    for &vm_id in vm_ids {
        let vm = trace.vm(vm_id).ok()?;
        regions.insert(vm.region);
        cores += u64::from(vm.size.cores());
        if vm.bounded_by_trace_week() {
            bounded += 1;
            if vm.lifetime().is_some_and(|l| l.minutes() <= 60) {
                bounded_short += 1;
            }
        }
    }

    // One ascending scan serves the aggregate, the p95 sketch and the
    // classifier: each series is in hand exactly once. The dominant
    // pattern is a majority vote over the first `max_classified_vms`
    // VMs; ties break deterministically in Figure 5 order (diurnal
    // first).
    let classify_before = vm_ids.get(max_classified_vms).copied();
    let mut votes = [0usize; UtilizationPattern::ALL.len()];
    source.scan(vm_ids, &mut |vm_id, util| {
        let offset = (util.start().minutes() / SAMPLE_INTERVAL_MINUTES) as usize;
        for (i, v) in util.iter().enumerate() {
            let slot = offset + i;
            if slot < SAMPLES_PER_WEEK {
                aggregate[slot] += f64::from(v);
                aggregate_n[slot] += 1;
            }
            p95_sketch.observe(f64::from(v));
        }
        if classify_before.is_none_or(|end| vm_id < end) {
            if let Some(p) = classifier.classify_util(&util) {
                let idx = UtilizationPattern::ALL
                    .iter()
                    .position(|&q| q == p)
                    .expect("pattern in ALL");
                votes[idx] += 1;
            }
        }
    });
    let pattern = votes
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(idx, _)| UtilizationPattern::ALL[idx]);

    let lifetime = if bounded == 0 {
        LifetimeClass::MostlyLong
    } else {
        let short_share = bounded_short as f64 / bounded as f64;
        if short_share >= MOSTLY_SHORT_THRESHOLD {
            LifetimeClass::MostlyShort
        } else if short_share <= MOSTLY_LONG_THRESHOLD {
            LifetimeClass::MostlyLong
        } else {
            LifetimeClass::Mixed
        }
    };

    let mean_series: Vec<f64> = aggregate
        .iter()
        .zip(&aggregate_n)
        .filter(|&(_, &n)| n > 0)
        .map(|(&s, &n)| s / f64::from(n))
        .collect();
    let util_summary: Summary = mean_series.iter().copied().collect();
    let p95 = p95_sketch.estimate().unwrap_or(0.0);

    Some(WorkloadKnowledge {
        subscription,
        cloud,
        pattern,
        lifetime,
        mean_util: util_summary.mean(),
        p95_util: p95,
        util_cv: util_summary.coefficient_of_variation().unwrap_or(0.0),
        regions: regions.len(),
        region_agnostic,
        vm_count: vm_ids.len(),
        cores,
        updated_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_tracegen::{generate, GeneratorConfig};

    #[test]
    fn extracts_knowledge_for_every_active_subscription() {
        let g = generate(&GeneratorConfig::small(21));
        let classifier = PatternClassifier::default();
        let private = extract_cloud_knowledge(&g.trace, CloudKind::Private, &classifier, 4);
        let public = extract_cloud_knowledge(&g.trace, CloudKind::Public, &classifier, 4);
        assert!(!private.is_empty());
        assert!(public.len() > private.len());
        for k in private.iter().chain(&public) {
            assert!(k.vm_count > 0);
            assert!(k.cores > 0);
            assert!(k.regions >= 1);
            assert!(k.mean_util >= 0.0 && k.p95_util <= 100.0);
        }
    }

    #[test]
    fn lifetime_classes_cover_population() {
        // The cloud-level short-vs-long contrast is a per-VM statement
        // (Fig 3(a)); at the subscription level we only require that the
        // classes are populated and spot candidacy follows the cloud.
        let g = generate(&GeneratorConfig::small(22));
        let classifier = PatternClassifier::default();
        let public = extract_cloud_knowledge(&g.trace, CloudKind::Public, &classifier, 2);
        let short = public
            .iter()
            .filter(|k| k.lifetime == LifetimeClass::MostlyShort)
            .count();
        let long = public
            .iter()
            .filter(|k| k.lifetime == LifetimeClass::MostlyLong)
            .count();
        assert!(short > 0, "public cloud has short-churn subscriptions");
        assert!(long > 0, "purely standing subscriptions classify long");
        let private = extract_cloud_knowledge(&g.trace, CloudKind::Private, &classifier, 2);
        assert!(private.iter().all(|k| !k.spot_candidate()));
        assert!(public.iter().any(WorkloadKnowledge::spot_candidate));
    }

    #[test]
    fn region_agnostic_flag_set_for_private_multi_region() {
        let g = generate(&GeneratorConfig::small(23));
        let classifier = PatternClassifier::default();
        let private = extract_cloud_knowledge(&g.trace, CloudKind::Private, &classifier, 2);
        let agnostic = private
            .iter()
            .filter(|k| k.region_agnostic == Some(true))
            .count();
        assert!(
            agnostic > 0,
            "some private workloads must be region-agnostic"
        );
        // Single-region subscriptions stay unmeasured.
        assert!(private
            .iter()
            .filter(|k| k.regions == 1)
            .all(|k| k.region_agnostic.is_none()));
    }

    #[test]
    fn empty_subscription_yields_none() {
        let g = generate(&GeneratorConfig::small(24));
        let classifier = PatternClassifier::default();
        assert!(extract_subscription_knowledge(
            &g.trace,
            SubscriptionId::new(9999),
            &classifier,
            2,
            None
        )
        .is_none());
    }
}
