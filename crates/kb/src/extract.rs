//! Extraction of workload knowledge from trace telemetry.

use crate::knowledge::{LifetimeClass, WorkloadKnowledge};
use cloudscope_analysis::correlation::{cross_region_correlations, STUDY_GEO};
use cloudscope_analysis::{PatternClassifier, UtilizationPattern};
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::{LevelCounts, MISSING_SAMPLE_BYTE, QUANT_STEPS_PER_PERCENT};
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_stats::summary::Summary;
use std::collections::{HashMap, HashSet};

/// Threshold on the short-lifetime share above which churn counts as
/// mostly short (paper: public cloud ≈ 81% in the shortest bin).
const MOSTLY_SHORT_THRESHOLD: f64 = 0.6;
/// Threshold below which churn counts as mostly long.
const MOSTLY_LONG_THRESHOLD: f64 = 0.2;
/// Cross-region correlation above which a workload is region-agnostic.
const REGION_AGNOSTIC_THRESHOLD: f64 = 0.8;

/// `pattern`'s index in [`UtilizationPattern::ALL`] (Figure 5 order).
const fn figure5_rank(pattern: UtilizationPattern) -> usize {
    match pattern {
        UtilizationPattern::Diurnal => 0,
        UtilizationPattern::Stable => 1,
        UtilizationPattern::Irregular => 2,
        UtilizationPattern::HourlyPeak => 3,
    }
}

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
    let agnostic: HashMap<SubscriptionId, bool> =
        cross_region_correlations(trace, cloud, STUDY_GEO)
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
        |_, util| classifier.classify_util(util),
        max_classified_vms,
        region_agnostic,
        SimTime::WEEK_END,
    )
}

/// [`extract_subscription_knowledge`] with telemetry decoupled from VM
/// metadata: `trace` supplies the subscription's population, `source`
/// the samples, `vote` each voting VM's pattern given its series, and
/// `updated_at` stamps the entry — the batch path classifies and passes
/// week-end; a streaming producer votes with the patterns its window
/// close already computed from the same series and passes the close
/// time, so the KB's staleness gate orders refreshes correctly.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn extract_subscription_knowledge_from(
    trace: &Trace,
    source: &(impl TelemetrySource + ?Sized),
    subscription: SubscriptionId,
    vote: impl Fn(VmId, &UtilSeries) -> Option<UtilizationPattern>,
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
    // Per week slot, the sum of the stored bytes (half-percent steps,
    // exact in integers) and the number of VMs that reported there.
    let mut aggregate = vec![(0u32, 0u32); SAMPLES_PER_WEEK];
    // Every utilization sample of the subscription, by stored level:
    // constant memory even for subscriptions with thousands of VMs.
    let mut levels = LevelCounts::new();

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

    // One ascending scan serves the aggregate, the level counts and the
    // vote: each series is in hand exactly once. The dominant pattern is
    // a majority vote over the first `max_classified_vms` VMs; ties
    // break deterministically in Figure 5 order (diurnal first).
    let classify_before = vm_ids.get(max_classified_vms).copied();
    let mut votes = [0usize; UtilizationPattern::ALL.len()];
    source.scan(vm_ids, &mut |vm_id, util| {
        let samples = util.as_quantized();
        levels.add(samples);
        let offset = (util.start().minutes() / SAMPLE_INTERVAL_MINUTES) as usize;
        // A gap in one VM leaves the slot to the VMs that did report.
        let slots = aggregate.get_mut(offset..).unwrap_or_default();
        for ((sum, n), &q) in slots.iter_mut().zip(samples) {
            let present = u32::from(q != MISSING_SAMPLE_BYTE);
            *sum += u32::from(q) * present;
            *n += present;
        }
        if classify_before.is_none_or(|end| vm_id < end) {
            if let Some(p) = vote(vm_id, &util) {
                votes[figure5_rank(p)] += 1;
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

    let util_summary: Summary = aggregate
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(sum, n)| f64::from(sum) / f64::from(QUANT_STEPS_PER_PERCENT) / f64::from(n))
        .collect();

    Some(WorkloadKnowledge {
        subscription,
        cloud,
        pattern,
        lifetime,
        mean_util: util_summary.mean(),
        p95_util: levels.percentile(95.0).unwrap_or(0.0),
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
    use cloudscope_stats::percentile::percentile;
    use cloudscope_tracegen::{generate, GeneratorConfig};

    /// Extraction as it was before it counted levels: every sample goes
    /// through `f64`, one slot sum and one retained value at a time. It
    /// differs from the code it stands in for in two places only — the
    /// p95 is the exact percentile of the retained samples where that
    /// code had a P² estimate, and a missing sample is skipped where
    /// that code let its NaN void the slot — so on gap-free telemetry
    /// every field but `p95_util` is what the parent commit produced.
    fn per_sample_reference(
        trace: &Trace,
        subscription: SubscriptionId,
        classifier: &PatternClassifier,
        max_classified_vms: usize,
    ) -> Option<WorkloadKnowledge> {
        let vm_ids = trace.vms_of_subscription(subscription);
        if vm_ids.is_empty() {
            return None;
        }
        let mut regions: HashSet<RegionId> = HashSet::new();
        let mut cores = 0u64;
        let (mut bounded, mut bounded_short) = (0usize, 0usize);
        for &vm_id in vm_ids {
            let vm = trace.vm(vm_id).ok()?;
            regions.insert(vm.region);
            cores += u64::from(vm.size.cores());
            if vm.bounded_by_trace_week() {
                bounded += 1;
                bounded_short += usize::from(vm.lifetime().is_some_and(|l| l.minutes() <= 60));
            }
        }
        let mut aggregate = vec![0.0f64; SAMPLES_PER_WEEK];
        let mut aggregate_n = vec![0u32; SAMPLES_PER_WEEK];
        let mut retained = Vec::new();
        let mut votes = [0usize; UtilizationPattern::ALL.len()];
        for (rank, &vm_id) in vm_ids.iter().enumerate() {
            let Some(util) = trace.util(vm_id) else {
                continue;
            };
            let offset = (util.start().minutes() / SAMPLE_INTERVAL_MINUTES) as usize;
            for (i, v) in util.iter().enumerate().filter(|(_, v)| v.is_finite()) {
                if offset + i < SAMPLES_PER_WEEK {
                    aggregate[offset + i] += f64::from(v);
                    aggregate_n[offset + i] += 1;
                }
                retained.push(f64::from(v));
            }
            if rank < max_classified_vms {
                if let Some(p) = classifier.classify_util(&util) {
                    votes[UtilizationPattern::ALL.iter().position(|&q| q == p)?] += 1;
                }
            }
        }
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
        let util_summary: Summary = aggregate
            .iter()
            .zip(&aggregate_n)
            .filter(|&(_, &n)| n > 0)
            .map(|(&s, &n)| s / f64::from(n))
            .collect();
        Some(WorkloadKnowledge {
            subscription,
            cloud: trace.subscription(subscription).ok()?.cloud,
            pattern,
            lifetime,
            mean_util: util_summary.mean(),
            p95_util: percentile(&retained, 95.0).unwrap_or(0.0),
            util_cv: util_summary.coefficient_of_variation().unwrap_or(0.0),
            regions: regions.len(),
            region_agnostic: None,
            vm_count: vm_ids.len(),
            cores,
            updated_at: SimTime::WEEK_END,
        })
    }

    /// Asserts two entries equal with the floats compared bit for bit.
    fn assert_same_bits(got: &WorkloadKnowledge, want: &WorkloadKnowledge) {
        let sub = got.subscription;
        assert_eq!(got, want, "{sub:?}");
        for (name, g, w) in [
            ("mean_util", got.mean_util, want.mean_util),
            ("p95_util", got.p95_util, want.p95_util),
            ("util_cv", got.util_cv, want.util_cv),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{sub:?} {name}: {g} vs {w}");
        }
    }

    #[test]
    fn figure5_rank_is_the_index_in_all() {
        for (rank, &pattern) in UtilizationPattern::ALL.iter().enumerate() {
            assert_eq!(figure5_rank(pattern), rank, "{pattern}");
        }
    }

    #[test]
    fn level_counts_change_nothing_but_make_p95_exact() {
        let classifier = PatternClassifier;
        for seed in [31, 32] {
            let g = generate(&GeneratorConfig::small(seed));
            let mut with_telemetry = 0;
            for sub in g.trace.subscriptions() {
                let got = extract_subscription_knowledge(&g.trace, sub.id, &classifier, 3, None);
                let want = per_sample_reference(&g.trace, sub.id, &classifier, 3);
                assert_eq!(got.is_some(), want.is_some(), "{:?}", sub.id);
                if let (Some(got), Some(want)) = (got, want) {
                    assert_same_bits(&got, &want);
                    with_telemetry += usize::from(got.p95_util > 0.0);
                }
            }
            assert!(with_telemetry > 50, "seed {seed}: {with_telemetry}");
        }
    }

    /// A source that visits a scan's series last id first. (`scan` asks
    /// for ascending *requests*; nothing in extraction may depend on
    /// the order of the visits.)
    #[derive(Debug)]
    struct Backwards<'a>(&'a Trace);

    impl TelemetrySource for Backwards<'_> {
        fn load(&self, id: VmId) -> Option<UtilSeries> {
            self.0.load(id)
        }

        fn scan(&self, ids: &[VmId], visit: &mut dyn FnMut(VmId, UtilSeries)) {
            for &id in ids.iter().rev() {
                if let Some(series) = self.load(id) {
                    visit(id, series);
                }
            }
        }
    }

    #[test]
    fn knowledge_is_independent_of_the_order_series_arrive_in() {
        let g = generate(&GeneratorConfig::small(33));
        let classifier = PatternClassifier;
        let mut multi_vm = 0;
        for sub in g.trace.subscriptions() {
            let forwards = extract_subscription_knowledge(&g.trace, sub.id, &classifier, 3, None);
            let backwards = extract_subscription_knowledge_from(
                &g.trace,
                &Backwards(&g.trace),
                sub.id,
                |_, util| classifier.classify_util(util),
                3,
                None,
                SimTime::WEEK_END,
            );
            if let (Some(forwards), Some(backwards)) = (&forwards, &backwards) {
                assert_same_bits(backwards, forwards);
                multi_vm += usize::from(forwards.vm_count > 1 && forwards.p95_util > 0.0);
            }
            assert_eq!(forwards.is_some(), backwards.is_some());
        }
        assert!(
            multi_vm > 20,
            "order matters only with several VMs: {multi_vm}"
        );
    }

    /// Fixed series standing in for the telemetry of a generated trace.
    #[derive(Debug)]
    struct Fixed(Vec<(VmId, UtilSeries)>);

    impl TelemetrySource for Fixed {
        fn load(&self, id: VmId) -> Option<UtilSeries> {
            let (_, series) = self.0.iter().find(|(vm, _)| *vm == id)?;
            Some(series.clone())
        }
    }

    #[test]
    fn a_gap_in_one_vm_leaves_the_slot_to_the_vms_that_reported() {
        const GAP: std::ops::Range<usize> = 100..400;
        let g = generate(&GeneratorConfig::small(34));
        let (sub, vms) = g
            .trace
            .subscriptions()
            .iter()
            .map(|sub| (sub.id, g.trace.vms_of_subscription(sub.id)))
            .find(|(_, vms)| vms.len() == 2)
            .expect("a two-VM subscription");
        // One VM steady at 20 % with a gap, the other steady at 40 %.
        let gappy = (0..SAMPLES_PER_WEEK).map(|i| if GAP.contains(&i) { f32::NAN } else { 20.0 });
        let source = Fixed(vec![
            (vms[0], UtilSeries::from_percentages(SimTime::ZERO, gappy)),
            (
                vms[1],
                UtilSeries::from_percentages(SimTime::ZERO, [40.0; SAMPLES_PER_WEEK]),
            ),
        ]);
        let k = extract_subscription_knowledge_from(
            &g.trace,
            &source,
            sub,
            |_, _| None,
            0,
            None,
            SimTime::WEEK_END,
        )
        .expect("the subscription has VMs");
        // Inside the gap the slot mean is the reporting VM's 40 %, not
        // a NaN that drops the slot and leaves a flat 30 %.
        let slot_means: Summary = (0..SAMPLES_PER_WEEK)
            .map(|i| if GAP.contains(&i) { 40.0 } else { 30.0 })
            .collect();
        assert_eq!(k.mean_util.to_bits(), slot_means.mean().to_bits());
        assert!(k.mean_util > 31.0, "the gap slots count: {}", k.mean_util);
        assert_eq!(k.util_cv, slot_means.coefficient_of_variation().unwrap());
        assert!(k.util_cv > 0.0);
    }

    #[test]
    fn extracts_knowledge_for_every_active_subscription() {
        let g = generate(&GeneratorConfig::small(21));
        let classifier = PatternClassifier;
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
        let classifier = PatternClassifier;
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
        let classifier = PatternClassifier;
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
        let classifier = PatternClassifier;
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
