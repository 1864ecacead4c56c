//! Integration of the knowledge base and the policy engine with a
//! generated trace: extraction, queries, recommendations, and the
//! rebalancing workflow.

use cloudscope::mgmt::rebalance::simulate_shift;
use cloudscope::prelude::*;
use std::sync::OnceLock;

fn generated() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| generate(&GeneratorConfig::medium(123)))
}

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| {
        let kb = KnowledgeBase::new();
        let classifier = PatternClassifier;
        for cloud in CloudKind::BOTH {
            kb.feed(extract_cloud_knowledge(
                &generated().trace,
                cloud,
                &classifier,
                3,
            ));
        }
        kb
    })
}

#[test]
fn kb_covers_active_subscriptions() {
    let g = generated();
    let stats = g.trace.stats();
    // Every subscription that deployed VMs has an entry.
    assert!(kb().len() >= (stats.private_subscriptions + stats.public_subscriptions) * 9 / 10);
}

#[test]
fn spot_candidates_are_public_and_nontrivial() {
    let query = KbQuery::spot_candidates();
    assert!(
        query.count(kb()) > 0,
        "the public cloud's short-lived churn yields candidates"
    );
    // Non-cloning check over the borrowed entries.
    query.fold(kb(), (), |(), k| assert_eq!(k.cloud, CloudKind::Public));
}

#[test]
fn shiftable_workloads_are_private_multi_region() {
    let shiftable = KbQuery::shiftable();
    assert!(
        shiftable.count(kb()) > 0,
        "geo-LB private services are shiftable"
    );
    shiftable.fold(kb(), (), |(), k| {
        assert!(k.regions >= 2, "shiftable implies multi-region");
    });
    // Prevalence within each cloud: among subscriptions whose
    // agnosticism was measurable, the private fraction is much higher.
    let fraction = |cloud: CloudKind| {
        let measured =
            KbQuery::matching(|k| k.cloud == cloud && k.region_agnostic.is_some()).count(kb());
        let agnostic = KbQuery::matching(|k| k.cloud == cloud)
            .filter(|k| k.region_agnostic == Some(true))
            .count(kb());
        agnostic as f64 / measured.max(1) as f64
    };
    let private = fraction(CloudKind::Private);
    let public = fraction(CloudKind::Public);
    assert!(
        private > 1.3 * public,
        "region-agnosticism is predominantly private: {private:.2} vs {public:.2}"
    );
}

#[test]
fn policy_engine_produces_all_recommendation_kinds() {
    let results = PolicyEngine::standard().run(kb());
    let by_name: std::collections::HashMap<_, _> = results.into_iter().collect();
    assert!(!by_name["spot-adoption"].is_empty());
    assert!(!by_name["oversubscription"].is_empty());
    assert!(!by_name["shiftability"].is_empty());
    assert!(!by_name["pre-provision"].is_empty());
}

#[test]
fn kb_driven_shift_improves_source_region() {
    let g = generated();
    let at = SimTime::from_minutes(2 * 24 * 60 + 14 * 60);
    // Take any shiftable subscription's service with alive VMs somewhere.
    let shiftable = KbQuery::shiftable().collect(kb());
    let mut shifted = false;
    'outer: for k in &shiftable {
        for svc in g
            .services
            .iter()
            .filter(|s| s.subscription == k.subscription)
        {
            for &from in &svc.regions {
                let to = g
                    .trace
                    .topology()
                    .regions()
                    .iter()
                    .map(|r| r.id)
                    .find(|&r| r != from);
                let Some(to) = to else { continue };
                if let Ok(outcome) = simulate_shift(&g.trace, k.cloud, svc.service, from, to, at) {
                    assert!(outcome.moved_vms > 0);
                    assert!(
                        outcome.source_after.core_utilization_rate()
                            < outcome.source_before.core_utilization_rate()
                    );
                    shifted = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(
        shifted,
        "at least one shiftable service can actually be shifted"
    );
}

#[test]
fn knowledge_values_are_physical() {
    KbQuery::all().fold(kb(), (), |(), k| {
        assert!(k.mean_util >= 0.0 && k.mean_util <= 100.0);
        assert!(k.p95_util >= 0.0 && k.p95_util <= 100.0);
        assert!(k.util_cv >= 0.0);
        assert!(k.vm_count > 0);
        assert!(k.cores > 0);
        assert!((1..=10).contains(&k.regions));
    });
}
