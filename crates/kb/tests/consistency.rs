//! Property tests for the sharded store: under arbitrary operation
//! sequences (upserts, refreshes, stale upserts) every secondary index
//! must agree exactly with a brute-force rescan of the shard maps, and
//! query results must be identical for any shard count.

use cloudscope_analysis::UtilizationPattern;
use cloudscope_kb::{KbQuery, KbSelector, KnowledgeBase, LifetimeClass, WorkloadKnowledge};
use cloudscope_model::ids::SubscriptionId;
use cloudscope_model::prelude::{CloudKind, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of a randomized store workload.
#[derive(Debug, Clone)]
enum Op {
    Upsert(WorkloadKnowledge),
}

const PATTERNS: [Option<UtilizationPattern>; 5] = [
    None,
    Some(UtilizationPattern::Diurnal),
    Some(UtilizationPattern::Stable),
    Some(UtilizationPattern::Irregular),
    Some(UtilizationPattern::HourlyPeak),
];

const LIFETIMES: [LifetimeClass; 3] = [
    LifetimeClass::MostlyShort,
    LifetimeClass::Mixed,
    LifetimeClass::MostlyLong,
];

/// Decodes one packed op tuple. Keeping the strategy a plain tuple of
/// integers keeps generation fast and the op space easy to reason about:
/// ids collide often (forcing refresh/stale paths), timestamps are drawn
/// from a small range (so stale upserts are common, not corner cases).
fn decode(op: (u32, u32, u32, i64)) -> Op {
    let (_, id, shape, minutes) = op;
    let subscription = SubscriptionId::new(id % 24);
    Op::Upsert(WorkloadKnowledge {
        subscription,
        cloud: if shape % 2 == 0 {
            CloudKind::Private
        } else {
            CloudKind::Public
        },
        pattern: PATTERNS[(shape / 2) as usize % PATTERNS.len()],
        lifetime: LIFETIMES[(shape / 16) as usize % LIFETIMES.len()],
        mean_util: f64::from(id % 100),
        p95_util: f64::from(id % 100) + 1.0,
        util_cv: 0.25,
        regions: ((shape / 64) % 4 + 1) as usize,
        region_agnostic: match (shape / 256) % 3 {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        },
        vm_count: id as usize % 40 + 1,
        cores: u64::from(id % 40) + 4,
        updated_at: SimTime::from_minutes(minutes),
    })
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>(), 0i64..32), 0..120)
        .prop_map(|raw| raw.into_iter().map(decode).collect())
}

/// Replays `ops` against a store with `shards` shards and, in lockstep,
/// against a brute-force reference model with the same freshness rule.
fn replay(
    ops: &[Op],
    shards: usize,
) -> (KnowledgeBase, BTreeMap<SubscriptionId, WorkloadKnowledge>) {
    let kb = KnowledgeBase::with_shards(shards);
    let mut model: BTreeMap<SubscriptionId, WorkloadKnowledge> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Upsert(k) => {
                let model_stored = match model.get(&k.subscription) {
                    Some(existing) => existing.updated_at <= k.updated_at,
                    None => true,
                };
                let stored = kb.upsert(k.clone());
                assert_eq!(stored, model_stored, "freshness rule diverged for {k:?}");
                if model_stored {
                    model.insert(k.subscription, k.clone());
                }
            }
        }
    }
    (kb, model)
}

/// Every selector the indexes serve, for exhaustive cross-checking.
fn all_selectors() -> Vec<KbSelector> {
    let mut selectors = vec![
        KbSelector::All,
        KbSelector::SpotCandidates,
        KbSelector::Shiftable,
    ];
    for cloud in CloudKind::BOTH {
        selectors.push(KbSelector::OversubscriptionCandidates(cloud));
    }
    selectors
}

/// The scan-side truth for what a selector should return.
fn brute_force(
    model: &BTreeMap<SubscriptionId, WorkloadKnowledge>,
    selector: KbSelector,
) -> Vec<WorkloadKnowledge> {
    model
        .values()
        .filter(|k| match selector {
            KbSelector::All => true,
            KbSelector::SpotCandidates => k.spot_candidate(),
            KbSelector::OversubscriptionCandidates(cloud) => {
                k.cloud == cloud && k.oversubscription_candidate()
            }
            KbSelector::Shiftable => k.shiftable(),
            _ => unreachable!("non_exhaustive placeholder"),
        })
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any op sequence, the store's internal invariant holds (every
    /// index posting rebuilt from scratch matches the maintained one) and
    /// every indexed query agrees entry-for-entry with a brute-force
    /// rescan of a reference model.
    #[test]
    fn indexes_agree_with_brute_force_rescan(ops in ops_strategy()) {
        for shards in [1usize, 3, 8] {
            let (kb, model) = replay(&ops, shards);
            let entries = kb.check_consistency().expect("index/entry consistency");
            prop_assert_eq!(entries, model.len());
            prop_assert_eq!(kb.len(), model.len());
            for selector in all_selectors() {
                let expected = brute_force(&model, selector);
                let query = KbQuery::select(selector);
                // collect: full entries, subscription-sorted (BTreeMap
                // iteration order is already ascending).
                prop_assert_eq!(&query.collect(&kb), &expected, "selector {:?}", selector);
                // count: the pure index walk agrees with the scan.
                prop_assert_eq!(query.count(&kb), expected.len());
            }
        }
    }

    /// Seeded replays are byte-identical regardless of shard count: the
    /// shard count is a concurrency knob, never a semantics knob.
    #[test]
    fn shard_count_never_changes_results(ops in ops_strategy()) {
        let (reference, _) = replay(&ops, 1);
        for shards in [2usize, 5, 16] {
            let (kb, _) = replay(&ops, shards);
            for selector in all_selectors() {
                let query = KbQuery::select(selector);
                prop_assert_eq!(
                    query.collect(&kb),
                    query.collect(&reference),
                    "selector {:?} diverged at {} shards", selector, shards
                );
            }
            // Residual filters run on top of the same ordered walk.
            let filtered = KbQuery::spot_candidates().filter(|k| k.vm_count >= 10);
            prop_assert_eq!(filtered.collect(&kb), filtered.collect(&reference));
        }
    }
}
