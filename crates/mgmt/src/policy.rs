//! The policy engine: each management policy consumes the knowledge base
//! and emits typed recommendations — the "abstract out the common
//! optimization policies and feed them from a centralized workload
//! knowledge base" architecture of the paper's Section V.

use cloudscope_kb::{KbQuery, KnowledgeBase, WorkloadKnowledge};
use cloudscope_model::prelude::*;
use serde::{Deserialize, Serialize};

/// A typed management recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Recommendation {
    /// Move the subscription's short-lived VMs onto spot capacity.
    AdoptSpot {
        /// The subscription.
        subscription: SubscriptionId,
        /// VMs eligible.
        vm_count: usize,
    },
    /// Enroll the subscription's pool in chance-constrained
    /// over-subscription.
    Oversubscribe {
        /// The subscription.
        subscription: SubscriptionId,
        /// Cores it currently reserves.
        cores: u64,
    },
    /// The subscription is region-agnostic: a candidate for regional
    /// capacity balancing.
    MarkShiftable {
        /// The subscription.
        subscription: SubscriptionId,
    },
    /// Hold pre-provisioned headroom for hour-mark peaks.
    PreProvision {
        /// The subscription.
        subscription: SubscriptionId,
    },
}

/// Spot adoption for short-lived public-cloud workloads (Insight 2),
/// largest fleet first — the paper's "81% of public VMs fall into the
/// shortest lifetime bin shows the considerable number of candidate VMs".
fn spot_adoption(kb: &KnowledgeBase) -> Vec<Recommendation> {
    // The fold visits the matches subscription-sorted, reading the two
    // fields a recommendation carries off the borrowed entries; the
    // stable sort then orders by fleet size while keeping subscription
    // order within equal fleet sizes, so the ranking is fully
    // deterministic.
    let mut recs = KbQuery::spot_candidates().fold(kb, Vec::new(), |mut recs, k| {
        recs.push((k.vm_count, k.subscription));
        recs
    });
    recs.sort_by_key(|&(vm_count, _)| std::cmp::Reverse(vm_count));
    recs.into_iter()
        .map(|(vm_count, subscription)| Recommendation::AdoptSpot {
            subscription,
            vm_count,
        })
        .collect()
}

/// Over-subscription enrollment for stable workloads (Insight 3).
fn oversubscription(kb: &KnowledgeBase) -> Vec<Recommendation> {
    // One index walk per cloud; no entry is cloned — the fold reads the
    // two fields a recommendation carries straight off the borrowed
    // entries.
    CloudKind::BOTH
        .iter()
        .flat_map(|&cloud| {
            KbQuery::oversubscription_candidates(cloud).fold(kb, Vec::new(), |mut recs, k| {
                recs.push(Recommendation::Oversubscribe {
                    subscription: k.subscription,
                    cores: k.cores,
                });
                recs
            })
        })
        .collect()
}

/// Region-agnostic marking for capacity balancing (Insight 4).
fn shiftability(kb: &KnowledgeBase) -> Vec<Recommendation> {
    KbQuery::shiftable().fold(kb, Vec::new(), |mut recs, k| {
        recs.push(Recommendation::MarkShiftable {
            subscription: k.subscription,
        });
        recs
    })
}

/// Pre-provisioning for hourly-peak workloads (Insight 3).
fn pre_provision(kb: &KnowledgeBase) -> Vec<Recommendation> {
    KbQuery::matching(WorkloadKnowledge::needs_peak_headroom).fold(kb, Vec::new(), |mut recs, k| {
        recs.push(Recommendation::PreProvision {
            subscription: k.subscription,
        });
        recs
    })
}

/// Runs the standard policies over the knowledge base.
#[derive(Debug)]
#[non_exhaustive]
pub struct PolicyEngine;

impl PolicyEngine {
    /// The engine with the four standard policies.
    #[must_use]
    pub fn standard() -> Self {
        Self
    }

    /// Runs every policy, returning `(policy name, recommendations)` in
    /// a fixed order.
    #[must_use]
    pub fn run(&self, kb: &KnowledgeBase) -> Vec<(&'static str, Vec<Recommendation>)> {
        vec![
            ("spot-adoption", spot_adoption(kb)),
            ("oversubscription", oversubscription(kb)),
            ("shiftability", shiftability(kb)),
            ("pre-provision", pre_provision(kb)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_analysis::UtilizationPattern;
    use cloudscope_kb::LifetimeClass;

    fn entry(
        id: u32,
        cloud: CloudKind,
        pattern: UtilizationPattern,
        lifetime: LifetimeClass,
        agnostic: Option<bool>,
    ) -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud,
            pattern: Some(pattern),
            lifetime,
            mean_util: 15.0,
            p95_util: 30.0,
            util_cv: 0.3,
            regions: 2,
            region_agnostic: agnostic,
            vm_count: 5,
            cores: 20,
            updated_at: SimTime::ZERO,
        }
    }

    fn populated_kb() -> KnowledgeBase {
        let kb = KnowledgeBase::new();
        kb.feed([
            entry(
                0,
                CloudKind::Public,
                UtilizationPattern::Stable,
                LifetimeClass::MostlyShort,
                None,
            ),
            entry(
                1,
                CloudKind::Private,
                UtilizationPattern::Diurnal,
                LifetimeClass::MostlyLong,
                Some(true),
            ),
            entry(
                2,
                CloudKind::Private,
                UtilizationPattern::HourlyPeak,
                LifetimeClass::MostlyLong,
                Some(false),
            ),
            entry(
                3,
                CloudKind::Public,
                UtilizationPattern::Irregular,
                LifetimeClass::Mixed,
                None,
            ),
        ]);
        kb
    }

    #[test]
    fn engine_routes_each_workload_to_the_right_policy() {
        let kb = populated_kb();
        let sub = SubscriptionId::new;
        assert_eq!(
            PolicyEngine::standard().run(&kb),
            vec![
                (
                    "spot-adoption",
                    vec![Recommendation::AdoptSpot {
                        subscription: sub(0),
                        vm_count: 5
                    }]
                ),
                (
                    "oversubscription",
                    vec![Recommendation::Oversubscribe {
                        subscription: sub(0),
                        cores: 20
                    }]
                ),
                (
                    "shiftability",
                    vec![Recommendation::MarkShiftable {
                        subscription: sub(1)
                    }]
                ),
                (
                    "pre-provision",
                    vec![Recommendation::PreProvision {
                        subscription: sub(2)
                    }]
                ),
            ]
        );
    }

    #[test]
    fn spot_adoption_ranks_larger_fleets_first() {
        let kb = KnowledgeBase::new();
        kb.feed(
            [(0, 3), (1, 9), (2, 3), (3, 9)].map(|(id, vm_count)| WorkloadKnowledge {
                vm_count,
                ..entry(
                    id,
                    CloudKind::Public,
                    UtilizationPattern::Irregular,
                    LifetimeClass::MostlyShort,
                    None,
                )
            }),
        );
        let ranked: Vec<(u32, usize)> = PolicyEngine::standard().run(&kb)[0]
            .1
            .iter()
            .map(|r| match r {
                Recommendation::AdoptSpot {
                    subscription,
                    vm_count,
                } => (subscription.index(), *vm_count),
                other => panic!("not a spot recommendation: {other:?}"),
            })
            .collect();
        // Larger fleets first; equal fleets keep subscription order.
        assert_eq!(ranked, vec![(1, 9), (3, 9), (0, 3), (2, 3)]);
    }

    #[test]
    fn empty_kb_yields_no_recommendations() {
        let kb = KnowledgeBase::new();
        let results = PolicyEngine::standard().run(&kb);
        let names: Vec<&str> = results.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "spot-adoption",
                "oversubscription",
                "shiftability",
                "pre-provision"
            ]
        );
        assert!(results.iter().all(|(_, recs)| recs.is_empty()));
    }
}
