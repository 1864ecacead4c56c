//! The typed read API of the knowledge base: a [`KbQuery`] names *what*
//! to select (an index-backed [`KbSelector`] plus optional residual
//! predicates) and *how* to consume it (non-cloning `fold` / `count`
//! terminals, or `collect` which clones exactly the matches).
//!
//! # Contract
//!
//! - Every terminal visits matching entries in ascending
//!   [`SubscriptionId`] order, **regardless of the store's shard count**
//!   — seeded runs produce byte-identical results whether the store has
//!   1 shard or 16.
//! - `fold` and `count` never clone a [`WorkloadKnowledge`];
//!   `collect` clones only the entries it returns. Non-matching entries
//!   are never cloned by any terminal; index-backed selectors never even
//!   *visit* them.
//! - A query observes one atomic snapshot of the store: all shard read
//!   locks are held for the duration of the terminal, so a concurrent
//!   writer cannot split a query's view.
//!
//! # Example
//! ```
//! use cloudscope_kb::{KbQuery, KnowledgeBase};
//!
//! let kb = KnowledgeBase::new();
//! let big_spot_fleets = KbQuery::spot_candidates()
//!     .filter(|k| k.vm_count >= 10)
//!     .count(&kb);
//! assert_eq!(big_spot_fleets, 0);
//! ```

use crate::knowledge::WorkloadKnowledge;
use crate::store::KnowledgeBase;
use cloudscope_model::prelude::*;
use std::fmt;

/// A boxed residual predicate of a [`KbQuery`].
type Predicate<'a> = Box<dyn Fn(&WorkloadKnowledge) -> bool + 'a>;

/// What a [`KbQuery`] selects, before residual filtering. Every variant
/// except [`KbSelector::All`] is served by a secondary index, so the
/// store only touches entries that actually match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum KbSelector {
    /// Every entry (a full scan — the only non-indexed selector).
    All,
    /// Spot-VM adoption candidates (Insight 2 implication).
    SpotCandidates,
    /// Over-subscription candidates of one cloud (Insight 3 implication).
    OversubscriptionCandidates(CloudKind),
    /// Region-agnostic workloads shiftable between regions (Insight 4).
    Shiftable,
}

/// A typed, composable knowledge-base query: a [`KbSelector`] plus any
/// number of residual predicates, consumed through one of the terminals.
/// Build one with the constructors, refine with [`KbQuery::filter`], and
/// run it against any [`KnowledgeBase`] — queries borrow nothing from a
/// store, so one query value can serve many stores.
pub struct KbQuery<'a> {
    selector: KbSelector,
    filters: Vec<Predicate<'a>>,
}

impl fmt::Debug for KbQuery<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KbQuery")
            .field("selector", &self.selector)
            .field("filters", &self.filters.len())
            .finish()
    }
}

impl<'a> KbQuery<'a> {
    /// A query over `selector` with no residual filters.
    #[must_use]
    pub fn select(selector: KbSelector) -> Self {
        Self {
            selector,
            filters: Vec::new(),
        }
    }

    /// Every entry in the store (full scan).
    #[must_use]
    pub fn all() -> Self {
        Self::select(KbSelector::All)
    }

    /// Every entry matching `predicate` (full scan) — the replacement
    /// for the old `KnowledgeBase::query(predicate)`.
    #[must_use]
    pub fn matching(predicate: impl Fn(&WorkloadKnowledge) -> bool + 'a) -> Self {
        Self::all().filter(predicate)
    }

    /// Spot-VM adoption candidates (indexed; Insight 2 implication).
    #[must_use]
    pub fn spot_candidates() -> Self {
        Self::select(KbSelector::SpotCandidates)
    }

    /// Over-subscription candidates of `cloud` (indexed; Insight 3).
    #[must_use]
    pub fn oversubscription_candidates(cloud: CloudKind) -> Self {
        Self::select(KbSelector::OversubscriptionCandidates(cloud))
    }

    /// Region-shiftable workloads (indexed; Insight 4 implication).
    #[must_use]
    pub fn shiftable() -> Self {
        Self::select(KbSelector::Shiftable)
    }

    /// Adds a residual predicate; all predicates must hold for an entry
    /// to reach a terminal. Predicates run against borrowed entries — no
    /// clone is ever made to evaluate one.
    #[must_use]
    pub fn filter(mut self, predicate: impl Fn(&WorkloadKnowledge) -> bool + 'a) -> Self {
        self.filters.push(Box::new(predicate));
        self
    }

    /// The query's selector.
    #[must_use]
    pub fn selector(&self) -> KbSelector {
        self.selector
    }

    /// `true` if the query carries residual predicates beyond its
    /// selector.
    #[must_use]
    pub(crate) fn has_filters(&self) -> bool {
        !self.filters.is_empty()
    }

    /// Evaluates the residual predicates against one entry.
    pub(crate) fn passes(&self, k: &WorkloadKnowledge) -> bool {
        self.filters.iter().all(|f| f(k))
    }

    /// Folds the matching entries (ascending subscription order) into an
    /// accumulator, without cloning any of them.
    pub fn fold<A>(
        &self,
        kb: &KnowledgeBase,
        init: A,
        f: impl FnMut(A, &WorkloadKnowledge) -> A,
    ) -> A {
        kb.fold_matches(self, init, f)
    }

    /// Number of matching entries. With no residual filters this is a
    /// pure index walk: no entry is visited, let alone cloned.
    #[must_use]
    pub fn count(&self, kb: &KnowledgeBase) -> usize {
        kb.count_matches(self)
    }

    /// Snapshot of the matching entries, sorted by subscription. The
    /// only terminal that clones — and it clones exactly the matches.
    #[must_use]
    pub fn collect(&self, kb: &KnowledgeBase) -> Vec<WorkloadKnowledge> {
        kb.collect_matches(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::LifetimeClass;
    use cloudscope_analysis::UtilizationPattern;
    use cloudscope_model::prelude::SimTime;

    fn knowledge(id: u32, cloud: CloudKind, lifetime: LifetimeClass) -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud,
            pattern: Some(UtilizationPattern::Stable),
            lifetime,
            mean_util: 10.0,
            p95_util: 20.0,
            util_cv: 0.1,
            regions: 1,
            region_agnostic: None,
            vm_count: id as usize + 1,
            cores: 4,
            updated_at: SimTime::ZERO,
        }
    }

    fn populated() -> KnowledgeBase {
        let kb = KnowledgeBase::with_shards(3);
        kb.feed([
            knowledge(2, CloudKind::Public, LifetimeClass::MostlyShort),
            knowledge(0, CloudKind::Public, LifetimeClass::MostlyShort),
            knowledge(1, CloudKind::Private, LifetimeClass::MostlyLong),
            knowledge(3, CloudKind::Public, LifetimeClass::Mixed),
        ]);
        kb
    }

    #[test]
    fn terminals_agree_and_sort_by_subscription() {
        let kb = populated();
        let query = KbQuery::spot_candidates();
        let collected = query.collect(&kb);
        assert_eq!(collected.len(), 2);
        assert!(collected[0].subscription < collected[1].subscription);
        assert_eq!(query.count(&kb), collected.len());
        let seen = query.fold(&kb, Vec::new(), |mut seen, k| {
            seen.push(k.subscription);
            seen
        });
        assert_eq!(
            seen,
            collected.iter().map(|k| k.subscription).collect::<Vec<_>>()
        );
        let total_vms = query.fold(&kb, 0usize, |acc, k| acc + k.vm_count);
        assert_eq!(total_vms, collected.iter().map(|k| k.vm_count).sum());
    }

    #[test]
    fn fold_visits_every_selectors_matches_in_collect_order() {
        let kb = KnowledgeBase::with_shards(3);
        let lifetimes = [
            LifetimeClass::MostlyShort,
            LifetimeClass::MostlyLong,
            LifetimeClass::Mixed,
        ];
        let patterns = [
            UtilizationPattern::Stable,
            UtilizationPattern::Diurnal,
            UtilizationPattern::Irregular,
        ];
        kb.feed((0..48).rev().map(|id| {
            let cloud = if id % 2 == 0 {
                CloudKind::Public
            } else {
                CloudKind::Private
            };
            WorkloadKnowledge {
                pattern: Some(patterns[id as usize / 2 % 3]),
                region_agnostic: [None, Some(true), Some(false)]
                    .get(id as usize / 6 % 3)
                    .copied()
                    .flatten(),
                regions: 1 + id as usize % 4,
                ..knowledge(id, cloud, lifetimes[id as usize / 4 % 3])
            }
        }));
        let selectors = [
            KbSelector::All,
            KbSelector::SpotCandidates,
            KbSelector::OversubscriptionCandidates(CloudKind::Public),
            KbSelector::OversubscriptionCandidates(CloudKind::Private),
            KbSelector::Shiftable,
        ];
        for selector in selectors {
            for query in [
                KbQuery::select(selector),
                KbQuery::select(selector).filter(|k| k.vm_count % 3 != 0),
            ] {
                let collected: Vec<SubscriptionId> =
                    query.collect(&kb).iter().map(|k| k.subscription).collect();
                assert!(!collected.is_empty(), "{selector:?} selects something");
                let folded = query.fold(&kb, Vec::new(), |mut ids, k| {
                    ids.push(k.subscription);
                    ids
                });
                assert_eq!(folded, collected, "{selector:?}");
            }
        }
    }

    #[test]
    fn filters_compose_and_never_widen() {
        let kb = populated();
        let all = KbQuery::all().count(&kb);
        assert_eq!(all, 4);
        let filtered = KbQuery::all()
            .filter(|k| k.cloud == CloudKind::Public)
            .filter(|k| k.vm_count >= 4)
            .collect(&kb);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].subscription, SubscriptionId::new(3));
        // matching() is all() + filter().
        let matching =
            KbQuery::matching(|k| k.cloud == CloudKind::Public && k.vm_count >= 4).collect(&kb);
        assert_eq!(matching, filtered);
    }

    #[test]
    fn indexed_selectors_match_scan_equivalents() {
        let kb = populated();
        let by_index = KbQuery::spot_candidates().collect(&kb);
        let by_scan = KbQuery::matching(WorkloadKnowledge::spot_candidate).collect(&kb);
        assert_eq!(by_index.len(), 2);
        assert_eq!(by_index, by_scan);
        let by_index = KbQuery::oversubscription_candidates(CloudKind::Public).collect(&kb);
        let by_scan =
            KbQuery::matching(|k| k.cloud == CloudKind::Public && k.oversubscription_candidate())
                .collect(&kb);
        assert_eq!(by_index, by_scan);
    }

    #[test]
    fn debug_shows_selector_and_filter_count() {
        let q = KbQuery::shiftable().filter(|_| true);
        let dbg = format!("{q:?}");
        assert!(dbg.contains("Shiftable"), "{dbg}");
        assert!(dbg.contains("filters: 1"), "{dbg}");
    }
}
