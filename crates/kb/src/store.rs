//! The centralized workload knowledge base of Section V, built as a
//! serving subsystem: writes land on one of N shards keyed by a hash of
//! the [`SubscriptionId`]; each shard maintains secondary indexes for
//! the typed queries the optimization policies run, so candidate lookups
//! are index walks instead of full scans. Reads go through the typed
//! [`KbQuery`](crate::KbQuery) API, which merges per-shard results into
//! one subscription-ordered view — results are byte-identical for any
//! shard count.

use crate::knowledge::WorkloadKnowledge;
use crate::query::{KbQuery, KbSelector};
use crate::shard::ShardState;
use cloudscope_model::prelude::*;
use std::error::Error;
use std::fmt;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Shard-count ceiling for the auto default: beyond this, shard-lock
/// contention is no longer the bottleneck for any workload the repo runs.
const MAX_AUTO_SHARDS: usize = 16;

/// Error a knowledge-base backend can raise on a write. The in-memory
/// [`KnowledgeBase`] never fails, but a networked or disk-backed store
/// does, and the extraction pipeline has to cope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The write failed for a reason that may clear on retry (timeout,
    /// contention, brief unavailability). Carries the backend's reason.
    Transient(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Transient(reason) => write!(f, "transient store failure: {reason}"),
        }
    }
}

impl Error for StoreError {}

/// Per-entry outcome of one batched write ([`KbStore::try_feed`]).
/// `stored + stale + failures.len()` always equals the batch length, so
/// a caller can account for every entry it handed over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeedOutcome {
    /// Entries stored (inserted or refreshed).
    pub stored: usize,
    /// Entries ignored as stale (older `updated_at` than the stored
    /// entry) — not an error; out-of-order feeds are expected.
    pub stale: usize,
    /// Entries the backend could not take, as `(batch index, error)` in
    /// ascending batch order — the granularity a retrying caller needs
    /// to re-feed exactly the failures.
    pub failures: Vec<(usize, StoreError)>,
}

/// Write interface of a knowledge-base backend, as the extraction
/// pipeline sees it: single upserts plus batched ingestion with
/// per-entry error granularity.
pub trait KbStore {
    /// Attempts to insert or refresh one subscription's knowledge.
    /// `Ok(true)` means the entry was stored, `Ok(false)` that it was
    /// ignored as stale.
    ///
    /// # Errors
    /// [`StoreError::Transient`] if the backend could not take the write
    /// right now.
    fn try_upsert(&self, knowledge: WorkloadKnowledge) -> Result<bool, StoreError>;

    /// Attempts to ingest one batch (e.g. one extraction sweep chunk),
    /// reporting per-entry outcomes instead of failing the batch
    /// wholesale — one bad entry must not cost the rest of the batch.
    ///
    /// The default implementation upserts entry by entry via
    /// [`KbStore::try_upsert`]; backends with a cheaper bulk path (the
    /// in-memory store groups by shard and takes each shard lock once)
    /// override it.
    fn try_feed(&self, batch: &[WorkloadKnowledge]) -> FeedOutcome {
        let mut outcome = FeedOutcome::default();
        for (index, knowledge) in batch.iter().enumerate() {
            match self.try_upsert(knowledge.clone()) {
                Ok(true) => outcome.stored += 1,
                Ok(false) => outcome.stale += 1,
                Err(e) => outcome.failures.push((index, e)),
            }
        }
        outcome
    }
}

impl KbStore for KnowledgeBase {
    /// The in-memory store is infallible; this simply delegates to
    /// [`KnowledgeBase::upsert`].
    fn try_upsert(&self, knowledge: WorkloadKnowledge) -> Result<bool, StoreError> {
        Ok(self.upsert(knowledge))
    }

    /// Groups the batch by shard and takes each shard's write lock once,
    /// instead of once per entry. Infallible: `failures` is always empty.
    fn try_feed(&self, batch: &[WorkloadKnowledge]) -> FeedOutcome {
        self.feed_batch(batch)
    }
}

/// The number of shards to use when none is requested explicitly: the
/// machine's available parallelism capped at [`MAX_AUTO_SHARDS`].
#[must_use]
fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(MAX_AUTO_SHARDS)
}

/// SplitMix64: a full-avalanche mixer, so shard assignment is uniform
/// and — unlike `HashMap`'s seeded `RandomState` — stable across
/// processes and platforms.
#[must_use]
fn mix(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The knowledge base of Section V: writers (telemetry extractors) feed
/// it continuously; readers (optimization policies) query it through
/// [`KbQuery`](crate::KbQuery). Internally N shards keyed by
/// subscription hash, each with its own lock and secondary indexes, so
/// concurrent readers and writers mostly touch disjoint locks and
/// candidate queries never scan the population.
#[derive(Debug)]
pub struct KnowledgeBase {
    shards: Box<[RwLock<ShardState>]>,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        Self::new()
    }
}

impl KnowledgeBase {
    /// Creates an empty knowledge base with the default shard count
    /// (available parallelism capped at 16). Shard count never affects
    /// query results, only contention.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Creates an empty knowledge base with exactly `shards` shards.
    ///
    /// Registers the whole `kb.store.*` metric surface up front (zeros,
    /// not absences), so a freshly constructed store already exports a
    /// complete schema.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a knowledge base needs at least one shard");
        cloudscope_obs::gauge("kb.store.shards").set(shards as f64);
        for name in [
            "kb.store.upserts",
            "kb.store.stale_rejected",
            "kb.store.removes",
            "kb.store.feed_batches",
            "kb.store.queries_indexed",
            "kb.store.queries_scanned",
            "kb.store.entries_cloned",
        ] {
            cloudscope_obs::counter(name).add(0);
        }
        Self {
            shards: (0..shards).map(|_| RwLock::default()).collect(),
        }
    }

    /// The shard index owning `id`.
    fn shard_of(&self, id: SubscriptionId) -> usize {
        (mix(u64::from(id.index())) % self.shards.len() as u64) as usize
    }

    /// Read access to one shard; a poisoned lock is recovered rather
    /// than propagated, since every write keeps entry map and indexes
    /// consistent before releasing the guard.
    fn read(&self, shard: usize) -> RwLockReadGuard<'_, ShardState> {
        self.shards[shard]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to one shard; see [`Self::read`] on poisoning.
    fn write(&self, shard: usize) -> RwLockWriteGuard<'_, ShardState> {
        self.shards[shard]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts or refreshes one subscription's knowledge. Stale updates
    /// (older `updated_at` than the stored entry) are ignored, so
    /// out-of-order feeds are safe. Returns `true` if the entry was
    /// stored.
    pub fn upsert(&self, knowledge: WorkloadKnowledge) -> bool {
        cloudscope_obs::counter("kb.store.upserts").inc();
        let shard = self.shard_of(knowledge.subscription);
        let stored = self.write(shard).upsert(knowledge);
        if !stored {
            cloudscope_obs::counter("kb.store.stale_rejected").inc();
        }
        stored
    }

    /// Bulk-feeds extracted knowledge (e.g. one extraction sweep).
    /// Returns how many entries were stored.
    pub fn feed<I: IntoIterator<Item = WorkloadKnowledge>>(&self, batch: I) -> usize {
        let batch: Vec<WorkloadKnowledge> = batch.into_iter().collect();
        self.feed_batch(&batch).stored
    }

    /// The native batch path: group by shard, lock each shard once,
    /// apply that shard's entries in batch order (so duplicate
    /// subscriptions within a batch resolve exactly as sequential
    /// upserts would).
    pub(crate) fn feed_batch(&self, batch: &[WorkloadKnowledge]) -> FeedOutcome {
        cloudscope_obs::counter("kb.store.feed_batches").inc();
        cloudscope_obs::counter("kb.store.upserts").add(batch.len() as u64);
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (index, knowledge) in batch.iter().enumerate() {
            by_shard[self.shard_of(knowledge.subscription)].push(index);
        }
        let mut outcome = FeedOutcome::default();
        for (shard, indices) in by_shard.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let mut guard = self.write(shard);
            for index in indices {
                if guard.upsert(batch[index].clone()) {
                    outcome.stored += 1;
                } else {
                    outcome.stale += 1;
                }
            }
        }
        if outcome.stale > 0 {
            cloudscope_obs::counter("kb.store.stale_rejected").add(outcome.stale as u64);
        }
        outcome
    }

    /// Looks up one subscription.
    #[must_use]
    pub fn get(&self, subscription: SubscriptionId) -> Option<WorkloadKnowledge> {
        self.read(self.shard_of(subscription))
            .get(subscription)
            .cloned()
    }

    /// Removes one subscription (e.g. deleted by the customer).
    pub fn remove(&self, subscription: SubscriptionId) -> Option<WorkloadKnowledge> {
        cloudscope_obs::counter("kb.store.removes").inc();
        self.write(self.shard_of(subscription)).remove(subscription)
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.read(s).len()).sum()
    }

    /// `true` if nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read guards over every shard, acquired in shard order (the one
    /// canonical order, so two concurrent queries can never deadlock).
    /// Holding all of them gives the query one atomic view of the store.
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, ShardState>> {
        (0..self.shards.len()).map(|s| self.read(s)).collect()
    }

    /// Counts the query toward the served-query metrics.
    fn note_query(selector: KbSelector) {
        let name = if selector == KbSelector::All {
            "kb.store.queries_scanned"
        } else {
            "kb.store.queries_indexed"
        };
        cloudscope_obs::counter(name).inc();
    }

    /// Executes `query`, visiting each match (ascending subscription
    /// order, borrowed — never cloned) with `f`.
    pub(crate) fn for_each_match(
        &self,
        query: &KbQuery<'_>,
        mut f: impl FnMut(&WorkloadKnowledge),
    ) {
        Self::note_query(query.selector());
        let guards = self.read_all();
        let mut matches: Vec<&WorkloadKnowledge> = Vec::new();
        for guard in &guards {
            match query.selector() {
                KbSelector::All => {
                    matches.extend(guard.entries().filter(|k| query.passes(k)));
                }
                selector => {
                    if let Some(ids) = guard.index_ids(&selector) {
                        matches.extend(ids.iter().map(|id| {
                            guard
                                .get(*id)
                                .expect("index posting references a live entry")
                        }));
                        if query.has_filters() {
                            matches.retain(|k| query.passes(k));
                        }
                    }
                }
            }
        }
        matches.sort_unstable_by_key(|k| k.subscription);
        for k in matches {
            f(k);
        }
    }

    /// Counts `query`'s matches. With no residual filters an indexed
    /// selector is a pure posting-set size sum — no entry is visited.
    pub(crate) fn count_matches(&self, query: &KbQuery<'_>) -> usize {
        if query.has_filters() {
            let mut n = 0;
            self.for_each_match(query, |_| n += 1);
            return n;
        }
        Self::note_query(query.selector());
        let selector = query.selector();
        let guards = self.read_all();
        guards
            .iter()
            .map(|guard| match selector {
                KbSelector::All => guard.len(),
                ref indexed => guard
                    .index_ids(indexed)
                    .map_or(0, std::collections::BTreeSet::len),
            })
            .sum()
    }

    /// Collects `query`'s matches, cloning exactly them.
    pub(crate) fn collect_matches(&self, query: &KbQuery<'_>) -> Vec<WorkloadKnowledge> {
        let mut out = Vec::new();
        self.for_each_match(query, |k| out.push(k.clone()));
        cloudscope_obs::counter("kb.store.entries_cloned").add(out.len() as u64);
        out
    }

    /// Clones every shard's entries, sorted by subscription within each
    /// shard, tagged with the shard index — the unit of one snapshot
    /// file. Deterministic: the same store contents always produce the
    /// same byte-identical snapshot files.
    pub(crate) fn export_shard_entries(&self) -> Vec<(usize, Vec<WorkloadKnowledge>)> {
        let guards = self.read_all();
        guards
            .iter()
            .enumerate()
            .map(|(shard, guard)| {
                let mut entries: Vec<WorkloadKnowledge> = guard.entries().cloned().collect();
                entries.sort_unstable_by_key(|k| k.subscription);
                (shard, entries)
            })
            .collect()
    }

    /// Verifies every shard's index ↔ entry consistency (by full
    /// rebuild) and that every entry lives in the shard its hash maps
    /// to. Returns the number of entries checked. A test/debug aid —
    /// O(population), takes every shard read lock.
    ///
    /// # Errors
    /// A description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<usize, String> {
        let mut total = 0;
        for shard in 0..self.shards.len() {
            let guard = self.read(shard);
            for k in guard.entries() {
                let expected = self.shard_of(k.subscription);
                if expected != shard {
                    return Err(format!(
                        "entry {} lives in shard {shard} but hashes to shard {expected}",
                        k.subscription
                    ));
                }
            }
            guard
                .check_consistency()
                .map_err(|e| format!("shard {shard}: {e}"))?;
            total += guard.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::LifetimeClass;
    use cloudscope_analysis::UtilizationPattern;
    use std::sync::Arc;

    fn knowledge(id: u32, cloud: CloudKind, at: i64) -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud,
            pattern: Some(UtilizationPattern::Stable),
            lifetime: LifetimeClass::MostlyShort,
            mean_util: 10.0,
            p95_util: 20.0,
            util_cv: 0.1,
            regions: 1,
            region_agnostic: None,
            vm_count: 3,
            cores: 12,
            updated_at: SimTime::from_minutes(at),
        }
    }

    #[test]
    fn upsert_and_get() {
        let kb = KnowledgeBase::new();
        assert!(kb.is_empty());
        assert!(kb.upsert(knowledge(1, CloudKind::Public, 0)));
        assert_eq!(kb.len(), 1);
        assert_eq!(kb.get(SubscriptionId::new(1)).unwrap().cores, 12);
        assert!(kb.get(SubscriptionId::new(2)).is_none());
    }

    #[test]
    fn stale_updates_ignored() {
        let kb = KnowledgeBase::new();
        let mut fresh = knowledge(1, CloudKind::Public, 100);
        fresh.mean_util = 50.0;
        assert!(kb.upsert(fresh));
        // An older snapshot must not clobber the newer one.
        assert!(!kb.upsert(knowledge(1, CloudKind::Public, 10)));
        assert_eq!(kb.get(SubscriptionId::new(1)).unwrap().mean_util, 50.0);
        // Same-age updates do apply (refresh).
        let mut same = knowledge(1, CloudKind::Public, 100);
        same.mean_util = 60.0;
        assert!(kb.upsert(same));
        assert_eq!(kb.get(SubscriptionId::new(1)).unwrap().mean_util, 60.0);
    }

    #[test]
    fn queries_filter_and_sort() {
        let kb = KnowledgeBase::new();
        kb.feed([
            knowledge(3, CloudKind::Public, 0),
            knowledge(1, CloudKind::Public, 0),
            knowledge(2, CloudKind::Private, 0),
        ]);
        let spot = KbQuery::spot_candidates().collect(&kb);
        assert_eq!(spot.len(), 2, "private entries are not spot candidates");
        assert!(spot[0].subscription < spot[1].subscription);
        assert_eq!(
            KbQuery::oversubscription_candidates(CloudKind::Public).count(&kb),
            2
        );
        assert_eq!(KbQuery::shiftable().count(&kb), 0);
    }

    #[test]
    fn kb_store_trait_delegates_to_upsert() {
        let kb = KnowledgeBase::new();
        assert_eq!(
            kb.try_upsert(knowledge(1, CloudKind::Public, 100)),
            Ok(true)
        );
        // Stale write: surfaced as Ok(false), not an error.
        assert_eq!(
            kb.try_upsert(knowledge(1, CloudKind::Public, 10)),
            Ok(false)
        );
        assert_eq!(kb.len(), 1);
        let e = StoreError::Transient("timeout");
        assert!(e.to_string().contains("timeout"));
    }

    #[test]
    fn try_feed_accounts_for_every_entry() {
        let kb = KnowledgeBase::with_shards(4);
        assert!(kb.upsert(knowledge(1, CloudKind::Public, 100)));
        let batch = [
            knowledge(1, CloudKind::Public, 10), // stale vs the stored entry
            knowledge(2, CloudKind::Private, 0),
            knowledge(3, CloudKind::Public, 0),
            knowledge(3, CloudKind::Public, 0), // same-age refresh: stores
        ];
        let outcome = kb.try_feed(&batch);
        assert_eq!(outcome.stored, 3);
        assert_eq!(outcome.stale, 1);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.stored + outcome.stale, batch.len());
        assert_eq!(kb.len(), 3);
        // Batch order within a subscription matches sequential upserts.
        let sequential = KnowledgeBase::with_shards(1);
        sequential.upsert(knowledge(1, CloudKind::Public, 100));
        for k in &batch {
            let _ = sequential.upsert(k.clone());
        }
        for id in 1..=3 {
            assert_eq!(
                kb.get(SubscriptionId::new(id)),
                sequential.get(SubscriptionId::new(id))
            );
        }
    }

    #[test]
    fn remove_entries() {
        let kb = KnowledgeBase::new();
        kb.upsert(knowledge(1, CloudKind::Public, 0));
        assert!(kb.remove(SubscriptionId::new(1)).is_some());
        assert!(kb.remove(SubscriptionId::new(1)).is_none());
        assert!(kb.is_empty());
        assert_eq!(kb.check_consistency(), Ok(0));
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let entries: Vec<WorkloadKnowledge> = (0..64)
            .map(|i| {
                knowledge(
                    i,
                    if i % 3 == 0 {
                        CloudKind::Private
                    } else {
                        CloudKind::Public
                    },
                    i64::from(i % 7),
                )
            })
            .collect();
        let reference = KnowledgeBase::with_shards(1);
        reference.feed(entries.clone());
        for shards in [2, 3, 8, 16] {
            let kb = KnowledgeBase::with_shards(shards);
            kb.feed(entries.clone());
            assert_eq!(kb.len(), reference.len());
            assert_eq!(
                KbQuery::all().collect(&kb),
                KbQuery::all().collect(&reference),
                "shard count {shards} changed the all-scan"
            );
            assert_eq!(
                KbQuery::spot_candidates().collect(&kb),
                KbQuery::spot_candidates().collect(&reference),
                "shard count {shards} changed the spot candidates"
            );
            assert!(kb.check_consistency().unwrap() == reference.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = KnowledgeBase::with_shards(0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let kb = Arc::new(KnowledgeBase::with_shards(4));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let kb = Arc::clone(&kb);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    kb.upsert(knowledge(w * 1000 + i, CloudKind::Public, i64::from(i)));
                }
            }));
        }
        for r in 0..2 {
            let kb = Arc::clone(&kb);
            handles.push(std::thread::spawn(move || {
                let _ = r;
                for _ in 0..100 {
                    let _ = KbQuery::spot_candidates().count(&kb);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kb.len(), 1000);
        assert_eq!(kb.check_consistency(), Ok(1000));
    }

    #[test]
    fn concurrent_stress_keeps_indexes_consistent() {
        // Interleaved upserts, stale writes, and removals over a small
        // hot key range, racing with index-walking readers; afterwards
        // every index must agree with a rebuild and shard placement.
        let kb = Arc::new(KnowledgeBase::with_shards(5));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let kb = Arc::clone(&kb);
            handles.push(std::thread::spawn(move || {
                for i in 0..400u32 {
                    let id = (w * 31 + i) % 97; // deliberate cross-thread collisions
                    match i % 5 {
                        0 => {
                            // Stale write: timestamp far in the past.
                            let _ = kb.upsert(knowledge(id, CloudKind::Public, -1));
                        }
                        1 => {
                            let _ = kb.remove(SubscriptionId::new(id));
                        }
                        _ => {
                            let cloud = if id % 2 == 0 {
                                CloudKind::Public
                            } else {
                                CloudKind::Private
                            };
                            let _ = kb.upsert(knowledge(id, cloud, i64::from(i)));
                        }
                    }
                }
            }));
        }
        for _ in 0..2 {
            let kb = Arc::clone(&kb);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let spot = KbQuery::spot_candidates().count(&kb);
                    let all = KbQuery::all().count(&kb);
                    assert!(spot <= all);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let checked = kb.check_consistency().expect("indexes consistent");
        assert_eq!(checked, kb.len());
    }
}
