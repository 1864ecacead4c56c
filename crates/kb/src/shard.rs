//! One shard of the knowledge base: its entry map plus the secondary
//! indexes that turn the policies' candidate queries into index walks.
//!
//! Every index is maintained *incrementally* — an upsert deindexes the
//! entry it replaces and indexes the new one under the same write lock,
//! so readers can never observe an entry without its index postings (or
//! a posting without its entry). [`ShardState::check_consistency`]
//! verifies that invariant by rebuilding the indexes from scratch and
//! demanding exact equality; the property suite in
//! `crates/kb/tests/consistency.rs` drives it with random op sequences.

use crate::knowledge::WorkloadKnowledge;
use crate::query::KbSelector;
use cloudscope_model::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The secondary indexes one shard maintains, one per typed query the
/// management policies run. Posting sets are `BTreeSet`s so every
/// per-shard walk yields subscriptions in ascending order — the global
/// merge in the query engine only has to sort across shards.
///
/// Sets that empty out are removed from their maps, so two index states
/// built from the same entries compare equal regardless of history.
#[derive(Debug, Default, PartialEq, Eq)]
struct ShardIndexes {
    /// Spot-adoption candidates ([`WorkloadKnowledge::spot_candidate`]).
    spot: BTreeSet<SubscriptionId>,
    /// Over-subscription candidates, per cloud.
    oversub: HashMap<CloudKind, BTreeSet<SubscriptionId>>,
    /// Region-shiftable workloads ([`WorkloadKnowledge::shiftable`]).
    shiftable: BTreeSet<SubscriptionId>,
}

impl ShardIndexes {
    /// Adds `k`'s postings to every index it belongs in.
    fn index(&mut self, k: &WorkloadKnowledge) {
        let id = k.subscription;
        if k.spot_candidate() {
            self.spot.insert(id);
        }
        if k.oversubscription_candidate() {
            self.oversub.entry(k.cloud).or_default().insert(id);
        }
        if k.shiftable() {
            self.shiftable.insert(id);
        }
    }

    /// Removes `k`'s postings, dropping sets that empty out so index
    /// state stays history-independent.
    fn deindex(&mut self, k: &WorkloadKnowledge) {
        let id = k.subscription;
        self.spot.remove(&id);
        if k.oversubscription_candidate() {
            if let Some(set) = self.oversub.get_mut(&k.cloud) {
                set.remove(&id);
                if set.is_empty() {
                    self.oversub.remove(&k.cloud);
                }
            }
        }
        self.shiftable.remove(&id);
    }
}

/// One shard: the entry map plus its secondary indexes, always mutated
/// together under the owning `RwLock`'s write guard.
#[derive(Debug, Default)]
pub(crate) struct ShardState {
    entries: HashMap<SubscriptionId, WorkloadKnowledge>,
    indexes: ShardIndexes,
}

impl ShardState {
    /// Inserts or refreshes one entry, keeping the indexes in lockstep.
    /// Returns `false` for a stale write (older `updated_at` than the
    /// stored entry), which leaves both entry and indexes untouched.
    pub(crate) fn upsert(&mut self, knowledge: WorkloadKnowledge) -> bool {
        let id = knowledge.subscription;
        if self
            .entries
            .get(&id)
            .is_some_and(|existing| existing.updated_at > knowledge.updated_at)
        {
            return false;
        }
        if let Some(old) = self.entries.remove(&id) {
            self.indexes.deindex(&old);
        }
        self.indexes.index(&knowledge);
        self.entries.insert(id, knowledge);
        true
    }

    /// Looks up one entry.
    pub(crate) fn get(&self, id: SubscriptionId) -> Option<&WorkloadKnowledge> {
        self.entries.get(&id)
    }

    /// Number of entries in this shard.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Unordered iteration over every entry (full-scan queries).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &WorkloadKnowledge> {
        self.entries.values()
    }

    /// The index posting set serving `selector`, if the selector is
    /// index-backed ([`KbSelector::All`] is not: it scans). `None` for an
    /// index-backed selector means no entry matches in this shard.
    pub(crate) fn index_ids(&self, selector: &KbSelector) -> Option<&BTreeSet<SubscriptionId>> {
        match *selector {
            KbSelector::All => None,
            KbSelector::SpotCandidates => Some(&self.indexes.spot),
            KbSelector::OversubscriptionCandidates(cloud) => self.indexes.oversub.get(&cloud),
            KbSelector::Shiftable => Some(&self.indexes.shiftable),
        }
    }

    /// Verifies index ↔ entry consistency by rebuilding every index from
    /// the entry map and demanding exact equality (including the absence
    /// of dangling postings, which rebuild equality implies because a
    /// posting set is part of the compared state).
    ///
    /// # Errors
    /// A description of the first divergence found.
    pub(crate) fn check_consistency(&self) -> Result<(), String> {
        let mut rebuilt = ShardIndexes::default();
        for k in self.entries.values() {
            rebuilt.index(k);
        }
        if rebuilt != self.indexes {
            return Err(format!(
                "indexes diverged from a fresh rebuild over {} entries \
                 (live: {:?}, rebuilt: {:?})",
                self.entries.len(),
                self.indexes,
                rebuilt
            ));
        }
        for id in self.indexes.spot.iter() {
            if !self.entries.contains_key(id) {
                return Err(format!("spot index posts missing entry {id}"));
            }
        }
        Ok(())
    }
}
