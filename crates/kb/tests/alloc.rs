//! Allocation audit of the index-backed query terminals: on a 20k-entry
//! store, `count` and `fold` over an indexed selector cost allocations
//! and heap in the shards and the matches, never in the entries they
//! skip, and neither clones an entry.
//!
//! Its own test binary, because it installs the counting allocator and
//! reads process-wide counters: one test, nothing else running.

use cloudscope_analysis::UtilizationPattern;
use cloudscope_kb::knowledge::LifetimeClass;
use cloudscope_kb::{KbQuery, KnowledgeBase, WorkloadKnowledge};
use cloudscope_model::ids::SubscriptionId;
use cloudscope_model::prelude::{CloudKind, SimTime};
use cloudscope_obs::heap::{allocations_during, peak_during, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Entries in the store; about 3% of them are spot candidates, like a
/// real KB where most workloads match no candidate query.
const STORE_SIZE: u32 = 20_000;
const SHARDS: usize = 8;

fn entry(id: u32) -> WorkloadKnowledge {
    let spot = id.is_multiple_of(32);
    WorkloadKnowledge {
        subscription: SubscriptionId::new(id),
        cloud: if spot || id.is_multiple_of(2) {
            CloudKind::Public
        } else {
            CloudKind::Private
        },
        pattern: Some(if id.is_multiple_of(5) {
            UtilizationPattern::Stable
        } else {
            UtilizationPattern::Irregular
        }),
        lifetime: if spot {
            LifetimeClass::MostlyShort
        } else {
            LifetimeClass::MostlyLong
        },
        mean_util: f64::from(id % 90),
        p95_util: f64::from(id % 90) + 5.0,
        util_cv: 0.3,
        regions: (id % 3 + 1) as usize,
        region_agnostic: id.is_multiple_of(16).then_some(true),
        vm_count: (id % 50 + 1) as usize,
        cores: u64::from(id % 50) * 4 + 4,
        updated_at: SimTime::from_minutes(i64::from(id % 100)),
    }
}

#[test]
fn indexed_terminals_allocate_per_shard_and_match_not_per_entry() {
    let kb = KnowledgeBase::with_shards(SHARDS);
    kb.feed((0..STORE_SIZE).map(entry));
    // Also registers the query metrics, so their first-touch
    // allocations fall outside the measured calls.
    let matches = KbQuery::spot_candidates().count(&kb);
    assert!(matches > 0 && matches < STORE_SIZE as usize / 16);
    let clone_bytes = matches * std::mem::size_of::<WorkloadKnowledge>();

    // A filterless indexed count sums posting sizes under one read
    // guard per shard: O(shards) allocations and bytes.
    let (n, count_allocs) = allocations_during(|| KbQuery::spot_candidates().count(&kb));
    let (_, count_peak) = peak_during(|| black_box(KbQuery::spot_candidates().count(&kb)));
    assert_eq!(n, matches);
    assert!(
        count_allocs < 64,
        "indexed count allocated {count_allocs} times on a {STORE_SIZE}-entry store"
    );
    assert!(
        count_peak <= 64 * SHARDS,
        "indexed count peaked {count_peak} B above entry; cloning its {matches} matches \
         would take {clone_bytes} B"
    );

    // The fold visits its matches borrowed: one reference each, sorted,
    // so its heap is O(shards + matches) and below one clone of them.
    let fold = || KbQuery::spot_candidates().fold(&kb, 0usize, |a, k| a + k.vm_count);
    let (total, fold_allocs) = allocations_during(fold);
    let (_, fold_peak) = peak_during(|| black_box(fold()));
    assert!(total > 0);
    assert!(
        fold_allocs < matches + 64,
        "non-cloning fold allocated {fold_allocs} times for {matches} matches"
    );
    assert!(
        fold_peak < clone_bytes,
        "fold peaked {fold_peak} B above entry, at least a clone of its {matches} \
         matches ({clone_bytes} B)"
    );
}
