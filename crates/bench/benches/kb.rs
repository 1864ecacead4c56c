//! Benchmarks for the sharded, index-backed knowledge-base serving
//! layer: a mixed read/write closed loop at 1/2/4/8 threads, the same
//! loop through the WAL, cold recovery, and non-cloning checks backed
//! by a counting allocator. Results merge into `BENCH_kb.json` at the
//! repo root.
//!
//! The final `verify` "benchmark" asserts the acceptance criteria from
//! the measured results: index-backed candidate queries must not
//! allocate (and hence not clone) proportionally to the non-matching
//! entries they skip, the WAL may tax the serving loop by at most half,
//! and recovery must stay above a floor.

use cloudscope::kb::{DurableKb, KbQuery, KnowledgeBase, LifetimeClass, WorkloadKnowledge};
use cloudscope::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// --- counting allocator ------------------------------------------------

/// Counts allocation events while [`COUNTING`] is on. The count is the
/// evidence for the "no cloning of non-matching entries" criterion:
/// query cost in allocations must track matches, not store size.
struct CountingAlloc;

static ALLOCATION_EVENTS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events performed by `f` on this thread (the harness runs
/// the measured closure single-threaded, so the global count is its).
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATION_EVENTS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let value = f();
    COUNTING.store(false, Ordering::SeqCst);
    (value, ALLOCATION_EVENTS.load(Ordering::SeqCst))
}

// --- workload ----------------------------------------------------------

/// Entries in the populated store. A few percent match each candidate
/// query, like a real KB where most workloads are not candidates.
const STORE_SIZE: u32 = 20_000;

/// Mixed-loop shape per iteration: read-dominated, like a policy engine
/// sweeping the KB between extraction refreshes.
const READS_PER_ITER: usize = 48;
const WRITES_PER_ITER: usize = 4;

fn entry(id: u32) -> WorkloadKnowledge {
    // Deterministic shape: ~3% spot candidates, ~6% shiftable.
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
        region_agnostic: if id.is_multiple_of(16) {
            Some(true)
        } else {
            None
        },
        vm_count: (id % 50 + 1) as usize,
        cores: u64::from(id % 50) * 4 + 4,
        updated_at: SimTime::from_minutes(i64::from(id % 100)),
    }
}

fn populated_sharded(shards: usize) -> KnowledgeBase {
    let kb = KnowledgeBase::with_shards(shards);
    kb.feed((0..STORE_SIZE).map(entry));
    kb
}

/// One closed-loop iteration against the sharded store: index-backed
/// candidate reads (non-cloning folds/counts) plus a trickle of writes.
fn sharded_mixed_iter(kb: &KnowledgeBase, thread: u32, round: u32) -> usize {
    let mut acc = 0usize;
    for i in 0..READS_PER_ITER {
        acc += match i % 3 {
            0 => KbQuery::spot_candidates().fold(kb, 0usize, |a, k| a + k.vm_count),
            1 => KbQuery::shiftable().count(kb),
            _ => KbQuery::oversubscription_candidates(CloudKind::Public).count(kb),
        };
    }
    for w in 0..WRITES_PER_ITER as u32 {
        let id = (thread * 7919 + round * 131 + w * 37) % STORE_SIZE;
        let mut k = entry(id);
        k.updated_at = SimTime::from_minutes(1_000_000);
        kb.upsert(k);
    }
    acc
}

/// Runs `per_thread` closed-loop iterations on each of `threads` threads.
fn run_threads<S: Sync>(store: &S, threads: u32, per_thread: u32, iter: fn(&S, u32, u32) -> usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut acc = 0usize;
                for round in 0..per_thread {
                    acc += iter(store, t, round);
                }
                black_box(acc);
            });
        }
    });
}

// --- benchmarks --------------------------------------------------------

const THREAD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn bench_kb_mixed(c: &mut Criterion) {
    // First group to run: point the harness at the repo-root JSON file.
    c.json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kb.json"));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let samples = if smoke { 3 } else { 10 };

    let sharded = populated_sharded(8);
    let mut group = c.benchmark_group("kb_mixed");
    group.sample_size(samples);
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| b.iter(|| run_threads(&sharded, threads, 1, sharded_mixed_iter)),
        );
    }
    group.finish();
}

/// A unique scratch directory under the system temp dir.
fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cloudscope-bench-kb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A populated durable store: every entry WAL-committed, then
/// checkpointed, like a KB that has been serving for a while.
fn populated_durable(dir: &std::path::Path, shards: usize) -> DurableKb {
    let db = DurableKb::open_with_shards(dir, Some(shards)).expect("open durable kb");
    let batch: Vec<WorkloadKnowledge> = (0..STORE_SIZE).map(entry).collect();
    db.feed(&batch).expect("feed");
    db.snapshot().expect("snapshot");
    db
}

/// The sharded mixed loop with every write going through the WAL —
/// measures the durability tax on the serving workload.
fn durable_mixed_iter(db: &DurableKb, thread: u32, round: u32) -> usize {
    let kb = db.kb();
    let mut acc = 0usize;
    for i in 0..READS_PER_ITER {
        acc += match i % 3 {
            0 => KbQuery::spot_candidates().fold(kb, 0usize, |a, k| a + k.vm_count),
            1 => KbQuery::shiftable().count(kb),
            _ => KbQuery::oversubscription_candidates(CloudKind::Public).count(kb),
        };
    }
    for w in 0..WRITES_PER_ITER as u32 {
        let id = (thread * 7919 + round * 131 + w * 37) % STORE_SIZE;
        let mut k = entry(id);
        k.updated_at = SimTime::from_minutes(1_000_000);
        db.upsert(k).expect("durable upsert");
    }
    acc
}

/// The identical loop with the writes bypassing the WAL (straight into
/// the inner store) — the adjacent baseline the overhead gate divides
/// by, so machine drift between bench groups cannot fake (or mask) a
/// durability tax.
fn durable_plain_iter(db: &DurableKb, thread: u32, round: u32) -> usize {
    sharded_mixed_iter(db.kb(), thread, round)
}

/// Serving under churn with the WAL on, plus recovery time: the
/// mixed loop through [`DurableKb`] at 1 and 8 threads (with its
/// WAL-bypassing twin as the overhead baseline), and a cold `open()`
/// of a checkpointed-plus-tail 20k-entry directory.
fn bench_kb_durable(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let samples = if smoke { 3 } else { 10 };

    let mixed_dir = bench_dir("mixed");
    let durable = populated_durable(&mixed_dir, 8);
    let mut group = c.benchmark_group("kb_durable");
    group.sample_size(samples);
    for threads in [1u32, 8] {
        group.bench_with_input(
            BenchmarkId::new("mixed_plain", threads),
            &threads,
            |b, &threads| b.iter(|| run_threads(&durable, threads, 1, durable_plain_iter)),
        );
        group.bench_with_input(
            BenchmarkId::new("mixed_wal", threads),
            &threads,
            |b, &threads| b.iter(|| run_threads(&durable, threads, 1, durable_mixed_iter)),
        );
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&mixed_dir);

    // Recovery: snapshot holds the full population, the WAL tail holds
    // 5% refreshed entries — both recovery paths exercised.
    let recovery_dir = bench_dir("recovery");
    let db = populated_durable(&recovery_dir, 8);
    let tail: Vec<WorkloadKnowledge> = (0..STORE_SIZE / 20)
        .map(|id| {
            let mut k = entry(id);
            k.updated_at = SimTime::from_minutes(1_000_000);
            k
        })
        .collect();
    db.feed(&tail).expect("tail feed");
    drop(db);
    let recovery_id = format!("recovery/{STORE_SIZE}");
    group.bench_function(&recovery_id, |b| {
        b.iter(|| {
            let recovered = DurableKb::open(black_box(&recovery_dir)).expect("recover");
            assert_eq!(recovered.kb().len(), STORE_SIZE as usize);
            recovered
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&recovery_dir);
}

fn bench_query_terminals(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let kb = populated_sharded(8);
    let mut group = c.benchmark_group("kb_query");
    group.sample_size(if smoke { 3 } else { 20 });
    group.bench_function("indexed_count/20k", |b| {
        b.iter(|| KbQuery::spot_candidates().count(black_box(&kb)));
    });
    group.bench_function("indexed_fold/20k", |b| {
        b.iter(|| KbQuery::spot_candidates().fold(black_box(&kb), 0usize, |a, k| a + k.vm_count));
    });
    group.bench_function("scan_count/20k", |b| {
        b.iter(|| KbQuery::matching(WorkloadKnowledge::spot_candidate).count(black_box(&kb)));
    });
    group.bench_function("collect/20k", |b| {
        b.iter(|| KbQuery::spot_candidates().collect(black_box(&kb)));
    });
    group.finish();
}

/// Not a timing benchmark: checks the acceptance criteria against the
/// results measured above and the counting allocator, and fails the
/// bench run (panics) if the redesign regresses.
fn verify_acceptance(c: &mut Criterion) {
    let median = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("missing bench result {id}"))
            .median_ns
    };
    // Non-cloning criterion: an index-backed count on a 20k-entry store
    // must allocate O(shards) (the lock-guard scratch), never O(entries)
    // — the non-matching ~19.4k entries are not visited, let alone
    // cloned. The fold visits its ~600 matches borrowed, so its
    // allocations stay O(shards + matches), far below store size.
    let kb = populated_sharded(8);
    let matches = KbQuery::spot_candidates().count(&kb);
    assert!(matches > 0 && matches < STORE_SIZE as usize / 16);
    let (_, count_allocs) = allocations_during(|| KbQuery::spot_candidates().count(&kb));
    assert!(
        count_allocs < 64,
        "indexed count allocated {count_allocs} times on a {STORE_SIZE}-entry store"
    );
    let (total, fold_allocs) =
        allocations_during(|| KbQuery::spot_candidates().fold(&kb, 0usize, |a, k| a + k.vm_count));
    black_box(total);
    assert!(
        fold_allocs < matches + 64,
        "non-cloning fold allocated {fold_allocs} times for {matches} matches"
    );
    println!(
        "allocation audit: indexed count {count_allocs} events, fold {fold_allocs} events, \
         {matches} matches in a {STORE_SIZE}-entry store"
    );

    // Durability gates: the WAL must tax the mixed serving loop by at
    // most 50% single-threaded (expected: single-digit %, since the
    // loop is read-dominated and reads bypass the WAL mutex), and cold
    // recovery of the 20k-entry store must land well under 5 seconds.
    //
    // The overhead estimate deliberately does NOT divide the two
    // criterion medians above: those twins run as separate benchmarks
    // seconds apart, and on a busy machine that gap alone has produced
    // readings like -9% — a nonsensical "WAL speedup" that was pure
    // drift. Instead the twins run here strictly interleaved on one
    // store — plain round, WAL round, repeat — and the estimate is the
    // median of per-round ratios, so slow drift cancels within each
    // round. The median is reported as measured: a reading below zero
    // says how wide the noise is, which a clamped 0.0 would hide.
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let overhead_dir = bench_dir("overhead");
    let db = populated_durable(&overhead_dir, 8);
    let (rounds, iters_per_round) = if smoke { (3, 1) } else { (15, 4) };
    run_threads(&db, 1, 1, durable_plain_iter); // warm caches and WAL
    run_threads(&db, 1, 1, durable_mixed_iter);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        run_threads(&db, 1, iters_per_round, durable_plain_iter);
        let plain = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        run_threads(&db, 1, iters_per_round, durable_mixed_iter);
        let wal = t1.elapsed().as_secs_f64();
        ratios.push(wal / plain);
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&overhead_dir);
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let wal_overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    let recovery_ns = median(&format!("kb_durable/recovery/{STORE_SIZE}"));
    c.report_metric("kb_durable/wal_overhead_pct", wal_overhead_pct);
    println!(
        "kb_durable WAL overhead over in-memory sharded (1 thread, {rounds} interleaved \
         rounds): {wal_overhead_pct:.1}%"
    );
    assert!(
        wal_overhead_pct <= 50.0,
        "WAL tax on the mixed loop must stay <= 50%, got {wal_overhead_pct:.1}%"
    );

    let entries_per_sec = f64::from(STORE_SIZE) / (recovery_ns / 1e9);
    c.report_metric("kb_durable/recovery_entries_per_sec", entries_per_sec);
    println!(
        "kb_durable recovery: {:.1} ms for {STORE_SIZE} entries ({entries_per_sec:.0} entries/s)",
        recovery_ns / 1e6
    );
    assert!(
        recovery_ns < 5e9,
        "recovering a {STORE_SIZE}-entry store must take < 5s, took {:.2}s",
        recovery_ns / 1e9
    );
}

criterion_group!(
    kb,
    bench_kb_mixed,
    bench_kb_durable,
    bench_query_terminals,
    verify_acceptance
);
criterion_main!(kb);
