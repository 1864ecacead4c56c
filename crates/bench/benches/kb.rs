//! Benchmarks for the durable knowledge base: cold recovery of a
//! checkpointed 20k-entry store with a WAL tail, and the WAL's tax on a
//! read-dominated serving loop. Results merge into `BENCH_kb.json` at
//! the repo root, where `scripts/bench_gates.json` bounds them.

use cloudscope::kb::{DurableKb, KbQuery, LifetimeClass, WorkloadKnowledge};
use cloudscope::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Entries in the populated store. A few percent match each candidate
/// query, like a real KB where most workloads are not candidates.
const STORE_SIZE: u32 = 20_000;

/// Serving-loop shape per iteration: read-dominated, like a policy
/// engine sweeping the KB between extraction refreshes.
const READS_PER_ITER: usize = 48;
const WRITES_PER_ITER: u32 = 4;

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

/// A unique scratch directory under the system temp dir.
fn bench_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cloudscope-bench-kb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A populated durable store: every entry WAL-committed, then
/// checkpointed, like a KB that has been serving for a while.
fn populated_durable(dir: &Path) -> DurableKb {
    let db = DurableKb::open_with_shards(dir, Some(8)).expect("open durable kb");
    let batch: Vec<WorkloadKnowledge> = (0..STORE_SIZE).map(entry).collect();
    db.feed(&batch).expect("feed");
    db.snapshot().expect("snapshot");
    db
}

/// One serving-loop iteration: index-backed candidate reads
/// (non-cloning folds and counts) plus a trickle of writes, through the
/// WAL or straight into the in-memory store beneath it.
fn mixed_iter(db: &DurableKb, round: u32, wal: bool) -> usize {
    let kb = db.kb();
    let mut acc = 0usize;
    for i in 0..READS_PER_ITER {
        acc += match i % 3 {
            0 => KbQuery::spot_candidates().fold(kb, 0usize, |a, k| a + k.vm_count),
            1 => KbQuery::shiftable().count(kb),
            _ => KbQuery::oversubscription_candidates(CloudKind::Public).count(kb),
        };
    }
    for w in 0..WRITES_PER_ITER {
        let mut k = entry((round * 131 + w * 37) % STORE_SIZE);
        k.updated_at = SimTime::from_minutes(1_000_000);
        if wal {
            db.upsert(k).expect("durable upsert");
        } else {
            kb.upsert(k);
        }
    }
    acc
}

/// Wall-clock seconds of `iters` serving-loop iterations.
fn timed_rounds(db: &DurableKb, iters: u32, wal: bool) -> f64 {
    let t0 = Instant::now();
    for round in 0..iters {
        black_box(mixed_iter(db, round, wal));
    }
    t0.elapsed().as_secs_f64()
}

/// Cold `open()` of a directory whose snapshot holds the full
/// population and whose WAL tail holds 5% refreshed entries, so both
/// recovery paths run.
fn bench_recovery(c: &mut Criterion) {
    c.json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kb.json"));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let dir = bench_dir("recovery");
    let db = populated_durable(&dir);
    let tail: Vec<WorkloadKnowledge> = (0..STORE_SIZE / 20)
        .map(|id| {
            let mut k = entry(id);
            k.updated_at = SimTime::from_minutes(1_000_000);
            k
        })
        .collect();
    db.feed(&tail).expect("tail feed");
    drop(db);
    let mut group = c.benchmark_group("kb_durable");
    group.sample_size(if smoke { 3 } else { 10 });
    group.bench_function(&format!("recovery/{STORE_SIZE}"), |b| {
        b.iter(|| {
            let recovered = DurableKb::open(black_box(&dir)).expect("recover");
            assert_eq!(recovered.kb().len(), STORE_SIZE as usize);
            recovered
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Not a timing benchmark: derives the recovery rate from the median
/// above and measures the WAL's tax on the serving loop.
///
/// The tax is not a ratio of two criterion medians: benchmarks run
/// seconds apart, and on a busy machine that gap alone has read as a
/// -9% "WAL speedup". Instead the plain and WAL loops run strictly
/// interleaved on one store, and the estimate is the median of the
/// per-round ratios, so slow drift cancels within each round. It is
/// reported as measured: a reading below zero says how wide the noise
/// is, which a clamped 0 would hide.
fn report_derived(c: &mut Criterion) {
    let recovery_ns = c
        .results()
        .iter()
        .find(|r| r.id == format!("kb_durable/recovery/{STORE_SIZE}"))
        .expect("recovery benchmark ran")
        .median_ns;
    c.report_metric(
        "kb_durable/recovery_entries_per_sec",
        f64::from(STORE_SIZE) / (recovery_ns / 1e9),
    );

    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let (rounds, iters_per_round) = if smoke { (3, 1) } else { (15, 4) };
    let dir = bench_dir("overhead");
    let db = populated_durable(&dir);
    timed_rounds(&db, 1, false); // warm caches and the WAL
    timed_rounds(&db, 1, true);
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let plain = timed_rounds(&db, iters_per_round, false);
            timed_rounds(&db, iters_per_round, true) / plain
        })
        .collect();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    ratios.sort_by(f64::total_cmp);
    c.report_metric(
        "kb_durable/wal_overhead_pct",
        (ratios[ratios.len() / 2] - 1.0) * 100.0,
    );
}

criterion_group!(kb, bench_recovery, report_derived);
criterion_main!(kb);
