//! Benchmarks for the online ingestion service: the medium trace's
//! telemetry replayed as hourly wire-sample batches through partitioned
//! `Ingestor`s at 1/2/4/8 workers, with an offer-path latency audit.
//! Results merge into `BENCH_ingest.json` at the repo root, where
//! `scripts/bench_gates.json` bounds the best sustained throughput and
//! the p99 offer latency.

use cloudscope::analysis::PatternClassifier;
use cloudscope::faults::WireSample;
use cloudscope::ingest::{IngestConfig, Ingestor};
use cloudscope::model::time::{MINUTES_PER_HOUR, MINUTES_PER_WEEK};
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::tracegen::generate_with;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn generated() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| generate_with(&GeneratorConfig::medium(7171), Parallelism::default()))
}

/// One worker's stream, pre-bucketed by delivery hour: the monitor
/// cadence delivers a slot's sample inside its own hour, so replaying
/// bucket `h` then advancing the watermark to the end of hour `h`
/// reproduces live arrival order without simulator overhead.
type HourBuckets = Vec<Vec<(VmId, WireSample)>>;

/// Hours a replay spans: the trace week plus enough slack for the
/// default watermark delay to seal the final slots.
fn replay_hours() -> usize {
    let delay = IngestConfig::default().watermark_delay_minutes;
    ((MINUTES_PER_WEEK + delay) / MINUTES_PER_HOUR) as usize + 1
}

/// Splits the trace's clean wire streams across `workers` partitions,
/// VM-round-robin, each pre-bucketed by delivery hour.
fn partitions(workers: usize) -> Vec<HourBuckets> {
    let g = generated();
    let hours = replay_hours();
    let mut parts: Vec<HourBuckets> = vec![vec![Vec::new(); hours]; workers];
    let mut with_util = 0usize;
    for vm in g.trace.vms() {
        let Some(util) = g.trace.util(vm.id) else {
            continue;
        };
        let buckets = &mut parts[with_util % workers];
        with_util += 1;
        for i in 0..util.len() {
            let Some(value) = util.get(i) else { continue };
            let minute = util.time_at(i).minutes();
            let hour = (minute / MINUTES_PER_HOUR) as usize;
            buckets[hour].push((vm.id, WireSample { minute, value }));
        }
    }
    parts
}

/// Total wire samples across every partition (constant per trace).
fn total_samples() -> u64 {
    static TOTAL: OnceLock<u64> = OnceLock::new();
    *TOTAL.get_or_init(|| {
        let g = generated();
        g.trace
            .vms()
            .iter()
            .filter_map(|vm| g.trace.util(vm.id))
            .map(|u| u.present_count() as u64)
            .sum()
    })
}

/// Replays one partition through a fresh `Ingestor`: offer every sample
/// of each hour, then advance the watermark past it — sealing ripe
/// slots and re-running Figure 5 classification when the week window
/// closes. Returns (applied, closes) for the sanity audit.
fn replay(buckets: &HourBuckets) -> (u64, usize) {
    let mut ingestor = Ingestor::new(IngestConfig::default(), PatternClassifier::default());
    let mut closes = 0usize;
    for (hour, bucket) in buckets.iter().enumerate() {
        for &(vm, sample) in bucket {
            ingestor.offer(vm, sample);
        }
        let now = SimTime::from_minutes((hour as i64 + 1) * MINUTES_PER_HOUR);
        closes += ingestor.advance_watermark(now).len();
    }
    let end = SimTime::from_minutes(replay_hours() as i64 * MINUTES_PER_HOUR);
    closes += ingestor.drain(end).len();
    let report = ingestor.report();
    assert_eq!(report.dropped_late, 0, "clean in-order replay never drops");
    (report.samples_applied, closes)
}

/// Runs every partition on its own thread; returns when all drain.
fn run_workers(parts: &[HourBuckets]) {
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || black_box(replay(part)));
        }
    });
}

// --- benchmarks --------------------------------------------------------

fn bench_ingest_stream(c: &mut Criterion) {
    // First group to run: point the harness at the repo-root JSON file.
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_ingest.json"
    ));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let samples = if smoke { 3 } else { 10 };

    let mut group = c.benchmark_group("ingest_stream");
    group.sample_size(samples);
    for workers in WORKER_COUNTS {
        let parts = partitions(workers);
        // One audited replay before timing: the full stream must apply
        // and every worker must close its week window.
        let (applied, closes): (u64, usize) = parts
            .iter()
            .map(replay)
            .fold((0, 0), |(a, c), (pa, pc)| (a + pa, c + pc));
        assert_eq!(applied, total_samples(), "every clean sample applies");
        assert!(closes >= workers, "each worker closes its week window");
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| run_workers(&parts))
        });
    }
    group.finish();
}

/// Not a timing benchmark: derives sustained samples/sec for every
/// worker count from the medians above, and measures the p99 per-offer
/// latency on a live single-worker replay.
fn report_derived(c: &mut Criterion) {
    let total = total_samples() as f64;
    for w in WORKER_COUNTS {
        let ns = c
            .results()
            .iter()
            .find(|r| r.id == format!("ingest_stream/workers/{w}"))
            .expect("replay benchmark ran")
            .median_ns;
        c.report_metric(format!("ingest/samples_per_sec/{w}"), total / (ns / 1e9));
    }

    // p99 offer latency, measured on a live replay of worker 0's
    // single-partition stream: every offer individually timed. The
    // claim is about tail behavior — one slow offer stalls a delivery
    // thread — not mean throughput.
    let parts = partitions(1);
    let mut ingestor = Ingestor::new(IngestConfig::default(), PatternClassifier::default());
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(total as usize);
    for (hour, bucket) in parts[0].iter().enumerate() {
        for &(vm, sample) in bucket {
            let t0 = Instant::now();
            ingestor.offer(vm, sample);
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let now = SimTime::from_minutes((hour as i64 + 1) * MINUTES_PER_HOUR);
        black_box(ingestor.advance_watermark(now).len());
    }
    black_box(ingestor.drain(SimTime::from_minutes(
        replay_hours() as i64 * MINUTES_PER_HOUR,
    )));
    assert!(!latencies_ns.is_empty());
    latencies_ns.sort_unstable();
    c.report_metric(
        "ingest/p99_offer_ns",
        latencies_ns[latencies_ns.len() * 99 / 100] as f64,
    );
}

criterion_group!(ingest, bench_ingest_stream, report_derived);
criterion_main!(ingest);
