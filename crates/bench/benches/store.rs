//! Benchmarks for the out-of-core columnar trace store: parallel
//! compressed writes, resident vs streamed reads, and a peak-live-heap
//! acceptance gate proving an out-of-core analysis pass stays under a
//! memory budget a fully-materialized trace exceeds. Results merge into
//! `BENCH_store.json` at the repo root.

use cloudscope::obs::counter;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::store::{codec, TelemetryMode, WriteOptions};
use cloudscope::tracegen::{generate_with, read_generated, write_generated};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// --- peak-live-heap allocator ------------------------------------------

/// Tracks live heap bytes and their high-water mark. Unlike an RSS
/// probe this is deterministic, cross-platform, and immune to the
/// allocator's reluctance to return pages to the OS — exactly the
/// number the out-of-core budget argues about.
struct PeakAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its value plus the high-water mark of heap
/// bytes allocated *above* the live baseline at entry.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(base, Ordering::SeqCst);
    let value = f();
    (
        value,
        PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(base),
    )
}

// --- fixtures ----------------------------------------------------------

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cloudscope-bench-store-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generated() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| generate_with(&GeneratorConfig::medium(4242), Parallelism::default()))
}

/// A committed store of the benchmark trace, written once and reused by
/// every read benchmark and the acceptance gate. Chunks are sealed at
/// 128 KiB instead of the 1 MiB default so the medium trace gets the
/// same geometry a full-scale trace has under defaults — several chunks
/// per (region, day) lane. With one-chunk lanes the reader's one
/// decoded chunk per lane would be the entire store and the
/// out-of-core peak-heap gate below would measure nothing.
fn committed() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = bench_dir("committed");
        let opts = WriteOptions {
            target_chunk_bytes: 128 << 10,
            ..WriteOptions::default()
        };
        write_generated(generated(), &dir, opts, &Parallelism::default())
            .expect("seed store write");
        dir
    })
}

/// Bytes the committed store occupies on disk.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum()
}

/// Pulls every telemetry series through one ascending `scan`, the way
/// every pipeline stage reads: a lazy trace streams its full column
/// store and a resident one walks memory.
fn telemetry_sweep(trace: &Trace) -> usize {
    let ids: Vec<VmId> = trace.vms().iter().map(|vm| vm.id).collect();
    let mut present = 0;
    trace.scan(&ids, &mut |_, util| present += util.present_count());
    present
}

// --- benchmarks --------------------------------------------------------

fn bench_store_write(c: &mut Criterion) {
    // First group to run: point the harness at the repo-root JSON file.
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_store.json"
    ));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let samples = if smoke { 3 } else { 10 };

    let g = generated();
    let mut group = c.benchmark_group("store_write");
    group.sample_size(samples);
    for workers in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                let par = Parallelism::with_workers(workers);
                let dir = bench_dir(&format!("write-{workers}"));
                b.iter(|| {
                    write_generated(black_box(g), &dir, WriteOptions::default(), &par)
                        .expect("bench write");
                });
                let _ = std::fs::remove_dir_all(&dir);
            },
        );
    }
    group.finish();
}

/// One sub-block of stored telemetry bytes: the benchmark trace's
/// series back to back in id order, as a samples column holds them.
fn telemetry_block() -> Vec<u8> {
    const LEN: usize = 128 << 10;
    let trace = &generated().trace;
    let mut block = Vec::with_capacity(LEN + 2016);
    for util in trace.vms().iter().filter_map(|vm| trace.util(vm.id)) {
        block.extend_from_slice(util.as_quantized());
        if block.len() >= LEN {
            break;
        }
    }
    block.truncate(LEN);
    block
}

/// The two byte kernels under every chunk, through the public codec
/// API, on the bytes they meet in a store.
fn bench_store_codec(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let block = telemetry_block();
    let packed = codec::compress(&block, 2);
    let mut group = c.benchmark_group("store_codec");
    group.sample_size(if smoke { 10 } else { 50 });
    group.bench_function("compress_l2/telemetry_128KiB", |b| {
        b.iter(|| codec::compress(black_box(&block), 2));
    });
    group.bench_function("decompress/telemetry_128KiB", |b| {
        b.iter(|| codec::decompress(black_box(&packed), block.len()).expect("clean block"));
    });
    group.finish();
}

fn bench_store_read(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let samples = if smoke { 3 } else { 10 };
    let dir = committed().clone();
    let par = Parallelism::default();

    let mut group = c.benchmark_group("store_read");
    group.sample_size(samples);
    // Fully-materialized read: decompress everything into memory.
    group.bench_function("resident", |b| {
        b.iter(|| {
            let back = read_generated(&dir, TelemetryMode::Resident, &par).expect("read");
            black_box(telemetry_sweep(&back.trace))
        });
    });
    // Streamed read + one ascending scan of every VM: each (region,
    // day) lane's cursor walks forward once while the scan's decoder
    // threads run ahead of it, and each chunk decodes exactly once.
    group.bench_function("out_of_core_sweep", |b| {
        b.iter(|| {
            let back = read_generated(&dir, TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
                .expect("read");
            black_box(telemetry_sweep(&back.trace))
        });
    });
    // Metadata-only projection: records and sidecars, telemetry chunks
    // never touched — the predicate/projection pushdown fast path.
    group.bench_function("metadata_only", |b| {
        b.iter(|| {
            let back = read_generated(&dir, TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
                .expect("read");
            let stats = back.trace.stats();
            black_box(stats.private_vms + stats.public_vms)
        });
    });
    group.finish();
}

/// Not a timing benchmark: derives the compression/throughput headline
/// numbers from the results above and gates the out-of-core memory
/// claim — a full analysis pass streaming from disk must fit a heap
/// budget the fully-materialized trace provably exceeds.
fn verify_acceptance(c: &mut Criterion) {
    let median = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("missing bench result {id}"))
            .median_ns
    };
    let write_serial_ns = median("store_write/parallel/1");
    let write_median_ns = median("store_write/parallel/8");
    let resident_median_ns = median("store_read/resident");
    let sweep_median_ns = median("store_read/out_of_core_sweep");

    // Overlap gate: the out-of-core sweep (per-lane cursor + decoder
    // threads ahead of the scan + parallel block decode) must land
    // within 1.4x of the fully-resident sweep over the same store.
    let ooc_over_resident = sweep_median_ns / resident_median_ns;
    c.report_metric("store/out_of_core_over_resident", ooc_over_resident);
    println!(
        "store sweep overlap: out-of-core {:.1} ms vs resident {:.1} ms ({ooc_over_resident:.2}x)",
        sweep_median_ns / 1e6,
        resident_median_ns / 1e6,
    );
    assert!(
        ooc_over_resident <= 1.4,
        "scanned out-of-core sweep must stay within 1.4x of resident, got {ooc_over_resident:.2}x"
    );

    // Write scaling: the per-(chunk, column) compression fan-out must
    // actually use extra workers. On a multi-core box 8 workers must
    // beat 1; a starved CI box can't show a speedup, so there the gate
    // only bounds the parallel overhead.
    let write_scaling = write_serial_ns / write_median_ns;
    c.report_metric("store/write_scaling_1_to_8", write_scaling);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "store write scaling: 1 worker {:.1} ms, 8 workers {:.1} ms ({write_scaling:.2}x on {cores} cores)",
        write_serial_ns / 1e6,
        write_median_ns / 1e6,
    );
    if cores >= 8 {
        assert!(
            write_scaling > 1.15,
            "8 write workers on {cores} cores must beat 1 measurably, got {write_scaling:.2}x"
        );
    } else {
        assert!(
            write_scaling > 0.75,
            "8 write workers on {cores} cores must not cost more than 1.33x serial, \
             got {write_scaling:.2}x"
        );
    }

    // Compression: raw vs compressed bytes over every chunk written by
    // this process (the counters are cumulative, the ratio is exact).
    let raw = counter("store.write.bytes_raw").get();
    let compressed = counter("store.write.bytes_compressed").get();
    assert!(raw > 0 && compressed > 0, "write benches ran first");
    let ratio = raw as f64 / compressed as f64;
    c.report_metric("store/compression_ratio", ratio);
    println!("store compression: {raw} raw -> {compressed} compressed ({ratio:.2}x)");
    assert!(
        ratio > 1.0,
        "the block codec must beat raw storage on telemetry, got {ratio:.2}x"
    );

    // Throughput headline numbers, from the on-disk footprint of the
    // committed store and the measured medians.
    let disk = dir_bytes(committed()) as f64;
    let write_mb_s = disk / 1e6 / (write_median_ns / 1e9);
    let sweep_mb_s = disk / 1e6 / (sweep_median_ns / 1e9);
    c.report_metric("store/write_mb_per_sec", write_mb_s);
    c.report_metric("store/out_of_core_sweep_mb_per_sec", sweep_mb_s);
    println!("store throughput: write {write_mb_s:.0} MB/s, streamed sweep {sweep_mb_s:.0} MB/s");

    // Peak-heap gate. The same full characterization pass runs twice
    // from the same committed store: once fully materialized, once
    // scanning it with one decoded chunk per lane. The out-of-core pass
    // must stay under a budget set midway below the resident peak — if
    // chunking, the cursor or a gathered batch ever regress into
    // materializing the column store, this gate trips before any
    // figure output changes.
    let dir = committed().clone();
    let par = Parallelism::default();
    let analyze = |mode: TelemetryMode| {
        let back = read_generated(&dir, mode, &par).expect("read for analysis");
        let report = CharacterizationReport::analyze(&back.trace, &ReportConfig::default())
            .expect("analysis");
        black_box(report.insight_verdicts().len())
    };
    let (_, resident_peak) = peak_during(|| analyze(TelemetryMode::Resident));
    let (_, ooc_peak) = peak_during(|| analyze(TelemetryMode::OutOfCore { cache_chunks: 0 }));
    let budget = resident_peak * 3 / 4;
    c.report_metric("store/peak_heap_resident_mb", resident_peak as f64 / 1e6);
    c.report_metric("store/peak_heap_out_of_core_mb", ooc_peak as f64 / 1e6);
    c.report_metric("store/peak_heap_budget_mb", budget as f64 / 1e6);
    println!(
        "peak live heap during analysis: resident {:.1} MB, out-of-core {:.1} MB (budget {:.1} MB)",
        resident_peak as f64 / 1e6,
        ooc_peak as f64 / 1e6,
        budget as f64 / 1e6,
    );
    assert!(
        ooc_peak < budget,
        "out-of-core analysis peaked at {ooc_peak} B, over the {budget} B budget \
         (resident peak {resident_peak} B)"
    );

    let _ = std::fs::remove_dir_all(committed());
}

criterion_group!(
    store,
    bench_store_write,
    bench_store_codec,
    bench_store_read,
    verify_acceptance
);
criterion_main!(store);
