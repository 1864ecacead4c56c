//! Benchmarks for the out-of-core columnar trace store: compressed
//! writes with 1 and 8 workers, one ascending sweep of every VM's
//! telemetry, resident vs streamed from disk, and the CRC-32 rate over
//! the store's chunk files. Results merge into
//! `BENCH_store.json` at the repo root, where `scripts/bench_gates.json`
//! bounds them. The out-of-core heap claim is a test
//! (`tests/store_heap.rs`), not a bench row.

use cloudscope::model::durable::crc32;
use cloudscope::obs::counter;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::store::{TelemetryMode, WriteOptions};
use cloudscope::tracegen::{generate_with, read_generated, write_generated};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

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

/// Bytes the store in `dir` occupies on disk.
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

fn bench_store_write(c: &mut Criterion) {
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_store.json"
    ));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let g = generated();
    let mut group = c.benchmark_group("store_write");
    group.sample_size(if smoke { 3 } else { 10 });
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

    // Raw vs compressed bytes over every chunk written above (the
    // counters are cumulative, so the ratio is exact).
    let raw = counter("store.write.bytes_raw").get();
    let compressed = counter("store.write.bytes_compressed").get();
    assert!(raw > 0 && compressed > 0, "the write benches wrote chunks");
    c.report_metric("store/compression_ratio", raw as f64 / compressed as f64);
}

/// Reads a store of the benchmark trace sealed at 128 KiB chunks, not
/// the 1 MiB default, so the medium trace gets the geometry a
/// full-scale trace has under defaults: several chunks per (region,
/// day) lane.
fn bench_store_read(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let par = Parallelism::default();
    let dir = bench_dir("committed");
    let opts = WriteOptions {
        target_chunk_bytes: 128 << 10,
        ..WriteOptions::default()
    };
    write_generated(generated(), &dir, opts, &par).expect("seed store write");

    let mut group = c.benchmark_group("store_read");
    group.sample_size(if smoke { 3 } else { 10 });
    // Fully materialized read: decompress everything into memory.
    group.bench_function("resident", |b| {
        b.iter(|| {
            let back = read_generated(&dir, TelemetryMode::Resident, &par).expect("read");
            black_box(telemetry_sweep(&back.trace))
        });
    });
    // Streamed read + one ascending scan of every VM: each lane's
    // cursor walks forward once while the scan's decoder threads run
    // ahead of it, and each chunk decodes exactly once.
    group.bench_function("out_of_core_sweep", |b| {
        b.iter(|| {
            let back = read_generated(&dir, TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
                .expect("read");
            black_box(telemetry_sweep(&back.trace))
        });
    });
    group.finish();

    let sweep_ns = c
        .results()
        .iter()
        .find(|r| r.id == "store_read/out_of_core_sweep")
        .expect("sweep benchmark ran")
        .median_ns;
    c.report_metric(
        "store/out_of_core_sweep_mb_per_sec",
        dir_bytes(&dir) as f64 / 1e6 / (sweep_ns / 1e9),
    );
    c.report_metric("store/crc32_mb_per_sec", crc32_mb_per_sec(&dir, smoke));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checksum rate a read verifies chunk files at: `crc32` over every
/// chunk file of the store in `dir`, held in memory, in MB/s — the
/// median of 15 passes (3 in smoke).
fn crc32_mb_per_sec(dir: &Path, smoke: bool) -> f64 {
    let files: Vec<Vec<u8>> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "chunk"))
        .map(|p| std::fs::read(p).expect("chunk file"))
        .collect();
    let bytes: usize = files.iter().map(Vec::len).sum();
    let mut secs: Vec<f64> = (0..if smoke { 3 } else { 15 })
        .map(|_| {
            let t = Instant::now();
            let folded = files.iter().fold(0u32, |acc, f| acc ^ crc32(black_box(f)));
            black_box(folded);
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    bytes as f64 / 1e6 / secs[secs.len() / 2]
}

criterion_group!(store, bench_store_write, bench_store_read);
criterion_main!(store);
