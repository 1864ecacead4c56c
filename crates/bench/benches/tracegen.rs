//! Benchmark for the trace generator: end-to-end generation of the
//! medium subscription load on full-scale clusters with 1 and 8
//! workers. Results merge into `BENCH_tracegen.json` at the repo root,
//! where `scripts/bench_gates.json` bounds the partition/merge overhead
//! of 8 workers. Regressions against the parent commit are the
//! end-to-end benchmark's job (`benchmark/`, `batch_resident`);
//! byte-identity is locked by the golden trace digests and the
//! generator's in-crate reference oracle.

use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::tracegen::generate_with;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The medium subscription load on full-scale clusters (25 racks x 40
/// nodes = 1000 nodes per cluster; the test preset's 120-node clusters
/// are deliberately small). Telemetry is off so the measured cost is
/// placement + simulation + assembly.
fn medium_deploy_config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::medium(7);
    cfg.topology.racks_per_cluster = 25;
    cfg.topology.nodes_per_rack = 40;
    cfg.telemetry = false;
    cfg
}

fn bench_e2e_medium(c: &mut Criterion) {
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tracegen.json"
    ));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let cfg = medium_deploy_config();
    let mut group = c.benchmark_group("tracegen_e2e");
    group.sample_size(if smoke { 3 } else { 10 });
    for workers in [1usize, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", workers), &workers, |b, &w| {
            b.iter(|| generate_with(black_box(&cfg), Parallelism::with_workers(w)));
        });
    }
    group.finish();
}

criterion_group!(tracegen, bench_e2e_medium);
criterion_main!(tracegen);
