//! Benchmarks for the trace generator: an allocator-level place/release
//! microbench on the free-capacity index, and end-to-end generation at
//! 1/2/4/8 workers on the medium and small configs. Results merge into
//! `BENCH_tracegen.json` at the repo root.
//!
//! A `phases` pass re-runs generation under a scoped metrics registry
//! and publishes each phase's wall-clock (`tracegen_phase/<phase>/<w>`)
//! next to the end-to-end medians, so a flat 1→8 curve is diagnosable
//! from `BENCH_tracegen.json` alone: the phase that fails to shrink is
//! the ceiling.
//!
//! The final `verify` "benchmark" asserts the scaling gate: 8 workers
//! must scale ≥ 2.5x over 1 worker on the medium config when the host
//! actually has ≥ 8 hardware threads (on smaller hosts the gate degrades
//! to a bounded-overhead check, loudly). Regressions against the parent
//! commit are the end-to-end benchmark's job (`benchmark/`,
//! `batch_resident`); byte-identity is locked by the golden trace
//! digests and the generator's in-crate reference oracle.

use cloudscope::cluster::{ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule};
use cloudscope::obs::{scoped, Registry};
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::tracegen::generate_with;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

// --- allocator microbench ----------------------------------------------

/// Cluster shape for the placement microbench: one medium-config cluster
/// (3 racks x 40 nodes).
fn bench_allocator(policy: PlacementPolicy) -> ClusterAllocator {
    let mut b = Topology::builder();
    let r = b.add_region("bench", 0, "US");
    let d = b.add_datacenter(r);
    let c = b.add_cluster(d, CloudKind::Private, NodeSku::new(48, 384.0), 3, 40);
    let topo = b.build();
    let mut alloc = ClusterAllocator::new(
        topo.cluster(c).expect("cluster just added"),
        policy,
        SpreadingRule {
            max_same_service_per_rack: Some(64),
        },
    );
    // Prefill to ~70% so the steady-state churn below runs against a
    // realistically fragmented cluster, not an empty one.
    for i in 0..1000u64 {
        let placed = alloc.place(PlacementRequest {
            vm: VmId::new(i),
            size: VmSize::new(4, 32.0),
            service: ServiceId::new((i % 24) as u32),
            priority: if i.is_multiple_of(5) {
                Priority::Spot
            } else {
                Priority::OnDemand
            },
        });
        assert!(placed.is_ok(), "prefill must fit");
    }
    alloc
}

const CHURN_PER_ITER: u64 = 256;

/// One steady-state iteration: place a mixed batch, then release it, so
/// every iteration sees the same occupancy and the numbers compare.
fn churn_iter(alloc: &mut ClusterAllocator) {
    for i in 0..CHURN_PER_ITER {
        let cores = [2u32, 4, 8][(i % 3) as usize];
        let placed = alloc.place(PlacementRequest {
            vm: VmId::new(1_000_000 + i),
            size: VmSize::new(cores, f64::from(cores) * 8.0),
            service: ServiceId::new((i % 24) as u32),
            priority: Priority::OnDemand,
        });
        assert!(placed.is_ok(), "churn batch must fit");
    }
    for i in 0..CHURN_PER_ITER {
        alloc
            .release(VmId::new(1_000_000 + i))
            .expect("placed above");
    }
}

fn bench_place(c: &mut Criterion) {
    // First group to run: point the harness at the repo-root JSON file.
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tracegen.json"
    ));
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();

    let mut group = c.benchmark_group("tracegen_place");
    group.sample_size(if smoke { 3 } else { 20 });
    for policy in [
        PlacementPolicy::BestFit,
        PlacementPolicy::FirstFit,
        PlacementPolicy::WorstFit,
    ] {
        let mut indexed = bench_allocator(policy);
        group.bench_function(&format!("indexed/{policy:?}"), |b| {
            b.iter(|| churn_iter(black_box(&mut indexed)));
        });
    }
    group.finish();
}

// --- end-to-end generation ---------------------------------------------

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The scaling-gate workload: the medium subscription load on
/// full-scale clusters (25 racks x 40 nodes = 1000 nodes per cluster;
/// the test preset's 120-node clusters are deliberately small).
/// Telemetry is off so the measured cost is placement + simulation +
/// assembly.
fn medium_deploy_config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::medium(7);
    cfg.topology.racks_per_cluster = 25;
    cfg.topology.nodes_per_rack = 40;
    cfg.telemetry = false;
    cfg
}

fn bench_e2e_medium(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let cfg = medium_deploy_config();
    let mut group = c.benchmark_group("tracegen_e2e");
    group.sample_size(if smoke { 3 } else { 10 });
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::new("parallel", workers), &workers, |b, &w| {
            b.iter(|| generate_with(black_box(&cfg), Parallelism::with_workers(w)));
        });
    }
    group.finish();
}

fn bench_e2e_small(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let cfg = GeneratorConfig::small(7);
    let mut group = c.benchmark_group("tracegen_small");
    group.sample_size(if smoke { 3 } else { 10 });
    for workers in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::new("parallel", workers), &workers, |b, &w| {
            b.iter(|| generate_with(black_box(&cfg), Parallelism::with_workers(w)));
        });
    }
    group.finish();
}

// --- per-phase breakdown -----------------------------------------------

/// The generation phases whose last-run wall-clock gauges the generator
/// exports (`tracegen.generate.phase_<name>_ns`).
const PHASES: [&str; 5] = ["prepare", "placement", "merge", "telemetry", "assemble"];

/// Publishes each phase's median wall-clock per worker count as
/// `tracegen_phase/<phase>/<workers>` — not a throughput benchmark but a
/// diagnosis channel: when the e2e curve above is flat, these rows name
/// the phase that refused to shrink (a serial residue, per Amdahl).
fn bench_phases(c: &mut Criterion) {
    let smoke = std::env::var_os("CLOUDSCOPE_BENCH_SMOKE").is_some();
    let runs = if smoke { 1 } else { 5 };
    let cfg = medium_deploy_config();
    for workers in WORKER_COUNTS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); PHASES.len()];
        for _ in 0..runs {
            let registry = Arc::new(Registry::new());
            let snapshot = scoped(&registry, || {
                black_box(generate_with(
                    black_box(&cfg),
                    Parallelism::with_workers(workers),
                ));
                cloudscope::obs::snapshot()
            });
            for (phase, into) in PHASES.iter().zip(&mut samples) {
                into.push(
                    snapshot
                        .gauge(&format!("tracegen.generate.phase_{phase}_ns"))
                        .unwrap_or_else(|| panic!("phase gauge {phase} missing")),
                );
            }
        }
        for (phase, mut values) in PHASES.iter().zip(samples) {
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite gauge"));
            c.report_metric(
                format!("tracegen_phase/{phase}/{workers}"),
                values[values.len() / 2],
            );
        }
    }
}

/// Not a timing benchmark: checks the scaling gate against the results
/// measured above and fails the bench run (panics) on regression.
fn verify_acceptance(c: &mut Criterion) {
    let median = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("missing bench result {id}"))
            .median_ns
    };

    // 8 workers must actually scale over 1 worker on the medium config.
    // Wall-clock speedup needs hardware to run on, so the assertion is
    // conditioned on the host: with fewer than 8 hardware threads the
    // gate degrades — loudly — to a bounded-overhead check (8
    // oversubscribed workers may not run faster than 1, but the
    // partition/merge machinery must not make them meaningfully slower
    // either).
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let scaling = median("tracegen_e2e/parallel/1") / median("tracegen_e2e/parallel/8");
    println!("medium generation scaling, 1 -> 8 workers: {scaling:.2}x (host has {cores} hardware threads)");
    if cores >= 8 {
        assert!(
            scaling >= 2.5,
            "8 workers must generate the medium trace >= 2.5x faster than 1 worker \
             on an >= 8-thread host, got {scaling:.2}x"
        );
    } else {
        println!(
            "SKIPPING the >= 2.5x scaling assertion: host exposes only {cores} hardware \
             thread(s), so parallel wall-clock speedup is physically unobservable here; \
             asserting bounded overhead instead"
        );
        assert!(
            scaling >= 0.75,
            "8 oversubscribed workers on a {cores}-thread host must stay within 33% of \
             the 1-worker wall clock, got {scaling:.2}x"
        );
    }
}

criterion_group!(
    tracegen,
    bench_place,
    bench_e2e_medium,
    bench_e2e_small,
    bench_phases,
    verify_acceptance
);
criterion_main!(tracegen);
