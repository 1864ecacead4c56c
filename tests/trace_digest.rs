//! Byte-level golden digests of generated traces.
//!
//! The headline-metric goldens (`tests/golden.rs`) survive any change
//! that leaves the *statistics* alone; these digests do not. They hash
//! every exported deployment row, the raw bits of every telemetry
//! sample, and the full generation report, so a refactor of the
//! generator (indexed placement, calendar queue, cluster-group drive)
//! is provably byte-identical — or fails here with the digest that
//! changed.
//!
//! To bless an intentional generator change:
//!
//! ```text
//! CLOUDSCOPE_UPDATE_GOLDEN=1 cargo test -p cloudscope --test trace_digest
//! ```

use cloudscope::model::export::write_deployments;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::tracegen::{generate_with, GeneratedTrace};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/trace_digests.txt")
}

/// FNV-1a 64 over a byte stream: tiny, dependency-free, and any single
/// changed byte anywhere in the trace changes the digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of everything [`generate`] produces: deployment rows exactly
/// as exported, telemetry as raw IEEE-754 bits (the `{:.1}` CSV export
/// would mask sub-decimal drift), service ground truth, and the
/// generation report with both fleets' allocator counters.
pub fn trace_digest(generated: &GeneratedTrace) -> u64 {
    let mut fnv = Fnv::new();
    let mut rows = Vec::new();
    write_deployments(&generated.trace, &mut rows).expect("write to Vec cannot fail");
    fnv.update(&rows);
    for vm in generated.trace.vms() {
        if let Some(util) = generated.trace.util(vm.id) {
            fnv.update(&util.start().minutes().to_le_bytes());
            for v in util.iter() {
                fnv.update(&v.to_bits().to_le_bytes());
            }
        }
    }
    for service in &generated.services {
        fnv.update(format!("{service:?}").as_bytes());
    }
    fnv.update(format!("{:?}", generated.report).as_bytes());
    fnv.update(format!("{:?}", generated.trace.stats()).as_bytes());
    fnv.0
}

/// The pinned generation workloads. Two small seeds with telemetry (the
/// golden-metric seeds), plus a medium deployment-only run so the
/// placement/simulation path is pinned at a scale where every placement
/// policy and the churn machinery are exercised hard.
fn digest_lines() -> String {
    let mut out = String::new();
    for seed in [7u64, 1234] {
        let g = generate(&GeneratorConfig::small(seed));
        writeln!(out, "small_seed{seed},{:#018x}", trace_digest(&g)).expect("string write");
    }
    let mut cfg = GeneratorConfig::medium(7);
    cfg.telemetry = false;
    let g = generate(&cfg);
    writeln!(out, "medium_deploy_seed7,{:#018x}", trace_digest(&g)).expect("string write");
    out
}

#[test]
fn trace_digests_match_golden() {
    let actual = digest_lines();
    let path = golden_path();

    if std::env::var_os("CLOUDSCOPE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden digests");
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest file {} ({e}); run with CLOUDSCOPE_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "generated trace bytes drifted from tests/golden/trace_digests.txt.\n\
         This means the generator no longer reproduces the pre-refactor bytes.\n\
         Only bless (CLOUDSCOPE_UPDATE_GOLDEN=1) if the change is intentional."
    );
}

/// Same config must digest identically across repeated in-process runs
/// (catches any hidden global state in the generator).
#[test]
fn digest_is_stable_across_runs() {
    let a = trace_digest(&generate(&GeneratorConfig::small(42)));
    let b = trace_digest(&generate(&GeneratorConfig::small(42)));
    assert_eq!(a, b);
}

/// Worker-count invariance of the cluster-group drive: the same seed
/// must produce the identical trace digest at 1, 2, 4, and 8 workers,
/// and through the `CLOUDSCOPE_WORKERS` override that [`generate`] reads.
#[test]
fn digest_is_worker_count_invariant() {
    let cfg = GeneratorConfig::small(7);
    let base = trace_digest(&generate_with(&cfg, Parallelism::with_workers(1)));
    for workers in [2usize, 4, 8] {
        let got = trace_digest(&generate_with(&cfg, Parallelism::with_workers(workers)));
        assert_eq!(got, base, "digest drifted at {workers} workers");
    }

    // The environment override feeds Parallelism::auto() inside plain
    // generate(). Setting it mid-process is safe here precisely because
    // of the property under test: worker count changes no output byte.
    std::env::set_var("CLOUDSCOPE_WORKERS", "8");
    let via_env = trace_digest(&generate(&cfg));
    std::env::remove_var("CLOUDSCOPE_WORKERS");
    assert_eq!(via_env, base, "CLOUDSCOPE_WORKERS=8 changed the digest");
}

/// Golden digests hold across a disk round trip: a trace persisted to
/// the columnar store and read back — resident or streaming
/// out-of-core — digests to the identical value, and so does a store
/// produced by the streamed [`generate_to_store`] path.
#[test]
fn digest_survives_disk_round_trip() {
    use cloudscope::store::{TelemetryMode, WriteOptions};
    use cloudscope::tracegen::{generate_to_store, read_generated, write_generated};

    struct TempDir(PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let base = std::env::temp_dir().join(format!("cloudscope-digest-store-{}", std::process::id()));

    let cfg = GeneratorConfig::small(7);
    let par = Parallelism::with_workers(4);
    let generated = generate_with(&cfg, par);
    let expected = trace_digest(&generated);

    let written = TempDir(base.join("written"));
    write_generated(&generated, &written.0, WriteOptions::default(), &par).expect("store writes");
    for (label, mode) in [
        ("resident", TelemetryMode::Resident),
        ("out-of-core", TelemetryMode::OutOfCore { cache_chunks: 2 }),
    ] {
        let back = read_generated(&written.0, mode, &par).expect("store reads");
        assert_eq!(
            trace_digest(&back),
            expected,
            "{label} round trip changed the digest"
        );
    }

    let streamed = TempDir(base.join("streamed"));
    generate_to_store(&cfg, &streamed.0, WriteOptions::default(), par).expect("streamed write");
    let back = read_generated(
        &streamed.0,
        TelemetryMode::OutOfCore { cache_chunks: 2 },
        &par,
    )
    .expect("streamed store reads");
    assert_eq!(
        trace_digest(&back),
        expected,
        "generate_to_store changed the digest"
    );
}
