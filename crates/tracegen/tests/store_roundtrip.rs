//! Generator ↔ store integration: the streamed [`generate_to_store`]
//! path must produce byte-identical stores to persisting the in-memory
//! generation result, and a store must restore the full
//! [`GeneratedTrace`] — trace, service ground truth, and report — in
//! both telemetry modes.

use cloudscope_par::Parallelism;
use cloudscope_store::{store_exists, TelemetryMode, TraceReader, TraceWriter, WriteOptions};
use cloudscope_tracegen::store_io::{
    decode_report, decode_services, encode_report, encode_services,
};
use cloudscope_tracegen::{
    generate_to_store, generate_with, read_generated, write_generated, GeneratorConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "cloudscope-tracegen-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A shrunk `small` configuration that still exercises multiple
/// regions, both clouds, and several chunks per store, but generates
/// in well under a second even in debug builds.
fn tiny(seed: u64) -> GeneratorConfig {
    let mut cfg = GeneratorConfig::small(seed);
    cfg.topology.regions.truncate(2);
    cfg.private.subscriptions = 8;
    cfg.public.subscriptions = 60;
    cfg.private.arrival.base_rate_per_hour = 0.5;
    cfg.public.arrival.base_rate_per_hour = 2.0;
    cfg
}

fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

#[test]
fn streamed_generation_matches_in_memory_write_byte_for_byte() {
    let config = tiny(4242);
    let par = Parallelism::with_workers(4);
    let opts = WriteOptions {
        target_chunk_rows: 128,
        target_chunk_bytes: 32 * 1024,
        level: 2,
    };

    let generated = generate_with(&config, par);
    let via_memory = TempDir::new("via-memory");
    write_generated(&generated, via_memory.path(), opts, &par).unwrap();

    let streamed = TempDir::new("streamed");
    let report = generate_to_store(&config, streamed.path(), opts, par).unwrap();
    assert_eq!(report, generated.report, "streamed report");

    assert_eq!(
        dir_snapshot(streamed.path()),
        dir_snapshot(via_memory.path()),
        "streamed store bytes differ from the in-memory write"
    );
}

/// A `generate_to_store` killed mid-rewrite is a writer dropped after
/// its first flush (the store crash matrix's state). The directory then
/// holds no store, and generating again into it lays down every file a
/// fresh directory gets, byte for byte.
#[test]
fn generate_to_store_over_an_interrupted_rewrite_matches_a_fresh_store() {
    let par = Parallelism::with_workers(2);
    let opts = WriteOptions {
        target_chunk_rows: 16,
        target_chunk_bytes: 4 * 1024,
        level: 1,
    };
    let dir = TempDir::new("rewrite");
    generate_to_store(&tiny(11), dir.path(), opts, par).unwrap();

    let next = tiny(12);
    let interrupted = generate_with(&next, par);
    {
        let mut w = TraceWriter::create(dir.path(), opts, &par).unwrap();
        interrupted
            .trace
            .try_for_each_vm(|vm, util| w.append_vm(vm, util.as_ref()))
            .unwrap();
    }
    assert!(!store_exists(dir.path()), "the old store must be retired");

    generate_to_store(&next, dir.path(), opts, par).unwrap();
    let fresh = TempDir::new("rewrite-fresh");
    generate_to_store(&next, fresh.path(), opts, par).unwrap();
    let reused = dir_snapshot(dir.path());
    for (name, bytes) in dir_snapshot(fresh.path()) {
        assert!(
            reused.iter().any(|(n, b)| *n == name && *b == bytes),
            "{name} differs from a fresh store's"
        );
    }
}

#[test]
fn read_generated_restores_everything_in_both_modes() {
    let config = tiny(77);
    let par = Parallelism::with_workers(2);
    let generated = generate_with(&config, par);
    let dir = TempDir::new("restore");
    write_generated(&generated, dir.path(), WriteOptions::default(), &par).unwrap();

    for mode in [
        TelemetryMode::Resident,
        TelemetryMode::OutOfCore { cache_chunks: 2 },
    ] {
        let back = read_generated(dir.path(), mode, &par).unwrap();
        assert_eq!(back.services, generated.services, "{mode:?} services");
        assert_eq!(back.report, generated.report, "{mode:?} report");
        assert_eq!(back.trace.vms(), generated.trace.vms(), "{mode:?} records");
        assert_eq!(
            back.trace.stats(),
            generated.trace.stats(),
            "{mode:?} stats"
        );
        for vm in generated.trace.vms() {
            assert_eq!(
                back.trace.util(vm.id),
                generated.trace.util(vm.id),
                "{mode:?} telemetry of {}",
                vm.id
            );
        }
    }

    let trace_only = TraceReader::open(dir.path())
        .unwrap()
        .read_trace(TelemetryMode::OutOfCore { cache_chunks: 2 }, &par)
        .unwrap();
    assert!(trace_only.telemetry_is_lazy());
    assert_eq!(trace_only.stats(), generated.trace.stats());
}

#[test]
fn sidecar_blobs_roundtrip_and_reject_damage() {
    let config = tiny(5);
    let generated = generate_with(&config, Parallelism::with_workers(2));
    let path = Path::new("manifest.csm");

    let svc_bytes = encode_services(&generated.services);
    assert_eq!(
        decode_services(path, &svc_bytes).unwrap(),
        generated.services
    );
    let rep_bytes = encode_report(&generated.report);
    assert_eq!(decode_report(path, &rep_bytes).unwrap(), generated.report);

    // Truncations at every offset must error, never panic or misread.
    for cut in 0..svc_bytes.len() {
        assert!(
            decode_services(path, &svc_bytes[..cut]).is_err(),
            "services blob truncated to {cut} decoded"
        );
    }
    for cut in 0..rep_bytes.len() {
        assert!(
            decode_report(path, &rep_bytes[..cut]).is_err(),
            "report blob truncated to {cut} decoded"
        );
    }
    // Trailing garbage is loud too.
    let mut long = rep_bytes.clone();
    long.push(9);
    assert!(decode_report(path, &long).is_err());
}
