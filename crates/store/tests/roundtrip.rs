//! Round-trip property suite: arbitrary traces written with random
//! chunk sizes and writer counts must decode
//! bit-identically — resident and out-of-core alike — and the store's
//! byte content must not depend on the worker count.

mod common;

use cloudscope_model::ids::VmId;
use cloudscope_model::trace::TelemetrySource;
use cloudscope_par::Parallelism;
use cloudscope_store::{
    store_exists, write_trace, ChunkKind, ScanFilter, StoreError, TelemetryMode, TraceReader,
    WriteOptions,
};
use common::{assert_traces_equal, dir_snapshot, trace_from_seeds, TempDir};
use proptest::prelude::*;

fn options(chunk_rows: u32, chunk_kib: usize) -> WriteOptions {
    WriteOptions {
        target_chunk_rows: chunk_rows,
        target_chunk_bytes: chunk_kib * 1024,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: any trace, any chunk geometry, any
    /// worker count — the trace read back from
    /// disk is observationally identical in both telemetry modes.
    #[test]
    fn arbitrary_traces_roundtrip_bit_identically(
        seeds in proptest::collection::vec(any::<u64>(), 1..80),
        chunk_rows in 1u32..64,
        chunk_kib in 1usize..64,
        workers in 1usize..9,
    ) {
        let trace = trace_from_seeds(&seeds);
        let dir = TempDir::new("roundtrip");
        let par = Parallelism::with_workers(workers);
        write_trace(&trace, dir.path(), options(chunk_rows, chunk_kib), &par).unwrap();
        prop_assert!(store_exists(dir.path()));

        let reader = TraceReader::open(dir.path()).unwrap();
        let resident = reader.read_trace(TelemetryMode::Resident, &par).unwrap();
        prop_assert_eq!(resident.vms().len(), seeds.len());
        assert_traces_equal(&trace, &resident);
        prop_assert!(!resident.telemetry_is_lazy());

        let lazy = reader
            .read_trace(TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
            .unwrap();
        prop_assert!(lazy.telemetry_is_lazy());
        assert_traces_equal(&trace, &lazy);
    }

    /// The store's on-disk bytes are a pure function of the data and
    /// the options: worker count must not change a single byte.
    #[test]
    fn store_bytes_do_not_depend_on_worker_count(
        seeds in proptest::collection::vec(any::<u64>(), 1..60),
        chunk_rows in 1u32..32,
        chunk_kib in 1usize..32,
    ) {
        let trace = trace_from_seeds(&seeds);
        let baseline = TempDir::new("det-base");
        write_trace(
            &trace,
            baseline.path(),
            options(chunk_rows, chunk_kib),
            &Parallelism::with_workers(1),
        )
        .unwrap();
        let expected = dir_snapshot(baseline.path());
        prop_assert!(!expected.is_empty());
        for workers in [2usize, 8] {
            let dir = TempDir::new("det-par");
            write_trace(
                &trace,
                dir.path(),
                options(chunk_rows, chunk_kib),
                &Parallelism::with_workers(workers),
            )
            .unwrap();
            prop_assert_eq!(&dir_snapshot(dir.path()), &expected, "workers = {}", workers);
        }
    }

    /// The scan contract: for any ascending subset of ids, any chunk
    /// geometry (one to a handful of chunks per lane) and any worker
    /// count, `scan` delivers exactly the series `load` returns, in
    /// ascending order — and fully decodes no chunk that holds none of
    /// the ids, and none twice.
    #[test]
    fn scan_yields_exactly_what_load_yields_and_decodes_no_more(
        seeds in proptest::collection::vec(any::<u64>(), 1..120),
        picks in proptest::collection::vec(any::<bool>(), 120),
        chunk_kib in 1usize..9,
        workers in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let trace = trace_from_seeds(&seeds);
        let dir = TempDir::new("scan");
        let par = Parallelism::with_workers(workers);
        write_trace(&trace, dir.path(), options(4096, chunk_kib), &par).unwrap();
        let ids: Vec<VmId> = trace
            .vms()
            .iter()
            .map(|vm| vm.id)
            .filter(|id| picks[id.as_usize()])
            .collect();

        // Chunks holding a run of at least one picked id.
        let reader = TraceReader::open(dir.path()).unwrap();
        let mut intersecting = 0u64;
        for entry in reader.chunks(ScanFilter::all().kind(ChunkKind::Telemetry)) {
            let chunk_ids = reader.read_chunk_ids(entry).unwrap();
            intersecting += u64::from(chunk_ids.iter().any(|id| ids.binary_search(id).is_ok()));
        }

        let registry = std::sync::Arc::new(cloudscope_obs::Registry::new());
        let scanned = cloudscope_obs::scoped(&registry, || {
            let telemetry = common::open_telemetry(dir.path(), par);
            let mut scanned = Vec::new();
            telemetry.scan(&ids, &mut |id, series| scanned.push((id, series)));
            scanned
        });
        let expected: Vec<_> = ids
            .iter()
            .filter_map(|&id| Some((id, trace.util(id)?)))
            .collect();
        prop_assert_eq!(&scanned, &expected);

        let loader = common::open_telemetry(dir.path(), par);
        for (id, series) in scanned {
            prop_assert_eq!(loader.try_load(id).unwrap(), Some(series));
        }

        // Full decodes, by the identity the end-to-end benchmark uses:
        // demand misses no readahead absorbed, plus every readahead.
        let snap = registry.snapshot();
        let counter = |name| snap.counter(name).unwrap_or(0);
        let read_ahead = snap.histogram("store.prefetch.decode_ns").map_or(0, |h| h.count);
        let decodes = counter("store.cache.misses") - counter("store.prefetch.hits") + read_ahead;
        prop_assert!(
            decodes <= intersecting,
            "{} decodes for {} chunks holding a picked id", decodes, intersecting
        );
        prop_assert_eq!(counter("store.read.series_loaded"), expected.len() as u64);
    }

    /// Kind pushdown: a metadata sweep returns exactly the trace's
    /// records and reads only the metadata chunks, whatever the layout.
    #[test]
    fn metadata_pushdown_agrees_with_a_full_read(
        seeds in proptest::collection::vec(any::<u64>(), 1..60),
        chunk_rows in 1u32..16,
    ) {
        let trace = trace_from_seeds(&seeds);
        let dir = TempDir::new("pushdown");
        let par = Parallelism::with_workers(2);
        write_trace(&trace, dir.path(), options(chunk_rows, 4), &par).unwrap();
        let reader = TraceReader::open(dir.path()).unwrap();

        let registry = std::sync::Arc::new(cloudscope_obs::Registry::new());
        let records = cloudscope_obs::scoped(&registry, || {
            reader.read_vm_records(ScanFilter::all(), &par).unwrap()
        });
        prop_assert_eq!(&records[..], trace.vms());
        let meta_chunks = reader
            .chunks(ScanFilter::all().kind(ChunkKind::VmMeta))
            .count() as u64;
        prop_assert_eq!(
            registry.snapshot().counter("store.read.chunks").unwrap_or(0),
            meta_chunks
        );
    }
}

/// One fixed mid-size trace exercised without proptest so the suite
/// keeps a deterministic smoke test that fails with readable output.
#[test]
fn fixed_trace_roundtrip_smoke() {
    let seeds: Vec<u64> = (0..200u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 7)
        .collect();
    let trace = trace_from_seeds(&seeds);
    let dir = TempDir::new("smoke");
    let par = Parallelism::with_workers(4);
    write_trace(&trace, dir.path(), WriteOptions::default(), &par).unwrap();
    let reader = TraceReader::open(dir.path()).unwrap();
    let back = reader.read_trace(TelemetryMode::Resident, &par).unwrap();
    assert_traces_equal(&trace, &back);

    // The manifest names every chunk and the blobs carry the model.
    assert!(reader
        .chunks(ScanFilter::all().kind(ChunkKind::VmMeta))
        .next()
        .is_some());
    assert!(reader
        .chunks(ScanFilter::all().kind(ChunkKind::Telemetry))
        .next()
        .is_some());
    assert!(reader.read_blob("topology").is_ok());
    assert!(reader.read_blob("subscriptions").is_ok());
    assert!(reader.read_blob("nope").is_err());
}

/// A region string longer than a stored string's 16-bit length is
/// refused with an error naming the region before anything is written
/// (it used to panic in the topology encoder).
#[test]
fn oversized_region_string_is_refused_before_any_write() {
    use cloudscope_model::topology::Topology;
    use cloudscope_model::trace::Trace;

    let long = "x".repeat(70_000);
    for (name, geo) in [(long.as_str(), "US"), ("us-east", long.as_str())] {
        let mut b = Topology::builder();
        b.add_region("us-west", -8, "US");
        b.add_region(name, -5, geo);
        let trace = Trace::builder(b.build()).build();
        let dir = TempDir::new("long-region");
        let store = dir.path().join("store");
        let par = Parallelism::with_workers(1);
        match write_trace(&trace, &store, WriteOptions::default(), &par) {
            Err(StoreError::Inconsistent(reason)) => {
                assert!(reason.contains("region-1"), "{reason}");
            }
            other => panic!("expected an Inconsistent error, got {other:?}"),
        }
        assert!(!store.exists(), "nothing may be written");
    }
}
