//! The per-scan decode pipeline, from outside: scans that start below
//! the cursors, scans that run concurrently, a scan cut short by damage
//! or by its own visitor, and the two cases that must not start a
//! thread at all. Every series is compared with the resident trace.

mod common;

use cloudscope_model::ids::VmId;
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::trace::Trace;
use cloudscope_obs::{Registry, Snapshot};
use cloudscope_par::Parallelism;
use cloudscope_store::{
    ChunkEntry, ChunkKind, ScanFilter, StoreError, StoreTelemetry, TelemetryMode, TraceReader,
};
use common::{write_many_chunk_store, TempDir};
use std::path::Path;
use std::sync::{Arc, Barrier};

fn all_ids(trace: &Trace) -> Vec<VmId> {
    trace.vms().iter().map(|vm| vm.id).collect()
}

/// Every telemetry chunk with its id column, in manifest order.
fn telemetry_chunks(dir: &Path) -> Vec<(ChunkEntry, Vec<VmId>)> {
    let reader = TraceReader::open(dir).unwrap();
    reader
        .chunks(ScanFilter::all().kind(ChunkKind::Telemetry))
        .map(|entry| (entry.clone(), reader.read_chunk_ids(entry).unwrap()))
        .collect()
}

/// Scans `ids`, checking every delivered series against `trace`, and
/// returns the ids delivered plus the scan's verdict.
fn checked_scan(
    telemetry: &StoreTelemetry,
    trace: &Trace,
    ids: &[VmId],
) -> (Vec<VmId>, Result<(), StoreError>) {
    let mut delivered = Vec::new();
    let verdict = telemetry.try_scan(ids, &mut |id, series| {
        assert_eq!(Some(series), trace.util(id), "vm {id} arrived damaged");
        delivered.push(id);
    });
    (delivered, verdict)
}

fn with_telemetry(trace: &Trace, ids: &[VmId]) -> Vec<VmId> {
    ids.iter()
        .copied()
        .filter(|&id| trace.has_util(id))
        .collect()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Full chunk decodes so far, on whichever thread they ran.
fn decodes(snap: &Snapshot) -> u64 {
    counter(snap, "store.cache.misses") - counter(snap, "store.prefetch.hits")
        + snap
            .histogram("store.prefetch.decode_ns")
            .map_or(0, |h| h.count)
}

fn assert_prefetch_reconciles(snap: &Snapshot) {
    assert_eq!(
        counter(snap, "store.prefetch.issued"),
        counter(snap, "store.prefetch.hits") + counter(snap, "store.prefetch.wasted"),
        "a chunk decoded ahead was neither taken nor counted as wasted"
    );
}

/// A scan that starts below where the last one left the cursors walks
/// its lanes back and still decodes nothing twice: each scan's decodes
/// stay within the chunks that hold one of its ids.
#[test]
fn a_scan_below_the_cursors_is_whole_and_decodes_no_chunk_twice() {
    let dir = TempDir::new("pipeline-rewind");
    let trace = write_many_chunk_store(dir.path());
    let ids = all_ids(&trace);
    let chunks = telemetry_chunks(dir.path());
    let holding = |wanted: &[VmId]| {
        chunks
            .iter()
            .filter(|(_, held)| held.iter().any(|id| wanted.binary_search(id).is_ok()))
            .count() as u64
    };

    let registry = Arc::new(Registry::new());
    cloudscope_obs::scoped(&registry, || {
        let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(3));
        let mut before = 0;
        for (label, wanted) in [("high", &ids[80..]), ("low", &ids[30..]), ("all", &ids[..])] {
            let (delivered, verdict) = checked_scan(&telemetry, &trace, wanted);
            verdict.expect("clean store scans");
            assert_eq!(delivered, with_telemetry(&trace, wanted), "{label} scan");
            let after = decodes(&registry.snapshot());
            assert!(
                after - before <= holding(wanted),
                "{label} scan decoded {} chunks, only {} hold its ids",
                after - before,
                holding(wanted)
            );
            before = after;
        }
        assert_eq!(
            decodes(&registry.snapshot()) - before,
            0,
            "bookkeeping: nothing decodes between scans"
        );
        assert_prefetch_reconciles(&registry.snapshot());
    });
}

/// Two threads scanning one source at once — disjoint halves, then
/// overlapping ranges — each receive exactly their own series.
#[test]
fn concurrent_scans_on_one_source_each_get_their_series() {
    let dir = TempDir::new("pipeline-concurrent");
    let trace = write_many_chunk_store(dir.path());
    let ids = all_ids(&trace);
    let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(2));
    let evens: Vec<VmId> = ids.iter().copied().step_by(2).collect();
    let odds: Vec<VmId> = ids.iter().copied().skip(1).step_by(2).collect();
    for (left, right) in [(&evens[..], &odds[..]), (&ids[..90], &ids[40..])] {
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for wanted in [left, right] {
                let (telemetry, trace, start) = (&telemetry, &trace, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..3 {
                        let (delivered, verdict) = checked_scan(telemetry, trace, wanted);
                        verdict.expect("clean store scans");
                        assert_eq!(delivered, with_telemetry(trace, wanted));
                    }
                });
            }
        });
    }
}

/// Damage in a chunk the plan reaches late: a decoder thread meets it
/// long before the consumer does, and the scan still delivers every
/// series ahead of the first VM that needs the chunk, then fails with
/// the typed error naming it — and every chunk decoded ahead is
/// accounted for.
#[test]
fn damage_late_in_the_plan_stops_the_scan_exactly_there() {
    let dir = TempDir::new("pipeline-late-damage");
    let trace = write_many_chunk_store(dir.path());
    let ids = all_ids(&trace);
    let (victim, first_needing) = telemetry_chunks(dir.path())
        .into_iter()
        // Not the first of its lane: the rescan below has moved the
        // lane off it by the time it is needed again.
        .filter(|(entry, _)| entry.meta.seq > 0)
        .map(|(entry, held)| (entry, held[0]))
        .max_by_key(|(_, first)| *first)
        .expect("some lane spans two chunks");

    let registry = Arc::new(Registry::new());
    cloudscope_obs::scoped(&registry, || {
        let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(4));
        // Warm the id index, so that after the flip only a full decode
        // of the victim — started ahead of the consumer — can notice.
        checked_scan(&telemetry, &trace, &ids).1.expect("clean");

        let file = dir.path().join(victim.meta.file_name());
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&file, &bytes).unwrap();

        let issued = counter(&registry.snapshot(), "store.prefetch.issued");
        let (delivered, verdict) = checked_scan(&telemetry, &trace, &ids);
        let err = verdict.expect_err("the damaged chunk scanned cleanly");
        assert!(
            matches!(&err, StoreError::Corrupt { chunk, .. } if *chunk == victim.meta.name()),
            "expected Corrupt {}, got {err:?}",
            victim.meta.name()
        );
        let ahead_of_it: Vec<VmId> = with_telemetry(&trace, &ids)
            .into_iter()
            .filter(|&id| id < first_needing)
            .collect();
        assert_eq!(delivered, ahead_of_it);
        let snap = registry.snapshot();
        assert!(
            counter(&snap, "store.prefetch.issued") > issued,
            "the scan never decoded ahead"
        );
        assert_prefetch_reconciles(&snap);
    });
}

/// A visitor that panics mid-scan takes the scan down with its own
/// payload, leaves no decode unaccounted, and leaves the source good
/// for the next scan.
#[test]
fn a_panicking_visitor_propagates_and_the_source_stays_usable() {
    let dir = TempDir::new("pipeline-visit-panic");
    let trace = write_many_chunk_store(dir.path());
    let ids = all_ids(&trace);
    let registry = Arc::new(Registry::new());
    cloudscope_obs::scoped(&registry, || {
        let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(2));
        let mut seen = 0;
        let mut visit = |_: VmId, _: UtilSeries| {
            seen += 1;
            if seen == 20 {
                panic!("visitor gives up at series {seen}");
            }
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            telemetry.try_scan(&ids, &mut visit)
        }))
        .expect_err("the visitor's panic was swallowed");
        let message = panic.downcast_ref::<String>().expect("an assert message");
        assert!(message.contains("visitor gives up"), "{message}");
        assert_prefetch_reconciles(&registry.snapshot());

        let (delivered, verdict) = checked_scan(&telemetry, &trace, &ids);
        verdict.expect("the source scans after a panicked scan");
        assert_eq!(delivered, with_telemetry(&trace, &ids));
    });
}

/// `Trace::for_each_vm` on a lazy trace is one ascending scan: every VM
/// in id order, with exactly the series the resident trace holds, and
/// each chunk decoded once.
#[test]
fn for_each_vm_walks_a_lazy_trace_in_one_scan() {
    let dir = TempDir::new("pipeline-for-each");
    let trace = write_many_chunk_store(dir.path());
    let chunks = telemetry_chunks(dir.path()).len() as u64;
    let registry = Arc::new(Registry::new());
    cloudscope_obs::scoped(&registry, || {
        let par = Parallelism::with_workers(2);
        let lazy = TraceReader::open(dir.path())
            .unwrap()
            .read_trace(TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
            .unwrap();
        let mut visited = Vec::new();
        lazy.for_each_vm(|vm, util| {
            assert_eq!(util, trace.util(vm.id), "vm {}", vm.id);
            visited.push(vm.id);
        });
        assert_eq!(visited, all_ids(&trace));
    });
    assert_eq!(decodes(&registry.snapshot()), chunks);
}

/// One worker, or a plan of one chunk, decodes on the calling thread:
/// no chunk is issued to a decoder, and the series are the same.
#[test]
fn one_worker_or_one_chunk_never_starts_a_decoder() {
    let dir = TempDir::new("pipeline-inline");
    let trace = write_many_chunk_store(dir.path());
    let ids = all_ids(&trace);
    let scan_with = |workers: usize, wanted: &[VmId]| {
        let registry = Arc::new(Registry::new());
        cloudscope_obs::scoped(&registry, || {
            let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(workers));
            let (delivered, verdict) = checked_scan(&telemetry, &trace, wanted);
            verdict.expect("clean store scans");
            assert_eq!(delivered, with_telemetry(&trace, wanted));
        });
        registry.snapshot()
    };

    let serial = scan_with(1, &ids);
    assert_eq!(counter(&serial, "store.prefetch.issued"), 0);
    let piped = scan_with(4, &ids);
    assert!(counter(&piped, "store.prefetch.issued") > 0);
    assert_eq!(decodes(&serial), decodes(&piped));

    // A VM whose whole series sits in one chunk.
    let chunks = telemetry_chunks(dir.path());
    let lone = ids
        .iter()
        .copied()
        .find(|id| chunks.iter().filter(|(_, held)| held.contains(id)).count() == 1)
        .expect("some series fits one day");
    let one_chunk = scan_with(4, &[lone]);
    assert_eq!(counter(&one_chunk, "store.prefetch.issued"), 0);
    assert_eq!(decodes(&one_chunk), 1);
}
