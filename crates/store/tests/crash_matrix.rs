//! The store's crash matrix, built from states. Every store file is
//! committed tmp → fsync → rename, so every state a kill can leave is
//! reachable from the public [`TraceWriter`] plus hand-written torn
//! `.tmp` files — the store has no crash hook and needs none. Each
//! state is laid over a fresh directory and over one holding a
//! committed store. Afterwards the directory either reopens as exactly
//! the last committed store or refuses at `open` with a non-`Corrupt`
//! error while `store_exists` reads false — it never opens and then
//! fails on a chunk — and a rewrite into it lays down every file a
//! fresh directory gets, byte for byte.

mod common;

use cloudscope_model::trace::Trace;
use cloudscope_obs::Registry;
use cloudscope_par::Parallelism;
use cloudscope_store::{
    encode_subscriptions, encode_topology, store_exists, write_trace, ScanFilter, StoreError,
    TelemetryMode, TraceReader, TraceWriter, WriteOptions, BLOB_SUBSCRIPTIONS, BLOB_TOPOLOGY,
    MANIFEST_NAME,
};
use common::{assert_traces_equal, dir_snapshot, trace_from_seeds, TempDir};
use std::path::Path;
use std::sync::Arc;

/// Small chunks and one worker: the writer flushes every fourth sealed
/// chunk, so a few dozen VMs reach the directory long before `finish`.
fn opts() -> WriteOptions {
    WriteOptions {
        target_chunk_rows: 8,
        target_chunk_bytes: 2048,
    }
}

fn par() -> Parallelism {
    Parallelism::with_workers(1)
}

/// A seed-built trace of 60 VMs; `salt` picks the population.
fn trace(salt: u64) -> Trace {
    let seeds: Vec<u64> = (0..60u64)
        .map(|i| i.wrapping_mul(0x9E6C_63D0_676A_9A99) ^ salt)
        .collect();
    trace_from_seeds(&seeds)
}

/// Starts writing `trace` into `dir` and drops the writer after
/// appending its first `vms` records — the kill. Returns how many chunk
/// files the writer renamed into place first.
fn interrupted_write(dir: &Path, trace: &Trace, vms: usize) -> u64 {
    let registry = Arc::new(Registry::new());
    cloudscope_obs::scoped(&registry, || {
        let par = par();
        let mut w = TraceWriter::create(dir, opts(), &par).unwrap();
        w.add_blob(BLOB_TOPOLOGY, encode_topology(trace.topology()).unwrap());
        w.add_blob(
            BLOB_SUBSCRIPTIONS,
            encode_subscriptions(trace.subscriptions()),
        );
        let mut left = vms;
        trace.for_each_vm(|vm, util| {
            if left > 0 {
                left -= 1;
                w.append_vm(vm, util.as_ref()).unwrap();
            }
        });
    });
    registry
        .snapshot()
        .counter("store.write.chunks")
        .unwrap_or(0)
}

/// One thing a kill leaves behind, laid over the base directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residue {
    /// A rewrite killed before its first flush: nothing reached disk.
    WriterBeforeFlush,
    /// A rewrite killed after some chunk renames and before `finish` —
    /// between the chunk renames and the manifest rename. A kill
    /// mid-`generate_to_store` is this state too: it drives the same
    /// writer.
    WriterAfterFlush,
    /// Half-written `<chunk>.chunk.tmp` for every chunk the new store
    /// holds: the most a parallel flush can have in flight.
    TornChunkTmps,
    /// A half-written `manifest.csm.tmp`.
    TornManifestTmp,
    /// The new manifest's temp written whole, never renamed.
    UnrenamedManifestTmp,
}

/// Every state the matrix runs, each a sequence of residues.
const STATES: [&[Residue]; 7] = [
    &[Residue::WriterBeforeFlush],
    &[Residue::WriterAfterFlush],
    &[Residue::TornChunkTmps],
    &[Residue::TornManifestTmp],
    &[Residue::WriterAfterFlush, Residue::TornChunkTmps],
    &[Residue::WriterAfterFlush, Residue::TornManifestTmp],
    &[Residue::WriterAfterFlush, Residue::UnrenamedManifestTmp],
];

/// Lays `residue` into `dir`. `next` is the trace being written over
/// the directory and `next_files` its store as a fresh write lays it
/// down.
fn apply(dir: &Path, residue: Residue, next: &Trace, next_files: &[(String, Vec<u8>)]) {
    let half = |name: &str| {
        let (_, bytes) = next_files.iter().find(|(n, _)| n == name).unwrap();
        bytes[..bytes.len() / 2].to_vec()
    };
    match residue {
        Residue::WriterBeforeFlush => {
            assert_eq!(interrupted_write(dir, next, 3), 0, "no flush yet");
        }
        Residue::WriterAfterFlush => {
            let renamed = interrupted_write(dir, next, next.vms().len());
            assert!(renamed > 0, "the writer must have flushed");
        }
        Residue::TornChunkTmps => {
            for (name, _) in next_files.iter().filter(|(n, _)| n.ends_with(".chunk")) {
                std::fs::write(dir.join(format!("{name}.tmp")), half(name)).unwrap();
            }
        }
        Residue::TornManifestTmp => {
            let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
            std::fs::write(tmp, half(MANIFEST_NAME)).unwrap();
        }
        Residue::UnrenamedManifestTmp => {
            let (_, whole) = next_files.iter().find(|(n, _)| n == MANIFEST_NAME).unwrap();
            std::fs::write(dir.join(format!("{MANIFEST_NAME}.tmp")), whole).unwrap();
        }
    }
}

/// The reopen verdict: `committed` is the store the directory held
/// before the kill (if any) and `survives` whether the state leaves it
/// in place. Counts no corruption either way.
fn assert_reopens(dir: &Path, committed: Option<&Trace>, survives: bool, context: &str) {
    let registry = Arc::new(Registry::new());
    cloudscope_obs::scoped(&registry, || match (committed, survives) {
        (Some(committed), true) => {
            assert!(store_exists(dir), "{context}: committed store gone");
            let reader = TraceReader::open(dir)
                .unwrap_or_else(|e| panic!("{context}: committed store refused: {e}"));
            for entry in reader.chunks(ScanFilter::all()) {
                reader
                    .read_chunk_ids(entry)
                    .unwrap_or_else(|e| panic!("{context}: opened, then a chunk failed: {e}"));
            }
            let back = reader
                .read_trace(TelemetryMode::Resident, &par())
                .unwrap_or_else(|e| panic!("{context}: opened, then the read failed: {e}"));
            assert_traces_equal(committed, &back);
        }
        _ => {
            assert!(!store_exists(dir), "{context}: a store is visible");
            match TraceReader::open(dir) {
                Err(StoreError::Io { source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound => {}
                other => panic!("{context}: expected a missing manifest, got {other:?}"),
            }
        }
    });
    let corrupt = registry
        .snapshot()
        .counter("store.corruption_detected")
        .unwrap_or(0);
    assert_eq!(corrupt, 0, "{context}: corruption counted");
}

/// After a rewrite of `next` into the crashed directory, every file a
/// fresh write lays down is there with the same bytes, and the store
/// reads back as `next`.
fn assert_rewrite_matches_fresh(
    dir: &Path,
    next: &Trace,
    fresh: &[(String, Vec<u8>)],
    context: &str,
) {
    write_trace(next, dir, opts(), &par())
        .unwrap_or_else(|e| panic!("{context}: rewrite failed: {e}"));
    let reused = dir_snapshot(dir);
    for (name, bytes) in fresh {
        let found = reused.iter().find(|(n, _)| n == name);
        assert!(
            found.is_some_and(|(_, b)| b == bytes),
            "{context}: {name} differs from a fresh write's"
        );
    }
    let back = TraceReader::open(dir)
        .and_then(|r| r.read_trace(TelemetryMode::Resident, &par()))
        .unwrap_or_else(|e| panic!("{context}: rewritten store unreadable: {e}"));
    assert_traces_equal(next, &back);
}

#[test]
fn every_kill_state_reopens_as_the_last_commit_or_as_no_store() {
    let committed = trace(0x51);
    let next = trace(0xB2);
    let fresh_next = {
        let dir = TempDir::new("crash-fresh");
        write_trace(&next, dir.path(), opts(), &par()).unwrap();
        dir_snapshot(dir.path())
    };

    for state in STATES {
        for (label, base) in [
            ("a fresh directory", None),
            ("a committed store", Some(&committed)),
        ] {
            let context = format!("{state:?} over {label}");
            let dir = TempDir::new("crash");
            if let Some(base) = base {
                write_trace(base, dir.path(), opts(), &par()).unwrap();
            }
            for &residue in state {
                apply(dir.path(), residue, &next, &fresh_next);
            }
            // Only a writer that renamed chunks retires the commit.
            let survives = !state.contains(&Residue::WriterAfterFlush);
            assert_reopens(dir.path(), base, survives, &context);
            assert_rewrite_matches_fresh(dir.path(), &next, &fresh_next, &context);
        }
    }
}

/// Chunk names are deterministic, so a rewrite renames new chunks over
/// the committed store's before its own manifest lands. The writer must
/// retire the old manifest before that first rename, or after a crash it
/// names bytes it never wrote and `open` reports a corrupt store.
#[test]
fn an_interrupted_rewrite_retires_the_committed_store_first() {
    let dir = TempDir::new("crash-rewrite");
    write_trace(&trace(0x51), dir.path(), opts(), &par()).unwrap();
    let next = trace(0xB2);
    assert!(interrupted_write(dir.path(), &next, next.vms().len()) > 0);

    let registry = Arc::new(Registry::new());
    let opened = cloudscope_obs::scoped(&registry, || TraceReader::open(dir.path()));
    assert!(!store_exists(dir.path()), "the old manifest survived");
    assert!(
        matches!(opened, Err(StoreError::Io { .. })),
        "expected Io, got {opened:?}"
    );
    let corrupt = registry.snapshot().counter("store.corruption_detected");
    assert_eq!(corrupt.unwrap_or(0), 0, "corruption counted");
}
