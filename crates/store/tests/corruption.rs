//! Corruption fuzz suite: every single-byte truncation and every
//! single-bit flip of every store file must surface as a loud, typed
//! [`StoreError`] naming the damaged file — never a silently wrong
//! trace. Also covers missing chunks and stale manifests.

mod common;

use cloudscope_model::ids::VmId;
use cloudscope_model::trace::Trace;
use cloudscope_par::Parallelism;
use cloudscope_store::{
    write_trace, ChunkKind, ScanFilter, StoreError, StoreTelemetry, TelemetryMode, TraceReader,
    WriteOptions,
};
use common::{trace_from_seeds, TempDir};
use std::path::{Path, PathBuf};

/// A small store: every chunk kind present, a few KiB total, so the
/// every-offset loops stay fast.
fn build_store(dir: &Path) {
    let seeds: Vec<u64> = (0..40u64)
        .map(|i| i.wrapping_mul(0xA076_1D64_78BD_642F))
        .collect();
    let trace = trace_from_seeds(&seeds);
    write_trace(
        &trace,
        dir,
        WriteOptions {
            target_chunk_rows: 16,
            target_chunk_bytes: 2048,
        },
        &Parallelism::with_workers(2),
    )
    .unwrap();
}

/// Fully reads the store: open, every chunk's ids, the assembled
/// trace. Returns the first error. A corrupted store must never get
/// through this whole path cleanly.
fn read_everything(dir: &Path) -> Result<(), StoreError> {
    let reader = TraceReader::open(dir)?;
    for entry in reader.chunks(Default::default()) {
        reader.read_chunk_ids(entry)?;
    }
    reader.read_trace(TelemetryMode::Resident, &Parallelism::with_workers(1))?;
    Ok(())
}

/// Offset stride for the every-offset loops: exhaustive in release —
/// the mode check.sh runs this suite in — and strided in debug so the
/// tier-1 workspace test run stays fast.
fn stride() -> usize {
    if cfg!(debug_assertions) {
        13
    } else {
        1
    }
}

/// Bits to flip per sampled byte: all eight in release, one in debug.
fn bits() -> std::ops::Range<u8> {
    if cfg!(debug_assertions) {
        0..1
    } else {
        0..8
    }
}

/// The store's files, manifest last (largest blast radius first).
fn store_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

#[test]
fn every_truncation_of_every_file_errors_loudly() {
    let dir = TempDir::new("fuzz-trunc");
    build_store(dir.path());
    assert!(read_everything(dir.path()).is_ok(), "clean store must read");

    for file in store_files(dir.path()) {
        let clean = std::fs::read(&file).unwrap();
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        for cut in (0..clean.len()).step_by(stride()) {
            std::fs::write(&file, &clean[..cut]).unwrap();
            let err = read_everything(dir.path())
                .expect_err(&format!("{name} truncated to {cut} bytes read cleanly"));
            let msg = err.to_string();
            assert!(
                msg.contains(&name),
                "{name} truncated to {cut}: error does not name the file: {msg}"
            );
        }
        std::fs::write(&file, &clean).unwrap();
        assert!(read_everything(dir.path()).is_ok(), "restore after {name}");
    }
}

#[test]
fn every_bit_flip_of_every_file_errors_loudly() {
    let dir = TempDir::new("fuzz-flip");
    build_store(dir.path());

    for file in store_files(dir.path()) {
        let clean = std::fs::read(&file).unwrap();
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        for byte in (0..clean.len()).step_by(stride()) {
            for bit in bits() {
                let mut evil = clean.clone();
                evil[byte] ^= 1 << bit;
                std::fs::write(&file, &evil).unwrap();
                let err = read_everything(dir.path()).expect_err(&format!(
                    "{name} with byte {byte} bit {bit} flipped read cleanly"
                ));
                let msg = err.to_string();
                assert!(
                    msg.contains(&name),
                    "{name} byte {byte} bit {bit}: error does not name the file: {msg}"
                );
            }
        }
        std::fs::write(&file, &clean).unwrap();
    }
    assert!(read_everything(dir.path()).is_ok());
}

#[test]
fn chunk_errors_name_file_and_chunk() {
    let dir = TempDir::new("fuzz-naming");
    build_store(dir.path());
    let reader = TraceReader::open(dir.path()).unwrap();
    let entry = reader.chunks(Default::default()).next().unwrap().clone();
    let chunk_name = entry.meta.name();
    let file = dir.path().join(format!("{chunk_name}.chunk"));
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&file, &bytes).unwrap();

    let err = reader.read_chunk_ids(&entry).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&chunk_name),
        "error must name the chunk: {msg}"
    );
    assert!(
        msg.contains(&file.display().to_string()),
        "error must name the file: {msg}"
    );
    assert!(
        matches!(err, StoreError::Corrupt { .. }),
        "bit flip must classify as corruption, got {err:?}"
    );
}

#[test]
fn missing_chunk_is_loud_at_open() {
    let dir = TempDir::new("fuzz-missing");
    build_store(dir.path());
    let reader = TraceReader::open(dir.path()).unwrap();
    let victim = reader
        .chunks(Default::default())
        .next()
        .unwrap()
        .meta
        .name();
    drop(reader);
    std::fs::remove_file(dir.path().join(format!("{victim}.chunk"))).unwrap();

    let err = TraceReader::open(dir.path()).unwrap_err();
    assert!(
        matches!(&err, StoreError::Missing { chunk, .. } if *chunk == victim),
        "expected Missing for {victim}, got {err:?}"
    );
    assert!(err.to_string().contains(&victim));
}

#[test]
fn stale_manifest_is_loud_at_open() {
    let dir = TempDir::new("fuzz-stale");
    build_store(dir.path());
    let reader = TraceReader::open(dir.path()).unwrap();
    let victim = reader
        .chunks(Default::default())
        .next()
        .unwrap()
        .meta
        .name();
    drop(reader);
    // The chunk grew after the manifest was committed: stale manifest.
    let path = dir.path().join(format!("{victim}.chunk"));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.push(0);
    std::fs::write(&path, &bytes).unwrap();

    let err = TraceReader::open(dir.path()).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, StoreError::Corrupt { .. }) && msg.contains("stale manifest"),
        "expected a stale-manifest report, got {msg}"
    );
    assert!(msg.contains(&victim), "must name the chunk: {msg}");
}

#[test]
fn a_version_1_store_is_refused_at_open() {
    // The store format before the column codec: a v1 manifest over v2
    // chunks. Its manifest version is the verdict, so open refuses it
    // before it looks for a single chunk — here, with none left.
    let dir = TempDir::new("fuzz-v1");
    build_store(dir.path());
    for chunk in store_files(dir.path())
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "chunk"))
    {
        std::fs::remove_file(chunk).unwrap();
    }
    let path = dir.path().join("manifest.csm");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = cloudscope_model::durable::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let err = TraceReader::open(dir.path()).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, StoreError::Malformed { .. })
            && msg.contains("unsupported manifest version 1"),
        "expected a version refusal, got {msg}"
    );
    assert!(
        msg.contains("manifest.csm"),
        "must name the manifest: {msg}"
    );
}

#[test]
fn missing_manifest_is_not_a_store() {
    let dir = TempDir::new("fuzz-nomanifest");
    build_store(dir.path());
    std::fs::remove_file(dir.path().join("manifest.csm")).unwrap();
    assert!(!cloudscope_store::store_exists(dir.path()));
    let err = TraceReader::open(dir.path()).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "got {err:?}");
}

/// A chunk file swapped with another (valid!) chunk file must still be
/// rejected: internal checksums pass, but the manifest CRC, length, or
/// header identity disagrees.
#[test]
fn swapped_chunk_files_are_rejected() {
    let dir = TempDir::new("fuzz-swap");
    build_store(dir.path());
    let reader = TraceReader::open(dir.path()).unwrap();
    let names: Vec<String> = reader
        .chunks(Default::default())
        .map(|e| e.meta.name())
        .collect();
    assert!(names.len() >= 2, "need two chunks to swap");
    drop(reader);
    let a = dir.path().join(format!("{}.chunk", names[0]));
    let b = dir.path().join(format!("{}.chunk", names[1]));
    let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::write(&a, &bb).unwrap();
    std::fs::write(&b, &ba).unwrap();
    assert!(
        read_everything(dir.path()).is_err(),
        "swapped chunk files read cleanly"
    );
}

/// The trace [`build_store`] writes.
fn built_trace() -> Trace {
    trace_from_seeds(
        &(0..40u64)
            .map(|i| i.wrapping_mul(0xA076_1D64_78BD_642F))
            .collect::<Vec<_>>(),
    )
}

/// Name and file of the second chunk of some telemetry lane holding at
/// least `min_chunks` chunks: a chunk with a lane predecessor, so an
/// ascending reader reads ahead into it before it demands it.
fn second_chunk_of_a_lane(dir: &Path, min_chunks: usize) -> (String, PathBuf) {
    let reader = TraceReader::open(dir).unwrap();
    let mut lanes: std::collections::BTreeMap<(u32, u8), Vec<_>> =
        std::collections::BTreeMap::new();
    for entry in reader.chunks(ScanFilter::all().kind(ChunkKind::Telemetry)) {
        lanes
            .entry((entry.meta.region, entry.meta.day))
            .or_default()
            .push(entry.clone());
    }
    let mut lane = lanes
        .into_values()
        .find(|chunks| chunks.len() >= min_chunks)
        .expect("a lane with enough chunks");
    lane.sort_by_key(|e| e.meta.seq);
    let victim = lane[1].meta.name();
    let file = dir.join(lane[1].meta.file_name());
    (victim, file)
}

fn flip_a_bit(file: &Path) {
    let mut bytes = std::fs::read(file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(file, &bytes).unwrap();
}

/// A bit flip decoded asynchronously by a readahead worker must surface
/// as a typed [`StoreError`] on the thread that demands the chunk —
/// never a silently wrong series, and never out of order: VMs whose
/// series avoid the damaged chunk still decode byte-identically.
#[test]
fn prefetched_corruption_fails_on_the_consuming_thread() {
    let dir = TempDir::new("fuzz-prefetch");
    build_store(dir.path());
    let trace = built_trace();
    let (victim, file) = second_chunk_of_a_lane(dir.path(), 2);
    flip_a_bit(&file);

    let registry = std::sync::Arc::new(cloudscope_obs::Registry::new());
    let (issued, failures) = cloudscope_obs::scoped(&registry, || {
        let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(2));

        // Id-ordered sweep of point loads, like `write_trace` or an
        // export over an out-of-core trace.
        let mut failures = Vec::new();
        for vm in trace.vms() {
            match telemetry.try_load(vm.id) {
                Ok(series) => assert_eq!(series, trace.util(vm.id), "vm {:?}", vm.id),
                Err(err) => {
                    assert!(
                        matches!(err, StoreError::Corrupt { .. }),
                        "expected Corrupt, got {err:?}"
                    );
                    assert!(
                        err.to_string().contains(&victim),
                        "error must name the damaged chunk: {err}"
                    );
                    // A retry decodes afresh and re-fails rather than
                    // serving a half-decoded chunk.
                    assert!(telemetry.try_load(vm.id).is_err(), "retry must re-fail");
                    failures.push(vm.id);
                }
            }
        }
        let issued = registry.snapshot().counter("store.prefetch.issued");
        (issued, failures)
    });
    assert!(
        !failures.is_empty(),
        "no demand ever touched the corrupted chunk"
    );
    assert!(
        issued.unwrap_or(0) >= 1,
        "the sweep never read ahead: {issued:?}"
    );
}

/// Scans `ids`, checking every delivered series against `trace`, and
/// returns how many were delivered plus the scan's verdict.
fn checked_scan(
    telemetry: &StoreTelemetry,
    trace: &Trace,
    ids: &[VmId],
) -> (usize, Result<(), StoreError>) {
    let mut delivered = 0;
    let verdict = telemetry.try_scan(ids, &mut |id, series| {
        assert_eq!(Some(series), trace.util(id), "vm {id} arrived damaged");
        delivered += 1;
    });
    (delivered, verdict)
}

/// A chunk that goes bad in the middle of a lane stops a scan with the
/// typed error naming it, whoever meets the damage first: the scan's
/// own planning (cold id index), a readahead worker, or the consumer.
/// Every series delivered before that is whole — a scan never yields a
/// series short of the damaged chunk's run.
#[test]
fn scan_surfaces_a_bit_flip_in_the_second_chunk_of_a_lane() {
    let dir = TempDir::new("fuzz-scan");
    build_store(dir.path());
    let trace = built_trace();
    let ids: Vec<VmId> = trace.vms().iter().map(|vm| vm.id).collect();
    let with_telemetry = ids.iter().filter(|&&id| trace.has_util(id)).count();
    let (victim, file) = second_chunk_of_a_lane(dir.path(), 3);
    let names_victim =
        |err: &StoreError| matches!(err, StoreError::Corrupt { chunk, .. } if *chunk == victim);

    let registry = std::sync::Arc::new(cloudscope_obs::Registry::new());
    cloudscope_obs::scoped(&registry, || {
        // Warm: a clean scan fills the id index and leaves every lane
        // on its last chunk, so after the flip nothing but a full decode
        // of the victim — issued ahead of the consumer — can notice.
        let warm = common::open_telemetry(dir.path(), Parallelism::with_workers(2));
        let (delivered, verdict) = checked_scan(&warm, &trace, &ids);
        verdict.expect("clean store scans");
        assert_eq!(delivered, with_telemetry);

        flip_a_bit(&file);
        let issued_before = registry.snapshot().counter("store.prefetch.issued");
        let (delivered, verdict) = checked_scan(&warm, &trace, &ids);
        let err = verdict.expect_err("the damaged chunk scanned cleanly");
        assert!(names_victim(&err), "expected Corrupt {victim}, got {err:?}");
        assert!(delivered < with_telemetry, "the scan ran past the damage");
        assert!(
            registry.snapshot().counter("store.prefetch.issued") > issued_before,
            "the scan never read ahead"
        );
        // Nothing stale is parked: a retry decodes afresh and re-fails.
        let (_, verdict) = checked_scan(&warm, &trace, &ids);
        assert!(names_victim(&verdict.expect_err("retry must re-fail")));

        // Cold: a fresh reader meets the flip while resolving which
        // chunks the ids live in, before it delivers anything.
        let cold = common::open_telemetry(dir.path(), Parallelism::with_workers(2));
        let (delivered, verdict) = checked_scan(&cold, &trace, &ids);
        let err = verdict.expect_err("the damaged chunk scanned cleanly");
        assert!(names_victim(&err), "expected Corrupt {victim}, got {err:?}");
        assert_eq!(delivered, 0);

        // Gone altogether after open: `Missing`, not a bare I/O error.
        std::fs::remove_file(&file).unwrap();
        let (_, verdict) = checked_scan(&cold, &trace, &ids);
        let err = verdict.expect_err("a deleted chunk scanned cleanly");
        assert!(
            matches!(&err, StoreError::Missing { chunk, .. } if *chunk == victim),
            "expected Missing {victim}, got {err:?}"
        );
    });
}

/// Corruption is detected by an ids-only read too — the file-level CRC
/// guards even the columns it skips decompressing.
#[test]
fn projection_does_not_weaken_integrity() {
    let dir = TempDir::new("fuzz-projected");
    build_store(dir.path());
    let reader = TraceReader::open(dir.path()).unwrap();
    let entry = reader.chunks(Default::default()).next().unwrap().clone();
    let file = dir.path().join(entry.meta.file_name());
    let clean = std::fs::read(&file).unwrap();
    // Flip one bit in every byte position; an ids-only read must fail
    // for all of them even though it decodes only the id column.
    for byte in (0..clean.len()).step_by(7) {
        let mut evil = clean.clone();
        evil[byte] ^= 0x01;
        std::fs::write(&file, &evil).unwrap();
        assert!(
            reader.read_chunk_ids(&entry).is_err(),
            "ids-only read survived a flip at byte {byte}"
        );
    }
}
