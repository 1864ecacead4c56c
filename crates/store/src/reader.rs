//! Trace reading: metadata records (a chunk-kind scan that never
//! touches telemetry chunks), the ids of one chunk, and full-trace
//! reconstruction in either telemetry mode — both a collect of, or a
//! handle on, one [`StoreTelemetry`] lane scan.

use crate::blobs::{
    decode_presence, decode_subscriptions, decode_topology, BLOB_SUBSCRIPTIONS,
    BLOB_TELEMETRY_PRESENT, BLOB_TOPOLOGY,
};
use crate::chunk::{decode_chunk_file, ChunkKind, DecodedChunk};
use crate::columns::{col, decode_ids, decode_vm_meta};
use crate::error::StoreError;
use crate::manifest::{ChunkEntry, Manifest, MANIFEST_NAME};
use crate::source::StoreTelemetry;
use cloudscope_model::durable::crc32;
use cloudscope_model::error::ModelError;
use cloudscope_model::ids::VmId;
use cloudscope_model::subscription::Subscription;
use cloudscope_model::trace::Trace;
use cloudscope_model::vm::VmRecord;
use cloudscope_obs::counter;
use cloudscope_par::Parallelism;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Predicate pushdown for a scan: only chunks matching every set
/// field are read (and decompressed) at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanFilter {
    /// Restrict to one chunk kind.
    pub kind: Option<ChunkKind>,
}

impl ScanFilter {
    /// Matches every chunk.
    #[must_use]
    pub fn all() -> Self {
        Self::default()
    }

    /// Restricts the filter to `kind`.
    #[must_use]
    pub fn kind(mut self, kind: ChunkKind) -> Self {
        self.kind = Some(kind);
        self
    }

    fn matches(&self, entry: &ChunkEntry) -> bool {
        self.kind.is_none_or(|k| entry.meta.kind == k)
    }
}

/// How [`TraceReader::read_trace`] serves telemetry.
#[derive(Debug, Clone, Copy)]
pub enum TelemetryMode {
    /// Read every series up front — one ascending scan of the same
    /// lane source `OutOfCore` hands out — and hold it in memory.
    Resident,
    /// Keep only the presence bitmap resident; series are read from
    /// the chunk files in stored order ([`StoreTelemetry`]): one
    /// decoded chunk per `(region, day)` lane, plus at most four more
    /// decoding ahead while a scan runs.
    OutOfCore {
        /// Ignored. The reader holds one chunk per lane whatever this
        /// says; the field survives only because the end-to-end
        /// benchmark crate, which a library change may not edit,
        /// constructs the variant with it.
        cache_chunks: usize,
    },
}

/// A reader over one committed trace directory.
///
/// `open` validates the manifest checksum and verifies every chunk it
/// names exists on disk with the promised byte length — a stale or
/// half-deleted store fails at open, not mid-analysis.
#[derive(Debug)]
pub struct TraceReader {
    dir: PathBuf,
    manifest: Manifest,
}

impl TraceReader {
    /// Opens and validates the store at `dir`.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the manifest is unreadable,
    /// [`StoreError::Malformed`] if it fails validation,
    /// [`StoreError::Missing`]/[`StoreError::Corrupt`] if a named
    /// chunk is absent or has the wrong size.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest_path).map_err(|e| StoreError::io(&manifest_path, e))?;
        let manifest = Manifest::decode(&manifest_path, &bytes)?;
        for entry in &manifest.chunks {
            let path = dir.join(entry.meta.file_name());
            let meta = match std::fs::metadata(&path) {
                Ok(m) => m,
                Err(_) => {
                    return Err(StoreError::Missing {
                        file: path.display().to_string(),
                        chunk: entry.meta.name(),
                    })
                }
            };
            if meta.len() != entry.file_len {
                return Err(StoreError::corrupt(
                    &path,
                    &entry.meta.name(),
                    format!(
                        "stale manifest: file is {} bytes but the manifest promises {}",
                        meta.len(),
                        entry.file_len
                    ),
                ));
            }
        }
        Ok(Self { dir, manifest })
    }

    /// The validated manifest.
    pub(crate) fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The directory this reader serves.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Manifest entries matching `filter`, in commit order.
    pub fn chunks(&self, filter: ScanFilter) -> impl Iterator<Item = &ChunkEntry> {
        self.manifest
            .chunks
            .iter()
            .filter(move |e| filter.matches(e))
    }

    /// A named manifest blob.
    ///
    /// # Errors
    /// [`StoreError::Missing`] if the manifest has no such blob.
    pub fn read_blob(&self, name: &str) -> Result<&[u8], StoreError> {
        self.manifest.blob(name).ok_or_else(|| StoreError::Missing {
            file: self.dir.join(MANIFEST_NAME).display().to_string(),
            chunk: format!("blob {name}"),
        })
    }

    /// The id column of one chunk, either kind, strictly ascending.
    /// The id column alone is decompressed, but the manifest's
    /// whole-file CRC still covers every byte of the file.
    ///
    /// # Errors
    /// Any [`StoreError`] from I/O or validation.
    pub fn read_chunk_ids(&self, entry: &ChunkEntry) -> Result<Vec<VmId>, StoreError> {
        read_chunk(&self.dir, entry, Some(&[col::ID]), None, decode_ids)
    }

    /// The subscription table from the manifest blob — everything a
    /// metadata-only analysis needs to resolve a record's cloud,
    /// without touching a single chunk.
    ///
    /// # Errors
    /// [`StoreError::Missing`] if the blob is absent,
    /// [`StoreError::Malformed`] if it fails to decode.
    pub fn read_subscriptions(&self) -> Result<Vec<Subscription>, StoreError> {
        let manifest_path = self.dir.join(MANIFEST_NAME);
        decode_subscriptions(&manifest_path, self.read_blob(BLOB_SUBSCRIPTIONS)?)
    }

    /// Reads the VM records of every metadata chunk matching `filter`
    /// (the kind is forced to [`ChunkKind::VmMeta`]), decoded in
    /// parallel and returned in id order.
    ///
    /// This is the entry point for metadata-only analyses: telemetry
    /// chunks are never read, CRC-checked, or decompressed. Unlike
    /// [`TraceReader::read_trace`], the result is *not* checked to be
    /// dense: it holds exactly the records of the metadata chunks.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk I/O or validation.
    pub fn read_vm_records(
        &self,
        filter: ScanFilter,
        par: &Parallelism,
    ) -> Result<Vec<VmRecord>, StoreError> {
        let entries: Vec<&ChunkEntry> = self.chunks(filter.kind(ChunkKind::VmMeta)).collect();
        let decoded = par.par_map(&entries, |entry| {
            read_chunk(&self.dir, entry, None, None, decode_vm_meta)
        });
        let batches = decoded.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Sized once: grown by doubling, a full trace's records leave
        // holes of half and a quarter their size behind in the heap.
        let mut records = Vec::with_capacity(batches.iter().map(Vec::len).sum());
        records.extend(batches.into_iter().flatten());
        records.sort_unstable_by_key(|r| r.id);
        Ok(records)
    }

    /// Reconstructs the full [`Trace`]. Its telemetry is one
    /// [`StoreTelemetry`] over this reader's manifest: in `Resident`
    /// mode one ascending scan of every VM collects it into memory, and
    /// the result is bit-identical to the trace that was written; in
    /// `OutOfCore` mode the trace holds the source itself and only the
    /// presence bitmap stays in memory.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk decoding, or
    /// [`StoreError::Inconsistent`] if the decoded records and runs do
    /// not assemble into a dense, valid trace.
    pub fn read_trace(&self, mode: TelemetryMode, par: &Parallelism) -> Result<Trace, StoreError> {
        let manifest_path = self.dir.join(MANIFEST_NAME);
        let topology = decode_topology(&manifest_path, self.read_blob(BLOB_TOPOLOGY)?)?;
        let subscriptions =
            decode_subscriptions(&manifest_path, self.read_blob(BLOB_SUBSCRIPTIONS)?)?;
        let present = decode_presence(&manifest_path, self.read_blob(BLOB_TELEMETRY_PRESENT)?)?;
        let vm_count = usize::try_from(self.manifest.vm_count)
            .map_err(|_| StoreError::Inconsistent("vm count overflows usize".into()))?;
        if present.len() != vm_count {
            return Err(StoreError::Inconsistent(format!(
                "presence bitmap covers {} VMs but the manifest counts {vm_count}",
                present.len()
            )));
        }

        let records = self.read_vm_records(ScanFilter::all(), par)?;
        if records.len() != vm_count {
            return Err(StoreError::Inconsistent(format!(
                "chunks hold {} records but the manifest counts {vm_count}",
                records.len()
            )));
        }
        let source = StoreTelemetry::new(self, &records, *par)?;

        let inconsistent = |e: ModelError| StoreError::Inconsistent(e.to_string());
        let mut builder = Trace::builder(topology);
        for sub in subscriptions {
            builder.add_subscription(sub).map_err(inconsistent)?;
        }
        match mode {
            TelemetryMode::Resident => {
                let ids: Vec<VmId> = (0..self.manifest.vm_count).map(VmId::new).collect();
                let mut util = vec![None; vm_count];
                source.try_scan(&ids, &mut |id, series| util[id.as_usize()] = Some(series))?;
                source.check_no_stray_runs()?;
                for (idx, (series, &has)) in util.iter().zip(&present).enumerate() {
                    let verdict = match (series.is_some(), has) {
                        (false, true) => "is marked present but no chunk holds its telemetry",
                        (true, false) => "has telemetry runs but is marked absent",
                        _ => continue,
                    };
                    return Err(StoreError::Inconsistent(format!("vm {idx} {verdict}")));
                }
                builder
                    .add_vms_bulk(records, util, par)
                    .map_err(inconsistent)?;
                Ok(builder.build())
            }
            TelemetryMode::OutOfCore { cache_chunks: _ } => {
                builder
                    .add_vms_bulk(records, vec![None; vm_count], par)
                    .map_err(inconsistent)?;
                let mut trace = builder.build();
                trace
                    .attach_telemetry_source(present, Arc::new(source))
                    .map_err(inconsistent)?;
                Ok(trace)
            }
        }
    }
}

/// Reads, verifies, and decodes one chunk of the store in `dir`,
/// decompressing only the `wanted` columns (`None` = all), fanning
/// sub-block decompression out over `par` when given; `decode` turns
/// the columns into rows. Output is identical at any worker count.
///
/// # Errors
/// Any [`StoreError`] from I/O or validation; a failed chunk never
/// yields partial rows.
pub(crate) fn read_chunk<T>(
    dir: &Path,
    entry: &ChunkEntry,
    wanted: Option<&[u16]>,
    par: Option<&Parallelism>,
    decode: impl FnOnce(&Path, DecodedChunk) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let path = dir.join(entry.meta.file_name());
    let name = entry.meta.name();
    let bytes = std::fs::read(&path).map_err(|e| match e.kind() {
        // Present at open, gone now: the same verdict open gives.
        std::io::ErrorKind::NotFound => StoreError::Missing {
            file: path.display().to_string(),
            chunk: name.clone(),
        },
        _ => StoreError::io(&path, e),
    })?;
    if bytes.len() as u64 != entry.file_len {
        return Err(StoreError::corrupt(
            &path,
            &name,
            format!(
                "stale manifest: file is {} bytes but the manifest promises {}",
                bytes.len(),
                entry.file_len
            ),
        ));
    }
    if crc32(&bytes) != entry.file_crc {
        return Err(StoreError::corrupt(
            &path,
            &name,
            "file checksum disagrees with the manifest",
        ));
    }
    // The manifest whole-file CRC above already covered every byte, so
    // the decoder's footer-CRC pass would be a second scan of the same
    // bytes — skip it.
    let decoded = decode_chunk_file(&path, &name, &bytes, wanted, par, false)?;
    if decoded.meta != entry.meta {
        return Err(StoreError::corrupt(
            &path,
            &name,
            format!(
                "chunk header says {} but the manifest says {name}",
                decoded.meta.name()
            ),
        ));
    }
    counter("store.read.batches").inc();
    decode(&path, decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blobs::{encode_presence, encode_subscriptions, encode_topology};
    use crate::chunk::{encode_chunk_file, ChunkMeta};
    use crate::columns::TelemetryColumns;
    use crate::writer::{TraceWriter, WriteOptions};
    use cloudscope_model::ids::{ClusterId, RegionId, ServiceId, SubscriptionId};
    use cloudscope_model::subscription::{CloudKind, PartyKind};
    use cloudscope_model::telemetry::UtilSeries;
    use cloudscope_model::time::SimTime;
    use cloudscope_model::topology::{NodeSku, Topology};
    use cloudscope_model::vm::{Priority, ServiceModel, VmRecord, VmSize};

    /// A directory holding a committed three-VM store — vms 0 and 1 in
    /// region 0, vm 2 in region 1, vm 1 without telemetry — whose
    /// manifest `edit` then rewrites; removed on drop.
    struct Store(PathBuf);

    impl Store {
        fn new(tag: &str, edit: impl FnOnce(&Path, &mut Manifest)) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "cloudscope-store-reader-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let par = Parallelism::with_workers(1);
            let mut w = TraceWriter::create(&dir, WriteOptions::default(), &par).unwrap();
            let mut topology = Topology::builder();
            for name in ["us-west", "eu-north"] {
                let region = topology.add_region(name, 0, "US");
                let datacenter = topology.add_datacenter(region);
                let sku = NodeSku::new(48, 384.0);
                topology.add_cluster(datacenter, CloudKind::Private, sku, 2, 2);
            }
            w.add_blob(BLOB_TOPOLOGY, encode_topology(&topology.build()).unwrap());
            w.add_blob(
                BLOB_SUBSCRIPTIONS,
                encode_subscriptions(&[Subscription::new(
                    SubscriptionId::new(0),
                    CloudKind::Private,
                    PartyKind::FirstParty,
                )]),
            );
            for id in 0..3 {
                let region = u32::from(id == 2);
                let vm = VmRecord {
                    id: VmId::new(id),
                    subscription: SubscriptionId::new(0),
                    service: ServiceId::new(0),
                    size: VmSize::new(2, 8.0),
                    priority: Priority::OnDemand,
                    service_model: ServiceModel::Iaas,
                    region: RegionId::new(region),
                    cluster: ClusterId::new(region),
                    node: None,
                    created: SimTime::ZERO,
                    ended: None,
                };
                let util = UtilSeries::from_percentages(SimTime::ZERO, [10.0, 20.0]);
                w.append_vm(&vm, (id != 1).then_some(&util)).unwrap();
            }
            w.finish().unwrap();

            let path = dir.join(MANIFEST_NAME);
            let mut manifest = Manifest::decode(&path, &std::fs::read(&path).unwrap()).unwrap();
            edit(&dir, &mut manifest);
            std::fs::write(&path, manifest.encode()).unwrap();
            Self(dir)
        }

        /// The `Inconsistent` verdict of a read in `mode`.
        fn inconsistency(&self, mode: TelemetryMode) -> String {
            let reader = TraceReader::open(&self.0).unwrap();
            match reader.read_trace(mode, &Parallelism::with_workers(1)) {
                Err(StoreError::Inconsistent(why)) => why,
                other => panic!("expected Inconsistent, got {other:?}"),
            }
        }
    }

    impl Drop for Store {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn set_presence(manifest: &mut Manifest, present: &[bool]) {
        let blob = manifest
            .blobs
            .iter_mut()
            .find(|(name, _)| name == BLOB_TELEMETRY_PRESENT)
            .expect("presence blob");
        blob.1 = encode_presence(present);
    }

    /// Adds a CRC-valid telemetry chunk, named by the manifest, holding
    /// one run of each of `vms` in lane `(region, day 0)` at `seq`.
    fn add_runs(dir: &Path, manifest: &mut Manifest, vms: &[u64], region: u32, seq: u32) {
        let mut cols = TelemetryColumns::default();
        for &vm in vms {
            cols.push(vm, 0, &[7, 7]);
        }
        let meta = ChunkMeta {
            kind: ChunkKind::Telemetry,
            region,
            day: 0,
            seq,
            rows: cols.rows,
            min_vm: cols.min_vm,
            max_vm: cols.max_vm,
        };
        let (file, _) = encode_chunk_file(&meta, &cols.into_columns());
        std::fs::write(dir.join(meta.file_name()), &file).unwrap();
        manifest.chunks.push(ChunkEntry {
            meta,
            file_len: file.len() as u64,
            file_crc: crc32(&file),
        });
    }

    #[test]
    fn telemetry_past_the_vm_count_is_inconsistent() {
        // A run of vm 3 in a three-VM store: no scan of the store's VMs
        // visits it.
        let store = Store::new("past-count", |dir, manifest| {
            add_runs(dir, manifest, &[3], 0, 1)
        });
        for mode in [
            TelemetryMode::Resident,
            TelemetryMode::OutOfCore { cache_chunks: 0 },
        ] {
            let why = store.inconsistency(mode);
            assert!(
                why.contains(
                    "telemetry-r0-d0-1 holds telemetry for vm 3 but the store counts 3 VMs"
                ),
                "{why}"
            );
        }
    }

    #[test]
    fn runs_outside_their_vms_region_are_inconsistent() {
        for mode in [
            TelemetryMode::Resident,
            TelemetryMode::OutOfCore { cache_chunks: 0 },
        ] {
            let clean = Store::new("clean", |_, _| {});
            let reader = TraceReader::open(&clean.0).unwrap();
            let trace = reader.read_trace(mode, &Parallelism::with_workers(1));
            assert!(trace.is_ok(), "{mode:?}: {:?}", trace.err());
        }
        // A scan probes only a VM's own region's lanes. A chunk whose
        // first id is of another region is never probed; one that is
        // probed may still hold a run of another region's VM.
        let unprobed = Store::new("unprobed", |dir, m| add_runs(dir, m, &[1], 2, 0));
        assert_eq!(
            unprobed.inconsistency(TelemetryMode::Resident),
            "chunk telemetry-r2-d0-0 of region 2 holds a run of vm 1, which is not in it"
        );
        let probed = Store::new("probed", |dir, m| add_runs(dir, m, &[1, 2], 0, 1));
        assert_eq!(
            probed.inconsistency(TelemetryMode::Resident),
            "chunk telemetry-r0-d0-1 of region 0 holds a run of vm 2, which is not in it"
        );
    }

    #[test]
    fn a_present_vm_no_chunk_holds_is_inconsistent() {
        let store = Store::new("present-unheld", |_, manifest| {
            set_presence(manifest, &[true, true, true]);
        });
        assert_eq!(
            store.inconsistency(TelemetryMode::Resident),
            "vm 1 is marked present but no chunk holds its telemetry"
        );
    }

    #[test]
    fn runs_of_an_absent_vm_are_inconsistent() {
        let store = Store::new("absent-held", |_, manifest| {
            set_presence(manifest, &[true, false, false]);
        });
        assert_eq!(
            store.inconsistency(TelemetryMode::Resident),
            "vm 2 has telemetry runs but is marked absent"
        );
    }
}
