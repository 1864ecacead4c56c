//! Streamed trace reading: manifest-driven chunk scans with column
//! projection and region/day predicate pushdown, plus full-trace
//! reconstruction in either resident or out-of-core telemetry mode.

use crate::blobs::{
    decode_presence, decode_subscriptions, decode_topology, BLOB_SUBSCRIPTIONS,
    BLOB_TELEMETRY_PRESENT, BLOB_TOPOLOGY,
};
use crate::chunk::{decode_chunk_file, ChunkKind};
use crate::columns::{decode_telemetry, decode_vm_meta, Batch, Projection};
use crate::error::StoreError;
use crate::manifest::{ChunkEntry, Manifest, MANIFEST_NAME};
use crate::source::StoreTelemetry;
use bytes::Bytes;
use cloudscope_model::durable::crc32;
use cloudscope_model::subscription::Subscription;
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::time::{SimTime, SAMPLE_INTERVAL_MINUTES};
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
    /// Restrict to one region.
    pub region: Option<u32>,
    /// Restrict to one trace-week day.
    pub day: Option<u8>,
    /// Restrict to days up to and including this one — the snapshot
    /// pushdown: a VM alive at time `t` was necessarily created on a
    /// (clamped) day `<= day_of(t)`, so chunks keyed by later creation
    /// days can be skipped without reading them.
    pub max_day: Option<u8>,
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

    /// Restricts the filter to `region`.
    #[must_use]
    pub fn region(mut self, region: u32) -> Self {
        self.region = Some(region);
        self
    }

    /// Restricts the filter to `day`.
    #[must_use]
    pub fn day(mut self, day: u8) -> Self {
        self.day = Some(day);
        self
    }

    /// Restricts the filter to days `<= day`.
    #[must_use]
    pub fn max_day(mut self, day: u8) -> Self {
        self.max_day = Some(day);
        self
    }

    fn matches(&self, entry: &ChunkEntry) -> bool {
        self.kind.is_none_or(|k| entry.meta.kind == k)
            && self.region.is_none_or(|r| entry.meta.region == r)
            && self.day.is_none_or(|d| entry.meta.day == d)
            && self.max_day.is_none_or(|d| entry.meta.day <= d)
    }
}

/// How [`TraceReader::read_trace`] serves telemetry.
#[derive(Debug, Clone, Copy)]
pub enum TelemetryMode {
    /// Decode every series up front and hold it in memory.
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
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The directory this reader serves.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total VM records in the store.
    #[must_use]
    pub fn vm_count(&self) -> u64 {
        self.manifest.vm_count
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

    /// Reads, verifies, and decodes one chunk, decompressing only the
    /// columns `projection` asks for.
    ///
    /// # Errors
    /// Any [`StoreError`] from I/O or validation; a failed chunk never
    /// yields partial rows.
    pub fn read_chunk(
        &self,
        entry: &ChunkEntry,
        projection: Projection,
    ) -> Result<Batch, StoreError> {
        self.read_chunk_with(entry, projection, None)
    }

    /// [`TraceReader::read_chunk`] with an optional [`Parallelism`] to
    /// fan the per-column sub-block decompression out across workers.
    /// Output is identical at any worker count.
    ///
    /// # Errors
    /// Any [`StoreError`] from I/O or validation.
    pub(crate) fn read_chunk_with(
        &self,
        entry: &ChunkEntry,
        projection: Projection,
        par: Option<&Parallelism>,
    ) -> Result<Batch, StoreError> {
        let path = self.dir.join(entry.meta.file_name());
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
        let wanted = projection.physical(entry.meta.kind);
        // The manifest whole-file CRC above already covered every byte,
        // so the decoder's footer-CRC pass would be a second scan of
        // the same bytes — skip it.
        let decoded = decode_chunk_file(&path, &name, &bytes, Some(&wanted), par, false)?;
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
        match entry.meta.kind {
            ChunkKind::VmMeta => Ok(Batch::VmMeta(decode_vm_meta(&path, &decoded)?)),
            ChunkKind::Telemetry => Ok(Batch::Telemetry(decode_telemetry(&path, decoded)?)),
        }
    }

    /// Streams decoded batches for every chunk matching `filter`, in
    /// commit order — the chunk-at-a-time iteration the out-of-core
    /// analyses drive. Memory high-water is one decoded chunk.
    pub fn scan<'a>(
        &'a self,
        filter: ScanFilter,
        projection: Projection,
    ) -> impl Iterator<Item = Result<Batch, StoreError>> + 'a {
        self.manifest
            .chunks
            .iter()
            .filter(move |e| filter.matches(e))
            .map(move |e| self.read_chunk(e, projection))
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
    /// This is the predicate-pushdown entry point for metadata-only
    /// analyses: a region or creation-day restriction skips
    /// non-matching chunks entirely — they are never read, CRC-checked,
    /// or decompressed — so a sliced scan costs proportionally fewer
    /// `store.read.chunks` than a full sweep. Unlike
    /// [`TraceReader::read_trace`], the result is *not* required to be
    /// dense: it holds exactly the records of the matching chunks.
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
            match self.read_chunk(entry, Projection::all())? {
                Batch::VmMeta(b) => b.records(),
                Batch::Telemetry(_) => unreachable!("filtered to vm-meta"),
            }
        });
        let batches = decoded.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Sized once: grown by doubling, a full trace's records leave
        // holes of half and a quarter their size behind in the heap.
        let mut records = Vec::with_capacity(batches.iter().map(Vec::len).sum());
        records.extend(batches.into_iter().flatten());
        records.sort_unstable_by_key(|r| r.id);
        Ok(records)
    }

    /// Reconstructs the full [`Trace`]. In `Resident` mode the result
    /// is bit-identical to the trace that was written (telemetry and
    /// all); in `OutOfCore` mode the telemetry column is replaced by a
    /// lazy [`StoreTelemetry`] source over this directory and only the
    /// presence bitmap stays in memory.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk decoding, or
    /// [`StoreError::Inconsistent`] if the decoded records do not
    /// assemble into a dense, valid trace.
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

        let mut builder = Trace::builder(topology);
        for sub in subscriptions {
            builder
                .add_subscription(sub)
                .map_err(|e| StoreError::Inconsistent(e.to_string()))?;
        }
        match mode {
            TelemetryMode::Resident => {
                let util = self.assemble_resident_telemetry(&present)?;
                builder
                    .add_vms_bulk(records, util, par)
                    .map_err(|e| StoreError::Inconsistent(e.to_string()))?;
                Ok(builder.build())
            }
            TelemetryMode::OutOfCore { cache_chunks: _ } => {
                // Records are sorted by dense id, so position = id.
                let vm_regions: Vec<u32> = records.iter().map(|r| r.region.index()).collect();
                builder
                    .add_vms_bulk(records, vec![None; vm_count], par)
                    .map_err(|e| StoreError::Inconsistent(e.to_string()))?;
                let mut trace = builder.build();
                let source = StoreTelemetry::open_with(&self.dir, *par)?;
                source.attach_vm_regions(vm_regions);
                trace
                    .attach_telemetry_source(present, Arc::new(source))
                    .map_err(|e| StoreError::Inconsistent(e.to_string()))?;
                Ok(trace)
            }
        }
    }

    /// Decodes every telemetry chunk and reassembles per-VM series
    /// from their per-day runs.
    fn assemble_resident_telemetry(
        &self,
        present: &[bool],
    ) -> Result<Vec<Option<UtilSeries>>, StoreError> {
        let mut runs: Vec<Vec<(i64, Bytes)>> = vec![Vec::new(); present.len()];
        for batch in self.scan(
            ScanFilter::all().kind(ChunkKind::Telemetry),
            Projection::all(),
        ) {
            let Batch::Telemetry(batch) = batch? else {
                unreachable!("filtered to telemetry");
            };
            let chunk = batch.chunk.clone();
            let (ids, starts, samples) = batch.into_columns()?;
            for ((id, start), bytes) in ids.iter().zip(starts).zip(samples) {
                let slot = runs.get_mut(id.as_usize()).ok_or_else(|| {
                    StoreError::Inconsistent(format!(
                        "chunk {chunk}: telemetry for unknown vm {id}"
                    ))
                })?;
                slot.push((start.minutes(), bytes));
            }
        }
        let mut out = Vec::with_capacity(present.len());
        for (idx, (mut vm_runs, &has)) in runs.into_iter().zip(present).enumerate() {
            if vm_runs.is_empty() {
                if has {
                    return Err(StoreError::Inconsistent(format!(
                        "vm {idx} is marked present but no chunk holds its telemetry"
                    )));
                }
                out.push(None);
                continue;
            }
            if !has {
                return Err(StoreError::Inconsistent(format!(
                    "vm {idx} has telemetry runs but is marked absent"
                )));
            }
            out.push(Some(
                assemble_series(idx as u64, &mut vm_runs).map_err(StoreError::Inconsistent)?,
            ));
        }
        Ok(out)
    }
}

/// Concatenates one VM's per-day runs back into its series, verifying
/// the runs tile the sample grid exactly.
pub(crate) fn assemble_series(id: u64, runs: &mut [(i64, Bytes)]) -> Result<UtilSeries, String> {
    runs.sort_by_key(|(start, _)| *start);
    let first_start = runs[0].0;
    let mut expected_next = first_start;
    let total: usize = runs.iter().map(|(_, b)| b.len()).sum();
    let mut samples = Vec::with_capacity(total);
    for (start, bytes) in runs.iter() {
        if *start != expected_next {
            return Err(format!(
                "vm {id}: telemetry run starts at minute {start} but the previous run ends at {expected_next}"
            ));
        }
        expected_next = start + bytes.len() as i64 * SAMPLE_INTERVAL_MINUTES;
        samples.extend_from_slice(bytes);
    }
    Ok(UtilSeries::from_quantized(
        SimTime::from_minutes(first_start),
        Bytes::from(samples),
    ))
}
