//! Streaming trace writer: partitions records into per-(region, day)
//! column chunks, encodes and writes sealed chunks in parallel, one task
//! per chunk, and commits the whole store with one atomic manifest
//! rename.
//!
//! Until `finish` succeeds the directory holds the previous store's
//! manifest (until the first chunk flush retires it) or no manifest at
//! all. So a crash mid-write can never yield a store that reads back
//! partially: readers trust only manifest-named chunks, and a manifest
//! names only chunks its own writer wrote.

use crate::blobs::{
    encode_presence, encode_subscriptions, encode_topology, BLOB_SUBSCRIPTIONS,
    BLOB_TELEMETRY_PRESENT, BLOB_TOPOLOGY,
};
use crate::chunk::{encode_chunk_file, ChunkKind, ChunkMeta, RawColumn};
use crate::columns::{TelemetryColumns, VmMetaColumns};
use crate::error::StoreError;
use crate::manifest::{ChunkEntry, Manifest, MANIFEST_NAME};
use cloudscope_model::durable::{sync_dir, write_atomic};
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::time::SAMPLE_INTERVAL_MINUTES;
use cloudscope_model::trace::Trace;
use cloudscope_model::vm::VmRecord;
use cloudscope_obs::counter;
use cloudscope_par::Parallelism;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Minutes per trace-week day.
const MINUTES_PER_DAY: i64 = 24 * 60;

/// The trace-week day (0..=6) a minute timestamp falls in. Times
/// before the window clamp to day 0, times after it to day 6 — the
/// day is a partitioning key, not an analysis quantity.
#[must_use]
pub(crate) fn day_of(minutes: i64) -> u8 {
    minutes.div_euclid(MINUTES_PER_DAY).clamp(0, 6) as u8
}

/// The day of the sample at minute `first`, and how many of the
/// `remaining >= 1` samples from it on (one every five minutes) share
/// that day. The next boundary is the following midnight; day 6 has
/// none, and a start before the week runs to the end of day 0 — the
/// same clamping as [`day_of`], without a division per sample.
fn day_run(first: i64, remaining: usize) -> (u8, usize) {
    let day = day_of(first);
    if day == 6 {
        return (day, remaining);
    }
    let boundary = (i64::from(day) + 1) * MINUTES_PER_DAY;
    // `first` lies before its day's end, so the distance is positive.
    let before_boundary = ((boundary - first) as u64).div_ceil(SAMPLE_INTERVAL_MINUTES as u64);
    (day, (remaining as u64).min(before_boundary) as usize)
}

/// Tuning knobs for [`TraceWriter`]: the chunk geometry. How each
/// column is coded is the format's, not an option (see `chunk`).
#[derive(Debug, Clone, Copy)]
pub struct WriteOptions {
    /// Rows per VM-metadata chunk before it seals.
    pub target_chunk_rows: u32,
    /// Buffered bytes per telemetry chunk before it seals.
    pub target_chunk_bytes: usize,
}

impl Default for WriteOptions {
    fn default() -> Self {
        Self {
            target_chunk_rows: 4096,
            target_chunk_bytes: 1 << 20,
        }
    }
}

/// A sealed chunk awaiting encoding and write-out.
#[derive(Debug)]
struct Sealed {
    meta: ChunkMeta,
    columns: Vec<RawColumn>,
}

/// Streaming writer for one trace directory.
///
/// Records must arrive in dense ascending VM-id order (the same
/// contract [`cloudscope_model::trace::TraceBuilder`] enforces), so
/// every chunk's rows are sorted and the manifest's id ranges support
/// binary-searched point loads. The store's byte content is a pure
/// function of the appended data and the options — worker count only
/// changes how fast chunks are encoded and written.
#[derive(Debug)]
pub struct TraceWriter<'p> {
    dir: PathBuf,
    opts: WriteOptions,
    par: &'p Parallelism,
    vm_open: BTreeMap<(u32, u8), VmMetaColumns>,
    tel_open: BTreeMap<(u32, u8), TelemetryColumns>,
    seqs: BTreeMap<(u8, u32, u8), u32>,
    pending: Vec<Sealed>,
    chunks: Vec<ChunkEntry>,
    present: Vec<bool>,
    blobs: Vec<(String, Vec<u8>)>,
    vm_count: u64,
}

impl<'p> TraceWriter<'p> {
    /// Opens `dir` (creating it) for writing a new trace. A store
    /// already committed there stays readable until the first chunk
    /// flush retires it.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn create(
        dir: impl Into<PathBuf>,
        opts: WriteOptions,
        par: &'p Parallelism,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        Ok(Self {
            dir,
            opts,
            par,
            vm_open: BTreeMap::new(),
            tel_open: BTreeMap::new(),
            seqs: BTreeMap::new(),
            pending: Vec::new(),
            chunks: Vec::new(),
            present: Vec::new(),
            blobs: Vec::new(),
            vm_count: 0,
        })
    }

    /// Appends one VM record and its telemetry (if any).
    ///
    /// # Errors
    /// [`StoreError::Inconsistent`] if ids do not arrive densely in
    /// order; [`StoreError::Io`] if a sealed chunk fails to write.
    pub fn append_vm(
        &mut self,
        vm: &VmRecord,
        util: Option<&UtilSeries>,
    ) -> Result<(), StoreError> {
        if vm.id.index() != self.vm_count {
            return Err(StoreError::Inconsistent(format!(
                "vm {} appended out of order (expected index {})",
                vm.id, self.vm_count
            )));
        }
        self.vm_count += 1;
        self.present.push(util.is_some());

        let region = vm.region.index();
        let meta_key = (region, day_of(vm.created.minutes()));
        let cols = self.vm_open.entry(meta_key).or_default();
        cols.push(vm);
        if cols.rows >= self.opts.target_chunk_rows {
            let cols = std::mem::take(cols);
            let extent = (cols.rows, cols.min_vm, cols.max_vm);
            self.seal(ChunkKind::VmMeta, meta_key, extent, cols.into_columns())?;
        }
        if let Some(series) = util {
            self.append_telemetry(region, vm.id.index(), series)?;
        }
        Ok(())
    }

    /// Splits a series into per-day contiguous runs and buffers them.
    fn append_telemetry(
        &mut self,
        region: u32,
        id: u64,
        series: &UtilSeries,
    ) -> Result<(), StoreError> {
        let quantized = series.as_quantized();
        let start = series.start().minutes();
        if quantized.is_empty() {
            // An empty series still differs from "no telemetry" (it has
            // a start time), so persist it as one zero-length run.
            let key = (region, day_of(start));
            self.tel_open.entry(key).or_default().push(id, start, &[]);
            return Ok(());
        }
        let mut i = 0usize;
        while i < quantized.len() {
            let run_start = start + i as i64 * SAMPLE_INTERVAL_MINUTES;
            let (day, run) = day_run(run_start, quantized.len() - i);
            let j = i + run;
            let key = (region, day);
            let cols = self.tel_open.entry(key).or_default();
            cols.push(id, run_start, &quantized[i..j]);
            if cols.buffered_bytes() >= self.opts.target_chunk_bytes {
                let cols = std::mem::take(cols);
                let extent = (cols.rows, cols.min_vm, cols.max_vm);
                self.seal(ChunkKind::Telemetry, key, extent, cols.into_columns())?;
            }
            i = j;
        }
        Ok(())
    }

    /// Queues a chunk of `kind` sealed in lane `key` — its rows, id
    /// range and columns — under the lane's next sequence number.
    fn seal(
        &mut self,
        kind: ChunkKind,
        key: (u32, u8),
        (rows, min_vm, max_vm): (u32, u64, u64),
        columns: Vec<RawColumn>,
    ) -> Result<(), StoreError> {
        let slot = self.seqs.entry((kind.tag(), key.0, key.1)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        let (region, day) = key;
        let meta = ChunkMeta {
            kind,
            region,
            day,
            seq,
            rows,
            min_vm,
            max_vm,
        };
        self.pending.push(Sealed { meta, columns });
        self.maybe_flush()
    }

    /// Flushes the pending batch once it is wide enough to keep every
    /// worker busy.
    fn maybe_flush(&mut self) -> Result<(), StoreError> {
        if self.pending.len() >= self.par.workers().max(2) * 2 {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Encodes and writes pending chunks in parallel, one task per chunk
    /// (its columns, the file's checksums and the durable write), then
    /// records their manifest entries in seal order, so the store's
    /// bytes remain a pure function of the appended data. Each worker
    /// holds one encoded file at a time.
    fn flush_pending(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.chunks.is_empty() {
            self.retire_committed_manifest()?;
        }
        let batch = std::mem::take(&mut self.pending);
        let dir = &self.dir;
        let written = self.par.par_map(&batch, |sealed| {
            let file = encode_chunk_file(&sealed.meta, &sealed.columns);
            let path = dir.join(sealed.meta.file_name());
            write_atomic(&path, &file.bytes).map_err(|e| StoreError::io(&path, e))?;
            let entry = ChunkEntry {
                meta: sealed.meta.clone(),
                file_len: file.bytes.len() as u64,
                file_crc: file.file_crc,
            };
            Ok::<_, StoreError>((entry, file.raw_total))
        });
        for outcome in written {
            let (entry, raw_total) = outcome?;
            counter("store.write.chunks").inc();
            counter("store.write.bytes_raw").add(raw_total);
            counter("store.write.bytes_compressed").add(entry.file_len);
            self.chunks.push(entry);
        }
        Ok(())
    }

    /// Removes a committed `manifest.csm` from the directory, durably,
    /// before the first chunk rename. Chunk names are deterministic, so
    /// the new chunks replace the committed store's; left in place, its
    /// manifest would name bytes it never wrote after a crash or an I/O
    /// error mid-rewrite. From then on the directory holds no store
    /// until `finish` commits the new one.
    fn retire_committed_manifest(&self) -> Result<(), StoreError> {
        let path = self.dir.join(MANIFEST_NAME);
        match std::fs::remove_file(&path) {
            Ok(()) => sync_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, e)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io(&path, e)),
        }
    }

    /// Attaches a named opaque blob to the manifest (topology,
    /// subscriptions, generator sidecars …).
    pub fn add_blob(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.blobs.push((name.into(), bytes));
    }

    /// Seals open buffers, flushes everything, and commits the
    /// manifest. The rename of `manifest.csm` is the commit point: one
    /// directory sync before it makes every chunk rename durable, one
    /// after it the commit itself.
    ///
    /// # Errors
    /// [`StoreError::Io`] on any write failure; nothing is committed.
    pub fn finish(mut self) -> Result<(), StoreError> {
        // A lane whose last chunk sealed holds an empty buffer: nothing
        // to seal.
        let open_vm = std::mem::take(&mut self.vm_open);
        for (key, cols) in open_vm.into_iter().filter(|(_, c)| c.rows > 0) {
            let extent = (cols.rows, cols.min_vm, cols.max_vm);
            self.seal(ChunkKind::VmMeta, key, extent, cols.into_columns())?;
        }
        let open_tel = std::mem::take(&mut self.tel_open);
        for (key, cols) in open_tel.into_iter().filter(|(_, c)| c.rows > 0) {
            let extent = (cols.rows, cols.min_vm, cols.max_vm);
            self.seal(ChunkKind::Telemetry, key, extent, cols.into_columns())?;
        }
        self.flush_pending()?;

        let mut blobs = std::mem::take(&mut self.blobs);
        blobs.push((
            BLOB_TELEMETRY_PRESENT.to_owned(),
            encode_presence(&self.present),
        ));
        let manifest = Manifest {
            vm_count: self.vm_count,
            chunks: std::mem::take(&mut self.chunks),
            blobs,
        };
        let dir_err = |e| StoreError::io(&self.dir, e);
        sync_dir(&self.dir).map_err(dir_err)?;
        let path = self.dir.join(MANIFEST_NAME);
        write_atomic(&path, &manifest.encode()).map_err(|e| StoreError::io(&path, e))?;
        sync_dir(&self.dir).map_err(dir_err)?;
        counter("store.write.manifest_commits").inc();
        Ok(())
    }
}

/// Writes a fully-resident trace to `dir` in one call: topology and
/// subscription blobs plus every record and series, committed by the
/// manifest rename.
///
/// # Errors
/// [`StoreError::Inconsistent`] before anything is written if the
/// topology does not fit the format (see [`encode_topology`]); any
/// other [`StoreError`] from the writer, with no manifest committed.
pub fn write_trace(
    trace: &Trace,
    dir: impl Into<PathBuf>,
    opts: WriteOptions,
    par: &Parallelism,
) -> Result<(), StoreError> {
    let topology = encode_topology(trace.topology())?;
    let mut w = TraceWriter::create(dir, opts, par)?;
    w.add_blob(BLOB_TOPOLOGY, topology);
    w.add_blob(
        BLOB_SUBSCRIPTIONS,
        encode_subscriptions(trace.subscriptions()),
    );
    trace.try_for_each_vm(|vm, util| w.append_vm(vm, util.as_ref()))?;
    w.finish()
}

/// Convenience for callers that only have a directory: `true` if a
/// committed manifest exists there.
#[must_use]
pub fn store_exists(dir: &Path) -> bool {
    dir.join(MANIFEST_NAME).is_file()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::col;
    use cloudscope_model::ids::{ClusterId, RegionId, ServiceId, SubscriptionId, VmId};
    use cloudscope_model::time::SimTime;
    use cloudscope_model::vm::{Priority, ServiceModel, VmSize};
    use proptest::prelude::*;

    /// Each column's id, declared width and raw and coded lengths, read
    /// off a well-formed v3 chunk file's directory.
    fn directory(file: &[u8]) -> Vec<(u16, u8, u32, u32)> {
        // Magic, then version, kind, region, day, seq, rows, min_vm and
        // max_vm: 8 + 2 + 1 + 4 + 1 + 4 + 4 + 8 + 8 bytes.
        let mut d = cloudscope_model::durable::Dec::new(&file[40..]);
        let columns = d.take_u16().unwrap();
        (0..columns)
            .map(|_| {
                let entry = (
                    d.take_u16().unwrap(),
                    d.take_u8().unwrap(),
                    d.take_u32().unwrap(),
                    d.take_u32().unwrap(),
                );
                d.take_u32().unwrap();
                entry
            })
            .collect()
    }

    #[test]
    fn samples_are_stored_raw_and_every_other_column_varint_coded() {
        let dir = std::env::temp_dir().join(format!("cs-store-widths-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let par = Parallelism::with_workers(2);
        let opts = WriteOptions {
            target_chunk_rows: 4_096,
            target_chunk_bytes: 256 << 10,
        };
        let mut w = TraceWriter::create(&dir, opts, &par).unwrap();
        let series = UtilSeries::from_levels(SimTime::ZERO, vec![100; 2_016]);
        for id in 0..600u64 {
            let vm = VmRecord {
                id: VmId::new(id),
                subscription: SubscriptionId::new(3),
                service: ServiceId::new(9),
                size: VmSize::new(4, 16.5),
                priority: Priority::OnDemand,
                service_model: ServiceModel::Iaas,
                region: RegionId::new(0),
                cluster: ClusterId::new(2),
                node: None,
                created: SimTime::from_minutes(-30),
                ended: None,
            };
            w.append_vm(&vm, Some(&series)).unwrap();
        }
        w.finish().unwrap();

        let (mut telemetry, mut vm_meta) = (0, 0);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !name.ends_with(".chunk") {
                continue;
            }
            let tel = name.starts_with("telemetry-");
            telemetry += usize::from(tel);
            vm_meta += usize::from(!tel);
            for (id, width, raw_len, coded_len) in directory(&std::fs::read(&path).unwrap()) {
                let want = match (tel, id) {
                    (true, col::TEL_SAMPLES) => 1,
                    (true, col::TEL_LEN) => 4,
                    (true, _) => 8,
                    (false, _) => [8, 4, 4, 4, 8, 1, 1, 4, 4, 1, 4, 8, 1, 8][usize::from(id)],
                };
                assert_eq!(width, want, "{name} column {id}");
                if width == 1 {
                    assert_eq!(coded_len, raw_len, "{name} column {id}");
                } else {
                    // Sorted ids and repeated values: a byte a word,
                    // past the first word's distance from zero.
                    let words = raw_len / u32::from(width);
                    assert!(coded_len <= words + 9, "{name} column {id}: {coded_len}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        // 600 weeks of samples: one chunk per day lane; and one metadata
        // chunk.
        assert_eq!((telemetry, vm_meta), (7, 1));
    }

    /// Splits by asking `day_of` about every sample: the rule
    /// [`day_run`] replaced, kept as its oracle.
    fn runs_per_sample(start: i64, len: usize) -> Vec<(u8, usize, usize)> {
        let at = |i: usize| start + i as i64 * SAMPLE_INTERVAL_MINUTES;
        let mut runs = Vec::new();
        let mut i = 0;
        while i < len {
            let day = day_of(at(i));
            let mut j = i + 1;
            while j < len && day_of(at(j)) == day {
                j += 1;
            }
            runs.push((day, i, j));
            i = j;
        }
        runs
    }

    fn runs_by_arithmetic(start: i64, len: usize) -> Vec<(u8, usize, usize)> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < len {
            let (day, run) = day_run(start + i as i64 * SAMPLE_INTERVAL_MINUTES, len - i);
            runs.push((day, i, i + run));
            i += run;
        }
        runs
    }

    #[test]
    fn a_week_from_the_origin_is_seven_day_long_runs() {
        let runs = runs_by_arithmetic(0, 2016);
        assert_eq!(runs.len(), 7);
        for (d, &(day, from, to)) in runs.iter().enumerate() {
            assert_eq!((day as usize, from, to), (d, d * 288, (d + 1) * 288));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn day_runs_equal_the_per_sample_rule(
            // Before the week, inside it and past its end (10 080),
            // on and off the 5-minute grid.
            start in -20_000i64..=20_000,
            len in 1usize..=4_500,
        ) {
            prop_assert_eq!(runs_by_arithmetic(start, len), runs_per_sample(start, len));
        }
    }
}
