//! The store's one telemetry read path: a [`TelemetrySource`] that
//! reads per-VM utilization series from the chunk store in stored
//! order, holding one decoded chunk per `(region, day)` lane. A `Trace`
//! re-pointed at it keeps only VM metadata and a presence bitmap
//! resident, and every analysis observes bit-identical samples; a
//! resident read is one ascending scan of it, collected.
//!
//! # Lanes and the cursor
//!
//! The writer appends VMs in ascending id order, so the chunks of one
//! `(region, day)` lane cover ascending, disjoint id ranges, and a VM's
//! series is one run from each day lane of its own region. Reading ids
//! in ascending order therefore walks every lane forward, and the only
//! decoded state worth keeping is **the chunk each lane is currently
//! on** — the per-lane cursor, replaced when a read lands on another
//! chunk of that lane, never because another lane was touched more
//! recently. An ascending reader decodes each chunk it needs once, and
//! consecutive ascending scans continue where the last one stopped.
//!
//! # One scan, one pipeline
//!
//! [`StoreTelemetry::try_scan`] is the only read path (`try_load` is a
//! scan of one id). A scan takes the cursors out of their mutex while it
//! runs and rehearses its walk on the resident per-chunk id index —
//! manifest id ranges first, an ids-only read where the index is
//! cold — to list the chunks it must decode, in the order it will
//! need them. A chunk that holds no requested id, or that its lane is
//! already on, is not listed.
//!
//! With fewer than two chunks listed, or one worker, the scan decodes on
//! the calling thread. Otherwise `d = min(workers, READAHEAD_CHUNKS,
//! chunks)` decoder threads, scoped to the scan, each decode entries
//! `i, i + d, i + 2d, …` of the list into a bounded channel of their
//! own, and the consumer takes the *k*-th chunk it needs from channel
//! `k mod d`. What the reader promises follows from that shape, with no
//! state shared between the threads:
//!
//! - **Order**: channels are FIFO and drained round-robin, so chunks
//!   arrive in list order however the decodes finish.
//! - **Memory**: a decoder holds one chunk in hand and its channel
//!   `READAHEAD_CHUNKS / d − 1` more: at most `d × ⌊READAHEAD_CHUNKS /
//!   d⌋ ≤ READAHEAD_CHUNKS` decoded and unconsumed, plus one per lane.
//! - **Errors**: a failed decode travels down the channel in its
//!   chunk's place, so the read that needed the chunk receives the
//!   [`StoreError`] naming file and chunk; every series before it was
//!   delivered whole, nothing after it is, and nothing is parked — a
//!   retry decodes afresh. (`scan` and `load` return no `Result` and
//!   panic with it: silence is the data loss this store exists to stop.)
//! - **Lifetime**: a consumer that stops early — a typed error, a panic
//!   in `visit` — drops the receivers, each decoder's next `send` fails,
//!   and the scan joins every decoder by handle before it returns.
//!
//! The price: point loads plan one VM at a time, so nothing decodes ahead
//! of a loop of them. Whatever reads many VMs hands one scan their ids.

use crate::chunk::ChunkKind;
use crate::columns::{col, decode_ids, decode_telemetry};
use crate::error::StoreError;
use crate::manifest::ChunkEntry;
use crate::reader::{read_chunk, TraceReader};
use bytes::Bytes;
use cloudscope_model::ids::VmId;
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::time::{SimTime, SAMPLE_INTERVAL_MINUTES};
use cloudscope_model::trace::TelemetrySource;
use cloudscope_model::vm::VmRecord;
use cloudscope_obs::{Counter, Histogram, Registry};
use cloudscope_par::Parallelism;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Chunks that may be decoding, or decoded and not yet consumed, ahead
/// of the reader. A constant: enough to keep a small machine's workers
/// busy, and a bound on what readahead adds to the one chunk per lane.
const READAHEAD_CHUNKS: usize = 4;

/// One decoded telemetry chunk. Row order matches the chunk's id column
/// (held separately in the id index).
#[derive(Debug)]
struct DecodedChunk {
    starts: Vec<SimTime>,
    samples: Vec<Bytes>,
}

/// What a decode yields, on whichever thread it ran.
type Decoded = Result<DecodedChunk, StoreError>;

/// One lane's decoded state: the chunk it is on, by index into the
/// telemetry entry table.
type Cursor = Option<(usize, DecodedChunk)>;

/// Metric handles resolved at open, so every recording — decoder
/// threads' too — lands in the opener's registry, from zero.
///
/// A decode on the consuming thread is one `cache.misses`; one on a
/// decoder thread is one `prefetch.issued` and one `prefetch.decode_ns`,
/// then `misses` and `prefetch.hits` when the consumer takes it, or
/// `prefetch.wasted` if it never does.
#[derive(Debug)]
struct Metrics {
    cache_hits: Counter,
    cache_misses: Counter,
    evictions: Counter,
    series_loaded: Counter,
    prefetch_issued: Counter,
    prefetch_hits: Counter,
    prefetch_wasted: Counter,
    prefetch_decode_ns: Histogram,
}

impl Metrics {
    fn resolve(reg: &Registry) -> Self {
        Self {
            cache_hits: reg.counter("store.cache.hits"),
            cache_misses: reg.counter("store.cache.misses"),
            evictions: reg.counter("store.cache.evictions"),
            series_loaded: reg.counter("store.read.series_loaded"),
            prefetch_issued: reg.counter("store.prefetch.issued"),
            prefetch_hits: reg.counter("store.prefetch.hits"),
            prefetch_wasted: reg.counter("store.prefetch.wasted"),
            prefetch_decode_ns: reg.histogram("store.prefetch.decode_ns"),
        }
    }
}

/// Lazy telemetry over a committed trace directory.
#[derive(Debug)]
pub struct StoreTelemetry {
    /// The store directory.
    dir: PathBuf,
    /// Telemetry chunk entries, in manifest order.
    entries: Vec<ChunkEntry>,
    /// Per-chunk sorted id membership, filled by a full decode or, if
    /// asked for first, by an ids-only read. VM ids are contiguous per
    /// *subscription*, not per region, so the id ranges of different
    /// regions' chunks interleave — without this index a sparse scan
    /// would decode every range-overlapping chunk just to miss its
    /// binary search. The only per-chunk state that stays resident:
    /// 8 bytes per telemetry run, ~1% of the samples.
    ids: Vec<OnceLock<Vec<VmId>>>,
    /// Chunk indices per `(region, day)` lane, in ascending id order.
    lanes: Vec<Vec<usize>>,
    /// Lanes per region.
    by_region: HashMap<u32, Vec<usize>>,
    /// Dense VM-id → region map: a lookup probes only its VM's region's
    /// lanes.
    vm_regions: Vec<u32>,
    par: Parallelism,
    /// The opener's registry, which decoder threads record under.
    registry: Arc<Registry>,
    metrics: Metrics,
    /// One cursor per lane between scans; empty while a scan has them
    /// (a concurrent scan starts cold; the last to finish leaves its own).
    cursors: Mutex<Vec<Cursor>>,
}

impl StoreTelemetry {
    /// The telemetry source over `reader`'s store. `records` are the
    /// store's VM records in id order ([`TraceReader::read_vm_records`]
    /// over every chunk): a VM's telemetry lives only in its own
    /// region's lanes, so a lookup probes ~`days` lanes, not all, and
    /// never forces an ids-only read of another region's chunk. `par`
    /// bounds the decoder threads of a scan; every worker count returns
    /// byte-identical series.
    ///
    /// # Errors
    /// [`StoreError::Inconsistent`] if `records` do not count the
    /// store's VMs, a lane's chunks do not cover ascending id ranges, or
    /// a chunk holds ids past the VM count.
    pub fn new(
        reader: &TraceReader,
        records: &[VmRecord],
        par: Parallelism,
    ) -> Result<Self, StoreError> {
        let manifest = reader.manifest();
        if records.len() as u64 != manifest.vm_count {
            return Err(StoreError::Inconsistent(format!(
                "{} VM records for a store of {} VMs",
                records.len(),
                manifest.vm_count
            )));
        }
        let entries: Vec<ChunkEntry> = manifest
            .chunks
            .iter()
            .filter(|e| e.meta.kind == ChunkKind::Telemetry)
            .cloned()
            .collect();
        // Chunk ids run exactly from `min_vm` to `max_vm` (checked at
        // decode), so no scan of the store's VMs misses a run.
        if let Some(entry) = entries.iter().find(|e| e.meta.max_vm >= manifest.vm_count) {
            return Err(StoreError::Inconsistent(format!(
                "chunk {} holds telemetry for vm {} but the store counts {} VMs",
                entry.meta.name(),
                entry.meta.max_vm,
                manifest.vm_count
            )));
        }

        let mut by_key: BTreeMap<(u32, u8), Vec<usize>> = BTreeMap::new();
        for (idx, entry) in entries.iter().enumerate() {
            by_key
                .entry((entry.meta.region, entry.meta.day))
                .or_default()
                .push(idx);
        }
        let mut lanes = Vec::with_capacity(by_key.len());
        let mut by_region: HashMap<u32, Vec<usize>> = HashMap::new();
        for ((region, _), mut chunks) in by_key {
            chunks.sort_by_key(|&c| entries[c].meta.seq);
            // Lookups binary-search a lane by id range, so the ranges
            // must ascend — the writer guarantees it, a file may not.
            if let Some(pair) = chunks
                .windows(2)
                .find(|pair| entries[pair[0]].meta.max_vm >= entries[pair[1]].meta.min_vm)
            {
                return Err(StoreError::Inconsistent(format!(
                    "chunks {} and {} of one lane overlap in VM id",
                    entries[pair[0]].meta.name(),
                    entries[pair[1]].meta.name()
                )));
            }
            by_region.entry(region).or_default().push(lanes.len());
            lanes.push(chunks);
        }

        let registry = cloudscope_obs::current();
        Ok(Self {
            dir: reader.dir().to_path_buf(),
            ids: entries.iter().map(|_| OnceLock::new()).collect(),
            entries,
            lanes,
            by_region,
            vm_regions: records.iter().map(|r| r.region.index()).collect(),
            par,
            metrics: Metrics::resolve(&registry),
            registry,
            cursors: Mutex::new(Vec::new()),
        })
    }

    /// Visits the series of every VM in `ids` (strictly ascending) that
    /// has telemetry, in order, decoding each chunk that holds one of
    /// them at most once. A chunk that fails to read or validate stops
    /// the scan at the first VM that needed it — whichever thread met
    /// the damage first — and no partial series is delivered.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk I/O or validation, naming the chunk.
    pub fn try_scan(
        &self,
        ids: &[VmId],
        visit: &mut dyn FnMut(VmId, UtilSeries),
    ) -> Result<(), StoreError> {
        debug_assert!(
            ids.windows(2).all(|pair| pair[0] < pair[1]),
            "scan ids must be strictly ascending"
        );
        // Taken, not cloned: a clone would keep every chunk the scan
        // moves past alive until it ends.
        let mut cursors = std::mem::take(&mut *self.lock());
        cursors.resize_with(self.lanes.len(), || None);
        let outcome = self.scan_from(&mut cursors, ids, visit);
        *self.lock() = cursors;
        outcome
    }

    /// The series for `id` — a scan of one id — or the typed error.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk I/O or validation.
    pub fn try_load(&self, id: VmId) -> Result<Option<UtilSeries>, StoreError> {
        let mut loaded = None;
        self.try_scan(&[id], &mut |_, series| loaded = Some(series))?;
        Ok(loaded)
    }

    /// After a scan of every VM id: fails on a run that scan could not
    /// reach, one stored in a lane of a region other than its VM's. A probe of a chunk's first id — a VM of the
    /// chunk's region, unless the chunk is stray — fills its id index,
    /// so a chunk still unindexed is stray too.
    ///
    /// # Errors
    /// [`StoreError::Inconsistent`] naming the chunk and the VM.
    pub(crate) fn check_no_stray_runs(&self) -> Result<(), StoreError> {
        let regions = &self.vm_regions;
        for (entry, ids) in self.entries.iter().zip(&self.ids) {
            let region = entry.meta.region;
            let stray = match ids.get() {
                None => Some(entry.meta.min_vm),
                Some(ids) => ids
                    .iter()
                    .find(|id| regions.get(id.as_usize()) != Some(&region))
                    .map(|id| id.index()),
            };
            if let Some(vm) = stray {
                return Err(StoreError::Inconsistent(format!(
                    "chunk {} of region {region} holds a run of vm {vm}, which is not in it",
                    entry.meta.name()
                )));
            }
        }
        Ok(())
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Cursor>> {
        self.cursors
            .lock()
            .expect("the cursor lock is never held while a chunk decodes or a visitor runs")
    }

    /// Plans the scan, then walks it: decoding on this thread when there
    /// is nothing to overlap, else fed by decoder threads it starts.
    fn scan_from(
        &self,
        cursors: &mut [Cursor],
        ids: &[VmId],
        visit: &mut dyn FnMut(VmId, UtilSeries),
    ) -> Result<(), StoreError> {
        let plan = self.plan(cursors, ids)?;
        let decoders = self.par.workers().min(READAHEAD_CHUNKS).min(plan.len());
        if decoders < 2 {
            let mut inline = |chunk| self.decode_chunk(chunk);
            return self.walk(cursors, ids, &mut inline, visit);
        }
        std::thread::scope(|scope| {
            let (feeds, handles): (Vec<_>, Vec<_>) = (0..decoders)
                .map(|first| {
                    let (feed, fed) = sync_channel(READAHEAD_CHUNKS / decoders - 1);
                    let share = plan[first..].iter().step_by(decoders);
                    (fed, scope.spawn(move || self.decode_ahead(share, &feed)))
                })
                .unzip();
            let mut taken = 0;
            let mut take = |chunk| {
                // Serving rows of another chunk would be silent damage.
                assert_eq!(plan.get(taken), Some(&chunk), "the walk left its plan");
                let decoded = feeds[taken % decoders]
                    .recv()
                    .expect("a decoder sends every chunk of its share");
                taken += 1;
                self.metrics.prefetch_hits.inc();
                decoded
            };
            let walk = AssertUnwindSafe(|| self.walk(cursors, ids, &mut take, visit));
            let outcome = catch_unwind(walk);
            // However the walk ended, the decoders' next send now fails.
            drop(feeds);
            // Joined by handle for the reason `par_map` gives: the scope
            // returns once the closures have, before the OS threads have
            // exited and handed their allocator arenas back.
            let mut decoded = 0;
            for handle in handles {
                decoded += handle.join().unwrap_or_else(|panic| resume_unwind(panic));
            }
            self.metrics.prefetch_wasted.add(decoded - taken as u64);
            outcome.unwrap_or_else(|panic| resume_unwind(panic))
        })
    }

    /// A decoder thread: decodes its share of the plan in order into
    /// `feed` until the share or the consumer ends, and returns how
    /// many chunks it decoded.
    fn decode_ahead<'a>(
        &self,
        share: impl Iterator<Item = &'a usize>,
        feed: &SyncSender<Decoded>,
    ) -> u64 {
        cloudscope_obs::scoped(&self.registry, || {
            let mut decoded = 0;
            for &chunk in share {
                let started = Instant::now();
                let result = self.decode_chunk(chunk);
                let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.metrics.prefetch_decode_ns.observe(elapsed);
                self.metrics.prefetch_issued.inc();
                decoded += 1;
                if feed.send(result).is_err() {
                    break;
                }
            }
            decoded
        })
    }

    /// Refills `hits` with `(lane, chunk, row)` for every chunk that
    /// holds a run of `id`: its region's lanes, each narrowed to the one
    /// chunk whose id range covers `id`, then checked against the id
    /// index. No chunk body is decoded here.
    fn probe(&self, id: VmId, hits: &mut Vec<(usize, usize, usize)>) -> Result<(), StoreError> {
        hits.clear();
        let raw = id.index();
        let Some(lanes) = self
            .vm_regions
            .get(id.as_usize())
            .and_then(|region| self.by_region.get(region))
        else {
            return Ok(());
        };
        for &lane in lanes {
            let chunks = &self.lanes[lane];
            let at = chunks.partition_point(|&c| self.entries[c].meta.max_vm < raw);
            let Some(&chunk) = chunks.get(at) else {
                continue;
            };
            if self.entries[chunk].meta.min_vm > raw {
                continue;
            }
            if let Ok(row) = self.chunk_ids(chunk)?.binary_search(&id) {
                hits.push((lane, chunk, row));
            }
        }
        Ok(())
    }

    /// The chunks a walk of `ids` from `cursors` will decode, in the
    /// order it will ask for them: every lane move of the same walk,
    /// rehearsed on chunk indices alone.
    fn plan(&self, cursors: &[Cursor], ids: &[VmId]) -> Result<Vec<usize>, StoreError> {
        let mut on: Vec<Option<usize>> = cursors
            .iter()
            .map(|cursor| cursor.as_ref().map(|(chunk, _)| *chunk))
            .collect();
        let (mut hits, mut plan) = (Vec::new(), Vec::new());
        for &id in ids {
            self.probe(id, &mut hits)?;
            for &(lane, chunk, _) in &hits {
                if on[lane].replace(chunk) != Some(chunk) {
                    plan.push(chunk);
                }
            }
        }
        Ok(plan)
    }

    /// Walks `ids`, moving each lane's cursor onto the chunk a read
    /// lands on — `fetch` supplies it, decoded — and visits each
    /// assembled series.
    fn walk(
        &self,
        cursors: &mut [Cursor],
        ids: &[VmId],
        fetch: &mut dyn FnMut(usize) -> Decoded,
        visit: &mut dyn FnMut(VmId, UtilSeries),
    ) -> Result<(), StoreError> {
        let (mut hits, mut runs) = (Vec::new(), Vec::new());
        for &id in ids {
            self.probe(id, &mut hits)?;
            for &(lane, chunk, row) in &hits {
                let cursor = &mut cursors[lane];
                if matches!(cursor, Some((on, _)) if *on == chunk) {
                    self.metrics.cache_hits.inc();
                } else {
                    self.metrics.cache_misses.inc();
                    if cursor.replace((chunk, fetch(chunk)?)).is_some() {
                        self.metrics.evictions.inc();
                    }
                }
                let (_, decoded) = cursor.as_ref().expect("the lane is on `chunk`");
                runs.push((decoded.starts[row].minutes(), decoded.samples[row].clone()));
            }
            if runs.is_empty() {
                continue;
            }
            let series =
                assemble_series(id.index(), &mut runs).map_err(StoreError::Inconsistent)?;
            runs.clear();
            self.metrics.series_loaded.inc();
            visit(id, series);
        }
        Ok(())
    }

    /// The sorted id column of the telemetry chunk at `idx`: from the
    /// resident index, else through an ids-only read (the id column
    /// decodes alone). A lost set race only duplicates that one
    /// cheap read.
    fn chunk_ids(&self, idx: usize) -> Result<&[VmId], StoreError> {
        if let Some(ids) = self.ids[idx].get() {
            return Ok(ids);
        }
        let ids = read_chunk(&self.dir, &self.entries[idx], Some(&[col::ID]), decode_ids)?;
        Ok(self.ids[idx].get_or_init(|| ids))
    }

    /// Fully decodes the chunk at `idx` on the calling thread, filling
    /// the resident id index as a side effect.
    fn decode_chunk(&self, idx: usize) -> Decoded {
        let (ids, starts, samples) =
            read_chunk(&self.dir, &self.entries[idx], None, decode_telemetry)?;
        let _ = self.ids[idx].set(ids);
        Ok(DecodedChunk { starts, samples })
    }
}

/// Concatenates one VM's per-day runs back into its series, verifying
/// the runs tile the sample grid exactly.
fn assemble_series(id: u64, runs: &mut [(i64, Bytes)]) -> Result<UtilSeries, String> {
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

impl TelemetrySource for StoreTelemetry {
    /// Presence without materializing samples: manifest id-range
    /// pruning plus the resident id index. Only the ids-only read
    /// happens on a cold index — sample payloads are never decoded.
    fn has(&self, id: VmId) -> bool {
        let mut hits = Vec::new();
        if let Err(e) = self.probe(id, &mut hits) {
            panic!("out-of-core telemetry presence check for {id} failed: {e}");
        }
        !hits.is_empty()
    }

    fn load(&self, id: VmId) -> Option<UtilSeries> {
        self.try_load(id)
            .unwrap_or_else(|e| panic!("out-of-core telemetry load for {id} failed: {e}"))
    }

    fn scan(&self, ids: &[VmId], visit: &mut dyn FnMut(VmId, UtilSeries)) {
        if let Err(e) = self.try_scan(ids, visit) {
            panic!("out-of-core telemetry scan failed: {e}");
        }
    }
}
