//! The out-of-core telemetry source: a [`TelemetrySource`] that reads
//! per-VM utilization series from the chunk store in stored order,
//! holding one decoded chunk per `(region, day)` lane.
//!
//! A `Trace` re-pointed at this source keeps only VM metadata and a
//! presence bitmap resident; every analysis pulls its series through
//! here and observes bit-identical samples.
//!
//! # Lanes and the cursor
//!
//! The writer appends VMs in ascending id order, so the chunks of one
//! `(region, day)` lane cover ascending, disjoint id ranges, and a VM's
//! series is one run from each day lane of its own region. Reading ids
//! in ascending order therefore walks every lane forward, and the only
//! decoded state worth keeping is **the chunk each lane is currently
//! on** — the per-lane cursor. A lane's slot is replaced when a read
//! lands on another chunk of that lane, never because some other lane
//! was touched more recently, so:
//!
//! - any ascending reader — [`TelemetrySource::scan`], or a loop of
//!   [`TelemetrySource::load`] / `Trace::util` such as `write_trace` or
//!   an export — decodes each chunk it needs exactly once;
//! - consecutive ascending scans continue where the last one stopped
//!   (a batch boundary costs nothing);
//! - a store with one chunk per lane stays fully decoded after the
//!   first pass.
//!
//! An LRU over the same number of chunks is the wrong policy even for
//! ordered access: sparse lanes lose their current chunk to recency
//! while dense lanes are being read, and an ascending sweep of only the
//! private VMs of the medium trace missed 259 times against 106 chunks
//! (284 for the public VMs). Point loads in an order of the caller's
//! choosing made it far worse — the whole pipeline decoded every chunk
//! about 313 times.
//!
//! # Scans
//!
//! [`StoreTelemetry::try_scan`] first resolves which chunks hold a run
//! of any requested id — manifest id ranges, then the resident per-chunk
//! id index (an ids-only projected read fills a cold index) — in the
//! order the scan will first need them. It then walks the ids, keeping
//! the next [`READAHEAD_CHUNKS`] chunks of that plan decoding on a small
//! background pool while the consumer works. A chunk that holds no
//! requested id is never decoded, and one that does is decoded at most
//! once per scan. A loop of `load` calls cannot know what comes next, so
//! after each lane move it reads ahead the successors of the lanes whose
//! current chunk ends soonest, under the same bound.
//!
//! Corruption is never silent and never reordered: a decode that fails
//! on a readahead worker parks its [`StoreError`] in the lane's slot and
//! the consumer that needed the chunk receives it, naming file and
//! chunk; no short series is ever delivered. `scan` and `load` return
//! no `Result`, and mapping a corrupt chunk to "no telemetry" would be
//! exactly the quiet data loss this store exists to prevent, so they
//! panic with that message; [`StoreTelemetry::try_scan`] and
//! [`StoreTelemetry::try_load`] return the typed error.

use crate::chunk::ChunkKind;
use crate::columns::{Batch, Projection};
use crate::error::StoreError;
use crate::manifest::ChunkEntry;
use crate::reader::{assemble_series, ScanFilter, TraceReader};
use bytes::Bytes;
use cloudscope_model::ids::VmId;
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::trace::TelemetrySource;
use cloudscope_obs::{Counter, Gauge, Histogram};
use cloudscope_par::{Parallelism, PoolHandle, TaskPool};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Chunks that may be decoding, or decoded and not yet consumed, ahead
/// of the reader. A constant: enough to keep the decode workers of a
/// small machine busy, and at 128 KiB–1 MiB a chunk it bounds the
/// memory readahead can add beyond the one chunk per lane.
const READAHEAD_CHUNKS: usize = 4;

const LOCK_POISONED: &str = "a reader panicked while holding the store cursor lock";

/// One decoded telemetry chunk. Row order matches the chunk's id column
/// (held separately in the id index).
#[derive(Debug)]
struct DecodedChunk {
    starts: Vec<i64>,
    samples: Vec<Bytes>,
}

/// A chunk read ahead of the consumer: the rendezvous between a decode
/// worker and the read that will need the chunk.
#[derive(Debug)]
enum Ahead {
    Running,
    Ready(Arc<DecodedChunk>),
    Failed(StoreError),
}

/// One lane's decoded state: the chunk it is on, and at most one chunk
/// read ahead. Both hold indices into the telemetry entry table.
#[derive(Debug, Default)]
struct Cursor {
    current: Option<(usize, Arc<DecodedChunk>)>,
    ahead: Option<(usize, Ahead)>,
}

/// Mutable read state, guarded by one mutex.
#[derive(Debug)]
struct State {
    cursors: Vec<Cursor>,
    /// Readaheads still decoding (the `store.prefetch.in_flight` gauge).
    running: usize,
}

/// Metric handles resolved once at open time, so every recording —
/// including those from pool worker threads and the final drop —
/// lands in the opener's registry, and every metric exists (at zero)
/// from the moment the source opens.
///
/// Every full chunk decode is either a `cache.misses` on the consuming
/// thread or a `prefetch.decode_ns` observation on a worker; a consumed
/// readahead counts one `misses` and one `prefetch.hits`.
#[derive(Debug)]
struct Metrics {
    cache_hits: Counter,
    cache_misses: Counter,
    evictions: Counter,
    series_loaded: Counter,
    prefetch_issued: Counter,
    prefetch_hits: Counter,
    prefetch_wasted: Counter,
    prefetch_in_flight: Gauge,
    prefetch_decode_ns: Histogram,
}

impl Metrics {
    fn resolve() -> Self {
        let reg = cloudscope_obs::current();
        Self {
            cache_hits: reg.counter("store.cache.hits"),
            cache_misses: reg.counter("store.cache.misses"),
            evictions: reg.counter("store.cache.evictions"),
            series_loaded: reg.counter("store.read.series_loaded"),
            prefetch_issued: reg.counter("store.prefetch.issued"),
            prefetch_hits: reg.counter("store.prefetch.hits"),
            prefetch_wasted: reg.counter("store.prefetch.wasted"),
            prefetch_in_flight: reg.gauge("store.prefetch.in_flight"),
            prefetch_decode_ns: reg.histogram("store.prefetch.decode_ns"),
        }
    }
}

/// Everything the reader shares with the decode workers. Worker jobs
/// hold only a [`Weak`](std::sync::Weak) reference, so the pool can
/// always be joined without a job keeping `Inner` alive.
#[derive(Debug)]
struct Inner {
    reader: TraceReader,
    /// Telemetry chunk entries, in manifest order.
    entries: Vec<ChunkEntry>,
    /// Per-chunk sorted id membership. Populated by any full decode of
    /// the chunk or, when membership is asked before the chunk body is
    /// needed, by a cheap ids-only projected read. VM ids are contiguous
    /// per *subscription*, not per region, so the `min_vm..max_vm`
    /// ranges of different regions' chunks interleave — without this
    /// index a sparse scan would decompress every range-overlapping
    /// chunk just to miss its binary search. The index is the only
    /// per-chunk state that stays resident: 8 bytes per telemetry run,
    /// ~1% of the samples.
    ids: Vec<OnceLock<Vec<VmId>>>,
    /// Chunk indices per `(region, day)` lane, in ascending id order.
    lanes: Vec<Vec<usize>>,
    /// The lane each chunk belongs to.
    lane_of: Vec<usize>,
    /// Lanes per region.
    by_region: HashMap<u32, Vec<usize>>,
    /// Every lane: what a lookup probes without a region map.
    all_lanes: Vec<usize>,
    /// Dense VM-id → region map, when the opener already holds the
    /// metadata (the `read_trace` path always does). A VM's telemetry
    /// lives only in its own region's lanes, so with this map a lookup
    /// probes ~`days` lanes instead of all of them — which also stops
    /// cross-region probes from forcing ids-only reads of chunks that
    /// no requested VM can be in.
    vm_regions: OnceLock<Vec<u32>>,
    par: Parallelism,
    /// Submits readahead decodes to the pool [`StoreTelemetry`] owns.
    readahead: PoolHandle,
    metrics: Metrics,
    state: Mutex<State>,
    /// Signalled whenever a readahead stops `Running`.
    ready: Condvar,
}

/// Lazy telemetry over a committed trace directory.
#[derive(Debug)]
pub struct StoreTelemetry {
    /// Declared (and therefore dropped) before `inner`: dropping the
    /// pool joins the workers, so no decode job can outlive the state
    /// it records into, and `Inner` settles its accounts last.
    _pool: TaskPool,
    inner: Arc<Inner>,
}

impl StoreTelemetry {
    /// Opens the store at `dir` as a telemetry source, decoding with
    /// the default [`Parallelism`].
    ///
    /// # Errors
    /// Any [`StoreError`] from [`TraceReader::open`], or
    /// [`StoreError::Inconsistent`] if a lane's chunks do not cover
    /// ascending id ranges.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, Parallelism::default())
    }

    /// [`StoreTelemetry::open`] with an explicit `par`, which fans out
    /// sub-block decompression inside each chunk decode and sizes the
    /// readahead pool. Every worker count returns byte-identical series.
    ///
    /// # Errors
    /// Same as [`StoreTelemetry::open`].
    pub fn open_with(dir: impl AsRef<Path>, par: Parallelism) -> Result<Self, StoreError> {
        let reader = TraceReader::open(dir.as_ref())?;
        let entries: Vec<ChunkEntry> = reader
            .chunks(ScanFilter::all().kind(ChunkKind::Telemetry))
            .cloned()
            .collect();

        let mut by_key: BTreeMap<(u32, u8), Vec<usize>> = BTreeMap::new();
        for (idx, entry) in entries.iter().enumerate() {
            by_key
                .entry((entry.meta.region, entry.meta.day))
                .or_default()
                .push(idx);
        }
        let mut lanes = Vec::with_capacity(by_key.len());
        let mut lane_of = vec![0; entries.len()];
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
            for &c in &chunks {
                lane_of[c] = lanes.len();
            }
            by_region.entry(region).or_default().push(lanes.len());
            lanes.push(chunks);
        }

        let pool = TaskPool::new(par.workers().min(READAHEAD_CHUNKS));
        let inner = Arc::new(Inner {
            reader,
            ids: entries.iter().map(|_| OnceLock::new()).collect(),
            entries,
            all_lanes: (0..lanes.len()).collect(),
            state: Mutex::new(State {
                cursors: lanes.iter().map(|_| Cursor::default()).collect(),
                running: 0,
            }),
            lanes,
            lane_of,
            by_region,
            vm_regions: OnceLock::new(),
            par,
            readahead: pool.handle(),
            metrics: Metrics::resolve(),
            ready: Condvar::new(),
        });
        Ok(Self { _pool: pool, inner })
    }

    /// Visits the series of every VM in `ids` (strictly ascending) that
    /// has telemetry, in order, decoding each chunk that holds one of
    /// them at most once. A chunk that fails to read or validate stops
    /// the scan at the first VM that needed it — including when a
    /// readahead worker met the damage first — and no partial series is
    /// delivered.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk I/O or validation, naming the
    /// chunk.
    pub fn try_scan(
        &self,
        ids: &[VmId],
        visit: &mut dyn FnMut(VmId, UtilSeries),
    ) -> Result<(), StoreError> {
        debug_assert!(
            ids.windows(2).all(|pair| pair[0] < pair[1]),
            "scan ids must be strictly ascending"
        );
        let inner = &self.inner;
        let plan = inner.plan(ids)?;
        // plan[..next] have been demanded, plan[..issued] handed to the
        // readahead pool (or found resident).
        let (mut next, mut issued) = (0, 0);
        let mut runs = Vec::new();
        for &id in ids {
            inner.probe(id, |chunk, row| {
                if plan.get(next) == Some(&chunk) {
                    next += 1;
                    let upto = (next + READAHEAD_CHUNKS).min(plan.len());
                    inner.read_ahead(&plan[issued.max(next)..upto]);
                    issued = upto;
                }
                let (decoded, _) = inner.demand(chunk)?;
                runs.push((decoded.starts[row], decoded.samples[row].clone()));
                Ok(())
            })?;
            if let Some(series) = inner.assemble(id, &mut runs)? {
                visit(id, series);
            }
        }
        Ok(())
    }

    /// The series for `id`, through the same per-lane slots a scan
    /// uses, or the typed error naming the chunk that failed.
    ///
    /// # Errors
    /// Any [`StoreError`] from chunk I/O or validation.
    pub fn try_load(&self, id: VmId) -> Result<Option<UtilSeries>, StoreError> {
        let inner = &self.inner;
        let mut runs = Vec::new();
        let mut moved = false;
        inner.probe(id, |chunk, row| {
            let (decoded, lane_moved) = inner.demand(chunk)?;
            moved |= lane_moved;
            runs.push((decoded.starts[row], decoded.samples[row].clone()));
            Ok(())
        })?;
        if moved {
            inner.read_ahead_successors();
        }
        inner.assemble(id, &mut runs)
    }

    /// Restricts lookups for each VM to its own region's lanes. The
    /// map must be dense (index = VM id); `read_trace` derives it from
    /// the metadata chunks it decodes anyway, so attaching costs no
    /// extra I/O. First attach wins; ids beyond the map fall back to
    /// the all-lanes probe.
    pub(crate) fn attach_vm_regions(&self, regions: Vec<u32>) {
        let _ = self.inner.vm_regions.set(regions);
    }
}

/// Runs once the pool is joined and the last reader is gone: every
/// readahead nobody consumed — decoded, failed, or still queued when
/// the pool shut down — is accounted as wasted.
impl Drop for Inner {
    fn drop(&mut self) {
        let Ok(state) = self.state.get_mut() else {
            return;
        };
        let unconsumed = state.cursors.iter().filter(|c| c.ahead.is_some()).count();
        self.metrics.prefetch_wasted.add(unconsumed as u64);
        self.metrics.prefetch_in_flight.set(0.0);
    }
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(LOCK_POISONED)
    }

    /// Parks until some readahead stops `Running`.
    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.ready.wait(state).expect(LOCK_POISONED)
    }

    /// Calls `hit(chunk, row)` for every chunk that holds a run of
    /// `id`: the VM's lanes (its region's, when the region map is
    /// attached), each narrowed to the one chunk whose id range covers
    /// `id`, then checked against the id index. No chunk body is
    /// decoded here.
    fn probe(
        &self,
        id: VmId,
        mut hit: impl FnMut(usize, usize) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let raw = id.index();
        let lanes = self
            .vm_regions
            .get()
            .and_then(|regions| regions.get(usize::try_from(raw).ok()?))
            .and_then(|region| self.by_region.get(region))
            .unwrap_or(&self.all_lanes);
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
                hit(chunk, row)?;
            }
        }
        Ok(())
    }

    /// The chunks holding a run of any of `ids`, each once, in the
    /// order a scan of `ids` first needs them.
    fn plan(&self, ids: &[VmId]) -> Result<Vec<usize>, StoreError> {
        let mut planned = vec![false; self.entries.len()];
        let mut plan = Vec::new();
        for &id in ids {
            self.probe(id, |chunk, _| {
                if !std::mem::replace(&mut planned[chunk], true) {
                    plan.push(chunk);
                }
                Ok(())
            })?;
        }
        Ok(plan)
    }

    /// Concatenates the runs gathered for `id` (none: no telemetry)
    /// and counts the series as handed to a consumer.
    fn assemble(
        &self,
        id: VmId,
        runs: &mut Vec<(i64, Bytes)>,
    ) -> Result<Option<UtilSeries>, StoreError> {
        if runs.is_empty() {
            return Ok(None);
        }
        let series = assemble_series(id.index(), runs).map_err(StoreError::Inconsistent)?;
        runs.clear();
        self.metrics.series_loaded.inc();
        Ok(Some(series))
    }

    /// The sorted id column of the telemetry chunk at `idx`. Served
    /// from the resident index when any earlier full decode populated
    /// it; otherwise loaded through an ids-only projected read (the id
    /// column decompresses alone, without the sample payloads). A lost
    /// set race only duplicates that one cheap read.
    fn chunk_ids(&self, idx: usize) -> Result<&[VmId], StoreError> {
        if let Some(ids) = self.ids[idx].get() {
            return Ok(ids);
        }
        // A readahead already decoding the chunk will populate the
        // index as a side effect — wait for it instead of re-reading
        // the file for the id column alone. (A parked failure falls
        // through: the ids-only read below surfaces the same error.)
        {
            let lane = self.lane_of[idx];
            let mut state = self.lock();
            while matches!(&state.cursors[lane].ahead, Some((c, Ahead::Running)) if *c == idx) {
                state = self.wait(state);
            }
        }
        if let Some(ids) = self.ids[idx].get() {
            return Ok(ids);
        }
        let Batch::Telemetry(batch) = self
            .reader
            .read_chunk(&self.entries[idx], Projection::columns(&[]))?
        else {
            unreachable!("entry table holds telemetry chunks only")
        };
        Ok(self.ids[idx].get_or_init(|| batch.ids))
    }

    /// Fully decodes the chunk at `idx` (all columns), populating the
    /// resident id index as a side effect. Runs on consuming threads
    /// and on readahead workers alike.
    fn decode_chunk(&self, idx: usize) -> Result<Arc<DecodedChunk>, StoreError> {
        let Batch::Telemetry(batch) =
            self.reader
                .read_chunk_with(&self.entries[idx], Projection::all(), Some(&self.par))?
        else {
            unreachable!("entry table holds telemetry chunks only")
        };
        let starts = batch.starts.ok_or_else(|| {
            StoreError::Inconsistent(format!("chunk {}: no start column", batch.chunk))
        })?;
        let samples = batch.samples.ok_or_else(|| {
            StoreError::Inconsistent(format!("chunk {}: no samples column", batch.chunk))
        })?;
        let _ = self.ids[idx].set(batch.ids);
        Ok(Arc::new(DecodedChunk {
            starts: starts.into_iter().map(|t| t.minutes()).collect(),
            samples,
        }))
    }

    /// The decoded chunk at `idx`, and whether its lane's cursor moved
    /// to get it: served from the lane's slot, taken from a readahead
    /// (waiting out one still decoding), or decoded on this thread.
    fn demand(&self, idx: usize) -> Result<(Arc<DecodedChunk>, bool), StoreError> {
        let lane = self.lane_of[idx];
        let mut state = self.lock();
        loop {
            let cursor = &mut state.cursors[lane];
            if let Some((_, decoded)) = cursor.current.as_ref().filter(|(c, _)| *c == idx) {
                self.metrics.cache_hits.inc();
                return Ok((Arc::clone(decoded), false));
            }
            let ahead = cursor
                .ahead
                .as_ref()
                .map(|(c, slot)| (*c, matches!(slot, Ahead::Running)));
            match ahead {
                Some((c, true)) if c == idx => {
                    state = self.wait(state);
                }
                Some((c, false)) if c == idx => match cursor.ahead.take() {
                    Some((_, Ahead::Ready(decoded))) => {
                        self.metrics.cache_misses.inc();
                        self.metrics.prefetch_hits.inc();
                        self.install(cursor, idx, Arc::clone(&decoded));
                        return Ok((decoded, true));
                    }
                    // The decode failed ahead of us: the error belongs
                    // to this read, and a retry decodes afresh.
                    Some((_, Ahead::Failed(e))) => {
                        self.metrics.prefetch_wasted.inc();
                        return Err(e);
                    }
                    _ => unreachable!("slot checked above, under the same lock"),
                },
                // A finished readahead the lane has moved past.
                Some((c, false)) if self.entries[c].meta.max_vm < self.entries[idx].meta.min_vm => {
                    cursor.ahead = None;
                    self.metrics.prefetch_wasted.inc();
                    break;
                }
                // Nothing read ahead, or a chunk further on that a later
                // read will come for.
                _ => break,
            }
        }
        self.metrics.cache_misses.inc();
        drop(state);
        let decoded = self.decode_chunk(idx)?;
        self.install(&mut self.lock().cursors[lane], idx, Arc::clone(&decoded));
        Ok((decoded, true))
    }

    /// Moves a lane's cursor onto `idx`, dropping the chunk it was on.
    fn install(&self, cursor: &mut Cursor, idx: usize, decoded: Arc<DecodedChunk>) {
        if cursor.current.replace((idx, decoded)).is_some() {
            self.metrics.evictions.inc();
        }
    }

    /// Starts background decodes of `chunks` into their lanes'
    /// readahead slots. A chunk its lane is already on needs none; a
    /// lane whose slot is taken is skipped and the chunk decodes on
    /// demand instead.
    fn read_ahead(self: &Arc<Self>, chunks: &[usize]) {
        if chunks.is_empty() {
            return;
        }
        let mut state = self.lock();
        for &idx in chunks {
            let cursor = &mut state.cursors[self.lane_of[idx]];
            if cursor.ahead.is_some() || cursor.current.as_ref().is_some_and(|(c, _)| *c == idx) {
                continue;
            }
            cursor.ahead = Some((idx, Ahead::Running));
            state.running += 1;
            self.metrics.prefetch_issued.inc();
            let weak = Arc::downgrade(self);
            self.readahead.submit(move || {
                if let Some(inner) = weak.upgrade() {
                    inner.run_readahead(idx);
                }
            });
        }
        self.metrics.prefetch_in_flight.set(state.running as f64);
    }

    /// Readahead for a caller that does not say what it reads next: an
    /// ascending reader leaves the lane whose current chunk ends soonest
    /// first, so those lanes' successors go first, up to the bound.
    fn read_ahead_successors(self: &Arc<Self>) {
        let state = self.lock();
        let taken = state.cursors.iter().filter(|c| c.ahead.is_some()).count();
        let mut soonest: Vec<(u64, usize)> = state
            .cursors
            .iter()
            .zip(&self.lanes)
            .filter(|(cursor, _)| cursor.ahead.is_none())
            .filter_map(|(cursor, chunks)| {
                let ends = self.entries[cursor.current.as_ref()?.0].meta.max_vm;
                let after = chunks.partition_point(|&c| self.entries[c].meta.max_vm <= ends);
                Some((ends, *chunks.get(after)?))
            })
            .collect();
        drop(state);
        soonest.sort_unstable();
        soonest.truncate(READAHEAD_CHUNKS.saturating_sub(taken));
        let chunks: Vec<usize> = soonest.into_iter().map(|(_, next)| next).collect();
        self.read_ahead(&chunks);
    }

    /// A decode worker's job: decode `idx` and fill its lane's slot.
    fn run_readahead(&self, idx: usize) {
        let started = Instant::now();
        let result = self.decode_chunk(idx);
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics.prefetch_decode_ns.observe(elapsed);
        let mut state = self.lock();
        if let Some((_, slot)) = state.cursors[self.lane_of[idx]]
            .ahead
            .as_mut()
            .filter(|(c, _)| *c == idx)
        {
            *slot = match result {
                Ok(decoded) => Ahead::Ready(decoded),
                Err(e) => Ahead::Failed(e),
            };
        }
        state.running -= 1;
        self.metrics.prefetch_in_flight.set(state.running as f64);
        self.ready.notify_all();
    }
}

impl TelemetrySource for StoreTelemetry {
    /// Presence without materializing samples: manifest id-range
    /// pruning plus the resident id index. Only the ids-only projected
    /// read happens on a cold index — sample payloads never decompress.
    fn has(&self, id: VmId) -> bool {
        let mut found = false;
        let probed = self.inner.probe(id, |_, _| {
            found = true;
            Ok(())
        });
        match probed {
            Ok(()) => found,
            Err(e) => panic!("out-of-core telemetry presence check for {id} failed: {e}"),
        }
    }

    fn load(&self, id: VmId) -> Option<UtilSeries> {
        match self.try_load(id) {
            Ok(series) => series,
            Err(e) => panic!("out-of-core telemetry load for {id} failed: {e}"),
        }
    }

    fn scan(&self, ids: &[VmId], visit: &mut dyn FnMut(VmId, UtilSeries)) {
        if let Err(e) = self.try_scan(ids, visit) {
            panic!("out-of-core telemetry scan failed: {e}");
        }
    }
}
