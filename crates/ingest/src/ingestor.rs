//! The watermarked per-VM window state machine: offer → seal → close.

use crate::session::{IngestSession, VmLane};
use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::WireSample;
use cloudscope_kb::Parallelism;
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::{quantize_percentage, MISSING_SAMPLE_BYTE};
use cloudscope_model::time::{MINUTES_PER_WEEK, SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};

/// Configuration of the ingestion service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// How far (in minutes) the low watermark trails the clock. A slot
    /// seals once the watermark has passed its entire 5-minute
    /// interval; samples arriving for a sealed slot are counted in
    /// `dropped_late`, never applied. 10 minutes absorbs the standard
    /// fault plan's worst case (±2 min clock skew plus one
    /// adjacent-swap reorder).
    pub watermark_delay_minutes: i64,
    /// Window length in minutes: how often classification re-runs. Each
    /// time the watermark crosses a multiple of it, every lane's whole
    /// sealed history is classified again — the window sets the cadence,
    /// not what is classified. Defaults to the trace week.
    pub window_minutes: i64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            watermark_delay_minutes: 2 * SAMPLE_INTERVAL_MINUTES,
            window_minutes: MINUTES_PER_WEEK,
        }
    }
}

/// One VM's lane at a window close.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowClose {
    /// The VM.
    pub vm: VmId,
    /// End of the closed window (exclusive), in trace time.
    pub window_end: SimTime,
}

/// Aggregate counters of one ingestion run. Accumulated off the hot
/// path and flushed to the metrics registry once, by
/// [`IngestReport::flush_metrics`] — the same report-then-flush pattern
/// the fault injector uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Distinct VMs that offered at least one valid, in-week sample
    /// (applied or dropped late): the VMs that own a lane. A VM whose
    /// every sample was garbage or outside the week is not counted.
    pub vms: usize,
    /// Wire samples offered.
    pub samples_offered: u64,
    /// Samples accepted into a window (including duplicate overwrites).
    pub samples_applied: u64,
    /// Accepted samples that overwrote an already-buffered slot.
    pub duplicates_collapsed: u64,
    /// Samples rejected by validation (non-finite or negative).
    pub rejected_invalid: u64,
    /// Samples whose timestamp fell outside the trace week.
    pub out_of_week: u64,
    /// Samples that arrived after their slot sealed.
    pub dropped_late: u64,
    /// Window closes performed (one per lane per boundary).
    pub windows_closed: u64,
    /// Window classifications that produced a pattern.
    pub classifications: u64,
    /// VMs with at least one late-dropped sample.
    pub vms_with_drops: usize,
    /// Peak buffered (unsealed) samples across all lanes — the
    /// backpressure the watermark delay costs. Sampled after every
    /// applied sample, and sealing is lazy, so unlike every other
    /// counter here it depends on the order in which lanes were offered
    /// their samples between two watermark advances, not only on what
    /// was offered. [`drive_ingest`](crate::drive_ingest) reports the
    /// value of offering VM by VM in ascending id order at every tick,
    /// whatever the worker count.
    pub peak_pending_samples: usize,
}

impl IngestReport {
    /// Flushes the counters into the current metrics registry under
    /// `ingest.*`, and the backpressure peak into a gauge.
    pub fn flush_metrics(&self) {
        use cloudscope_obs::{counter, gauge};
        counter("ingest.samples_offered").add(self.samples_offered);
        counter("ingest.samples_applied").add(self.samples_applied);
        counter("ingest.duplicates_collapsed").add(self.duplicates_collapsed);
        counter("ingest.rejected_invalid").add(self.rejected_invalid);
        counter("ingest.out_of_week").add(self.out_of_week);
        counter("ingest.dropped_late").add(self.dropped_late);
        counter("ingest.windows_closed").add(self.windows_closed);
        counter("ingest.classifications").add(self.classifications);
        gauge("ingest.backpressure.peak_pending_samples").set_max(self.peak_pending_samples as f64);
    }
}

/// What offers to one part of the lane table changed, kept apart from
/// the ingestor so that parts can be offered to at once and folded back
/// in VM order ([`Ingestor::fold`]).
#[derive(Debug, Default)]
pub(crate) struct OfferTally {
    /// Counter deltas; `peak_pending_samples` holds the highest
    /// `pending` sampled after an applied sample (0 before one).
    pub(crate) report: IngestReport,
    /// Change of the pending count (sealing lowers it).
    pub(crate) pending: isize,
    /// Whether a sample was applied.
    pub(crate) dirty: bool,
}

impl OfferTally {
    /// Appends the tally of offers made right after this one's, as
    /// [`Ingestor::fold`] appends a tally to the ingestor.
    pub(crate) fn append(&mut self, next: &OfferTally) {
        append(&mut self.report, &mut self.pending, &mut self.dirty, next);
    }
}

/// Appends `next`, the tally of the offers that followed, to a running
/// `report`, `pending` count and `dirty` flag: counters add, `dirty`
/// ORs, and the backpressure peak is the prefix maximum of the running
/// pending count, `max(peak, pending + next's peak)`, which is what
/// offering the same samples one after another samples after every
/// applied sample. A negative candidate is skipped: it lies below the
/// pending count before `next`, and pending rises only through applied
/// samples, so the peak already covers it.
fn append(report: &mut IngestReport, pending: &mut isize, dirty: &mut bool, next: &OfferTally) {
    let add = &next.report;
    report.vms += add.vms;
    report.samples_offered += add.samples_offered;
    report.samples_applied += add.samples_applied;
    report.duplicates_collapsed += add.duplicates_collapsed;
    report.rejected_invalid += add.rejected_invalid;
    report.out_of_week += add.out_of_week;
    report.dropped_late += add.dropped_late;
    report.vms_with_drops += add.vms_with_drops;
    if let Ok(peak) = usize::try_from(*pending + add.peak_pending_samples as isize) {
        report.peak_pending_samples = report.peak_pending_samples.max(peak);
    }
    *pending += next.pending;
    *dirty |= next.dirty;
}

/// Offers one wire sample to a VM's lane under the seal floor
/// `seal_floor`: the one home of the offer rules (validation, snapping
/// to the grid, out-of-week, the lazy seal, the late drop and the
/// last-write-wins apply). `lane` yields the VM's lane-table entry; it
/// is called only for a valid, in-week sample, and the lane is created
/// there. The counters go to `report` and the change of the pending
/// count to `pending`, and `report.peak_pending_samples` follows
/// `pending` after every applied sample. Returns whether the sample was
/// applied.
pub(crate) fn offer_lane<'l>(
    lane: impl FnOnce() -> &'l mut Option<VmLane>,
    sample: WireSample,
    seal_floor: usize,
    report: &mut IngestReport,
    pending: &mut isize,
) -> bool {
    report.samples_offered += 1;
    if !sample.value.is_finite() || sample.value < 0.0 {
        report.rejected_invalid += 1;
        return false;
    }
    let slot = (sample.minute + SAMPLE_INTERVAL_MINUTES / 2).div_euclid(SAMPLE_INTERVAL_MINUTES);
    if !(0..SAMPLES_PER_WEEK as i64).contains(&slot) {
        report.out_of_week += 1;
        return false;
    }
    let slot = slot as usize;
    let lane = lane().get_or_insert_with(|| {
        report.vms += 1;
        VmLane::new()
    });
    // Lazy sealing: fold this lane's ripe slots before judging the new
    // sample, so the drop decision always uses the global floor.
    *pending -= lane.seal_upto(seal_floor) as isize;
    if slot < seal_floor {
        if lane.dropped_late == 0 {
            report.vms_with_drops += 1;
        }
        lane.dropped_late += 1;
        report.dropped_late += 1;
        return false;
    }
    report.samples_applied += 1;
    // A slot at or above the floor that already holds a byte is a
    // duplicate; validation left only finite non-negative values, which
    // never quantize to the missing marker.
    let previous = std::mem::replace(&mut lane.slots[slot], quantize_percentage(sample.value));
    if previous == MISSING_SAMPLE_BYTE {
        *pending += 1;
    } else {
        report.duplicates_collapsed += 1;
    }
    if let Ok(now) = usize::try_from(*pending) {
        report.peak_pending_samples = report.peak_pending_samples.max(now);
    }
    true
}

/// The ingestion state machine: per-VM lanes behind a global watermark.
///
/// Memory is bounded by construction: a lane is one quantized byte per
/// week slot (2 016 bytes) plus a cursor and two counters, allocated when
/// the VM's first valid, in-week sample arrives and never grown —
/// buffered and sealed samples live in the same array, told apart by the
/// lane's seal cursor. Ahead of the
/// watermark at most `watermark_delay / 5 + 1` of those slots are live
/// (older offers drop, newer ones cannot exist yet). [`drive_ingest`]
/// adds O(1) per stream on top — a step-wise corruptor over the VM's
/// shared series, never a buffered wire — so a drive's heap is the lanes
/// plus a few hundred bytes per telemetry-bearing VM.
///
/// The lanes and counters are an [`IngestSession`] from the start:
/// publication reads it between closes, and [`Ingestor::finish`] hands
/// it over as the run's end state.
///
/// [`drive_ingest`]: crate::drive_ingest
#[derive(Debug)]
pub struct Ingestor {
    config: IngestConfig,
    classifier: PatternClassifier,
    session: IngestSession,
    /// Slots strictly below this are sealed; lanes apply it lazily.
    seal_floor: usize,
    /// Next window boundary (minutes) the watermark has not crossed.
    next_window_close: i64,
    /// Live buffered samples across lanes (maintained incrementally;
    /// never negative, signed to take [`offer_lane`]'s changes).
    pending_samples: isize,
    /// True if any sample was applied since the last window close —
    /// whether [`Ingestor::drain`] owes a final catch-up close.
    dirty: bool,
}

impl Ingestor {
    /// Creates an idle ingestor.
    #[must_use]
    pub fn new(config: IngestConfig, classifier: PatternClassifier) -> Self {
        assert!(config.watermark_delay_minutes >= 0, "negative watermark");
        assert!(config.window_minutes > 0, "window must be positive");
        Self {
            next_window_close: config.window_minutes,
            config,
            classifier,
            session: IngestSession {
                lanes: Vec::new(),
                report: IngestReport::default(),
            },
            seal_floor: 0,
            pending_samples: 0,
            dirty: false,
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn report(&self) -> IngestReport {
        self.session.report
    }

    /// The lane table as it stands: sealed state only, so right after a
    /// window close it serves exactly what the close classified.
    pub(crate) fn session(&self) -> &IngestSession {
        &self.session
    }

    /// Offers one wire sample for `vm`, mirroring the batch collector's
    /// validation exactly: reject garbage, snap to the grid, discard
    /// out-of-week slots, last write wins on duplicates — plus the one
    /// rule batch ingestion cannot need: a sample for a sealed slot is
    /// counted in `dropped_late` and never applied. The lane table grows
    /// to `vm` when its first valid, in-week sample arrives.
    pub fn offer(&mut self, vm: VmId, sample: WireSample) {
        let (index, lanes) = (vm.as_usize(), &mut self.session.lanes);
        let lane = move || {
            // Moved, not reborrowed: the closure hands the borrow out.
            let lanes = lanes;
            if index >= lanes.len() {
                lanes.resize_with(index + 1, || None);
            }
            &mut lanes[index]
        };
        // The ingestor's own counters are the tally of one shard that
        // started with it, so the sample goes straight into them.
        self.dirty |= offer_lane(
            lane,
            sample,
            self.seal_floor,
            &mut self.session.report,
            &mut self.pending_samples,
        );
    }

    /// Grows the lane table to at least `len` lanes (none of them
    /// created), so that offers below `len` never grow it.
    pub(crate) fn size_lanes(&mut self, len: usize) {
        let lanes = &mut self.session.lanes;
        if lanes.len() < len {
            lanes.resize_with(len, || None);
        }
    }

    /// The lane table, for [`offer_lane`] to run on parts of it away
    /// from the ingestor. Fold what it tallied back with
    /// [`Ingestor::fold`].
    pub(crate) fn lanes_mut(&mut self) -> &mut [Option<VmLane>] {
        &mut self.session.lanes
    }

    /// The seal floor offers judge lateness by until the next watermark
    /// advance.
    pub(crate) fn seal_floor(&self) -> usize {
        self.seal_floor
    }

    /// Whether [`Ingestor::advance_watermark`] to `now` closes a window:
    /// the one advance that reads the lanes.
    pub(crate) fn closes_at(&self, now: SimTime) -> bool {
        self.watermark(now) >= self.next_window_close
    }

    /// The watermark at `now`: `watermark_delay_minutes` behind it.
    fn watermark(&self, now: SimTime) -> i64 {
        now.minutes() - self.config.watermark_delay_minutes
    }

    /// Folds the tally of offers made to one part of the lane table into
    /// the ingestor. Tallies of consecutive parts, folded in VM order,
    /// leave exactly the state of one serial sweep offering the same
    /// samples VM by VM ([`append`]).
    pub(crate) fn fold(&mut self, tally: &OfferTally) {
        let report = &mut self.session.report;
        append(report, &mut self.pending_samples, &mut self.dirty, tally);
        assert!(
            self.pending_samples >= 0,
            "pending samples never fall below zero"
        );
    }

    /// Advances the clock to `now`, moving the watermark
    /// `watermark_delay_minutes` behind it. Slots wholly behind the new
    /// watermark become sealable (lanes seal them lazily on next
    /// touch); every window boundary the watermark crossed closes, and
    /// the closed lanes are returned in VM order, ready to publish.
    pub fn advance_watermark(&mut self, now: SimTime) -> Vec<WindowClose> {
        let watermark = self.watermark(now);
        // A watermark still before the week has sealed nothing.
        let floor = usize::try_from(watermark.div_euclid(SAMPLE_INTERVAL_MINUTES)).unwrap_or(0);
        self.seal_floor = self.seal_floor.max(floor);
        let mut closes = Vec::new();
        while watermark >= self.next_window_close {
            let end = self.next_window_close;
            closes.extend(self.close_window(SimTime::from_minutes(end)));
            self.next_window_close = end + self.config.window_minutes;
        }
        closes
    }

    /// Seals every lane up to the global floor.
    fn seal_all_lanes(&mut self) {
        for lane in self.session.lanes.iter_mut().flatten() {
            self.pending_samples -= lane.seal_upto(self.seal_floor) as isize;
        }
    }

    /// Closes the window ending at `end`: seals every lane up to the
    /// global floor and re-runs the pattern classifier on each lane's
    /// whole sealed history — the series batch extraction classifies,
    /// so the window length sets only how often this runs. Lanes share
    /// no state, so the per-lane work runs on every worker; the results
    /// are applied in VM order.
    fn close_window(&mut self, end: SimTime) -> Vec<WindowClose> {
        let _stage = cloudscope_obs::span("ingest.close");
        self.seal_all_lanes();
        let classifier = &self.classifier;
        let patterns = Parallelism::auto().par_map(&self.session.lanes, |lane| {
            let lane = lane.as_ref()?;
            Some(
                lane.sealed_levels()
                    .and_then(|(_, levels)| classifier.classify_levels(levels)),
            )
        });
        let IngestSession { lanes, report } = &mut self.session;
        let mut closes = Vec::with_capacity(report.vms);
        for (index, (lane, pattern)) in lanes.iter_mut().zip(patterns).enumerate() {
            let (Some(lane), Some(pattern)) = (lane, pattern) else {
                continue;
            };
            lane.record_close(pattern);
            report.windows_closed += 1;
            report.classifications += u64::from(pattern.is_some());
            closes.push(WindowClose {
                vm: VmId::new(index as u64),
                window_end: end,
            });
        }
        self.dirty = false;
        closes
    }

    /// Drains the stream at end of input: seals everything buffered and,
    /// if any sample arrived since the last boundary close, performs a
    /// final catch-up close at `now` and returns it (publish it, then
    /// call [`Ingestor::finish`]).
    pub fn drain(&mut self, now: SimTime) -> Vec<WindowClose> {
        self.seal_floor = SAMPLES_PER_WEEK;
        if self.dirty {
            self.close_window(now)
        } else {
            // Nothing new since the last boundary close, but lanes may
            // still hold unsealed slots (inside the watermark at the
            // last tick): seal them without re-classifying.
            self.seal_all_lanes();
            Vec::new()
        }
    }

    /// Hands over the (drained) lane table as the run's
    /// [`IngestSession`] and flushes the run's counters into the
    /// metrics registry.
    #[must_use]
    pub fn finish(mut self) -> IngestSession {
        // Defensive: a caller that skipped `drain` still gets every
        // buffered sample sealed into the session.
        self.seal_floor = SAMPLES_PER_WEEK;
        self.seal_all_lanes();
        self.session.report.flush_metrics();
        self.session
    }
}
