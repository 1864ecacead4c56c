//! The watermarked per-VM window state machine: offer → seal → close.

use crate::session::{IngestSession, VmLane};
use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::{WireRun, WireSample};
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

/// What offers to the lane table changed: the ingestor's own running
/// counters, or those of offers to one part of the table made apart
/// from the ingestor, so that parts can be offered to at once and
/// folded back in VM order ([`Ingestor::fold`]).
#[derive(Debug, Default)]
pub(crate) struct OfferTally {
    /// Counters; `peak_pending_samples` holds the highest `pending`
    /// sampled after an applied sample (0 before one).
    pub(crate) report: IngestReport,
    /// Change of the pending count (sealing lowers it); the ingestor's
    /// own is the count of live buffered samples across lanes.
    pub(crate) pending: isize,
    /// Whether a sample was applied.
    pub(crate) dirty: bool,
    /// Runs offered to a lane ([`offer_run`] calls).
    pub(crate) offers: u64,
}

/// The highest stored level, 100 % in half-percent steps: what
/// [`quantize_percentage`] makes of every finite reading at or above
/// 100 %.
pub(crate) const TOP_LEVEL: u8 = 200;

/// The stored level of an accepted reading: the one quantization of a
/// wire value in this crate.
pub(crate) fn level(value: f32) -> u8 {
    quantize_percentage(value)
}

/// The week slot a wire timestamp snaps to: the nearest 5-minute slot
/// (`div_euclid` keeps skewed-negative minutes exact), `None` outside
/// the week.
fn week_slot(minute: i64) -> Option<usize> {
    let slot = (minute + SAMPLE_INTERVAL_MINUTES / 2).div_euclid(SAMPLE_INTERVAL_MINUTES);
    usize::try_from(slot)
        .ok()
        .filter(|&slot| slot < SAMPLES_PER_WEEK)
}

/// Samples among stored levels.
fn present(levels: &[u8]) -> u64 {
    levels.iter().filter(|&&q| q != MISSING_SAMPLE_BYTE).count() as u64
}

/// Offers one run of a VM's wire outputs to its lane under the seal
/// floor `seal_floor`: the one home of the offer rules, applied as
/// offering the run's samples one after another would (validation,
/// snapping to the grid, out-of-week, the lazy seal, the late drop and
/// the last-write-wins apply). `lane` yields the VM's lane-table entry;
/// it is called only if the run holds a valid, in-week sample, and the
/// lane is created there. The floor is fixed for the run, so the lane
/// seals once, before its first such sample is judged; and sealing is
/// the only thing that lowers the pending count, so the peak sampled
/// after every applied sample is the count after the run's last one.
/// Counters, the pending change and the peak go to `tally`.
///
/// A [`WireRun::Levels`] run is stored levels at consecutive slots:
/// clipped to the week, split at the seal floor and copied, since a
/// stored level is the byte a sample of its value quantizes to
/// (`tests::a_stored_level_is_its_own_quantization`). The per-sample
/// rules it replaced are its test oracle, in `reference.rs`.
pub(crate) fn offer_run<'l>(
    lane: impl FnOnce() -> &'l mut Option<VmLane>,
    run: WireRun<'_>,
    seal_floor: usize,
    tally: &mut OfferTally,
) {
    tally.offers += 1;
    let (report, pending) = (&mut tally.report, &mut tally.pending);
    let open = |report: &mut IngestReport, pending: &mut isize| {
        let lane = lane().get_or_insert_with(|| {
            report.vms += 1;
            VmLane::new()
        });
        *pending -= lane.seal_upto(seal_floor) as isize;
        lane
    };
    let (lane, late, applied, fresh) = match run {
        WireRun::Levels {
            first_minute,
            levels,
            samples,
        } => {
            report.samples_offered += samples as u64;
            // Consecutive positions snap to consecutive slots: keep the
            // part inside the week.
            let first =
                (first_minute + SAMPLE_INTERVAL_MINUTES / 2).div_euclid(SAMPLE_INTERVAL_MINUTES);
            let clip = |slot: i64| (slot - first).clamp(0, levels.len() as i64) as usize;
            let (lo, hi) = (clip(0), clip(SAMPLES_PER_WEEK as i64));
            let outside = present(&levels[..lo]) + present(&levels[hi..]);
            report.out_of_week += outside;
            if outside == samples as u64 {
                return;
            }
            let lane = open(report, pending);
            let week = &levels[lo..hi];
            let from = (first + lo as i64) as usize;
            let (sealed, live) = week.split_at(seal_floor.saturating_sub(from).min(week.len()));
            let from = from + sealed.len();
            let (mut applied, mut fresh) = (0, 0);
            for (slot, &q) in lane.slots[from..from + live.len()].iter_mut().zip(live) {
                let (sent, empty) = (q != MISSING_SAMPLE_BYTE, *slot == MISSING_SAMPLE_BYTE);
                applied += u64::from(sent);
                fresh += u64::from(sent & empty);
                *slot = if sent { q.min(TOP_LEVEL) } else { *slot };
            }
            (lane, present(sealed), applied, fresh)
        }
        WireRun::Samples(samples) => {
            report.samples_offered += samples.len() as u64;
            // Validation and the grid snap; the lane opens at the first
            // sample that passes both.
            let (mut invalid, mut out_of_week) = (0, 0);
            let mut land = |sample: &WireSample| {
                // Finite and non-negative.
                if !(0.0..=f32::MAX).contains(&sample.value) {
                    invalid += 1;
                    return None;
                }
                let slot = week_slot(sample.minute);
                out_of_week += u64::from(slot.is_none());
                slot
            };
            let mut rest = samples.iter();
            let Some((slot, value)) = rest
                .by_ref()
                .find_map(|sample| Some((land(sample)?, sample.value)))
            else {
                report.rejected_invalid += invalid;
                report.out_of_week += out_of_week;
                return;
            };
            let lane = open(report, pending);
            let (mut late, mut applied, mut fresh) = (0, 0, 0);
            let mut apply = |slot: usize, value: f32| {
                if slot < seal_floor {
                    late += 1;
                } else {
                    applied += 1;
                    let previous = std::mem::replace(&mut lane.slots[slot], level(value));
                    fresh += u64::from(previous == MISSING_SAMPLE_BYTE);
                }
            };
            apply(slot, value);
            for sample in rest {
                if let Some(slot) = land(sample) {
                    apply(slot, sample.value);
                }
            }
            report.rejected_invalid += invalid;
            report.out_of_week += out_of_week;
            (lane, late, applied, fresh)
        }
    };
    if late > 0 {
        if lane.dropped_late == 0 {
            report.vms_with_drops += 1;
        }
        lane.dropped_late += late;
        report.dropped_late += late;
    }
    if applied > 0 {
        report.samples_applied += applied;
        report.duplicates_collapsed += applied - fresh;
        *pending += fresh as isize;
        if let Ok(now) = usize::try_from(*pending) {
            report.peak_pending_samples = report.peak_pending_samples.max(now);
        }
        tally.dirty = true;
    }
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
/// shared series, never a buffered wire — and one run buffer of an
/// hour's outputs per delivery shard, so a drive's heap is the lanes
/// plus a few hundred bytes per telemetry-bearing VM.
///
/// The lanes are an [`IngestSession`] from the start: publication reads
/// it between closes, and [`Ingestor::finish`] hands it over, with the
/// run's counters, as the run's end state.
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
    /// The run's counters: those of one shard that began with the
    /// ingestor. `pending` is the live buffered samples across lanes
    /// (never negative), and `dirty` whether a sample was applied since
    /// the last window close — whether [`Ingestor::drain`] owes a final
    /// catch-up close.
    counters: OfferTally,
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
                lane_offers: 0,
            },
            seal_floor: 0,
            counters: OfferTally::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn report(&self) -> IngestReport {
        self.counters.report
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
    /// to `vm` when its first valid, in-week sample arrives. A run of
    /// one ([`offer_run`]).
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
        let run = WireRun::Samples(std::slice::from_ref(&sample));
        offer_run(lane, run, self.seal_floor, &mut self.counters);
    }

    /// Grows the lane table to at least `len` lanes (none of them
    /// created), so that offers below `len` never grow it.
    pub(crate) fn size_lanes(&mut self, len: usize) {
        let lanes = &mut self.session.lanes;
        if lanes.len() < len {
            lanes.resize_with(len, || None);
        }
    }

    /// The lane table, for [`offer_run`] to run on parts of it away
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
    /// samples VM by VM: counters add, `dirty` ORs, and the backpressure
    /// peak is the prefix maximum of the running pending count,
    /// `max(peak, pending + tally's peak)`, which is what offering the
    /// same samples one after another samples after every applied
    /// sample. A negative candidate is skipped: it lies below the
    /// pending count before the tally, and pending rises only through
    /// applied samples, so the peak already covers it.
    pub(crate) fn fold(&mut self, tally: &OfferTally) {
        let counters = &mut self.counters;
        let (report, add) = (&mut counters.report, &tally.report);
        report.vms += add.vms;
        report.samples_offered += add.samples_offered;
        report.samples_applied += add.samples_applied;
        report.duplicates_collapsed += add.duplicates_collapsed;
        report.rejected_invalid += add.rejected_invalid;
        report.out_of_week += add.out_of_week;
        report.dropped_late += add.dropped_late;
        report.vms_with_drops += add.vms_with_drops;
        let peak = counters.pending + add.peak_pending_samples as isize;
        if let Ok(peak) = usize::try_from(peak) {
            report.peak_pending_samples = report.peak_pending_samples.max(peak);
        }
        counters.pending += tally.pending;
        counters.dirty |= tally.dirty;
        counters.offers += tally.offers;
        assert!(
            counters.pending >= 0,
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
            self.counters.pending -= lane.seal_upto(self.seal_floor) as isize;
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
        let (lanes, report) = (&mut self.session.lanes, &mut self.counters.report);
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
        self.counters.dirty = false;
        closes
    }

    /// Drains the stream at end of input: seals everything buffered and,
    /// if any sample arrived since the last boundary close, performs a
    /// final catch-up close at `now` and returns it (publish it, then
    /// call [`Ingestor::finish`]).
    pub fn drain(&mut self, now: SimTime) -> Vec<WindowClose> {
        self.seal_floor = SAMPLES_PER_WEEK;
        if self.counters.dirty {
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
        self.session.report = self.counters.report;
        self.session.lane_offers = self.counters.offers;
        self.session.report.flush_metrics();
        self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_model::telemetry::QUANT_STEPS_PER_PERCENT;

    /// What the clean byte copy rests on: a stored level read back as a
    /// reading (`level / 2`, as `UtilSeries::get` and the corruptor
    /// read it) quantizes to itself, and a byte above the top level —
    /// which no quantization stores — to the top level.
    #[test]
    fn a_stored_level_is_its_own_quantization() {
        for q in 0..MISSING_SAMPLE_BYTE {
            let reading = f32::from(q) / QUANT_STEPS_PER_PERCENT;
            assert_eq!(level(reading), q.min(TOP_LEVEL), "level {q}");
        }
        assert_eq!(level(100.0), TOP_LEVEL);
    }
}
