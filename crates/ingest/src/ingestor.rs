//! The watermarked per-VM window state machine: offer → seal → close.

use cloudscope_analysis::{PatternClassifier, UtilizationPattern};
use cloudscope_faults::WireSample;
use cloudscope_kb::Parallelism;
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::{quantize_percentage, LevelCounts, MISSING_SAMPLE_BYTE};
use cloudscope_model::time::{
    MINUTES_PER_WEEK, SAMPLES_PER_DAY, SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES,
};
use cloudscope_timeseries::acf::autocorrelation_masked;
use cloudscope_timeseries::Series;

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
    /// Window length in minutes; classification re-runs every time the
    /// watermark crosses a multiple of it. Defaults to the trace week,
    /// so the final close sees exactly the batch classifier's input.
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

/// Per-VM lane: one quantized byte per week slot, split by a cursor
/// into the immutable sealed window state below it and the mutable
/// buffer at and above it.
#[derive(Debug)]
struct VmLane {
    /// `slots[s]` is the sample of week slot `s`, quantized on arrival
    /// ([`MISSING_SAMPLE_BYTE`] where nothing arrived). At or above
    /// `sealed_upto` the last write wins; below it nothing changes.
    slots: Box<[u8]>,
    /// Slots below this are sealed. Sealing is monotone, so the cursor
    /// only ever advances — and only sealed slots are visible to
    /// [`VmLane::reconstruct`].
    sealed_upto: usize,
    /// Samples among the sealed slots.
    sealed_samples: usize,
    /// Samples that arrived for an already-sealed slot.
    dropped_late: u64,
    /// Latest classification (refreshed at every window close).
    pattern: Option<UtilizationPattern>,
}

impl VmLane {
    fn new() -> Self {
        Self {
            slots: vec![MISSING_SAMPLE_BYTE; SAMPLES_PER_WEEK].into(),
            sealed_upto: 0,
            sealed_samples: 0,
            dropped_late: 0,
            pattern: None,
        }
    }

    /// Seals every slot below `floor`. Returns how many samples sealed.
    fn seal_upto(&mut self, floor: usize) -> usize {
        let floor = floor.min(self.slots.len());
        if floor <= self.sealed_upto {
            return 0;
        }
        let sealed_now = self.slots[self.sealed_upto..floor]
            .iter()
            .filter(|&&q| q != MISSING_SAMPLE_BYTE)
            .count();
        self.sealed_upto = floor;
        self.sealed_samples += sealed_now;
        sealed_now
    }

    /// Reconstructs the sealed slots in `lo..hi` as a gap-preserving
    /// series — byte-identical to what the batch collector assembles
    /// from the same samples. `None` if the range holds no samples.
    fn reconstruct(&self, lo: usize, hi: usize) -> Option<UtilSeries> {
        let window = self.slots.get(lo..hi.min(self.sealed_upto))?;
        let first = window.iter().position(|&q| q != MISSING_SAMPLE_BYTE)?;
        let last = first
            + window[first..]
                .iter()
                .rposition(|&q| q != MISSING_SAMPLE_BYTE)?;
        Some(UtilSeries::from_quantized(
            SimTime::from_minutes((lo + first) as i64 * SAMPLE_INTERVAL_MINUTES),
            window[first..=last].to_vec().into(),
        ))
    }

    /// The read-only half of a window close: the window's sample count,
    /// its classification and its daily autocorrelation.
    fn summarize_window(
        &self,
        lo: usize,
        hi: usize,
        classifier: &PatternClassifier,
    ) -> (usize, Option<UtilizationPattern>, Option<f64>) {
        let Some(window) = self.reconstruct(lo, hi) else {
            return (0, None, None);
        };
        let values = window.to_f64_vec();
        let daily_acf = daily_masked_acf(&values);
        let series = Series::new(window.start().minutes(), SAMPLE_INTERVAL_MINUTES, values);
        (
            window.present_count(),
            classifier.classify_series(&series),
            daily_acf,
        )
    }

    /// Mean and p95 over every sealed sample, in percent (0 with none).
    /// Sealed slots never change, so nothing is carried per sample: a
    /// close counts them by level, on the closing worker's stack.
    fn sealed_mean_and_p95(&self) -> (f64, f64) {
        let mut levels = LevelCounts::new();
        levels.add(&self.slots[..self.sealed_upto]);
        (
            levels.mean().unwrap_or(0.0),
            levels.percentile(95.0).unwrap_or(0.0),
        )
    }
}

/// One VM's summary at a window close.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowClose {
    /// The VM.
    pub vm: VmId,
    /// End of the closed window (exclusive), in trace time.
    pub window_end: SimTime,
    /// Sealed samples inside the window.
    pub samples: usize,
    /// Fraction of the window's slots with a sealed sample.
    pub coverage: f64,
    /// Mean utilization over all sealed samples, in percent.
    pub mean_util: f64,
    /// 95th percentile of all sealed samples, in percent: the type-7
    /// (linearly interpolated) percentile over the stored half-percent
    /// levels — exact, and independent of the order samples arrived in.
    pub p95_util: f64,
    /// Masked autocorrelation of the window at the daily lag (computed
    /// on a half-hourly downsample); `None` if the window is too short.
    pub daily_acf: Option<f64>,
    /// Classification of the window, via the batch classifier.
    pub pattern: Option<UtilizationPattern>,
    /// Cumulative late-dropped samples of this VM.
    pub dropped_late: u64,
}

/// Aggregate counters of one ingestion run. Accumulated off the hot
/// path and flushed to the metrics registry once, by
/// [`IngestReport::flush_metrics`] — the same report-then-flush pattern
/// the fault injector uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Distinct VMs that ever offered a sample.
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
    /// backpressure the watermark delay costs. Sampled at every offer
    /// and sealing is lazy, so unlike every other counter here it
    /// depends on the order in which lanes were offered their samples
    /// between two watermark advances, not only on what was offered.
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

/// The ingestion state machine: per-VM lanes behind a global watermark.
///
/// Memory is bounded by construction: a lane is one quantized byte per
/// week slot (2 016 bytes) plus a cursor and two counters, allocated when
/// the VM first reports and never grown — buffered and sealed samples live
/// in the same array, told apart by the lane's seal cursor. Ahead of the
/// watermark at most `watermark_delay / 5 + 1` of those slots are live
/// (older offers drop, newer ones cannot exist yet). [`drive_ingest`]
/// adds O(1) per stream on top — a step-wise corruptor over the VM's
/// shared series, never a buffered wire — so a drive's heap is the lanes
/// plus a few hundred bytes per telemetry-bearing VM.
///
/// [`drive_ingest`]: crate::drive_ingest
///
/// Lanes sit in a dense table indexed by [`VmId::as_usize`] — VM ids
/// are the trace's dense indices — which grows to the largest id seen.
#[derive(Debug)]
pub struct Ingestor {
    config: IngestConfig,
    classifier: PatternClassifier,
    /// `lanes[vm.as_usize()]`; `None` until the VM first reports.
    lanes: Vec<Option<VmLane>>,
    /// Slots strictly below this are sealed; lanes apply it lazily.
    seal_floor: usize,
    /// Next window boundary (minutes) the watermark has not crossed.
    next_window_close: i64,
    /// Live buffered samples across lanes (maintained incrementally).
    pending_samples: usize,
    /// True if any sample was applied since the last window close —
    /// whether [`Ingestor::finish`] owes a final catch-up close.
    dirty: bool,
    report: IngestReport,
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
            lanes: Vec::new(),
            seal_floor: 0,
            pending_samples: 0,
            dirty: false,
            report: IngestReport::default(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Counters so far.
    #[must_use]
    pub fn report(&self) -> IngestReport {
        self.report
    }

    /// Offers one wire sample for `vm`, mirroring the batch collector's
    /// validation exactly: reject garbage, snap to the grid, discard
    /// out-of-week slots, last write wins on duplicates — plus the one
    /// rule batch ingestion cannot need: a sample for a sealed slot is
    /// counted in `dropped_late` and never applied.
    pub fn offer(&mut self, vm: VmId, sample: WireSample) {
        self.report.samples_offered += 1;
        if !sample.value.is_finite() || sample.value < 0.0 {
            self.report.rejected_invalid += 1;
            return;
        }
        let slot =
            (sample.minute + SAMPLE_INTERVAL_MINUTES / 2).div_euclid(SAMPLE_INTERVAL_MINUTES);
        if !(0..SAMPLES_PER_WEEK as i64).contains(&slot) {
            self.report.out_of_week += 1;
            return;
        }
        let (slot, index) = (slot as usize, vm.as_usize());
        if index >= self.lanes.len() {
            self.lanes.resize_with(index + 1, || None);
        }
        let lane = self.lanes[index].get_or_insert_with(|| {
            self.report.vms += 1;
            VmLane::new()
        });
        // Lazy sealing: fold this lane's ripe slots before judging the
        // new sample, so the drop decision always uses the global floor.
        self.pending_samples -= lane.seal_upto(self.seal_floor);
        if slot < self.seal_floor {
            if lane.dropped_late == 0 {
                self.report.vms_with_drops += 1;
            }
            lane.dropped_late += 1;
            self.report.dropped_late += 1;
            return;
        }
        self.report.samples_applied += 1;
        // A slot at or above the floor that already holds a byte is a
        // duplicate; validation left only finite non-negative values,
        // which never quantize to the missing marker.
        let previous = std::mem::replace(&mut lane.slots[slot], quantize_percentage(sample.value));
        if previous == MISSING_SAMPLE_BYTE {
            self.pending_samples += 1;
        } else {
            self.report.duplicates_collapsed += 1;
        }
        self.dirty = true;
        if self.pending_samples > self.report.peak_pending_samples {
            self.report.peak_pending_samples = self.pending_samples;
        }
    }

    /// Advances the clock to `now`, moving the watermark
    /// `watermark_delay_minutes` behind it. Slots wholly behind the new
    /// watermark become sealable (lanes seal them lazily on next
    /// touch); every window boundary the watermark crossed closes, and
    /// the per-VM summaries of the closed windows are returned in VM
    /// order, ready for [`crate::publish_closed_windows`].
    pub fn advance_watermark(&mut self, now: SimTime) -> Vec<WindowClose> {
        let watermark = now.minutes() - self.config.watermark_delay_minutes;
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
        for lane in self.lanes.iter_mut().flatten() {
            self.pending_samples -= lane.seal_upto(self.seal_floor);
        }
    }

    /// Closes the window ending at `end`: seals every lane up to the
    /// global floor, reconstructs each lane's window, recomputes the
    /// summary statistics, and re-runs the pattern classifier. Lanes
    /// share no state, so the per-lane work runs on every worker; the
    /// results are applied in VM order.
    fn close_window(&mut self, end: SimTime) -> Vec<WindowClose> {
        let _stage = cloudscope_obs::span("ingest.close");
        let lo = (end.minutes() - self.config.window_minutes).div_euclid(SAMPLE_INTERVAL_MINUTES);
        let hi = end.minutes().div_euclid(SAMPLE_INTERVAL_MINUTES);
        let window_slots = (hi - lo).max(1) as f64;
        // Slots outside the week hold nothing; `reconstruct` clamps `hi`.
        let (lo, hi) = (lo.max(0) as usize, hi.max(0) as usize);
        self.seal_all_lanes();
        let classifier = &self.classifier;
        let summaries = Parallelism::auto().par_map(&self.lanes, |lane| {
            lane.as_ref().map(|lane| {
                (
                    lane.summarize_window(lo, hi, classifier),
                    lane.sealed_mean_and_p95(),
                )
            })
        });
        let mut closes = Vec::with_capacity(self.report.vms);
        for (index, (lane, summary)) in self.lanes.iter_mut().zip(summaries).enumerate() {
            let (Some(lane), Some(((samples, pattern, daily_acf), (mean_util, p95_util)))) =
                (lane, summary)
            else {
                continue;
            };
            lane.pattern = pattern;
            self.report.windows_closed += 1;
            if pattern.is_some() {
                self.report.classifications += 1;
            }
            closes.push(WindowClose {
                vm: VmId::new(index as u64),
                window_end: end,
                samples,
                coverage: samples as f64 / window_slots,
                mean_util,
                p95_util,
                daily_acf,
                pattern,
                dropped_late: lane.dropped_late,
            });
        }
        self.dirty = false;
        closes
    }

    /// Drains the stream at end of input: seals everything buffered and,
    /// if any sample arrived since the last boundary close, performs a
    /// final catch-up close at `now` and returns its summaries (publish
    /// them, then call [`Ingestor::finish`]).
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

    /// Freezes the (drained) state into an [`IngestSession`] and
    /// flushes the run's counters into the metrics registry.
    #[must_use]
    pub fn finish(mut self) -> crate::IngestSession {
        // Defensive: a caller that skipped `drain` still gets every
        // buffered sample sealed into the frozen series.
        self.seal_floor = SAMPLES_PER_WEEK;
        self.seal_all_lanes();
        self.report.flush_metrics();
        crate::IngestSession::freeze(
            self.lanes
                .into_iter()
                .enumerate()
                .filter_map(|(index, lane)| {
                    let lane = lane?;
                    let series = lane.reconstruct(0, SAMPLES_PER_WEEK);
                    Some((
                        VmId::new(index as u64),
                        series,
                        lane.pattern,
                        lane.dropped_late,
                    ))
                }),
            self.report,
        )
    }

    fn lane(&self, id: VmId) -> Option<&VmLane> {
        self.lanes.get(id.as_usize())?.as_ref()
    }
}

/// The live view over *sealed* state: between a window close and the
/// next offer, the ingestor itself serves as a [`TelemetrySource`], so
/// knowledge re-extraction at publish time reads exactly the window
/// state the close just classified. Unsealed (still-mutable) slots are
/// invisible by design.
impl cloudscope_model::trace::TelemetrySource for Ingestor {
    fn load(&self, id: VmId) -> Option<UtilSeries> {
        self.lane(id)?.reconstruct(0, SAMPLES_PER_WEEK)
    }

    fn has(&self, id: VmId) -> bool {
        self.lane(id).is_some_and(|lane| lane.sealed_samples > 0)
    }
}

/// Masked autocorrelation at the daily lag, on a half-hourly downsample
/// (gap slots average out of each block; fully-missing blocks stay
/// masked). `None` when the window is shorter than a day.
fn daily_masked_acf(values: &[f64]) -> Option<f64> {
    const BLOCK: usize = 6; // 6 × 5 min = half-hourly
    let coarse: Vec<f64> = values
        .chunks(BLOCK)
        .map(|block| {
            let (sum, n) = block
                .iter()
                .filter(|v| v.is_finite())
                .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        })
        .collect();
    let lag = SAMPLES_PER_DAY / BLOCK;
    if coarse.len() <= lag {
        return None;
    }
    autocorrelation_masked(&coarse, lag)
        .ok()
        .and_then(|acf| acf.get(lag).copied())
        .filter(|v| v.is_finite())
}
