//! The explode → corrupt → ingest pipeline that turns a pristine trace
//! into the one a real collector would have recorded.

use crate::plan::{FaultPlan, FaultReport};
use cloudscope_kb::Parallelism;
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::{MISSING_SAMPLE_BYTE, QUANT_STEPS_PER_PERCENT};
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_sim::rng::RngFactory;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// One utilization reading as it crosses the wire from the in-guest
/// monitor to the trace store: a recorded timestamp (which a skewed
/// clock may have shifted off the grid) and the raw value (which may be
/// garbage).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireSample {
    /// Recorded timestamp, in trace minutes.
    pub minute: i64,
    /// Raw reading; NaN and negatives are corruption.
    pub value: f32,
}

/// One VM's wire stream, generated a step at a time: the explode and
/// corrupt stages fused into a cursor over the source series, so a
/// stream costs a fixed few hundred bytes however long it is.
///
/// Each step explodes one source position — a missing slot puts nothing
/// on the wire, a present one becomes a sample at its true grid
/// timestamp — and applies the plan's corruptions to it in transmission
/// order, drawing every decision from the VM's own RNG stream. The
/// blackout check uses the *true* transmission time; the VM's clock
/// skew, drawn first, only shifts the timestamp that gets recorded.
///
/// An adjacent-swap reorder can move the newest output behind the one
/// a later step appends, so an output is final only once another output
/// follows it or the source is exhausted: the corruptor holds exactly
/// that one output of lookahead back.
///
/// [`corrupt_wire_samples`] is this stream collected; a streaming drive
/// instead pulls the outputs as they come due, a run at a time
/// ([`WireCorruptor::next_run`]).
#[derive(Debug)]
pub struct WireCorruptor<'p, R = StdRng> {
    series: UtilSeries,
    wire: Wire<'p, R>,
    /// Outputs sent but not yet yielded, oldest first. Only the newest
    /// can still move, so a pull yields the oldest once two are pending
    /// or the source is exhausted: between pulls this holds at most two.
    pending: Pending,
}

/// A corruptor's stepping state, apart from the source series it reads
/// and the outputs it holds back, so that a step can read the one and
/// send to the other.
#[derive(Debug)]
struct Wire<'p, R> {
    region: RegionId,
    plan: &'p FaultPlan,
    rng: R,
    /// The VM's constant clock skew, in minutes.
    skew: i64,
    /// Whether the plan makes no decision per sample for this VM: no
    /// draw, no blackout of its region, no skew. Its wire is then the
    /// stored levels at their grid timestamps, and a run is a slice of
    /// the series.
    passthrough: bool,
    /// Minute of source position 0 (the series start).
    start: i64,
    /// Next source position to explode.
    position: usize,
    /// Outputs put on the wire so far, yielded or not.
    sent: usize,
}

/// Where a step puts the outputs it sends: in order, the newest last.
///
/// This trait's impls and the other small helpers the corruptor calls
/// per sample are `#[inline]`: the corruptor is generic, so it is
/// compiled in the calling crate, where a non-generic function of this
/// crate is otherwise a call.
trait Outputs {
    /// Appends an output.
    fn send(&mut self, sample: WireSample);
    /// Swaps the two newest outputs.
    fn swap_newest(&mut self);
}

/// The outputs a corruptor holds back between pulls: a step appends at
/// most two (a sample and its duplicate) to at most one held back.
#[derive(Debug, Default)]
struct Pending {
    samples: [WireSample; 3],
    len: usize,
}

impl Pending {
    /// Takes the oldest output out.
    #[inline]
    fn pop_oldest(&mut self) -> WireSample {
        let oldest = self.samples[0];
        self.samples.copy_within(1.., 0);
        self.len -= 1;
        oldest
    }
}

impl Outputs for Pending {
    #[inline]
    fn send(&mut self, sample: WireSample) {
        self.samples[self.len] = sample;
        self.len += 1;
    }

    #[inline]
    fn swap_newest(&mut self) {
        self.samples.swap(self.len - 1, self.len - 2);
    }
}

impl Outputs for Vec<WireSample> {
    #[inline]
    fn send(&mut self, sample: WireSample) {
        self.push(sample);
    }

    #[inline]
    fn swap_newest(&mut self) {
        let len = self.len();
        self.swap(len - 1, len - 2);
    }
}

impl<'p, R: RngCore> WireCorruptor<'p, R> {
    /// Starts the wire stream of `series` for a VM in `region`, under
    /// `plan`, drawing the VM's clock skew from `rng` first.
    #[must_use]
    pub fn new(series: UtilSeries, region: RegionId, plan: &'p FaultPlan, mut rng: R) -> Self {
        let skew = if plan.max_clock_skew_minutes > 0 {
            rng.random_range(-plan.max_clock_skew_minutes..=plan.max_clock_skew_minutes)
        } else {
            0
        };
        let passthrough = skew == 0
            && !(plan.drop_probability > 0.0
                || plan.duplicate_probability > 0.0
                || plan.reorder_probability > 0.0
                || plan.invalid_probability > 0.0)
            && !plan.blackouts.iter().any(|b| b.region == region);
        let wire = Wire {
            region,
            plan,
            rng,
            skew,
            passthrough,
            start: series.start().minutes(),
            position: 0,
            sent: 0,
        };
        Self {
            series,
            wire,
            pending: Pending::default(),
        }
    }

    /// The stream's next output in transmission order, or `None` once
    /// the source is exhausted and every output has been yielded. What
    /// the plan does on the way is counted into `report` as it happens,
    /// so a caller that stops early undercounts — pull to `None` for the
    /// whole stream's ledger.
    pub fn next_sample(&mut self, report: &mut FaultReport) -> Option<WireSample> {
        let levels = self.series.as_quantized();
        let pending = &mut self.pending;
        while pending.len < 2 && self.wire.position < levels.len() {
            self.wire.step(levels, pending, report);
        }
        (pending.len > 0).then(|| pending.pop_oldest())
    }

    /// The next `count` outputs in transmission order (fewer once the
    /// source runs out), pulled in one call: the outputs `count` calls
    /// of [`WireCorruptor::next_sample`] yield, with the same RNG draws
    /// and, once the stream is pulled to its end, the same ledger. A
    /// passthrough stream (no per-sample decision) answers with the
    /// slice of stored levels that holds them. Any other steps into
    /// `buf`, after the outputs held back: an output is final once
    /// another follows it, so the steps stop at `count + 1` outputs,
    /// and what lies past `count` is held back again.
    pub fn next_run<'b>(
        &'b mut self,
        count: usize,
        buf: &'b mut RunBuffer,
        report: &mut FaultReport,
    ) -> WireRun<'b> {
        let (levels, wire, pending) = (
            self.series.as_quantized(),
            &mut self.wire,
            &mut self.pending,
        );
        if !wire.passthrough || pending.len > 0 {
            let buf = &mut buf.0;
            buf.clear();
            buf.extend_from_slice(&pending.samples[..pending.len]);
            while buf.len() <= count && wire.position < levels.len() {
                wire.step(levels, buf, report);
            }
            let held = buf.len().saturating_sub(count);
            pending.samples[..held].copy_from_slice(&buf[buf.len() - held..]);
            pending.len = held;
            buf.truncate(buf.len() - held);
            return WireRun::Samples(buf);
        }
        // Every present level is one output: take source positions up to
        // the `count`-th present one.
        let first = wire.position;
        let rest = &levels[first..];
        let mut end = count.min(rest.len());
        let mut taken = present(&rest[..end]);
        while taken < count && end < rest.len() {
            taken += usize::from(rest[end] != MISSING_SAMPLE_BYTE);
            end += 1;
        }
        wire.position += end;
        wire.sent += taken;
        report.samples_in += taken;
        WireRun::Levels {
            first_minute: wire.start + first as i64 * SAMPLE_INTERVAL_MINUTES,
            levels: &rest[..end],
            samples: taken,
        }
    }

    /// Outputs yielded so far, by [`WireCorruptor::next_sample`] and
    /// [`WireCorruptor::next_run`] alike.
    #[must_use]
    pub fn yielded(&self) -> usize {
        self.wire.sent - self.pending.len
    }
}

impl<R: RngCore> Wire<'_, R> {
    /// Explodes and corrupts the next source position of `levels`,
    /// sending what goes on the wire to `out`.
    fn step(&mut self, levels: &[u8], out: &mut impl Outputs, report: &mut FaultReport) {
        let index = self.position;
        self.position += 1;
        let level = levels[index];
        if level == MISSING_SAMPLE_BYTE {
            return;
        }
        // The reading, as `UtilSeries::get` decodes the level.
        let value = f32::from(level) / QUANT_STEPS_PER_PERCENT;
        let minute = self.start + index as i64 * SAMPLE_INTERVAL_MINUTES;
        let plan = self.plan;
        report.samples_in += 1;
        if plan.blackouts.iter().any(|b| b.covers(self.region, minute)) {
            report.blackout_dropped += 1;
            return;
        }
        if plan.drop_probability > 0.0 && self.rng.random_bool(plan.drop_probability) {
            report.dropped += 1;
            return;
        }
        let mut value = value;
        if plan.invalid_probability > 0.0 && self.rng.random_bool(plan.invalid_probability) {
            report.invalidated += 1;
            value = if self.rng.random_bool(0.5) {
                f32::NAN
            } else {
                -value.abs() - 1.0
            };
        }
        let delivered = WireSample {
            minute: minute + self.skew,
            value,
        };
        out.send(delivered);
        self.sent += 1;
        if plan.duplicate_probability > 0.0 && self.rng.random_bool(plan.duplicate_probability) {
            report.duplicated += 1;
            out.send(delivered);
            self.sent += 1;
        }
        // The guard counts every output sent, not just the pending ones.
        // Both outputs a swap touches are still pending: nothing is
        // yielded before another output follows it.
        if self.sent >= 2
            && plan.reorder_probability > 0.0
            && self.rng.random_bool(plan.reorder_probability)
        {
            report.reordered += 1;
            out.swap_newest();
        }
    }
}

/// Room for one run of a stream's outputs, reused from pull to pull:
/// [`WireCorruptor::next_run`] clears it before it steps into it, so it
/// never holds more than the one run it returns (and the outputs held
/// back, at most two).
#[derive(Debug, Default)]
pub struct RunBuffer(Vec<WireSample>);

/// Samples among stored levels.
#[inline]
fn present(levels: &[u8]) -> usize {
    levels.iter().filter(|&&q| q != MISSING_SAMPLE_BYTE).count()
}

/// Outputs of a wire stream pulled in one call
/// ([`WireCorruptor::next_run`]), in transmission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireRun<'a> {
    /// The stored levels of consecutive source positions, the `i`-th at
    /// minute `first_minute + 5 i`: a present level `q` is the sample
    /// of value `q / 2` at that minute, and
    /// [`MISSING_SAMPLE_BYTE`] puts nothing on the wire.
    Levels {
        /// Timestamp of `levels[0]`, in trace minutes.
        first_minute: i64,
        /// Stored levels, in source order.
        levels: &'a [u8],
        /// Present levels among them: the run's outputs.
        samples: usize,
    },
    /// The outputs themselves.
    Samples(&'a [WireSample]),
}

impl WireRun<'_> {
    /// Outputs in the run.
    #[must_use]
    pub fn outputs(&self) -> usize {
        match self {
            Self::Levels { samples, .. } => *samples,
            Self::Samples(samples) => samples.len(),
        }
    }
}

/// Explodes one VM's series into wire samples and applies the plan's
/// corruptions, returning the stream in transmission order: a
/// [`WireCorruptor`] pulled to the end. With a clean plan this is
/// exactly the pristine wire stream (one sample per present slot, at its
/// true grid timestamp). Batch ingestion of the result via
/// `ingest_wire_samples` is what [`corrupt_trace`] does to each series.
#[must_use]
pub fn corrupt_wire_samples(
    series: &UtilSeries,
    region: RegionId,
    plan: &FaultPlan,
    rng: &mut StdRng,
    report: &mut FaultReport,
) -> Vec<WireSample> {
    let mut wire = WireCorruptor::new(series.clone(), region, plan, rng);
    std::iter::from_fn(|| wire.next_sample(report)).collect()
}

/// Re-assembles wire samples into a [`UtilSeries`] the way a collector
/// would: garbage readings (non-finite or negative) are rejected,
/// timestamps snap to the nearest 5-minute slot, slots outside the
/// trace week are discarded, duplicate slots keep the last delivered
/// value, and slots nothing filled stay *missing* on the rebuilt grid.
/// Returns `None` if no valid sample survived — the VM simply has no
/// telemetry, as [`Trace::util`] models it.
#[must_use]
pub(crate) fn ingest_wire_samples(
    samples: &[WireSample],
    report: &mut FaultReport,
) -> Option<UtilSeries> {
    // One entry per week slot, NaN where nothing landed (accepted values
    // are finite), the layout of the ingestor's lanes.
    let mut slots = vec![f32::NAN; SAMPLES_PER_WEEK];
    let (mut first, mut last, mut filled) = (SAMPLES_PER_WEEK, 0, 0);
    for sample in samples {
        if !sample.value.is_finite() || sample.value < 0.0 {
            continue;
        }
        // Round to the nearest slot; div_euclid keeps skewed-negative
        // timestamps exact instead of wrapping.
        let slot =
            (sample.minute + SAMPLE_INTERVAL_MINUTES / 2).div_euclid(SAMPLE_INTERVAL_MINUTES);
        let Some(slot) = usize::try_from(slot).ok().filter(|&s| s < SAMPLES_PER_WEEK) else {
            report.out_of_week += 1;
            continue;
        };
        filled += usize::from(slots[slot].is_nan());
        slots[slot] = sample.value;
        first = first.min(slot);
        last = last.max(slot);
    }
    if filled == 0 {
        return None;
    }
    report.samples_out += filled;
    Some(UtilSeries::from_percentages(
        SimTime::from_minutes(first as i64 * SAMPLE_INTERVAL_MINUTES),
        slots[first..=last].iter().copied(),
    ))
}

/// Runs one VM's series through the full explode → corrupt → ingest
/// pipeline with the given per-VM RNG stream.
#[must_use]
pub(crate) fn corrupt_util_series(
    series: &UtilSeries,
    region: RegionId,
    plan: &FaultPlan,
    rng: &mut StdRng,
    report: &mut FaultReport,
) -> Option<UtilSeries> {
    report.vms += 1;
    let wire = corrupt_wire_samples(series, region, plan, rng, report);
    ingest_wire_samples(&wire, report)
}

/// Corrupts every telemetry series in `trace` under `plan`, leaving
/// topology, subscriptions, and VM records untouched. Each VM draws its
/// corruption decisions from its own seeded stream, so the result is
/// independent of iteration order and byte-identical across runs with
/// the same plan.
///
/// # Panics
/// Never in practice: the rebuild re-adds the same records the original
/// trace already validated.
#[must_use]
pub fn corrupt_trace(trace: &Trace, plan: &FaultPlan) -> (Trace, FaultReport) {
    let factory = RngFactory::new(plan.seed).child("faults");
    let mut builder = Trace::builder(trace.topology().clone());
    for sub in trace.subscriptions() {
        builder
            .add_subscription(sub.clone())
            .expect("original trace order is dense");
    }
    let mut report = FaultReport::default();
    let (mut records, mut utils) = (Vec::new(), Vec::new());
    trace.for_each_vm(|vm, util| {
        utils.push(util.and_then(|series| {
            let mut rng = factory.indexed_stream("vm", vm.id.index());
            corrupt_util_series(&series, vm.region, plan, &mut rng, &mut report)
        }));
        records.push(vm.clone());
    });
    builder
        .add_vms_bulk(records, utils, &Parallelism::auto())
        .expect("original trace already validated these records");
    report.flush_metrics();
    (builder.build(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Blackout;
    use cloudscope_tracegen::{generate, GeneratorConfig};

    fn flat_series(len: usize) -> UtilSeries {
        UtilSeries::from_percentages(SimTime::ZERO, std::iter::repeat_n(50.0f32, len))
    }

    #[test]
    fn clean_plan_is_identity() {
        let g = generate(&GeneratorConfig::small(21));
        let (corrupted, report) = corrupt_trace(&g.trace, &FaultPlan::clean(21));
        assert_eq!(report.loss_fraction(), 0.0);
        assert_eq!(report.samples_in, report.samples_out);
        for vm in g.trace.vms() {
            assert_eq!(g.trace.util(vm.id), corrupted.util(vm.id), "vm {}", vm.id);
        }
        assert_eq!(g.trace.stats(), corrupted.stats());
    }

    #[test]
    fn same_seed_same_corruption_different_seed_differs() {
        let g = generate(&GeneratorConfig::small(22));
        let plan = FaultPlan::standard(5);
        let (a, ra) = corrupt_trace(&g.trace, &plan);
        let (b, rb) = corrupt_trace(&g.trace, &plan);
        assert_eq!(ra, rb);
        for vm in g.trace.vms() {
            assert_eq!(a.util(vm.id), b.util(vm.id));
        }
        let (c, rc) = corrupt_trace(&g.trace, &FaultPlan::standard(6));
        assert_ne!(ra, rc, "different seed must corrupt differently");
        assert!(
            g.trace
                .vms()
                .iter()
                .any(|vm| a.util(vm.id) != c.util(vm.id)),
            "different seed should change at least one series"
        );
    }

    #[test]
    fn standard_profile_loses_roughly_its_drop_rate() {
        let g = generate(&GeneratorConfig::small(23));
        let (_, report) = corrupt_trace(&g.trace, &FaultPlan::standard(23));
        // 5% uniform drops + 0.25% negative readings + the blackout; the
        // overall loss should sit near but above 5% and well below 20%.
        assert!(report.samples_in > 10_000);
        let loss = report.loss_fraction();
        assert!(loss > 0.04, "loss {loss}");
        assert!(loss < 0.20, "loss {loss}");
        assert!(report.duplicated > 0);
        assert!(report.reordered > 0);
        assert!(report.invalidated > 0);
    }

    #[test]
    fn blackout_empties_exactly_its_window() {
        let plan = FaultPlan {
            blackouts: vec![Blackout {
                region: RegionId::new(0),
                start: SimTime::from_hours(1),
                duration: SimDuration::from_hours(1),
            }],
            ..FaultPlan::clean(1)
        };
        let series = flat_series(48); // 4 hours
        let mut report = FaultReport::default();
        let mut rng = RngFactory::new(1).indexed_stream("vm", 0);
        let out =
            corrupt_util_series(&series, RegionId::new(0), &plan, &mut rng, &mut report).unwrap();
        // Slots 12..24 (minutes 60..120) are blacked out.
        for i in 0..48 {
            let missing = out.get(i).is_none();
            assert_eq!(missing, (12..24).contains(&i), "slot {i}");
        }
        assert_eq!(report.blackout_dropped, 12);
        // A VM in another region is untouched.
        let mut report2 = FaultReport::default();
        let out2 =
            corrupt_util_series(&series, RegionId::new(1), &plan, &mut rng, &mut report2).unwrap();
        assert_eq!(out2.present_count(), 48);
    }

    #[test]
    fn ingest_rejects_garbage_dedups_and_reorders() {
        let mut report = FaultReport::default();
        let samples = [
            WireSample {
                minute: 0,
                value: 10.0,
            },
            // Out-of-order delivery of the minute-10 sample...
            WireSample {
                minute: 10,
                value: 30.0,
            },
            WireSample {
                minute: 5,
                value: 20.0,
            },
            // ...a duplicate of minute 10 with a newer value (wins)...
            WireSample {
                minute: 10,
                value: 35.0,
            },
            // ...and garbage the validator must reject.
            WireSample {
                minute: 15,
                value: f32::NAN,
            },
            WireSample {
                minute: 20,
                value: -3.0,
            },
            // A skewed timestamp snapping onto slot 5.
            WireSample {
                minute: 26,
                value: 40.0,
            },
        ];
        let out = ingest_wire_samples(&samples, &mut report).unwrap();
        assert_eq!(out.start(), SimTime::ZERO);
        assert_eq!(out.get(0), Some(10.0));
        assert_eq!(out.get(1), Some(20.0));
        assert_eq!(out.get(2), Some(35.0), "last delivered duplicate wins");
        assert!(out.get(3).is_none(), "rejected NaN leaves a gap");
        assert!(out.get(4).is_none(), "rejected negative leaves a gap");
        assert_eq!(out.get(5), Some(40.0), "minute 26 snaps to slot 5");
        assert_eq!(out.len(), 6);
        assert_eq!(report.samples_out, 4);
    }

    #[test]
    fn skewed_timestamps_off_the_week_are_discarded() {
        let plan = FaultPlan {
            max_clock_skew_minutes: 2,
            ..FaultPlan::clean(9)
        };
        // Find a VM rng whose skew is negative so the first sample
        // (minute 0) can leave the week.
        let mut report = FaultReport::default();
        let mut found_negative = false;
        for id in 0..32u64 {
            let mut rng = RngFactory::new(9).indexed_stream("vm", id);
            let skew: i64 = rng.random_range(-2i64..=2);
            if skew <= -2 {
                found_negative = true;
                let mut rng = RngFactory::new(9).indexed_stream("vm", id);
                let series = flat_series(4);
                let out =
                    corrupt_util_series(&series, RegionId::new(0), &plan, &mut rng, &mut report)
                        .unwrap();
                // Minute 0 skewed to -2 rounds to slot 0 and stays; a
                // -3 skew would discard it. Either way nothing panics
                // and the series stays within the week.
                assert!(out.start().minutes() >= 0);
                break;
            }
        }
        assert!(found_negative, "no negative skew among 32 streams");
    }

    #[test]
    fn empty_and_fully_lost_series_become_no_telemetry() {
        let mut report = FaultReport::default();
        assert!(ingest_wire_samples(&[], &mut report).is_none());
        let plan = FaultPlan {
            drop_probability: 1.0,
            ..FaultPlan::clean(3)
        };
        let mut rng = RngFactory::new(3).indexed_stream("vm", 0);
        let out = corrupt_util_series(
            &flat_series(12),
            RegionId::new(0),
            &plan,
            &mut rng,
            &mut report,
        );
        assert!(out.is_none());
        assert_eq!(report.dropped, 12);
    }
}
