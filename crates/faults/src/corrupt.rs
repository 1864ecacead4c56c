//! The explode → corrupt → ingest pipeline that turns a pristine trace
//! into the one a real collector would have recorded.

use crate::plan::{FaultPlan, FaultReport};
use cloudscope_model::prelude::*;
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_sim::rng::RngFactory;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// One utilization reading as it crosses the wire from the in-guest
/// monitor to the trace store: a recorded timestamp (which a skewed
/// clock may have shifted off the grid) and the raw value (which may be
/// garbage).
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// instead pulls each output as it comes due.
#[derive(Debug)]
pub struct WireCorruptor<'p, R = StdRng> {
    series: UtilSeries,
    region: RegionId,
    plan: &'p FaultPlan,
    rng: R,
    /// The VM's constant clock skew, in minutes.
    skew: i64,
    /// Next source position to explode.
    position: usize,
    /// Outputs put on the wire so far, yielded or not.
    sent: usize,
    /// Outputs not yet yielded, oldest first, in `pending[..len]`. Only
    /// the newest can still move, so a pull yields the oldest once
    /// `len >= 2` or the source is exhausted. A step runs only while
    /// `len < 2` and appends at most two (a sample and its duplicate).
    pending: [WireSample; 3],
    len: usize,
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
        Self {
            series,
            region,
            plan,
            rng,
            skew,
            position: 0,
            sent: 0,
            pending: [WireSample {
                minute: 0,
                value: 0.0,
            }; 3],
            len: 0,
        }
    }

    /// The stream's next output in transmission order, or `None` once
    /// the source is exhausted and every output has been yielded. What
    /// the plan does on the way is counted into `report` as it happens,
    /// so a caller that stops early undercounts — pull to `None` for the
    /// whole stream's ledger.
    pub fn next_sample(&mut self, report: &mut FaultReport) -> Option<WireSample> {
        while self.len < 2 && self.position < self.series.len() {
            self.step(report);
        }
        if self.len == 0 {
            return None;
        }
        let oldest = self.pending[0];
        self.pending[0] = self.pending[1];
        self.pending[1] = self.pending[2];
        self.len -= 1;
        Some(oldest)
    }

    /// Explodes and corrupts the next source position.
    fn step(&mut self, report: &mut FaultReport) {
        let index = self.position;
        self.position += 1;
        let Some(value) = self.series.get(index) else {
            return;
        };
        let minute = self.series.start().minutes() + index as i64 * SAMPLE_INTERVAL_MINUTES;
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
        self.send(delivered);
        if plan.duplicate_probability > 0.0 && self.rng.random_bool(plan.duplicate_probability) {
            report.duplicated += 1;
            self.send(delivered);
        }
        // The guard counts every output sent, not just the pending ones.
        // Both outputs a swap touches are still pending: nothing is
        // yielded before another output follows it.
        if self.sent >= 2
            && plan.reorder_probability > 0.0
            && self.rng.random_bool(plan.reorder_probability)
        {
            report.reordered += 1;
            self.pending.swap(self.len - 1, self.len - 2);
        }
    }

    fn send(&mut self, sample: WireSample) {
        self.pending[self.len] = sample;
        self.len += 1;
        self.sent += 1;
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
    trace.for_each_vm(|vm, util| {
        let util = util.and_then(|series| {
            let mut rng = factory.indexed_stream("vm", vm.id.index());
            corrupt_util_series(&series, vm.region, plan, &mut rng, &mut report)
        });
        builder
            .add_vm(vm.clone(), util)
            .expect("original trace already validated this record");
    });
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
