//! Test-only oracles: the per-sample discrete-event drive the
//! tick-batched drive replaced, over an eagerly built wire, and the
//! per-sample offer rules the run offer replaced.
//!
//! [`drive_per_sample`] materialises every VM's whole corrupted wire
//! stream up front ([`wire_streams`]), schedules one `Deliver` event per
//! wire sample on the `cloudscope-sim` calendar, next to the hourly
//! watermark ticks, and lets the `(time, insertion order)` pop order
//! decide what the ingestor sees when. It shares no line of its delivery
//! loop with [`crate::drive_ingest`], which generates each stream lazily
//! as it comes due, so equal outcomes are evidence that delivering in
//! tick-bounded batches — tie rule, corruptor lookahead and end-of-run
//! cut included — is the same drive, not a tautology.

use crate::drive::{end_minute, DriveOutcome, MAX_CLASSIFIED_VMS_PER_SUB};
use crate::ingestor::{IngestConfig, Ingestor};
use crate::publish::publish_closed_windows;
use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::{corrupt_wire_samples, FaultPlan, FaultReport, WireSample};
use cloudscope_kb::{KbStore, PipelineStats, RetryPolicy};
use cloudscope_model::prelude::*;
use cloudscope_model::time::{MINUTES_PER_HOUR, SAMPLE_INTERVAL_MINUTES};
use cloudscope_sim::rng::RngFactory;
use cloudscope_sim::Simulation;

/// One VM's whole wire stream: position `j` is due at `start` plus `j`
/// sample intervals.
struct WireStream {
    vm: VmId,
    start: i64,
    wire: Vec<WireSample>,
}

/// Explodes every telemetry-bearing VM's series into its whole wire
/// stream, corrupted under `plan` from the VM's own seeded RNG stream,
/// in trace order. Streams the plan emptied are left out.
fn wire_streams(
    trace: &Trace,
    plan: &FaultPlan,
    fault_report: &mut FaultReport,
) -> Vec<WireStream> {
    let factory = RngFactory::new(plan.seed).child("faults");
    let mut streams = Vec::new();
    trace.for_each_vm(|vm, util| {
        let Some(util) = util else {
            return;
        };
        fault_report.vms += 1;
        let mut rng = factory.indexed_stream("vm", vm.id.index());
        let wire = corrupt_wire_samples(&util, vm.region, plan, &mut rng, fault_report);
        if !wire.is_empty() {
            streams.push(WireStream {
                vm: vm.id,
                start: util.start().minutes(),
                wire,
            });
        }
    });
    streams
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Delivery of position `index` of stream `stream`.
    Deliver {
        stream: usize,
        index: usize,
    },
    WatermarkTick,
}

/// [`crate::drive_ingest`], one simulator event per wire sample.
fn drive_per_sample<S: KbStore + ?Sized>(
    trace: &Trace,
    plan: &FaultPlan,
    config: &IngestConfig,
    classifier: &PatternClassifier,
    store: &S,
) -> DriveOutcome {
    let mut fault_report = FaultReport::default();
    let streams = wire_streams(trace, plan, &mut fault_report);
    let mut sim: Simulation<Event> = Simulation::new();
    for (stream, s) in streams.iter().enumerate() {
        sim.schedule(
            SimTime::from_minutes(s.start),
            Event::Deliver { stream, index: 0 },
        );
    }
    let end_minute = end_minute(config);
    sim.schedule(
        SimTime::from_minutes(MINUTES_PER_HOUR),
        Event::WatermarkTick,
    );

    let mut ingestor = Ingestor::new(*config, *classifier);
    let mut pipeline_stats = PipelineStats::default();
    let retry = RetryPolicy::default();
    let mut publish = |ingestor: &Ingestor, closes: &[crate::WindowClose]| {
        publish_closed_windows(
            trace,
            ingestor.session(),
            closes,
            store,
            MAX_CLASSIFIED_VMS_PER_SUB,
            &retry,
            &mut pipeline_stats,
        );
    };
    let events_processed = sim.run(
        SimTime::from_minutes(end_minute + 1),
        |scheduler, time, event| match event {
            Event::Deliver { stream, index } => {
                let s = &streams[stream];
                ingestor.offer(s.vm, s.wire[index]);
                if index + 1 < s.wire.len() {
                    scheduler.schedule(
                        time + SimDuration::from_minutes(SAMPLE_INTERVAL_MINUTES),
                        Event::Deliver {
                            stream,
                            index: index + 1,
                        },
                    );
                }
            }
            Event::WatermarkTick => {
                let closes = ingestor.advance_watermark(time);
                publish(&ingestor, &closes);
                if time.minutes() + MINUTES_PER_HOUR <= end_minute {
                    scheduler.schedule(
                        time + SimDuration::from_minutes(MINUTES_PER_HOUR),
                        Event::WatermarkTick,
                    );
                }
            }
        },
    );
    let final_closes = ingestor.drain(SimTime::from_minutes(end_minute));
    publish(&ingestor, &final_closes);
    DriveOutcome {
        session: ingestor.finish(),
        fault_report,
        pipeline_stats,
        events_processed,
    }
}

mod tests {
    use super::*;
    use crate::drive_ingest;
    use crate::ingestor::IngestReport;
    use cloudscope_faults::Blackout;
    use cloudscope_kb::{KbQuery, KnowledgeBase};
    use cloudscope_model::time::{MINUTES_PER_DAY, MINUTES_PER_WEEK};
    use cloudscope_model::trace::TelemetrySource;
    use cloudscope_tracegen::{generate, GeneratorConfig};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    const SEEDS: [u64; 4] = [41, 43, 9110, 20_231];

    /// One trace per seed, generated once for all cases:
    /// [`GeneratorConfig::small`] cut to about a quarter of its VMs,
    /// which keeps 32 double drives affordable in a debug build.
    fn trace(seed_index: usize) -> &'static Trace {
        static TRACES: [OnceLock<Trace>; SEEDS.len()] = [const { OnceLock::new() }; SEEDS.len()];
        TRACES[seed_index].get_or_init(|| {
            let mut cfg = GeneratorConfig::small(SEEDS[seed_index]);
            cfg.topology.racks_per_cluster = 1;
            cfg.topology.nodes_per_rack = 8;
            cfg.private.subscriptions /= 3;
            cfg.public.subscriptions /= 3;
            cfg.private.arrival.base_rate_per_hour /= 3.0;
            cfg.public.arrival.base_rate_per_hour /= 3.0;
            generate(&cfg).trace
        })
    }

    /// Harsher than the standard plan where delivery order matters:
    /// 5× the duplication (streams stretch, some past the run's end),
    /// 10× the reordering (more stragglers behind the watermark), and a
    /// second blackout that straddles a day boundary.
    fn harsh_plan(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan {
            duplicate_probability: 0.05,
            reorder_probability: 0.10,
            ..FaultPlan::standard(seed)
        };
        plan.blackouts.push(Blackout {
            region: RegionId::new(1),
            start: SimTime::from_days(1) + SimDuration::from_hours(18),
            duration: SimDuration::from_hours(9),
        });
        plan
    }

    fn plan_strategy() -> impl Strategy<Value = (usize, FaultPlan)> {
        (0..SEEDS.len(), 0usize..3).prop_map(|(seed_index, kind)| {
            let seed = SEEDS[seed_index];
            let plan = match kind {
                0 => FaultPlan::clean(seed),
                1 => FaultPlan::standard(seed),
                _ => harsh_plan(seed),
            };
            (seed_index, plan)
        })
    }

    fn config_strategy() -> impl Strategy<Value = IngestConfig> {
        (
            prop_oneof![Just(5i64), Just(10), Just(30)],
            // The one-day window is what exercises the tie rule: a VM
            // whose first sample is due exactly on a closing tick owns
            // a lane at that close, and `windows_closed` counts it.
            prop_oneof![Just(MINUTES_PER_DAY), Just(MINUTES_PER_WEEK)],
        )
            .prop_map(|(watermark_delay_minutes, window_minutes)| IngestConfig {
                watermark_delay_minutes,
                window_minutes,
            })
    }

    /// Guards the oracle's reach: the tie rule only shows when some
    /// VM's first sample is due exactly on a tick that closes a window.
    /// With a one-day window and a delay under an hour those are the
    /// ticks one hour past each day boundary.
    #[test]
    fn some_vm_starts_exactly_on_a_closing_tick() {
        let ties = (0..SEEDS.len())
            .flat_map(|i| {
                trace(i)
                    .vms()
                    .iter()
                    .filter_map(move |vm| trace(i).util(vm.id))
            })
            .map(|util| util.start().minutes())
            .filter(|start| *start > MINUTES_PER_DAY && start % MINUTES_PER_DAY == MINUTES_PER_HOUR)
            .count();
        assert!(ties > 0, "no seed exercises the tie rule");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The property the drive rests on: tick-bounded batches and
        /// per-sample events end in the same state — per-VM series,
        /// patterns and drop flags, every ledger, and the published
        /// knowledge. Only `peak_pending_samples` and the event count
        /// itself may differ: the peak is sampled per applied offer, so
        /// it follows the offer order between ticks — the drive's is
        /// the VM-by-VM order at every worker count, the oracle's the
        /// time-major order of its event calendar.
        #[test]
        fn tick_batches_match_the_per_sample_drive(
            stream in plan_strategy(),
            config in config_strategy(),
        ) {
            let (seed_index, plan) = stream;
            let trace = trace(seed_index);
            let classifier = PatternClassifier;
            let (kb, reference_kb) = (KnowledgeBase::new(), KnowledgeBase::new());
            let got = drive_ingest(trace, &plan, &config, &classifier, &kb);
            let want = drive_per_sample(trace, &plan, &config, &classifier, &reference_kb);

            // Guards the comparison itself: the oracle really is
            // per-sample, the drive really is per-tick.
            let offered = want.session.report().samples_offered;
            prop_assert!(want.events_processed > offered);
            prop_assert!(got.events_processed < 200);

            let ledger = |outcome: &DriveOutcome| IngestReport {
                peak_pending_samples: 0,
                ..*outcome.session.report()
            };
            prop_assert_eq!(ledger(&got), ledger(&want));
            prop_assert_eq!(got.fault_report, want.fault_report);
            prop_assert_eq!(got.pipeline_stats, want.pipeline_stats);
            for vm in trace.vms() {
                let id = vm.id;
                prop_assert_eq!(got.session.load(id), want.session.load(id), "series of {}", id);
                prop_assert_eq!(got.session.pattern(id), want.session.pattern(id), "pattern of {}", id);
                prop_assert_eq!(got.session.had_drops(id), want.session.had_drops(id), "drops of {}", id);
            }
            prop_assert_eq!(
                KbQuery::all().collect(&kb),
                KbQuery::all().collect(&reference_kb)
            );
        }
    }
}

/// The per-sample offer rules that `ingestor::offer_run` replaced, and
/// the property that a run offered in one call leaves what offering its
/// samples one by one under them leaves.
mod offer {
    use crate::ingestor::{level, offer_run, IngestReport, OfferTally, TOP_LEVEL};
    use crate::session::VmLane;
    use cloudscope_faults::{WireRun, WireSample};
    use cloudscope_model::telemetry::{MISSING_SAMPLE_BYTE, QUANT_STEPS_PER_PERCENT};
    use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
    use proptest::prelude::*;

    /// The per-sample offer [`offer_run`] replaced, kept as its oracle:
    /// every rule applied to one wire sample, the lane sealed on each
    /// valid, in-week sample and the peak sampled after each applied
    /// one. Returns whether the sample was applied.
    fn offer_lane<'l>(
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
        let slot =
            (sample.minute + SAMPLE_INTERVAL_MINUTES / 2).div_euclid(SAMPLE_INTERVAL_MINUTES);
        if !(0..SAMPLES_PER_WEEK as i64).contains(&slot) {
            report.out_of_week += 1;
            return false;
        }
        let slot = slot as usize;
        let lane = lane().get_or_insert_with(|| {
            report.vms += 1;
            VmLane::new()
        });
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
        let previous = std::mem::replace(&mut lane.slots[slot], level(sample.value));
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

    /// The wire samples a run stands for, in transmission order.
    fn samples_of(run: WireRun<'_>) -> Vec<WireSample> {
        match run {
            WireRun::Levels {
                first_minute,
                levels,
                ..
            } => (0i64..)
                .zip(levels)
                .filter(|&(_, &q)| q != MISSING_SAMPLE_BYTE)
                .map(|(i, &q)| WireSample {
                    minute: first_minute + i * SAMPLE_INTERVAL_MINUTES,
                    value: f32::from(q) / QUANT_STEPS_PER_PERCENT,
                })
                .collect(),
            WireRun::Samples(samples) => samples.to_vec(),
        }
    }

    const WEEK: i64 = SAMPLES_PER_WEEK as i64;

    /// A stored byte: missing, a level, or a byte above the top level.
    fn stored_byte() -> impl Strategy<Value = u8> {
        prop_oneof![
            Just(MISSING_SAMPLE_BYTE),
            0u8..=TOP_LEVEL,
            0u8..=TOP_LEVEL,
            TOP_LEVEL + 1..MISSING_SAMPLE_BYTE,
        ]
    }

    /// A wire reading: garbage (NaN, infinite, negative), a stored
    /// level's value, or any value on a fine grid up to 120 %.
    fn reading() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(f32::NAN),
            Just(f32::INFINITY),
            (1u32..4000).prop_map(|x| -(x as f32) / 20.0),
            (0u8..=TOP_LEVEL).prop_map(|q| f32::from(q) / QUANT_STEPS_PER_PERCENT),
            (0u32..=2400).prop_map(|x| x as f32 / 20.0),
        ]
    }

    /// A run around slot `anchor`: stored levels from a (possibly
    /// off-grid) first minute, or samples with skewed timestamps, whose
    /// narrow slot range makes duplicates and swaps common. Offsets are
    /// in slots from the anchor.
    #[derive(Debug, Clone)]
    enum Shape {
        Levels {
            offset: i64,
            skew: i64,
            levels: Vec<u8>,
        },
        Samples(Vec<(i64, i64, f32)>),
    }

    fn shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            (
                -16i64..=16,
                -7i64..=7,
                prop::collection::vec(stored_byte(), 0..=30)
            )
                .prop_map(|(offset, skew, levels)| Shape::Levels {
                    offset,
                    skew,
                    levels
                }),
            prop::collection::vec((-16i64..=28, -4i64..=4, reading()), 0..=20)
                .prop_map(Shape::Samples),
        ]
    }

    /// The lane before the run: none, or one holding `prior` from 12
    /// slots below the anchor, sealed `sealed` slots past that (never
    /// beyond the floor, which only rises).
    type Prior = Option<(Vec<u8>, usize)>;

    fn prior() -> impl Strategy<Value = Prior> {
        prop_oneof![
            Just(None),
            (prop::collection::vec(stored_byte(), 36), 0usize..=40).prop_map(Some),
        ]
    }

    fn lane_of(prior: &Prior, anchor: i64, floor: usize) -> Option<VmLane> {
        let (bytes, sealed) = prior.as_ref()?;
        let mut lane = VmLane::new();
        for (slot, &q) in (anchor - 12..).zip(bytes) {
            if let Ok(slot) = usize::try_from(slot) {
                if slot < SAMPLES_PER_WEEK {
                    lane.slots[slot] = q;
                }
            }
        }
        let sealed = usize::try_from(anchor - 12 + *sealed as i64).unwrap_or(0);
        lane.seal_upto(sealed.min(floor));
        Some(lane)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// A run offered in one call leaves what offering its samples
        /// one by one leaves: every counter, the pending change, the
        /// peak, the dirty flag and the lane, byte for byte — at the
        /// week's edges, across the seal floor, with garbage,
        /// duplicates and swaps.
        #[test]
        fn a_run_offers_as_its_samples_one_by_one(
            anchor in prop_oneof![Just(0i64), Just(WEEK - 12), 12i64..WEEK - 24],
            floor in -6i64..=24,
            prior in prior(),
            start in (-40isize..=40, 0usize..=60, any::<bool>()),
            shape in shape(),
        ) {
            let floor = usize::try_from(anchor + floor).unwrap_or(0);
            let samples: Vec<WireSample>;
            let run = match &shape {
                Shape::Levels { offset, skew, levels } => WireRun::Levels {
                    first_minute: (anchor + offset) * SAMPLE_INTERVAL_MINUTES + skew,
                    levels,
                    samples: levels.iter().filter(|&&q| q != MISSING_SAMPLE_BYTE).count(),
                },
                Shape::Samples(spec) => {
                    samples = spec
                        .iter()
                        .map(|&(offset, skew, value)| WireSample {
                            minute: (anchor + offset) * SAMPLE_INTERVAL_MINUTES + skew,
                            value,
                        })
                        .collect();
                    WireRun::Samples(&samples)
                }
            };
            let (pending, peak, dirty) = start;
            let tally = || OfferTally {
                report: IngestReport { peak_pending_samples: peak, ..IngestReport::default() },
                pending,
                dirty,
                offers: 0,
            };

            let (mut got_lane, mut got, mut got_opened) = (lane_of(&prior, anchor, floor), tally(), false);
            offer_run(|| { got_opened = true; &mut got_lane }, run, floor, &mut got);

            let (mut want_lane, mut want, mut want_opened) = (lane_of(&prior, anchor, floor), tally(), false);
            for sample in samples_of(run) {
                let (lane, opened) = (&mut want_lane, &mut want_opened);
                let lane = move || { *opened = true; lane };
                want.dirty |= offer_lane(lane, sample, floor, &mut want.report, &mut want.pending);
            }

            prop_assert_eq!(got.report, want.report);
            prop_assert_eq!(got.pending, want.pending);
            prop_assert_eq!(got.dirty, want.dirty);
            prop_assert_eq!(got.offers, 1);
            prop_assert_eq!(got_opened, want_opened);
            prop_assert!(got_lane == want_lane, "lanes differ for {:?}", shape);
        }
    }
}
