//! Test-only oracle for the tick-batched drive: the per-sample
//! discrete-event drive it replaced, over an eagerly built wire.
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
