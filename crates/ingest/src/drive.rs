//! The discrete-event driver: a trace replayed as a live telemetry
//! stream against the ingestion service.

use crate::ingestor::{offer_run, IngestConfig, Ingestor, OfferTally, WindowClose};
use crate::publish::publish_closed_windows;
use crate::session::{IngestSession, VmLane};
use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::{FaultPlan, FaultReport, RunBuffer, WireCorruptor};
use cloudscope_kb::{KbStore, Parallelism, PipelineStats, RetryPolicy};
use cloudscope_model::prelude::*;
use cloudscope_model::time::{MINUTES_PER_HOUR, MINUTES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_sim::rng::RngFactory;
use cloudscope_sim::Simulation;

/// How many VMs' classification work one publish batch may trigger —
/// the same per-subscription cap the batch extraction pipeline takes.
pub(crate) const MAX_CLASSIFIED_VMS_PER_SUB: usize = 4;

/// Events of the ingestion simulation. Sample delivery is not one of
/// them: between two watermark advances nothing global changes, so each
/// tick delivers the samples that came due since the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestEvent {
    /// Periodic watermark advance: delivers the due samples (queued
    /// until a window close reads the lanes, see [`drive_ingest`]),
    /// seals ripe slots, closes windows the watermark crossed,
    /// publishes the refreshed knowledge.
    WatermarkTick,
}

/// One VM's wire stream, generated as it comes due: output `j` is due
/// at `start` plus `j` sample intervals, and the outputs the corruptor
/// has yielded are the ones delivered.
#[derive(Debug)]
struct WireStream<'p> {
    vm: VmId,
    /// Minute at which output 0 is due (the VM's series start).
    start: i64,
    wire: WireCorruptor<'p>,
}

/// Where a delivery round stops offering.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// The watermark tick at this minute. A sample due exactly on the
    /// tick arrives after it — except a stream's first: a monitor that
    /// starts on the tick reports before the watermark moves, which
    /// decides whether its lane exists at a window close.
    Tick(i64),
    /// The end of the run at this minute: samples due up to it are
    /// offered, and a stream that duplication stretched past it is cut
    /// there and then run to its end unoffered, so the fault ledger
    /// counts what the plan did to every whole stream.
    End(i64),
}

/// One delivery round: where it cuts, and the seal floor its offers
/// judge lateness by — the ingestor's floor when the round's tick came,
/// however late the round runs.
#[derive(Debug, Clone, Copy)]
struct Round {
    cut: Cut,
    seal_floor: usize,
}

impl WireStream<'_> {
    /// How many outputs are due by `cut`.
    fn due(&self, cut: Cut) -> usize {
        let before = match cut {
            Cut::Tick(now) => now + i64::from(self.start == now),
            Cut::End(end) => end + 1,
        };
        // Output j is due before `before` iff start + 5 j < before.
        let due =
            (before - self.start + SAMPLE_INTERVAL_MINUTES - 1).div_euclid(SAMPLE_INTERVAL_MINUTES);
        usize::try_from(due).unwrap_or(0)
    }

    /// Offers every undelivered output due by `cut` to the VM's `lane`,
    /// as one run pulled into `buf` (a faulted stream's outputs; a clean
    /// one's run is its stored levels). A round with no output due
    /// offers nothing.
    fn deliver(
        &mut self,
        cut: Cut,
        lane: &mut Option<VmLane>,
        seal_floor: usize,
        tally: &mut OfferTally,
        buf: &mut RunBuffer,
        faults: &mut FaultReport,
    ) {
        let due = self.due(cut).saturating_sub(self.wire.yielded());
        let run = self.wire.next_run(due, buf, faults);
        if run.outputs() > 0 {
            offer_run(move || lane, run, seal_floor, tally);
        }
        if let Cut::End(_) = cut {
            while self.wire.next_sample(faults).is_some() {}
        }
    }
}

/// Shards per worker in a delivery sweep: more than one, so a worker
/// done with a light shard takes another instead of idling.
const SHARDS_PER_WORKER: usize = 4;

/// Cuts `streams` (in ascending VM order) into at most `count`
/// contiguous, near-equal runs, the delivery shards, and returns the
/// index of each run's first stream. Shard `k` owns the lanes from its
/// first VM up to shard `k + 1`'s first VM, and the last shard the rest
/// of the table.
fn shard_starts(streams: &[WireStream], count: usize) -> Vec<usize> {
    assert!(
        streams.windows(2).all(|pair| pair[0].vm < pair[1].vm),
        "wire streams must be in ascending VM order"
    );
    let count = count.clamp(1, streams.len().max(1));
    (0..count)
        .map(|k| k * streams.len() / count)
        .filter(|&start| start < streams.len())
        .collect()
}

/// One delivery shard: a run of streams and the lanes they offer to.
struct Shard<'a, 'p> {
    streams: &'a mut [WireStream<'p>],
    /// The lane of VM `base + i` at `lanes[i]`.
    lanes: &'a mut [Option<VmLane>],
    base: usize,
}

impl Shard<'_, '_> {
    /// Runs `rounds` over the shard's streams, one tally per round: the
    /// tally of offering round by round, VM by VM. Lanes share no state,
    /// so each stream runs all its rounds at once while its state is in
    /// cache, and offers its run of each round straight into that
    /// round's tally, in VM order. One run buffer serves the shard: a
    /// run holds the outputs due in one hour.
    fn deliver(&mut self, rounds: &[Round]) -> (Vec<OfferTally>, FaultReport) {
        let mut faults = FaultReport::default();
        let mut tallies: Vec<OfferTally> = rounds.iter().map(|_| OfferTally::default()).collect();
        let mut buf = RunBuffer::default();
        for stream in self.streams.iter_mut() {
            let lane = &mut self.lanes[stream.vm.as_usize() - self.base];
            for (round, tally) in rounds.iter().zip(&mut tallies) {
                let (cut, seal_floor) = (round.cut, round.seal_floor);
                stream.deliver(cut, lane, seal_floor, tally, &mut buf, &mut faults);
            }
        }
        (tallies, faults)
    }
}

/// Delivers every stream's samples due at each of `rounds`, in order,
/// in one sweep: the shards that `starts` cuts out ([`shard_starts`])
/// run on `par`'s workers, and their tallies are folded into `ingestor`
/// round by round and, within a round, in VM order — the state a serial
/// sweep offering round by round, VM by VM, leaves, whatever the worker
/// or shard count. Nothing but the offers may touch the lanes between
/// the rounds. Returns what the corruptors did on the way. The lane
/// table must already reach every stream's VM ([`Ingestor::size_lanes`]).
fn deliver(
    ingestor: &mut Ingestor,
    streams: &mut [WireStream],
    starts: &[usize],
    par: Parallelism,
    rounds: &[Round],
) -> FaultReport {
    let mut lanes = ingestor.lanes_mut();
    let (mut streams, mut lanes_from) = (streams, 0);
    let mut shards = Vec::with_capacity(starts.len());
    for (k, &start) in starts.iter().enumerate() {
        let len = starts.get(k + 1).map_or(streams.len(), |next| next - start);
        let (own, rest) = std::mem::take(&mut streams).split_at_mut(len);
        streams = rest;
        let base = own[0].vm.as_usize();
        let end = streams
            .first()
            .map_or(lanes_from + lanes.len(), |next| next.vm.as_usize());
        let (_, from_base) = std::mem::take(&mut lanes).split_at_mut(base - lanes_from);
        let (own_lanes, rest) = from_base.split_at_mut(end - base);
        (lanes, lanes_from) = (rest, end);
        shards.push(Shard {
            streams: own,
            lanes: own_lanes,
            base,
        });
    }
    let delivered = par.par_map_mut(&mut shards, |shard| shard.deliver(rounds));
    drop(shards);
    for round in 0..rounds.len() {
        for (tallies, _) in &delivered {
            ingestor.fold(&tallies[round]);
        }
    }
    let mut faults = FaultReport::default();
    for (_, shard_faults) in &delivered {
        faults.add(shard_faults);
    }
    faults
}

/// Starts every telemetry-bearing VM's wire stream, corrupted under
/// `plan` from the VM's own seeded RNG stream, in trace order. A stream
/// holds its series (a shared buffer, not a copy) and a cursor, not
/// samples.
fn wire_streams<'p>(
    trace: &Trace,
    plan: &'p FaultPlan,
    fault_report: &mut FaultReport,
) -> Vec<WireStream<'p>> {
    let factory = RngFactory::new(plan.seed).child("faults");
    let mut streams = Vec::new();
    trace.for_each_vm(|vm, util| {
        let Some(util) = util else {
            return;
        };
        fault_report.vms += 1;
        let rng = factory.indexed_stream("vm", vm.id.index());
        streams.push(WireStream {
            vm: vm.id,
            start: util.start().minutes(),
            wire: WireCorruptor::new(util, vm.region, plan, rng),
        });
    });
    streams
}

/// The last minute of a drive. The run must outlast the final watermark
/// tick that seals the last week slot: watermark = now - delay reaches
/// the week end one delay later, and ticks land hourly after that.
pub(crate) fn end_minute(config: &IngestConfig) -> i64 {
    MINUTES_PER_WEEK + config.watermark_delay_minutes + MINUTES_PER_HOUR
}

/// The result of one driven ingestion run.
#[derive(Debug)]
pub struct DriveOutcome {
    /// End state: the lane table (a [`TelemetrySource`] over the
    /// streamed data).
    ///
    /// [`TelemetrySource`]: cloudscope_model::trace::TelemetrySource
    pub session: IngestSession,
    /// Corruption ledger of the wire streams (what the fault plan did).
    pub fault_report: FaultReport,
    /// KB publication ledger (batches, retries, failures).
    pub pipeline_stats: PipelineStats,
    /// Discrete events the simulation processed: the watermark ticks,
    /// one per simulated hour. Samples are not events — see
    /// [`IngestReport::samples_offered`](crate::IngestReport) for those.
    pub events_processed: u64,
}

/// Replays `trace`'s telemetry as a live stream through the ingestion
/// service, under the discrete-event clock:
///
/// - Each VM's series is exploded into wire samples and corrupted under
///   `plan` by a [`WireCorruptor`] as the samples come due (same per-VM
///   seeded streams as [`cloudscope_faults::corrupt_trace`], so the
///   stream *content* is byte-comparable to batch corruption).
///   Corruption shuffles content, not cadence: stream output `j` is due
///   at the VM's series start plus `j` sample intervals, which is how a
///   reordered sample actually arrives late.
/// - An hourly watermark tick first delivers every sample that came
///   due since the previous tick, in runs: each stream's due outputs
///   are pulled in one call and offered to its lane in one call. A
///   clean stream's run is the slice of its stored levels, copied into
///   the lane; a faulted one's is its corrupted samples, in a buffer
///   each shard reuses. The seal floor moves only at ticks
///   and lanes share no state, so offers to different VMs between two
///   ticks commute, and only each VM's own order matters: the streams
///   are cut into contiguous VM-range shards, delivered on every
///   worker, and their tallies folded in VM order. Every result —
///   `peak_pending_samples` included, the one counter that sees the
///   interleaving — is that of offering VM by VM in ascending id order,
///   at every worker count. The tick then seals ripe slots, closes any
///   window the watermark crossed (re-running Figure 5 classification
///   per VM), and publishes the refreshed subscription knowledge into
///   `store` through the batched feed + retry path.
/// - Only a window close reads the lanes, so a tick's delivery need
///   not run at its tick: each tick queues its round with the seal
///   floor then in force, and the queue runs, all rounds in one sweep
///   over the workers, just before a close — once a week under the
///   default window, not once an hour. Offers, seals and folds happen
///   in the order the ticks would have made them, so the run is the
///   hour-by-hour run.
/// - After the final tick the samples due before the run's end are
///   delivered (a stream that duplication stretched past it is cut
///   there, and then run to its end unoffered, so `fault_report` covers
///   every whole stream), a catch-up drain closes whatever remains, and
///   the ingestor hands its lane table over as the [`IngestSession`].
///
/// With [`FaultPlan::clean`] the session's series and classifications
/// are byte-identical to batch ingestion of the same trace; under
/// faults, any divergence from the batch-corrupted trace is confined to
/// VMs named by [`IngestSession::had_drops`].
pub fn drive_ingest<S: KbStore + ?Sized>(
    trace: &Trace,
    plan: &FaultPlan,
    config: &IngestConfig,
    classifier: &PatternClassifier,
    store: &S,
) -> DriveOutcome {
    let _run = cloudscope_obs::span("ingest.drive");
    let par = Parallelism::auto();
    let mut fault_report = FaultReport::default();
    let mut streams = wire_streams(trace, plan, &mut fault_report);
    let starts = shard_starts(&streams, par.workers() * SHARDS_PER_WORKER);
    let end_minute = end_minute(config);
    let mut sim: Simulation<IngestEvent> = Simulation::new();
    sim.schedule(
        SimTime::from_minutes(MINUTES_PER_HOUR),
        IngestEvent::WatermarkTick,
    );

    let mut ingestor = Ingestor::new(*config, *classifier);
    ingestor.size_lanes(streams.last().map_or(0, |s| s.vm.as_usize() + 1));
    let mut pipeline_stats = PipelineStats::default();
    let retry = RetryPolicy::default();
    let mut publish = |ingestor: &Ingestor, closes: &[WindowClose]| {
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
    let mut rounds = Vec::new();
    let events_processed = sim.run(
        SimTime::from_minutes(end_minute + 1),
        |scheduler, time, IngestEvent::WatermarkTick| {
            let now = time.minutes();
            rounds.push(Round {
                cut: Cut::Tick(now),
                seal_floor: ingestor.seal_floor(),
            });
            if ingestor.closes_at(time) {
                fault_report.add(&deliver(&mut ingestor, &mut streams, &starts, par, &rounds));
                rounds.clear();
            }
            let closes = ingestor.advance_watermark(time);
            publish(&ingestor, &closes);
            if now + MINUTES_PER_HOUR <= end_minute {
                scheduler.schedule(time + SimDuration::HOUR, IngestEvent::WatermarkTick);
            }
        },
    );

    rounds.push(Round {
        cut: Cut::End(end_minute),
        seal_floor: ingestor.seal_floor(),
    });
    fault_report.add(&deliver(&mut ingestor, &mut streams, &starts, par, &rounds));
    let final_closes = ingestor.drain(SimTime::from_minutes(end_minute));
    publish(&ingestor, &final_closes);
    fault_report.flush_metrics();
    DriveOutcome {
        session: ingestor.finish(),
        fault_report,
        pipeline_stats,
        events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_faults::FaultPlan;
    use cloudscope_tracegen::{generate, GeneratorConfig};

    /// A drive's delivery rounds: the hourly ticks, then the end cut.
    fn cuts(config: &IngestConfig) -> Vec<Cut> {
        let end = end_minute(config);
        (1..)
            .map(|hour| hour * MINUTES_PER_HOUR)
            .take_while(|&minute| minute <= end)
            .map(Cut::Tick)
            .chain([Cut::End(end)])
            .collect()
    }

    /// Runs `cuts` as a drive does, with no window close on the way:
    /// each round queued with the seal floor of its tick, the queue
    /// delivered in one sweep once it holds `batch` rounds (and at the
    /// end), and the watermark advanced after every tick.
    fn run_queued(
        ingestor: &mut Ingestor,
        streams: &mut [WireStream],
        starts: &[usize],
        par: Parallelism,
        cuts: &[Cut],
        batch: usize,
    ) -> FaultReport {
        let (mut faults, mut rounds) = (FaultReport::default(), Vec::new());
        for (k, &cut) in cuts.iter().enumerate() {
            rounds.push(Round {
                cut,
                seal_floor: ingestor.seal_floor(),
            });
            if rounds.len() == batch || k + 1 == cuts.len() {
                faults.add(&deliver(ingestor, streams, starts, par, &rounds));
                rounds.clear();
            }
            if let Cut::Tick(now) = cut {
                ingestor.advance_watermark(SimTime::from_minutes(now));
            }
        }
        faults
    }

    /// `trace`'s wire streams with the shard edges laid out: every third
    /// VM with telemetry left out (ids without a stream between
    /// streams), and the stream in the middle re-made under a plan that
    /// turns every sample into garbage.
    fn edged_streams<'p>(
        trace: &Trace,
        plan: &'p FaultPlan,
        garbage: &'p FaultPlan,
        faults: &mut FaultReport,
    ) -> (Vec<WireStream<'p>>, VmId) {
        let mut streams = wire_streams(trace, plan, faults);
        let mut position = 0;
        streams.retain(|_| {
            position += 1;
            position % 3 != 0
        });
        let middle = streams.len() / 2;
        let middle = &mut streams[middle];
        let vm = trace.vm(middle.vm).expect("a stream's VM is in the trace");
        let util = trace.util(vm.id).expect("a stream's VM has telemetry");
        let rng = RngFactory::new(garbage.seed)
            .child("faults")
            .indexed_stream("vm", vm.id.index());
        middle.wire = WireCorruptor::new(util, vm.region, garbage, rng);
        (streams, vm.id)
    }

    /// The serial sweep the shards must reproduce: every stream in turn,
    /// each sample through the public [`Ingestor::offer`]. Position `j`
    /// is due at `start + 5 j`, and offered if that is before the cut.
    fn serial_round(
        ingestor: &mut Ingestor,
        streams: &mut [WireStream],
        cut: Cut,
        faults: &mut FaultReport,
    ) {
        for stream in streams {
            let before = match cut {
                Cut::Tick(now) if stream.start == now => now + 1,
                Cut::Tick(now) => now,
                Cut::End(end) => end + 1,
            };
            while stream.start + stream.wire.yielded() as i64 * SAMPLE_INTERVAL_MINUTES < before {
                let Some(sample) = stream.wire.next_sample(faults) else {
                    break;
                };
                ingestor.offer(stream.vm, sample);
            }
            if let Cut::End(_) = cut {
                while stream.wire.next_sample(faults).is_some() {}
            }
        }
    }

    /// The backpressure peak can fall inside a shard: at the second
    /// tick VM 0 seals 10 slots and then buffers 12 new ones (pending
    /// 24 → 14 → 26), and VM 1, whose stream ends, seals 10 and buffers
    /// its last sample (26 → 16 → 17). Both in one shard, the peak is
    /// 26, not the 17 the shard ends on — whether the two ticks are
    /// delivered one sweep each or together.
    #[test]
    fn the_peak_is_the_prefix_maximum_inside_a_shard() {
        let plan = FaultPlan::clean(0);
        let stream = |vm: u64, samples: usize| {
            let series = UtilSeries::from_percentages(SimTime::ZERO, vec![10.0; samples]);
            let rng = RngFactory::new(0).indexed_stream("vm", vm);
            WireStream {
                vm: VmId::new(vm),
                start: 0,
                wire: WireCorruptor::new(series, RegionId::new(0), &plan, rng),
            }
        };
        let classifier = PatternClassifier;
        let ticks = [Cut::Tick(MINUTES_PER_HOUR), Cut::Tick(2 * MINUTES_PER_HOUR)];
        for (shards, batch) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let mut streams = vec![stream(0, 36), stream(1, 13)];
            let starts = shard_starts(&streams, shards);
            let mut ingestor = Ingestor::new(IngestConfig::default(), classifier);
            ingestor.size_lanes(2);
            let par = Parallelism::with_workers(2);
            run_queued(&mut ingestor, &mut streams, &starts, par, &ticks, batch);
            let report = ingestor.report();
            let at = format!("shards={shards} batch={batch}");
            assert_eq!(report.samples_applied, 12 + 12 + 12 + 1, "{at}");
            assert_eq!(report.peak_pending_samples, 26, "{at}");
        }
    }

    /// The work count of delivery: a clean drive offers a stream's due
    /// outputs as one run per round, so it makes exactly one lane offer
    /// per stream and round with an output due — counted here from the
    /// tick rule alone — and still pulls and offers every sample.
    #[test]
    fn a_clean_drive_offers_one_run_per_stream_and_round_with_an_output_due() {
        let trace = generate(&GeneratorConfig::small(11)).trace;
        let config = IngestConfig::default();
        let kb = cloudscope_kb::KnowledgeBase::new();
        let outcome = drive_ingest(
            &trace,
            &FaultPlan::clean(11),
            &config,
            &PatternClassifier,
            &kb,
        );
        let end = end_minute(&config);
        let last_tick = end.div_euclid(MINUTES_PER_HOUR) * MINUTES_PER_HOUR;
        let (mut want_offers, mut samples) = (0, 0);
        for vm in trace.vms() {
            let Some(util) = trace.util(vm.id) else {
                continue;
            };
            let outputs = util.present_count();
            samples += outputs;
            // Output j is due at start + 5 j and offered at the first
            // tick after that, or on the tick a stream's first output
            // falls on; what no tick takes, the end cut does.
            let round = |j: usize| {
                let due = util.start().minutes() + j as i64 * SAMPLE_INTERVAL_MINUTES;
                let tick = if j == 0 && due > 0 && due % MINUTES_PER_HOUR == 0 {
                    due
                } else {
                    (due.div_euclid(MINUTES_PER_HOUR) + 1) * MINUTES_PER_HOUR
                };
                tick.min(last_tick + MINUTES_PER_HOUR)
            };
            let rounds: std::collections::BTreeSet<i64> = (0..outputs).map(round).collect();
            want_offers += rounds.len() as u64;
        }
        assert_eq!(outcome.fault_report.samples_in, samples);
        assert_eq!(outcome.session.report().samples_offered, samples as u64);
        assert_eq!(outcome.session.lane_offers, want_offers);
        assert!(
            want_offers * 10 < samples as u64,
            "{want_offers} runs for {samples} samples"
        );
    }

    #[test]
    fn sharded_delivery_equals_the_serial_sweep_at_every_worker_count() {
        let trace = generate(&GeneratorConfig::small(11)).trace;
        // No window closes inside the run: the closes' classification
        // is not what is under test, and would dominate a debug build.
        let config = IngestConfig {
            window_minutes: 2 * MINUTES_PER_WEEK,
            ..IngestConfig::default()
        };
        let classifier = PatternClassifier;
        for plan in [FaultPlan::clean(11), FaultPlan::standard(11)] {
            let garbage = FaultPlan {
                invalid_probability: 1.0,
                ..plan.clone()
            };
            let ticks = cuts(&config);
            let mut want_faults = FaultReport::default();
            let (mut streams, garbage_vm) =
                edged_streams(&trace, &plan, &garbage, &mut want_faults);
            let ties = streams
                .iter()
                .filter(|s| s.start > 0 && s.start % MINUTES_PER_HOUR == 0)
                .count();
            assert!(ties > 0, "no stream starts on a tick");
            let mut want = Ingestor::new(config, classifier);
            for &cut in &ticks {
                serial_round(&mut want, &mut streams, cut, &mut want_faults);
                if let Cut::Tick(now) = cut {
                    want.advance_watermark(SimTime::from_minutes(now));
                }
            }
            let want_report = want.report();
            assert!(want_report.samples_applied > 100_000);
            assert!(
                want_report.rejected_invalid > 0
                    && want
                        .session()
                        .lanes
                        .get(garbage_vm.as_usize())
                        .is_none_or(Option::is_none),
                "the garbage stream runs, and leaves no lane"
            );

            for workers in [1, 2, 3, 8] {
                let par = Parallelism::with_workers(workers);
                // Near-equal runs as in a drive, every round in one sweep
                // as in a drive or one sweep per round; and one stream
                // per shard, every id gap, tie and the garbage stream on
                // an edge, with sweeps of a few rounds.
                let near_equal = workers * SHARDS_PER_WORKER;
                for (shards, batch) in [(near_equal, usize::MAX), (near_equal, 1), (usize::MAX, 7)]
                {
                    let mut faults = FaultReport::default();
                    let (mut streams, _) = edged_streams(&trace, &plan, &garbage, &mut faults);
                    let starts = shard_starts(&streams, shards);
                    let mut got = Ingestor::new(config, classifier);
                    got.size_lanes(streams.last().map_or(0, |s| s.vm.as_usize() + 1));
                    let run = run_queued(&mut got, &mut streams, &starts, par, &ticks, batch);
                    faults.add(&run);
                    let at = format!(
                        "{plan:?} workers={workers} shards={} batch={batch}",
                        starts.len()
                    );
                    assert_eq!(got.report(), want_report, "{at}");
                    assert_eq!(faults, want_faults, "{at}");
                    let (got, want) = (&got.session().lanes, &want.session().lanes);
                    for vm in 0..got.len().max(want.len()) {
                        let got = got.get(vm).and_then(Option::as_ref);
                        let want = want.get(vm).and_then(Option::as_ref);
                        assert!(got == want, "lane {vm} differs: {at}");
                    }
                }
            }
        }
    }
}
