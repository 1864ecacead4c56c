//! The discrete-event driver: a trace replayed as a live telemetry
//! stream against the ingestion service.

use crate::ingestor::{IngestConfig, Ingestor, WindowClose};
use crate::publish::publish_closed_windows;
use crate::session::IngestSession;
use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::{FaultPlan, FaultReport, WireCorruptor};
use cloudscope_kb::{KbStore, PipelineStats, RetryPolicy};
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
    /// Periodic watermark advance: delivers the due samples, seals ripe
    /// slots, closes windows the watermark crossed, publishes the
    /// refreshed knowledge.
    WatermarkTick,
}

/// One VM's wire stream, generated as it comes due: position `j` is due
/// at `start` plus `j` sample intervals.
#[derive(Debug)]
struct WireStream<'p> {
    vm: VmId,
    /// Minute at which position 0 is due (the VM's series start).
    start: i64,
    wire: WireCorruptor<'p>,
    /// Positions below this have been delivered.
    delivered: usize,
}

impl WireStream<'_> {
    /// Offers every undelivered sample due strictly before `minute`.
    fn deliver_before(&mut self, ingestor: &mut Ingestor, minute: i64, report: &mut FaultReport) {
        // Position j is due before `minute` iff start + 5 j < minute.
        let due =
            (minute - self.start + SAMPLE_INTERVAL_MINUTES - 1).div_euclid(SAMPLE_INTERVAL_MINUTES);
        let due = usize::try_from(due).unwrap_or(0);
        while self.delivered < due {
            let Some(sample) = self.wire.next_sample(report) else {
                return;
            };
            ingestor.offer(self.vm, sample);
            self.delivered += 1;
        }
    }
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
            delivered: 0,
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
///   `plan` by a [`WireCorruptor`], one step at a time as the samples
///   come due (same per-VM seeded streams as
///   [`cloudscope_faults::corrupt_trace`], so the stream *content* is
///   byte-comparable to batch corruption). Corruption shuffles content,
///   not cadence: stream position `j` is due at the VM's series start
///   plus `j` sample intervals, which is how a reordered sample
///   actually arrives late.
/// - An hourly watermark tick first delivers, VM by VM, every sample
///   that came due since the previous tick — the seal floor moves only
///   at ticks and lanes share no state, so the order of offers between
///   two ticks changes nothing but `peak_pending_samples`. It then
///   seals ripe slots, closes any window the watermark crossed
///   (re-running Figure 5 classification per VM), and publishes the
///   refreshed subscription knowledge into `store` through the batched
///   feed + retry path.
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
    let mut fault_report = FaultReport::default();
    let mut streams = wire_streams(trace, plan, &mut fault_report);
    let end_minute = end_minute(config);
    let mut sim: Simulation<IngestEvent> = Simulation::new();
    sim.schedule(
        SimTime::from_minutes(MINUTES_PER_HOUR),
        IngestEvent::WatermarkTick,
    );

    let mut ingestor = Ingestor::new(*config, *classifier);
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
    let events_processed = sim.run(
        SimTime::from_minutes(end_minute + 1),
        |scheduler, time, IngestEvent::WatermarkTick| {
            let now = time.minutes();
            for stream in &mut streams {
                // A sample due exactly at the tick arrives after it —
                // except a stream's first: a monitor that starts on the
                // tick reports before the watermark moves, which
                // decides whether its lane exists at a window close.
                let tie = i64::from(stream.start == now);
                stream.deliver_before(&mut ingestor, now + tie, &mut fault_report);
            }
            let closes = ingestor.advance_watermark(time);
            publish(&ingestor, &closes);
            if now + MINUTES_PER_HOUR <= end_minute {
                scheduler.schedule(time + SimDuration::HOUR, IngestEvent::WatermarkTick);
            }
        },
    );

    for stream in &mut streams {
        stream.deliver_before(&mut ingestor, end_minute + 1, &mut fault_report);
        // Past the cut nothing is offered, but the ledger counts what
        // the plan did to the whole stream.
        while stream.wire.next_sample(&mut fault_report).is_some() {}
    }
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
