//! # cloudscope-ingest
//!
//! The online ingestion service: the paper's characterization pipeline
//! run against a *live* telemetry stream instead of a finished trace.
//! Production monitors do not hand the analyst a clean week-long
//! [`UtilSeries`] per VM — they emit one wire sample at a time, late,
//! duplicated, reordered, and occasionally garbage. This crate consumes
//! that stream continuously, keeps per-VM sliding-window state in
//! bounded memory, re-runs the Figure 5 pattern classification as each
//! window closes, and publishes refreshed knowledge into the KB through
//! the same batched write path the batch extraction pipeline uses.
//!
//! The pipeline, stage by stage:
//!
//! 1. **Offer** — [`Ingestor::offer`] validates each [`WireSample`]
//!    exactly like the batch collector
//!    ([`cloudscope_faults::ingest_wire_samples`]): garbage readings are
//!    rejected, timestamps snap to the 5-minute grid, out-of-week slots
//!    are discarded, and duplicate slots keep the last delivered value.
//!    Accepted samples are quantized on arrival
//!    ([`quantize_percentage`]) into the VM's *lane*: one byte per week
//!    slot, in a dense table indexed by VM id.
//! 2. **Seal** — [`Ingestor::advance_watermark`] moves the low
//!    watermark. Slots that fall entirely behind it *seal*: the lane's
//!    seal cursor moves past them and the bytes become immutable — that
//!    is all a seal does; nothing is folded per sample. A sample
//!    arriving for an already-sealed slot is counted in `dropped_late`
//!    — never silently applied.
//! 3. **Close** — when the watermark crosses a window boundary, every
//!    lane re-runs the batch [`PatternClassifier`] on its whole sealed
//!    history, the series batch extraction would classify: the window
//!    length sets how often this happens, not what it sees. Lanes share
//!    nothing, so this runs on every worker. Because sealed state is
//!    byte-identical to what the batch collector would have assembled
//!    from the same stream, streaming classification *converges to the
//!    batch classifier output exactly* on clean data; under faults the
//!    divergence is bounded and fully accounted for by reported drops.
//! 4. **Publish** — the affected subscriptions'
//!    [`WorkloadKnowledge`](cloudscope_kb::WorkloadKnowledge) is
//!    re-extracted from the sealed lanes (in parallel, one subscription
//!    per task) through the batch aggregation, voting with the patterns
//!    the close just computed — no VM is classified twice — and fed, in
//!    subscription order, through [`cloudscope_kb::publish_batch`]: the
//!    identical `try_feed` + retry-ledger path, so a durable KB's WAL
//!    semantics apply unchanged.
//!
//! [`drive_ingest`] wires the stages to the discrete-event clock of
//! `cloudscope-sim`. The only events are the hourly watermark ticks:
//! between two of them nothing global changes (the seal floor moves
//! only in `advance_watermark`, and lanes share no state), so each tick
//! first delivers the samples that came due at the monitor cadence
//! since the previous one (content corrupted by a seeded [`FaultPlan`],
//! a step at a time as it comes due, so no wire stream is ever
//! materialised; cadence preserved), in VM-range shards on every worker
//! whose tallies fold back into exactly the VM-by-VM result, then
//! advances the watermark. Only a window close reads the lanes, so the
//! ticks' deliveries queue and run in one sweep just before it, in tick
//! order. A final catch-up close ends the run. The
//! outcome equals that of one simulator event per sample over an
//! eagerly built wire — the drive this replaced, kept as the test-only
//! oracle in `src/reference.rs`.
//! The end state
//! is the lane table itself, an [`IngestSession`]: a [`TelemetrySource`]
//! interchangeable with a resident
//! [`Trace`](cloudscope_model::trace::Trace) or the out-of-core store, so
//! every analysis that accepts a source runs unmodified over streamed
//! telemetry.
//!
//! ## Example
//! ```no_run
//! use cloudscope_ingest::{drive_ingest, DriveOutcome, IngestConfig};
//! use cloudscope_analysis::PatternClassifier;
//! use cloudscope_faults::FaultPlan;
//! use cloudscope_kb::KnowledgeBase;
//! # use cloudscope_tracegen::{generate, GeneratorConfig};
//! let generated = generate(&GeneratorConfig::small(7));
//! let kb = KnowledgeBase::new();
//! let DriveOutcome { session, fault_report, .. } = drive_ingest(
//!     &generated.trace,
//!     &FaultPlan::standard(7),
//!     &IngestConfig::default(),
//!     &PatternClassifier::default(),
//!     &kb,
//! );
//! println!(
//!     "streamed {} samples, dropped {} late, {} KB entries live",
//!     session.report().samples_offered,
//!     session.report().dropped_late,
//!     kb.len(),
//! );
//! # let _ = fault_report;
//! ```
//!
//! [`UtilSeries`]: cloudscope_model::telemetry::UtilSeries
//! [`WireSample`]: cloudscope_faults::WireSample
//! [`FaultPlan`]: cloudscope_faults::FaultPlan
//! [`PatternClassifier`]: cloudscope_analysis::PatternClassifier
//! [`quantize_percentage`]: cloudscope_model::telemetry::quantize_percentage
//! [`TelemetrySource`]: cloudscope_model::trace::TelemetrySource

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod ingestor;
mod publish;
#[cfg(test)]
mod reference;
pub mod session;

pub use drive::{drive_ingest, DriveOutcome, IngestEvent};
pub use ingestor::{IngestConfig, IngestReport, Ingestor, WindowClose};
pub use session::IngestSession;
