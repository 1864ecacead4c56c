//! # cloudscope
//!
//! A full reproduction of the DSN'23 study *"How Different are the Cloud
//! Workloads? Characterizing Large-Scale Private and Public Cloud
//! Workloads"* as a Rust library suite:
//!
//! - [`model`]: the domain model (topology, subscriptions, VMs, 5-minute
//!   telemetry, the trace container).
//! - [`stats`] / [`timeseries`] / [`sim`]: the numeric and simulation
//!   substrates (ECDFs, box-plots, Pearson, FFT/ACF period detection, a
//!   discrete-event engine).
//! - [`cluster`]: the allocation-service substrate (placement policies,
//!   fault-domain spreading, spot eviction).
//! - [`tracegen`]: the calibrated synthetic stand-in for the proprietary
//!   Azure trace.
//! - [`analysis`]: the paper's characterization pipeline — one module per
//!   figure. It measures; the paper-fact ledger of `cloudscope-repro`
//!   judges the measurements against the paper's claims and insights.
//! - [`kb`]: the centralized workload knowledge base of Section V.
//! - [`par`]: the shared deterministic fork-join executor.
//! - [`store`]: the out-of-core columnar trace store — compressed
//!   column chunks, atomic manifest commits, streamed reads in
//!   bounded memory.
//! - [`faults`]: deterministic telemetry fault injection — the seeded
//!   corruption plans and flaky stores the robustness tests run under.
//! - [`ingest`]: the online ingestion service — watermarked per-VM
//!   windows over a live wire-sample stream, streaming Figure 5
//!   classification at window close, publication into the KB.
//! - [`mgmt`]: the management policies the insights motivate (spot
//!   adoption, over-subscription, regional rebalancing,
//!   pre-provisioning).
//!
//! ## Quickstart
//!
//! Characterize a trace, judge the paper's insights with the
//! `cloudscope-repro` ledger, feed the knowledge base, and run a typed
//! policy query end-to-end:
//!
//! ```no_run
//! use cloudscope::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let generated = generate(&GeneratorConfig::default());
//! let report = CharacterizationReport::analyze(&generated.trace, &ReportConfig::default())?;
//! for (holds, verdict) in cloudscope_repro::ledger::insights(&report) {
//!     println!("[{}] {verdict}", if holds { "ok" } else { "MISS" });
//! }
//!
//! // Section V: extract per-subscription knowledge into the sharded KB…
//! let kb = KnowledgeBase::new();
//! cloudscope::kb::run_extraction_pipeline(&generated.trace, &kb, &PatternClassifier, 8, 4);
//! // …and serve the policies from its secondary indexes: counting spot
//! // candidates walks an index (no entry visited), and the filtered
//! // collect clones exactly the matching entries.
//! println!("{} spot candidates", KbQuery::spot_candidates().count(&kb));
//! let big_shiftable = KbQuery::shiftable().filter(|k| k.cores >= 64).collect(&kb);
//! println!("{} shiftable workloads with 64+ cores", big_shiftable.len());
//! for (policy, recommendations) in PolicyEngine::standard().run(&kb) {
//!     println!("{policy}: {} recommendations", recommendations.len());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## One classifier, three telemetry sources
//!
//! Every analysis that reads samples goes through the
//! [`TelemetrySource`] trait, so the *same* classifier code runs over a
//! resident trace, the out-of-core store, and a live ingestion session:
//!
//! ```no_run
//! use cloudscope::prelude::*;
//! use cloudscope::analysis::pattern_shares_from;
//! use cloudscope::faults::FaultPlan;
//! use cloudscope::ingest::{drive_ingest, IngestConfig};
//! use cloudscope::par::Parallelism;
//! use cloudscope::store::{write_trace, ScanFilter, StoreTelemetry, TraceReader, WriteOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let generated = generate(&GeneratorConfig::default());
//! let classifier = PatternClassifier;
//!
//! // Batch: samples resident in the trace.
//! let batch = pattern_shares_from(
//!     &generated.trace, &generated.trace, CloudKind::Public, &classifier, 64)?;
//!
//! // Out-of-core: samples scanned, in stored order, from compressed
//! // column chunks — one decoded chunk per (region, day) lane of each
//! // VM's own region, which the store's VM records name.
//! let par = Parallelism::auto();
//! write_trace(&generated.trace, "trace-dir", WriteOptions::default(), &par)?;
//! let reader = TraceReader::open("trace-dir")?;
//! let records = reader.read_vm_records(ScanFilter::all(), &par)?;
//! let store = StoreTelemetry::new(&reader, &records, par)?;
//! let cold = pattern_shares_from(
//!     &generated.trace, &store, CloudKind::Public, &classifier, 64)?;
//!
//! // Streaming: samples consumed one wire sample at a time.
//! let kb = KnowledgeBase::new();
//! let outcome = drive_ingest(
//!     &generated.trace, &FaultPlan::clean(1), &IngestConfig::default(),
//!     &classifier, &kb);
//! let live = pattern_shares_from(
//!     &generated.trace, &outcome.session, CloudKind::Public, &classifier, 64)?;
//!
//! // All three saw identical samples, so the shares agree exactly.
//! assert_eq!(batch, cold);
//! assert_eq!(batch, live);
//! # Ok(())
//! # }
//! ```
//!
//! [`TelemetrySource`]: model::trace::TelemetrySource

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cloudscope_analysis as analysis;
pub use cloudscope_cluster as cluster;
pub use cloudscope_faults as faults;
pub use cloudscope_ingest as ingest;
pub use cloudscope_kb as kb;
pub use cloudscope_mgmt as mgmt;
pub use cloudscope_model as model;
pub use cloudscope_obs as obs;
pub use cloudscope_par as par;
pub use cloudscope_sim as sim;
pub use cloudscope_stats as stats;
pub use cloudscope_store as store;
pub use cloudscope_timeseries as timeseries;
pub use cloudscope_tracegen as tracegen;

/// Takes a point-in-time snapshot of the current metrics registry
/// (scoped if one is installed, global otherwise), counting the
/// snapshot itself under `facade.obs.snapshots_taken`.
#[must_use]
pub fn obs_snapshot() -> obs::Snapshot {
    obs::counter("facade.obs.snapshots_taken").inc();
    obs::current().snapshot()
}

/// The most common imports in one place.
pub mod prelude {
    pub use crate::analysis::report::{CharacterizationReport, ReportConfig};
    pub use crate::analysis::{PatternClassifier, UtilizationPattern};
    pub use crate::ingest::{IngestConfig, IngestSession, Ingestor};
    pub use crate::kb::{
        extract_cloud_knowledge, DurableKb, KbQuery, KbSelector, KnowledgeBase, WorkloadKnowledge,
    };
    pub use crate::mgmt::{PolicyEngine, Recommendation};
    pub use crate::model::prelude::*;
    pub use crate::tracegen::{generate, GeneratedTrace, GeneratorConfig};
}
