//! # cloudscope-kb
//!
//! The centralized workload knowledge base the paper's Section V calls
//! for: extractors turn raw trace telemetry into per-subscription
//! [`knowledge::WorkloadKnowledge`] (dominant utilization pattern,
//! lifetime class, burstiness, region-agnosticism, footprint), and a
//! sharded, secondary-indexed [`store::KnowledgeBase`] serves the typed
//! [`query::KbQuery`] reads that the optimization policies in
//! `cloudscope-mgmt` consume (spot candidates, over-subscription
//! candidates, shiftable workloads) — index walks, not full scans, and
//! no cloning outside `collect`.
//!
//! ## Example
//! ```no_run
//! use cloudscope_kb::{run_extraction_pipeline, KbQuery, KnowledgeBase};
//! use cloudscope_analysis::PatternClassifier;
//! use cloudscope_tracegen::{generate, GeneratorConfig};
//!
//! let generated = generate(&GeneratorConfig::default());
//! let kb = KnowledgeBase::new();
//! // Extract every subscription, both clouds, on 4 workers.
//! run_extraction_pipeline(&generated.trace, &kb, &PatternClassifier, 8, 4);
//! // Index-backed candidate count: no scan, no clones.
//! println!("{} spot candidates", KbQuery::spot_candidates().count(&kb));
//! // Refine with residual predicates; clone only what `collect` returns.
//! let big_fleets = KbQuery::spot_candidates()
//!     .filter(|k| k.vm_count >= 10)
//!     .collect(&kb);
//! println!("{} with 10+ VMs", big_fleets.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod knowledge;
pub mod persist;
pub mod pipeline;
pub mod query;
mod shard;
pub mod store;

/// The sweep configuration [`run_extraction_pipeline_with`] takes,
/// re-exported so a producer that parallelises the same per-subscription
/// extraction (the ingest path) needs no dependency edge of its own.
pub use cloudscope_par::Parallelism;
pub use extract::{
    extract_cloud_knowledge, extract_subscription_knowledge, extract_subscription_knowledge_from,
};
pub use knowledge::{LifetimeClass, WorkloadKnowledge};
pub use persist::{
    CrashPlan, CrashPoint, DurableKb, PersistError, RecoveryStats, SnapshotReport, SyncPolicy,
};
pub use pipeline::{
    publish_batch, run_extraction_pipeline, run_extraction_pipeline_with, PipelineStats,
    RetryPolicy,
};
pub use query::{KbQuery, KbSelector};
pub use store::{FeedOutcome, KbStore, KnowledgeBase, StoreError};
