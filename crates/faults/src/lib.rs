//! # cloudscope-faults
//!
//! Deterministic fault injection for the telemetry pipeline. Real
//! monitoring fleets lose samples, duplicate them, deliver them out of
//! order, emit garbage readings, run on skewed clocks, and sit behind
//! stores that time out — the paper's characterization has to survive
//! all of that. This crate turns a pristine generated [`Trace`] into the
//! trace a real collector would have recorded, under a fully seeded
//! [`FaultPlan`], so every robustness experiment is reproducible
//! byte-for-byte.
//!
//! The injection pipeline mirrors a real collector:
//!
//! 1. **Explode** — each VM's dense series becomes timestamped wire
//!    samples, as the in-guest monitor would emit them.
//! 2. **Corrupt** — the seeded plan drops, duplicates, reorders,
//!    invalidates, and time-skews samples, and blacks out whole regions
//!    for a window (a monitoring outage). Explode and corrupt run a step
//!    at a time in a [`WireCorruptor`], so a streaming consumer can pull
//!    each VM's wire as it comes due instead of materialising it, a run
//!    of outputs per call ([`WireRun`]: a clean plan's run is the slice
//!    of stored levels itself).
//! 3. **Ingest** — samples are validated, snapped to the 5-minute grid,
//!    deduplicated (last write wins), and re-assembled into a
//!    [`UtilSeries`] whose unfilled slots are *gaps*, which the
//!    analysis layer handles via its missing-data policies.
//!
//! [`FlakyStore`] covers the storage side: it wraps any
//! [`KbStore`](cloudscope_kb::KbStore) and injects seeded transient
//! write failures, exercising the extraction pipeline's retry path.
//!
//! ## Example
//! ```no_run
//! use cloudscope_faults::{corrupt_trace, FaultPlan};
//! # use cloudscope_tracegen::{generate, GeneratorConfig};
//! let generated = generate(&GeneratorConfig::small(7));
//! let (corrupted, report) = corrupt_trace(&generated.trace, &FaultPlan::standard(7));
//! println!("lost {:.1}% of samples", report.loss_fraction() * 100.0);
//! ```
//!
//! [`Trace`]: cloudscope_model::trace::Trace
//! [`UtilSeries`]: cloudscope_model::telemetry::UtilSeries

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod flaky;
pub mod plan;

pub use corrupt::{
    corrupt_trace, corrupt_wire_samples, RunBuffer, WireCorruptor, WireRun, WireSample,
};
pub use flaky::FlakyStore;
pub use plan::{Blackout, FaultPlan, FaultReport};
