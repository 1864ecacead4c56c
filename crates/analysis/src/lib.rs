//! # cloudscope-analysis
//!
//! The characterization pipeline of the DSN'23 study *"How Different are
//! the Cloud Workloads?"* — the paper's primary contribution,
//! operationalized as a library. One module per evaluation artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`deployment`] | Fig 1: VMs/subscription CDFs, subscriptions/cluster box-plots |
//! | [`vmsize`] | Fig 2: cores × memory heatmaps, corner mass |
//! | [`temporal`] | Fig 3: lifetime CDFs, hourly counts/creations, per-region CV |
//! | [`spatial`] | Fig 4: regions/subscription CDFs, core-weighted variant |
//! | [`patterns`] | Fig 5: the 4-way utilization-pattern classifier and shares |
//! | [`utilization`] | Fig 6: weekly/daily percentile bands |
//! | [`correlation`] | Fig 7: node-level and cross-region Pearson, region-agnostic detection |
//! | [`report`] | everything at once |
//!
//! This crate measures. Judging the measurements against the paper's
//! claims and its four insights is the paper-fact ledger of
//! `cloudscope-repro`, which declares each claim once.
//!
//! ## Example
//! ```no_run
//! use cloudscope_analysis::report::{CharacterizationReport, ReportConfig};
//! use cloudscope_tracegen::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let generated = generate(&GeneratorConfig::default());
//! let report = CharacterizationReport::analyze(&generated.trace, &ReportConfig::default())?;
//! println!(
//!     "median VMs per subscription: {} private vs {} public",
//!     report.deployment.private_vms_per_subscription.median(),
//!     report.deployment.public_vms_per_subscription.median(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod coverage;
pub mod deployment;
pub mod error;
pub mod patterns;
pub mod report;
pub mod spatial;
pub mod temporal;
pub mod utilization;
pub mod vmsize;

#[cfg(test)]
pub(crate) mod test_support;

pub use coverage::{filled_week_series, week_grid_values};
pub use error::AnalysisError;
pub use patterns::{
    pattern_shares, pattern_shares_from, PatternClassifier, PatternShares, UtilizationPattern,
};
pub use report::{CharacterizationReport, ReportConfig};
