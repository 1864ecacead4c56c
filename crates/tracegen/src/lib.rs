//! # cloudscope-tracegen
//!
//! Synthetic stand-in for the proprietary one-week Azure trace of the
//! DSN'23 study *"How Different are the Cloud Workloads?"*: a seeded
//! generator producing VM deployment records and 5-minute CPU telemetry
//! for a private and a public cloud whose input distributions are
//! calibrated to every quantitative statement in the paper (lifetime
//! bins, deployment sizes, subscriptions per cluster, pattern mixtures,
//! burst behaviour, geo-load-balanced region-agnostic services — see
//! DESIGN.md §4 for the fact ledger).
//!
//! Deployment flows through the real allocation-service substrate
//! ([`cloudscope_cluster`]) on a discrete-event engine, so placement
//! artifacts (co-location, allocation failures near capacity, fault-
//! domain spreading pressure) emerge mechanically rather than being
//! painted on.
//!
//! ## Example
//! ```no_run
//! use cloudscope_tracegen::{generate, GeneratorConfig};
//!
//! let generated = generate(&GeneratorConfig::default());
//! let stats = generated.trace.stats();
//! assert!(stats.private_vms > 0 && stats.public_vms > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod config;
pub mod generate;
pub mod lifetime;
#[cfg(test)]
mod reference;
pub mod services;
pub mod sizes;
pub mod store_io;
pub mod utilization;
pub mod validate;

pub use config::{
    ArrivalProfile, CloudProfile, GeneratorConfig, LifetimeProfile, PatternMix, RegionSpec,
    SizeProfile, TopologyConfig,
};
pub use generate::{generate, generate_with, GeneratedTrace, GenerationReport, ServiceInfo};
pub use lifetime::LifetimeSampler;
pub use sizes::SizeSampler;
pub use store_io::{generate_to_store, read_generated, write_generated};
pub use utilization::{generate_vm_series, PatternKind, ServiceUtilProfile};
pub use validate::ConfigError;
