//! # cloudscope-mgmt
//!
//! The workload-aware management policies motivated by the DSN'23
//! study's implications, fed from the workload knowledge base:
//!
//! | Module | Paper implication |
//! |---|---|
//! | [`spot`] | Insight 2 (public): spot-VM candidates, eviction prediction, spot/on-demand mixtures |
//! | [`oversub`] | Insights 2/3: chance-constrained over-subscription (20–86% utilization gains) |
//! | [`rebalance`] | Insight 4: region-agnostic workload shifting (the Canada pilot replay) |
//! | [`defer`] | Insight 3: deferrable jobs into valley hours |
//! | [`allocfail`] | Insight 2 (private): allocation-failure risk prediction |
//! | [`maintenance`] | Intro example: lifetime-aware migration off unhealthy nodes |
//! | [`policy`] | Section V: the policy engine over the knowledge base |
//!
//! ## Example
//! ```
//! use cloudscope_mgmt::oversub::{OversubMethod, OversubPlanner, VmDemand};
//!
//! # fn main() -> Result<(), cloudscope_mgmt::MgmtError> {
//! let pool: Vec<VmDemand> = (0..8)
//!     .map(|i| VmDemand {
//!         cores: 4,
//!         utilization: (0..288).map(|t| 20.0 + ((t + i) % 7) as f64).collect(),
//!     })
//!     .collect();
//! let plan = OversubPlanner::new(0.05, OversubMethod::EmpiricalQuantile)?.plan(&pool)?;
//! assert!(plan.reserved_cores < plan.requested_cores);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocfail;
pub mod defer;
pub mod error;
pub mod maintenance;
pub mod oversub;
pub mod policy;
pub mod rebalance;
pub mod spot;

pub use allocfail::{AllocFailureFeatures, AllocFailurePredictor};
pub use defer::{schedule_deferrable, DeferrableJob, DeferralSchedule};
pub use error::MgmtError;
pub use maintenance::{
    evaluate_plan, plan_node_maintenance, MaintenanceAction, MaintenancePlan,
    RemainingLifetimePredictor,
};
pub use oversub::{OversubMethod, OversubPlan, OversubPlanner, VmDemand};
pub use policy::{Policy, PolicyEngine, Recommendation};
pub use rebalance::{
    recommend_shifts, region_capacity_stats, simulate_shift, underutilized_vms,
    RegionCapacityStats, ShiftOutcome,
};
pub use spot::{EvictionFeatures, EvictionPredictor, SpotMixPlan, SpotMixPolicy};
