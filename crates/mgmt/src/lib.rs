//! # cloudscope-mgmt
//!
//! The workload-aware management policies motivated by the DSN'23
//! study's implications, fed from the workload knowledge base:
//!
//! | Module | Paper implication |
//! |---|---|
//! | [`oversub`] | Insights 2/3: chance-constrained over-subscription (20–86% utilization gains) |
//! | [`rebalance`] | Insight 4: region-agnostic workload shifting (the Canada pilot replay) |
//! | [`policy`] | Section V: the policy engine over the knowledge base (spot adoption, over-subscription, shiftability, pre-provisioning) |
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

pub mod error;
pub mod oversub;
pub mod policy;
pub mod rebalance;

pub use error::MgmtError;
pub use oversub::{OversubMethod, OversubPlan, OversubPlanner, VmDemand};
pub use policy::{PolicyEngine, Recommendation};
pub use rebalance::{
    recommend_shifts, region_capacity_stats, simulate_shift, underutilized_vms,
    RegionCapacityStats, ShiftOutcome,
};
