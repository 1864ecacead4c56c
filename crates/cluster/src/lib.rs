//! # cloudscope-cluster
//!
//! The allocation-service substrate: per-cluster placement with
//! first-fit/best-fit/worst-fit policies, fault-domain (rack) spreading,
//! spot-VM eviction for on-demand requests, live migration, and a
//! fleet-level router with region-local fallback.
//!
//! This simulates the platform component the DSN'23 study's Insight 1
//! reasons about: large homogeneous private-cloud deployments stress both
//! capacity (allocation failures near full clusters) and the spreading
//! rule (same-service VMs competing for distinct racks).
//!
//! ## Example
//! ```
//! use cloudscope_cluster::{ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule};
//! use cloudscope_model::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Topology::builder();
//! let region = b.add_region("us-west", -8, "US");
//! let dc = b.add_datacenter(region);
//! let cluster = b.add_cluster(dc, CloudKind::Private, NodeSku::new(48, 384.0), 4, 10);
//! let topology = b.build();
//!
//! let mut alloc = ClusterAllocator::new(
//!     topology.cluster(cluster)?,
//!     PlacementPolicy::BestFit,
//!     SpreadingRule { max_same_service_per_rack: Some(8) },
//! );
//! let node = alloc.place(PlacementRequest {
//!     vm: VmId::new(0),
//!     size: VmSize::new(8, 64.0),
//!     service: ServiceId::new(0),
//!     priority: Priority::OnDemand,
//! })?;
//! assert_eq!(alloc.node_state(node)?.cores_used(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod error;
pub mod fleet;
pub mod node;

pub use allocator::{
    AllocatorStats, ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule,
};
pub use error::AllocationError;
pub use fleet::Fleet;
pub use node::NodeState;
