//! # cloudscope-model
//!
//! Domain model shared by every crate in the cloudscope suite: newtyped
//! identifiers, simulation time, the physical topology (regions →
//! datacenters → clusters → racks → nodes), subscriptions, VM records,
//! utilization telemetry, and the [`trace::Trace`] container the
//! characterization pipeline consumes.
//!
//! It also owns the durable-file primitives ([`durable`]) both on-disk
//! formats build on — the trace store and the knowledge base's WAL and
//! snapshots: the CRC-32, the checked little-endian byte codec, the
//! atomic file commit and the directory sync.
//!
//! The model mirrors the entities of the DSN'23 study *"How Different are
//! the Cloud Workloads?"*: private and public cloud workloads run in
//! disjoint clusters of the same provider, subscriptions deploy VMs into
//! regions, an allocation service places VMs onto nodes stacked in racks
//! (fault domains), and the monitor reports average utilization every five
//! minutes.
//!
//! ## Example
//! ```
//! use cloudscope_model::prelude::*;
//!
//! # fn main() -> Result<(), cloudscope_model::error::ModelError> {
//! let mut b = Topology::builder();
//! let region = b.add_region("us-west", -8, "US");
//! let dc = b.add_datacenter(region);
//! let cluster = b.add_cluster(dc, CloudKind::Private, NodeSku::new(48, 384.0), 10, 20);
//! let topology = b.build();
//! assert_eq!(topology.cluster(cluster)?.total_cores(), 200 * 48);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod error;
pub mod export;
pub mod fast_hash;
pub mod ids;
pub mod pattern;
pub mod subscription;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod trace;
pub mod vm;

/// Convenient glob-import of the most commonly used model types.
pub mod prelude {
    pub use crate::error::ModelError;
    pub use crate::ids::{
        ClusterId, DatacenterId, NodeId, RackId, RegionId, ServiceId, SubscriptionId, VmId,
    };
    pub use crate::subscription::{CloudKind, PartyKind, Subscription};
    pub use crate::telemetry::UtilSeries;
    pub use crate::time::{SimDuration, SimTime, Weekday};
    pub use crate::topology::{Cluster, Node, NodeSku, Region, Topology};
    pub use crate::trace::{TelemetrySource, Trace, TraceBuilder, TraceStats};
    pub use crate::vm::{Priority, ServiceModel, VmRecord, VmSize};
}
