//! Error types for the allocation service.

use cloudscope_model::ids::{ClusterId, NodeId, VmId};
use std::error::Error;
use std::fmt;

/// Why a placement request could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocationError {
    /// No node in the cluster has enough free cores *and* memory.
    InsufficientCapacity(ClusterId),
    /// Capacity exists, but every feasible node would violate the
    /// fault-domain spreading rule for the request's service.
    SpreadingViolation(ClusterId),
    /// The VM id is not currently placed (release of an unknown VM).
    UnknownVm(VmId),
    /// The node id does not belong to this cluster.
    UnknownNode(NodeId),
    /// The VM is already placed and cannot be placed again.
    AlreadyPlaced(VmId),
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::InsufficientCapacity(c) => {
                write!(f, "insufficient capacity in {c}")
            }
            AllocationError::SpreadingViolation(c) => {
                write!(f, "fault-domain spreading violated in {c}")
            }
            AllocationError::UnknownVm(v) => write!(f, "unknown vm {v}"),
            AllocationError::UnknownNode(n) => write!(f, "unknown node {n}"),
            AllocationError::AlreadyPlaced(v) => write!(f, "vm {v} already placed"),
        }
    }
}

impl Error for AllocationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(AllocationError::InsufficientCapacity(ClusterId::new(1))
            .to_string()
            .contains("capacity"));
        assert!(AllocationError::UnknownVm(VmId::new(2))
            .to_string()
            .contains("vm-2"));
    }

    #[test]
    fn trait_bounds() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AllocationError>();
    }
}
