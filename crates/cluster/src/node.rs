//! Mutable per-node capacity state.

use cloudscope_model::ids::{RackId, VmId};
use cloudscope_model::topology::NodeSku;
use cloudscope_model::vm::VmSize;
use serde::{Deserialize, Serialize};

/// Live capacity state of one physical node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    rack: RackId,
    cores_total: u32,
    memory_total: f64,
    cores_used: u32,
    memory_used: f64,
    vms: Vec<VmId>,
}

impl NodeState {
    /// Creates an empty node of the given SKU in `rack`.
    #[must_use]
    pub fn new(sku: NodeSku, rack: RackId) -> Self {
        Self {
            rack,
            cores_total: sku.cores,
            memory_total: sku.memory_gb,
            cores_used: 0,
            memory_used: 0.0,
            vms: Vec::new(),
        }
    }

    /// The rack (fault domain) this node is stacked in.
    #[must_use]
    pub const fn rack(&self) -> RackId {
        self.rack
    }

    /// Physical cores.
    #[must_use]
    pub const fn cores_total(&self) -> u32 {
        self.cores_total
    }

    /// Cores currently allocated to VMs.
    #[must_use]
    pub const fn cores_used(&self) -> u32 {
        self.cores_used
    }

    /// Free cores.
    #[must_use]
    pub const fn cores_free(&self) -> u32 {
        self.cores_total - self.cores_used
    }

    /// Free memory in GiB.
    #[must_use]
    pub fn memory_free(&self) -> f64 {
        self.memory_total - self.memory_used
    }

    /// VMs currently hosted, in placement order.
    #[must_use]
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// `true` if a VM of `size` fits in the remaining capacity.
    #[must_use]
    pub fn fits(&self, size: VmSize) -> bool {
        size.cores() <= self.cores_free() && size.memory_gb() <= self.memory_free() + 1e-9
    }

    /// Places a VM. Callers must check [`NodeState::fits`] first.
    ///
    /// # Panics
    /// Panics if the VM does not fit (an allocator bug, not an operational
    /// condition — the allocator must never over-commit).
    pub fn place(&mut self, vm: VmId, size: VmSize) {
        assert!(self.fits(size), "allocator over-committed node");
        self.cores_used += size.cores();
        self.memory_used += size.memory_gb();
        self.vms.push(vm);
    }

    /// Releases a VM, returning `true` if it was hosted here.
    pub fn release(&mut self, vm: VmId, size: VmSize) -> bool {
        if let Some(pos) = self.vms.iter().position(|&v| v == vm) {
            self.vms.swap_remove(pos);
            self.cores_used -= size.cores();
            self.memory_used = (self.memory_used - size.memory_gb()).max(0.0);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeState {
        NodeState::new(NodeSku::new(16, 128.0), RackId::new(0))
    }

    #[test]
    fn placement_accounting() {
        let mut n = node();
        assert!(n.fits(VmSize::new(16, 128.0)));
        n.place(VmId::new(1), VmSize::new(4, 32.0));
        assert_eq!(n.cores_free(), 12);
        assert_eq!(n.memory_free(), 96.0);
        assert_eq!(n.vms(), &[VmId::new(1)]);
    }

    #[test]
    fn fits_considers_both_dimensions() {
        let mut n = node();
        n.place(VmId::new(1), VmSize::new(2, 120.0));
        // Plenty of cores, no memory.
        assert!(!n.fits(VmSize::new(2, 16.0)));
        assert!(n.fits(VmSize::new(2, 8.0)));
        // Plenty of memory, no cores.
        let mut m = node();
        m.place(VmId::new(2), VmSize::new(15, 8.0));
        assert!(!m.fits(VmSize::new(2, 8.0)));
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn overcommit_panics() {
        let mut n = node();
        n.place(VmId::new(1), VmSize::new(12, 32.0));
        n.place(VmId::new(2), VmSize::new(12, 32.0));
    }

    #[test]
    fn release_returns_capacity() {
        let mut n = node();
        let size = VmSize::new(4, 32.0);
        n.place(VmId::new(1), size);
        assert!(n.release(VmId::new(1), size));
        assert_eq!(n.cores_free(), 16);
        assert_eq!(n.memory_free(), 128.0);
        assert!(!n.release(VmId::new(1), size), "double release");
        assert!(!n.release(VmId::new(9), size), "unknown vm");
    }
}
