//! Fleet-level allocation: routing placement requests to clusters within
//! a region, with fallback across the region's clusters.

use crate::allocator::{
    AllocatorStats, ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule,
};
use crate::error::AllocationError;
use cloudscope_model::fast_hash::FastMap;
use cloudscope_model::ids::{ClusterId, NodeId, RegionId, VmId};
use cloudscope_model::subscription::CloudKind;
use cloudscope_model::topology::Topology;

/// The allocation service over every cluster of one cloud: routes each
/// request to the least-allocated cluster in the requested region, falling
/// back to the next cluster on failure (region-local retry, as real
/// allocators do before failing the request).
#[derive(Debug, Clone)]
pub struct Fleet {
    cloud: CloudKind,
    clusters: Vec<ClusterAllocator>,
    by_region: FastMap<RegionId, Vec<usize>>,
    vm_cluster: FastMap<VmId, usize>,
}

impl Fleet {
    /// Builds allocators for every cluster of `cloud` in the topology.
    #[must_use]
    pub fn new(
        topology: &Topology,
        cloud: CloudKind,
        policy: PlacementPolicy,
        spreading: SpreadingRule,
    ) -> Self {
        let mut clusters = Vec::new();
        let mut by_region: FastMap<RegionId, Vec<usize>> = FastMap::default();
        for cluster in topology.clusters_of(cloud) {
            by_region
                .entry(cluster.region)
                .or_default()
                .push(clusters.len());
            clusters.push(ClusterAllocator::new(cluster, policy, spreading));
        }
        Self {
            cloud,
            clusters,
            by_region,
            vm_cluster: FastMap::default(),
        }
    }

    /// Builds allocators for `cloud`'s clusters in `region` only — the
    /// cluster group one trace-generation drive task owns. Cluster order
    /// (and hence the load-balancing tie-break order in
    /// [`Fleet::place_in_region`]) matches the region-restricted
    /// subsequence of [`Fleet::new`], so a per-region fleet replays
    /// exactly the operations the whole-cloud fleet would perform for
    /// that region.
    #[must_use]
    pub fn for_region(
        topology: &Topology,
        cloud: CloudKind,
        region: RegionId,
        policy: PlacementPolicy,
        spreading: SpreadingRule,
    ) -> Self {
        let mut clusters = Vec::new();
        let mut by_region: FastMap<RegionId, Vec<usize>> = FastMap::default();
        for cluster in topology.clusters_of(cloud) {
            if cluster.region != region {
                continue;
            }
            by_region
                .entry(cluster.region)
                .or_default()
                .push(clusters.len());
            clusters.push(ClusterAllocator::new(cluster, policy, spreading));
        }
        Self {
            cloud,
            clusters,
            by_region,
            vm_cluster: FastMap::default(),
        }
    }

    /// Which cloud this fleet serves.
    #[must_use]
    pub const fn cloud(&self) -> CloudKind {
        self.cloud
    }

    /// Places a VM in `region`, trying clusters from least to most
    /// allocated. Returns `(cluster, node)`.
    ///
    /// # Errors
    /// Returns the last cluster's error, or
    /// [`AllocationError::InsufficientCapacity`] of an arbitrary region
    /// cluster if the region is unknown/empty.
    pub fn place_in_region(
        &mut self,
        region: RegionId,
        request: PlacementRequest,
    ) -> Result<(ClusterId, NodeId), AllocationError> {
        let Some(indices) = self.by_region.get(&region) else {
            return Err(AllocationError::InsufficientCapacity(ClusterId::new(
                u32::MAX,
            )));
        };
        // Fast path: regions with a single cluster (the common topology)
        // skip the order vector — an allocation plus a sort per request
        // shows up in the generator's hot loop.
        if let [idx] = indices[..] {
            let node = self.clusters[idx].place(request)?;
            self.vm_cluster.insert(request.vm, idx);
            return Ok((self.clusters[idx].cluster_id(), node));
        }
        let mut order: Vec<usize> = indices.clone();
        order.sort_by(|&a, &b| {
            self.clusters[a]
                .core_allocation_ratio()
                .partial_cmp(&self.clusters[b].core_allocation_ratio())
                .expect("ratios finite")
        });
        let mut last_err = AllocationError::InsufficientCapacity(ClusterId::new(u32::MAX));
        for idx in order {
            match self.clusters[idx].place(request) {
                Ok(node) => {
                    self.vm_cluster.insert(request.vm, idx);
                    return Ok((self.clusters[idx].cluster_id(), node));
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Releases a VM wherever it is placed.
    ///
    /// # Errors
    /// Returns [`AllocationError::UnknownVm`] if the fleet never placed
    /// it.
    pub fn release(&mut self, vm: VmId) -> Result<(ClusterId, NodeId), AllocationError> {
        let idx = self
            .vm_cluster
            .remove(&vm)
            .ok_or(AllocationError::UnknownVm(vm))?;
        let node = self.clusters[idx].release(vm)?;
        Ok((self.clusters[idx].cluster_id(), node))
    }

    /// Aggregated stats over all clusters.
    #[must_use]
    pub fn stats(&self) -> AllocatorStats {
        let mut total = AllocatorStats::default();
        for c in &self.clusters {
            total.absorb(c.stats());
        }
        total
    }

    /// Per-cluster allocators, for inspection.
    #[must_use]
    pub fn clusters(&self) -> &[ClusterAllocator] {
        &self.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_model::ids::ServiceId;
    use cloudscope_model::topology::NodeSku;
    use cloudscope_model::vm::{Priority, VmSize};

    /// Region 0 has two public clusters, region 1 has one.
    fn fleet() -> Fleet {
        let mut b = Topology::builder();
        let r0 = b.add_region("us-a", -8, "US");
        let r1 = b.add_region("us-b", -5, "US");
        let d0 = b.add_datacenter(r0);
        let d1 = b.add_datacenter(r1);
        b.add_cluster(d0, CloudKind::Public, NodeSku::new(4, 32.0), 1, 2);
        b.add_cluster(d0, CloudKind::Public, NodeSku::new(4, 32.0), 1, 2);
        b.add_cluster(d1, CloudKind::Public, NodeSku::new(4, 32.0), 1, 2);
        // A private cluster the public fleet must ignore.
        b.add_cluster(d0, CloudKind::Private, NodeSku::new(4, 32.0), 1, 2);
        let topo = b.build();
        Fleet::new(
            &topo,
            CloudKind::Public,
            PlacementPolicy::BestFit,
            SpreadingRule::default(),
        )
    }

    fn req(vm: u64) -> PlacementRequest {
        PlacementRequest {
            vm: VmId::new(vm),
            size: VmSize::new(4, 32.0),
            service: ServiceId::new(0),
            priority: Priority::OnDemand,
        }
    }

    #[test]
    fn fleet_only_manages_its_cloud() {
        let f = fleet();
        assert_eq!(f.clusters().len(), 3);
        assert_eq!(f.cloud(), CloudKind::Public);
    }

    #[test]
    fn placement_prefers_least_allocated_cluster() {
        let mut f = fleet();
        let (c0, _) = f.place_in_region(RegionId::new(0), req(0)).unwrap();
        let (c1, _) = f.place_in_region(RegionId::new(0), req(1)).unwrap();
        assert_ne!(c0, c1, "second placement should go to the emptier cluster");
    }

    #[test]
    fn regional_fallback_until_region_full() {
        let mut f = fleet();
        // Region 0 capacity: 2 clusters x 2 nodes x 4 cores = 4 VMs of 4 cores.
        for i in 0..4 {
            f.place_in_region(RegionId::new(0), req(i)).unwrap();
        }
        assert!(matches!(
            f.place_in_region(RegionId::new(0), req(9)),
            Err(AllocationError::InsufficientCapacity(_))
        ));
        // Region 1 still has room.
        f.place_in_region(RegionId::new(1), req(9)).unwrap();
        assert_eq!(f.stats().successes, 5);
    }

    #[test]
    fn unknown_region_fails() {
        let mut f = fleet();
        assert!(f.place_in_region(RegionId::new(42), req(0)).is_err());
    }

    #[test]
    fn release_routes_to_owning_cluster() {
        let mut f = fleet();
        let (cluster, node) = f.place_in_region(RegionId::new(1), req(5)).unwrap();
        let (rc, rn) = f.release(VmId::new(5)).unwrap();
        assert_eq!((rc, rn), (cluster, node));
        assert!(matches!(
            f.release(VmId::new(5)),
            Err(AllocationError::UnknownVm(_))
        ));
    }
}
