//! The per-cluster allocation service: placement policies, fault-domain
//! spreading and spot eviction.
//!
//! This is the simulator's stand-in for the platform's allocation service
//! (Protean in the real system): requests name a VM, its size, service,
//! and priority; the allocator picks a node subject to capacity and the
//! spreading rule, or reports a typed failure.

use crate::error::AllocationError;
use crate::node::NodeState;
use cloudscope_model::fast_hash::FastMap;
use cloudscope_model::ids::{ClusterId, NodeId, RackId, ServiceId, VmId};
use cloudscope_model::topology::Cluster;
use cloudscope_model::vm::{Priority, VmSize};
use serde::{Deserialize, Serialize};

/// A placement request, as the allocation service sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRequest {
    /// VM to place.
    pub vm: VmId,
    /// Resource shape.
    pub size: VmSize,
    /// Logical service, the unit the spreading rule counts.
    pub service: ServiceId,
    /// Priority class; spot VMs are evictable by on-demand requests.
    pub priority: Priority,
}

/// Node-selection policy among feasible nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Lowest-id node that fits: fast, fragments more.
    FirstFit,
    /// Node with the fewest free cores after placement: packs tightly,
    /// the default of production allocators under capacity pressure.
    #[default]
    BestFit,
    /// Node with the most free cores after placement: spreads load.
    WorstFit,
}

/// Fault-domain spreading: at most `max_same_service_per_rack` VMs of one
/// service per rack. `None` disables the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpreadingRule {
    /// Per-rack cap on same-service VMs; `None` = unlimited.
    pub max_same_service_per_rack: Option<u32>,
}

/// Counters the allocator maintains; the allocation-failure analyses and
/// the Insight-1 ablation read these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AllocatorStats {
    /// Placement attempts.
    pub attempts: u64,
    /// Successful placements.
    pub successes: u64,
    /// Failures because no node had capacity.
    pub capacity_failures: u64,
    /// Failures because spreading forbade every feasible node.
    pub spreading_failures: u64,
    /// Spot VMs evicted to make room for on-demand requests.
    pub evictions: u64,
    /// Live migrations performed. No operation here migrates, so this
    /// stays 0; the store's report blob still persists it.
    pub migrations: u64,
}

impl AllocatorStats {
    /// Adds another counter set into this one. Stats are commutative
    /// integer sums, so partials from independently driven clusters (or
    /// cluster-group generation tasks) merge in any order.
    pub fn absorb(&mut self, other: &AllocatorStats) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.capacity_failures += other.capacity_failures;
        self.spreading_failures += other.spreading_failures;
        self.evictions += other.evictions;
        self.migrations += other.migrations;
    }
}

/// Where a VM currently lives, kept for release and eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Placement {
    node: NodeId,
    size: VmSize,
    service: ServiceId,
    priority: Priority,
}

/// The allocation service for one cluster.
///
/// Node selection is served from an incrementally maintained
/// free-capacity index: nodes are bucketed by free cores (the SKU is
/// uniform within a cluster, so buckets form a dense `0..=sku.cores`
/// array), each bucket keeping node offsets in ascending order. Every
/// [`PlacementPolicy`] walks the buckets in its own direction and
/// reproduces the linear scan's tie-breaks exactly; debug builds
/// cross-check each selection against the scan, and the `index_oracle`
/// proptest below drives a scan-backed twin in release mode.
#[derive(Debug, Clone)]
pub struct ClusterAllocator {
    id: ClusterId,
    node_ids: Vec<NodeId>,
    nodes: Vec<NodeState>,
    node_offset: FastMap<NodeId, usize>,
    placements: FastMap<VmId, Placement>,
    rack_service: FastMap<(RackId, ServiceId), u32>,
    policy: PlacementPolicy,
    spreading: SpreadingRule,
    stats: AllocatorStats,
    /// `free_index[f]` = offsets of nodes with exactly `f` free cores,
    /// ascending. Buckets are small sorted vectors (at most the node
    /// count, usually a handful): binary-search insert/remove beats a
    /// tree at this size, and walking a bucket is a slice scan.
    free_index: Vec<Vec<u32>>,
    /// Bitmask over `free_index`: bit `f` of word `f / 64` is set iff
    /// bucket `f` is non-empty, so policy walks jump straight to
    /// occupied buckets instead of probing every empty one.
    occupied: Vec<u64>,
    /// Evictable (spot) cores per node, for the eviction-plan prefilter.
    spot_cores: Vec<u32>,
    /// Running totals so `core_allocation_ratio` is O(1).
    cores_used_total: u64,
    cores_capacity: u64,
    /// Nodes probed by the index walk (see `index_candidates()`).
    index_candidates: u64,
    /// Cached handles for the per-placement metrics, fetched once from
    /// the registry current at construction: the place path is hot, and
    /// a registry name lookup per call would dominate it.
    metric_placements: cloudscope_obs::Counter,
    metric_failures: cloudscope_obs::Counter,
    metric_candidates: cloudscope_obs::Counter,
}

impl ClusterAllocator {
    /// Creates an empty allocator over a cluster's topology.
    #[must_use]
    pub fn new(cluster: &Cluster, policy: PlacementPolicy, spreading: SpreadingRule) -> Self {
        let mut node_ids = Vec::with_capacity(cluster.nodes.len());
        let mut nodes = Vec::with_capacity(cluster.nodes.len());
        let mut node_offset =
            FastMap::with_capacity_and_hasher(cluster.nodes.len(), Default::default());
        let nodes_per_rack = cluster.nodes.len() / cluster.racks.len();
        for (i, &nid) in cluster.nodes.iter().enumerate() {
            let rack = cluster.racks[(i / nodes_per_rack).min(cluster.racks.len() - 1)];
            node_ids.push(nid);
            nodes.push(NodeState::new(cluster.sku, rack));
            node_offset.insert(nid, i);
        }
        let buckets = cluster.sku.cores as usize + 1;
        let mut free_index = vec![Vec::new(); buckets];
        free_index[buckets - 1] = (0..nodes.len() as u32).collect();
        let mut occupied = vec![0u64; buckets.div_ceil(64)];
        if !nodes.is_empty() {
            occupied[(buckets - 1) / 64] |= 1 << ((buckets - 1) % 64);
        }
        let cores_capacity = nodes.iter().map(|n| u64::from(n.cores_total())).sum();
        Self {
            id: cluster.id,
            node_ids,
            spot_cores: vec![0; nodes.len()],
            nodes,
            node_offset,
            placements: FastMap::default(),
            rack_service: FastMap::default(),
            policy,
            spreading,
            stats: AllocatorStats::default(),
            free_index,
            occupied,
            cores_used_total: 0,
            cores_capacity,
            index_candidates: 0,
            metric_placements: cloudscope_obs::counter("cluster.allocator.placements"),
            metric_failures: cloudscope_obs::counter("cluster.allocator.placement_failures"),
            metric_candidates: cloudscope_obs::counter("cluster.alloc.index_candidates"),
        }
    }

    /// The cluster this allocator manages.
    #[must_use]
    pub const fn cluster_id(&self) -> ClusterId {
        self.id
    }

    /// Allocation counters so far.
    #[must_use]
    pub const fn stats(&self) -> &AllocatorStats {
        &self.stats
    }

    /// Number of VMs currently placed.
    #[must_use]
    pub fn placed_count(&self) -> usize {
        self.placements.len()
    }

    /// Fraction of the cluster's cores currently allocated.
    ///
    /// Served from running counters maintained by `commit`/`release`
    /// (O(1)); the counts are exact integer sums, so the value is
    /// bit-identical to a fresh scan over the nodes.
    #[must_use]
    pub fn core_allocation_ratio(&self) -> f64 {
        if self.cores_capacity == 0 {
            0.0
        } else {
            self.cores_used_total as f64 / self.cores_capacity as f64
        }
    }

    /// Total nodes the index walk has probed while answering placement
    /// requests. Flushed to the `cluster.alloc.index_candidates` metric;
    /// the ratio `index_candidates / attempts` is the per-request probe
    /// cost the index achieves (the scan's equivalent is the node count).
    #[must_use]
    pub const fn index_candidates(&self) -> u64 {
        self.index_candidates
    }

    /// Read-only view of a node's state.
    ///
    /// # Errors
    /// Returns [`AllocationError::UnknownNode`] if the node is not here.
    pub fn node_state(&self, node: NodeId) -> Result<&NodeState, AllocationError> {
        self.node_offset
            .get(&node)
            .map(|&i| &self.nodes[i])
            .ok_or(AllocationError::UnknownNode(node))
    }

    /// The node currently hosting `vm`, if placed.
    #[must_use]
    pub fn placement_of(&self, vm: VmId) -> Option<NodeId> {
        self.placements.get(&vm).map(|p| p.node)
    }

    fn spreading_ok(&self, node_idx: usize, service: ServiceId) -> bool {
        match self.spreading.max_same_service_per_rack {
            None => true,
            Some(cap) => {
                let rack = self.nodes[node_idx].rack();
                self.rack_service
                    .get(&(rack, service))
                    .copied()
                    .unwrap_or(0)
                    < cap
            }
        }
    }

    /// Chooses a node for `request`, or classifies the failure. Does not
    /// mutate state. Answers from the free-capacity index; debug builds
    /// cross-check the linear scan.
    fn choose_node(&self, request: &PlacementRequest) -> (Result<usize, AllocationError>, u64) {
        let chosen = self.choose_node_indexed(request);
        debug_assert_eq!(
            chosen.0,
            self.choose_node_scan(request),
            "free-capacity index diverged from the linear-scan oracle"
        );
        chosen
    }

    /// The O(nodes) selection scan: the oracle the index is checked
    /// against (the debug assert above, the `index_oracle` proptest).
    fn choose_node_scan(&self, request: &PlacementRequest) -> Result<usize, AllocationError> {
        let mut any_fits = false;
        let mut best: Option<(usize, u32)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.fits(request.size) {
                continue;
            }
            any_fits = true;
            if !self.spreading_ok(i, request.service) {
                continue;
            }
            let free_after = node.cores_free() - request.size.cores();
            let candidate = (i, free_after);
            best = match (self.policy, best) {
                (_, None) => Some(candidate),
                (PlacementPolicy::FirstFit, some) => some,
                (PlacementPolicy::BestFit, Some((_, f))) if free_after < f => Some(candidate),
                (PlacementPolicy::WorstFit, Some((_, f))) if free_after > f => Some(candidate),
                (_, some) => some,
            };
            // FirstFit can stop at the first feasible node.
            if self.policy == PlacementPolicy::FirstFit {
                break;
            }
        }
        match best {
            Some((i, _)) => Ok(i),
            None if any_fits => Err(AllocationError::SpreadingViolation(self.id)),
            None => Err(AllocationError::InsufficientCapacity(self.id)),
        }
    }

    /// Lowest non-empty bucket index `>= from`, via the occupancy
    /// bitmask.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= self.free_index.len() {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                let f = word * 64 + bits.trailing_zeros() as usize;
                return (f < self.free_index.len()).then_some(f);
            }
            word += 1;
            if word >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Highest non-empty bucket index `<= upto`, via the occupancy
    /// bitmask.
    fn prev_occupied(&self, upto: usize) -> Option<usize> {
        let upto = upto.min(self.free_index.len() - 1);
        let mut word = upto / 64;
        let mut bits = self.occupied[word] & (u64::MAX >> (63 - upto % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + 63 - bits.leading_zeros() as usize);
            }
            if word == 0 {
                return None;
            }
            word -= 1;
            bits = self.occupied[word];
        }
    }

    /// Index-backed selection. Walks the free-cores buckets in the
    /// policy's direction; within a bucket every node shares the same
    /// `free_after`, so the scan's strict-inequality tie-break (lowest
    /// offset wins among equals) is exactly the bucket's ascending
    /// order. Returns the choice plus the number of nodes probed.
    ///
    /// Failure classification matches the scan: when no feasible node
    /// exists the walk has visited every node with enough free cores, so
    /// "did anything fit before spreading" is known exactly.
    fn choose_node_indexed(
        &self,
        request: &PlacementRequest,
    ) -> (Result<usize, AllocationError>, u64) {
        let needed = request.size.cores() as usize;
        let mut probed = 0u64;
        let mut any_fits = false;
        if needed < self.free_index.len() {
            match self.policy {
                PlacementPolicy::BestFit => {
                    // Lowest feasible free count = tightest fit.
                    let mut f = self.next_occupied(needed);
                    while let Some(b) = f {
                        for &i in &self.free_index[b] {
                            let i = i as usize;
                            probed += 1;
                            if !self.nodes[i].fits(request.size) {
                                continue; // enough cores, not enough memory
                            }
                            any_fits = true;
                            if self.spreading_ok(i, request.service) {
                                return (Ok(i), probed);
                            }
                        }
                        f = self.next_occupied(b + 1);
                    }
                }
                PlacementPolicy::WorstFit => {
                    let mut f = self.prev_occupied(self.free_index.len() - 1);
                    while let Some(b) = f {
                        if b < needed {
                            break;
                        }
                        for &i in &self.free_index[b] {
                            let i = i as usize;
                            probed += 1;
                            if !self.nodes[i].fits(request.size) {
                                continue;
                            }
                            any_fits = true;
                            if self.spreading_ok(i, request.service) {
                                return (Ok(i), probed);
                            }
                        }
                        f = b.checked_sub(1).and_then(|b| self.prev_occupied(b));
                    }
                }
                PlacementPolicy::FirstFit => {
                    // Lowest offset across all eligible buckets. Buckets
                    // iterate ascending, so a bucket stops contributing
                    // once its offsets pass the best found so far.
                    let mut best: Option<usize> = None;
                    let mut f = self.next_occupied(needed);
                    while let Some(b) = f {
                        for &i in &self.free_index[b] {
                            let i = i as usize;
                            if best.is_some_and(|b| i >= b) {
                                break;
                            }
                            probed += 1;
                            if !self.nodes[i].fits(request.size) {
                                continue;
                            }
                            any_fits = true;
                            if self.spreading_ok(i, request.service) {
                                best = Some(i);
                                break;
                            }
                        }
                        f = self.next_occupied(b + 1);
                    }
                    if let Some(i) = best {
                        return (Ok(i), probed);
                    }
                }
            }
        }
        let err = if any_fits {
            AllocationError::SpreadingViolation(self.id)
        } else {
            AllocationError::InsufficientCapacity(self.id)
        };
        (Err(err), probed)
    }

    /// Places a VM, returning the chosen node.
    ///
    /// # Errors
    /// - [`AllocationError::AlreadyPlaced`] if the VM is already placed.
    /// - [`AllocationError::InsufficientCapacity`] if no node fits.
    /// - [`AllocationError::SpreadingViolation`] if only spreading blocks.
    pub fn place(&mut self, request: PlacementRequest) -> Result<NodeId, AllocationError> {
        if self.placements.contains_key(&request.vm) {
            return Err(AllocationError::AlreadyPlaced(request.vm));
        }
        let (chosen, probed) = self.choose_node(&request);
        self.place_chosen(request, chosen, probed)
    }

    /// Books the outcome of a node selection for `request`: attempt and
    /// failure counters, metrics, and the commit on success.
    fn place_chosen(
        &mut self,
        request: PlacementRequest,
        chosen: Result<usize, AllocationError>,
        probed: u64,
    ) -> Result<NodeId, AllocationError> {
        self.stats.attempts += 1;
        self.index_candidates += probed;
        self.metric_candidates.add(probed);
        let idx = match chosen {
            Ok(idx) => idx,
            Err(e) => {
                match e {
                    AllocationError::InsufficientCapacity(_) => {
                        self.stats.capacity_failures += 1;
                    }
                    AllocationError::SpreadingViolation(_) => {
                        self.stats.spreading_failures += 1;
                    }
                    _ => {}
                }
                self.metric_failures.inc();
                return Err(e);
            }
        };
        self.commit(idx, request);
        self.metric_placements.inc();
        Ok(self.node_ids[idx])
    }

    /// Moves node `idx` between free-cores buckets after its free count
    /// changed from `old_free` to its current value.
    fn reindex_node(&mut self, idx: usize, old_free: u32) {
        let new_free = self.nodes[idx].cores_free();
        if new_free == old_free {
            return;
        }
        let old_bucket = &mut self.free_index[old_free as usize];
        let pos = old_bucket
            .binary_search(&(idx as u32))
            .expect("node missing from its free-cores bucket");
        old_bucket.remove(pos);
        if old_bucket.is_empty() {
            self.occupied[old_free as usize / 64] &= !(1u64 << (old_free % 64));
        }
        let new_bucket = &mut self.free_index[new_free as usize];
        let pos = new_bucket
            .binary_search(&(idx as u32))
            .expect_err("node already in target bucket");
        new_bucket.insert(pos, idx as u32);
        self.occupied[new_free as usize / 64] |= 1u64 << (new_free % 64);
    }

    fn commit(&mut self, idx: usize, request: PlacementRequest) {
        let old_free = self.nodes[idx].cores_free();
        self.nodes[idx].place(request.vm, request.size);
        self.reindex_node(idx, old_free);
        self.cores_used_total += u64::from(request.size.cores());
        if request.priority == Priority::Spot {
            self.spot_cores[idx] += request.size.cores();
        }
        let rack = self.nodes[idx].rack();
        *self
            .rack_service
            .entry((rack, request.service))
            .or_insert(0) += 1;
        self.placements.insert(
            request.vm,
            Placement {
                node: self.node_ids[idx],
                size: request.size,
                service: request.service,
                priority: request.priority,
            },
        );
        self.stats.successes += 1;
    }

    /// Places an on-demand VM, evicting spot VMs if necessary: if normal
    /// placement fails on capacity, the node whose spot VMs would free
    /// enough room with the fewest evictions is chosen, its spot VMs are
    /// evicted (youngest placement first), and placement is retried.
    ///
    /// Returns the chosen node and the evicted spot VMs (empty on a clean
    /// placement).
    ///
    /// # Errors
    /// Same as [`ClusterAllocator::place`] when eviction cannot help.
    pub fn place_with_eviction(
        &mut self,
        request: PlacementRequest,
    ) -> Result<(NodeId, Vec<VmId>), AllocationError> {
        match self.place(request) {
            Ok(node) => Ok((node, Vec::new())),
            Err(AllocationError::InsufficientCapacity(_)) => {
                let plan = self.eviction_plan(&request);
                self.place_evicting(request, plan)
            }
            Err(e) => Err(e),
        }
    }

    /// Carries out an eviction plan: releases the victims, then commits
    /// `request` directly on the freed node.
    fn place_evicting(
        &mut self,
        request: PlacementRequest,
        plan: Option<(usize, Vec<VmId>)>,
    ) -> Result<(NodeId, Vec<VmId>), AllocationError> {
        let Some((idx, victims)) = plan else {
            return Err(AllocationError::InsufficientCapacity(self.id));
        };
        for vm in &victims {
            self.release(*vm).expect("victim is placed");
            self.stats.evictions += 1;
        }
        if !self.spreading_ok(idx, request.service) {
            return Err(AllocationError::SpreadingViolation(self.id));
        }
        self.stats.attempts += 1;
        self.commit(idx, request);
        Ok((self.node_ids[idx], victims))
    }

    /// Finds the node where evicting the fewest spot VMs makes the
    /// request fit; returns node index and victim list.
    ///
    /// Rides the same incremental indexes as placement: a per-node
    /// evictable-cores counter prefilters nodes that could not reach the
    /// requested core count even with every spot VM gone (an exact
    /// integer bound, so the surviving candidate set — and therefore the
    /// chosen plan — is identical to the full scan's). Memory is left to
    /// the per-victim walk: it accumulates `f64` sizes in eviction
    /// order, and short-circuiting it on a precomputed total could
    /// reorder those additions.
    fn eviction_plan(&self, request: &PlacementRequest) -> Option<(usize, Vec<VmId>)> {
        let candidates = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].cores_free() + self.spot_cores[i] >= request.size.cores());
        self.cheapest_eviction(request, candidates)
    }

    /// Among `candidates` (ascending node offsets), the first node whose
    /// spot VMs free enough room with the fewest evictions.
    fn cheapest_eviction(
        &self,
        request: &PlacementRequest,
        candidates: impl Iterator<Item = usize>,
    ) -> Option<(usize, Vec<VmId>)> {
        if request.priority != Priority::OnDemand {
            return None;
        }
        let mut best: Option<(usize, Vec<VmId>)> = None;
        for i in candidates {
            let node = &self.nodes[i];
            let mut free_cores = node.cores_free();
            let mut free_mem = node.memory_free();
            let mut victims = Vec::new();
            // Youngest-first: later placements are evicted first.
            for &vm in node.vms().iter().rev() {
                if free_cores >= request.size.cores() && free_mem + 1e-9 >= request.size.memory_gb()
                {
                    break;
                }
                let p = &self.placements[&vm];
                if p.priority == Priority::Spot {
                    free_cores += p.size.cores();
                    free_mem += p.size.memory_gb();
                    victims.push(vm);
                }
            }
            if free_cores >= request.size.cores() && free_mem + 1e-9 >= request.size.memory_gb() {
                let better = match &best {
                    None => true,
                    Some((_, b)) => victims.len() < b.len(),
                };
                if better && self.spreading_ok(i, request.service) {
                    best = Some((i, victims));
                }
            }
        }
        best
    }

    /// Releases a VM's resources (termination or eviction), returning the
    /// node it occupied.
    ///
    /// # Errors
    /// Returns [`AllocationError::UnknownVm`] if the VM is not placed.
    pub fn release(&mut self, vm: VmId) -> Result<NodeId, AllocationError> {
        let placement = self
            .placements
            .remove(&vm)
            .ok_or(AllocationError::UnknownVm(vm))?;
        let idx = self.node_offset[&placement.node];
        let old_free = self.nodes[idx].cores_free();
        let released = self.nodes[idx].release(vm, placement.size);
        debug_assert!(released, "placement table and node state diverged");
        self.reindex_node(idx, old_free);
        self.cores_used_total -= u64::from(placement.size.cores());
        if placement.priority == Priority::Spot {
            self.spot_cores[idx] -= placement.size.cores();
        }
        let rack = self.nodes[idx].rack();
        if let Some(count) = self.rack_service.get_mut(&(rack, placement.service)) {
            *count = count.saturating_sub(1);
        }
        Ok(placement.node)
    }

    /// Iterates `(node, state)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeState)> {
        self.node_ids.iter().copied().zip(self.nodes.iter())
    }
}

#[cfg(test)]
mod index_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_model::subscription::CloudKind;
    use cloudscope_model::topology::{NodeSku, Topology};

    /// 2 racks × 2 nodes of 8 cores / 64 GiB.
    fn allocator(policy: PlacementPolicy, spreading: SpreadingRule) -> ClusterAllocator {
        let mut b = Topology::builder();
        let r = b.add_region("test", 0, "US");
        let d = b.add_datacenter(r);
        let c = b.add_cluster(d, CloudKind::Private, NodeSku::new(8, 64.0), 2, 2);
        let topo = b.build();
        ClusterAllocator::new(topo.cluster(c).unwrap(), policy, spreading)
    }

    fn req(vm: u64, cores: u32, service: u32) -> PlacementRequest {
        PlacementRequest {
            vm: VmId::new(vm),
            size: VmSize::new(cores, f64::from(cores) * 4.0),
            service: ServiceId::new(service),
            priority: Priority::OnDemand,
        }
    }

    #[test]
    fn best_fit_packs_tightly() {
        let mut a = allocator(PlacementPolicy::BestFit, SpreadingRule::default());
        let n0 = a.place(req(0, 5, 0)).unwrap();
        // Best fit should co-locate the 3-core VM with the 5-core one.
        let n1 = a.place(req(1, 3, 0)).unwrap();
        assert_eq!(n0, n1);
        assert_eq!(a.placed_count(), 2);
        assert!((a.core_allocation_ratio() - 8.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn worst_fit_spreads() {
        let mut a = allocator(PlacementPolicy::WorstFit, SpreadingRule::default());
        let n0 = a.place(req(0, 5, 0)).unwrap();
        let n1 = a.place(req(1, 3, 0)).unwrap();
        assert_ne!(n0, n1);
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let mut a = allocator(PlacementPolicy::FirstFit, SpreadingRule::default());
        let n0 = a.place(req(0, 2, 0)).unwrap();
        let n1 = a.place(req(1, 2, 0)).unwrap();
        assert_eq!(n0, n1);
    }

    #[test]
    fn capacity_failure_when_full() {
        let mut a = allocator(PlacementPolicy::BestFit, SpreadingRule::default());
        for i in 0..4 {
            a.place(req(i, 8, 0)).unwrap();
        }
        let err = a.place(req(9, 1, 0)).unwrap_err();
        assert!(matches!(err, AllocationError::InsufficientCapacity(_)));
        assert_eq!(a.stats().capacity_failures, 1);
    }

    #[test]
    fn spreading_rule_blocks_same_rack() {
        let spreading = SpreadingRule {
            max_same_service_per_rack: Some(1),
        };
        let mut a = allocator(PlacementPolicy::FirstFit, spreading);
        // Service 7: one VM per rack allowed -> 2 placements, 3rd fails.
        a.place(req(0, 1, 7)).unwrap();
        a.place(req(1, 1, 7)).unwrap();
        let err = a.place(req(2, 1, 7)).unwrap_err();
        assert!(matches!(err, AllocationError::SpreadingViolation(_)));
        assert_eq!(a.stats().spreading_failures, 1);
        // A different service still places fine.
        a.place(req(3, 1, 8)).unwrap();
    }

    #[test]
    fn release_frees_spreading_budget() {
        let spreading = SpreadingRule {
            max_same_service_per_rack: Some(1),
        };
        let mut a = allocator(PlacementPolicy::FirstFit, spreading);
        a.place(req(0, 1, 7)).unwrap();
        a.place(req(1, 1, 7)).unwrap();
        assert!(a.place(req(2, 1, 7)).is_err());
        a.release(VmId::new(0)).unwrap();
        a.place(req(2, 1, 7)).unwrap();
    }

    #[test]
    fn double_place_and_unknown_release() {
        let mut a = allocator(PlacementPolicy::BestFit, SpreadingRule::default());
        a.place(req(0, 1, 0)).unwrap();
        assert!(matches!(
            a.place(req(0, 1, 0)),
            Err(AllocationError::AlreadyPlaced(_))
        ));
        assert!(matches!(
            a.release(VmId::new(99)),
            Err(AllocationError::UnknownVm(_))
        ));
    }

    #[test]
    fn eviction_makes_room_for_on_demand() {
        let mut a = allocator(PlacementPolicy::BestFit, SpreadingRule::default());
        // Fill every node with spot VMs.
        for i in 0..4 {
            a.place(PlacementRequest {
                priority: Priority::Spot,
                ..req(i, 8, 0)
            })
            .unwrap();
        }
        let (node, evicted) = a.place_with_eviction(req(10, 8, 1)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(a.stats().evictions, 1);
        assert_eq!(a.placement_of(VmId::new(10)), Some(node));
        assert_eq!(a.placement_of(evicted[0]), None);
    }

    #[test]
    fn eviction_never_touches_on_demand() {
        let mut a = allocator(PlacementPolicy::BestFit, SpreadingRule::default());
        for i in 0..4 {
            a.place(req(i, 8, 0)).unwrap(); // on-demand fills the cluster
        }
        assert!(matches!(
            a.place_with_eviction(req(10, 8, 1)),
            Err(AllocationError::InsufficientCapacity(_))
        ));
        assert_eq!(a.stats().evictions, 0);
    }

    #[test]
    fn spot_request_cannot_trigger_eviction() {
        let mut a = allocator(PlacementPolicy::BestFit, SpreadingRule::default());
        for i in 0..4 {
            a.place(PlacementRequest {
                priority: Priority::Spot,
                ..req(i, 8, 0)
            })
            .unwrap();
        }
        let spot_req = PlacementRequest {
            priority: Priority::Spot,
            ..req(10, 8, 1)
        };
        assert!(a.place_with_eviction(spot_req).is_err());
    }
}
