//! Eviction edge cases of the indexed allocator, through the public API:
//! the exact-fit boundary of the evictable-cores prefilter and refusal
//! when no spot mix suffices. (The index-vs-scan proptest lives
//! in-crate, `allocator::index_oracle`, beside the private scan.)

use cloudscope_cluster::{
    AllocationError, ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule,
};
use cloudscope_model::ids::{NodeId, ServiceId, VmId};
use cloudscope_model::subscription::CloudKind;
use cloudscope_model::topology::{NodeSku, Topology};
use cloudscope_model::vm::{Priority, VmSize};

/// 2 racks × 2 nodes of 8 cores / 64 GiB each.
fn small_allocator(policy: PlacementPolicy, spread: Option<u32>) -> ClusterAllocator {
    let mut b = Topology::builder();
    let r = b.add_region("edge", 0, "US");
    let d = b.add_datacenter(r);
    let c = b.add_cluster(d, CloudKind::Private, NodeSku::new(8, 64.0), 2, 2);
    let topo = b.build();
    ClusterAllocator::new(
        topo.cluster(c).unwrap(),
        policy,
        SpreadingRule {
            max_same_service_per_rack: spread,
        },
    )
}

fn node_ids(alloc: &ClusterAllocator) -> Vec<NodeId> {
    alloc.nodes().map(|(id, _)| id).collect()
}

fn req(vm: u64, cores: u32, service: u32, priority: Priority) -> PlacementRequest {
    PlacementRequest {
        vm: VmId::new(vm),
        size: VmSize::new(cores, f64::from(cores) * 4.0),
        service: ServiceId::new(service),
        priority,
    }
}

/// Evicting the node's spot VMs frees *exactly* the requested size: the
/// boundary where `free_cores >= needed` first holds with equality.
#[test]
fn eviction_exactly_fills_the_gap() {
    let mut a = small_allocator(PlacementPolicy::BestFit, None);
    let ids = node_ids(&a);
    // Fill every node to 8/8 so plain placement cannot succeed anywhere:
    // node 0 gets on-demand 4 + spot 4, the rest are fully on-demand.
    a.place(req(0, 4, 0, Priority::OnDemand)).unwrap();
    a.place(req(1, 4, 0, Priority::Spot)).unwrap();
    for (i, vm) in (2..=4).enumerate() {
        a.place(req(vm, 8, 0, Priority::OnDemand)).unwrap();
        let _ = i;
    }
    assert!((a.core_allocation_ratio() - 1.0).abs() < 1e-12);

    // 4 on-demand cores: only node 0 can help, and evicting its single
    // 4-core spot VM frees exactly 4 cores — no slack on either side.
    let (node, victims) = a
        .place_with_eviction(req(9, 4, 0, Priority::OnDemand))
        .unwrap();
    assert_eq!(node, ids[0]);
    assert_eq!(victims, vec![VmId::new(1)]);
    assert_eq!(a.stats().evictions, 1);
    assert_eq!(a.placement_of(VmId::new(1)), None);
    // The cluster is full again: exactly filled, nothing over-freed.
    assert!((a.core_allocation_ratio() - 1.0).abs() < 1e-12);
}

/// When no node's spot mix can free enough cores, eviction must refuse
/// and leave every placement untouched.
#[test]
fn eviction_refuses_when_spot_mix_insufficient() {
    let mut a = small_allocator(PlacementPolicy::BestFit, None);
    // Each node: 5 on-demand + 2 spot = 7/8 used, 1 free. Evicting all
    // spot frees at most 1 + 2 = 3 cores per node.
    for n in 0..4u64 {
        a.place(req(n * 2, 5, 0, Priority::OnDemand)).unwrap();
        a.place(req(n * 2 + 1, 2, 0, Priority::Spot)).unwrap();
    }
    let before_placed = a.placed_count();
    let before_stats = *a.stats();

    let err = a.place_with_eviction(req(100, 6, 0, Priority::OnDemand));
    assert!(matches!(err, Err(AllocationError::InsufficientCapacity(_))));
    assert_eq!(a.placed_count(), before_placed, "no VM may be disturbed");
    assert_eq!(a.stats().evictions, 0);
    assert_eq!(a.stats().successes, before_stats.successes);
    // Every spot VM is still where it was.
    for n in 0..4u64 {
        assert!(a.placement_of(VmId::new(n * 2 + 1)).is_some());
    }
}
