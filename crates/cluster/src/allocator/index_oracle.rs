//! Index-vs-scan oracle: the free-capacity index must reproduce the
//! linear-scan node selection byte-for-byte.
//!
//! Debug builds already cross-check every `choose_node` against the scan
//! via `debug_assert_eq!`; this proptest drives an indexed allocator and
//! a [`ScanTwin`] through identical operation sequences so the release
//! test run (where that assert is compiled out) checks it too, covering
//! every `PlacementPolicy` × `SpreadingRule`, plus eviction and the
//! running `core_allocation_ratio` counters.

use super::*;
use cloudscope_model::subscription::CloudKind;
use cloudscope_model::topology::{NodeSku, Topology};
use proptest::prelude::*;

/// An allocator that decides the way the code did before the index
/// existed — linear-scan node selection, eviction plan over every node,
/// no evictable-cores prefilter — and books the decision through the
/// same mutation code as the indexed path.
struct ScanTwin(ClusterAllocator);

impl ScanTwin {
    fn place(&mut self, request: PlacementRequest) -> Result<NodeId, AllocationError> {
        let a = &mut self.0;
        if a.placements.contains_key(&request.vm) {
            return Err(AllocationError::AlreadyPlaced(request.vm));
        }
        let chosen = a.choose_node_scan(&request);
        a.place_chosen(request, chosen, a.nodes.len() as u64)
    }

    fn place_with_eviction(
        &mut self,
        request: PlacementRequest,
    ) -> Result<(NodeId, Vec<VmId>), AllocationError> {
        match self.place(request) {
            Ok(node) => Ok((node, Vec::new())),
            Err(AllocationError::InsufficientCapacity(_)) => {
                let a = &mut self.0;
                let plan = a.cheapest_eviction(&request, 0..a.nodes.len());
                a.place_evicting(request, plan)
            }
            Err(e) => Err(e),
        }
    }
}

fn build_allocator(policy: PlacementPolicy, spread: Option<u32>) -> ClusterAllocator {
    let mut b = Topology::builder();
    let r = b.add_region("oracle", 0, "US");
    let d = b.add_datacenter(r);
    let c = b.add_cluster(d, CloudKind::Public, NodeSku::new(16, 128.0), 3, 4);
    let topo = b.build();
    ClusterAllocator::new(
        topo.cluster(c).unwrap(),
        policy,
        SpreadingRule {
            max_same_service_per_rack: spread,
        },
    )
}

#[derive(Debug, Clone)]
enum Op {
    Place {
        cores: u32,
        service: u32,
        spot: bool,
    },
    PlaceEvict {
        cores: u32,
        service: u32,
    },
    Release {
        slot: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=16, 0u32..4, any::<bool>()).prop_map(|(cores, service, spot)| Op::Place {
            cores,
            service,
            spot
        }),
        (1u32..=16, 0u32..4).prop_map(|(cores, service)| Op::PlaceEvict { cores, service }),
        (0usize..64).prop_map(|slot| Op::Release { slot }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::FirstFit),
        Just(PlacementPolicy::BestFit),
        Just(PlacementPolicy::WorstFit),
    ]
}

/// Fresh O(nodes) recomputation of the allocation ratio, the oracle for
/// the running counters behind `core_allocation_ratio`.
fn scanned_ratio(alloc: &ClusterAllocator) -> f64 {
    let mut used = 0u64;
    let mut total = 0u64;
    for (_, state) in alloc.nodes() {
        used += u64::from(state.cores_used());
        total += u64::from(state.cores_total());
    }
    if total == 0 {
        0.0
    } else {
        used as f64 / total as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive an indexed allocator and its scan-reference twin through the
    /// same random sequence of placements, evicting placements, and
    /// releases: every returned node, error variant, victim list, stat
    /// counter, and the running allocation ratio must agree exactly.
    #[test]
    fn index_matches_scan_oracle(
        ops in prop::collection::vec(op_strategy(), 1..150),
        policy in policy_strategy(),
        spread in prop_oneof![Just(None), (1u32..4).prop_map(Some)],
    ) {
        let mut indexed = build_allocator(policy, spread);
        let mut scan = ScanTwin(build_allocator(policy, spread));
        let mut placed: Vec<VmId> = Vec::new();
        let mut next_vm = 0u64;

        for op in ops {
            match op {
                Op::Place { cores, service, spot } => {
                    let request = PlacementRequest {
                        vm: VmId::new(next_vm),
                        size: VmSize::new(cores, f64::from(cores) * 4.0),
                        service: ServiceId::new(service),
                        priority: if spot { Priority::Spot } else { Priority::OnDemand },
                    };
                    next_vm += 1;
                    // Non-mutating probes first: the index path and the
                    // scan path must agree on the same live state.
                    prop_assert_eq!(
                        indexed.choose_node_indexed(&request).0,
                        indexed.choose_node_scan(&request)
                    );
                    let a = indexed.place(request);
                    let b = scan.place(request);
                    prop_assert_eq!(a, b, "place diverged");
                    if a.is_ok() {
                        placed.push(request.vm);
                    }
                }
                Op::PlaceEvict { cores, service } => {
                    let request = PlacementRequest {
                        vm: VmId::new(next_vm),
                        size: VmSize::new(cores, f64::from(cores) * 4.0),
                        service: ServiceId::new(service),
                        priority: Priority::OnDemand,
                    };
                    next_vm += 1;
                    let a = indexed.place_with_eviction(request);
                    let b = scan.place_with_eviction(request);
                    prop_assert_eq!(&a, &b, "place_with_eviction diverged");
                    if let Ok((_, victims)) = a {
                        placed.retain(|vm| !victims.contains(vm));
                        placed.push(request.vm);
                    }
                }
                Op::Release { slot } => {
                    if !placed.is_empty() {
                        let vm = placed.swap_remove(slot % placed.len());
                        let a = indexed.release(vm);
                        let b = scan.0.release(vm);
                        prop_assert_eq!(a, b, "release diverged");
                    }
                }
            }

            prop_assert_eq!(indexed.stats(), scan.0.stats());
            prop_assert_eq!(indexed.placed_count(), scan.0.placed_count());
            // Running-counter ratio is bit-identical to a fresh scan.
            prop_assert_eq!(
                indexed.core_allocation_ratio().to_bits(),
                scanned_ratio(&indexed).to_bits(),
                "running core counters drifted from node state"
            );
            prop_assert_eq!(
                indexed.core_allocation_ratio().to_bits(),
                scanned_ratio(&scan.0).to_bits()
            );
        }
    }
}
