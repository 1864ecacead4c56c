//! Failure injection: degenerate configurations and partial data must
//! produce typed errors or graceful degradation, never panics.

use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::analysis::AnalysisError;
use cloudscope::cluster::{
    AllocationError, ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule,
};
use cloudscope::prelude::*;

#[test]
fn telemetry_free_trace_degrades_typed() {
    let mut config = GeneratorConfig::small(41);
    config.telemetry = false;
    let g = generate(&config);
    assert_eq!(g.trace.stats().vms_with_telemetry, 0);
    // Deployment analyses still work...
    let snapshot = SimTime::from_hours(60);
    assert!(DeploymentSizeAnalysis::run(&g.trace, snapshot).is_ok());
    // ...while telemetry-dependent ones fail with NoData, not a panic.
    let err = cloudscope::analysis::utilization::UtilizationDistribution::run(
        &g.trace,
        CloudKind::Private,
        100,
    )
    .unwrap_err();
    assert!(matches!(err, AnalysisError::NoData(_)));
    let err = cloudscope::analysis::correlation::node_vm_correlation_cdf(
        &g.trace,
        CloudKind::Public,
        100,
    )
    .unwrap_err();
    assert!(matches!(err, AnalysisError::NoData(_)));
    // The fig 5 classifier core: no telemetry means nothing classifies.
    let err = cloudscope::analysis::patterns::pattern_shares(
        &g.trace,
        CloudKind::Private,
        &PatternClassifier,
        100,
    )
    .unwrap_err();
    assert!(matches!(err, AnalysisError::NoData(_)));
    // The fig 7(b) cross-region core.
    let err = cloudscope::analysis::correlation::region_pair_correlation_cdf(
        &g.trace,
        CloudKind::Public,
        "US",
    )
    .unwrap_err();
    assert!(matches!(err, AnalysisError::NoData(_)));
}

/// The whole extracted check surface — the same code path `repro` and
/// the robustness gate run — reports a typed error on a
/// telemetry-free trace instead of panicking partway through.
#[test]
fn full_check_surface_errors_typed_without_telemetry() {
    use cloudscope_repro::checks::{all_figure_checks, CheckProfile};
    let mut config = GeneratorConfig::small(44);
    config.telemetry = false;
    let g = generate(&config);
    let err = all_figure_checks(&g, &CheckProfile::medium()).unwrap_err();
    assert!(matches!(err, AnalysisError::NoData(_)));
}

#[test]
fn capacity_exhaustion_drops_vms_but_keeps_consistency() {
    let mut config = GeneratorConfig::small(42);
    // Starve the platform: a single tiny cluster per cloud per region.
    config.topology.racks_per_cluster = 1;
    config.topology.nodes_per_rack = 2;
    let g = generate(&config);
    let report = g.report;
    assert!(report.dropped_vms > 0, "starved platform must drop VMs");
    assert!(report.private_alloc.capacity_failures + report.public_alloc.capacity_failures > 0);
    // Every surviving record is placed and consistent.
    for vm in g.trace.vms() {
        assert!(vm.node.is_some() || vm.cluster.index() != u32::MAX);
        let cluster = g.trace.topology().cluster(vm.cluster).unwrap();
        assert_eq!(cluster.region, vm.region);
    }
    // The allocator never over-committed despite the pressure.
    let stats = g.trace.stats();
    assert_eq!(stats.private_vms + stats.public_vms, g.trace.vms().len());
}

#[test]
fn empty_cloud_analyses_error_cleanly() {
    // A topology with only private clusters: public analyses say NoData.
    let mut b = Topology::builder();
    let r = b.add_region("solo", 0, "US");
    let d = b.add_datacenter(r);
    b.add_cluster(d, CloudKind::Private, NodeSku::new(8, 64.0), 1, 2);
    let trace = Trace::builder(b.build()).build();
    let err = DeploymentSizeAnalysis::run(&trace, SimTime::ZERO).unwrap_err();
    assert!(matches!(err, AnalysisError::NoData(_)));
}

#[test]
fn allocator_failure_taxonomy_is_stable() {
    let mut b = Topology::builder();
    let r = b.add_region("x", 0, "US");
    let d = b.add_datacenter(r);
    let c = b.add_cluster(d, CloudKind::Public, NodeSku::new(4, 32.0), 1, 1);
    let topo = b.build();
    let mut alloc = ClusterAllocator::new(
        topo.cluster(c).unwrap(),
        PlacementPolicy::BestFit,
        SpreadingRule {
            max_same_service_per_rack: Some(1),
        },
    );
    let req = |vm: u64, cores: u32, service: u32| PlacementRequest {
        vm: VmId::new(vm),
        size: VmSize::new(cores, 1.0),
        service: ServiceId::new(service),
        priority: Priority::OnDemand,
    };
    alloc.place(req(0, 1, 7)).unwrap();
    // Same service, same rack: spreading violation (capacity exists).
    assert!(matches!(
        alloc.place(req(1, 1, 7)),
        Err(AllocationError::SpreadingViolation(_))
    ));
    // Different service but too big: capacity.
    assert!(matches!(
        alloc.place(req(2, 4, 8)),
        Err(AllocationError::InsufficientCapacity(_))
    ));
}

#[test]
fn kb_indexes_stay_consistent_under_corrupted_telemetry() {
    use cloudscope::faults::{corrupt_trace, FaultPlan};
    use cloudscope::kb::run_extraction_pipeline;

    // Extraction over a corrupted trace must leave the sharded store's
    // secondary indexes exactly consistent with its entries, and the
    // served results identical for any shard count.
    let g = generate(&GeneratorConfig::small(45));
    let (corrupted, _report) = corrupt_trace(&g.trace, &FaultPlan::standard(45));
    let classifier = PatternClassifier;

    let reference = KnowledgeBase::with_shards(1);
    let ref_stats = run_extraction_pipeline(&corrupted, &reference, &classifier, 2, 2);
    assert!(ref_stats.stored > 0, "corruption must not empty the KB");
    assert_eq!(
        reference.check_consistency().expect("reference consistent"),
        reference.len()
    );

    for shards in [2usize, 8] {
        let kb = KnowledgeBase::with_shards(shards);
        let stats = run_extraction_pipeline(&corrupted, &kb, &classifier, 2, 2);
        assert_eq!(stats, ref_stats);
        assert_eq!(kb.check_consistency().expect("consistent"), kb.len());
        assert_eq!(
            KbQuery::all().collect(&kb),
            KbQuery::all().collect(&reference),
            "shard count changed served results under corruption"
        );
        assert_eq!(
            KbQuery::spot_candidates().count(&kb),
            KbQuery::spot_candidates().count(&reference)
        );
    }
}

#[test]
fn partial_telemetry_windows_are_tolerated() {
    // Churn VMs have short telemetry windows; every analysis that
    // touches them must handle sub-day series without panicking.
    let g = generate(&GeneratorConfig::small(43));
    let classifier = PatternClassifier;
    let mut short_windows = 0;
    for vm in g.trace.vms() {
        if let Some(util) = g.trace.util(vm.id) {
            if util.len() < 288 {
                short_windows += 1;
                // Too short to classify: must be None, not a panic.
                assert_eq!(classifier.classify_vm(&g.trace, vm.id), None);
            }
        }
    }
    assert!(short_windows > 0, "churn produces short telemetry windows");
}
