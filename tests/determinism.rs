//! Determinism: the generator and the full pipeline are pure functions of
//! the configuration seed, regardless of thread scheduling.

use cloudscope::faults::{corrupt_trace, FaultPlan};
use cloudscope::model::export::write_telemetry;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;

#[test]
fn same_seed_same_trace_and_report() {
    let a = generate(&GeneratorConfig::small(5));
    let b = generate(&GeneratorConfig::small(5));
    assert_eq!(a.trace.stats(), b.trace.stats());
    assert_eq!(a.report, b.report);
    // Spot-check record and telemetry equality.
    for idx in [0u64, 17, 99] {
        let vm = VmId::new(idx);
        assert_eq!(a.trace.vm(vm).unwrap(), b.trace.vm(vm).unwrap());
        assert_eq!(a.trace.util(vm), b.trace.util(vm));
    }
    let ra = CharacterizationReport::analyze(&a.trace, &ReportConfig::default()).unwrap();
    let rb = CharacterizationReport::analyze(&b.trace, &ReportConfig::default()).unwrap();
    assert_eq!(
        ra.temporal.private_short_fraction,
        rb.temporal.private_short_fraction
    );
    assert_eq!(
        ra.node_correlation.0.median(),
        rb.node_correlation.0.median()
    );
    assert_eq!(
        ra.private_patterns.classified(),
        rb.private_patterns.classified()
    );
}

#[test]
fn different_seeds_differ() {
    let a = generate(&GeneratorConfig::small(1));
    let b = generate(&GeneratorConfig::small(2));
    assert_ne!(a.trace.stats(), b.trace.stats());
}

#[test]
fn par_map_is_invariant_in_the_worker_count() {
    // A realistic workload: classify every VM of a generated trace.
    // The result must be the sequential order-preserving map no matter
    // how the items are sliced across threads.
    let g = generate(&GeneratorConfig::small(5));
    let classifier = PatternClassifier;
    let vms: Vec<VmId> = g.trace.vms().iter().map(|vm| vm.id).collect();
    assert!(vms.len() > 500, "enough work to split: {}", vms.len());

    let classify = |vm: &VmId| classifier.classify_vm(&g.trace, *vm);
    let reference: Vec<Option<UtilizationPattern>> = vms.iter().map(classify).collect();
    for workers in [1usize, 2, 7, 16] {
        let parallel = Parallelism::with_workers(workers).par_map(&vms, classify);
        assert_eq!(
            parallel, reference,
            "par_map diverged from the sequential map at {workers} workers"
        );
    }
}

/// Corrupted telemetry exports byte-identically for the same plan seed:
/// the fault layer keys every VM's corruption stream off the VM id, not
/// iteration order or wall clock.
#[test]
fn fault_plans_are_deterministic_and_seed_sensitive() {
    let clean = generate(&GeneratorConfig::small(5));
    let export = |plan: &FaultPlan| -> Vec<u8> {
        let (trace, _) = corrupt_trace(&clean.trace, plan);
        let mut bytes = Vec::new();
        write_telemetry(&trace, &mut bytes).expect("in-memory export");
        bytes
    };

    let first = export(&FaultPlan::standard(41));
    let again = export(&FaultPlan::standard(41));
    assert_eq!(first, again, "same seed must corrupt byte-identically");

    let other = export(&FaultPlan::standard(42));
    assert_ne!(first, other, "a different seed must corrupt differently");

    // And the clean plan round-trips the original telemetry untouched.
    let mut original = Vec::new();
    write_telemetry(&clean.trace, &mut original).expect("in-memory export");
    assert_eq!(export(&FaultPlan::clean(41)), original);
}

#[test]
fn services_directory_is_stable() {
    let a = generate(&GeneratorConfig::small(5));
    let b = generate(&GeneratorConfig::small(5));
    assert_eq!(a.services.len(), b.services.len());
    for (x, y) in a.services.iter().zip(&b.services) {
        assert_eq!(x.service, y.service);
        assert_eq!(x.profile, y.profile);
        assert_eq!(x.regions, y.regions);
        assert_eq!(x.standing_vms, y.standing_vms);
    }
}
