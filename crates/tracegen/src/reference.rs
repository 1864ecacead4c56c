//! Test-only oracle for the cluster-group drive: one whole-trace serial
//! drive.
//!
//! [`generate_serial_reference`] places every spec, in global spec
//! order, on two whole-cloud fleets ([`Fleet::new`]) under a single
//! [`Simulation`] — no partition, no per-group fleets, no merge, and a
//! one-worker telemetry sweep. It shares [`prepare`] and the emission
//! pass ([`Placed::collect`]) with [`crate::generate_with`] but no line
//! of `drive_task`, `partition_specs` or `merge_outcomes`, so a
//! record-for-record match between the two is evidence about the
//! partitioned drive rather than a tautology.

use crate::config::GeneratorConfig;
use crate::generate::{
    fleet_index, make_record, prepare, spreading_rule, Event, GeneratedTrace, Placed, SpecKind,
    UNPLACED_CLUSTER,
};
use cloudscope_cluster::{Fleet, PlacementPolicy, PlacementRequest};
use cloudscope_model::prelude::*;
use cloudscope_par::Parallelism;
use cloudscope_sim::engine::Simulation;
use cloudscope_sim::rng::RngFactory;

/// Generates a trace with one global serial placement drive.
fn generate_serial_reference(config: &GeneratorConfig) -> GeneratedTrace {
    config.validate().expect("valid config");
    let factory = RngFactory::new(config.seed);
    let gen_span = cloudscope_obs::span("tracegen.generate");
    let mut prep = prepare(config, &factory, &gen_span);

    let mut fleets = CloudKind::BOTH.map(|cloud| {
        Fleet::new(
            &prep.topology,
            cloud,
            PlacementPolicy::BestFit,
            spreading_rule(),
        )
    });
    let mut records: Vec<VmRecord> = Vec::with_capacity(prep.specs.len());

    // Standing VMs place first (outside the DES), then churn replays
    // through the event queue so releases free capacity for later
    // creations.
    let mut sim: Simulation<Event> = Simulation::new();
    for (spec, &size) in prep.specs.iter().zip(&prep.sizes) {
        let plan = &prep.plans[spec.subscription];
        let request = PlacementRequest {
            vm: VmId::new(records.len() as u64),
            size,
            service: ServiceId::new(prep.service_base[spec.subscription] + spec.group as u32),
            priority: spec.priority,
        };
        match spec.kind {
            SpecKind::Standing => {
                match fleets[fleet_index(plan.cloud)].place_in_region(spec.region, request) {
                    Ok((cluster, node)) => {
                        if let Some(end) = spec.ended {
                            sim.schedule(end, Event::Release(request.vm));
                        }
                        records.push(make_record(request, spec, plan, cluster, Some(node)));
                    }
                    Err(_) => prep.report.dropped_vms += 1,
                }
            }
            SpecKind::Churn | SpecKind::Burst => {
                records.push(make_record(request, spec, plan, UNPLACED_CLUSTER, None));
                sim.schedule(spec.created, Event::Create(records.len() - 1));
            }
        }
    }

    let week_end = SimTime::WEEK_END;
    let cloud_of = |record: &VmRecord| prep.plans[record.subscription.as_usize()].cloud;
    sim.run(week_end, |scheduler, time, event| match event {
        Event::Create(record_idx) => {
            let record = &mut records[record_idx];
            let request = PlacementRequest {
                vm: record.id,
                size: record.size,
                service: record.service,
                priority: record.priority,
            };
            match fleets[fleet_index(cloud_of(record))].place_in_region(record.region, request) {
                Ok((cluster, node)) => {
                    record.cluster = cluster;
                    record.node = Some(node);
                    if let Some(end) = record.ended {
                        if end < week_end {
                            scheduler.schedule(end.max(time), Event::Release(record.id));
                        }
                    }
                }
                Err(_) => record.node = None,
            }
        }
        Event::Release(vm) => {
            let cloud = cloud_of(&records[vm.as_usize()]);
            let _ = fleets[fleet_index(cloud)].release(vm);
        }
    });

    prep.report.private_alloc = fleets[0].stats();
    prep.report.public_alloc = fleets[1].stats();

    Placed {
        factory,
        telemetry: config.telemetry,
        prep,
        records,
    }
    .collect(&gen_span, Parallelism::with_workers(1))
}

mod tests {
    use super::*;
    use crate::generate::generate_with;
    use cloudscope_obs::{scoped, Registry};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Full-output equality: stats, report, service directory, every
    /// record, every telemetry series.
    fn assert_identical(a: &GeneratedTrace, b: &GeneratedTrace, label: &str) {
        assert_eq!(a.report, b.report, "{label}: report");
        assert_eq!(a.trace.stats(), b.trace.stats(), "{label}: stats");
        assert_eq!(a.services, b.services, "{label}: services");
        assert_eq!(a.trace.vms(), b.trace.vms(), "{label}: records");
        for vm in a.trace.vms() {
            assert_eq!(
                a.trace.util(vm.id),
                b.trace.util(vm.id),
                "{label}: telemetry of {}",
                vm.id
            );
        }
    }

    /// The oracle property the generator rests on: the partitioned
    /// cluster-group drive and the whole-trace serial drive emit the same
    /// trace, record for record and sample for sample.
    #[test]
    fn serial_reference_matches_parallel() {
        for seed in [7, 42] {
            let cfg = GeneratorConfig::small(seed);
            let reference = generate_serial_reference(&cfg);
            let registry = Arc::new(Registry::new());
            let (parallel, tasks_driven) = scoped(&registry, || {
                let parallel = generate_with(&cfg, Parallelism::with_workers(4));
                let snapshot = cloudscope_obs::snapshot();
                (parallel, snapshot.counter("tracegen.generate.tasks_driven"))
            });
            // Guards the comparison itself: a one-task drive would make
            // this serial-vs-serial.
            let tasks_driven = tasks_driven.expect("drive counts its tasks");
            assert!(
                tasks_driven > 1,
                "seed {seed}: drove {tasks_driven} task(s)"
            );
            assert_identical(&reference, &parallel, &format!("seed {seed}"));
        }
    }

    /// Small configurations biased toward placement contention — the
    /// ones where a partitioned drive could plausibly diverge from the
    /// global one:
    ///
    /// - **Multiple clusters per region per cloud**, so
    ///   `Fleet::place_in_region` exercises the coupled
    ///   least-allocated-first ordering and cross-cluster fallback that
    ///   make clusters within one (region, cloud) non-independent — the
    ///   reason the partition stops at cluster *groups* rather than
    ///   clusters.
    /// - **Capacity pressure** (small nodes, few racks, many standing
    ///   VMs), so placements fail, fall back across clusters, and drop.
    /// - **High spot fractions**, so priority-dependent placement paths
    ///   run.
    fn contended_config_strategy() -> impl Strategy<Value = GeneratorConfig> {
        (
            (
                any::<u64>(),
                2usize..4, // regions
                1usize..4, // private clusters per region (>1 exercises fallback)
                1usize..4, // public clusters per region
                1usize..3, // racks per cluster
            ),
            (
                3usize..8,       // nodes per rack (small: capacity pressure)
                4usize..12,      // private subscriptions
                20usize..60,     // public subscriptions
                0.0f64..0.9,     // public spot fraction
                prop::bool::ANY, // telemetry
            ),
        )
            .prop_map(
                |(
                    (seed, regions, private_clusters, public_clusters, racks),
                    (nodes, private_subs, public_subs, spot, telemetry),
                )| {
                    let mut cfg = GeneratorConfig::small(seed);
                    cfg.topology.regions.truncate(regions);
                    cfg.topology.private_clusters_per_region = private_clusters;
                    cfg.topology.public_clusters_per_region = public_clusters;
                    cfg.topology.racks_per_cluster = racks;
                    cfg.topology.nodes_per_rack = nodes;
                    cfg.private.subscriptions = private_subs;
                    cfg.public.subscriptions = public_subs;
                    cfg.public.spot_fraction = spot;
                    cfg.private.arrival.base_rate_per_hour = 1.0;
                    cfg.public.arrival.base_rate_per_hour = 3.0;
                    cfg.telemetry = telemetry;
                    cfg
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn cluster_group_drive_matches_serial_reference(config in contended_config_strategy()) {
            let reference = generate_serial_reference(&config);
            for workers in [1usize, 2, 4, 8] {
                let got = generate_with(&config, Parallelism::with_workers(workers));
                assert_identical(&reference, &got, &format!("{workers} workers"));
            }
        }
    }
}
