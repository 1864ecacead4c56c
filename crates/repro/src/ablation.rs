//! Ablation studies for the design choices DESIGN.md §5 calls out:
//! placement policy, fault-domain spreading, geo-load-balancing, the
//! over-subscription rule, and the period-detection method. Each builds
//! its own scenario; none reads the run's trace.

use crate::figures::Run;
use crate::ShapeChecks;
use cloudscope::analysis::correlation::region_agnostic_candidates;
use cloudscope::cluster::{ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule};
use cloudscope::mgmt::oversub::{OversubMethod, OversubPlanner, VmDemand};
use cloudscope::prelude::*;
use cloudscope::timeseries::acf::{autocorrelation, refine_on_acf};
use cloudscope::timeseries::{PeriodDetector, Series};
use std::fmt::{self, Write};

/// Deterministic hash noise without pulling `rand` into the crate.
fn noise(i: u64, salt: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z ^ (z >> 27);
    (z % 10_000) as f64 / 5_000.0 - 1.0
}

fn build_allocator(policy: PlacementPolicy, spreading: SpreadingRule) -> ClusterAllocator {
    let mut b = Topology::builder();
    let r = b.add_region("abl", 0, "US");
    let d = b.add_datacenter(r);
    let c = b.add_cluster(d, CloudKind::Private, NodeSku::new(64, 640.0), 5, 20);
    let topo = b.build();
    ClusterAllocator::new(topo.cluster(c).unwrap(), policy, spreading)
}

/// Ablation 1: placement policy vs. fragmentation — fill half the
/// cluster with small VMs, then count how many whole-node (64-core)
/// requests still fit. Best-fit concentrates small VMs and preserves
/// empty nodes; worst-fit smears them across every node.
fn allocator_policy_ablation(out: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    writeln!(
        out,
        "## Ablation: placement policy vs whole-node requests after 50% small-VM fill"
    )?;
    writeln!(out, "policy,whole_node_placements")?;
    let mut results = Vec::new();
    for policy in [
        PlacementPolicy::FirstFit,
        PlacementPolicy::BestFit,
        PlacementPolicy::WorstFit,
    ] {
        let mut alloc = build_allocator(policy, SpreadingRule::default());
        // 100 nodes x 64 cores; 800 four-core VMs = 50% of capacity.
        for i in 0..800u64 {
            alloc
                .place(PlacementRequest {
                    vm: VmId::new(i),
                    size: VmSize::new(4, 32.0),
                    service: ServiceId::new((i % 40) as u32),
                    priority: Priority::OnDemand,
                })
                .expect("small VM fits at 50% fill");
        }
        let mut whole_nodes = 0u32;
        for i in 0..100u64 {
            if alloc
                .place(PlacementRequest {
                    vm: VmId::new(10_000 + i),
                    size: VmSize::new(64, 512.0),
                    service: ServiceId::new(999),
                    priority: Priority::OnDemand,
                })
                .is_ok()
            {
                whole_nodes += 1;
            }
        }
        writeln!(out, "{policy:?},{whole_nodes}")?;
        results.push((policy, whole_nodes));
    }
    writeln!(out)?;
    let best = results
        .iter()
        .find(|(p, _)| *p == PlacementPolicy::BestFit)
        .expect("ran");
    let worst = results
        .iter()
        .find(|(p, _)| *p == PlacementPolicy::WorstFit)
        .expect("ran");
    checks.check(
        "best-fit preserves whole nodes for large requests; worst-fit fragments",
        best.1 > worst.1,
        format!("{} vs {} whole-node placements", best.1, worst.1),
    );
    Ok(())
}

/// Ablation 2: spreading rule on/off for a same-service batch — the
/// Insight 1 fault-domain tension.
fn spreading_ablation(out: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    writeln!(
        out,
        "## Ablation: fault-domain spreading (one service, large batch)"
    )?;
    writeln!(out, "max_per_rack,placed,spreading_failures")?;
    let mut outcomes = Vec::new();
    for cap in [None, Some(40u32), Some(10)] {
        let mut alloc = build_allocator(
            PlacementPolicy::BestFit,
            SpreadingRule {
                max_same_service_per_rack: cap,
            },
        );
        for i in 0..400u64 {
            let _ = alloc.place(PlacementRequest {
                vm: VmId::new(i),
                size: VmSize::new(8, 64.0),
                service: ServiceId::new(0),
                priority: Priority::OnDemand,
            });
        }
        writeln!(
            out,
            "{},{},{}",
            cap.map_or("off".to_owned(), |c| c.to_string()),
            alloc.placed_count(),
            alloc.stats().spreading_failures
        )?;
        outcomes.push((cap, alloc.placed_count(), alloc.stats().spreading_failures));
    }
    writeln!(out)?;
    checks.check(
        "tighter spreading caps strictly reduce same-service placements",
        outcomes[0].1 >= outcomes[1].1 && outcomes[1].1 > outcomes[2].1,
        format!(
            "placed {} (off) vs {} (40/rack) vs {} (10/rack)",
            outcomes[0].1, outcomes[1].1, outcomes[2].1
        ),
    );
    Ok(())
}

/// Ablation 3: geo-LB on/off — the mechanism behind region-agnosticism.
fn geo_lb_ablation(out: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    writeln!(
        out,
        "## Ablation: geo-load-balancer fraction vs detected region-agnostic subscriptions"
    )?;
    writeln!(out, "geo_lb_fraction,detected")?;
    let mut detected = Vec::new();
    for fraction in [0.0, 0.7] {
        let mut config = GeneratorConfig::small(4242);
        // Regions far apart in time zones, so local-clock services
        // genuinely decorrelate and only geo-LB ones align.
        for (spec, tz) in config.topology.regions.iter_mut().zip([-5, -8, 9]) {
            spec.tz_offset_hours = tz;
        }
        config.private.geo_lb_fraction = fraction;
        let generated = generate(&config);
        let found =
            region_agnostic_candidates(&generated.trace, CloudKind::Private, "US", 0.8).len();
        writeln!(out, "{fraction},{found}")?;
        detected.push(found);
    }
    writeln!(out)?;
    checks.check(
        "geo-LB services are what the region-agnostic detector finds",
        detected[1] > detected[0],
        format!(
            "{} detected with geo-LB vs {} without",
            detected[1], detected[0]
        ),
    );
    Ok(())
}

/// Ablation 4: over-subscription rule comparison on one pool.
fn oversub_ablation(out: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    writeln!(out, "## Ablation: over-subscription rule (epsilon = 0.02)")?;
    writeln!(out, "method,reserved,violation_rate,improvement_pct")?;
    let pool: Vec<VmDemand> = (0..60)
        .map(|v| VmDemand {
            cores: 8,
            utilization: (0..2016)
                .map(|i| {
                    18.0 + 6.0
                        * (std::f64::consts::TAU * (i as f64 + v as f64 * 37.0) / 288.0).sin()
                        + 2.0 * noise(i as u64, v as u64)
                })
                .collect(),
        })
        .collect();
    let mut rows = Vec::new();
    for method in [
        OversubMethod::PeakReservation,
        OversubMethod::GaussianBound,
        OversubMethod::EmpiricalQuantile,
    ] {
        let plan = OversubPlanner::new(0.02, method)
            .expect("planner")
            .plan(&pool)
            .expect("plan");
        writeln!(
            out,
            "{method:?},{:.0},{:.4},{:.0}",
            plan.reserved_cores,
            plan.violation_rate,
            100.0 * plan.utilization_improvement
        )?;
        rows.push((method, plan));
    }
    writeln!(out)?;
    checks.check(
        "both chance-constrained rules beat peak reservation within budget",
        rows[1].1.utilization_improvement > 0.2
            && rows[2].1.utilization_improvement > 0.2
            && rows[0].1.utilization_improvement == 0.0
            && rows[2].1.violation_rate <= 0.025,
        format!(
            "gaussian +{:.0}%, empirical +{:.0}% (violations {:.3})",
            100.0 * rows[1].1.utilization_improvement,
            100.0 * rows[2].1.utilization_improvement,
            rows[2].1.violation_rate
        ),
    );
    Ok(())
}

/// Ablation 5: periodogram+ACF vs ACF-only period detection on labelled
/// synthetic diurnal signals across noise levels.
fn period_detection_ablation(out: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    writeln!(
        out,
        "## Ablation: period detection method (daily signal, rising noise)"
    )?;
    writeln!(out, "noise_amp,acf_only_hits,two_stage_hits,trials")?;
    let detector = PeriodDetector;
    let trials = 30;
    let mut two_stage_total = 0;
    let mut acf_only_total = 0;
    for noise_amp in [0.5, 2.0, 6.0] {
        let mut acf_hits = 0;
        let mut two_stage_hits = 0;
        for t in 0..trials {
            let values: Vec<f64> = (0..2016)
                .map(|i| {
                    10.0 + 8.0 * (std::f64::consts::TAU * i as f64 / 288.0).sin()
                        + noise_amp * noise(i as u64, t as u64)
                })
                .collect();
            let series = Series::new(0, 5, values);
            // Two-stage (ours).
            if detector.has_period_near(series.values(), series.step_minutes(), &[1440.0], 180.0) {
                two_stage_hits += 1;
            }
            // ACF-only baseline: strongest hill anywhere near the lag.
            if let Ok(acf) = autocorrelation(series.values(), 1008) {
                if let Some((lag, _)) = refine_on_acf(&acf, 288, 58, 0.3) {
                    if (lag as f64 * 5.0 - 1440.0).abs() <= 180.0 {
                        acf_hits += 1;
                    }
                }
            }
        }
        writeln!(out, "{noise_amp},{acf_hits},{two_stage_hits},{trials}")?;
        two_stage_total += two_stage_hits;
        acf_only_total += acf_hits;
    }
    writeln!(out)?;
    checks.check(
        "two-stage detection at least matches the ACF-only baseline",
        two_stage_total >= acf_only_total && two_stage_total > 2 * trials,
        format!(
            "{two_stage_total} vs {acf_only_total} hits over {} trials",
            3 * trials
        ),
    );
    Ok(())
}

/// Runs the five studies in order; the run's trace is not read.
pub(crate) fn studies(_: &Run<'_>, out: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    allocator_policy_ablation(out, checks)?;
    spreading_ablation(out, checks)?;
    geo_lb_ablation(out, checks)?;
    oversub_ablation(out, checks)?;
    period_detection_ablation(out, checks)
}
