//! Regional workload rebalancing via region-agnostic workloads (the
//! Insight 4 implication), including a replay of the paper's Canada
//! pilot: shifting *ServiceX* from a hot region to a cold one reduced the
//! source region's underutilized-core percentage from 23% to 16% and its
//! core-utilization rate from 42% to 37%.

use crate::error::MgmtError;
use cloudscope_model::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// VMs with mean CPU below this (percent) count as *underutilized* —
/// allocated capacity the owner barely uses.
pub const UNDERUTILIZED_MEAN_UTIL_PCT: f32 = 10.0;

/// Capacity health of one region at a snapshot, in the pilot's two
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionCapacityStats {
    /// Physical cores across the region's clusters (of one cloud).
    pub total_cores: u64,
    /// Cores allocated to alive VMs.
    pub allocated_cores: u64,
    /// Allocated cores belonging to underutilized VMs.
    pub underutilized_cores: u64,
}

impl RegionCapacityStats {
    /// The pilot's "core utilization rate": allocated / total.
    #[must_use]
    pub fn core_utilization_rate(&self) -> f64 {
        if self.total_cores == 0 {
            0.0
        } else {
            self.allocated_cores as f64 / self.total_cores as f64
        }
    }

    /// The pilot's "underutilized core percentage": underutilized /
    /// total.
    #[must_use]
    pub fn underutilized_pct(&self) -> f64 {
        if self.total_cores == 0 {
            0.0
        } else {
            self.underutilized_cores as f64 / self.total_cores as f64
        }
    }
}

/// The VMs among `ids` (strictly ascending) whose mean CPU over their
/// telemetry is below [`UNDERUTILIZED_MEAN_UTIL_PCT`], found in one
/// ascending scan. VMs without telemetry are never underutilized.
#[must_use]
pub fn underutilized_vms(trace: &Trace, ids: &[VmId]) -> Vec<VmId> {
    let mut under = Vec::new();
    trace.scan(ids, &mut |vm, util| {
        if util.mean() < UNDERUTILIZED_MEAN_UTIL_PCT {
            under.push(vm);
        }
    });
    under
}

/// Cores allocated to `vms`.
fn cores_of(trace: &Trace, vms: &[VmId]) -> u64 {
    vms.iter()
        .map(|&vm| u64::from(trace.vms()[vm.as_usize()].size.cores()))
        .sum()
}

/// Whether `vm` holds capacity of `cloud` in `region` at `at`: placed
/// there, alive, and not of the other cloud's subscription. This is the
/// one rule for which VMs a region's stats count and a shift moves.
fn counts_for(trace: &Trace, cloud: CloudKind, region: RegionId, at: SimTime, vm: VmId) -> bool {
    let vm = trace.vm(vm).expect("indexed vm");
    vm.region == region
        && vm.node.is_some()
        && vm.alive_at(at)
        && !trace
            .subscription(vm.subscription)
            .is_ok_and(|s| s.cloud != cloud)
}

/// Computes one region's capacity stats for `cloud` at time `at`.
///
/// # Errors
/// Returns [`MgmtError::UnknownRegion`] if the region has no clusters of
/// this cloud.
pub fn region_capacity_stats(
    trace: &Trace,
    cloud: CloudKind,
    region: RegionId,
    at: SimTime,
) -> Result<RegionCapacityStats, MgmtError> {
    let total_cores: u64 = trace
        .topology()
        .clusters_in_region(region)
        .filter(|c| c.cloud == cloud)
        .map(Cluster::total_cores)
        .sum();
    if total_cores == 0 {
        return Err(MgmtError::UnknownRegion(region));
    }
    let allocated: Vec<VmId> = trace
        .vms_in_region(region)
        .iter()
        .copied()
        .filter(|&vm| counts_for(trace, cloud, region, at, vm))
        .collect();
    Ok(RegionCapacityStats {
        total_cores,
        allocated_cores: cores_of(trace, &allocated),
        underutilized_cores: cores_of(trace, &underutilized_vms(trace, &allocated)),
    })
}

/// The outcome of simulating one regional shift.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShiftOutcome {
    /// VMs of the service moved.
    pub moved_vms: usize,
    /// Cores moved.
    pub moved_cores: u64,
    /// Source region before the shift.
    pub source_before: RegionCapacityStats,
    /// Source region after the shift.
    pub source_after: RegionCapacityStats,
    /// Destination region before the shift.
    pub destination_before: RegionCapacityStats,
    /// Destination region after the shift.
    pub destination_after: RegionCapacityStats,
}

/// Simulates shifting every alive VM of `service` from region `from` to
/// region `to` at time `at` (the Canada pilot replay).
///
/// # Errors
/// - [`MgmtError::UnknownRegion`] if either region lacks clusters.
/// - [`MgmtError::NothingToShift`] if the service has no alive VMs of
///   `cloud` in `from`.
/// - [`MgmtError::InsufficientCapacity`] if `to` cannot absorb the moved
///   cores.
pub fn simulate_shift(
    trace: &Trace,
    cloud: CloudKind,
    service: ServiceId,
    from: RegionId,
    to: RegionId,
    at: SimTime,
) -> Result<ShiftOutcome, MgmtError> {
    let source_before = region_capacity_stats(trace, cloud, from, at)?;
    let destination_before = region_capacity_stats(trace, cloud, to, at)?;

    let moved: Vec<VmId> = trace
        .vms_of_service(service)
        .iter()
        .copied()
        .filter(|&vm| counts_for(trace, cloud, from, at, vm))
        .collect();
    let moved_vms = moved.len();
    let moved_cores = cores_of(trace, &moved);
    let moved_underutilized = cores_of(trace, &underutilized_vms(trace, &moved));
    if moved_vms == 0 {
        return Err(MgmtError::NothingToShift(service, from));
    }
    if destination_before.allocated_cores + moved_cores > destination_before.total_cores {
        return Err(MgmtError::InsufficientCapacity(to));
    }

    let source_after = RegionCapacityStats {
        total_cores: source_before.total_cores,
        allocated_cores: source_before.allocated_cores - moved_cores,
        underutilized_cores: source_before.underutilized_cores - moved_underutilized,
    };
    let destination_after = RegionCapacityStats {
        total_cores: destination_before.total_cores,
        allocated_cores: destination_before.allocated_cores + moved_cores,
        underutilized_cores: destination_before.underutilized_cores + moved_underutilized,
    };
    Ok(ShiftOutcome {
        moved_vms,
        moved_cores,
        source_before,
        source_after,
        destination_before,
        destination_after,
    })
}

/// A recommended regional shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftRecommendation {
    /// Service to move.
    pub service: ServiceId,
    /// Hot source region.
    pub from: RegionId,
    /// Cold destination region.
    pub to: RegionId,
    /// Cores that would move.
    pub cores: u64,
}

/// Recommends shifting the largest shiftable services from the hottest
/// region (by core-utilization rate) to the coldest, until the projected
/// gap closes below `target_gap` or candidates run out.
///
/// `shiftable_services` are services already vetted as region-agnostic
/// (e.g. via the knowledge base plus compliance checks).
///
/// # Errors
/// Returns [`MgmtError::UnknownRegion`] if the cloud has no regions with
/// clusters.
pub fn recommend_shifts(
    trace: &Trace,
    cloud: CloudKind,
    shiftable_services: &[ServiceId],
    at: SimTime,
    target_gap: f64,
) -> Result<Vec<ShiftRecommendation>, MgmtError> {
    // Rank regions by utilization rate.
    let mut stats: Vec<(RegionId, RegionCapacityStats)> = Vec::new();
    for region in trace.topology().regions() {
        if let Ok(s) = region_capacity_stats(trace, cloud, region.id, at) {
            stats.push((region.id, s));
        }
    }
    if stats.len() < 2 {
        return Err(MgmtError::UnknownRegion(RegionId::new(u32::MAX)));
    }
    stats.sort_by(|a, b| {
        b.1.core_utilization_rate()
            .partial_cmp(&a.1.core_utilization_rate())
            .expect("finite rates")
    });
    let (hot, mut hot_stats) = stats[0];
    let (cold, mut cold_stats) = *stats.last().expect("len >= 2");

    // Cores of each shiftable service alive in the hot region.
    let mut service_cores: HashMap<ServiceId, u64> = HashMap::new();
    for &service in shiftable_services {
        for &vm in trace.vms_of_service(service) {
            if counts_for(trace, cloud, hot, at, vm) {
                *service_cores.entry(service).or_insert(0) += cores_of(trace, &[vm]);
            }
        }
    }
    let mut candidates: Vec<(ServiceId, u64)> = service_cores.into_iter().collect();
    candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut recommendations = Vec::new();
    for (service, cores) in candidates {
        if hot_stats.core_utilization_rate() - cold_stats.core_utilization_rate() <= target_gap {
            break;
        }
        if cold_stats.allocated_cores + cores > cold_stats.total_cores {
            continue;
        }
        hot_stats.allocated_cores -= cores;
        cold_stats.allocated_cores += cores;
        recommendations.push(ShiftRecommendation {
            service,
            from: hot,
            to: cold,
            cores,
        });
    }
    Ok(recommendations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_tracegen::{generate, GeneratedTrace, GeneratorConfig};

    fn generated() -> GeneratedTrace {
        generate(&GeneratorConfig::small(31))
    }

    #[test]
    fn capacity_stats_are_consistent() {
        let g = generated();
        let at = SimTime::from_hours(60);
        for region in g.trace.topology().regions() {
            for cloud in CloudKind::BOTH {
                let s = region_capacity_stats(&g.trace, cloud, region.id, at).unwrap();
                assert!(s.allocated_cores <= s.total_cores);
                assert!(s.underutilized_cores <= s.allocated_cores);
                assert!((0.0..=1.0).contains(&s.core_utilization_rate()));
                assert!(s.underutilized_pct() <= s.core_utilization_rate() + 1e-12);
            }
        }
    }

    #[test]
    fn unknown_region_errors() {
        let g = generated();
        assert!(matches!(
            region_capacity_stats(
                &g.trace,
                CloudKind::Private,
                RegionId::new(99),
                SimTime::ZERO
            ),
            Err(MgmtError::UnknownRegion(_))
        ));
    }

    #[test]
    fn shift_moves_cores_between_regions() {
        let g = generated();
        let at = SimTime::from_hours(60);
        // Find a multi-region private service with VMs in region 0.
        let service = g
            .services
            .iter()
            .filter(|s| s.cloud == CloudKind::Private)
            .find(|s| {
                g.trace.vms_of_service(s.service).iter().any(|&vm| {
                    let r = g.trace.vm(vm).unwrap();
                    r.region == RegionId::new(0) && r.alive_at(at) && r.node.is_some()
                })
            })
            .expect("private service in region 0");
        let outcome = simulate_shift(
            &g.trace,
            CloudKind::Private,
            service.service,
            RegionId::new(0),
            RegionId::new(1),
            at,
        )
        .unwrap();
        assert!(outcome.moved_vms > 0);
        assert_eq!(
            outcome.source_before.allocated_cores - outcome.moved_cores,
            outcome.source_after.allocated_cores
        );
        assert_eq!(
            outcome.destination_before.allocated_cores + outcome.moved_cores,
            outcome.destination_after.allocated_cores
        );
        // The source region gets healthier on both pilot metrics.
        assert!(
            outcome.source_after.core_utilization_rate()
                < outcome.source_before.core_utilization_rate()
        );
        assert!(
            outcome.source_after.underutilized_pct() <= outcome.source_before.underutilized_pct()
        );
    }

    #[test]
    fn shifting_nothing_errors() {
        let g = generated();
        assert!(matches!(
            simulate_shift(
                &g.trace,
                CloudKind::Private,
                ServiceId::new(u32::MAX - 1),
                RegionId::new(0),
                RegionId::new(1),
                SimTime::from_hours(60),
            ),
            Err(MgmtError::NothingToShift(..))
        ));
    }

    #[test]
    fn a_service_of_the_other_cloud_has_nothing_to_shift() {
        let g = generated();
        let at = SimTime::from_hours(60);
        let private_regions: Vec<RegionId> = g
            .trace
            .topology()
            .regions()
            .iter()
            .map(|r| r.id)
            .filter(|&r| region_capacity_stats(&g.trace, CloudKind::Private, r, at).is_ok())
            .collect();
        // A public service with a live VM in a region private clusters
        // share: the private region's stats never counted its cores.
        let (service, from) = g
            .services
            .iter()
            .filter(|s| s.cloud == CloudKind::Public)
            .find_map(|s| {
                g.trace.vms_of_service(s.service).iter().find_map(|&vm| {
                    let r = g.trace.vm(vm).unwrap();
                    (r.alive_at(at) && r.node.is_some() && private_regions.contains(&r.region))
                        .then_some((s.service, r.region))
                })
            })
            .expect("a public service in a region with private clusters");
        let to = *private_regions
            .iter()
            .find(|&&r| r != from)
            .expect("two private regions");
        assert!(matches!(
            simulate_shift(&g.trace, CloudKind::Private, service, from, to, at),
            Err(MgmtError::NothingToShift(s, r)) if s == service && r == from
        ));
    }

    #[test]
    fn recommendations_target_the_hot_region() {
        let g = generated();
        let at = SimTime::from_hours(60);
        let shiftable: Vec<ServiceId> = g
            .services
            .iter()
            .filter(|s| s.cloud == CloudKind::Private && s.profile.region_agnostic)
            .map(|s| s.service)
            .collect();
        let recs = recommend_shifts(&g.trace, CloudKind::Private, &shiftable, at, 0.0).unwrap();
        // All recommendations share the same hot source and cold sink.
        if let Some(first) = recs.first() {
            assert!(recs
                .iter()
                .all(|r| r.from == first.from && r.to == first.to));
            let hot = region_capacity_stats(&g.trace, CloudKind::Private, first.from, at)
                .unwrap()
                .core_utilization_rate();
            let cold = region_capacity_stats(&g.trace, CloudKind::Private, first.to, at)
                .unwrap()
                .core_utilization_rate();
            assert!(hot >= cold);
        }
    }
}
