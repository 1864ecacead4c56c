//! The paper's shape checks as library functions.
//!
//! Every `SHAPE-CHECK` the `fig1` … `fig7`, `pilot`, and `oversub` rows
//! of [`FIGURES`](crate::figures::FIGURES) print lives here, so tests can
//! run the exact same criteria without spawning a binary — in particular
//! the robustness gate, which re-runs all of them over a fault-corrupted
//! trace. The criteria themselves are rows of the
//! [`ledger`](crate::ledger); each `*_checks` function judges its
//! figure's rows at the [`CheckProfile`]'s strictness.

use crate::ledger::{self, Evidence, Strictness};
use crate::ShapeChecks;
use cloudscope::analysis::correlation::service_region_alignment;
use cloudscope::analysis::coverage::filled_week_series;
use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::analysis::spatial::SpatialAnalysis;
use cloudscope::analysis::temporal::TemporalAnalysis;
use cloudscope::analysis::utilization::{UtilizationDistribution, MIN_VM_WEEK_COVERAGE};
use cloudscope::analysis::vmsize::VmSizeAnalysis;
use cloudscope::analysis::{AnalysisError, PatternShares};
use cloudscope::mgmt::rebalance::{
    region_capacity_stats, simulate_shift, underutilized_vms, ShiftOutcome,
};
use cloudscope::mgmt::{MgmtError, OversubMethod, OversubPlanner, VmDemand};
use cloudscope::prelude::*;
use cloudscope::stats::Ecdf;
use cloudscope::tracegen::ServiceInfo;
use std::collections::HashMap;

/// How one trace scale is judged: the ledger strictness and the size of
/// the over-subscription demand pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckProfile {
    /// The ledger thresholds the checks apply.
    pub strictness: Strictness,
    /// Oversub: cap on the demand-pool size.
    pub oversub_pool: usize,
}

impl CheckProfile {
    /// The default full-scale trace, judged at [`Strictness::Full`].
    #[must_use]
    pub fn full() -> Self {
        Self {
            strictness: Strictness::Full,
            oversub_pool: 400,
        }
    }

    /// `GeneratorConfig::medium` traces, judged at
    /// [`Strictness::Medium`].
    #[must_use]
    pub fn medium() -> Self {
        Self {
            strictness: Strictness::Medium,
            ..Self::full()
        }
    }
}

/// Fig 1 (2 checks): deployment sizes.
pub fn fig1_checks(a: &DeploymentSizeAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    let evidence = Evidence {
        deployment: Some(a),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Fig 2 (2 checks): VM size heatmaps.
pub fn fig2_checks(v: &VmSizeAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    let evidence = Evidence {
        vm_size: Some(v),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Fig 3 (3 checks): lifetimes, creation burstiness, weekend dip.
pub fn fig3_checks(t: &TemporalAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    let evidence = Evidence {
        temporal: Some(t),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Fig 4 (3 checks): spatial deployment.
pub fn fig4_checks(s: &SpatialAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    let evidence = Evidence {
        spatial: Some(s),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Fig 5 (4 checks): utilization-pattern shares.
pub fn fig5_checks(
    private: &PatternShares,
    public: &PatternShares,
    p: &CheckProfile,
    checks: &mut ShapeChecks,
) {
    let evidence = Evidence {
        patterns: Some((private, public)),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Fig 6 (3 checks): utilization percentile bands.
pub fn fig6_checks(
    private: &UtilizationDistribution,
    public: &UtilizationDistribution,
    p: &CheckProfile,
    checks: &mut ShapeChecks,
) {
    let evidence = Evidence {
        utilization: Some((private, public)),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Fig 7 (3 checks): correlation structure, plus the flagship-service
/// region alignment.
pub fn fig7_checks(
    node: &(Ecdf, Ecdf),
    region: &(Ecdf, Ecdf),
    alignment: f64,
    p: &CheckProfile,
    checks: &mut ShapeChecks,
) {
    let evidence = Evidence {
        node: Some(node),
        region: Some(region),
        alignment: Some(alignment),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// One pilot run: the selected service, the hot source and cold
/// destination regions, and the shift outcome.
#[derive(Debug, Clone)]
pub struct PilotRun {
    /// The shifted service.
    pub service: ServiceId,
    /// Overloaded source region.
    pub hot: RegionId,
    /// Underloaded destination region.
    pub cold: RegionId,
    /// Capacity stats before/after on both sides.
    pub outcome: ShiftOutcome,
}

/// Replays the Canada pilot: picks the private region-agnostic service
/// with the most cores on underutilized VMs in some region, shifts it
/// to the coldest other region at time `at`, and reports the outcome.
/// Returns `None` if the trace holds no shiftable underutilized
/// service.
///
/// # Errors
/// Propagates [`MgmtError`] from the shift simulation itself.
pub fn run_pilot(generated: &GeneratedTrace, at: SimTime) -> Result<Option<PilotRun>, MgmtError> {
    let trace = &generated.trace;
    let candidates: Vec<&ServiceInfo> = generated
        .services
        .iter()
        .filter(|s| {
            s.cloud == CloudKind::Private && s.profile.region_agnostic && s.regions.len() >= 2
        })
        .collect();
    // One ascending scan over the placed, alive VMs of every candidate
    // says which are underutilized; their cores add up per (service,
    // region).
    let mut placed: Vec<VmId> = candidates
        .iter()
        .flat_map(|svc| trace.vms_of_service(svc.service))
        .copied()
        .filter(|&vm_id| {
            let vm = trace.vm(vm_id).expect("indexed vm");
            vm.node.is_some() && vm.alive_at(at)
        })
        .collect();
    placed.sort_unstable();
    let mut under_cores: HashMap<(ServiceId, RegionId), u64> = HashMap::new();
    for vm_id in underutilized_vms(trace, &placed) {
        let vm = trace.vm(vm_id).expect("indexed vm");
        *under_cores.entry((vm.service, vm.region)).or_default() += u64::from(vm.size.cores());
    }
    let mut best: Option<(&ServiceInfo, RegionId, u64)> = None;
    for svc in candidates {
        for &region in &svc.regions {
            let under = under_cores
                .get(&(svc.service, region))
                .copied()
                .unwrap_or(0);
            if best.is_none_or(|(_, _, b)| under > b) {
                best = Some((svc, region, under));
            }
        }
    }
    let Some((flagship, hot, _)) = best else {
        return Ok(None);
    };
    let Some(cold) = generated
        .trace
        .topology()
        .regions()
        .iter()
        .filter(|r| r.id != hot)
        .filter_map(|r| {
            region_capacity_stats(&generated.trace, CloudKind::Private, r.id, at)
                .ok()
                .map(|s| (r.id, s.core_utilization_rate()))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite rates"))
        .map(|(id, _)| id)
    else {
        return Ok(None);
    };
    let outcome = simulate_shift(
        &generated.trace,
        CloudKind::Private,
        flagship.service,
        hot,
        cold,
        at,
    )?;
    Ok(Some(PilotRun {
        service: flagship.service,
        hot,
        cold,
        outcome,
    }))
}

/// Pilot (3 checks): the region-shift outcome.
pub fn pilot_checks(outcome: &ShiftOutcome, p: &CheckProfile, checks: &mut ShapeChecks) {
    let evidence = Evidence {
        pilot: Some(outcome),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// The epsilon grid the over-subscription sweep walks.
pub const OVERSUB_EPSILONS: [f64; 6] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2];

/// Builds the over-subscription demand pool: public-cloud VMs whose
/// telemetry covers (almost all of) the week, gaps repaired — so a
/// corrupted trace yields (nearly) the same pool a pristine one does.
#[must_use]
pub fn oversub_pool(trace: &Trace, cap: usize) -> Vec<VmDemand> {
    // The pool is the first `cap` eligible VMs in id order, so the
    // population is read a bounded ascending batch at a time and the
    // reading stops with the batch that fills the pool. Coverage is
    // gated before anything is filled.
    let public: Vec<VmId> = trace.vms_of(CloudKind::Public).map(|vm| vm.id).collect();
    let mut batches = trace.gather_batches(trace, &public, |&vm, ids| ids.push(vm));
    let mut pool = Vec::new();
    while pool.len() < cap {
        let Some((_, gathered)) = batches.next() else {
            break;
        };
        let eligible = gathered.iter().filter_map(|(vm, util)| {
            let (utilization, _) = filled_week_series(util, MIN_VM_WEEK_COVERAGE)?;
            Some(VmDemand {
                cores: trace.vms()[vm.as_usize()].size.cores(),
                utilization,
            })
        });
        pool.extend(eligible.take(cap - pool.len()));
    }
    pool
}

/// One over-subscription sweep over [`OVERSUB_EPSILONS`].
#[derive(Debug, Clone)]
pub struct OversubSweep {
    /// Demand-pool size.
    pub pool_vms: usize,
    /// Planner outputs per epsilon, in grid order.
    pub plans: Vec<cloudscope::mgmt::OversubPlan>,
    /// Utilization improvements per epsilon, in grid order.
    pub improvements: Vec<f64>,
}

/// Runs the empirical-quantile planner across the epsilon grid.
///
/// # Errors
/// Propagates [`MgmtError`] (e.g. an empty pool).
pub fn run_oversub_sweep(pool: &[VmDemand]) -> Result<OversubSweep, MgmtError> {
    let mut plans = Vec::with_capacity(OVERSUB_EPSILONS.len());
    let mut improvements = Vec::with_capacity(OVERSUB_EPSILONS.len());
    for eps in OVERSUB_EPSILONS {
        let plan = OversubPlanner::new(eps, OversubMethod::EmpiricalQuantile)?.plan(pool)?;
        improvements.push(plan.utilization_improvement);
        plans.push(plan);
    }
    Ok(OversubSweep {
        pool_vms: pool.len(),
        plans,
        improvements,
    })
}

/// Oversub (3 checks): the sweep's shape.
pub fn oversub_checks(sweep: &OversubSweep, p: &CheckProfile, checks: &mut ShapeChecks) {
    let evidence = Evidence {
        oversub: Some(sweep),
        ..Evidence::default()
    };
    ledger::record(&evidence, "", p.strictness, checks);
}

/// Everything the 26 shape checks read, measured once per trace: the
/// characterization report, the flagship alignment, and the pilot and
/// over-subscription experiments. Judging it at any strictness is cheap.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Figures 1–7(b).
    pub report: CharacterizationReport,
    /// Fig 7(c): 0 when the trace has no flagship service.
    pub alignment: f64,
    /// The pilot, when the trace holds a shiftable service.
    pub pilot: Option<PilotRun>,
    /// The over-subscription sweep.
    pub oversub: Result<OversubSweep, MgmtError>,
}

impl Measurements {
    /// Runs every figure's analysis plus the pilot and the
    /// over-subscription sweep over a pool of at most `pool_cap` VMs.
    ///
    /// # Errors
    /// Returns the first [`AnalysisError`] from the characterization
    /// pipeline; pilot or oversub failures surface as failed checks
    /// rather than errors, so a degraded trace still produces a full
    /// verdict list.
    pub fn of(generated: &GeneratedTrace, pool_cap: usize) -> Result<Self, AnalysisError> {
        let config = ReportConfig::default();
        let report = CharacterizationReport::analyze(&generated.trace, &config)?;
        let alignment = generated
            .flagship_service()
            .and_then(|svc| service_region_alignment(&generated.trace, svc.service).ok())
            .unwrap_or(0.0);
        let pilot = run_pilot(generated, config.snapshot).ok().flatten();
        let oversub = run_oversub_sweep(&oversub_pool(&generated.trace, pool_cap));
        Ok(Self {
            report,
            alignment,
            pilot,
            oversub,
        })
    }

    /// The evidence every ledger row reads.
    #[must_use]
    pub fn evidence(&self) -> Evidence<'_> {
        Evidence {
            alignment: Some(self.alignment),
            pilot: self.pilot.as_ref().map(|p| &p.outcome),
            oversub: self.oversub.as_ref().ok(),
            ..Evidence::of_report(&self.report)
        }
    }

    /// Records the checks of the ledger rows whose id starts with
    /// `name` at `profile`; a pilot or sweep that could not run is one
    /// missed check of the `pilot` or `oversub` rows.
    pub(crate) fn record(&self, name: &str, profile: &CheckProfile, checks: &mut ShapeChecks) {
        ledger::record(&self.evidence(), name, profile.strictness, checks);
        if name == "pilot" && self.pilot.is_none() {
            checks.check(
                "pilot: a shiftable underutilized service exists",
                false,
                "pilot could not run on this trace".into(),
            );
        }
        if let ("oversub", Err(e)) = (name, &self.oversub) {
            checks.check(
                "oversub: sweep runs on the demand pool",
                false,
                format!("sweep failed: {e}"),
            );
        }
    }

    /// All 26 shape checks at `profile` — the complete `SHAPE-CHECK`
    /// surface of `repro`.
    #[must_use]
    pub fn checks(&self, profile: &CheckProfile) -> ShapeChecks {
        let mut checks = ShapeChecks::new();
        for name in ["fig", "pilot", "oversub"] {
            self.record(name, profile, &mut checks);
        }
        checks
    }
}

/// Runs every figure's analysis plus the pilot and over-subscription
/// experiments and evaluates all 26 shape checks at `profile`, as one
/// call.
///
/// # Errors
/// As [`Measurements::of`].
pub fn all_figure_checks(
    generated: &GeneratedTrace,
    profile: &CheckProfile,
) -> Result<ShapeChecks, AnalysisError> {
    Ok(Measurements::of(generated, profile.oversub_pool)?.checks(profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_share_shapes_but_not_margins() {
        let full = CheckProfile::full();
        let medium = CheckProfile::medium();
        assert_eq!(full.strictness, Strictness::Full);
        assert_eq!(medium.strictness, Strictness::Medium);
        assert_eq!(full.oversub_pool, medium.oversub_pool);
    }

    #[test]
    fn epsilon_grid_has_the_strict_point_at_index_two() {
        assert_eq!(OVERSUB_EPSILONS[2], 0.01);
        assert!(OVERSUB_EPSILONS.windows(2).all(|w| w[0] < w[1]));
    }
}
