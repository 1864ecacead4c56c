//! The paper's shape checks as library functions.
//!
//! Every `SHAPE-CHECK` the `fig1` … `fig7`, `pilot`, and `oversub`
//! binaries print lives here, so tests can run the exact same criteria
//! without spawning a binary — in particular the robustness gate, which
//! re-runs all of them over a fault-corrupted trace. A [`CheckProfile`]
//! carries the thresholds: [`CheckProfile::full`] matches the paper
//! numbers on the default full-scale trace, [`CheckProfile::medium`]
//! relaxes the scale-sensitive ones for the `medium`-sized test traces.

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

/// Thresholds for one trace scale. The checks' *shapes* (which side is
/// bigger, what is monotone) never change between profiles — only how
/// much margin the smaller population is granted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckProfile {
    /// Profile name, for report headers.
    pub name: &'static str,
    /// Fig 1: private median VMs/subscription must exceed this multiple
    /// of the public median.
    pub fig1_median_ratio: f64,
    /// Fig 1: minimum public/private subscriptions-per-cluster ratio.
    pub fig1_cluster_ratio: f64,
    /// Fig 2: minimum size-distribution overlap coefficient.
    pub fig2_overlap_min: f64,
    /// Fig 2: public corner mass must exceed this multiple of private.
    pub fig2_corner_ratio: f64,
    /// Fig 3: tolerance around the paper's 49% / 81% shortest-bin
    /// fractions.
    pub fig3_short_tolerance: f64,
    /// Fig 3: whether the private-creation-CV check also requires
    /// quartile separation (q1 above the public q3), not just medians.
    pub fig3_cv_quartile_strict: bool,
    /// Fig 5: private diurnal share must exceed this multiple of public.
    pub fig5_diurnal_ratio: f64,
    /// Fig 5: private hourly-peak share must exceed this multiple of
    /// public.
    pub fig5_hourly_ratio: f64,
    /// Fig 6: ceiling on the p75 weekly band peak, both clouds.
    pub fig6_p75_max: f64,
    /// Fig 6: private daily-median variability must exceed this multiple
    /// of public.
    pub fig6_daily_var_ratio: f64,
    /// Fig 7: floor on the private node-correlation median.
    pub fig7_node_median_min: f64,
    /// Fig 7: private node-correlation median must beat public by this.
    pub fig7_node_margin: f64,
    /// Fig 7: private region-correlation median must beat public by this.
    pub fig7_region_margin: f64,
    /// Fig 7(c): floor on the flagship service's mean pairwise profile
    /// correlation.
    pub fig7_alignment_min: f64,
    /// Oversub: cap on the demand-pool size.
    pub oversub_pool: usize,
    /// Oversub: floor on the strictest-epsilon improvement.
    pub oversub_min_improvement: f64,
    /// Oversub: violation-rate budget at epsilon = 0.01.
    pub oversub_violation_budget: f64,
}

impl CheckProfile {
    /// Thresholds for the default full-scale trace — these are exactly
    /// the numbers the repro binaries have always enforced.
    #[must_use]
    pub fn full() -> Self {
        Self {
            name: "full",
            fig1_median_ratio: 5.0,
            fig1_cluster_ratio: 5.0,
            fig2_overlap_min: 0.5,
            fig2_corner_ratio: 3.0,
            fig3_short_tolerance: 0.15,
            fig3_cv_quartile_strict: true,
            fig5_diurnal_ratio: 1.3,
            fig5_hourly_ratio: 2.0,
            fig6_p75_max: 32.0,
            fig6_daily_var_ratio: 1.5,
            fig7_node_median_min: 0.4,
            fig7_node_margin: 0.2,
            fig7_region_margin: 0.3,
            fig7_alignment_min: 0.9,
            oversub_pool: 400,
            oversub_min_improvement: 0.2,
            oversub_violation_budget: 0.015,
        }
    }

    /// Thresholds for `GeneratorConfig::medium` traces: the same shapes
    /// with margins widened where the smaller population is noisier
    /// (cluster ratio, band peaks, correlation medians, CV quartiles).
    #[must_use]
    pub fn medium() -> Self {
        Self {
            name: "medium",
            fig1_cluster_ratio: 4.0,
            fig3_cv_quartile_strict: false,
            fig5_hourly_ratio: 1.5,
            fig6_p75_max: 35.0,
            fig6_daily_var_ratio: 1.0,
            fig7_node_median_min: 0.3,
            fig7_node_margin: 0.2,
            fig7_region_margin: 0.05,
            ..Self::full()
        }
    }
}

/// Fig 1 (2 checks): deployment sizes.
pub fn fig1_checks(a: &DeploymentSizeAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    checks.check(
        "private deployments larger (Fig 1a)",
        a.private_vms_per_subscription.median()
            > p.fig1_median_ratio * a.public_vms_per_subscription.median(),
        format!(
            "median {} vs {}",
            a.private_vms_per_subscription.median(),
            a.public_vms_per_subscription.median()
        ),
    );
    checks.check(
        "public cluster hosts many times more subscriptions (paper ~20x)",
        a.subscriptions_per_cluster_ratio > p.fig1_cluster_ratio,
        format!("ratio {:.1}x", a.subscriptions_per_cluster_ratio),
    );
}

/// Overlap coefficient between the two size heatmaps: sum of
/// `min(p, q)` over cells; 1 means identical distributions.
#[must_use]
pub fn size_distribution_overlap(v: &VmSizeAnalysis) -> f64 {
    let mut overlap = 0.0;
    for x in 0..v.private.x_axis().bins() {
        for y in 0..v.private.y_axis().bins() {
            overlap += v.private.fraction(x, y).min(v.public.fraction(x, y));
        }
    }
    overlap
}

/// Fig 2 (2 checks): VM size heatmaps.
pub fn fig2_checks(v: &VmSizeAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    let overlap = size_distribution_overlap(v);
    checks.check(
        "distributions largely similar (mass overlap)",
        overlap > p.fig2_overlap_min,
        format!("overlap coefficient {overlap:.2}"),
    );
    checks.check(
        "public mass extends to tiny+huge corners (Fig 2b)",
        v.public_corner_mass > p.fig2_corner_ratio * v.private_corner_mass,
        format!(
            "corner mass {:.3} vs {:.3}",
            v.public_corner_mass, v.private_corner_mass
        ),
    );
}

/// Fig 3 (3 checks): lifetimes, creation burstiness, weekend dip.
pub fn fig3_checks(t: &TemporalAnalysis, p: &CheckProfile, checks: &mut ShapeChecks) {
    checks.check(
        "shortest bin: paper 49% private vs 81% public",
        (t.private_short_fraction - 0.49).abs() < p.fig3_short_tolerance
            && (t.public_short_fraction - 0.81).abs() < p.fig3_short_tolerance
            && t.public_short_fraction > t.private_short_fraction,
        format!(
            "measured {:.0}% vs {:.0}%",
            100.0 * t.private_short_fraction,
            100.0 * t.public_short_fraction
        ),
    );
    let cv_holds = t.creation_cv.0.median > t.creation_cv.1.median
        && (!p.fig3_cv_quartile_strict || t.creation_cv.0.q1 > t.creation_cv.1.q3);
    checks.check(
        "private creations bursty: higher CV (Fig 3d)",
        cv_holds,
        format!(
            "median CV {:.2} vs {:.2}",
            t.creation_cv.0.median, t.creation_cv.1.median
        ),
    );
    let wk: f64 = t.vm_counts.1.values()[..120].iter().sum::<f64>() / 120.0;
    let we: f64 = t.vm_counts.1.values()[120..].iter().sum::<f64>() / 48.0;
    checks.check(
        "public VM counts dip on weekends (Fig 3b)",
        we < wk,
        format!("weekend mean {we:.0} vs weekday mean {wk:.0}"),
    );
}

/// Fig 4 (3 checks): spatial deployment.
pub fn fig4_checks(s: &SpatialAnalysis, _p: &CheckProfile, checks: &mut ShapeChecks) {
    checks.check(
        ">50% of subscriptions single-region in both clouds (Fig 4a)",
        s.private_regions.eval(1.0) > 0.5 && s.public_regions.eval(1.0) > 0.5,
        format!(
            "single-region {:.0}% / {:.0}%",
            100.0 * s.private_regions.eval(1.0),
            100.0 * s.public_regions.eval(1.0)
        ),
    );
    checks.check(
        "private multi-region tail heavier (Fig 4a)",
        s.private_regions.eval(1.0) < s.public_regions.eval(1.0),
        "private single-region share lower".into(),
    );
    checks.check(
        "cores: private mostly multi-region, public mostly single (paper 40%/70%)",
        s.private_single_region_core_share < 0.5 && s.public_single_region_core_share > 0.5,
        format!(
            "single-region core share {:.0}% vs {:.0}%",
            100.0 * s.private_single_region_core_share,
            100.0 * s.public_single_region_core_share
        ),
    );
}

/// Fig 5 (4 checks): utilization-pattern shares.
pub fn fig5_checks(
    private: &PatternShares,
    public: &PatternShares,
    p: &CheckProfile,
    checks: &mut ShapeChecks,
) {
    let d = UtilizationPattern::Diurnal;
    checks.check(
        "diurnal most common in both clouds",
        UtilizationPattern::ALL
            .iter()
            .all(|&q| private.fraction(d) >= private.fraction(q))
            && UtilizationPattern::ALL
                .iter()
                .all(|&q| public.fraction(d) >= public.fraction(q)),
        format!(
            "diurnal {:.2} / {:.2}",
            private.fraction(d),
            public.fraction(d)
        ),
    );
    checks.check(
        "private has roughly double the diurnal share",
        private.fraction(d) > p.fig5_diurnal_ratio * public.fraction(d),
        format!("ratio {:.2}", private.fraction(d) / public.fraction(d)),
    );
    checks.check(
        "stable share higher in public",
        public.fraction(UtilizationPattern::Stable) > private.fraction(UtilizationPattern::Stable),
        format!(
            "stable {:.2} vs {:.2}",
            private.fraction(UtilizationPattern::Stable),
            public.fraction(UtilizationPattern::Stable)
        ),
    );
    checks.check(
        "hourly-peak mostly private",
        private.fraction(UtilizationPattern::HourlyPeak)
            > p.fig5_hourly_ratio * public.fraction(UtilizationPattern::HourlyPeak),
        format!(
            "hourly {:.2} vs {:.2}",
            private.fraction(UtilizationPattern::HourlyPeak),
            public.fraction(UtilizationPattern::HourlyPeak)
        ),
    );
}

/// Fig 6 (3 checks): utilization percentile bands.
pub fn fig6_checks(
    private: &UtilizationDistribution,
    public: &UtilizationDistribution,
    p: &CheckProfile,
    checks: &mut ShapeChecks,
) {
    checks.check(
        "p75 utilization stays below ~30% in both clouds",
        private.p75_peak() < p.fig6_p75_max && public.p75_peak() < p.fig6_p75_max,
        format!(
            "p75 peaks {:.1} / {:.1}",
            private.p75_peak(),
            public.p75_peak()
        ),
    );
    checks.check(
        "private daily profile follows working hours; public flatter",
        private.daily_median_variability()
            > p.fig6_daily_var_ratio * public.daily_median_variability(),
        format!(
            "daily median std {:.2} vs {:.2}",
            private.daily_median_variability(),
            public.daily_median_variability()
        ),
    );
    let median = private.weekly.band(50.0).expect("p50 band exists");
    let weekday: f64 = median[..120].iter().sum::<f64>() / 120.0;
    let weekend: f64 = median[120..].iter().sum::<f64>() / 48.0;
    checks.check(
        "private utilization drops on weekends",
        weekend < weekday,
        format!("weekend median {weekend:.1} vs weekday {weekday:.1}"),
    );
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
    checks.check(
        "node-level correlation higher in private (paper medians 0.55 vs 0.02)",
        node.0.median() > p.fig7_node_median_min
            && node.0.median() > node.1.median() + p.fig7_node_margin,
        format!("medians {:.2} vs {:.2}", node.0.median(), node.1.median()),
    );
    checks.check(
        "cross-region correlation higher in private (Fig 7b)",
        region.0.median() > region.1.median() + p.fig7_region_margin,
        format!(
            "medians {:.2} vs {:.2}",
            region.0.median(),
            region.1.median()
        ),
    );
    checks.check(
        "ServiceX peaks align across time zones (Fig 7c)",
        alignment > p.fig7_alignment_min,
        format!("mean pairwise profile correlation {alignment:.2}"),
    );
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
pub fn pilot_checks(outcome: &ShiftOutcome, _p: &CheckProfile, checks: &mut ShapeChecks) {
    checks.check(
        "source underutilized-core pct decreases (paper 23% -> 16%)",
        outcome.source_after.underutilized_pct() < outcome.source_before.underutilized_pct(),
        format!(
            "{:.1}% -> {:.1}%",
            100.0 * outcome.source_before.underutilized_pct(),
            100.0 * outcome.source_after.underutilized_pct()
        ),
    );
    checks.check(
        "source core-utilization rate decreases (paper 42% -> 37%)",
        outcome.source_after.core_utilization_rate()
            < outcome.source_before.core_utilization_rate(),
        format!(
            "{:.1}% -> {:.1}%",
            100.0 * outcome.source_before.core_utilization_rate(),
            100.0 * outcome.source_after.core_utilization_rate()
        ),
    );
    checks.check(
        "destination absorbs the shift with capacity to spare",
        outcome.destination_after.core_utilization_rate() < 0.9,
        format!(
            "destination rate {:.1}% -> {:.1}%",
            100.0 * outcome.destination_before.core_utilization_rate(),
            100.0 * outcome.destination_after.core_utilization_rate()
        ),
    );
}

/// The epsilon grid the over-subscription sweep walks.
pub const OVERSUB_EPSILONS: [f64; 6] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2];

/// Builds the over-subscription demand pool: public-cloud VMs whose
/// telemetry covers (almost all of) the week, gaps repaired — so a
/// corrupted trace yields (nearly) the same pool a pristine one does.
#[must_use]
pub fn oversub_pool(trace: &Trace, cap: usize) -> Vec<VmDemand> {
    oversub_pool_from(trace, trace, cap)
}

/// [`oversub_pool`] with telemetry decoupled from VM metadata: `trace`
/// enumerates the public-cloud population, `source` serves the samples
/// (resident, out-of-core, or streamed).
#[must_use]
pub fn oversub_pool_from(
    trace: &Trace,
    source: &(impl TelemetrySource + ?Sized),
    cap: usize,
) -> Vec<VmDemand> {
    // The pool is the first `cap` eligible VMs in id order, so the
    // population is read a bounded ascending batch at a time and the
    // reading stops with the batch that fills the pool. Coverage is
    // gated before anything is filled.
    let public: Vec<VmId> = trace.vms_of(CloudKind::Public).map(|vm| vm.id).collect();
    let mut batches = trace.gather_batches(source, &public, |&vm, ids| ids.push(vm));
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
    let improvements = &sweep.improvements;
    checks.check(
        "improvement grows with looser safety (monotone sweep)",
        improvements.windows(2).all(|w| w[0] <= w[1] + 1e-9),
        format!("{improvements:.2?}"),
    );
    checks.check(
        "improvements span a wide range incl. >20% (paper 20%-86%)",
        improvements[0] > p.oversub_min_improvement
            && *improvements.last().expect("non-empty grid") > improvements[0] * 1.2,
        format!(
            "{:.0}% at eps={} up to {:.0}% at eps={}",
            100.0 * improvements[0],
            OVERSUB_EPSILONS[0],
            100.0 * improvements.last().expect("non-empty grid"),
            OVERSUB_EPSILONS[OVERSUB_EPSILONS.len() - 1],
        ),
    );
    // Epsilon 0.01 sits at index 2 of the grid.
    let strict = &sweep.plans[2];
    checks.check(
        "violations stay within budget",
        strict.violation_rate <= p.oversub_violation_budget,
        format!(
            "violation rate {:.4} at eps={}",
            strict.violation_rate, OVERSUB_EPSILONS[2]
        ),
    );
}

/// Runs every figure's analysis plus the pilot and over-subscription
/// experiments and evaluates all 26 shape checks — the complete
/// `SHAPE-CHECK` surface of the repro binaries, as one call.
///
/// # Errors
/// Returns the first [`AnalysisError`] from the characterization
/// pipeline; pilot or oversub failures surface as failed checks rather
/// than errors, so a degraded trace still produces a full verdict list.
pub fn all_figure_checks(
    generated: &GeneratedTrace,
    profile: &CheckProfile,
) -> Result<ShapeChecks, AnalysisError> {
    let config = ReportConfig::default();
    let report = CharacterizationReport::analyze(&generated.trace, &config)?;
    let mut checks = ShapeChecks::new();
    fig1_checks(&report.deployment, profile, &mut checks);
    fig2_checks(&report.vm_size, profile, &mut checks);
    fig3_checks(&report.temporal, profile, &mut checks);
    fig4_checks(&report.spatial, profile, &mut checks);
    fig5_checks(
        &report.private_patterns,
        &report.public_patterns,
        profile,
        &mut checks,
    );
    fig6_checks(
        &report.private_utilization,
        &report.public_utilization,
        profile,
        &mut checks,
    );
    let alignment = generated
        .flagship_service()
        .and_then(|svc| service_region_alignment(&generated.trace, svc.service).ok())
        .unwrap_or(0.0);
    fig7_checks(
        &report.node_correlation,
        &report.region_correlation,
        alignment,
        profile,
        &mut checks,
    );
    match run_pilot(generated, config.snapshot) {
        Ok(Some(pilot)) => pilot_checks(&pilot.outcome, profile, &mut checks),
        Ok(None) | Err(_) => checks.check(
            "pilot: a shiftable underutilized service exists",
            false,
            "pilot could not run on this trace".into(),
        ),
    }
    let pool = oversub_pool(&generated.trace, profile.oversub_pool);
    match run_oversub_sweep(&pool) {
        Ok(sweep) => oversub_checks(&sweep, profile, &mut checks),
        Err(e) => checks.check(
            "oversub: sweep runs on the demand pool",
            false,
            format!("sweep failed: {e}"),
        ),
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_share_shapes_but_not_margins() {
        let full = CheckProfile::full();
        let medium = CheckProfile::medium();
        assert!(full.fig1_cluster_ratio > medium.fig1_cluster_ratio);
        assert!(full.fig6_p75_max < medium.fig6_p75_max);
        assert_eq!(full.fig1_median_ratio, medium.fig1_median_ratio);
        assert_eq!(full.oversub_pool, medium.oversub_pool);
    }

    #[test]
    fn epsilon_grid_has_the_strict_point_at_index_two() {
        assert_eq!(OVERSUB_EPSILONS[2], 0.01);
        assert!(OVERSUB_EPSILONS.windows(2).all(|w| w[0] < w[1]));
    }
}
