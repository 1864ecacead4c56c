//! The paper-fact ledger: every claim of the paper's evaluation that
//! this repository checks, declared once (DESIGN.md §4 renders it).
//!
//! A row ([`Fact`]) names the claim, the paper's value, the insight it
//! supports, the statistic it reads, and a [`Rule`] whose thresholds are
//! data at three [`Strictness`]es. The `SHAPE-CHECK` lines ([`record`]),
//! the four insights ([`insights`]), the `compare` summary
//! ([`differential`]) and DESIGN.md §4 ([`render_markdown`]) are views.
//!
//! *Ordering* keeps only the direction of a comparison: ratios go to 1,
//! margins to 0, tolerances and slacks to ∞, floors to −∞; a row that
//! bounds a single statistic keeps its medium bound. *Medium* widens the
//! full-scale margins for the noisier `GeneratorConfig::medium` traces;
//! *full* is calibrated to the paper-scale default trace.

use crate::checks::{OversubSweep, OVERSUB_EPSILONS};
use crate::ShapeChecks;
use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::analysis::spatial::SpatialAnalysis;
use cloudscope::analysis::temporal::TemporalAnalysis;
use cloudscope::analysis::utilization::UtilizationDistribution;
use cloudscope::analysis::vmsize::VmSizeAnalysis;
use cloudscope::analysis::PatternShares;
use cloudscope::mgmt::rebalance::ShiftOutcome;
use cloudscope::prelude::*;
use cloudscope::stats::Ecdf;
use std::fmt::Write;

/// How hard a row is judged. Indexes every [`Level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// Direction only: the neutral thresholds.
    Ordering,
    /// Margins for the `GeneratorConfig::medium` test traces.
    Medium,
    /// Margins for the paper-scale default trace.
    Full,
}

impl Strictness {
    /// All three, in [`Level`] order.
    pub const ALL: [Self; 3] = [Self::Ordering, Self::Medium, Self::Full];
}

/// One threshold at ordering, medium and full strictness.
pub type Level = [f64; 3];

const INF: f64 = f64::INFINITY;
const NO_FLOOR: Level = [f64::NEG_INFINITY; 3];

/// How a row judges its statistic `v` (named `a`, `b`, … in order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// `a > floor` and `a > ratio · b + margin`.
    Exceeds {
        /// Multiple of `b` that `a` must beat.
        ratio: Level,
        /// Additive margin over `ratio · b`.
        margin: Level,
        /// Absolute floor on `a`.
        floor: Level,
    },
    /// Every value is above the bound.
    Above(Level),
    /// Every value is below the bound.
    Below(Level),
    /// `a` is at most the bound.
    AtMost(Level),
    /// `a < b`, each within `tolerance` of its paper value.
    Near {
        /// The paper's values of `a` and `b`.
        paper: [f64; 2],
        /// Allowed distance from each.
        tolerance: Level,
    },
    /// `a < b` on either side of `pivot`, each allowed `slack` across it.
    Straddles {
        /// The value `a` stays under and `b` over.
        pivot: f64,
        /// How far past the pivot each may fall.
        slack: Level,
    },
    /// `v = [median a, median b, q1 a, q3 b]`: `a`'s median above `b`'s
    /// and, where strict, `a`'s lower quartile above `b`'s upper one.
    Quartiles {
        /// Whether the quartiles must separate too.
        strict: [bool; 3],
    },
    /// In each half of `v`, the first value is at least every value.
    Leads,
    /// `v` never decreases by more than `slack`.
    Monotone {
        /// Tolerated step down.
        slack: f64,
    },
    /// `a > floor` and `b > growth · a`.
    Spans {
        /// Absolute floor on `a`.
        floor: Level,
        /// Multiple of `a` that `b` must beat.
        growth: Level,
    },
}

/// `a > b`: the rule of a row that is an ordering at every strictness.
const ORDER: Rule = Rule::Exceeds {
    ratio: [1.0; 3],
    margin: [0.0; 3],
    floor: NO_FLOOR,
};

impl Rule {
    /// Whether the statistic `v` satisfies the rule at `s`.
    #[must_use]
    pub fn holds(&self, v: &[f64], s: Strictness) -> bool {
        let i = s as usize;
        match *self {
            Self::Exceeds {
                ratio,
                margin,
                floor,
            } => v[0] > floor[i] && v[0] > ratio[i] * v[1] + margin[i],
            Self::Above(t) => v.iter().all(|&x| x > t[i]),
            Self::Below(t) => v.iter().all(|&x| x < t[i]),
            Self::AtMost(t) => v[0] <= t[i],
            Self::Near { paper, tolerance } => {
                (v[0] - paper[0]).abs() < tolerance[i]
                    && (v[1] - paper[1]).abs() < tolerance[i]
                    && v[0] < v[1]
            }
            Self::Straddles { pivot, slack } => {
                v[0] < v[1] && v[0] < pivot + slack[i] && v[1] > pivot - slack[i]
            }
            Self::Quartiles { strict } => v[0] > v[1] && (!strict[i] || v[2] > v[3]),
            Self::Leads => v
                .chunks(v.len() / 2)
                .all(|half| half.iter().all(|&x| half[0] >= x)),
            Self::Monotone { slack } => v.windows(2).all(|w| w[0] <= w[1] + slack),
            Self::Spans { floor, growth } => v[0] > floor[i] && v[1] > v[0] * growth[i],
        }
    }

    /// The rule at `s` as a formula over `a`, `b`.
    #[must_use]
    pub fn formula(&self, s: Strictness) -> String {
        let i = s as usize;
        match *self {
            Self::Exceeds {
                ratio,
                margin,
                floor,
            } => {
                let floor = (floor[i] > f64::NEG_INFINITY).then(|| format!("a > {} ∧ ", floor[i]));
                let ratio = (ratio[i] != 1.0).then(|| format!("{}·", ratio[i]));
                let margin = (margin[i] != 0.0).then(|| format!(" + {}", margin[i]));
                let [floor, ratio, margin] = [floor, ratio, margin].map(Option::unwrap_or_default);
                format!("{floor}a > {ratio}b{margin}")
            }
            Self::Above(t) => format!("all > {}", t[i]),
            Self::Below(t) => format!("all < {}", t[i]),
            Self::AtMost(t) => format!("a ≤ {}", t[i]),
            Self::Near {
                paper: [p, q],
                tolerance,
            } if tolerance[i] < INF => {
                format!("a = {p} ± {t} ∧ b = {q} ± {t} ∧ a < b", t = tolerance[i])
            }
            Self::Straddles { pivot, slack } if slack[i] < INF => {
                let (under, over) = (pivot + slack[i], pivot - slack[i]);
                format!("a < b ∧ a < {under} ∧ b > {over}")
            }
            Self::Near { .. } | Self::Straddles { .. } => "a < b".into(),
            Self::Quartiles { strict } if strict[i] => "median a > median b ∧ q1 a > q3 b".into(),
            Self::Quartiles { .. } => "median a > median b".into(),
            Self::Leads => "first ≥ all, per cloud".into(),
            Self::Monotone { slack } => format!("non-decreasing (slack {slack:e})"),
            Self::Spans { floor, growth } => format!("a > {} ∧ b > {}·a", floor[i], growth[i]),
        }
    }
}

/// What the rows read: borrowed analysis results, each present when
/// the caller has that figure's results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Evidence<'a> {
    /// Fig 1.
    pub deployment: Option<&'a DeploymentSizeAnalysis>,
    /// Fig 2.
    pub vm_size: Option<&'a VmSizeAnalysis>,
    /// Fig 3.
    pub temporal: Option<&'a TemporalAnalysis>,
    /// Fig 4.
    pub spatial: Option<&'a SpatialAnalysis>,
    /// Fig 5 (private, public).
    pub patterns: Option<(&'a PatternShares, &'a PatternShares)>,
    /// Fig 6 (private, public).
    pub utilization: Option<(&'a UtilizationDistribution, &'a UtilizationDistribution)>,
    /// Fig 7(a) (private, public).
    pub node: Option<&'a (Ecdf, Ecdf)>,
    /// Fig 7(b) (private, public).
    pub region: Option<&'a (Ecdf, Ecdf)>,
    /// Fig 7(c): the flagship service's mean pairwise profile correlation.
    pub alignment: Option<f64>,
    /// The pilot's shift outcome.
    pub pilot: Option<&'a ShiftOutcome>,
    /// The over-subscription sweep.
    pub oversub: Option<&'a OversubSweep>,
}

impl<'a> Evidence<'a> {
    /// The Fig 1–7(b) evidence a characterization report carries.
    #[must_use]
    pub fn of_report(report: &'a CharacterizationReport) -> Self {
        Self {
            deployment: Some(&report.deployment),
            vm_size: Some(&report.vm_size),
            temporal: Some(&report.temporal),
            spatial: Some(&report.spatial),
            patterns: Some((&report.private_patterns, &report.public_patterns)),
            utilization: Some((&report.private_utilization, &report.public_utilization)),
            node: Some(&report.node_correlation),
            region: Some(&report.region_correlation),
            ..Self::default()
        }
    }
}

/// A row's statistic: the values its [`Rule`] judges, and the
/// measurement as its check line prints it.
pub type Reading = (Vec<f64>, String);

/// One fact of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Fact {
    /// Stable id: the figure and panel, or the experiment.
    pub id: &'static str,
    /// The claim, as its `SHAPE-CHECK` line prints it.
    pub claim: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// The insight (1–4) the row supports.
    pub insight: Option<u8>,
    /// Listed in the private-vs-public differential summary.
    pub differential: bool,
    /// What `a`, `b`, … are.
    pub statistic: &'static str,
    /// How the statistic is judged.
    pub rule: Rule,
    /// Reads the statistic, or `None` without the figure's evidence.
    pub read: fn(&Evidence<'_>) -> Option<Reading>,
}

impl Fact {
    /// The row's verdict and detail at `s`, or `None` without the
    /// figure's evidence.
    #[must_use]
    pub fn judge(&self, evidence: &Evidence<'_>, s: Strictness) -> Option<(bool, String)> {
        let (values, detail) = (self.read)(evidence)?;
        Some((self.rule.holds(&values, s), detail))
    }
}

fn reading(values: Vec<f64>, detail: String) -> Option<Reading> {
    Some((values, detail))
}

/// Both clouds' share of `pattern` (private, public).
fn shares(e: &Evidence<'_>, pattern: UtilizationPattern) -> Option<(f64, f64)> {
    let (p, q) = e.patterns?;
    Some((p.fraction(pattern), q.fraction(pattern)))
}

/// A pilot rate before and after the shift, printed in percent.
fn before_after(before: f64, after: f64) -> Option<Reading> {
    let detail = format!("{:.1}% -> {:.1}%", 100.0 * before, 100.0 * after);
    reading(vec![before, after], detail)
}

/// Mean of `values[..120]` (weekday hours) and of `values[120..]`
/// (the 48 weekend hours).
fn weekday_weekend(values: &[f64]) -> (f64, f64) {
    let weekday: f64 = values[..120].iter().sum::<f64>() / 120.0;
    let weekend: f64 = values[120..].iter().sum::<f64>() / 48.0;
    (weekday, weekend)
}

/// The paper's four insights, as the paper states them.
pub const INSIGHTS: [&str; 4] = [
    "private deployments are larger; public clusters host more subscriptions and more \
     extreme VM sizes",
    "private VM creation is bursty; public VMs are shorter-lived",
    "diurnal load is more common in private; hourly peaks are mostly private, stable load \
     mostly public",
    "private VMs correlate more with their node and across regions",
];

/// Every fact the repository checks, in `SHAPE-CHECK` order. Laid out by
/// hand, one row per fact: `a`, `b`, … are the values `read` returns.
#[rustfmt::skip]
pub static LEDGER: [Fact; 26] = [
    Fact { id: "fig1a", insight: Some(1), differential: true,
        claim: "private deployments larger (Fig 1a)", paper: "private ≫ public",
        statistic: "median VMs per subscription (private, public)",
        rule: Rule::Exceeds { ratio: [1.0, 5.0, 5.0], margin: [0.0; 3], floor: NO_FLOOR },
        read: |e| { let d = e.deployment?;
            let p = d.private_vms_per_subscription.median();
            let q = d.public_vms_per_subscription.median();
            reading(vec![p, q], format!("median {p} vs {q}")) } },
    Fact { id: "fig1b", insight: Some(1), differential: true,
        claim: "public cluster hosts many times more subscriptions (paper ~20x)", paper: "≈ 20×",
        statistic: "median subscriptions per cluster, public / private",
        rule: Rule::Above([1.0, 4.0, 5.0]),
        read: |e| { let ratio = e.deployment?.subscriptions_per_cluster_ratio;
            reading(vec![ratio], format!("ratio {ratio:.1}x")) } },
    Fact { id: "fig2a", insight: None, differential: false,
        claim: "distributions largely similar (mass overlap)", paper: "similar grids",
        statistic: "overlap coefficient of the size heatmaps: Σ min(private, public) over cells",
        rule: Rule::Above([0.5; 3]),
        read: |e| { let v = e.vm_size?;
            let (x, y) = (v.private.x_axis().bins(), v.private.y_axis().bins());
            let cell = |(x, y)| v.private.fraction(x, y).min(v.public.fraction(x, y));
            let overlap = (0..x).flat_map(|x| (0..y).map(move |y| (x, y)))
                .fold(0.0, |sum, xy| sum + cell(xy));
            reading(vec![overlap], format!("overlap coefficient {overlap:.2}")) } },
    Fact { id: "fig2b", insight: Some(1), differential: true,
        claim: "public mass extends to tiny+huge corners (Fig 2b)",
        paper: "public mass at both corners", statistic: "VM-size corner mass (public, private)",
        rule: Rule::Exceeds { ratio: [1.0, 3.0, 3.0], margin: [0.0; 3], floor: NO_FLOOR },
        read: |e| { let v = e.vm_size?;
            let (p, q) = (v.private_corner_mass, v.public_corner_mass);
            reading(vec![q, p], format!("corner mass {q:.3} vs {p:.3}")) } },
    Fact { id: "fig3a", insight: Some(2), differential: true,
        claim: "shortest bin: paper 49% private vs 81% public", paper: "49 % vs 81 %",
        statistic: "shortest-lifetime-bin fraction (private, public)",
        rule: Rule::Near { paper: [0.49, 0.81], tolerance: [INF, 0.15, 0.15] },
        read: |e| { let t = e.temporal?;
            let (p, q) = (t.private_short_fraction, t.public_short_fraction);
            reading(vec![p, q], format!("measured {:.0}% vs {:.0}%", 100.0 * p, 100.0 * q)) } },
    Fact { id: "fig3d", insight: Some(2), differential: true,
        claim: "private creations bursty: higher CV (Fig 3d)",
        paper: "private higher in every region",
        statistic: "creation CV across regions (private, public)",
        rule: Rule::Quartiles { strict: [false, false, true] },
        read: |e| { let (p, q) = &e.temporal?.creation_cv;
            reading(vec![p.median, q.median, p.q1, q.q3],
                format!("median CV {:.2} vs {:.2}", p.median, q.median)) } },
    Fact { id: "fig3b", insight: None, differential: false,
        claim: "public VM counts dip on weekends (Fig 3b)", paper: "weekend dip",
        statistic: "public mean hourly VM count (weekday, weekend)", rule: ORDER,
        read: |e| { let (wk, we) = weekday_weekend(e.temporal?.vm_counts.1.values());
            reading(vec![wk, we], format!("weekend mean {we:.0} vs weekday mean {wk:.0}")) } },
    Fact { id: "fig4a", insight: None, differential: false,
        claim: ">50% of subscriptions single-region in both clouds (Fig 4a)",
        paper: "> 50 % in both",
        statistic: "single-region subscription share (private, public)",
        rule: Rule::Above([0.5; 3]),
        read: |e| { let s = e.spatial?;
            let (p, q) = (s.private_regions.eval(1.0), s.public_regions.eval(1.0));
            reading(vec![p, q], format!("single-region {:.0}% / {:.0}%", 100.0 * p, 100.0 * q)) } },
    Fact { id: "fig4b", insight: None, differential: false,
        claim: "private multi-region tail heavier (Fig 4a)", paper: "private tail heavier",
        statistic: "single-region subscription share (public, private)", rule: ORDER,
        read: |e| { let s = e.spatial?;
            reading(vec![s.public_regions.eval(1.0), s.private_regions.eval(1.0)],
                "private single-region share lower".into()) } },
    Fact { id: "fig4c", insight: None, differential: true,
        claim: "cores: private mostly multi-region, public mostly single (paper 40%/70%)",
        paper: "40 % vs 70 %", statistic: "single-region core share (private, public)",
        rule: Rule::Straddles { pivot: 0.5, slack: [INF, 0.0, 0.0] },
        read: |e| { let s = e.spatial?;
            let (p, q) = (s.private_single_region_core_share, s.public_single_region_core_share);
            reading(vec![p, q],
                format!("single-region core share {:.0}% vs {:.0}%", 100.0 * p, 100.0 * q)) } },
    Fact { id: "fig5a", insight: None, differential: false,
        claim: "diurnal most common in both clouds", paper: "diurnal most common",
        statistic: "diurnal, then every pattern share (private; public)", rule: Rule::Leads,
        read: |e| { let (p, q) = e.patterns?; let d = UtilizationPattern::Diurnal;
            let shares = |s: &PatternShares| [d].into_iter().chain(UtilizationPattern::ALL)
                .map(|pattern| s.fraction(pattern)).collect::<Vec<_>>();
            reading([shares(p), shares(q)].concat(),
                format!("diurnal {:.2} / {:.2}", p.fraction(d), q.fraction(d))) } },
    Fact { id: "fig5b", insight: Some(3), differential: true,
        claim: "private has roughly double the diurnal share", paper: "≈ 2×",
        statistic: "diurnal pattern share (private, public)",
        rule: Rule::Exceeds { ratio: [1.0, 1.3, 1.3], margin: [0.0; 3], floor: NO_FLOOR },
        read: |e| { let (p, q) = shares(e, UtilizationPattern::Diurnal)?;
            reading(vec![p, q], format!("ratio {:.2}", p / q)) } },
    Fact { id: "fig5c", insight: Some(3), differential: true,
        claim: "stable share higher in public", paper: "higher in public",
        statistic: "stable pattern share (public, private)", rule: ORDER,
        read: |e| { let (p, q) = shares(e, UtilizationPattern::Stable)?;
            reading(vec![q, p], format!("stable {p:.2} vs {q:.2}")) } },
    Fact { id: "fig5d", insight: Some(3), differential: true,
        claim: "hourly-peak mostly private", paper: "mostly private",
        statistic: "hourly-peak pattern share (private, public)",
        rule: Rule::Exceeds { ratio: [1.0, 1.5, 2.0], margin: [0.0; 3], floor: NO_FLOOR },
        read: |e| { let (p, q) = shares(e, UtilizationPattern::HourlyPeak)?;
            reading(vec![p, q], format!("hourly {p:.2} vs {q:.2}")) } },
    Fact { id: "fig6a", insight: None, differential: false,
        claim: "p75 utilization stays below ~30% in both clouds", paper: "p75 < 30 %",
        statistic: "peak of the weekly p75 band (private, public)",
        rule: Rule::Below([35.0, 35.0, 32.0]),
        read: |e| { let (p, q) = e.utilization?; let (p, q) = (p.p75_peak(), q.p75_peak());
            reading(vec![p, q], format!("p75 peaks {p:.1} / {q:.1}")) } },
    Fact { id: "fig6b", insight: None, differential: true,
        claim: "private daily profile follows working hours; public flatter",
        paper: "public flatter",
        statistic: "daily median-utilization variability (private, public)",
        rule: Rule::Exceeds { ratio: [1.0, 1.0, 1.5], margin: [0.0; 3], floor: NO_FLOOR },
        read: |e| { let (p, q) = e.utilization?;
            let (p, q) = (p.daily_median_variability(), q.daily_median_variability());
            reading(vec![p, q], format!("daily median std {p:.2} vs {q:.2}")) } },
    Fact { id: "fig6c", insight: None, differential: false,
        claim: "private utilization drops on weekends", paper: "weekend dip",
        statistic: "private mean weekly p50 band (weekday, weekend)", rule: ORDER,
        read: |e| { let median = e.utilization?.0.weekly.band(50.0).expect("p50 band exists");
            let (wk, we) = weekday_weekend(median);
            reading(vec![wk, we], format!("weekend median {we:.1} vs weekday {wk:.1}")) } },
    Fact { id: "fig7a", insight: Some(4), differential: true,
        claim: "node-level correlation higher in private (paper medians 0.55 vs 0.02)",
        paper: "medians 0.55 vs 0.02", statistic: "median VM-node correlation (private, public)",
        rule: Rule::Exceeds { ratio: [1.0; 3], margin: [0.0, 0.2, 0.2],
            floor: [f64::NEG_INFINITY, 0.3, 0.4] },
        read: |e| { let (p, q) = e.node?; let (p, q) = (p.median(), q.median());
            reading(vec![p, q], format!("medians {p:.2} vs {q:.2}")) } },
    Fact { id: "fig7b", insight: Some(4), differential: true,
        claim: "cross-region correlation higher in private (Fig 7b)", paper: "higher in private",
        statistic: "median cross-region correlation (private, public)",
        rule: Rule::Exceeds { ratio: [1.0; 3], margin: [0.0, 0.05, 0.3], floor: NO_FLOOR },
        read: |e| { let (p, q) = e.region?; let (p, q) = (p.median(), q.median());
            reading(vec![p, q], format!("medians {p:.2} vs {q:.2}")) } },
    Fact { id: "fig7c", insight: None, differential: false,
        claim: "ServiceX peaks align across time zones (Fig 7c)", paper: "peaks aligned",
        statistic: "flagship service's mean pairwise region-profile correlation",
        rule: Rule::Above([0.9; 3]),
        read: |e| { let alignment = e.alignment?;
            let detail = format!("mean pairwise profile correlation {alignment:.2}");
            reading(vec![alignment], detail) } },
    Fact { id: "pilot_under", insight: None, differential: false,
        claim: "source underutilized-core pct decreases (paper 23% -> 16%)", paper: "23 % → 16 %",
        statistic: "source underutilized-core share (before, after)", rule: ORDER,
        read: |e| { let o = e.pilot?;
            let (before, after) = (o.source_before, o.source_after);
            before_after(before.underutilized_pct(), after.underutilized_pct()) } },
    Fact { id: "pilot_rate", insight: None, differential: false,
        claim: "source core-utilization rate decreases (paper 42% -> 37%)", paper: "42 % → 37 %",
        statistic: "source core-utilization rate (before, after)", rule: ORDER,
        read: |e| { let o = e.pilot?;
            let (before, after) = (o.source_before, o.source_after);
            before_after(before.core_utilization_rate(), after.core_utilization_rate()) } },
    Fact { id: "pilot_destination", insight: None, differential: false,
        claim: "destination absorbs the shift with capacity to spare",
        paper: "destination changes minor",
        statistic: "destination core-utilization rate after the shift", rule: Rule::Below([0.9; 3]),
        read: |e| { let o = e.pilot?;
            let (before, after) = (o.destination_before.core_utilization_rate(),
                o.destination_after.core_utilization_rate());
            reading(vec![after],
                format!("destination rate {:.1}% -> {:.1}%", 100.0 * before, 100.0 * after)) } },
    Fact { id: "oversub_monotone", insight: None, differential: false,
        claim: "improvement grows with looser safety (monotone sweep)",
        paper: "grows with looser safety",
        statistic: "utilization improvement per epsilon, in grid order",
        rule: Rule::Monotone { slack: 1e-9 },
        read: |e| { let improvements = &e.oversub?.improvements;
            reading(improvements.clone(), format!("{improvements:.2?}")) } },
    Fact { id: "oversub_range", insight: None, differential: false,
        claim: "improvements span a wide range incl. >20% (paper 20%-86%)", paper: "20 %–86 %",
        statistic: "improvement at the strictest and loosest epsilon",
        rule: Rule::Spans { floor: [0.2; 3], growth: [1.2; 3] },
        read: |e| { let improvements = &e.oversub?.improvements;
            let (first, last) = (improvements[0], *improvements.last().expect("non-empty grid"));
            let strict = OVERSUB_EPSILONS[0];
            let loose = OVERSUB_EPSILONS[OVERSUB_EPSILONS.len() - 1];
            reading(vec![first, last], format!("{:.0}% at eps={strict} up to {:.0}% at eps={loose}",
                100.0 * first, 100.0 * last)) } },
    Fact { id: "oversub_violations", insight: None, differential: false,
        claim: "violations stay within budget", paper: "safety level honoured",
        statistic: "violation rate at epsilon 0.01 (grid index 2)", rule: Rule::AtMost([0.015; 3]),
        read: |e| { let rate = e.oversub?.plans[2].violation_rate;
            let detail = format!("violation rate {rate:.4} at eps={}", OVERSUB_EPSILONS[2]);
            reading(vec![rate], detail) } },
];

/// Records every row whose id starts with `ids` that `evidence` can
/// judge, at `s` and in ledger order: given one figure's results and
/// `""`, that figure's rows.
pub fn record(evidence: &Evidence<'_>, ids: &str, s: Strictness, checks: &mut ShapeChecks) {
    for fact in LEDGER.iter().filter(|f| f.id.starts_with(ids)) {
        if let Some((holds, detail)) = fact.judge(evidence, s) {
            checks.check(fact.claim, holds, detail);
        }
    }
}

/// The paper's four insights against `report`: each holds when every
/// row supporting it holds at [`Strictness::Ordering`]. Returns
/// `(holds, description)` per insight.
#[must_use]
pub fn insights(report: &CharacterizationReport) -> Vec<(bool, String)> {
    let evidence = Evidence::of_report(report);
    (1..)
        .zip(INSIGHTS)
        .map(|(n, statement)| {
            let mut holds = true;
            let mut details = Vec::new();
            for fact in LEDGER.iter().filter(|f| f.insight == Some(n)) {
                let (row_holds, detail) = fact
                    .judge(&evidence, Strictness::Ordering)
                    .expect("a report carries every insight's evidence");
                holds &= row_holds;
                details.push(format!("{} {detail}", fact.id));
            }
            (
                holds,
                format!("Insight {n}: {statement} ({})", details.join("; ")),
            )
        })
        .collect()
}

/// The private-vs-public differential summary: the differential rows
/// of `report` at [`Strictness::Ordering`].
#[must_use]
pub fn differential(report: &CharacterizationReport) -> ShapeChecks {
    let evidence = Evidence::of_report(report);
    let mut checks = ShapeChecks::new();
    for fact in LEDGER.iter().filter(|f| f.differential) {
        let (holds, detail) = fact
            .judge(&evidence, Strictness::Ordering)
            .expect("a report carries every differential row's evidence");
        let formula = fact.rule.formula(Strictness::Ordering);
        let label = format!("{} {}, {formula}", fact.id, fact.statistic);
        checks.check(&label, holds, detail);
    }
    checks
}

/// The ledger as the markdown table of DESIGN.md §4, followed by the
/// insights its rows support.
#[must_use]
pub fn render_markdown() -> String {
    let mut table = String::from(
        "| id | claim | paper | insight | statistic (a, b, …) | ordering | medium | full |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for f in &LEDGER {
        let [ordering, medium, full] = Strictness::ALL.map(|s| f.rule.formula(s));
        let insight = f.insight.map_or(String::new(), |n| format!("I{n}"));
        writeln!(
            table,
            "| {} | {} | {} | {insight} | {} | {ordering} | {medium} | {full} |",
            f.id, f.claim, f.paper, f.statistic
        )
        .expect("string write");
    }
    table.push('\n');
    for (n, statement) in (1..).zip(INSIGHTS) {
        writeln!(table, "- **I{n}**: {statement}.").expect("string write");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use Strictness::{Full, Medium, Ordering};

    fn fact(id: &str) -> &'static Fact {
        LEDGER.iter().find(|f| f.id == id).expect("a ledger row")
    }

    /// At `s`, `inside` satisfies row `id` and each of `outside` misses.
    fn edge(id: &str, s: Strictness, inside: &[f64], outside: &[&[f64]]) {
        let rule = fact(id).rule;
        assert!(rule.holds(inside, s), "{id} at {s:?}: {inside:?} must hold");
        for v in outside {
            assert!(!rule.holds(v, s), "{id} at {s:?}: {v:?} must miss");
        }
    }

    #[test]
    fn fig1a_private_median_beats_a_multiple_of_public() {
        edge("fig1a", Ordering, &[2.001, 2.0], &[&[2.0, 2.0]]);
        edge("fig1a", Medium, &[10.001, 2.0], &[&[10.0, 2.0]]);
        edge("fig1a", Full, &[10.001, 2.0], &[&[10.0, 2.0]]);
    }

    #[test]
    fn fig1b_cluster_ratio_floor() {
        edge("fig1b", Ordering, &[1.001], &[&[1.0]]);
        edge("fig1b", Medium, &[4.001], &[&[4.0]]);
        edge("fig1b", Full, &[5.001], &[&[5.0]]);
    }

    #[test]
    fn fig2a_overlap_floor() {
        for s in Strictness::ALL {
            edge("fig2a", s, &[0.501], &[&[0.5]]);
        }
    }

    #[test]
    fn fig2b_public_corner_mass_beats_a_multiple_of_private() {
        edge("fig2b", Ordering, &[1.001, 1.0], &[&[1.0, 1.0]]);
        edge("fig2b", Medium, &[3.001, 1.0], &[&[3.0, 1.0]]);
        edge("fig2b", Full, &[3.001, 1.0], &[&[3.0, 1.0]]);
    }

    #[test]
    fn fig3a_shortest_bin_tolerance_around_the_paper_values() {
        let Rule::Near { paper: [p, q], .. } = fact("fig3a").rule else {
            panic!("fig3a is a tolerance row");
        };
        edge("fig3a", Ordering, &[0.9, 0.95], &[&[0.95, 0.9]]);
        for s in [Medium, Full] {
            edge(
                "fig3a",
                s,
                &[p - 0.149, q + 0.149],
                &[&[p - 0.151, q], &[p, q + 0.151]],
            );
        }
    }

    #[test]
    fn fig3d_quartiles_separate_only_at_full() {
        for s in [Ordering, Medium] {
            edge("fig3d", s, &[2.0, 1.0, 0.5, 1.5], &[&[1.0, 1.0, 0.5, 1.5]]);
        }
        edge(
            "fig3d",
            Full,
            &[2.0, 1.0, 1.6, 1.5],
            &[&[2.0, 1.0, 1.5, 1.5], &[1.0, 1.0, 1.6, 1.5]],
        );
    }

    #[test]
    fn fig4a_majority_single_region_in_both_clouds() {
        for s in Strictness::ALL {
            edge("fig4a", s, &[0.501, 0.9], &[&[0.5, 0.9], &[0.9, 0.5]]);
        }
    }

    #[test]
    fn fig4c_core_shares_straddle_one_half() {
        edge("fig4c", Ordering, &[0.8, 0.9], &[&[0.9, 0.8]]);
        for s in [Medium, Full] {
            edge(
                "fig4c",
                s,
                &[0.499, 0.501],
                &[&[0.5, 0.9], &[0.1, 0.5], &[0.8, 0.9]],
            );
        }
    }

    #[test]
    fn fig5b_diurnal_share_ratio() {
        edge("fig5b", Ordering, &[1.001, 1.0], &[&[1.0, 1.0]]);
        edge("fig5b", Medium, &[1.301, 1.0], &[&[1.3, 1.0]]);
        edge("fig5b", Full, &[1.301, 1.0], &[&[1.3, 1.0]]);
    }

    #[test]
    fn fig5d_hourly_peak_share_ratio() {
        edge("fig5d", Ordering, &[1.001, 1.0], &[&[1.0, 1.0]]);
        edge("fig5d", Medium, &[1.501, 1.0], &[&[1.5, 1.0]]);
        edge("fig5d", Full, &[2.001, 1.0], &[&[2.0, 1.0]]);
    }

    #[test]
    fn fig6a_p75_ceiling() {
        edge("fig6a", Ordering, &[34.9, 10.0], &[&[35.0, 10.0]]);
        edge(
            "fig6a",
            Medium,
            &[34.9, 10.0],
            &[&[35.0, 10.0], &[10.0, 35.0]],
        );
        edge("fig6a", Full, &[31.9, 10.0], &[&[32.0, 10.0]]);
    }

    #[test]
    fn fig6b_daily_variability_ratio() {
        edge("fig6b", Ordering, &[1.001, 1.0], &[&[1.0, 1.0]]);
        edge("fig6b", Medium, &[1.001, 1.0], &[&[1.0, 1.0]]);
        edge("fig6b", Full, &[1.501, 1.0], &[&[1.5, 1.0]]);
    }

    #[test]
    fn fig7a_node_correlation_floor_and_margin() {
        edge("fig7a", Ordering, &[-0.5, -0.6], &[&[-0.6, -0.6]]);
        edge("fig7a", Medium, &[0.301, 0.1], &[&[0.3, 0.0], &[0.5, 0.31]]);
        edge("fig7a", Full, &[0.401, 0.2], &[&[0.4, 0.0], &[0.5, 0.31]]);
    }

    #[test]
    fn fig7b_region_correlation_margin() {
        edge("fig7b", Ordering, &[0.001, 0.0], &[&[0.0, 0.0]]);
        edge("fig7b", Medium, &[0.051, 0.0], &[&[0.05, 0.0]]);
        edge("fig7b", Full, &[0.301, 0.0], &[&[0.3, 0.0]]);
    }

    #[test]
    fn fig7c_alignment_floor() {
        for s in Strictness::ALL {
            edge("fig7c", s, &[0.901], &[&[0.9]]);
        }
    }

    #[test]
    fn pilot_destination_keeps_capacity_to_spare() {
        for s in Strictness::ALL {
            edge("pilot_destination", s, &[0.899], &[&[0.9]]);
        }
    }

    #[test]
    fn oversub_monotone_slack() {
        for s in Strictness::ALL {
            edge(
                "oversub_monotone",
                s,
                &[0.5, 0.5 - 0.5e-9, 0.6],
                &[&[0.5, 0.5 - 2e-9, 0.6]],
            );
        }
    }

    #[test]
    fn oversub_range_floor_and_growth() {
        for s in Strictness::ALL {
            edge(
                "oversub_range",
                s,
                &[0.201, 0.25],
                &[&[0.2, 0.5], &[0.5, 0.6]],
            );
        }
    }

    #[test]
    fn oversub_violation_budget_is_inclusive() {
        for s in Strictness::ALL {
            edge("oversub_violations", s, &[0.015], &[&[0.0151]]);
        }
    }

    #[test]
    fn ids_are_unique_and_rows_read_only_their_evidence() {
        for (i, f) in LEDGER.iter().enumerate() {
            assert!(LEDGER[..i].iter().all(|g| g.id != f.id), "{} twice", f.id);
            assert!((f.read)(&Evidence::default()).is_none(), "{}", f.id);
        }
    }

    /// The differential summary is the twelve private-vs-public
    /// comparisons, and at ordering strictness each insight or
    /// differential row is a bare ordering: no margin, ratio or bound.
    #[test]
    fn ordering_view_is_the_bare_comparisons() {
        let differential: Vec<&str> = LEDGER
            .iter()
            .filter(|f| f.differential)
            .map(|f| f.id)
            .collect();
        assert_eq!(
            differential,
            [
                "fig1a", "fig1b", "fig2b", "fig3a", "fig3d", "fig4c", "fig5b", "fig5c", "fig5d",
                "fig6b", "fig7a", "fig7b"
            ]
        );
        for f in LEDGER
            .iter()
            .filter(|f| f.differential || f.insight.is_some())
        {
            let formula = f.rule.formula(Ordering);
            assert!(
                ["a > b", "a < b", "all > 1", "median a > median b"].contains(&formula.as_str()),
                "{}: {formula}",
                f.id
            );
        }
        for n in 1..=4 {
            assert!(LEDGER.iter().filter(|f| f.insight == Some(n)).count() >= 2);
        }
    }

    #[test]
    fn design_md_section_4_is_the_rendered_ledger() {
        let design = include_str!("../../../DESIGN.md");
        let table = render_markdown();
        assert!(
            design.contains(&table),
            "DESIGN.md §4 must hold the rendered ledger verbatim:\n{table}"
        );
    }
}
