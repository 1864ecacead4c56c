//! The paper's evaluation artifacts, declared once: [`FIGURES`] names
//! each one `repro` regenerates and its printer.
//!
//! Every row reads one [`Measurements`], taken once per run. A printer
//! writes the artifact's series as CSV into a `String`; the row's
//! `SHAPE-CHECK` block is then the [`ledger`](crate::ledger) rows whose
//! id starts with the row's name ([`Measurements::record`]).

use crate::checks::{CheckProfile, Measurements, OVERSUB_EPSILONS};
use crate::{ablation, ledger, print_csv, print_ecdf, ShapeChecks};
use cloudscope::analysis::correlation::service_region_daily_profiles;
use cloudscope::analysis::patterns::PatternClassifier;
use cloudscope::prelude::*;
use std::fmt::{self, Write};

/// What a row reads: the trace, its measurements, and the thresholds
/// its checks apply.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The analyzed trace.
    pub generated: &'a GeneratedTrace,
    /// Every figure's analysis plus the pilot and the sweep, of
    /// `generated`.
    pub measured: &'a Measurements,
    /// The check thresholds.
    pub profile: CheckProfile,
}

/// Writes an artifact's series into the buffer and records any checks
/// of its own (the ledger rows are recorded after it).
type Printer = fn(&Run<'_>, &mut String, &mut ShapeChecks) -> fmt::Result;

/// One evaluation artifact.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `repro` takes; also the id prefix of its ledger rows.
    pub name: &'static str,
    print: Printer,
}

impl Figure {
    /// Writes the artifact's series and its `SHAPE-CHECK` block into
    /// `out`, and returns the checks.
    pub fn render(&self, run: &Run<'_>, out: &mut String) -> ShapeChecks {
        let mut checks = ShapeChecks::new();
        (self.print)(run, out, &mut checks)
            .and_then(|()| {
                run.measured.record(self.name, &run.profile, &mut checks);
                checks.finish(self.name, out)
            })
            .expect("writing to a String cannot fail");
        checks
    }
}

/// Every artifact, in the order `repro all` prints them.
#[rustfmt::skip]
pub static FIGURES: [Figure; 11] = [
    Figure { name: "fig1", print: fig1 },
    Figure { name: "fig2", print: fig2 },
    Figure { name: "fig3", print: fig3 },
    Figure { name: "fig4", print: fig4 },
    Figure { name: "fig5", print: fig5 },
    Figure { name: "fig6", print: fig6 },
    Figure { name: "fig7", print: fig7 },
    Figure { name: "pilot", print: pilot },
    Figure { name: "oversub", print: oversub },
    Figure { name: "compare", print: compare },
    Figure { name: "ablation", print: ablation::studies },
];

/// Figure 1: deployment sizes — CDFs of VMs per subscription and
/// box-plots of subscriptions per cluster.
fn fig1(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let a = &run.measured.report.deployment;
    print_ecdf(
        out,
        "Fig 1(a) private: VMs per subscription",
        &a.private_vms_per_subscription,
    )?;
    print_ecdf(
        out,
        "Fig 1(a) public: VMs per subscription",
        &a.public_vms_per_subscription,
    )?;
    for (label, b) in [
        ("private", &a.private_subscriptions_per_cluster),
        ("public", &a.public_subscriptions_per_cluster),
    ] {
        writeln!(out, "## Fig 1(b) {label}: subscriptions per cluster")?;
        writeln!(
            out,
            "lower_whisker,q1,median,q3,upper_whisker,outliers\n{:.1},{:.1},{:.1},{:.1},{:.1},{}",
            b.lower_whisker,
            b.q1,
            b.median,
            b.q3,
            b.upper_whisker,
            b.outliers.len()
        )?;
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 2: heatmaps of core and memory sizes per VM.
fn fig2(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let a = &run.measured.report.vm_size;
    for (label, hm) in [("private", &a.private), ("public", &a.public)] {
        writeln!(out, "## Fig 2 {label}: cores x memory heatmap (fractions)")?;
        writeln!(out, "core_bin,memory_bin,fraction")?;
        for x in 0..hm.x_axis().bins() {
            for y in 0..hm.y_axis().bins() {
                let f = hm.fraction(x, y);
                if f > 0.0 {
                    writeln!(out, "{x},{y},{f:.4}")?;
                }
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 3: temporal deployment — lifetime CDFs, VM counts and
/// creations per hour in the sample region, and per-region creation CVs.
fn fig3(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let a = &run.measured.report.temporal;
    print_ecdf(
        out,
        "Fig 3(a) private: VM lifetime (minutes)",
        &a.private_lifetimes,
    )?;
    print_ecdf(
        out,
        "Fig 3(a) public: VM lifetime (minutes)",
        &a.public_lifetimes,
    )?;
    for (title, (private, public)) in [
        ("Fig 3(b): VM counts per hour (region 0)", &a.vm_counts),
        ("Fig 3(c): VM creations per hour (region 0)", &a.creations),
    ] {
        let rows: Vec<[f64; 3]> = (0..168)
            .map(|h| [h as f64, private.values()[h], public.values()[h]])
            .collect();
        print_csv(out, title, ["hour", "private", "public"], &rows)?;
    }
    for (label, b) in [("private", &a.creation_cv.0), ("public", &a.creation_cv.1)] {
        writeln!(out, "## Fig 3(d) {label}: creation CV across regions")?;
        writeln!(
            out,
            "lower_whisker,q1,median,q3,upper_whisker\n{:.2},{:.2},{:.2},{:.2},{:.2}",
            b.lower_whisker, b.q1, b.median, b.q3, b.upper_whisker
        )?;
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 4: spatial deployment — regions per subscription, plain and
/// core-weighted.
fn fig4(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let a = &run.measured.report.spatial;
    for (label, cdf) in [
        ("private", &a.private_regions),
        ("public", &a.public_regions),
    ] {
        let rows: Vec<[f64; 2]> = (1..=10).map(|k| [k as f64, cdf.eval(k as f64)]).collect();
        print_csv(
            out,
            &format!("Fig 4(a) {label}: regions per subscription CDF"),
            ["regions", "cdf"],
            &rows,
        )?;
    }
    for (label, curve) in [
        ("private", &a.private_core_weighted),
        ("public", &a.public_core_weighted),
    ] {
        let rows: Vec<[f64; 2]> = curve.iter().map(|&(k, f)| [k as f64, f]).collect();
        print_csv(
            out,
            &format!("Fig 4(b) {label}: core-weighted regions CDF"),
            ["regions", "core_fraction"],
            &rows,
        )?;
    }
    Ok(())
}

/// Figure 5: one sample series per utilization pattern, then the class
/// shares.
fn fig5(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let trace = &run.generated.trace;
    let classifier = PatternClassifier;
    for pattern in UtilizationPattern::ALL {
        let sample = trace.vms().iter().find_map(|vm| {
            let util = trace.util(vm.id).filter(|u| u.len() > 1500)?;
            (classifier.classify_vm(trace, vm.id) == Some(pattern)).then_some((vm, util))
        });
        let Some((vm, util)) = sample else { continue };
        writeln!(out, "## Fig 5 sample: {pattern} ({})", vm.id)?;
        writeln!(out, "hour,util_pct")?;
        for (i, v) in util.iter().enumerate().step_by(12).take(48) {
            writeln!(out, "{:.1},{v:.1}", i as f64 / 12.0)?;
        }
        writeln!(out)?;
    }

    let report = &run.measured.report;
    writeln!(out, "## Fig 5(d): pattern shares")?;
    writeln!(out, "pattern,private,public")?;
    for p in UtilizationPattern::ALL {
        let (private, public) = (
            report.private_patterns.fraction(p),
            report.public_patterns.fraction(p),
        );
        writeln!(out, "{p},{private:.3},{public:.3}")?;
    }
    writeln!(out)
}

/// Figure 6: CPU-utilization percentile bands over the week and the day.
fn fig6(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let report = &run.measured.report;
    for (label, d) in [
        ("private", &report.private_utilization),
        ("public", &report.public_utilization),
    ] {
        for (span, bands, hours) in [("weekly", &d.weekly, 168), ("daily", &d.daily, 24)] {
            writeln!(out, "## Fig 6 {label}: {span} percentile bands (hourly)")?;
            writeln!(out, "hour,p5,p25,p50,p75,p95")?;
            for h in 0..hours {
                let row: Vec<String> = bands.bands.iter().map(|b| format!("{:.1}", b[h])).collect();
                writeln!(out, "{h},{}", row.join(","))?;
            }
            writeln!(out)?;
        }
    }
    Ok(())
}

/// Figure 7: node-level and cross-region utilization correlation, and
/// the ServiceX region-alignment case study.
fn fig7(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let report = &run.measured.report;
    let (node_private, node_public) = &report.node_correlation;
    print_ecdf(out, "Fig 7(a) private: VM-node correlation", node_private)?;
    print_ecdf(out, "Fig 7(a) public: VM-node correlation", node_public)?;
    let (region_private, region_public) = &report.region_correlation;
    print_ecdf(
        out,
        "Fig 7(b) private: cross-region correlation",
        region_private,
    )?;
    print_ecdf(
        out,
        "Fig 7(b) public: cross-region correlation",
        region_public,
    )?;

    let trace = &run.generated.trace;
    let Some(flagship) = run.generated.flagship_service() else {
        return Ok(());
    };
    let Ok(profiles) = service_region_daily_profiles(trace, flagship.service) else {
        return Ok(());
    };
    writeln!(
        out,
        "## Fig 7(c): ServiceX ({}) average CPU by region (daily, UTC hours)",
        flagship.service
    )?;
    write!(out, "hour")?;
    for (region, _) in &profiles {
        write!(out, ",{region}")?;
    }
    writeln!(out)?;
    for h in 0..24 {
        write!(out, "{h}")?;
        for (_, profile) in &profiles {
            write!(out, ",{:.1}", profile[h])?;
        }
        writeln!(out)?;
    }
    writeln!(out)
}

/// The Canada pilot (Section IV-B): shifting ServiceX from a hot region
/// to a cold one. Paper: source underutilized cores 23% -> 16%, source
/// core-utilization rate 42% -> 37%; destination changes minor.
fn pilot(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let Some(pilot) = &run.measured.pilot else {
        return Ok(());
    };
    let o = &pilot.outcome;
    writeln!(
        out,
        "## Pilot: shift ServiceX ({}) {} -> {}",
        pilot.service, pilot.hot, pilot.cold
    )?;
    writeln!(
        out,
        "metric,source_before,source_after,dest_before,dest_after"
    )?;
    writeln!(
        out,
        "underutilized_core_pct,{:.1},{:.1},{:.1},{:.1}",
        100.0 * o.source_before.underutilized_pct(),
        100.0 * o.source_after.underutilized_pct(),
        100.0 * o.destination_before.underutilized_pct(),
        100.0 * o.destination_after.underutilized_pct(),
    )?;
    writeln!(
        out,
        "core_utilization_rate,{:.1},{:.1},{:.1},{:.1}",
        100.0 * o.source_before.core_utilization_rate(),
        100.0 * o.source_after.core_utilization_rate(),
        100.0 * o.destination_before.core_utilization_rate(),
        100.0 * o.destination_after.core_utilization_rate(),
    )?;
    writeln!(out, "moved_vms,{},,,", o.moved_vms)?;
    writeln!(out)
}

/// The over-subscription sweep (Insight 2 implication): utilization
/// improvement vs safety level over public-cloud VMs with (almost)
/// full-week telemetry. Paper (citing its ref \[17\]): 20%-86%
/// improvement depending on the safety constraint.
fn oversub(run: &Run<'_>, out: &mut String, _: &mut ShapeChecks) -> fmt::Result {
    let Ok(sweep) = &run.measured.oversub else {
        return Ok(());
    };
    writeln!(
        out,
        "## Over-subscription sweep (empirical-quantile planner)"
    )?;
    writeln!(
        out,
        "epsilon,reserved_cores,requested_cores,violation_rate,utilization_improvement_pct"
    )?;
    for (eps, plan) in OVERSUB_EPSILONS.iter().zip(&sweep.plans) {
        writeln!(
            out,
            "{eps},{:.0},{:.0},{:.4},{:.0}",
            plan.reserved_cores,
            plan.requested_cores,
            plan.violation_rate,
            100.0 * plan.utilization_improvement
        )?;
    }
    writeln!(out)
}

/// The private-vs-public differential summary: every headline
/// comparison of the study side by side, judged by the ledger at
/// ordering strictness. It prints no series of its own.
fn compare(run: &Run<'_>, _: &mut String, checks: &mut ShapeChecks) -> fmt::Result {
    *checks = ledger::differential(&run.measured.report);
    Ok(())
}
