//! The Canada pilot (Section IV-B): shifting ServiceX from a hot region
//! to a cold one. Paper: source underutilized cores 23% -> 16%, source
//! core-utilization rate 42% -> 37%; destination changes minor.

use cloudscope::prelude::*;
use cloudscope_repro::checks::{pilot_checks, run_pilot};
use cloudscope_repro::{MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    let generated = metrics.load_trace();
    let at = ReportConfig::default().snapshot;

    let pilot = run_pilot(&generated, at)
        .expect("shift simulates")
        .expect("a shiftable underutilized service exists");
    let outcome = &pilot.outcome;

    println!(
        "## Pilot: shift ServiceX ({}) {} -> {}",
        pilot.service, pilot.hot, pilot.cold
    );
    println!("metric,source_before,source_after,dest_before,dest_after");
    println!(
        "underutilized_core_pct,{:.1},{:.1},{:.1},{:.1}",
        100.0 * outcome.source_before.underutilized_pct(),
        100.0 * outcome.source_after.underutilized_pct(),
        100.0 * outcome.destination_before.underutilized_pct(),
        100.0 * outcome.destination_after.underutilized_pct(),
    );
    println!(
        "core_utilization_rate,{:.1},{:.1},{:.1},{:.1}",
        100.0 * outcome.source_before.core_utilization_rate(),
        100.0 * outcome.source_after.core_utilization_rate(),
        100.0 * outcome.destination_before.core_utilization_rate(),
        100.0 * outcome.destination_after.core_utilization_rate(),
    );
    println!("moved_vms,{},,,", outcome.moved_vms);
    println!();

    let mut checks = ShapeChecks::new();
    pilot_checks(outcome, &cloudscope_repro::active_profile(), &mut checks);
    let ok = checks.finish("pilot");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
