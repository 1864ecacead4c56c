//! Figure 6: CPU-utilization percentile bands over the week and the day.

use cloudscope::analysis::utilization::UtilizationDistribution;
use cloudscope::prelude::*;
use cloudscope_repro::checks::fig6_checks;
use cloudscope_repro::{MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    let generated = metrics.load_trace();
    let max_vms = ReportConfig::default().max_band_vms;
    let private = UtilizationDistribution::run(&generated.trace, CloudKind::Private, max_vms)
        .expect("private");
    let public =
        UtilizationDistribution::run(&generated.trace, CloudKind::Public, max_vms).expect("public");

    for (label, d) in [("private", &private), ("public", &public)] {
        println!("## Fig 6 {label}: weekly percentile bands (hourly)");
        println!("hour,p5,p25,p50,p75,p95");
        for h in 0..168 {
            let row: Vec<String> = d
                .weekly
                .bands
                .iter()
                .map(|b| format!("{:.1}", b[h]))
                .collect();
            println!("{h},{}", row.join(","));
        }
        println!();
        println!("## Fig 6 {label}: daily percentile bands (hourly)");
        println!("hour,p5,p25,p50,p75,p95");
        for h in 0..24 {
            let row: Vec<String> = d
                .daily
                .bands
                .iter()
                .map(|b| format!("{:.1}", b[h]))
                .collect();
            println!("{h},{}", row.join(","));
        }
        println!();
    }

    let mut checks = ShapeChecks::new();
    fig6_checks(
        &private,
        &public,
        &cloudscope_repro::active_profile(),
        &mut checks,
    );
    let ok = checks.finish("fig6");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
