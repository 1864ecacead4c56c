//! Figure 1: deployment sizes — CDFs of VMs per subscription and
//! box-plots of subscriptions per cluster.

use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::model::time::MINUTES_PER_DAY;
use cloudscope::prelude::*;
use cloudscope::store::ScanFilter;
use cloudscope_repro::checks::fig1_checks;
use cloudscope_repro::{print_ecdf, MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    let snapshot = ReportConfig::default().snapshot;
    // Figure 1 is a pure point-in-time metadata analysis, so a
    // store-backed run pushes the snapshot day into the chunk scan: a
    // VM alive at the snapshot was created on a (clamped) day <= its
    // day, and chunks are keyed by creation day, so later-day chunks
    // are never read. (With --trace-out the full trace is still needed
    // for the copy, so the pushdown path is skipped.)
    let snapshot_day = u8::try_from(snapshot.minutes() / MINUTES_PER_DAY).expect("day");
    let a = match metrics.store_records([ScanFilter::all().max_day(snapshot_day)]) {
        Some((dir, subscriptions, [records])) => {
            eprintln!(
                "# pushdown: read {} records from creation days <= {snapshot_day} of {}",
                records.len(),
                dir.display()
            );
            DeploymentSizeAnalysis::run_from_records(&records, &subscriptions, snapshot)
        }
        None => {
            let generated = metrics.load_trace();
            DeploymentSizeAnalysis::run(&generated.trace, snapshot)
        }
    }
    .expect("analysis");

    print_ecdf(
        "Fig 1(a) private: VMs per subscription",
        &a.private_vms_per_subscription,
    );
    print_ecdf(
        "Fig 1(a) public: VMs per subscription",
        &a.public_vms_per_subscription,
    );
    for (label, b) in [
        ("private", &a.private_subscriptions_per_cluster),
        ("public", &a.public_subscriptions_per_cluster),
    ] {
        println!("## Fig 1(b) {label}: subscriptions per cluster");
        println!(
            "lower_whisker,q1,median,q3,upper_whisker,outliers\n{:.1},{:.1},{:.1},{:.1},{:.1},{}",
            b.lower_whisker,
            b.q1,
            b.median,
            b.q3,
            b.upper_whisker,
            b.outliers.len()
        );
        println!();
    }

    let mut checks = ShapeChecks::new();
    fig1_checks(&a, &cloudscope_repro::active_profile(), &mut checks);
    let ok = checks.finish("fig1");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
