//! Figure 4: spatial deployment — regions per subscription, plain and
//! core-weighted.

use cloudscope::analysis::spatial::SpatialAnalysis;
use cloudscope::store::ScanFilter;
use cloudscope_repro::checks::fig4_checks;
use cloudscope_repro::{print_csv, MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    // Figure 4 is a pure placement-metadata analysis, so a store-backed
    // run reads the metadata chunks alone and never decodes a telemetry
    // chunk. (With --trace-out the full trace is still needed for the
    // copy, so the pushdown path is skipped.)
    let a = match metrics.store_records([ScanFilter::all()]) {
        Some((dir, subscriptions, [records])) => {
            eprintln!(
                "# pushdown: read {} records (metadata only) from {}",
                records.len(),
                dir.display()
            );
            SpatialAnalysis::run_from_records(&records, &subscriptions)
        }
        None => {
            let generated = metrics.load_trace();
            SpatialAnalysis::run(&generated.trace)
        }
    }
    .expect("analysis");

    for (label, cdf) in [
        ("private", &a.private_regions),
        ("public", &a.public_regions),
    ] {
        let rows: Vec<[f64; 2]> = (1..=10).map(|k| [k as f64, cdf.eval(k as f64)]).collect();
        print_csv(
            &format!("Fig 4(a) {label}: regions per subscription CDF"),
            ["regions", "cdf"],
            &rows,
        );
    }
    for (label, curve) in [
        ("private", &a.private_core_weighted),
        ("public", &a.public_core_weighted),
    ] {
        let rows: Vec<[f64; 2]> = curve.iter().map(|&(k, f)| [k as f64, f]).collect();
        print_csv(
            &format!("Fig 4(b) {label}: core-weighted regions CDF"),
            ["regions", "core_fraction"],
            &rows,
        );
    }

    let mut checks = ShapeChecks::new();
    fig4_checks(&a, &cloudscope_repro::active_profile(), &mut checks);
    let ok = checks.finish("fig4");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
