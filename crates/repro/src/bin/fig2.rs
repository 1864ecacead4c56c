//! Figure 2: heatmaps of core and memory sizes per VM.

use cloudscope::analysis::vmsize::VmSizeAnalysis;
use cloudscope::store::ScanFilter;
use cloudscope_repro::checks::fig2_checks;
use cloudscope_repro::{MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    // Figure 2 only looks at VM shapes, so a store-backed run reads the
    // metadata chunks alone and never decodes a telemetry chunk. (With
    // --trace-out the full trace is still needed for the copy, so the
    // pushdown path is skipped.)
    let a = match metrics.store_records([ScanFilter::all()]) {
        Some((dir, subscriptions, [records])) => {
            eprintln!(
                "# pushdown: read {} records (metadata only) from {}",
                records.len(),
                dir.display()
            );
            VmSizeAnalysis::run_from_records(&records, &subscriptions)
        }
        None => {
            let generated = metrics.load_trace();
            VmSizeAnalysis::run(&generated.trace)
        }
    }
    .expect("analysis");

    for (label, hm) in [("private", &a.private), ("public", &a.public)] {
        println!("## Fig 2 {label}: cores x memory heatmap (fractions)");
        println!("core_bin,memory_bin,fraction");
        for x in 0..hm.x_axis().bins() {
            for y in 0..hm.y_axis().bins() {
                let f = hm.fraction(x, y);
                if f > 0.0 {
                    println!("{x},{y},{f:.4}");
                }
            }
        }
        println!();
    }

    let mut checks = ShapeChecks::new();
    fig2_checks(&a, &cloudscope_repro::active_profile(), &mut checks);
    let ok = checks.finish("fig2");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
