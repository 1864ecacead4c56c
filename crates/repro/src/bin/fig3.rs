//! Figure 3: temporal deployment — lifetime CDFs, VM counts and
//! creations per hour, and per-region creation CVs.

use cloudscope::analysis::temporal::TemporalAnalysis;
use cloudscope::model::ids::RegionId;
use cloudscope::store::ScanFilter;
use cloudscope_repro::checks::fig3_checks;
use cloudscope_repro::{print_csv, print_ecdf, MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    let sample_region = RegionId::new(0);
    // Figure 3 is metadata-only: a store-backed run never assembles the
    // trace. The global curves (lifetimes, per-region CVs) need every
    // record, but the region-sliced 3(b)/(c) series re-read only the
    // sample region's chunks through predicate pushdown. (With
    // --trace-out the full trace is still needed for the copy, so the
    // pushdown path is skipped.)
    let a = match metrics.store_records([
        ScanFilter::all(),
        ScanFilter::all().region(sample_region.index()),
    ]) {
        Some((dir, subscriptions, [records, region_records])) => {
            eprintln!(
                "# pushdown: region {} slice holds {} of {} records from {}",
                sample_region.index(),
                region_records.len(),
                records.len(),
                dir.display()
            );
            TemporalAnalysis::run_from_records(
                &records,
                &region_records,
                &subscriptions,
                sample_region,
            )
        }
        None => {
            let generated = metrics.load_trace();
            TemporalAnalysis::run(&generated.trace, sample_region)
        }
    }
    .expect("analysis");

    print_ecdf(
        "Fig 3(a) private: VM lifetime (minutes)",
        &a.private_lifetimes,
    );
    print_ecdf(
        "Fig 3(a) public: VM lifetime (minutes)",
        &a.public_lifetimes,
    );

    let rows: Vec<[f64; 3]> = (0..168)
        .map(|h| {
            [
                h as f64,
                a.vm_counts.0.values()[h],
                a.vm_counts.1.values()[h],
            ]
        })
        .collect();
    print_csv(
        "Fig 3(b): VM counts per hour (region 0)",
        ["hour", "private", "public"],
        &rows,
    );

    let rows: Vec<[f64; 3]> = (0..168)
        .map(|h| {
            [
                h as f64,
                a.creations.0.values()[h],
                a.creations.1.values()[h],
            ]
        })
        .collect();
    print_csv(
        "Fig 3(c): VM creations per hour (region 0)",
        ["hour", "private", "public"],
        &rows,
    );

    for (label, b) in [("private", &a.creation_cv.0), ("public", &a.creation_cv.1)] {
        println!("## Fig 3(d) {label}: creation CV across regions");
        println!(
            "lower_whisker,q1,median,q3,upper_whisker\n{:.2},{:.2},{:.2},{:.2},{:.2}",
            b.lower_whisker, b.q1, b.median, b.q3, b.upper_whisker
        );
        println!();
    }

    let mut checks = ShapeChecks::new();
    fig3_checks(&a, &cloudscope_repro::active_profile(), &mut checks);
    let ok = checks.finish("fig3");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
