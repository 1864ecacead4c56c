//! Figure 7: node-level and cross-region utilization correlation, and
//! the ServiceX region-alignment case study.

use cloudscope::analysis::correlation::{
    node_vm_correlation_cdf, region_pair_correlation_cdf, service_region_daily_profiles,
};
use cloudscope::prelude::*;
use cloudscope_repro::checks::fig7_checks;
use cloudscope_repro::{print_ecdf, MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    let generated = metrics.load_trace();
    let config = ReportConfig::default();
    let node_private =
        node_vm_correlation_cdf(&generated.trace, CloudKind::Private, config.max_nodes)
            .expect("7a private");
    let node_public =
        node_vm_correlation_cdf(&generated.trace, CloudKind::Public, config.max_nodes)
            .expect("7a public");
    print_ecdf("Fig 7(a) private: VM-node correlation", &node_private);
    print_ecdf("Fig 7(a) public: VM-node correlation", &node_public);

    let region_private =
        region_pair_correlation_cdf(&generated.trace, CloudKind::Private, &config.geo)
            .expect("7b private");
    let region_public =
        region_pair_correlation_cdf(&generated.trace, CloudKind::Public, &config.geo)
            .expect("7b public");
    print_ecdf(
        "Fig 7(b) private: cross-region correlation",
        &region_private,
    );
    print_ecdf("Fig 7(b) public: cross-region correlation", &region_public);

    let flagship = generated.flagship_service().expect("flagship ServiceX");
    println!(
        "## Fig 7(c): ServiceX ({}) average CPU by region (daily, UTC hours)",
        flagship.service
    );
    let profiles =
        service_region_daily_profiles(&generated.trace, flagship.service).expect("profiles");
    print!("hour");
    for (region, _) in &profiles {
        print!(",{region}");
    }
    println!();
    for h in 0..24 {
        print!("{h}");
        for (_, profile) in &profiles {
            print!(",{:.1}", profile[h]);
        }
        println!();
    }
    println!();

    let alignment = cloudscope::analysis::correlation::service_region_alignment(
        &generated.trace,
        flagship.service,
    )
    .expect("alignment");
    let mut checks = ShapeChecks::new();
    fig7_checks(
        &(node_private, node_public),
        &(region_private, region_public),
        alignment,
        &cloudscope_repro::active_profile(),
        &mut checks,
    );
    let ok = checks.finish("fig7");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
