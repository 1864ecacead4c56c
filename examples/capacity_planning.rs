//! Capacity planning: chance-constrained over-subscription of a pool of
//! public-cloud workloads at several violation budgets.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use cloudscope::mgmt::oversub::{OversubMethod, OversubPlanner, VmDemand};
use cloudscope::prelude::*;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = generate(&GeneratorConfig::small(7));

    // Pool the public cloud's full-week telemetry VMs.
    let pool: Vec<VmDemand> = generated
        .trace
        .vms_of(CloudKind::Public)
        .filter_map(|vm| {
            let util = generated.trace.util(vm.id)?;
            (util.start().minutes() == 0 && util.len() == 2016).then(|| VmDemand {
                cores: vm.size.cores(),
                utilization: util.to_f64_vec(),
            })
        })
        .take(200)
        .collect();
    println!(
        "over-subscribing a pool of {} public-cloud VMs:",
        pool.len()
    );
    println!("  epsilon  reserved/requested  improvement  violations");
    for eps in [0.001, 0.01, 0.05, 0.1] {
        let plan = OversubPlanner::new(eps, OversubMethod::EmpiricalQuantile)?.plan(&pool)?;
        println!(
            "  {eps:<7}  {:>6.0} / {:<8.0}  {:>9.0}%  {:>9.4}",
            plan.reserved_cores,
            plan.requested_cores,
            100.0 * plan.utilization_improvement,
            plan.violation_rate
        );
    }

    Ok(())
}
