//! Region balancing: detect region-agnostic workloads from telemetry,
//! then shift the best candidate from the hottest region to the coldest
//! (the paper's Canada pilot, as a library workflow).
//!
//! ```sh
//! cargo run --release --example region_balancing
//! ```

use cloudscope::analysis::correlation::region_agnostic_candidates;
use cloudscope::mgmt::rebalance::{recommend_shifts, region_capacity_stats, simulate_shift};
use cloudscope::prelude::*;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let generated = generate(&GeneratorConfig::small(11));
    let at = SimTime::from_minutes(2 * 24 * 60 + 14 * 60);

    // 1. Detect region-agnostic subscriptions from utilization telemetry.
    let candidates = region_agnostic_candidates(&generated.trace, CloudKind::Private, "US", 0.8);
    println!(
        "{} region-agnostic private subscriptions detected",
        candidates.len()
    );

    // 2. Their services are the shiftable set.
    let shiftable: Vec<ServiceId> = generated
        .services
        .iter()
        .filter(|s| candidates.contains(&s.subscription))
        .map(|s| s.service)
        .collect();

    // 3. Ask the rebalancer for hot-to-cold recommendations.
    let recommendations =
        recommend_shifts(&generated.trace, CloudKind::Private, &shiftable, at, 0.02)?;
    println!("{} shift recommendations", recommendations.len());

    // 4. Replay the first recommendation and report the pilot metrics.
    if let Some(rec) = recommendations.first() {
        let outcome = simulate_shift(
            &generated.trace,
            CloudKind::Private,
            rec.service,
            rec.from,
            rec.to,
            at,
        )?;
        println!(
            "\nshifting {} ({} VMs, {} cores) {} -> {}:",
            rec.service, outcome.moved_vms, outcome.moved_cores, rec.from, rec.to
        );
        println!(
            "  source: utilization rate {:.1}% -> {:.1}%, underutilized {:.1}% -> {:.1}%",
            100.0 * outcome.source_before.core_utilization_rate(),
            100.0 * outcome.source_after.core_utilization_rate(),
            100.0 * outcome.source_before.underutilized_pct(),
            100.0 * outcome.source_after.underutilized_pct(),
        );
        println!(
            "  destination: utilization rate {:.1}% -> {:.1}%",
            100.0 * outcome.destination_before.core_utilization_rate(),
            100.0 * outcome.destination_after.core_utilization_rate(),
        );
    } else {
        // Regions already balanced below the target gap.
        for region in generated.trace.topology().regions() {
            let s = region_capacity_stats(&generated.trace, CloudKind::Private, region.id, at)?;
            println!(
                "  {}: {:.1}% allocated",
                region.name,
                100.0 * s.core_utilization_rate()
            );
        }
    }
    Ok(())
}
