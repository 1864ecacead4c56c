//! Quickstart: generate a synthetic private+public cloud week, run the
//! full characterization, and judge it with the paper-fact ledger: the
//! four insight verdicts and the private-vs-public differential summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cloudscope::prelude::*;
use cloudscope_repro::ledger::{differential, insights};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down platform so the example runs in seconds; use
    // `GeneratorConfig::default()` for the full-scale study.
    let config = GeneratorConfig::medium(2024);
    let generated = generate(&config);

    let stats = generated.trace.stats();
    println!(
        "generated one week: {} private VMs ({} subscriptions), {} public VMs ({} subscriptions)",
        stats.private_vms,
        stats.private_subscriptions,
        stats.public_vms,
        stats.public_subscriptions
    );
    println!(
        "allocation service: {} placements, {} failures, {} VMs dropped",
        generated.report.private_alloc.successes + generated.report.public_alloc.successes,
        generated.report.private_alloc.capacity_failures
            + generated.report.private_alloc.spreading_failures
            + generated.report.public_alloc.capacity_failures
            + generated.report.public_alloc.spreading_failures,
        generated.report.dropped_vms
    );

    let report = CharacterizationReport::analyze(&generated.trace, &ReportConfig::default())?;
    let verdict = |holds: bool| if holds { "ok" } else { "MISS" };
    println!("\npaper insight verdicts:");
    for (holds, insight) in insights(&report) {
        println!("  [{}] {insight}", verdict(holds));
    }
    println!("\nprivate-vs-public differential summary (the paper's orderings):");
    for (holds, line) in differential(&report).lines() {
        println!("  [{}] {line}", verdict(holds));
    }
    Ok(())
}
