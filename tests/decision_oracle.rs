//! Decision oracle of the period detector: the pattern classifier gives
//! every VM the same Figure 5 class with the one-spectrum detector as
//! with the reference detector it replaced (two transforms and a direct
//! masked ACF; `crates/timeseries/src/reference.rs`, compiled here as a
//! module), on the default trace and on `medium(1..=32)`, each clean and
//! under `FaultPlan::standard`. A sweep of ≈ 66 traces, so it is ignored
//! by default; run it in release:
//!
//!     cargo test --release -p cloudscope --test decision_oracle -- --ignored

// The reference reaches the crate's modules as `super::acf` and so on,
// which these imports provide at this test's root.
use cloudscope::timeseries::{acf, error, fft, period};

#[path = "../crates/timeseries/src/reference.rs"]
mod reference;

use cloudscope::faults::{corrupt_trace, FaultPlan};
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::timeseries::Series;

/// `(vm, new class, reference class)` for every VM whose class moved.
fn moved_verdicts(
    trace: &Trace,
) -> Vec<(VmId, Option<UtilizationPattern>, Option<UtilizationPattern>)> {
    let classifier = PatternClassifier;
    let vms: Vec<VmId> = trace.vms().iter().map(|vm| vm.id).collect();
    Parallelism::auto()
        .par_map(&vms, |&vm| {
            let util = trace.load(vm)?;
            let series = Series::new(
                util.start().minutes(),
                cloudscope::model::time::SAMPLE_INTERVAL_MINUTES,
                util.to_f64_vec(),
            );
            let new = classifier.classify_series(&series);
            let old = classifier.classify_series_with(&series, reference::detect);
            (new != old).then_some((vm, new, old))
        })
        .into_iter()
        .flatten()
        .collect()
}

#[test]
#[ignore = "release-mode sweep over 66 traces"]
fn one_spectrum_moves_no_verdict() {
    let configs =
        std::iter::once(GeneratorConfig::default()).chain((1..=32).map(GeneratorConfig::medium));
    let mut moved = Vec::new();
    let mut classified = 0usize;
    for config in configs {
        let clean = generate(&config).trace;
        let (faulted, _) = corrupt_trace(&clean, &FaultPlan::standard(config.seed));
        for (label, trace) in [("clean", &clean), ("faulted", &faulted)] {
            classified += trace.vms().len();
            for (vm, new, old) in moved_verdicts(trace) {
                moved.push(format!(
                    "seed {} {label} {vm:?}: {new:?}, reference {old:?}",
                    config.seed
                ));
            }
        }
    }
    println!(
        "{classified} VMs classified, {} verdicts moved",
        moved.len()
    );
    assert!(moved.is_empty(), "moved verdicts:\n{}", moved.join("\n"));
}
