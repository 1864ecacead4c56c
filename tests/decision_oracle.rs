//! Decision oracle of the Figure 5 classifier: the production entry
//! point, `PatternClassifier::classify_util` (the targeted period query
//! over one spectrum, on the stored bytes), gives every VM the same class
//! as the decision logic it replaced run over the reference detector
//! (two transforms and a direct masked ACF, every period detected and
//! then filtered; `crates/timeseries/src/reference.rs`, compiled here as
//! a module) on the series' `to_f64_vec` percentages — on the default
//! trace and on `medium(1..=32)`, each clean and under
//! `FaultPlan::standard`. A sweep of ≈ 66 traces, so it is ignored by
//! default; run it in release:
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
use cloudscope::timeseries::gaps::{coverage, fill_linear_capped, finite_std};
use cloudscope::timeseries::Series;

/// The classifier's decision logic as it stood before it read the
/// stored bytes and asked the detector a targeted question: a
/// `to_f64_vec` series, coverage gate, capped linear fill, stable gate,
/// then every period of the two-day window and of the half-hourly
/// downsample detected by `reference::detect` and filtered for the
/// hourly and daily bands.
fn reference_class(util: &UtilSeries) -> Option<UtilizationPattern> {
    let step = cloudscope::model::time::SAMPLE_INTERVAL_MINUTES;
    let samples_per_day = (24 * 60 / step) as usize;
    let mut values = util.to_f64_vec();
    if values.iter().any(|v| !v.is_finite()) {
        if coverage(&values) < 0.6 {
            return None;
        }
        fill_linear_capped(&mut values, 6);
    }
    let series = Series::new(util.start().minutes(), step, values);
    let present = series.values().iter().filter(|v| v.is_finite()).count();
    if present < 3 * samples_per_day {
        return None;
    }
    if finite_std(series.values()).unwrap_or(0.0) < 3.0 {
        return Some(UtilizationPattern::Stable);
    }
    let has_period_near = |values: &[f64], step: i64, targets: &[f64], tol: f64| {
        reference::detect(values, step).is_ok_and(|periods| {
            periods
                .iter()
                .any(|p| targets.iter().any(|t| (p.minutes - t).abs() <= tol))
        })
    };
    let two_days = (2 * samples_per_day).min(series.len());
    if has_period_near(&series.values()[..two_days], step, &[60.0, 30.0], 12.0) {
        return Some(UtilizationPattern::HourlyPeak);
    }
    let coarse = series
        .downsample_mean((30 / step).max(1) as usize)
        .expect("positive factor");
    if has_period_near(coarse.values(), coarse.step_minutes(), &[1440.0], 240.0) {
        return Some(UtilizationPattern::Diurnal);
    }
    Some(UtilizationPattern::Irregular)
}

/// `(vm, new class, reference class)` for every VM whose class moved.
fn moved_verdicts(
    trace: &Trace,
) -> Vec<(VmId, Option<UtilizationPattern>, Option<UtilizationPattern>)> {
    let classifier = PatternClassifier;
    let vms: Vec<VmId> = trace.vms().iter().map(|vm| vm.id).collect();
    Parallelism::auto()
        .par_map(&vms, |&vm| {
            let util = trace.load(vm)?;
            let new = classifier.classify_util(&util);
            let old = reference_class(&util);
            (new != old).then_some((vm, new, old))
        })
        .into_iter()
        .flatten()
        .collect()
}

#[test]
#[ignore = "release-mode sweep over 66 traces"]
fn classify_util_moves_no_verdict() {
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
