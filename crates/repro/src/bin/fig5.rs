//! Figure 5: utilization-pattern samples and class shares.

use cloudscope::analysis::patterns::{pattern_shares, PatternClassifier};
use cloudscope::prelude::*;
use cloudscope_repro::checks::fig5_checks;
use cloudscope_repro::{MetricsOpt, ShapeChecks};

fn main() {
    let metrics = MetricsOpt::from_args();
    let generated = metrics.load_trace();
    let classifier = PatternClassifier::default();
    let max_vms = ReportConfig::default().max_classified_vms;

    // Fig 5(a-c): one sample series per pattern, from ground truth.
    for pattern in UtilizationPattern::ALL {
        let sample = generated.trace.vms().iter().find(|vm| {
            generated.trace.util(vm.id).is_some_and(|u| u.len() > 1500)
                && classifier.classify_vm(&generated.trace, vm.id) == Some(pattern)
        });
        if let Some(vm) = sample {
            let util = generated.trace.util(vm.id).expect("has telemetry");
            println!("## Fig 5 sample: {pattern} ({})", vm.id);
            println!("hour,util_pct");
            for (i, v) in util.iter().enumerate().step_by(12).take(48) {
                println!("{:.1},{v:.1}", i as f64 / 12.0);
            }
            println!();
        }
    }

    let private = pattern_shares(&generated.trace, CloudKind::Private, &classifier, max_vms)
        .expect("private shares");
    let public = pattern_shares(&generated.trace, CloudKind::Public, &classifier, max_vms)
        .expect("public shares");
    println!("## Fig 5(d): pattern shares");
    println!("pattern,private,public");
    for p in UtilizationPattern::ALL {
        println!("{p},{:.3},{:.3}", private.fraction(p), public.fraction(p));
    }
    println!();

    let mut checks = ShapeChecks::new();
    fig5_checks(
        &private,
        &public,
        &cloudscope_repro::active_profile(),
        &mut checks,
    );
    let ok = checks.finish("fig5");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
