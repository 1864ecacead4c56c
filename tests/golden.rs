//! Golden regression tests: the fig 1–6 headline metrics for the
//! `GeneratorConfig::small` seeds are snapshotted under `tests/golden/`
//! and compared verbatim. Any drift — a generator tweak, an estimator
//! change, a reordered reduction — fails here first, with a diff.
//!
//! To bless an intentional change:
//!
//! ```text
//! CLOUDSCOPE_UPDATE_GOLDEN=1 cargo test -p cloudscope --test golden
//! ```

use cloudscope::prelude::*;
use cloudscope_repro::checks::{oversub_pool, run_oversub_sweep, OVERSUB_EPSILONS};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seeds pinned in the snapshots. Two seeds so a regression that
/// happens to cancel on one draw still trips on the other.
const GOLDEN_SEEDS: [u64; 2] = [7, 1234];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Renders every headline metric as a stable `key,value` line.
///
/// Six decimal places: coarse enough to survive a same-result
/// re-association, fine enough that any real statistical drift shows.
fn headline_metrics(seed: u64) -> String {
    let generated = generate(&GeneratorConfig::small(seed));
    let report = CharacterizationReport::analyze(&generated.trace, &ReportConfig::default())
        .expect("analysis succeeds on the small trace");

    let mut out = String::new();
    let mut put = |key: &str, value: f64| {
        writeln!(out, "{key},{value:.6}").expect("string write");
    };

    let d = &report.deployment;
    put(
        "fig1.private_vms_per_sub_median",
        d.private_vms_per_subscription.median(),
    );
    put(
        "fig1.public_vms_per_sub_median",
        d.public_vms_per_subscription.median(),
    );
    put(
        "fig1.subs_per_cluster_ratio",
        d.subscriptions_per_cluster_ratio,
    );

    let v = &report.vm_size;
    put("fig2.private_corner_mass", v.private_corner_mass);
    put("fig2.public_corner_mass", v.public_corner_mass);

    let t = &report.temporal;
    put("fig3.private_short_fraction", t.private_short_fraction);
    put("fig3.public_short_fraction", t.public_short_fraction);
    put("fig3.private_creation_cv_median", t.creation_cv.0.median);
    put("fig3.public_creation_cv_median", t.creation_cv.1.median);

    let s = &report.spatial;
    put(
        "fig4.private_single_region_fraction",
        s.private_regions.eval(1.0),
    );
    put(
        "fig4.public_single_region_fraction",
        s.public_regions.eval(1.0),
    );
    put(
        "fig4.private_single_region_core_share",
        s.private_single_region_core_share,
    );
    put(
        "fig4.public_single_region_core_share",
        s.public_single_region_core_share,
    );

    for p in UtilizationPattern::ALL {
        put(
            &format!("fig5.private_{}", format!("{p:?}").to_lowercase()),
            report.private_patterns.fraction(p),
        );
        put(
            &format!("fig5.public_{}", format!("{p:?}").to_lowercase()),
            report.public_patterns.fraction(p),
        );
    }

    put(
        "fig6.private_p75_peak",
        report.private_utilization.p75_peak(),
    );
    put("fig6.public_p75_peak", report.public_utilization.p75_peak());
    put(
        "fig6.private_daily_variability",
        report.private_utilization.daily_median_variability(),
    );
    put(
        "fig6.public_daily_variability",
        report.public_utilization.daily_median_variability(),
    );

    let (node_private, node_public) = &report.node_correlation;
    put("fig7.private_node_corr_median", node_private.median());
    put("fig7.public_node_corr_median", node_public.median());
    let (region_private, region_public) = &report.region_correlation;
    put("fig7.private_region_corr_median", region_private.median());
    put("fig7.public_region_corr_median", region_public.median());

    // The over-subscription demand pool and the full epsilon sweep
    // `repro oversub` prints, pinned on the small trace: a planner or
    // coverage-gate change shifts these before it shifts the figures.
    let pool = oversub_pool(&generated.trace, 400);
    put("oversub.pool_vms", pool.len() as f64);
    let sweep = run_oversub_sweep(&pool).expect("oversub sweep on the small trace");
    for (eps, plan) in OVERSUB_EPSILONS.iter().zip(&sweep.plans) {
        put(
            &format!("oversub.eps{eps}.reserved_cores"),
            plan.reserved_cores,
        );
        put(
            &format!("oversub.eps{eps}.improvement"),
            plan.utilization_improvement,
        );
    }

    out
}

fn check_seed(seed: u64) {
    let actual = headline_metrics(seed);
    let path = golden_dir().join(format!("small_seed{seed}.csv"));

    if std::env::var_os("CLOUDSCOPE_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write golden snapshot");
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with CLOUDSCOPE_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
            .collect();
        panic!(
            "headline metrics drifted from tests/golden/small_seed{seed}.csv \
             ({} of {} lines changed).\nIf the change is intentional, re-bless with \
             CLOUDSCOPE_UPDATE_GOLDEN=1.\n{}",
            diff.len(),
            expected.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn headline_metrics_match_golden_seed7() {
    check_seed(GOLDEN_SEEDS[0]);
}

#[test]
fn headline_metrics_match_golden_seed1234() {
    check_seed(GOLDEN_SEEDS[1]);
}

/// The snapshot files themselves stay well-formed: every line is
/// `key,float`, keys are unique and sorted the way the writer emits
/// them, so a hand-edit that breaks the format is caught even when the
/// values happen to match.
#[test]
fn golden_snapshots_are_well_formed() {
    for seed in GOLDEN_SEEDS {
        let path = golden_dir().join(format!("small_seed{seed}.csv"));
        let Ok(content) = std::fs::read_to_string(&path) else {
            // The drift tests report the missing file with instructions.
            continue;
        };
        let mut keys = Vec::new();
        for line in content.lines() {
            let (key, value) = line
                .split_once(',')
                .unwrap_or_else(|| panic!("malformed golden line: {line}"));
            assert!(
                value.parse::<f64>().is_ok_and(f64::is_finite),
                "non-numeric golden value in {line}"
            );
            keys.push(key.to_string());
        }
        let unique: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(
            unique.len(),
            keys.len(),
            "duplicate golden keys for seed {seed}"
        );
        assert!(
            keys.len() >= 20,
            "suspiciously few golden metrics: {}",
            keys.len()
        );
    }
}
