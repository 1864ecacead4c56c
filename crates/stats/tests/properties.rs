//! Property-based tests over the statistics substrate.

use cloudscope_stats::boxplot::BoxPlot;
use cloudscope_stats::correlation::{pearson, pearson_or_zero};
use cloudscope_stats::dist::{Categorical, StdNormal};
use cloudscope_stats::ecdf::Ecdf;
use cloudscope_stats::error::StatsError;
use cloudscope_stats::percentile::{percentile, percentile_sorted, percentiles_into};
use cloudscope_stats::summary::Summary;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// Values that may be NaN or ±∞ alongside ordinary finite readings —
/// the raw material a corrupted telemetry stream hands the stats layer.
fn messy_value() -> impl Strategy<Value = f64> {
    (0u32..12, -1e6f64..1e6).prop_map(|(tag, v)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

fn messy_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(messy_value(), 1..max_len)
}

proptest! {
    #[test]
    fn ecdf_is_monotone_and_bounded(sample in finite_vec(64), probe in -2e6f64..2e6) {
        let cdf = Ecdf::new(sample).unwrap();
        let f = cdf.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        // Monotone: a larger probe never decreases F.
        let f2 = cdf.eval(probe + 1.0);
        prop_assert!(f2 >= f);
        // Boundary behaviour.
        prop_assert_eq!(cdf.eval(cdf.quantile(1.0)), 1.0);
        prop_assert!(cdf.eval(cdf.quantile(0.0) - 1.0) == 0.0);
    }

    #[test]
    fn ecdf_quantile_inverts(sample in finite_vec(64), p in 0.0f64..=1.0) {
        let cdf = Ecdf::new(sample).unwrap();
        let q = cdf.quantile(p);
        // At least a fraction p of the mass lies at or below the quantile.
        prop_assert!(cdf.eval(q) >= p - 1e-12);
    }

    #[test]
    fn boxplot_invariants(sample in finite_vec(128)) {
        let b = BoxPlot::new(sample.clone()).unwrap();
        // Quartiles are ordered; whiskers bracket each other. (With
        // interpolated quartiles, an extreme outlier can pull q1 below
        // the smallest non-outlier, so lower_whisker <= q1 need NOT
        // hold; only the fence relation is guaranteed.)
        prop_assert!(b.q1 <= b.median);
        prop_assert!(b.median <= b.q3);
        prop_assert!(b.lower_whisker <= b.upper_whisker);
        prop_assert!(b.lower_whisker >= b.q1 - 1.5 * (b.q3 - b.q1) - 1e-9);
        prop_assert!(b.upper_whisker <= b.q3 + 1.5 * (b.q3 - b.q1) + 1e-9);
        // Outliers lie strictly outside the fences, and every
        // non-outlier observation lies within the whiskers.
        for o in &b.outliers {
            prop_assert!(*o < b.q1 - 1.5 * (b.q3 - b.q1) || *o > b.q3 + 1.5 * (b.q3 - b.q1));
        }
        for v in &sample {
            if !b.outliers.contains(v) {
                prop_assert!(*v >= b.lower_whisker && *v <= b.upper_whisker);
            }
        }
        prop_assert_eq!(b.count, sample.len());
    }

    #[test]
    fn pearson_bounded_and_symmetric(
        x in prop::collection::vec(-1e3f64..1e3, 3..32),
        seed in any::<u64>(),
    ) {
        // Add jitter so variance is almost surely nonzero.
        let mut rng = StdRng::seed_from_u64(seed);
        let y: Vec<f64> = x.iter().map(|v| v + StdNormal.sample(&mut rng)).collect();
        if let (Ok(r_xy), Ok(r_yx)) = (pearson(&x, &y), pearson(&y, &x)) {
            prop_assert!((-1.0..=1.0).contains(&r_xy));
            prop_assert!((r_xy - r_yx).abs() < 1e-12);
        }
    }

    #[test]
    fn pearson_affine_invariance(
        x in prop::collection::vec(-1e3f64..1e3, 3..32),
        scale in 0.1f64..100.0,
        shift in -1e3f64..1e3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + StdNormal.sample(&mut rng)).collect();
        if let Ok(base) = pearson(&x, &y) {
            let transformed: Vec<f64> = x.iter().map(|v| scale * v + shift).collect();
            if let Ok(r) = pearson(&transformed, &y) {
                prop_assert!((r - base).abs() < 1e-6, "{r} vs {base}");
            }
        }
    }

    #[test]
    fn selection_percentile_matches_sorted(sample in finite_vec(128), p in 0.0f64..=100.0) {
        // The quickselect path must return bit-identical results to the
        // full-sort definition at any level, including interpolated ranks.
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(percentile(&sample, p).unwrap(), percentile_sorted(&sorted, p));
    }

    #[test]
    fn percentiles_monotone_in_level(sample in finite_vec(128)) {
        let levels = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0];
        let mut vals = Vec::new();
        percentiles_into(&sample, &levels, &mut Vec::new(), &mut vals).unwrap();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn non_finite_inputs_yield_typed_errors_never_panics(
        sample in messy_vec(64),
        p in 0.0f64..=100.0,
    ) {
        let tainted = sample.iter().any(|v| !v.is_finite());
        // Every constructor either succeeds (all-finite input) or
        // reports NonFinite — none of them may panic or poison results.
        match Ecdf::new(sample.clone()) {
            Ok(cdf) => {
                prop_assert!(!tainted);
                prop_assert!(cdf.eval(0.0).is_finite());
            }
            Err(e) => {
                prop_assert!(tainted);
                prop_assert!(matches!(e, StatsError::NonFinite(_)));
            }
        }
        match BoxPlot::new(sample.clone()) {
            Ok(b) => prop_assert!(!tainted && b.median.is_finite()),
            Err(e) => prop_assert!(matches!(e, StatsError::NonFinite(_))),
        }
        match percentile(&sample, p) {
            Ok(v) => prop_assert!(!tainted && v.is_finite()),
            Err(e) => prop_assert!(matches!(e, StatsError::NonFinite(_))),
        }
        match pearson(&sample, &sample) {
            // A finite non-constant series correlates perfectly with itself.
            Ok(r) => prop_assert!(!tainted && (r - 1.0).abs() < 1e-9),
            Err(e) => prop_assert!(matches!(
                e,
                StatsError::NonFinite(_) | StatsError::EmptyInput(_) | StatsError::ZeroVariance(_)
            )),
        }
        // Summary is the lenient path: it skips non-finite observations
        // instead of erroring, so a tainted stream still summarizes.
        let s: Summary = sample.iter().copied().collect();
        prop_assert_eq!(
            s.count(),
            sample.iter().filter(|v| v.is_finite()).count() as u64
        );
    }

    #[test]
    fn constant_inputs_degrade_gracefully(
        c in -1e6f64..1e6,
        len in 1usize..64,
        p in 0.0f64..=100.0,
    ) {
        let sample = vec![c; len];
        // ECDF of a constant is a unit step at the constant.
        let cdf = Ecdf::new(sample.clone()).unwrap();
        prop_assert_eq!(cdf.eval(c), 1.0);
        prop_assert_eq!(cdf.eval(c - 1e-3), 0.0);
        prop_assert_eq!(cdf.median(), c);
        // Degenerate box plot: everything collapses onto the constant.
        let b = BoxPlot::new(sample.clone()).unwrap();
        prop_assert_eq!(b.median, c);
        prop_assert_eq!(b.lower_whisker, c);
        prop_assert_eq!(b.upper_whisker, c);
        prop_assert!(b.outliers.is_empty());
        // Percentiles are the constant at every level.
        prop_assert_eq!(percentile(&sample, p).unwrap(), c);
        // Correlation against a constant is undefined. Summation
        // rounding can leave a sub-ulp residual variance, in which case
        // the clamped result must still be a legal coefficient.
        if len >= 2 {
            match pearson(&sample, &sample) {
                Err(e) => prop_assert!(matches!(e, StatsError::ZeroVariance(_))),
                Ok(r) => prop_assert!((-1.0..=1.0).contains(&r)),
            }
            // The lenient wrapper used by the fig-7 pipeline never errors here.
            prop_assert!(pearson_or_zero(&sample, &sample).is_some());
        }
    }

    #[test]
    fn categorical_alias_tables_cover_all_indices(
        weights in prop::collection::vec(0.01f64..10.0, 1..24),
        seed in any::<u64>(),
    ) {
        let c = Categorical::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let idx = c.sample_index(&mut rng);
            prop_assert!(idx < weights.len());
        }
    }
}
