//! Property-based tests for the time-series substrate.

use cloudscope_timeseries::acf::{autocorrelation, autocorrelation_naive};
use cloudscope_timeseries::fft::{Complex, FftPlan};
use cloudscope_timeseries::profile::daily_profile;
use cloudscope_timeseries::series::Series;
use proptest::prelude::*;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

proptest! {
    #[test]
    fn fft_roundtrip_is_identity(
        re in prop::collection::vec(-1e3f64..1e3, 32..=32),
        im in prop::collection::vec(-1e3f64..1e3, 32..=32),
    ) {
        let original: Vec<Complex> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex::new(r, i))
            .collect();
        let plan = FftPlan::new(32).unwrap();
        let mut buf = original.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in original.iter().zip(&buf) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_linearity(
        a in prop::collection::vec(-1e2f64..1e2, 16..=16),
        b in prop::collection::vec(-1e2f64..1e2, 16..=16),
    ) {
        let mut fa: Vec<Complex> = a.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let mut fb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let mut fab: Vec<Complex> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| Complex::new(x + y, 0.0))
            .collect();
        let plan = FftPlan::new(16).unwrap();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        plan.forward(&mut fab);
        for ((x, y), z) in fa.iter().zip(&fb).zip(&fab) {
            prop_assert!((x.re + y.re - z.re).abs() < 1e-6);
            prop_assert!((x.im + y.im - z.im).abs() < 1e-6);
        }
    }

    #[test]
    fn acf_bounded_and_starts_at_one(
        values in prop::collection::vec(-1e3f64..1e3, 8..64),
    ) {
        if let Ok(acf) = autocorrelation(&values, values.len() / 2) {
            prop_assert!((acf[0] - 1.0).abs() < 1e-9);
            for &v in &acf {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v));
            }
        }
    }

    #[test]
    fn fft_acf_matches_naive_oracle(
        values in prop::collection::vec(-1e3f64..1e3, 2..160),
        lag_frac in 0.0f64..1.0,
    ) {
        // Random signal, random lag up to n - 1: `autocorrelation`, which
        // takes the FFT path past a few thousand multiply-adds, must agree
        // with the direct-sum oracle within 1e-9 in ACF units, and both
        // must fail identically when either fails.
        let max_lag = (lag_frac * (values.len() - 1) as f64) as usize;
        match (
            autocorrelation_naive(&values, max_lag),
            autocorrelation(&values, max_lag),
        ) {
            (Ok(naive), Ok(fft)) => {
                prop_assert_eq!(naive.len(), fft.len());
                for (lag, (a, b)) in naive.iter().zip(&fft).enumerate() {
                    prop_assert!((a - b).abs() < 1e-9, "lag {}: {} vs {}", lag, a, b);
                }
            }
            (Err(_), Err(_)) => {}
            (naive, fft) => {
                return Err(TestCaseError::fail(format!(
                    "paths disagree on failure: naive {naive:?} vs fft {fft:?}"
                )));
            }
        }
    }

    #[test]
    fn downsample_mean_preserves_total_mean(
        values in prop::collection::vec(0.0f64..100.0, 12..120),
    ) {
        // With a factor dividing the length, means agree exactly.
        let len = values.len() - values.len() % 4;
        let s = Series::new(0, 5, values[..len].to_vec());
        let d = s.downsample_mean(4).unwrap();
        prop_assert!((mean(s.values()) - mean(d.values())).abs() < 1e-9);
    }

    #[test]
    fn daily_profile_mean_matches_series_mean(
        values in prop::collection::vec(0.0f64..100.0, 288..=288),
    ) {
        // Exactly one day of 5-minute samples: the profile IS the series.
        let s = Series::new(0, 5, values.clone());
        let profile = daily_profile(&s).unwrap();
        prop_assert_eq!(profile.len(), 288);
        for (p, v) in profile.iter().zip(&values) {
            prop_assert!((p - v).abs() < 1e-12);
        }
    }
}
