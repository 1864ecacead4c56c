//! Benchmark for the per-series analysis fast path: autocorrelation of
//! a week of samples, naive oracle vs FFT. Results merge into
//! `BENCH_analysis.json` at the repo root, where
//! `scripts/bench_gates.json` bounds their ratio.

use cloudscope::timeseries::acf::{autocorrelation_fft, autocorrelation_naive};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Week of 5-minute samples, the series length every per-VM analysis sees.
const WEEK_SAMPLES: usize = 2016;

/// Daily sine + weekly trend + deterministic hash noise: enough
/// structure to exercise every ACF lag without a flat spectrum.
fn week_signal() -> Vec<f64> {
    (0..WEEK_SAMPLES)
        .map(|i| {
            let t = i as f64;
            let daily = (std::f64::consts::TAU * t / 288.0).sin() * 20.0;
            let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = z ^ (z >> 31);
            50.0 + daily + 0.002 * t + (z % 1000) as f64 / 250.0
        })
        .collect()
}

fn bench_autocorrelation(c: &mut Criterion) {
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_analysis.json"
    ));
    let signal = week_signal();
    let max_lag = WEEK_SAMPLES / 2;
    let mut group = c.benchmark_group("autocorrelation");
    group.sample_size(20);
    group.bench_function("naive/2016", |b| {
        b.iter(|| autocorrelation_naive(black_box(&signal), max_lag).unwrap());
    });
    group.bench_function("fft/2016", |b| {
        b.iter(|| autocorrelation_fft(black_box(&signal), max_lag).unwrap());
    });
    group.finish();
}

criterion_group!(analysis, bench_autocorrelation);
criterion_main!(analysis);
