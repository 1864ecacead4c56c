//! Benchmark for the per-series analysis fast path: autocorrelation of
//! a week of samples, naive oracle vs FFT; one forward transform at the
//! period detector's two plan sizes; the pattern classifier's hourly
//! query on its two-day window, dense and gap-bearing; and one whole
//! classification of a stored week, dense and gap-bearing.
//! Results merge into `BENCH_analysis.json` at the repo root, where
//! `scripts/bench_gates.json` bounds the ACF ratio.

use cloudscope::analysis::PatternClassifier;
use cloudscope::model::telemetry::UtilSeries;
use cloudscope::model::time::SimTime;
use cloudscope::timeseries::acf::{autocorrelation, autocorrelation_naive};
use cloudscope::timeseries::fft::{Complex, FftPlan};
use cloudscope::timeseries::PeriodDetector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Week of 5-minute samples, the series length every per-VM analysis sees.
const WEEK_SAMPLES: usize = 2016;

/// The classifier's hourly-peak window: two days of 5-minute samples.
const TWO_DAY_SAMPLES: usize = 576;

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
        b.iter(|| autocorrelation(black_box(&signal), max_lag).unwrap());
    });
    group.finish();
}

fn bench_period_detect(c: &mut Criterion) {
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_analysis.json"
    ));
    let dense = week_signal()[..TWO_DAY_SAMPLES].to_vec();
    // A two-hour blackout plus scattered loss: still gap-bearing after
    // the classifier's 30-minute fill, so the masked estimator runs.
    let mut gapped = dense.clone();
    for v in &mut gapped[200..224] {
        *v = f64::NAN;
    }
    for v in gapped.iter_mut().step_by(17) {
        *v = f64::NAN;
    }
    // The classifier's hourly-peak query: a daily signal has no
    // candidate near it, so this is the cost of a detection that ends
    // after its periodogram.
    let hourly = |values: &[f64]| PeriodDetector.has_period_near(values, 5, &[60.0, 30.0], 12.0);
    let mut group = c.benchmark_group("period");
    group.sample_size(20);
    group.bench_function("detect/dense", |b| {
        b.iter(|| hourly(black_box(&dense)));
    });
    group.bench_function("detect/gapped", |b| {
        b.iter(|| hourly(black_box(&gapped)));
    });
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_analysis.json"
    ));
    let mut group = c.benchmark_group("fft");
    group.sample_size(20);
    // The real-input plans of the two-day window (1024-point spectrum)
    // and of the half-hourly week (512-point).
    for n in [256usize, 512] {
        let plan = FftPlan::new(n).expect("power of two");
        let input: Vec<Complex> = week_signal()
            .chunks(2)
            .take(n)
            .map(|pair| Complex::new(pair[0], pair[1]))
            .collect();
        let mut buf = input.clone();
        group.bench_function(&format!("forward/{n}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&input);
                plan.forward(black_box(&mut buf));
            });
        });
    }
    group.finish();
}

fn bench_classify(c: &mut Criterion) {
    c.json_output(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_analysis.json"
    ));
    let stored = |values: &[f64]| {
        UtilSeries::from_percentages(SimTime::ZERO, values.iter().map(|&v| v as f32))
    };
    let week = week_signal();
    let dense = stored(&week);
    // Scattered loss the fill repairs plus a six-hour blackout it does
    // not: the masked estimator runs on both detections.
    let mut holes = week;
    for v in holes.iter_mut().step_by(23) {
        *v = f64::NAN;
    }
    for v in &mut holes[700..772] {
        *v = f64::NAN;
    }
    let gapped = stored(&holes);
    let classifier = PatternClassifier;
    let mut group = c.benchmark_group("classify");
    group.sample_size(20);
    group.bench_function("util/dense", |b| {
        b.iter(|| classifier.classify_util(black_box(&dense)));
    });
    group.bench_function("util/gapped", |b| {
        b.iter(|| classifier.classify_util(black_box(&gapped)));
    });
    group.finish();
}

criterion_group!(
    analysis,
    bench_autocorrelation,
    bench_period_detect,
    bench_fft,
    bench_classify
);
criterion_main!(analysis);
