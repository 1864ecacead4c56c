//! The period detector as it was before it shared one spectrum between
//! its two stages, kept as the decision oracle of [`PeriodDetector`]:
//! an `N = next_pow2(n)` periodogram, a separate complex Wiener–Khinchin
//! ACF padded to `next_pow2(n + n/2)` (direct sums on short signals), and
//! on a gap-bearing signal a masked periodogram plus the direct
//! O(n·max_lag) masked ACF.
//!
//! The crate's unit tests compile it as `crate::reference`, and
//! `tests/decision_oracle.rs` includes this same file, so every path
//! below goes through `super::`, which names the crate root in both.
//!
//! [`PeriodDetector`]: super::period::PeriodDetector

use super::acf::{autocorrelation_naive, refine_on_acf};
use super::error::SeriesError;
use super::fft::{next_power_of_two, with_plan, Complex};
use super::period::{
    DetectedPeriod, MAX_CANDIDATES, MIN_ACF, MIN_POWER_FRACTION, REFINE_RADIUS_FRACTION,
};

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Errors
/// Returns [`SeriesError::NotPowerOfTwo`] unless `buf.len()` is a power of
/// two (and nonzero).
pub(crate) fn fft_in_place(buf: &mut [Complex]) -> Result<(), SeriesError> {
    let n = buf.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(SeriesError::NotPowerOfTwo(n));
    }
    // Bit-reversal permutation. `bits == 0` means n == 1: nothing to
    // permute, and the `64 - bits` shift below would overflow.
    let bits = n.trailing_zeros();
    if bits > 0 {
        for i in 0..n {
            let j = ((i as u64).reverse_bits() >> (64 - bits)) as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }
    // Butterfly passes.
    let mut len = 2;
    while len <= n {
        let angle = -std::f64::consts::TAU / len as f64;
        let w_len = Complex::new(angle.cos(), angle.sin());
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let t = chunk[k + half] * w;
                chunk[k] = Complex::new(u.re + t.re, u.im + t.im);
                chunk[k + half] = Complex::new(u.re - t.re, u.im - t.im);
                w = w * w_len;
            }
        }
        len <<= 1;
    }
    Ok(())
}

/// Inverse FFT via conjugation, for round-trip testing and convolution.
///
/// # Errors
/// Returns [`SeriesError::NotPowerOfTwo`] unless the length is a power of
/// two.
pub(crate) fn ifft_in_place(buf: &mut [Complex]) -> Result<(), SeriesError> {
    for c in buf.iter_mut() {
        c.im = -c.im;
    }
    fft_in_place(buf)?;
    let n = buf.len() as f64;
    for c in buf.iter_mut() {
        c.re /= n;
        c.im = -c.im / n;
    }
    Ok(())
}

/// Periodogram of a real signal: the signal is mean-centred, zero-padded
/// to the next power of two, transformed, and the one-sided power spectrum
/// `|X_k|²/N` returned for `k = 0..N/2`, with the padded length `N`.
///
/// # Errors
/// Returns [`SeriesError::TooShort`] for signals with fewer than 4 points.
pub(crate) fn periodogram(signal: &[f64]) -> Result<(Vec<f64>, usize), SeriesError> {
    if signal.len() < 4 {
        return Err(SeriesError::TooShort(signal.len()));
    }
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let n = next_power_of_two(signal.len());
    let power = with_plan(n, |plan, buf| {
        for (slot, &v) in buf.iter_mut().zip(signal) {
            *slot = Complex::new(v - mean, 0.0);
        }
        plan.forward(buf);
        buf[..n / 2]
            .iter()
            .map(|c| c.norm_sq() / n as f64)
            .collect()
    })?;
    Ok((power, n))
}

/// Mask-and-renormalize periodogram for gap-bearing signals (gaps are NaN
/// slots): the mean is taken over the present samples, gaps are replaced
/// by it (zero after centring), and the spectrum is rescaled by
/// `len / present`. Reduces exactly to [`periodogram`] on a dense signal.
///
/// # Errors
/// Returns [`SeriesError::TooShort`] if fewer than 4 samples are present.
pub(crate) fn periodogram_masked(signal: &[f64]) -> Result<(Vec<f64>, usize), SeriesError> {
    let mut mean = 0.0;
    let mut present = 0usize;
    for &v in signal {
        if v.is_finite() {
            mean += v;
            present += 1;
        }
    }
    if present < 4 {
        return Err(SeriesError::TooShort(present));
    }
    mean /= present as f64;
    let n = next_power_of_two(signal.len());
    let renorm = signal.len() as f64 / present as f64;
    let power = with_plan(n, |plan, buf| {
        for (slot, &v) in buf.iter_mut().zip(signal) {
            let centred = if v.is_finite() { v - mean } else { 0.0 };
            *slot = Complex::new(centred, 0.0);
        }
        plan.forward(buf);
        buf[..n / 2]
            .iter()
            .map(|c| c.norm_sq() / n as f64 * renorm)
            .collect()
    })?;
    Ok((power, n))
}

/// Complex Wiener–Khinchin ACF: the mean-centred signal zero-padded to
/// `m = next_pow2(n + max_lag)` as the real part of a complex transform,
/// `|X_k|²`, and the inverse transform, normalized by the time-domain
/// variance sum; lag 0 is pinned to `1.0`.
///
/// # Errors
/// - [`SeriesError::TooShort`] if the signal has fewer than 2 points or
///   `max_lag >= len`.
/// - [`SeriesError::ZeroVariance`] if the signal is constant.
pub(crate) fn autocorrelation_fft(signal: &[f64], max_lag: usize) -> Result<Vec<f64>, SeriesError> {
    let n = signal.len();
    if n < 2 || max_lag >= n {
        return Err(SeriesError::TooShort(n));
    }
    let mean = signal.iter().sum::<f64>() / n as f64;
    let var: f64 = signal.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var == 0.0 {
        return Err(SeriesError::ZeroVariance);
    }
    let mut buf = vec![Complex::default(); next_power_of_two(n + max_lag)];
    for (slot, &v) in buf.iter_mut().zip(signal) {
        *slot = Complex::new(v - mean, 0.0);
    }
    fft_in_place(&mut buf)?;
    for c in &mut buf {
        *c = Complex::new(c.norm_sq(), 0.0);
    }
    ifft_in_place(&mut buf)?;
    let mut acf = Vec::with_capacity(max_lag + 1);
    acf.push(1.0);
    acf.extend(buf[1..=max_lag].iter().map(|c| c.re / var));
    Ok(acf)
}

/// Direct mask-and-renormalize ACF for gap-bearing signals: mean and
/// variance over the present samples, each lag's covariance averaged over
/// its jointly-present pairs and rescaled by `(n - lag) / n`; a lag with
/// no jointly-present pair yields 0.
///
/// # Errors
/// - [`SeriesError::TooShort`] if fewer than 2 samples are present or
///   `max_lag >= len`.
/// - [`SeriesError::ZeroVariance`] if the present samples are constant.
pub(crate) fn autocorrelation_masked(
    signal: &[f64],
    max_lag: usize,
) -> Result<Vec<f64>, SeriesError> {
    let n = signal.len();
    if max_lag >= n {
        return Err(SeriesError::TooShort(n));
    }
    let mut mean = 0.0;
    let mut present = 0usize;
    for &v in signal {
        if v.is_finite() {
            mean += v;
            present += 1;
        }
    }
    if present < 2 {
        return Err(SeriesError::TooShort(present));
    }
    mean /= present as f64;
    let var: f64 = signal
        .iter()
        .filter(|v| v.is_finite())
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / present as f64;
    if var == 0.0 {
        return Err(SeriesError::ZeroVariance);
    }
    let mut acf = Vec::with_capacity(max_lag + 1);
    acf.push(1.0);
    for lag in 1..=max_lag {
        let mut cov = 0.0;
        let mut pairs = 0usize;
        for (a, b) in signal[..n - lag].iter().zip(&signal[lag..]) {
            if a.is_finite() && b.is_finite() {
                cov += (a - mean) * (b - mean);
                pairs += 1;
            }
        }
        if pairs == 0 {
            acf.push(0.0);
        } else {
            let damping = (n - lag) as f64 / n as f64;
            acf.push(cov / pairs as f64 / var * damping);
        }
    }
    Ok(acf)
}

/// The detector's two stages over the estimators above: periodogram
/// candidates, validated on ACF hills.
///
/// # Errors
/// - [`SeriesError::TooShort`] if fewer than 16 samples are present.
/// - [`SeriesError::ZeroVariance`] if the present samples are constant.
pub(crate) fn detect(
    values: &[f64],
    step_minutes: i64,
) -> Result<Vec<DetectedPeriod>, SeriesError> {
    let has_gaps = values.iter().any(|v| !v.is_finite());
    let present = values.iter().filter(|v| v.is_finite()).count();
    if present < 16 {
        return Err(SeriesError::TooShort(present));
    }
    let (power, padded_n) = if has_gaps {
        periodogram_masked(values)?
    } else {
        periodogram(values)?
    };
    let total_power: f64 = power.iter().skip(1).sum();
    if total_power <= 0.0 {
        return Err(SeriesError::ZeroVariance);
    }
    let mut bins: Vec<(usize, f64)> = power
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, &p)| (k, p / total_power))
        .filter(|&(_, frac)| frac >= MIN_POWER_FRACTION)
        .collect();
    bins.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite power"));
    bins.truncate(MAX_CANDIDATES);

    let max_lag = values.len() / 2;
    let acf = if has_gaps {
        autocorrelation_masked(values, max_lag)?
    } else if values.len() * (max_lag + 1) <= 4096 {
        // The dispatch `autocorrelation` made: direct sums below 4096
        // multiply-adds.
        autocorrelation_naive(values, max_lag)?
    } else {
        autocorrelation_fft(values, max_lag)?
    };
    let mut found: Vec<DetectedPeriod> = Vec::new();
    for (k, frac) in bins {
        let lag_estimate = (padded_n as f64 / k as f64).round() as usize;
        if lag_estimate < 2 || lag_estimate > max_lag {
            continue;
        }
        let radius = ((lag_estimate as f64 * REFINE_RADIUS_FRACTION) as usize).max(1);
        let Some((lag, strength)) = refine_on_acf(&acf, lag_estimate, radius, MIN_ACF) else {
            continue;
        };
        if found
            .iter()
            .any(|p| (p.lag as f64 - lag as f64).abs() < 0.1 * p.lag as f64)
        {
            continue;
        }
        found.push(DetectedPeriod {
            minutes: lag as f64 * step_minutes as f64,
            lag,
            acf_strength: strength,
            power_fraction: frac,
        });
    }
    found.sort_by(|a, b| b.acf_strength.partial_cmp(&a.acf_strength).expect("finite"));
    Ok(found)
}
