//! Autocorrelation function and helpers for validating candidate periods
//! on the ACF, the second stage of Vlachos-style period detection.
//!
//! Two implementations share one contract. [`autocorrelation_naive`] is
//! the O(n·max_lag) reference oracle, a direct transcription of the
//! biased estimator. The other computes the same estimator through the
//! Wiener–Khinchin theorem, as the inverse transform of the power
//! spectrum, in O(m log m) for `m = next_pow2(n + max_lag)`.
//! [`autocorrelation`] dispatches: the transform for the large inputs
//! the period detector feeds it, direct sums where they are cheaper.
//!
//! [`Spectrum`] is that transform, shared with the period detector: one
//! forward transform of the centred signal in the thread-local plan
//! scratch of [`crate::fft`], whose bins the periodogram reads before the
//! one inverse turns them into the ACF. A dense signal takes the
//! real-input transform on a half-length plan. A gap-bearing one carries
//! the centred signal (gaps zeroed) and its presence mask as the real and
//! imaginary parts of one complex transform, so the same inverse yields
//! each lag's covariance sum and its count of jointly-present pairs.

use crate::error::SeriesError;
use crate::fft::{next_power_of_two, with_plan, Complex, FftPlan};

/// Below this many multiply-adds (`n · (max_lag + 1)`), the direct sums
/// beat the FFT's fixed costs; measured crossover is a few thousand.
const NAIVE_WORK_CUTOFF: usize = 4096;

/// Sample autocorrelation at lags `0..=max_lag` of a signal.
///
/// Uses the biased estimator (normalizing by `n` at every lag), which is
/// what periodicity detection expects: it damps long-lag noise. Large
/// inputs are computed via FFT (Wiener–Khinchin), small ones directly;
/// both paths agree within `1e-9` in ACF units.
///
/// # Errors
/// - [`SeriesError::TooShort`] if the signal has fewer than 2 points or
///   `max_lag >= len`.
/// - [`SeriesError::ZeroVariance`] if the signal is constant.
///
/// # Examples
/// ```
/// # use cloudscope_timeseries::acf::autocorrelation;
/// # fn main() -> Result<(), cloudscope_timeseries::error::SeriesError> {
/// let acf = autocorrelation(&[1.0, -1.0, 1.0, -1.0, 1.0, -1.0], 2)?;
/// assert!((acf[0] - 1.0).abs() < 1e-12);
/// assert!(acf[1] < 0.0); // alternating signal
/// assert!(acf[2] > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn autocorrelation(signal: &[f64], max_lag: usize) -> Result<Vec<f64>, SeriesError> {
    if signal.len().saturating_mul(max_lag + 1) <= NAIVE_WORK_CUTOFF {
        autocorrelation_naive(signal, max_lag)
    } else {
        autocorrelation_fft(signal, max_lag)
    }
}

/// Direct O(n·max_lag) biased-estimator autocorrelation: the reference
/// oracle the FFT path is verified against.
///
/// # Errors
/// Same contract as [`autocorrelation`].
pub fn autocorrelation_naive(signal: &[f64], max_lag: usize) -> Result<Vec<f64>, SeriesError> {
    let centred = Centred::dense(signal, max_lag)?;
    let n = signal.len();
    let mut acf = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let cov: f64 = signal[..n - lag]
            .iter()
            .zip(&signal[lag..])
            .map(|(a, b)| (a - centred.mean) * (b - centred.mean))
            .sum();
        acf.push(cov / centred.var_sum);
    }
    Ok(acf)
}

/// The Wiener–Khinchin path of [`autocorrelation`], whatever the size.
fn autocorrelation_fft(signal: &[f64], max_lag: usize) -> Result<Vec<f64>, SeriesError> {
    let centred = Centred::dense(signal, max_lag)?;
    with_plan(centred.plan_len(), |plan, buf| {
        Spectrum::new(plan, buf, signal, &centred).acf(max_lag)
    })
}

/// A signal's length, mean and variance sum, over its present (finite)
/// samples: what the spectrum is centred by and the ACF normalized by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Centred {
    /// Samples, gaps included.
    pub(crate) len: usize,
    /// Present samples.
    pub(crate) present: usize,
    /// Mean of the present samples.
    pub(crate) mean: f64,
    /// `Σ (v - mean)²` over the present samples.
    pub(crate) var_sum: f64,
    /// Whether the spectrum is taken with the presence mask and the ACF
    /// with the masked estimator: set when some sample is a gap.
    pub(crate) masked: bool,
    /// The transform length: room for every lag up to `max_lag` without
    /// circular wrap-around.
    pub(crate) m: usize,
}

impl Centred {
    /// Centres a signal that may have gaps (NaN slots) for lags
    /// `0..=max_lag`.
    ///
    /// # Errors
    /// - [`SeriesError::TooShort`] if `max_lag >= len` (with the length)
    ///   or fewer than `min_present` samples are present (with that count).
    /// - [`SeriesError::ZeroVariance`] if the present samples are constant.
    pub(crate) fn new(
        signal: &[f64],
        max_lag: usize,
        min_present: usize,
    ) -> Result<Self, SeriesError> {
        let len = signal.len();
        if max_lag >= len {
            return Err(SeriesError::TooShort(len));
        }
        let (mut sum, mut present) = (0.0, 0usize);
        for &v in signal {
            if v.is_finite() {
                sum += v;
                present += 1;
            }
        }
        if present < min_present {
            return Err(SeriesError::TooShort(present));
        }
        let mean = sum / present as f64;
        let var_sum: f64 = signal
            .iter()
            .filter(|v| v.is_finite())
            .map(|v| (v - mean) * (v - mean))
            .sum();
        if var_sum == 0.0 {
            return Err(SeriesError::ZeroVariance);
        }
        Ok(Self {
            len,
            present,
            mean,
            var_sum,
            masked: present < len,
            m: next_power_of_two(len + max_lag),
        })
    }

    /// Centres a dense signal: every sample counts, NaN included.
    fn dense(signal: &[f64], max_lag: usize) -> Result<Self, SeriesError> {
        let len = signal.len();
        if len < 2 || max_lag >= len {
            return Err(SeriesError::TooShort(len));
        }
        let mean = signal.iter().sum::<f64>() / len as f64;
        let var_sum: f64 = signal.iter().map(|v| (v - mean) * (v - mean)).sum();
        if var_sum == 0.0 {
            return Err(SeriesError::ZeroVariance);
        }
        Ok(Self {
            len,
            present: len,
            mean,
            var_sum,
            masked: false,
            m: next_power_of_two(len + max_lag),
        })
    }

    /// The plan length [`Spectrum::new`] needs: half the transform length
    /// for the real-input transform of a dense signal, all of it for the
    /// complex transform that carries a gap-bearing signal and its mask.
    pub(crate) fn plan_len(&self) -> usize {
        if self.masked {
            self.m
        } else {
            self.m / 2
        }
    }
}

/// The power spectrum of a centred signal, zero-padded to `m` points,
/// held in the plan scratch: `power(k) = |X_k|²` for `k ≤ m/2`.
pub(crate) struct Spectrum<'a> {
    plan: &'a FftPlan,
    buf: &'a mut Vec<Complex>,
    centred: &'a Centred,
}

impl<'a> Spectrum<'a> {
    /// One forward transform of `signal`, centred by `centred`, on the
    /// plan and scratch of [`Centred::plan_len`].
    pub(crate) fn new(
        plan: &'a FftPlan,
        buf: &'a mut Vec<Complex>,
        signal: &[f64],
        centred: &'a Centred,
    ) -> Self {
        let mean = centred.mean;
        if centred.masked {
            // Centred signal (gaps zeroed) + i·mask; the buffer comes zeroed.
            for (slot, &v) in buf.iter_mut().zip(signal) {
                if v.is_finite() {
                    *slot = Complex::new(v - mean, 1.0);
                }
            }
            plan.forward(buf);
            // Z = X + i·M with X, M the spectra of the two real parts:
            // X_k = (Z_k + conj Z_{m-k}) / 2, |M_k| = |Z_k - conj Z_{m-k}| / 2.
            // Both power spectra are even, so bins k and m - k get the
            // same |X_k|² + i·|M_k|², whose inverse is the covariance sums
            // plus i·the pair counts.
            let m = buf.len();
            let z0 = buf[0];
            buf[0] = Complex::new(z0.re * z0.re, z0.im * z0.im);
            for k in 1..=m / 2 {
                let (zk, zj) = (buf[k], buf[m - k]);
                let power = Complex::new(
                    (zk + zj.conj()).norm_sq() / 4.0,
                    (zk - zj.conj()).norm_sq() / 4.0,
                );
                buf[k] = power;
                buf[m - k] = power;
            }
        } else {
            for (slot, pair) in buf.iter_mut().zip(signal.chunks(2)) {
                let odd = pair.get(1).map_or(0.0, |v| v - mean);
                *slot = Complex::new(pair[0] - mean, odd);
            }
            plan.forward_real(buf);
            for c in buf.iter_mut() {
                *c = Complex::new(c.norm_sq(), 0.0);
            }
        }
        Self { plan, buf, centred }
    }

    /// `|X_k|²` (unnormalized) of the centred signal, gaps zeroed, for
    /// `k ≤ m/2`.
    pub(crate) fn power(&self, k: usize) -> f64 {
        self.buf[k].re
    }

    /// The ACF at lags `0..=max_lag` (`max_lag` at most the one the
    /// transform length was chosen for), by the Wiener–Khinchin theorem:
    /// the inverse transform of the power spectrum is the autocovariance
    /// sums. A dense signal gets the biased estimator of
    /// [`autocorrelation`]; a gap-bearing one averages each lag over its
    /// jointly-present pairs and rescales by `(n - lag) / n`, which
    /// reduces to the biased estimator on a dense signal, and a lag with
    /// no such pair yields 0 (no evidence). Lag 0 is exactly `1.0`.
    pub(crate) fn acf(self, max_lag: usize) -> Vec<f64> {
        let Self { plan, buf, centred } = self;
        let masked = centred.masked;
        if !masked {
            plan.unsplit_real(buf);
        }
        plan.inverse(buf);
        let mut acf = Vec::with_capacity(max_lag + 1);
        acf.push(1.0);
        if masked {
            // Covariance sums in the real parts, pair counts (integers up
            // to rounding) in the imaginary parts.
            let n = centred.len as f64;
            let var = centred.var_sum / centred.present as f64;
            acf.extend((1..=max_lag).map(|lag| {
                let pairs = buf[lag].im.round();
                if pairs < 1.0 {
                    0.0
                } else {
                    let damping = (n - lag as f64) / n;
                    buf[lag].re / pairs / var * damping
                }
            }));
        } else {
            // The real signal comes back packed: lag 2j in buf[j].re,
            // lag 2j + 1 in buf[j].im.
            acf.extend((1..=max_lag).map(|lag| {
                let c = buf[lag / 2];
                let cov = if lag % 2 == 0 { c.re } else { c.im };
                cov / centred.var_sum
            }));
        }
        acf
    }
}

/// `true` if `lag` sits on a *hill* of the ACF: a local maximum whose
/// value exceeds `threshold`. Vlachos et al. validate periodogram
/// candidates by requiring them to land on an ACF hill rather than a
/// valley; this rejects spectral-leakage false positives.
#[must_use]
pub fn is_acf_hill(acf: &[f64], lag: usize, threshold: f64) -> bool {
    if lag == 0 || lag + 1 >= acf.len() {
        return false;
    }
    let v = acf[lag];
    // Look one step and a few steps out so flat-topped hills still count.
    let left = acf[lag - 1];
    let right = acf[lag + 1];
    v >= threshold && v >= left && v >= right
}

/// Searches the neighbourhood `lag ± radius` for the strongest ACF hill
/// and returns `(refined_lag, acf_value)` if one clears `threshold`.
#[must_use]
pub fn refine_on_acf(
    acf: &[f64],
    lag: usize,
    radius: usize,
    threshold: f64,
) -> Option<(usize, f64)> {
    let lo = lag.saturating_sub(radius).max(1);
    let hi = (lag + radius).min(acf.len().saturating_sub(2));
    let mut best: Option<(usize, f64)> = None;
    for cand in lo..=hi {
        if is_acf_hill(acf, cand, threshold) {
            match best {
                Some((_, v)) if v >= acf[cand] => {}
                _ => best = Some((cand, acf[cand])),
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// The masked estimator, taken with the mask's transform layout even
    /// on a gap-free signal.
    fn autocorrelation_masked(signal: &[f64], max_lag: usize) -> Result<Vec<f64>, SeriesError> {
        let mut centred = Centred::new(signal, max_lag, 2)?;
        centred.masked = true;
        with_plan(centred.plan_len(), |plan, buf| {
            Spectrum::new(plan, buf, signal, &centred).acf(max_lag)
        })
    }

    fn sine(period: usize, cycles: usize) -> Vec<f64> {
        (0..period * cycles)
            .map(|i| (std::f64::consts::TAU * i as f64 / period as f64).sin())
            .collect()
    }

    #[test]
    fn lag_zero_is_one() {
        let acf = autocorrelation(&[1.0, 3.0, 2.0, 5.0], 2).unwrap();
        assert!((acf[0] - 1.0).abs() < 1e-12);
        assert_eq!(acf.len(), 3);
    }

    #[test]
    fn periodic_signal_peaks_at_period() {
        let signal = sine(24, 6);
        let acf = autocorrelation(&signal, 48).unwrap();
        // The ACF at the true period is a strong hill.
        assert!(acf[24] > 0.8, "acf[24] = {}", acf[24]);
        assert!(is_acf_hill(&acf, 24, 0.5));
        // Half-period is a valley for a sine.
        assert!(acf[12] < -0.5);
        assert!(!is_acf_hill(&acf, 12, 0.0));
    }

    #[test]
    fn white_noise_has_small_acf() {
        // Deterministic pseudo-noise via a splitmix64-style hash.
        fn hash_noise(i: u64) -> f64 {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z = z ^ (z >> 31);
            (z % 10_000) as f64 / 10_000.0
        }
        let signal: Vec<f64> = (0..512).map(hash_noise).collect();
        let acf = autocorrelation(&signal, 32).unwrap();
        for &v in &acf[1..] {
            assert!(v.abs() < 0.2, "noise acf too large: {v}");
        }
    }

    #[test]
    fn error_conditions() {
        assert!(matches!(
            autocorrelation(&[1.0], 0),
            Err(SeriesError::TooShort(1))
        ));
        assert!(matches!(
            autocorrelation(&[1.0, 2.0, 3.0], 3),
            Err(SeriesError::TooShort(3))
        ));
        assert!(matches!(
            autocorrelation(&[2.0, 2.0, 2.0], 1),
            Err(SeriesError::ZeroVariance)
        ));
    }

    #[test]
    fn both_implementations_share_error_semantics() {
        for f in [
            autocorrelation_naive,
            autocorrelation_fft,
            reference::autocorrelation_fft,
        ] {
            assert!(matches!(f(&[1.0], 0), Err(SeriesError::TooShort(1))));
            assert!(matches!(
                f(&[1.0, 2.0, 3.0], 3),
                Err(SeriesError::TooShort(3))
            ));
            assert!(matches!(
                f(&[2.0, 2.0, 2.0], 1),
                Err(SeriesError::ZeroVariance)
            ));
        }
    }

    #[test]
    fn fft_matches_naive_on_periodic_signal() {
        let signal = sine(24, 12);
        let naive = autocorrelation_naive(&signal, signal.len() / 2).unwrap();
        let fft = autocorrelation_fft(&signal, signal.len() / 2).unwrap();
        let complex = reference::autocorrelation_fft(&signal, signal.len() / 2).unwrap();
        assert_eq!(naive.len(), fft.len());
        for (lag, ((a, b), c)) in naive.iter().zip(&fft).zip(&complex).enumerate() {
            assert!((a - b).abs() < 1e-9, "lag {lag}: naive {a} vs fft {b}");
            assert!((c - b).abs() < 1e-9, "lag {lag}: complex {c} vs fft {b}");
        }
        assert_eq!(fft[0], 1.0, "lag 0 is pinned exactly");
    }

    #[test]
    fn fft_matches_naive_on_awkward_lengths() {
        // Non-power-of-two lengths and max_lag = n - 1 (the tightest
        // padding case, m = next_pow2(2n - 1)).
        for n in [2usize, 3, 5, 37, 100, 333] {
            let signal: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.83).sin() + 0.1 * i as f64)
                .collect();
            let naive = autocorrelation_naive(&signal, n - 1).unwrap();
            let fft = autocorrelation_fft(&signal, n - 1).unwrap();
            for (lag, (a, b)) in naive.iter().zip(&fft).enumerate() {
                assert!((a - b).abs() < 1e-9, "n {n} lag {lag}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dispatcher_uses_fft_above_cutoff() {
        // Large enough that the dispatcher takes the FFT path; results
        // must stay within oracle tolerance either way.
        let signal = sine(288, 7);
        let via_dispatch = autocorrelation(&signal, signal.len() / 2).unwrap();
        let naive = autocorrelation_naive(&signal, signal.len() / 2).unwrap();
        for (a, b) in via_dispatch.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn refine_finds_nearby_hill() {
        let signal = sine(20, 8);
        let acf = autocorrelation(&signal, 60).unwrap();
        // Candidate slightly off the true period is refined to it.
        let (lag, v) = refine_on_acf(&acf, 18, 4, 0.3).expect("hill found");
        assert_eq!(lag, 20);
        assert!(v > 0.8);
        // No hill clears an impossible threshold.
        assert!(refine_on_acf(&acf, 18, 4, 0.999999).is_none());
    }

    #[test]
    fn hill_edges_are_not_hills() {
        let acf = vec![1.0, 0.9, 0.8];
        assert!(!is_acf_hill(&acf, 0, 0.0));
        assert!(!is_acf_hill(&acf, 2, 0.0));
    }

    #[test]
    fn masked_matches_dense_on_gap_free_signal() {
        let signal = sine(24, 8);
        let dense = autocorrelation(&signal, signal.len() / 2).unwrap();
        let masked = autocorrelation_masked(&signal, signal.len() / 2).unwrap();
        for (lag, (a, b)) in dense.iter().zip(&masked).enumerate() {
            assert!((a - b).abs() < 1e-9, "lag {lag}: dense {a} vs masked {b}");
        }
    }

    #[test]
    fn masked_recovers_period_under_loss() {
        // Knock out every 7th sample plus a contiguous blackout; the
        // period-24 hill must survive.
        let mut signal = sine(24, 8);
        for i in (0..signal.len()).step_by(7) {
            signal[i] = f64::NAN;
        }
        for v in &mut signal[60..90] {
            *v = f64::NAN;
        }
        let acf = autocorrelation_masked(&signal, 60).unwrap();
        assert!(acf[24] > 0.6, "acf[24] = {}", acf[24]);
        assert!(acf[12] < -0.3, "acf[12] = {}", acf[12]);
        assert_eq!(acf[0], 1.0);
    }

    #[test]
    fn masked_error_conditions() {
        assert!(matches!(
            autocorrelation_masked(&[f64::NAN, 1.0, f64::NAN], 1),
            Err(SeriesError::TooShort(1))
        ));
        assert!(matches!(
            autocorrelation_masked(&[1.0, 2.0], 2),
            Err(SeriesError::TooShort(2))
        ));
        assert!(matches!(
            autocorrelation_masked(&[3.0, f64::NAN, 3.0, 3.0], 1),
            Err(SeriesError::ZeroVariance)
        ));
    }

    #[test]
    fn masked_matches_direct_sums_and_empty_lags_read_zero() {
        // Present only at even slots, then only in the two outer quarters
        // of 64: odd lags, then lags 16..=32, have no jointly-present pair
        // and must read exactly 0.
        let even: Vec<f64> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    (i as f64 * 0.37).sin()
                } else {
                    f64::NAN
                }
            })
            .collect();
        let quarters: Vec<f64> = (0..64)
            .map(|i| {
                if (16..48).contains(&i) {
                    f64::NAN
                } else {
                    (i as f64 * 0.91).cos()
                }
            })
            .collect();
        let odd_lags: Vec<usize> = (1..=32).step_by(2).collect();
        let middle_lags: Vec<usize> = (16..=32).collect();
        for (signal, empty) in [(&even, odd_lags), (&quarters, middle_lags)] {
            let direct = reference::autocorrelation_masked(signal, 32).unwrap();
            let fast = autocorrelation_masked(signal, 32).unwrap();
            for (lag, (a, b)) in direct.iter().zip(&fast).enumerate() {
                assert!((a - b).abs() < 1e-9, "lag {lag}: direct {a} vs fft {b}");
            }
            for lag in empty {
                assert_eq!(direct[lag], 0.0, "lag {lag} has no pair");
                assert_eq!(fast[lag], 0.0, "lag {lag} has no pair");
            }
        }
    }
}
