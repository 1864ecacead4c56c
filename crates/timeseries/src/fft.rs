//! Radix-2 iterative fast Fourier transform and the periodogram built on
//! it. Implemented from scratch: the period detector only needs power
//! spectra of zero-padded real signals.
//!
//! Two transform paths exist. [`fft_in_place`]/[`ifft_in_place`] are the
//! self-contained reference: they recompute twiddles incrementally on
//! every call. [`FftPlan`] precomputes the bit-reversal permutation and
//! twiddle table once per size, and [`with_plan`] caches plans (plus one
//! scratch buffer) per thread, so sweeps that transform thousands of
//! same-length series — the period detector over a whole trace — do no
//! redundant trig and near-zero per-series allocation. Thread-local
//! storage keeps the cache lock-free and composes with the per-thread
//! workers of `cloudscope-par`.

use crate::error::SeriesError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A complex number as a `(re, im)` pair; kept private-shaped but public
/// for testability of round-trips.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Squared magnitude.
    #[must_use]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Errors
/// Returns [`SeriesError::NotPowerOfTwo`] unless `buf.len()` is a power of
/// two (and nonzero).
pub fn fft_in_place(buf: &mut [Complex]) -> Result<(), SeriesError> {
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
pub fn ifft_in_place(buf: &mut [Complex]) -> Result<(), SeriesError> {
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

/// Smallest power of two ≥ `n`.
#[must_use]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// A precomputed FFT plan for one power-of-two size: the bit-reversal
/// permutation and the twiddle table `w_k = exp(-iτk/n)`, `k < n/2`.
/// Stage `len` of the butterfly pass uses every `(n/len)`-th twiddle, so
/// one table serves all stages with zero trig at transform time.
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    bit_rev: Vec<u32>,
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Errors
    /// Returns [`SeriesError::NotPowerOfTwo`] unless `n` is a nonzero
    /// power of two.
    pub fn new(n: usize) -> Result<Self, SeriesError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(SeriesError::NotPowerOfTwo(n));
        }
        let bits = n.trailing_zeros();
        let bit_rev = (0..n as u64)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    (i.reverse_bits() >> (64 - bits)) as u32
                }
            })
            .collect();
        let twiddles = (0..n / 2)
            .map(|k| {
                let angle = -std::f64::consts::TAU * k as f64 / n as f64;
                Complex::new(angle.cos(), angle.sin())
            })
            .collect();
        Ok(Self {
            n,
            bit_rev,
            twiddles,
        })
    }

    /// The transform length this plan serves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for the degenerate length-1 plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Forward DFT, in place.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub fn forward(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "buffer does not match plan length");
        for (i, &j) in self.bit_rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= self.n {
            let stride = self.n / len;
            let half = len / 2;
            for chunk in buf.chunks_mut(len) {
                for k in 0..half {
                    let w = self.twiddles[k * stride];
                    let u = chunk[k];
                    let t = chunk[k + half] * w;
                    chunk[k] = Complex::new(u.re + t.re, u.im + t.im);
                    chunk[k + half] = Complex::new(u.re - t.re, u.im - t.im);
                }
            }
            len <<= 1;
        }
    }

    /// Inverse DFT, in place (conjugate → forward → conjugate-and-scale).
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub fn inverse(&self, buf: &mut [Complex]) {
        for c in buf.iter_mut() {
            c.im = -c.im;
        }
        self.forward(buf);
        let n = self.n as f64;
        for c in buf.iter_mut() {
            c.re /= n;
            c.im = -c.im / n;
        }
    }
}

struct PlanCache {
    plans: HashMap<usize, Rc<FftPlan>>,
    scratch: Vec<Complex>,
}

thread_local! {
    static PLAN_CACHE: RefCell<PlanCache> = RefCell::new(PlanCache {
        plans: HashMap::new(),
        scratch: Vec::new(),
    });
}

/// Runs `f` with this thread's cached plan for size `n` and the shared
/// scratch buffer, resized to `n` and zeroed. Plans are built on first
/// use per thread and reused forever after; the scratch buffer grows to
/// the largest size requested and is reused across calls, so steady-state
/// transforms allocate nothing.
///
/// Re-entrancy: `f` may itself call `with_plan` — the cached scratch
/// buffer is taken out of the cache for the duration of the outer call,
/// so the inner call simply allocates a fresh buffer instead of reusing
/// the cached one. Correct, but the steady-state zero-allocation property
/// only holds for non-nested use.
///
/// # Errors
/// Returns [`SeriesError::NotPowerOfTwo`] unless `n` is a nonzero power
/// of two.
pub fn with_plan<R>(
    n: usize,
    f: impl FnOnce(&FftPlan, &mut Vec<Complex>) -> R,
) -> Result<R, SeriesError> {
    let (plan, mut scratch) = PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let plan = match cache.plans.get(&n).map(Rc::clone) {
            Some(plan) => {
                cloudscope_obs::counter("timeseries.fft.plan_cache_hits").inc();
                plan
            }
            None => {
                let plan = Rc::new(FftPlan::new(n)?);
                cloudscope_obs::counter("timeseries.fft.plan_cache_misses").inc();
                cache.plans.insert(n, Rc::clone(&plan));
                plan
            }
        };
        Ok((plan, std::mem::take(&mut cache.scratch)))
    })?;
    scratch.clear();
    scratch.resize(n, Complex::default());
    let result = f(&plan, &mut scratch);
    PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        // Keep the larger buffer so the cache converges on the biggest
        // working size instead of thrashing.
        if scratch.capacity() > cache.scratch.capacity() {
            cache.scratch = scratch;
        }
    });
    Ok(result)
}

/// Periodogram of a real signal: the signal is mean-centred, zero-padded
/// to the next power of two, transformed, and the one-sided power spectrum
/// `|X_k|²/N` returned for `k = 0..N/2`.
///
/// Frequency of bin `k` is `k / (N * step)` cycles per time unit, where
/// `N` is the padded length.
///
/// Returns the power vector and the padded length `N`.
///
/// # Errors
/// Returns [`SeriesError::TooShort`] for signals with fewer than 4 points.
pub fn periodogram(signal: &[f64]) -> Result<(Vec<f64>, usize), SeriesError> {
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
/// by it (zero after centring, so they inject no spurious power), and the
/// one-sided spectrum is rescaled by `len / present` to compensate for
/// the energy the masked slots cannot contribute. Reduces exactly to
/// [`periodogram`] on a dense signal.
///
/// # Errors
/// Returns [`SeriesError::TooShort`] if fewer than 4 samples are present.
pub fn periodogram_masked(signal: &[f64]) -> Result<(Vec<f64>, usize), SeriesError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_obs::testing::snapshot_diff;
    use cloudscope_obs::{Registry, Snapshot};
    use std::sync::Arc;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut buf).unwrap();
        for c in &buf {
            assert!(approx(c.re, 1.0, 1e-12) && approx(c.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let mut buf = vec![Complex::new(1.0, 0.0); 8];
        fft_in_place(&mut buf).unwrap();
        assert!(approx(buf[0].re, 8.0, 1e-12));
        for c in &buf[1..] {
            assert!(c.norm_sq() < 1e-20);
        }
    }

    #[test]
    fn fft_roundtrip() {
        let original: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut buf = original.clone();
        fft_in_place(&mut buf).unwrap();
        ifft_in_place(&mut buf).unwrap();
        for (a, b) in original.iter().zip(&buf) {
            assert!(approx(a.re, b.re, 1e-9) && approx(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn non_power_of_two_rejected() {
        let mut buf = vec![Complex::default(); 6];
        assert!(matches!(
            fft_in_place(&mut buf),
            Err(SeriesError::NotPowerOfTwo(6))
        ));
        let mut empty: Vec<Complex> = vec![];
        assert!(fft_in_place(&mut empty).is_err());
    }

    #[test]
    fn parseval_energy_conserved() {
        let signal: Vec<f64> = (0..128).map(|i| ((i as f64) * 0.1).sin() * 3.0).collect();
        let mut buf: Vec<Complex> = signal.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut buf).unwrap();
        let time_energy: f64 = signal.iter().map(|v| v * v).sum();
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sq()).sum::<f64>() / 128.0;
        assert!(approx(time_energy, freq_energy, 1e-6));
    }

    #[test]
    fn periodogram_peaks_at_signal_frequency() {
        // 8 cycles over 256 samples -> padded N = 256, peak at bin 8.
        let signal: Vec<f64> = (0..256)
            .map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / 256.0).sin())
            .collect();
        let (power, n) = periodogram(&signal).unwrap();
        assert_eq!(n, 256);
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 8);
    }

    #[test]
    fn periodogram_zero_pads_awkward_lengths() {
        let signal: Vec<f64> = (0..300)
            .map(|i| (std::f64::consts::TAU * i as f64 / 50.0).sin())
            .collect();
        let (power, n) = periodogram(&signal).unwrap();
        assert_eq!(n, 512);
        assert_eq!(power.len(), 256);
    }

    #[test]
    fn periodogram_rejects_tiny_input() {
        assert!(matches!(
            periodogram(&[1.0, 2.0]),
            Err(SeriesError::TooShort(2))
        ));
    }

    #[test]
    fn dc_removed_before_transform() {
        let signal = vec![5.0; 64];
        let (power, _) = periodogram(&signal).unwrap();
        assert!(power.iter().all(|&p| p < 1e-18));
    }

    #[test]
    fn planned_fft_matches_reference() {
        for n in [1usize, 2, 4, 64, 256] {
            let plan = FftPlan::new(n).unwrap();
            assert_eq!(plan.len(), n);
            let original: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let mut planned = original.clone();
            plan.forward(&mut planned);
            let mut reference = original.clone();
            fft_in_place(&mut reference).unwrap();
            for (a, b) in planned.iter().zip(&reference) {
                assert!(approx(a.re, b.re, 1e-9) && approx(a.im, b.im, 1e-9));
            }
            plan.inverse(&mut planned);
            for (a, b) in planned.iter().zip(&original) {
                assert!(approx(a.re, b.re, 1e-9) && approx(a.im, b.im, 1e-9));
            }
        }
    }

    #[test]
    fn plan_rejects_bad_lengths() {
        assert!(matches!(
            FftPlan::new(0),
            Err(SeriesError::NotPowerOfTwo(0))
        ));
        assert!(matches!(
            FftPlan::new(12),
            Err(SeriesError::NotPowerOfTwo(12))
        ));
        assert!(matches!(
            with_plan(6, |_, _| ()),
            Err(SeriesError::NotPowerOfTwo(6))
        ));
    }

    #[test]
    fn plan_cache_reuses_plans() {
        let registry = Arc::new(Registry::new());
        let counts = |snapshot: &Snapshot| {
            let get = |name| snapshot.counter(name).unwrap_or(0);
            (
                get("timeseries.fft.plan_cache_hits"),
                get("timeseries.fft.plan_cache_misses"),
            )
        };
        let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.21).sin()).collect();
        let (first, first_diff) = snapshot_diff(&registry, || periodogram(&signal).unwrap());
        let (second, second_diff) = snapshot_diff(&registry, || periodogram(&signal).unwrap());
        assert_eq!(first, second, "cached plan must not change results");
        // The second run of the same size must be a pure cache hit.
        let (hits, misses) = counts(&second_diff);
        assert_eq!(misses, 0);
        assert!(hits > 0);
        // The first run either built the plan or found it from an earlier
        // test on this thread.
        let (hits, misses) = counts(&first_diff);
        assert!(hits + misses > 0);
    }

    #[test]
    fn masked_periodogram_matches_dense_on_gap_free_signal() {
        let signal: Vec<f64> = (0..256)
            .map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / 256.0).sin())
            .collect();
        let dense = periodogram(&signal).unwrap();
        let masked = periodogram_masked(&signal).unwrap();
        assert_eq!(dense.1, masked.1);
        for (a, b) in dense.0.iter().zip(&masked.0) {
            assert!(approx(*a, *b, 1e-9));
        }
    }

    #[test]
    fn masked_periodogram_peak_survives_gaps() {
        let mut signal: Vec<f64> = (0..256)
            .map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / 256.0).sin())
            .collect();
        for i in (0..signal.len()).step_by(11) {
            signal[i] = f64::NAN;
        }
        for v in &mut signal[100..130] {
            *v = f64::NAN;
        }
        let (power, n) = periodogram_masked(&signal).unwrap();
        assert_eq!(n, 256);
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 8);
    }

    #[test]
    fn masked_periodogram_needs_four_present() {
        let signal = [1.0, f64::NAN, 2.0, f64::NAN, 3.0];
        assert!(matches!(
            periodogram_masked(&signal),
            Err(SeriesError::TooShort(3))
        ));
    }

    #[test]
    fn fft_of_single_sample_is_identity() {
        let mut buf = vec![Complex::new(2.5, -1.5)];
        fft_in_place(&mut buf).unwrap();
        assert_eq!(buf, vec![Complex::new(2.5, -1.5)]);
        ifft_in_place(&mut buf).unwrap();
        assert_eq!(buf, vec![Complex::new(2.5, -1.5)]);
    }

    #[test]
    fn with_plan_is_reentrant() {
        // The inner call takes an empty scratch and allocates fresh; both
        // levels must still compute correct transforms.
        let inner = with_plan(8, |_, outer_buf| {
            outer_buf[0] = Complex::new(1.0, 0.0);
            with_plan(4, |plan, buf| {
                buf[0] = Complex::new(1.0, 0.0);
                plan.forward(buf);
                buf.iter().map(|c| c.re).sum::<f64>()
            })
            .unwrap()
        })
        .unwrap();
        assert!((inner - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scratch_buffer_is_zeroed_between_uses() {
        // Fill scratch with garbage at one size, then check a smaller
        // transform still sees zeros in its padding.
        with_plan(64, |_, buf| {
            for c in buf.iter_mut() {
                *c = Complex::new(7.0, -3.0);
            }
        })
        .unwrap();
        with_plan(32, |_, buf| {
            assert!(buf.iter().all(|c| c.re == 0.0 && c.im == 0.0));
        })
        .unwrap();
    }
}
