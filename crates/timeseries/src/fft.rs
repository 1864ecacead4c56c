//! Radix-2 iterative fast Fourier transform, and its real-input form.
//! Implemented from scratch: the period detector only needs spectra of
//! zero-padded real signals.
//!
//! [`FftPlan`] precomputes the bit-reversal permutation and twiddle
//! table once per size (the test-only reference transform recomputes
//! twiddles incrementally on every call), and [`with_plan`] caches plans (plus one
//! scratch buffer) per thread, so sweeps that transform thousands of
//! same-length series — the period detector over a whole trace — do no
//! redundant trig and near-zero per-series allocation. Thread-local
//! storage keeps the cache lock-free and composes with the per-thread
//! workers of `cloudscope-par`.
//!
//! A real signal of length `2n` transforms on an `n`-point plan:
//! `FftPlan::forward_real` runs the complex transform of the signal
//! packed as `x[2j] + i·x[2j+1]` and splits it into the one-sided
//! spectrum; `FftPlan::unsplit_real` reverses the split, so
//! [`FftPlan::inverse`] then yields the packed real signal. The period
//! detector's spectrum (`crate::acf`) is their one user.

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

    /// Complex conjugate.
    #[must_use]
    pub(crate) fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// `i · self`.
    fn mul_i(self) -> Self {
        Self::new(-self.im, self.re)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
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

/// Smallest power of two ≥ `n`.
#[must_use]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// A precomputed FFT plan for one power-of-two size: the bit-reversal
/// permutation and the twiddle table `w_k = exp(-iτk/2n)`, `k < n`.
/// Stage `len` of the butterfly pass uses every `(2n/len)`-th twiddle,
/// and the real-input split of a `2n`-point signal uses all of them, so
/// one table serves both with zero trig at transform time. The stages
/// from `len = 8` up read their twiddles from a contiguous copy,
/// `stage_twiddles`, stage after stage: stage `len`'s `len/2` entries
/// start at `len/2 - 4`.
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    bit_rev: Vec<u32>,
    twiddles: Vec<Complex>,
    stage_twiddles: Vec<Complex>,
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
        let twiddles: Vec<Complex> = (0..n)
            .map(|k| {
                let angle = -std::f64::consts::TAU * k as f64 / (2 * n) as f64;
                Complex::new(angle.cos(), angle.sin())
            })
            .collect();
        let mut stage_twiddles = Vec::with_capacity(n.saturating_sub(4));
        let mut len = 8;
        while len <= n {
            let stride = 2 * n / len;
            stage_twiddles.extend(twiddles.iter().step_by(stride).take(len / 2));
            len <<= 1;
        }
        Ok(Self {
            n,
            bit_rev,
            twiddles,
            stage_twiddles,
        })
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
        // Stages 2 and 4, fused: their twiddles are 1 and -i, exactly.
        if self.n == 2 {
            let (u, t) = (buf[0], buf[1]);
            buf[0] = u + t;
            buf[1] = u - t;
        }
        for quad in buf.chunks_exact_mut(4) {
            let (a, b) = (quad[0] + quad[1], quad[0] - quad[1]);
            let (c, d) = (quad[2] + quad[3], quad[2] - quad[3]);
            let d = Complex::new(d.im, -d.re);
            quad[0] = a + c;
            quad[2] = a - c;
            quad[1] = b + d;
            quad[3] = b - d;
        }
        let mut half = 4;
        while half < self.n {
            let twiddles = &self.stage_twiddles[half - 4..2 * half - 4];
            for chunk in buf.chunks_exact_mut(2 * half) {
                let (low, high) = chunk.split_at_mut(half);
                for ((u, v), &w) in low.iter_mut().zip(high.iter_mut()).zip(twiddles) {
                    let (a, t) = (*u, *v * w);
                    *u = a + t;
                    *v = a - t;
                }
            }
            half <<= 1;
        }
    }

    /// Forward DFT of a real signal of length `2n` (`n` the planned
    /// length), given packed as `buf[j] = x[2j] + i·x[2j+1]`. On return
    /// `buf` holds the one-sided spectrum `X_0..=X_n`, one bin longer than
    /// it came in; the other bins are the conjugates `X_{2n-k} = conj X_k`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the planned length.
    pub(crate) fn forward_real(&self, buf: &mut Vec<Complex>) {
        self.forward(buf);
        let n = self.n;
        // With Z the packed transform, the even and odd samples' spectra
        // are E_k = (Z_k + conj Z_{n-k}) / 2 and O_k = (Z_k - conj Z_{n-k}) / 2i,
        // and X_k = E_k + w_k·O_k. Bins k and n - k share their inputs, so
        // each pair is written in place: X_{n-k} = conj(E_k - w_k·O_k).
        let z0 = buf[0];
        buf[0] = Complex::new(z0.re + z0.im, 0.0);
        buf.push(Complex::new(z0.re - z0.im, 0.0));
        for k in 1..=n / 2 {
            let (zk, zj) = (buf[k], buf[n - k]);
            let e = (zk + zj.conj()).scale(0.5);
            let wo = self.twiddles[k] * (zj.conj() - zk).scale(0.5).mul_i();
            buf[k] = e + wo;
            buf[n - k] = (e - wo).conj();
        }
    }

    /// Reverses [`FftPlan::forward_real`]'s split: from the one-sided
    /// spectrum `X_0..=X_n` of a real `2n`-point signal, leaves in `buf`
    /// the `n` bins whose [`FftPlan::inverse`] is that signal, packed as
    /// `x[2j] + i·x[2j+1]`.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not the planned length plus one.
    pub(crate) fn unsplit_real(&self, buf: &mut Vec<Complex>) {
        let n = self.n;
        assert_eq!(buf.len(), n + 1, "buffer is not a one-sided spectrum");
        // E_k = (X_k + conj X_{n-k}) / 2, O_k = (X_k - conj X_{n-k})·conj(w_k) / 2,
        // Z_k = E_k + i·O_k; the pair partner is Z_{n-k} = conj(E_k - i·O_k).
        let xn = buf.pop().unwrap_or_default();
        let x0 = buf[0];
        buf[0] = (x0 + xn.conj()).scale(0.5) + (x0 - xn.conj()).scale(0.5).mul_i();
        for k in 1..=n / 2 {
            let (xk, xj) = (buf[k], buf[n - k]);
            let e = (xk + xj.conj()).scale(0.5);
            let io = ((xk - xj.conj()) * self.twiddles[k].conj())
                .scale(0.5)
                .mul_i();
            buf[k] = e + io;
            buf[n - k] = (e - io).conj();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fft_in_place, ifft_in_place, periodogram, periodogram_masked};
    use cloudscope_obs::testing::snapshot_diff;
    use cloudscope_obs::{Registry, Snapshot};
    use proptest::prelude::*;
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
            assert_eq!(plan.n, n);
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

    #[test]
    fn real_transform_matches_complex_at_every_size() {
        // m = 2 runs the split on a length-1 plan.
        let mut m = 2;
        while m <= 4096 {
            let signal: Vec<f64> = (0..m)
                .map(|i| (i as f64 * 0.61).sin() * 3.0 + (i % 7) as f64)
                .collect();
            let mut reference: Vec<Complex> =
                signal.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft_in_place(&mut reference).unwrap();
            let plan = FftPlan::new(m / 2).unwrap();
            let mut buf: Vec<Complex> = signal
                .chunks(2)
                .map(|pair| Complex::new(pair[0], pair[1]))
                .collect();
            plan.forward_real(&mut buf);
            assert_eq!(buf.len(), m / 2 + 1);
            let tol = 1e-9 * m as f64;
            for (k, (a, b)) in buf.iter().zip(&reference).enumerate() {
                assert!(
                    approx(a.re, b.re, tol) && approx(a.im, b.im, tol),
                    "m {m} bin {k}: {a:?} vs {b:?}"
                );
            }
            plan.unsplit_real(&mut buf);
            plan.inverse(&mut buf);
            assert_eq!(buf.len(), m / 2);
            for (j, c) in buf.iter().enumerate() {
                assert!(approx(c.re, signal[2 * j], 1e-9), "m {m} sample {}", 2 * j);
                assert!(
                    approx(c.im, signal[2 * j + 1], 1e-9),
                    "m {m} sample {}",
                    2 * j + 1
                );
            }
            m *= 2;
        }
    }

    proptest! {
        #[test]
        fn periodogram_power_nonnegative(
            values in prop::collection::vec(-1e3f64..1e3, 8..128),
        ) {
            let (power, n) = periodogram(&values).unwrap();
            prop_assert!(n.is_power_of_two());
            prop_assert!(n >= values.len());
            for &p in &power {
                prop_assert!(p >= 0.0);
            }
        }
    }
}
