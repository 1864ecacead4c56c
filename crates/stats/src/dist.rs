//! Sampling distributions implemented from first principles on top of
//! [`rand`]'s uniform source: the standard normal (Box–Muller),
//! log-normal, exponential, Poisson, Zipf, and a Vose alias-method
//! categorical sampler.
//!
//! The trace generator composes these to produce deployment sizes
//! (heavy-tailed), lifetimes (binned mixtures), arrival processes, and
//! utilization noise.

use crate::error::StatsError;
use rand::Rng;

/// Standard normal via the Box–Muller transform (one value per draw).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StdNormal;

impl StdNormal {
    /// The two uniforms one draw consumes, in draw order: `u1 = 1 − U`
    /// (in `(0, 1]`, a multiple of 2⁻⁵³, so `ln u1` is finite), then
    /// `u2 = U` (in `[0, 1)`).
    pub fn uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        (u1, u2)
    }

    /// The Box–Muller transform `√(−2 ln u1) · cos(2π u2)` through libm:
    /// *the* normal every draw in this crate is, and the reference
    /// [`StdNormal::fast_from_uniforms`] is held to.
    #[inline]
    #[must_use]
    pub fn from_uniforms(u1: f64, u2: f64) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bound on `|fast_from_uniforms(u1, u2) − from_uniforms(u1, u2)|`
    /// over the uniforms [`StdNormal::uniforms`] draws (`u1` in
    /// `[2⁻⁵³, 1]`, `u2` in `[0, 1)`).
    ///
    /// Derivation (`|ln u1| ≤ 53 ln 2 < 37`, so `r ≤ 8.6`):
    /// - `ln`: libm is within one ulp (≤ 2⁻⁴⁷) of `ln u1`; the fast one
    ///   within 2⁻⁴⁶ (three roundings of ≤ 2⁻⁴⁸ on sums below 64, the
    ///   `LN_2` constant's 53 · 2⁻⁵⁴, a knot's 2⁻⁵³, a series tail below
    ///   2⁻⁵⁶/7). They differ by at most 2⁻⁴⁵.
    /// - radius: `|√a − √b| ≤ √|a − b|` with `a − b = −2 (ln − ln')`
    ///   gives `|r − r'| ≤ √2⁻⁴⁴ = 2⁻²²`, plus two `sqrt` roundings
    ///   (≤ 2⁻⁴⁹). This holds however close `u1` is to 1, where the
    ///   relative error of `ln` is unbounded.
    /// - angle: both cosines lie within 2⁻⁴⁹ of `cos 2πu2` (rounded
    ///   `2π u2` and libm on the exact side; table knots, a 2⁻⁶⁰
    ///   polynomial tail and three roundings on the fast side).
    /// - product: `|z − z'| ≤ |r − r'| + r · 2⁻⁴⁸ + 2⁻⁴⁹ < 2⁻²² + 2⁻⁴⁴`.
    ///
    /// 2.4·10⁻⁷ covers that with 1.5·10⁻⁹ to spare.
    pub const FAST_ERROR_BOUND: f64 = 2.4e-7;

    /// [`StdNormal::from_uniforms`] within [`StdNormal::FAST_ERROR_BOUND`],
    /// with no libm call: table-driven `ln` and `cos`, branch-free.
    ///
    /// `ln u1 = e ln 2 + ln c + log1p((m − c)/c)` for `u1 = 2ᵉ m`, `m` in
    /// `[1, 2)`, with `c` the nearest of 129 knots `1 + j/128` (so
    /// `|t| ≤ 2⁻⁸` and a degree-6 series suffices). The knots at 1 and 2
    /// carry `ln c` = 0 and `LN_2` exactly, so near `u1 = 1` the sum
    /// cancels exactly and `ln u1` keeps its relative accuracy.
    /// `cos 2πu2 = C cos θ − S sin θ` with `(C, S)` at the nearest of 512
    /// knots and `|θ| ≤ π/512`, degree-6 and degree-5 polynomials.
    ///
    /// Outside `u1` in `[2⁻⁵³, 1]` and `u2` in `[0, 1)` the bound does not
    /// hold.
    #[inline]
    #[must_use]
    pub fn fast_from_uniforms(u1: f64, u2: f64) -> f64 {
        let tables = &*FAST_TABLES;
        (-2.0 * tables.ln(u1)).sqrt() * tables.cos_turns(u2)
    }
}

impl StdNormal {
    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (u1, u2) = Self::uniforms(rng);
        Self::from_uniforms(u1, u2)
    }
}

/// Knot tables of [`StdNormal::fast_from_uniforms`], filled once by libm.
struct FastTables {
    /// `(ln c, 1/c)` at `c = 1 + j/128`, `j` in `0..=128`.
    ln_knots: [(f64, f64); LN_KNOTS + 1],
    /// `(cos, sin)` of `2πk/512`, `k` in `0..512`.
    trig_knots: [(f64, f64); TRIG_KNOTS],
}

const LN_KNOTS: usize = 128;
const TRIG_KNOTS: usize = 512;

static FAST_TABLES: std::sync::LazyLock<FastTables> = std::sync::LazyLock::new(|| {
    let mut ln_knots = [(0.0, 1.0); LN_KNOTS + 1];
    for (j, knot) in ln_knots.iter_mut().enumerate() {
        let c = 1.0 + j as f64 / LN_KNOTS as f64;
        *knot = (c.ln(), 1.0 / c);
    }
    // Exactly the constant `e · LN_2` uses, so `u1` just below 1
    // (e = −1, m near 2) cancels to 0 before the series is added.
    ln_knots[LN_KNOTS].0 = std::f64::consts::LN_2;
    let mut trig_knots = [(1.0, 0.0); TRIG_KNOTS];
    for (k, knot) in trig_knots.iter_mut().enumerate() {
        let angle = std::f64::consts::TAU * k as f64 / TRIG_KNOTS as f64;
        *knot = (angle.cos(), angle.sin());
    }
    FastTables {
        ln_knots,
        trig_knots,
    }
});

impl FastTables {
    /// `ln u` for a positive normal `u`.
    #[inline]
    fn ln(&self, u: f64) -> f64 {
        const FRACTION_BITS: u32 = 52;
        const ONE: u64 = 0x3ff0_0000_0000_0000;
        let bits = u.to_bits();
        let exponent = (bits >> FRACTION_BITS) as i64 - 1023;
        let fraction = bits & ((1 << FRACTION_BITS) - 1);
        let m = f64::from_bits(ONE | fraction);
        // The knot nearest to m: its top 8 fraction bits, rounded to 7;
        // c = 1 + j/128 assembled from its bits.
        let j = ((fraction >> (FRACTION_BITS - 8)) + 1) >> 1;
        let c = f64::from_bits(ONE + (j << (FRACTION_BITS - 7)));
        let (ln_c, inv_c) = self.ln_knots[(j as usize).min(LN_KNOTS)];
        // m − c is exact: both lie in [1, 2].
        let t = (m - c) * inv_c;
        let log1p_t = t
            * (1.0
                + t * (-1.0 / 2.0
                    + t * (1.0 / 3.0 + t * (-1.0 / 4.0 + t * (1.0 / 5.0 - t * (1.0 / 6.0))))));
        (exponent as f64 * std::f64::consts::LN_2 + ln_c) + log1p_t
    }

    /// `cos 2πu` for `u` in `[0, 1)`.
    #[inline]
    fn cos_turns(&self, u: f64) -> f64 {
        let x = u * TRIG_KNOTS as f64;
        // Adding 1.5 · 2⁵² rounds x to the nearest integer, which then
        // sits in the low bits: the knot without libm `round`.
        const ROUNDER: f64 = 6_755_399_441_055_744.0;
        let shifted = x + ROUNDER;
        let k = shifted.to_bits() as usize % TRIG_KNOTS;
        // Exact: |x − knot| ≤ 1/2.
        let theta = (x - (shifted - ROUNDER)) * (std::f64::consts::TAU / TRIG_KNOTS as f64);
        let (cos_k, sin_k) = self.trig_knots[k];
        let s = theta * theta;
        let cos_theta_m1 = s * (-1.0 / 2.0 + s * (1.0 / 24.0 - s * (1.0 / 720.0)));
        let sin_theta = theta * (1.0 + s * (-1.0 / 6.0 + s * (1.0 / 120.0)));
        cos_k + (cos_k * cos_theta_m1 - sin_k * sin_theta)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`. The canonical
/// heavy-tailed model for deployment sizes and lifetimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given log-space parameters.
    ///
    /// # Errors
    /// Returns [`StatsError::OutOfRange`] for invalid parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(StatsError::OutOfRange("log-normal parameters"));
        }
        Ok(Self { mu, sigma })
    }

    /// Creates a log-normal from its real-space median and the
    /// multiplicative spread `sigma` (log-space standard deviation).
    ///
    /// # Errors
    /// Returns [`StatsError::OutOfRange`] if `median <= 0`.
    pub fn from_median(median: f64, sigma: f64) -> Result<Self, StatsError> {
        if median <= 0.0 || !median.is_finite() {
            return Err(StatsError::OutOfRange("log-normal median"));
        }
        Self::new(median.ln(), sigma)
    }
}

impl LogNormal {
    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * StdNormal.sample(rng)).exp()
    }
}

/// Exponential distribution with the given rate (events per unit time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Errors
    /// Returns [`StatsError::OutOfRange`] unless `rate > 0` and finite.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if rate <= 0.0 || !rate.is_finite() {
            return Err(StatsError::OutOfRange("exponential rate"));
        }
        Ok(Self { rate })
    }
}

impl Exponential {
    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.random::<f64>();
        -u.ln() / self.rate
    }
}

/// Poisson distribution. Uses Knuth's product method for small means and a
/// normal approximation (rounded, clamped at zero) for large means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Errors
    /// Returns [`StatsError::OutOfRange`] unless `mean >= 0` and finite.
    pub fn new(mean: f64) -> Result<Self, StatsError> {
        if mean < 0.0 || !mean.is_finite() {
            return Err(StatsError::OutOfRange("poisson mean"));
        }
        Ok(Self { mean })
    }

    /// Draws one count.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean == 0.0 {
            return 0;
        }
        if self.mean < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^-λ.
            let limit = (-self.mean).exp();
            let mut count = 0u64;
            let mut product: f64 = rng.random();
            while product > limit {
                count += 1;
                product *= rng.random::<f64>();
            }
            count
        } else {
            let draw = self.mean + self.mean.sqrt() * StdNormal.sample(rng);
            draw.round().max(0.0) as u64
        }
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`: popularity of
/// services/subscriptions follows a power law.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Errors
    /// Returns [`StatsError::OutOfRange`] if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Result<Self, StatsError> {
        if n == 0 || s < 0.0 || !s.is_finite() {
            return Err(StatsError::OutOfRange("zipf parameters"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Ok(Self { cdf })
    }

    /// Draws a rank in `1..=n` (1 is most popular).
    pub fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

/// Weighted categorical sampling in O(1) per draw via Vose's alias method.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl Categorical {
    /// Builds the alias tables from non-negative weights.
    ///
    /// # Errors
    /// Returns [`StatsError::EmptyInput`] for no weights and
    /// [`StatsError::OutOfRange`] if any weight is negative/non-finite or
    /// all weights are zero.
    pub fn new(weights: &[f64]) -> Result<Self, StatsError> {
        if weights.is_empty() {
            return Err(StatsError::EmptyInput("categorical weights"));
        }
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(StatsError::OutOfRange("categorical weights"));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::OutOfRange("categorical weights sum to zero"));
        }
        let n = weights.len();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = large.pop().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self { prob, alias })
    }

    /// Draws one category index.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC10D)
    }

    fn moments(mut draw: impl FnMut(&mut StdRng) -> f64, n: usize) -> Summary {
        let mut r = rng();
        (0..n).map(|_| draw(&mut r)).collect()
    }

    #[test]
    fn std_normal_moments() {
        let s = moments(|r| StdNormal.sample(r), 200_000);
        assert!(s.mean().abs() < 0.02, "mean {}", s.mean());
        assert!((s.population_std_dev() - 1.0).abs() < 0.02);
    }

    #[test]
    fn fast_normal_stays_a_hundred_times_inside_its_bound() {
        let worst = |pairs: &mut dyn Iterator<Item = (f64, f64)>| {
            pairs
                .map(|(u1, u2)| {
                    (StdNormal::fast_from_uniforms(u1, u2) - StdNormal::from_uniforms(u1, u2)).abs()
                })
                .fold(0.0f64, f64::max)
        };
        let mut r = rng();
        let seeded = worst(&mut (0..10_000_000).map(|_| StdNormal::uniforms(&mut r)));

        let ulp = f64::EPSILON / 2.0; // 2⁻⁵³
        let mut u1s = vec![ulp, 1.0 - ulp, 1.0];
        // Every ln knot and the bin edges between them, at u1 = m / 2.
        for half_steps in 0..=2 * LN_KNOTS {
            let m = 1.0 + half_steps as f64 / (2 * LN_KNOTS) as f64;
            u1s.extend([m / 2.0 - ulp, m / 2.0, (m / 2.0 + ulp).min(1.0)]);
        }
        let mut u2s = vec![0.0, 1.0 - ulp];
        for half_steps in 0..2 * TRIG_KNOTS {
            let u2 = half_steps as f64 / (2 * TRIG_KNOTS) as f64;
            u2s.extend([(u2 - ulp).max(0.0), u2, u2 + ulp]);
        }
        let edges = worst(
            &mut u1s
                .iter()
                .flat_map(|&u1| u2s.iter().map(move |&u2| (u1, u2))),
        );

        for (what, err) in [("seeded", seeded), ("edges", edges)] {
            assert!(
                err <= StdNormal::FAST_ERROR_BOUND / 100.0,
                "{what}: worst |fast − exact| = {err:e}"
            );
        }
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median(8.0, 1.0).unwrap();
        let mut r = rng();
        let mut draws: Vec<f64> = (0..100_000).map(|_| d.sample(&mut r)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[draws.len() / 2];
        assert!((median - 8.0).abs() / 8.0 < 0.05, "median {median}");
        assert!(LogNormal::from_median(0.0, 1.0).is_err());
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let d = Exponential::new(0.25).unwrap();
        let s = moments(|r| d.sample(r), 100_000);
        assert!((s.mean() - 4.0).abs() < 0.1);
        let mut r = rng();
        assert!((0..10_000).all(|_| d.sample(&mut r) >= 0.0));
        assert!(Exponential::new(0.0).is_err());
    }

    #[test]
    fn poisson_small_and_large_regimes() {
        for mean in [0.5, 4.0, 100.0] {
            let d = Poisson::new(mean).unwrap();
            let s = moments(|r| d.sample_count(r) as f64, 60_000);
            assert!(
                (s.mean() - mean).abs() < mean.max(1.0) * 0.05,
                "mean {mean}: {}",
                s.mean()
            );
            assert!((s.population_variance() - mean).abs() < mean.max(1.0) * 0.15);
        }
        assert_eq!(Poisson::new(0.0).unwrap().sample_count(&mut rng()), 0);
        assert!(Poisson::new(-1.0).is_err());
    }

    #[test]
    fn zipf_rank_one_most_popular() {
        let d = Zipf::new(100, 1.2).unwrap();
        let mut r = rng();
        let mut counts = vec![0u32; 101];
        for _ in 0..50_000 {
            counts[d.sample_rank(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[10] > counts[90]);
        assert!(Zipf::new(0, 1.0).is_err());
    }

    #[test]
    fn categorical_matches_weights() {
        let c = Categorical::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[c.sample_index(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn categorical_error_cases() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[1.0, -2.0]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..5).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..5).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
