//! Streaming summary statistics (Welford's algorithm) and the coefficient
//! of variation used throughout the study (Figure 3(d)).

use serde::{Deserialize, Serialize};

/// Single-pass, numerically stable accumulator for count, mean and
/// min, and max.
///
/// # Examples
/// ```
/// # use cloudscope_stats::summary::Summary;
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Feeds one observation. Non-finite values are ignored (telemetry
    /// gaps are represented as NaN upstream).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of finite observations.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by *n*); 0 when fewer than 1 sample.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation: population standard deviation over mean.
    ///
    /// This is the burstiness measure of Figure 3(d): computed over the
    /// distribution of hourly VM creations, a bursty (private-cloud-like)
    /// arrival process yields a larger CV than a smooth diurnal one.
    /// Returns `None` when the mean is zero or no data was seen.
    #[must_use]
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        if self.count == 0 || self.mean == 0.0 {
            None
        } else {
            Some(self.population_std_dev() / self.mean.abs())
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Convenience: coefficient of variation of a slice.
///
/// # Examples
/// ```
/// # use cloudscope_stats::summary::coefficient_of_variation;
/// assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), Some(0.0));
/// assert!(coefficient_of_variation(&[]).is_none());
/// ```
#[must_use]
pub fn coefficient_of_variation(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .collect::<Summary>()
        .coefficient_of_variation()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert!(s.coefficient_of_variation().is_none());
    }

    #[test]
    fn known_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.coefficient_of_variation().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn non_finite_values_ignored() {
        let s: Summary = [1.0, f64::NAN, 3.0, f64::INFINITY]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0]);
        s.extend([4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn cv_none_for_zero_mean() {
        assert!(coefficient_of_variation(&[-1.0, 1.0]).is_none());
    }

    #[test]
    fn bursty_series_has_larger_cv_than_smooth() {
        // The Figure 3(d) discriminator in miniature.
        let smooth: Vec<f64> = (0..168)
            .map(|h| 50.0 + 20.0 * ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let mut bursty = vec![5.0; 168];
        bursty[40] = 400.0;
        bursty[100] = 350.0;
        let cv_smooth = coefficient_of_variation(&smooth).unwrap();
        let cv_bursty = coefficient_of_variation(&bursty).unwrap();
        assert!(cv_bursty > 2.0 * cv_smooth, "{cv_bursty} vs {cv_smooth}");
    }
}
