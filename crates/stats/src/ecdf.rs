//! Empirical cumulative distribution functions — the workhorse plot of the
//! study (Figures 1(a), 3(a), 4, 7(a), 7(b)).

use crate::error::StatsError;
use serde::{Deserialize, Serialize};

/// An empirical CDF over a finite sample.
///
/// Construction sorts the sample once; evaluation is `O(log n)`.
///
/// # Examples
/// ```
/// # use cloudscope_stats::ecdf::Ecdf;
/// # fn main() -> Result<(), cloudscope_stats::error::StatsError> {
/// let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0])?;
/// assert_eq!(cdf.eval(2.0), 0.75);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample, sorting it.
    ///
    /// # Errors
    /// Returns [`StatsError::EmptyInput`] for an empty sample and
    /// [`StatsError::NonFinite`] if any value is NaN/∞.
    pub fn new(mut sample: Vec<f64>) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput("ecdf sample"));
        }
        if sample.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite("ecdf sample"));
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ok(Self { sorted: sample })
    }

    /// Builds an ECDF from any iterator of values.
    ///
    /// # Errors
    /// Same as [`Ecdf::new`].
    #[allow(clippy::should_implement_trait)] // fallible, unlike FromIterator
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Result<Self, StatsError> {
        Self::new(iter.into_iter().collect())
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: empty ECDFs cannot be constructed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of observations ≤ `x` (right-continuous step function).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile using the inverse-ECDF (type-1) definition.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile level out of range: {p}");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Median, i.e. the 0.5 quantile.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_right_continuous_step() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(1.99), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles_invert_eval() {
        let cdf = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.25), 10.0);
        assert_eq!(cdf.quantile(0.26), 20.0);
        assert_eq!(cdf.median(), 20.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(Ecdf::new(vec![]), Err(StatsError::EmptyInput(_))));
        assert!(matches!(
            Ecdf::new(vec![1.0, f64::NAN]),
            Err(StatsError::NonFinite(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_level_validated() {
        let cdf = Ecdf::new(vec![1.0]).unwrap();
        let _ = cdf.quantile(1.5);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cdf = Ecdf::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.eval(2.0), 2.0 / 3.0);
    }
}
