//! Box-plot statistics with 1.5-IQR whiskers, matching Figures 1(b) and
//! 3(d) of the study.

use crate::error::StatsError;
use crate::percentile::percentile_sorted;
use serde::{Deserialize, Serialize};

/// The five-number summary plus outliers that a box-plot renders.
///
/// Whisker boundaries follow the paper's convention: the most extreme
/// observations within `q1 − 1.5·IQR` and `q3 + 1.5·IQR`; everything
/// beyond is an outlier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// First quartile (25th percentile, linear interpolation).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lower whisker: smallest observation ≥ `q1 − 1.5·IQR`.
    pub lower_whisker: f64,
    /// Upper whisker: largest observation ≤ `q3 + 1.5·IQR`.
    pub upper_whisker: f64,
    /// Observations outside the whiskers, sorted ascending.
    pub outliers: Vec<f64>,
    /// Number of observations.
    pub count: usize,
}

impl BoxPlot {
    /// Computes box-plot statistics from a sample.
    ///
    /// # Errors
    /// Returns [`StatsError::EmptyInput`] for an empty sample and
    /// [`StatsError::NonFinite`] if any value is NaN/∞.
    ///
    /// # Examples
    /// ```
    /// # use cloudscope_stats::boxplot::BoxPlot;
    /// # fn main() -> Result<(), cloudscope_stats::error::StatsError> {
    /// let b = BoxPlot::new(vec![1.0, 2.0, 3.0, 4.0, 100.0])?;
    /// assert_eq!(b.median, 3.0);
    /// assert_eq!(b.outliers, vec![100.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(mut sample: Vec<f64>) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput("box-plot sample"));
        }
        if sample.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite("box-plot sample"));
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let q1 = percentile_sorted(&sample, 25.0);
        let median = percentile_sorted(&sample, 50.0);
        let q3 = percentile_sorted(&sample, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let lower_whisker = sample
            .iter()
            .copied()
            .find(|&v| v >= lo_fence)
            .unwrap_or(sample[0]);
        let upper_whisker = sample
            .iter()
            .rev()
            .copied()
            .find(|&v| v <= hi_fence)
            .unwrap_or(*sample.last().expect("non-empty"));
        let outliers = sample
            .iter()
            .copied()
            .filter(|&v| v < lo_fence || v > hi_fence)
            .collect();
        Ok(Self {
            q1,
            median,
            q3,
            lower_whisker,
            upper_whisker,
            outliers,
            count: sample.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let b = BoxPlot::new((1..=9).map(f64::from).collect()).unwrap();
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.q3 - b.q1, 4.0);
        assert_eq!(b.lower_whisker, 1.0);
        assert_eq!(b.upper_whisker, 9.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.count, 9);
    }

    #[test]
    fn outliers_beyond_one_point_five_iqr() {
        let mut data: Vec<f64> = (1..=9).map(f64::from).collect();
        data.push(50.0);
        data.push(-40.0);
        let b = BoxPlot::new(data).unwrap();
        assert_eq!(b.outliers, vec![-40.0, 50.0]);
        // Whiskers stay at the most extreme non-outlier points.
        assert_eq!(b.lower_whisker, 1.0);
        assert_eq!(b.upper_whisker, 9.0);
    }

    #[test]
    fn single_observation() {
        let b = BoxPlot::new(vec![7.0]).unwrap();
        assert_eq!(b.median, 7.0);
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.lower_whisker, 7.0);
        assert_eq!(b.upper_whisker, 7.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(BoxPlot::new(vec![]).is_err());
        assert!(BoxPlot::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn ordering_invariants() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let b = BoxPlot::new(data).unwrap();
        assert!(b.lower_whisker <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.upper_whisker);
    }
}
