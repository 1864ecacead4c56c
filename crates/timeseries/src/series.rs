//! Fixed-interval time series over `f64` values.
//!
//! Unlike the model crate's quantized telemetry, this type is the
//! full-precision working representation the analyses transform.

use crate::error::SeriesError;
use serde::{Deserialize, Serialize};

/// A fixed-interval series: values sampled every `step_minutes`, starting
/// at minute `start_minute` of the trace.
///
/// # Examples
/// ```
/// # use cloudscope_timeseries::series::Series;
/// let s = Series::new(0, 60, vec![1.0, 2.0, 3.0]);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.time_of(2), 120);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Series {
    start_minute: i64,
    step_minutes: i64,
    values: Vec<f64>,
}

impl Series {
    /// Creates a series.
    ///
    /// # Panics
    /// Panics if `step_minutes <= 0`.
    #[must_use]
    pub fn new(start_minute: i64, step_minutes: i64, values: Vec<f64>) -> Self {
        assert!(step_minutes > 0, "step must be positive");
        Self {
            start_minute,
            step_minutes,
            values,
        }
    }

    /// First sample's time in minutes.
    #[must_use]
    pub const fn start_minute(&self) -> i64 {
        self.start_minute
    }

    /// Sampling step in minutes.
    #[must_use]
    pub const fn step_minutes(&self) -> i64 {
        self.step_minutes
    }

    /// The underlying values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the underlying values (e.g. for detrending in
    /// place).
    #[must_use]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the series, returning its values.
    #[must_use]
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Time (minutes) of the sample at `index`.
    #[must_use]
    pub fn time_of(&self, index: usize) -> i64 {
        self.start_minute + index as i64 * self.step_minutes
    }

    /// Mean of the values (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation (0 if empty).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        var.sqrt()
    }

    /// Aggregates consecutive samples into buckets of `factor` samples
    /// using the mean, producing a coarser series (e.g. 5-minute → hourly
    /// with `factor = 12`). A trailing partial bucket is averaged over the
    /// samples present. Non-finite values (gaps) are skipped per bucket; a
    /// bucket with no finite value stays NaN instead of poisoning the
    /// whole bucket mean.
    ///
    /// # Errors
    /// Returns [`SeriesError::BadResampleFactor`] if `factor == 0`.
    pub fn downsample_mean(&self, factor: usize) -> Result<Series, SeriesError> {
        if factor == 0 {
            return Err(SeriesError::BadResampleFactor);
        }
        let values = self
            .values
            .chunks(factor)
            .map(|c| {
                let mut sum = 0.0;
                let mut count = 0usize;
                for &v in c {
                    if v.is_finite() {
                        sum += v;
                        count += 1;
                    }
                }
                if count == 0 {
                    f64::NAN
                } else {
                    sum / count as f64
                }
            })
            .collect();
        Ok(Series {
            start_minute: self.start_minute,
            step_minutes: self.step_minutes * factor as i64,
            values,
        })
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    /// Returns [`SeriesError::Misaligned`] unless both series share start,
    /// step, and length.
    pub fn sub(&self, other: &Series) -> Result<Series, SeriesError> {
        if self.start_minute != other.start_minute
            || self.step_minutes != other.step_minutes
            || self.values.len() != other.values.len()
        {
            return Err(SeriesError::Misaligned);
        }
        Ok(Series {
            start_minute: self.start_minute,
            step_minutes: self.step_minutes,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(a, b)| a - b)
                .collect(),
        })
    }
}

impl FromIterator<f64> for Series {
    /// Collects values into a series starting at minute 0 with step 1.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Series::new(0, 1, iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_timing() {
        let s = Series::new(30, 5, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.time_of(0), 30);
        assert_eq!(s.time_of(2), 40);
        assert_eq!(s.step_minutes(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let _ = Series::new(0, 0, vec![]);
    }

    #[test]
    fn moments() {
        let s = Series::new(0, 1, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert!((s.std_dev() - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn downsampling() {
        let s = Series::new(0, 5, vec![1.0, 3.0, 5.0, 7.0, 10.0]);
        let mean = s.downsample_mean(2).unwrap();
        assert_eq!(mean.values(), &[2.0, 6.0, 10.0]);
        assert_eq!(mean.step_minutes(), 10);
        assert!(s.downsample_mean(0).is_err());
    }

    #[test]
    fn downsample_mean_skips_gaps() {
        let s = Series::new(0, 5, vec![1.0, f64::NAN, f64::NAN, f64::NAN, 10.0, 20.0]);
        let out = s.downsample_mean(2).unwrap();
        assert_eq!(out.values()[0], 1.0);
        assert!(out.values()[1].is_nan());
        assert_eq!(out.values()[2], 15.0);
    }

    #[test]
    fn subtraction_alignment() {
        let a = Series::new(0, 1, vec![5.0, 7.0]);
        let b = Series::new(0, 1, vec![1.0, 2.0]);
        assert_eq!(a.sub(&b).unwrap().values(), &[4.0, 5.0]);
        let misaligned = Series::new(1, 1, vec![1.0, 2.0]);
        assert!(a.sub(&misaligned).is_err());
    }

    #[test]
    fn from_iterator_defaults() {
        let s: Series = [1.0, 2.0].into_iter().collect();
        assert_eq!(s.start_minute(), 0);
        assert_eq!(s.step_minutes(), 1);
    }
}
