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

    /// [`downsample_mean_into`] as a new series, `factor` times coarser
    /// (e.g. 5-minute → hourly with `factor = 12`).
    ///
    /// # Errors
    /// Returns [`SeriesError::BadResampleFactor`] if `factor == 0`.
    pub fn downsample_mean(&self, factor: usize) -> Result<Series, SeriesError> {
        let mut values = Vec::new();
        downsample_mean_into(&self.values, factor, &mut values)?;
        Ok(Series {
            start_minute: self.start_minute,
            step_minutes: self.step_minutes * factor as i64,
            values,
        })
    }
}

/// Aggregates consecutive samples into buckets of `factor` samples
/// using the mean, writing the coarser series into `out` (cleared first;
/// e.g. 5-minute → hourly with `factor = 12`). A trailing partial bucket
/// is averaged over the samples present. Non-finite values (gaps) are
/// skipped per bucket; a bucket with no finite value stays NaN instead
/// of poisoning the whole bucket mean.
///
/// # Errors
/// Returns [`SeriesError::BadResampleFactor`] if `factor == 0`.
pub fn downsample_mean_into(
    values: &[f64],
    factor: usize,
    out: &mut Vec<f64>,
) -> Result<(), SeriesError> {
    if factor == 0 {
        return Err(SeriesError::BadResampleFactor);
    }
    out.clear();
    out.extend(values.chunks(factor).map(|c| {
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
    }));
    Ok(())
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
    fn downsampling() {
        let s = Series::new(0, 5, vec![1.0, 3.0, 5.0, 7.0, 10.0]);
        let mean = s.downsample_mean(2).unwrap();
        assert_eq!(mean.values(), &[2.0, 6.0, 10.0]);
        assert_eq!(mean.step_minutes(), 10);
        assert!(s.downsample_mean(0).is_err());
        // Into a reused buffer: cleared first.
        let mut reused = vec![99.0];
        downsample_mean_into(s.values(), 2, &mut reused).unwrap();
        assert_eq!(reused, mean.values());
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
    fn from_iterator_defaults() {
        let s: Series = [1.0, 2.0].into_iter().collect();
        assert_eq!(s.start_minute(), 0);
        assert_eq!(s.step_minutes(), 1);
    }
}
