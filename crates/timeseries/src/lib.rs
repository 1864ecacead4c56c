//! # cloudscope-timeseries
//!
//! Time-series substrate for the cloudscope suite: fixed-interval series,
//! a from-scratch radix-2 FFT and periodogram, autocorrelation, a
//! Vlachos-style period detector (periodogram candidates validated on ACF
//! hills — the method the DSN'23 study cites for diurnal/hourly pattern
//! detection), daily/weekly profile folding, and cross-population
//! percentile bands (the study's Figure 6).
//!
//! ## Example
//! ```
//! use cloudscope_timeseries::period::PeriodDetector;
//!
//! // One week of 5-minute samples with a daily cycle.
//! let values: Vec<f64> = (0..2016)
//!     .map(|i| 30.0 + 20.0 * (std::f64::consts::TAU * i as f64 / 288.0).sin())
//!     .collect();
//! assert!(PeriodDetector.has_period_near(&values, 5, &[1440.0], 150.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod error;
pub mod fft;
pub mod gaps;
pub mod period;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod series;

pub use error::SeriesError;
pub use gaps::{coverage, fill_linear_capped, finite_mean, finite_std, FillReport};
pub use period::{DetectedPeriod, PeriodDetector};
pub use profile::{daily_profile, PercentileBands};
pub use series::Series;
