//! # cloudscope-stats
//!
//! Statistics substrate for the cloudscope suite: the estimators every
//! figure of the DSN'23 study is built from (ECDFs, box-plots with 1.5-IQR
//! whiskers, the 2-D heatmap, Pearson correlation, percentile bands, the
//! coefficient of variation) plus sampling distributions
//! (normal, log-normal, exponential, Pareto, Poisson, Zipf, alias-method
//! categorical) implemented from first principles on [`rand`].
//!
//! ## Example
//! ```
//! use cloudscope_stats::ecdf::Ecdf;
//! use cloudscope_stats::correlation::pearson;
//!
//! # fn main() -> Result<(), cloudscope_stats::error::StatsError> {
//! let cdf = Ecdf::new(vec![1.0, 4.0, 2.0, 8.0])?;
//! assert_eq!(cdf.median(), 2.0);
//! let r = pearson(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0])?;
//! assert!((r - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxplot;
pub mod correlation;
pub mod dist;
pub mod ecdf;
pub mod error;
pub mod histogram;
pub mod percentile;
pub mod summary;

pub use boxplot::BoxPlot;
pub use correlation::{pearson, pearson_or_zero};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use histogram::{Axis, Heatmap};
pub use percentile::percentile;
pub use summary::{coefficient_of_variation, Summary};
