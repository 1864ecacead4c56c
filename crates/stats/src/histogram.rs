//! The 2-D heatmap grid behind the VM core×memory size figure
//! (Figure 2).

use crate::error::StatsError;
use serde::{Deserialize, Serialize};

/// Axis binning: `bins` bins of equal width in log space spanning
/// `[lo, hi)` (VM sizes span orders of magnitude).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    lo: f64,
    hi: f64,
    bins: usize,
    /// Always `true`. The field stays so the figure's `Debug` form, which
    /// the end-to-end benchmark digests, does not change.
    log: bool,
}

impl Axis {
    /// Logarithmic axis over `[lo, hi)` with `bins` bins; `lo` must be > 0.
    ///
    /// # Errors
    /// Returns [`StatsError::OutOfRange`] for a degenerate range.
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !(0.0 < lo && lo < hi) || bins == 0 || !hi.is_finite() {
            return Err(StatsError::OutOfRange("axis definition"));
        }
        Ok(Self {
            lo,
            hi,
            bins,
            log: true,
        })
    }

    /// Number of bins.
    #[must_use]
    pub const fn bins(&self) -> usize {
        self.bins
    }

    /// Bin index for a value, or `None` if it falls outside `[lo, hi)`.
    #[must_use]
    pub fn bin_of(&self, value: f64) -> Option<usize> {
        if !value.is_finite() || value < self.lo || value >= self.hi {
            return None;
        }
        let frac = (value.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln());
        // The epsilon keeps exact grid points (e.g. powers of two on a
        // log axis) in their nominal bin despite ln() rounding.
        Some(((frac * self.bins as f64 + 1e-9) as usize).min(self.bins - 1))
    }
}

/// A 2-D histogram (heatmap grid), e.g. cores × memory per VM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    x_axis: Axis,
    y_axis: Axis,
    counts: Vec<u64>,
    overflow: u64,
}

impl Heatmap {
    /// Creates an empty heatmap over the two axes.
    #[must_use]
    pub fn new(x_axis: Axis, y_axis: Axis) -> Self {
        Self {
            counts: vec![0; x_axis.bins() * y_axis.bins()],
            x_axis,
            y_axis,
            overflow: 0,
        }
    }

    /// Adds one `(x, y)` observation; out-of-range points count as
    /// overflow.
    pub fn push(&mut self, x: f64, y: f64) {
        match (self.x_axis.bin_of(x), self.y_axis.bin_of(y)) {
            (Some(i), Some(j)) => self.counts[j * self.x_axis.bins() + i] += 1,
            _ => self.overflow += 1,
        }
    }

    /// Count in cell `(x_bin, y_bin)`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[must_use]
    pub fn cell(&self, x_bin: usize, y_bin: usize) -> u64 {
        assert!(x_bin < self.x_axis.bins() && y_bin < self.y_axis.bins());
        self.counts[y_bin * self.x_axis.bins() + x_bin]
    }

    /// Total in-range observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Observations outside either axis.
    #[must_use]
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Cell fraction of in-range mass; 0 when empty.
    #[must_use]
    pub fn fraction(&self, x_bin: usize, y_bin: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.cell(x_bin, y_bin) as f64 / total as f64
        }
    }

    /// X axis.
    #[must_use]
    pub const fn x_axis(&self) -> &Axis {
        &self.x_axis
    }

    /// Y axis.
    #[must_use]
    pub const fn y_axis(&self) -> &Axis {
        &self.y_axis
    }

    /// Fraction of mass in the cells at the extreme corners of the grid —
    /// the discriminator for Figure 2's observation that public-cloud VM
    /// sizes extend to both the bottom-left (tiny) and top-right (huge)
    /// corners. `margin` is how many bins from each edge count as a
    /// "corner" (1 means the single corner cell).
    #[must_use]
    pub fn corner_mass(&self, margin: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let (nx, ny) = (self.x_axis.bins(), self.y_axis.bins());
        let m = margin.max(1);
        let mut corner = 0u64;
        for j in 0..ny {
            for i in 0..nx {
                let low_corner = i < m && j < m;
                let high_corner = i >= nx - m && j >= ny - m;
                if low_corner || high_corner {
                    corner += self.counts[j * nx + i];
                }
            }
        }
        corner as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_axis_binning() {
        let ax = Axis::logarithmic(1.0, 64.0, 6).unwrap();
        assert_eq!(ax.bin_of(1.0), Some(0));
        assert_eq!(ax.bin_of(2.0), Some(1));
        assert_eq!(ax.bin_of(32.0), Some(5));
        assert_eq!(ax.bin_of(64.0), None);
        assert_eq!(ax.bin_of(0.5), None);
    }

    #[test]
    fn degenerate_axes_rejected() {
        assert!(Axis::logarithmic(5.0, 5.0, 3).is_err());
        assert!(Axis::logarithmic(1.0, 2.0, 0).is_err());
        assert!(Axis::logarithmic(0.0, 10.0, 3).is_err());
    }

    #[test]
    fn heatmap_cells() {
        let ax = Axis::logarithmic(1.0, 4.0, 2).unwrap();
        let mut hm = Heatmap::new(ax, ax);
        hm.push(1.5, 1.5);
        hm.push(3.0, 1.5);
        hm.push(3.0, 3.0);
        hm.push(3.0, 3.0);
        hm.push(5.0, 1.5);
        assert_eq!(hm.cell(0, 0), 1);
        assert_eq!(hm.cell(1, 0), 1);
        assert_eq!(hm.cell(1, 1), 2);
        assert_eq!(hm.cell(0, 1), 0);
        assert_eq!(hm.overflow(), 1);
        assert_eq!(hm.fraction(1, 1), 0.5);
    }

    #[test]
    fn corner_mass_discriminates_spread_grids() {
        let ax = Axis::logarithmic(1.0, 16.0, 4).unwrap();
        // Concentrated in the middle.
        let mut center = Heatmap::new(ax, ax);
        for _ in 0..10 {
            center.push(3.0, 3.0);
        }
        // Spread to tiny and huge corners.
        let mut corners = Heatmap::new(ax, ax);
        for _ in 0..5 {
            corners.push(1.1, 1.1);
            corners.push(15.0, 15.0);
        }
        assert_eq!(center.corner_mass(1), 0.0);
        assert_eq!(corners.corner_mass(1), 1.0);
    }
}
