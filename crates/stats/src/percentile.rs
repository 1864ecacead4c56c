//! Percentile computation with linear interpolation (the "type 7"
//! definition used by most plotting stacks), plus a multi-percentile
//! helper for the utilization-band figures (Figure 6).
//!
//! The single-percentile path uses quickselect
//! (`select_nth_unstable_by`, expected O(n)) instead of a full sort; the
//! multi-percentile path sorts once and additionally offers
//! [`percentiles_into`], which reuses caller-owned buffers so tight loops
//! (the Figure 6 band sweep calls it once per time index) allocate
//! nothing.

use crate::error::StatsError;

/// Percentile of an **already sorted** slice using linear interpolation
/// between closest ranks.
///
/// # Panics
/// Panics if the slice is empty or `p` is outside `[0, 100]`; use
/// [`percentile`] for fallible input.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of an unsorted sample.
///
/// # Errors
/// Returns [`StatsError::EmptyInput`] on an empty sample,
/// [`StatsError::NonFinite`] if any value is NaN/∞, and
/// [`StatsError::OutOfRange`] if `p` is outside `[0, 100]`.
///
/// # Examples
/// ```
/// # use cloudscope_stats::percentile::percentile;
/// # fn main() -> Result<(), cloudscope_stats::error::StatsError> {
/// assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0)?, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn percentile(sample: &[f64], p: f64) -> Result<f64, StatsError> {
    if sample.is_empty() {
        return Err(StatsError::EmptyInput("percentile sample"));
    }
    if sample.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite("percentile sample"));
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::OutOfRange("percentile level"));
    }
    let mut scratch = sample.to_vec();
    cloudscope_obs::counter("stats.percentile.selections").inc();
    Ok(percentile_select(&mut scratch, p))
}

/// Type-7 percentile by quickselect, expected O(n): partition at the
/// floor rank, and when the rank interpolates, take the ceil-rank order
/// statistic as the minimum of the right partition (every element there
/// is ≥ the pivot). Reorders `scratch`.
///
/// Values must be finite and `p` in `[0, 100]` (callers validate).
fn percentile_select(scratch: &mut [f64], p: f64) -> f64 {
    let n = scratch.len();
    if n == 1 {
        return scratch[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let (_, &mut lo_val, right) =
        scratch.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("finite values compare"));
    if frac == 0.0 {
        return lo_val;
    }
    // frac > 0 implies lo < n - 1, so the right partition is non-empty.
    let hi_val = right.iter().copied().fold(f64::INFINITY, f64::min);
    lo_val + (hi_val - lo_val) * frac
}

/// Computes several percentiles of one sample with a single sort, into
/// caller-owned buffers: `scratch` holds the sorted copy of the sample
/// and `out` receives the results (cleared first). Both retain their
/// capacity, so a loop calling this per column reuses the same two
/// allocations throughout.
///
/// # Errors
/// Same conditions as [`percentile`], applied to each level.
pub fn percentiles_into(
    sample: &[f64],
    levels: &[f64],
    scratch: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<(), StatsError> {
    if sample.is_empty() {
        return Err(StatsError::EmptyInput("percentile sample"));
    }
    if sample.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite("percentile sample"));
    }
    if levels.iter().any(|p| !(0.0..=100.0).contains(p)) {
        return Err(StatsError::OutOfRange("percentile level"));
    }
    scratch.clear();
    scratch.extend_from_slice(sample);
    scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    out.clear();
    out.extend(levels.iter().map(|&p| percentile_sorted(scratch, p)));
    Ok(())
}

/// The percentile levels Figure 6 of the paper plots as bands.
pub const FIGURE6_LEVELS: [f64; 5] = [5.0, 25.0, 50.0, 75.0, 95.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_median() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0).unwrap(), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0).unwrap(), 2.0);
    }

    #[test]
    fn extremes() {
        let data = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&data, 100.0).unwrap(), 3.0);
    }

    #[test]
    fn interpolation_between_ranks() {
        // 10 values 0..9: p90 -> rank 8.1 -> 8.1
        let data: Vec<f64> = (0..10).map(f64::from).collect();
        assert!((percentile(&data, 90.0).unwrap() - 8.1).abs() < 1e-12);
    }

    #[test]
    fn error_conditions() {
        assert!(matches!(
            percentile(&[], 50.0),
            Err(StatsError::EmptyInput(_))
        ));
        assert!(matches!(
            percentile(&[f64::NAN], 50.0),
            Err(StatsError::NonFinite(_))
        ));
        assert!(matches!(
            percentile(&[1.0], 101.0),
            Err(StatsError::OutOfRange(_))
        ));
    }

    #[test]
    fn multi_percentiles_consistent_with_single() {
        let data: Vec<f64> = (0..50).map(|i| ((i * 13) % 50) as f64).collect();
        let levels = [5.0, 25.0, 50.0, 75.0, 95.0];
        let mut many = Vec::new();
        percentiles_into(&data, &levels, &mut Vec::new(), &mut many).unwrap();
        for (&p, &v) in levels.iter().zip(&many) {
            assert_eq!(v, percentile(&data, p).unwrap());
        }
        // Monotone in the level.
        assert!(many.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_element_slice() {
        assert_eq!(percentile_sorted(&[42.0], 75.0), 42.0);
    }

    #[test]
    fn selection_matches_sorted_at_every_level() {
        // Duplicates, negatives, and an awkward length to stress the
        // partition boundaries.
        let data: Vec<f64> = (0..97).map(|i| (((i * 31) % 17) as f64) - 8.0).collect();
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in 0..=100 {
            let p = f64::from(p);
            assert_eq!(
                percentile(&data, p).unwrap(),
                percentile_sorted(&sorted, p),
                "level {p}"
            );
        }
    }

    #[test]
    fn percentiles_into_reuses_buffers() {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        percentiles_into(&[3.0, 1.0, 2.0], &FIGURE6_LEVELS, &mut scratch, &mut out).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[2], 2.0);
        let cap = (scratch.capacity(), out.capacity());
        percentiles_into(&[9.0, 7.0], &[50.0], &mut scratch, &mut out).unwrap();
        assert_eq!(out, vec![8.0]);
        assert_eq!((scratch.capacity(), out.capacity()), cap, "no reallocation");
        assert!(matches!(
            percentiles_into(&[], &[50.0], &mut scratch, &mut out),
            Err(StatsError::EmptyInput(_))
        ));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sorted_variant_panics_on_empty() {
        let _ = percentile_sorted(&[], 50.0);
    }
}
