//! Missing-data policies for gap-bearing series.
//!
//! The convention across the workspace is *in-band NaN*: a missing sample
//! keeps its slot on the time grid and carries `f64::NAN`. This module
//! holds the two repair policies the analysis stack applies before its
//! dense kernels, plus the small folds (coverage, finite mean/std) that
//! every gap-aware consumer needs:
//!
//! - **Mask-and-renormalize** (ACF, periodogram): the period detector
//!   ([`crate::period::PeriodDetector::detect`]) zeroes the centred gaps
//!   for its periodogram and averages each ACF lag over the
//!   jointly-present pairs only.
//! - **Linear fill with a max-gap cap** ([`fill_linear_capped`]): interior
//!   gaps up to the cap are linearly interpolated, edge gaps held at the
//!   nearest present value; longer gaps are left as NaN so a 6-hour
//!   blackout is never hallucinated into a smooth ramp.

/// Result of a fill pass: how many slots were repaired and how many gaps
/// remain (runs longer than the cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FillReport {
    /// Slots replaced by interpolated or held values.
    pub filled: usize,
    /// Slots still missing after the pass.
    pub remaining: usize,
}

/// Fraction of finite values in `values`, in `[0, 1]` (0 for empty input).
#[must_use]
pub fn coverage(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let present = values.iter().filter(|v| v.is_finite()).count();
    present as f64 / values.len() as f64
}

/// Mean over the finite values, or `None` if there are none.
#[must_use]
pub fn finite_mean(values: &[f64]) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &v in values {
        if v.is_finite() {
            sum += v;
            count += 1;
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Population standard deviation over the finite values, or `None` if
/// there are none.
#[must_use]
pub fn finite_std(values: &[f64]) -> Option<f64> {
    let mean = finite_mean(values)?;
    let mut sum_sq = 0.0;
    let mut count = 0usize;
    for &v in values {
        if v.is_finite() {
            sum_sq += (v - mean) * (v - mean);
            count += 1;
        }
    }
    Some((sum_sq / count as f64).sqrt())
}

/// Repairs gaps in place: interior runs of non-finite values of length
/// ≤ `max_gap` are linearly interpolated between their finite neighbours;
/// leading/trailing runs of length ≤ `max_gap` are held at the nearest
/// finite value. Longer runs are left as NaN and counted in
/// [`FillReport::remaining`]. A series with no finite value at all is
/// left untouched (everything counts as remaining).
pub fn fill_linear_capped(values: &mut [f64], max_gap: usize) -> FillReport {
    let mut report = FillReport::default();
    let first_finite = values.iter().position(|v| v.is_finite());
    let Some(first_finite) = first_finite else {
        report.remaining = values.len();
        return report;
    };
    let last_finite = values
        .iter()
        .rposition(|v| v.is_finite())
        .expect("a finite value exists");

    // Leading edge: hold the first finite value backwards.
    if first_finite > 0 {
        if first_finite <= max_gap {
            let v = values[first_finite];
            for slot in &mut values[..first_finite] {
                *slot = v;
            }
            report.filled += first_finite;
        } else {
            report.remaining += first_finite;
        }
    }
    // Trailing edge: hold the last finite value forwards.
    let tail = values.len() - 1 - last_finite;
    if tail > 0 {
        if tail <= max_gap {
            let v = values[last_finite];
            for slot in &mut values[last_finite + 1..] {
                *slot = v;
            }
            report.filled += tail;
        } else {
            report.remaining += tail;
        }
    }
    // Interior runs between finite anchors.
    let mut anchor = first_finite;
    let mut i = first_finite + 1;
    while i <= last_finite {
        if values[i].is_finite() {
            let run = i - anchor - 1;
            if run > 0 {
                if run <= max_gap {
                    let left = values[anchor];
                    let right = values[i];
                    let span = (i - anchor) as f64;
                    for k in 1..=run {
                        values[anchor + k] = left + (right - left) * (k as f64 / span);
                    }
                    report.filled += run;
                } else {
                    report.remaining += run;
                }
            }
            anchor = i;
        }
        i += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_finite_fraction() {
        assert_eq!(coverage(&[]), 0.0);
        assert_eq!(coverage(&[1.0, 2.0]), 1.0);
        assert!((coverage(&[1.0, f64::NAN, f64::INFINITY, 4.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finite_folds_skip_gaps() {
        let v = [1.0, f64::NAN, 3.0];
        assert!((finite_mean(&v).unwrap() - 2.0).abs() < 1e-12);
        assert!((finite_std(&v).unwrap() - 1.0).abs() < 1e-12);
        assert!(finite_mean(&[f64::NAN]).is_none());
        assert!(finite_std(&[]).is_none());
    }

    #[test]
    fn interior_gap_interpolated() {
        let mut v = [10.0, f64::NAN, f64::NAN, 40.0];
        let report = fill_linear_capped(&mut v, 6);
        assert_eq!(
            report,
            FillReport {
                filled: 2,
                remaining: 0
            }
        );
        assert!((v[1] - 20.0).abs() < 1e-12);
        assert!((v[2] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn edge_gaps_held_not_extrapolated() {
        let mut v = [f64::NAN, 5.0, 7.0, f64::NAN, f64::NAN];
        let report = fill_linear_capped(&mut v, 6);
        assert_eq!(report.filled, 3);
        assert_eq!(v[0], 5.0);
        assert_eq!(v[3], 7.0);
        assert_eq!(v[4], 7.0);
    }

    #[test]
    fn long_gaps_stay_missing() {
        let mut v = [1.0, f64::NAN, f64::NAN, f64::NAN, 2.0, f64::NAN, 3.0];
        let report = fill_linear_capped(&mut v, 2);
        assert_eq!(report.filled, 1);
        assert_eq!(report.remaining, 3);
        assert!(v[1].is_nan() && v[2].is_nan() && v[3].is_nan());
        assert!((v[5] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn all_missing_left_untouched() {
        let mut v = [f64::NAN, f64::NAN];
        let report = fill_linear_capped(&mut v, 10);
        assert_eq!(report.filled, 0);
        assert_eq!(report.remaining, 2);
        assert!(v.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn dense_input_is_untouched() {
        let mut v = [1.0, 2.0, 3.0];
        let report = fill_linear_capped(&mut v, 3);
        assert_eq!(report, FillReport::default());
        assert_eq!(v, [1.0, 2.0, 3.0]);
    }
}
