//! Pearson correlation, the paper's node- and region-level similarity
//! metric (Figure 7).

use crate::error::StatsError;

/// Pearson product-moment correlation between two equally long series.
///
/// Returns a value in `[-1, 1]`. This is the statistic behind Figure 7:
/// at the node level between each VM's CPU series and its host node's,
/// and at the region level between the per-region average utilization of
/// one subscription.
///
/// # Errors
/// - [`StatsError::LengthMismatch`] if lengths differ.
/// - [`StatsError::EmptyInput`] if fewer than 2 points.
/// - [`StatsError::NonFinite`] if any value is NaN/∞.
/// - [`StatsError::ZeroVariance`] if either series is constant.
///
/// # Examples
/// ```
/// # use cloudscope_stats::correlation::pearson;
/// # fn main() -> Result<(), cloudscope_stats::error::StatsError> {
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0])?;
/// assert!((r - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch(x.len(), y.len()));
    }
    if x.len() < 2 {
        return Err(StatsError::EmptyInput("pearson needs >= 2 points"));
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite("pearson input"));
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mean_x;
        let dy = b - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return Err(StatsError::ZeroVariance("pearson input"));
    }
    Ok((cov / (var_x.sqrt() * var_y.sqrt())).clamp(-1.0, 1.0))
}

/// Pearson correlation that treats degenerate inputs as "no correlation".
///
/// Telemetry of idle VMs is often exactly constant; the paper's CDFs still
/// include those pairs. This helper maps [`StatsError::ZeroVariance`] to
/// `Some(0.0)` and every other error to `None`.
#[must_use]
pub fn pearson_or_zero(x: &[f64], y: &[f64]) -> Option<f64> {
    match pearson(x, y) {
        Ok(r) => Some(r),
        Err(StatsError::ZeroVariance(_)) => Some(0.0),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_correlations() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independence_yields_near_zero() {
        // Orthogonal-by-construction series.
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn scale_and_shift_invariance() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        let base = pearson(&x, &y).unwrap();
        let scaled: Vec<f64> = x.iter().map(|v| 100.0 * v - 42.0).collect();
        assert!((pearson(&scaled, &y).unwrap() - base).abs() < 1e-12);
    }

    #[test]
    fn error_conditions() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch(1, 2))
        ));
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(StatsError::EmptyInput(_))
        ));
        assert!(matches!(
            pearson(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFinite(_))
        ));
        assert!(matches!(
            pearson(&[5.0, 5.0], &[1.0, 2.0]),
            Err(StatsError::ZeroVariance(_))
        ));
    }

    #[test]
    fn or_zero_maps_constant_series() {
        assert_eq!(pearson_or_zero(&[5.0, 5.0], &[1.0, 2.0]), Some(0.0));
        assert_eq!(pearson_or_zero(&[1.0], &[1.0, 2.0]), None);
        assert!(pearson_or_zero(&[1.0, 2.0], &[2.0, 4.0]).unwrap() > 0.99);
    }
}
