//! Week-grid projection and coverage accounting for gap-bearing
//! telemetry.
//!
//! Figure-level analyses that need a dense, aligned week of samples per
//! VM (the Figure 6 bands, the oversubscription planner's demand pool)
//! go through [`filled_week_series`]: the VM's coverage of the global
//! week grid is measured first, straight off the stored samples
//! ([`week_coverage`], no allocation), and only a VM that clears the
//! caller's floor is projected onto the grid and has its remaining gaps
//! linearly interpolated (edge gaps held) so downstream percentile
//! kernels see finite input. Selections over a whole population gate on
//! [`passes_week_coverage`] and fill just the VMs they keep. Coverage
//! ratios are reported upward so every figure can state how much data
//! actually backed it.

use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::MISSING_SAMPLE_BYTE;
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_timeseries::gaps::fill_linear_capped;

/// Projects a telemetry series onto the week grid: a vector of
/// `SAMPLES_PER_WEEK` values where slot `i` is the sample at minute
/// `i * 5`, NaN where the series has a gap or never covered the slot.
#[must_use]
pub fn week_grid_values(util: &UtilSeries) -> Vec<f64> {
    let mut grid = vec![f64::NAN; SAMPLES_PER_WEEK];
    let base = util.start().minutes() / SAMPLE_INTERVAL_MINUTES;
    for (i, v) in util.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let slot = base + i as i64;
        if (0..SAMPLES_PER_WEEK as i64).contains(&slot) {
            grid[slot as usize] = f64::from(v);
        }
    }
    grid
}

/// Fraction of the week grid's slots `util` has a sample for — exactly
/// `coverage(&week_grid_values(util))`, read off the stored bytes
/// without building the grid.
#[must_use]
pub fn week_coverage(util: &UtilSeries) -> f64 {
    let samples = util.as_quantized();
    let base = util.start().minutes() / SAMPLE_INTERVAL_MINUTES;
    // Sample `i` lands in slot `base + i`; keep the ones inside the week.
    let clamp = |slot: i64| (slot - base).clamp(0, samples.len() as i64) as usize;
    let (from, to) = (clamp(0), clamp(SAMPLES_PER_WEEK as i64));
    let present = samples[from..to.max(from)]
        .iter()
        .filter(|&&q| q != MISSING_SAMPLE_BYTE)
        .count();
    present as f64 / SAMPLES_PER_WEEK as f64
}

/// The coverage gate on its own: `util`'s week coverage if it is at
/// least `min_coverage` (and not zero), else `None`, counted under
/// `analysis.coverage.gate_rejections`.
#[must_use]
pub fn passes_week_coverage(util: &UtilSeries, min_coverage: f64) -> Option<f64> {
    let cov = week_coverage(util);
    if cov < min_coverage || cov == 0.0 {
        cloudscope_obs::counter("analysis.coverage.gate_rejections").inc();
        return None;
    }
    Some(cov)
}

/// If `util`'s week coverage is at least `min_coverage`, projects it
/// onto the week grid, repairs all gaps (linear interpolation, edges
/// held) and returns the dense values together with the pre-fill
/// coverage. Returns `None` below the floor — the VM does not carry
/// enough of the week to stand in for it.
#[must_use]
pub fn filled_week_series(util: &UtilSeries, min_coverage: f64) -> Option<(Vec<f64>, f64)> {
    let cov = passes_week_coverage(util, min_coverage)?;
    let mut grid = week_grid_values(util);
    fill_linear_capped(&mut grid, SAMPLES_PER_WEEK);
    cloudscope_obs::counter("analysis.coverage.series_filled").inc();
    Some((grid, cov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_model::time::SimTime;
    use cloudscope_timeseries::gaps::coverage;
    use proptest::prelude::*;

    proptest! {
        /// The allocation-free coverage is the grid's coverage, bit for
        /// bit: any start (before, inside, past the week), any length,
        /// any gap pattern.
        #[test]
        fn week_coverage_equals_grid_coverage(
            start_slot in -400i64..2400,
            odd_minutes in 0i64..5,
            half_percents in proptest::collection::vec(0u16..=260, 0..2600),
        ) {
            // Values past 100% stand for samples the monitor dropped.
            let start = SimTime::from_minutes(start_slot * SAMPLE_INTERVAL_MINUTES + odd_minutes);
            let util = UtilSeries::from_percentages(
                start,
                half_percents
                    .into_iter()
                    .map(|h| if h <= 200 { f32::from(h) / 2.0 } else { f32::NAN }),
            );
            let expected = coverage(&week_grid_values(&util));
            prop_assert_eq!(week_coverage(&util).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn full_week_projects_onto_grid() {
        let util = UtilSeries::from_percentages(
            SimTime::ZERO,
            std::iter::repeat_n(10.0f32, SAMPLES_PER_WEEK),
        );
        let grid = week_grid_values(&util);
        assert_eq!(grid.len(), SAMPLES_PER_WEEK);
        assert!(grid.iter().all(|v| (*v - 10.0).abs() < 0.3));
        let (filled, cov) = filled_week_series(&util, 0.9).unwrap();
        assert_eq!(cov, 1.0);
        assert!(filled.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn partial_series_lands_at_its_offset() {
        let util = UtilSeries::from_percentages(SimTime::from_hours(1), [20.0, 30.0]);
        let grid = week_grid_values(&util);
        assert!(grid[11].is_nan());
        assert!((grid[12] - 20.0).abs() < 0.3);
        assert!((grid[13] - 30.0).abs() < 0.3);
        assert!(grid[14].is_nan());
    }

    #[test]
    fn coverage_floor_rejects_sparse_vms() {
        // Half a week of telemetry: below a 0.9 floor, above 0.4.
        let util = UtilSeries::from_percentages(
            SimTime::ZERO,
            std::iter::repeat_n(10.0f32, SAMPLES_PER_WEEK / 2),
        );
        assert!(filled_week_series(&util, 0.9).is_none());
        let (filled, cov) = filled_week_series(&util, 0.4).unwrap();
        assert!((cov - 0.5).abs() < 0.01);
        // The missing half is edge-held, not NaN.
        assert!(filled.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gaps_inside_the_week_count_against_coverage() {
        let values: Vec<f32> = (0..SAMPLES_PER_WEEK)
            .map(|i| if i % 10 == 0 { f32::NAN } else { 50.0 })
            .collect();
        let util = UtilSeries::from_percentages(SimTime::ZERO, values);
        let (filled, cov) = filled_week_series(&util, 0.85).unwrap();
        assert!((cov - 0.9).abs() < 0.01);
        assert!(filled.iter().all(|v| v.is_finite()));
    }
}
