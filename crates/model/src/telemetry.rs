//! Utilization telemetry: fixed-interval (5-minute) average CPU
//! utilization per VM, as reported by the platform monitor.
//!
//! Series are stored quantized to half-percent steps in a shared
//! [`bytes::Bytes`] buffer: one byte per sample bounds a week of telemetry
//! for a million VMs at ~2 GiB, mirroring how production telemetry stores
//! compress utilization counters. Quantization error (≤0.25 pp) is far
//! below the noise floor of the signals being analyzed.

use crate::time::{SimTime, SAMPLE_INTERVAL_MINUTES};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Quantization: stored byte = round(percent * 2), so 0..=200 spans 0–100%.
pub const QUANT_STEPS_PER_PERCENT: f32 = 2.0;
/// Maximum representable utilization in percent.
pub const MAX_UTILIZATION_PCT: f32 = 100.0;
/// In-band sentinel for a missing sample. The quantized range only uses
/// 0..=200, so the top byte value is free to mark slots the monitor never
/// reported (dropped samples, blackout windows). Missing samples surface
/// as `None` from [`UtilSeries::get`] and as NaN from the float iterators,
/// keeping the time grid intact so gaps never shift later samples.
const MISSING_SAMPLE: u8 = u8::MAX;

/// Quantizes one utilization percentage to its stored byte: finite
/// values clamp to `[0, 100]` and round to half-percent steps; non-finite
/// values map to the missing-sample sentinel. This is *the* quantization
/// — [`UtilSeries::from_percentages`] applies it per sample, and a
/// streaming ingester that quantizes at arrival must use it too, so that
/// its window state is byte-identical to a batch-built series.
///
/// Rounding is half away from zero, as `f32::round`, but without its
/// libm call (baseline x86-64 has no rounding instruction): for
/// `0 ≤ y ≤ 200`, `y − trunc(y)` is exact, so rounding up exactly when
/// that fraction is at least ½ is `y.round()`.
#[inline]
#[must_use]
pub fn quantize_percentage(v: f32) -> u8 {
    if v.is_finite() {
        let y = v.clamp(0.0, MAX_UTILIZATION_PCT) * QUANT_STEPS_PER_PERCENT;
        let whole = y as u8;
        whole + u8::from(y - f32::from(whole) >= 0.5)
    } else {
        MISSING_SAMPLE
    }
}

/// The stored byte marking a missing sample, for producers assembling
/// quantized buffers directly (see [`UtilSeries::from_quantized`]).
pub const MISSING_SAMPLE_BYTE: u8 = MISSING_SAMPLE;

/// A fixed-interval CPU-utilization series for one VM (or one node).
///
/// Samples are average utilization in percent over each 5-minute interval,
/// starting at [`UtilSeries::start`].
///
/// # Examples
/// ```
/// # use cloudscope_model::telemetry::UtilSeries;
/// # use cloudscope_model::time::SimTime;
/// let s = UtilSeries::from_percentages(SimTime::ZERO, [10.0, 20.0, 30.0]);
/// assert_eq!(s.len(), 3);
/// assert!((s.mean() - 20.0).abs() < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilSeries {
    start: SimTime,
    samples: Bytes,
}

impl UtilSeries {
    /// Builds a series from utilization percentages. Finite values are
    /// clamped to `[0, 100]` and quantized to 0.5-percent steps; non-finite
    /// values (NaN, ±inf) mark the slot as missing.
    #[must_use]
    pub fn from_percentages<I>(start: SimTime, values: I) -> Self
    where
        I: IntoIterator<Item = f32>,
    {
        let samples: Vec<u8> = values.into_iter().map(quantize_percentage).collect();
        cloudscope_obs::counter("model.telemetry.series_created").inc();
        Self {
            start,
            samples: Bytes::from(samples),
        }
    }

    /// Builds a series from stored levels a producer has already
    /// quantized with [`quantize_percentage`] — the same series
    /// [`UtilSeries::from_percentages`] builds from the values, and
    /// counted like it under `model.telemetry.series_created`.
    #[must_use]
    pub fn from_levels(start: SimTime, levels: Vec<u8>) -> Self {
        cloudscope_obs::counter("model.telemetry.series_created").inc();
        Self {
            start,
            samples: Bytes::from(levels),
        }
    }

    /// Time of the first sample.
    #[must_use]
    pub const fn start(&self) -> SimTime {
        self.start
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time of the sample at `index`.
    #[must_use]
    pub fn time_at(&self, index: usize) -> SimTime {
        self.start + crate::time::SimDuration::from_minutes(index as i64 * SAMPLE_INTERVAL_MINUTES)
    }

    /// Utilization (percent) of the sample at `index`. Returns `None` both
    /// out of bounds and for an in-bounds missing sample.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<f32> {
        self.samples
            .get(index)
            .filter(|&&q| q != MISSING_SAMPLE)
            .map(|&q| f32::from(q) / QUANT_STEPS_PER_PERCENT)
    }

    /// Number of present (non-missing) samples.
    #[must_use]
    pub fn present_count(&self) -> usize {
        self.samples
            .iter()
            .filter(|&&q| q != MISSING_SAMPLE)
            .count()
    }

    /// Iterates over utilization percentages; missing samples yield NaN,
    /// the gap convention the downstream analysis stack understands.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        self.samples.iter().map(|&q| {
            if q == MISSING_SAMPLE {
                f32::NAN
            } else {
                f32::from(q) / QUANT_STEPS_PER_PERCENT
            }
        })
    }

    /// Collects the series into an `f64` vector, the numeric type the
    /// statistics substrate operates on. Missing samples become NaN.
    #[must_use]
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.iter().map(f64::from).collect()
    }

    /// Mean utilization in percent over the present samples (0 for an
    /// empty or fully-missing series).
    #[must_use]
    pub fn mean(&self) -> f32 {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for v in self.iter() {
            if v.is_finite() {
                sum += f64::from(v);
                count += 1;
            }
        }
        if count == 0 {
            return 0.0;
        }
        (sum / count as f64) as f32
    }

    /// The raw quantized samples — the exact storage representation
    /// (half-percent steps, `0xFF` marking a missing slot). This is the
    /// byte-level interface the on-disk trace store persists, so a
    /// series survives an encode/decode round trip bit-identically.
    #[must_use]
    pub fn as_quantized(&self) -> &[u8] {
        &self.samples
    }

    /// Rebuilds a series from its storage representation (the bytes
    /// [`UtilSeries::as_quantized`] exposes), without re-quantizing —
    /// the decode half of the trace store's round trip. Counts under
    /// `model.telemetry.series_decoded`, not `series_created`, so
    /// generation-side reconciliation stays exact under lazy loading.
    #[must_use]
    pub fn from_quantized(start: SimTime, samples: Bytes) -> Self {
        cloudscope_obs::counter("model.telemetry.series_decoded").inc();
        Self { start, samples }
    }
}

/// How many samples sit on each stored level: the exact distribution of
/// any number of quantized samples in constant space.
///
/// A stored sample is one byte with 201 possible present values, so a
/// table indexed by that byte *is* the distribution — counting costs one
/// increment per sample, and the result does not depend on the order
/// samples or series were counted in. Every statistic is over present
/// samples only; missing ones are tallied apart.
///
/// # Examples
/// ```
/// # use cloudscope_model::telemetry::{LevelCounts, UtilSeries};
/// # use cloudscope_model::time::SimTime;
/// let s = UtilSeries::from_percentages(SimTime::ZERO, [10.0, f32::NAN, 40.0, 20.0, 30.0]);
/// let mut levels = LevelCounts::new();
/// levels.add(s.as_quantized());
/// assert_eq!(levels.count(), 4);
/// assert_eq!(levels.mean(), Some(25.0));
/// assert_eq!(levels.percentile(50.0), Some(25.0));
/// assert_eq!(levels.percentile(100.0), Some(40.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelCounts {
    /// `counts[q]` samples were stored as byte `q`. The table spans
    /// every byte value so that counting never branches; the last entry
    /// is the missing-sample marker's.
    counts: [u64; 256],
}

impl Default for LevelCounts {
    fn default() -> Self {
        Self::new()
    }
}

impl LevelCounts {
    /// An empty table.
    #[must_use]
    pub const fn new() -> Self {
        Self { counts: [0; 256] }
    }

    /// Counts stored samples (the bytes [`UtilSeries::as_quantized`]
    /// exposes).
    pub fn add(&mut self, samples: &[u8]) {
        for &q in samples {
            self.counts[usize::from(q)] += 1;
        }
    }

    /// Counts per level, ascending, for the present levels only.
    fn present(&self) -> &[u64] {
        &self.counts[..usize::from(MISSING_SAMPLE)]
    }

    /// Number of present samples counted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.present().iter().sum()
    }

    /// Mean of the present samples in percent; `None` if there are none.
    /// The sum is taken in whole quantization steps, so it is exact.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let steps: u64 = (0u64..).zip(self.present()).map(|(q, n)| q * n).sum();
        Some(steps as f64 / f64::from(QUANT_STEPS_PER_PERCENT) / count as f64)
    }

    /// The `rank`-th smallest present sample (0-based) in percent;
    /// `None` if fewer were counted.
    fn order_statistic(&self, rank: u64) -> Option<f64> {
        let mut seen = 0u64;
        let level = self.present().iter().position(|&n| {
            seen += n;
            seen > rank
        })?;
        Some(level as f64 / f64::from(QUANT_STEPS_PER_PERCENT))
    }

    /// The `p`-th percentile of the present samples in percent, linearly
    /// interpolated between closest ranks ("type 7"); `None` if there
    /// are none. Exact, and computed operation for operation as
    /// `cloudscope_stats::percentile` computes it over the same samples,
    /// so the two agree to the last bit.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let rank = p / 100.0 * self.count().checked_sub(1)? as f64;
        let lo = rank.floor();
        let frac = rank - lo;
        let lo_val = self.order_statistic(lo as u64)?;
        if frac == 0.0 {
            return Some(lo_val);
        }
        let hi_val = self.order_statistic(lo as u64 + 1)?;
        Some(lo_val + (hi_val - lo_val) * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The quantization as first written, through libm `roundf`.
    fn quantize_with_roundf(v: f32) -> u8 {
        if v.is_finite() {
            (v.clamp(0.0, MAX_UTILIZATION_PCT) * QUANT_STEPS_PER_PERCENT).round() as u8
        } else {
            MISSING_SAMPLE
        }
    }

    #[test]
    fn quantize_equals_roundf_around_every_half_step_edge() {
        // 2v = k + ½ for k in 0..=200: 0.25, 0.75, …, 100.25.
        for k in 0..=200u16 {
            let edge = (f32::from(k) + 0.5) / QUANT_STEPS_PER_PERCENT;
            for offset in -4096i32..=4096 {
                let v = f32::from_bits(edge.to_bits().wrapping_add_signed(offset));
                assert_eq!(quantize_percentage(v), quantize_with_roundf(v), "{v:e}");
            }
        }
        let specials = [
            0.0,
            -0.0,
            100.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for v in specials {
            assert_eq!(quantize_percentage(v), quantize_with_roundf(v), "{v:e}");
        }
    }

    proptest! {
        #[test]
        fn quantize_equals_roundf_on_any_bit_pattern(bits in any::<u32>()) {
            let v = f32::from_bits(bits);
            prop_assert_eq!(quantize_percentage(v), quantize_with_roundf(v));
        }
    }

    #[test]
    fn levels_build_the_series_their_values_build() {
        let values = [0.0, 12.3, f32::NAN, 99.9, 250.0];
        let levels = values.iter().map(|&v| quantize_percentage(v)).collect();
        let start = SimTime::from_hours(3);
        assert_eq!(
            UtilSeries::from_levels(start, levels),
            UtilSeries::from_percentages(start, values)
        );
    }

    #[test]
    fn quantization_roundtrip_within_half_step() {
        let vals = [0.0, 0.3, 12.34, 50.0, 99.9, 100.0];
        let s = UtilSeries::from_percentages(SimTime::ZERO, vals);
        for (i, &v) in vals.iter().enumerate() {
            let got = s.get(i).unwrap();
            assert!((got - v).abs() <= 0.25, "sample {i}: {v} -> {got}");
        }
    }

    #[test]
    fn values_clamped_to_range() {
        let s = UtilSeries::from_percentages(SimTime::ZERO, [-5.0, 250.0]);
        assert_eq!(s.get(0), Some(0.0));
        assert_eq!(s.get(1), Some(100.0));
    }

    #[test]
    fn time_indexing() {
        let s = UtilSeries::from_percentages(SimTime::from_hours(1), [1.0, 2.0, 3.0]);
        assert_eq!(s.time_at(2).minutes(), 70);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let s = UtilSeries::from_percentages(SimTime::ZERO, std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn missing_samples_roundtrip_as_gaps() {
        let s = UtilSeries::from_percentages(SimTime::ZERO, [10.0, f32::NAN, 30.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), Some(10.0));
        assert_eq!(s.get(1), None);
        assert_eq!(s.present_count(), 2);
        let vals: Vec<f32> = s.iter().collect();
        assert!(vals[1].is_nan());
        assert!(s.to_f64_vec()[1].is_nan());
        // Mean skips the gap rather than poisoning to NaN.
        assert!((s.mean() - 20.0).abs() < 0.3);
    }

    #[test]
    fn gaps_do_not_shift_the_time_grid() {
        let s = UtilSeries::from_percentages(SimTime::ZERO, [10.0, f32::NAN, 30.0]);
        assert_eq!(s.time_at(2), SimTime::from_minutes(10));
        assert_eq!(s.get(2), Some(30.0));
        assert_eq!(s.get(1), None);
    }

    #[test]
    fn quantized_roundtrip_is_bit_exact() {
        let s = UtilSeries::from_percentages(SimTime::from_hours(2), [0.0, 12.3, f32::NAN, 99.9]);
        let back = UtilSeries::from_quantized(s.start(), Bytes::copy_from_slice(s.as_quantized()));
        assert_eq!(s, back);
        assert_eq!(back.get(2), None);
        assert_eq!(back.start(), SimTime::from_hours(2));
    }

    fn levels_of(percentages: &[f32]) -> LevelCounts {
        let s = UtilSeries::from_percentages(SimTime::ZERO, percentages.iter().copied());
        let mut levels = LevelCounts::new();
        levels.add(s.as_quantized());
        levels
    }

    #[test]
    fn level_counts_interpolate_between_closest_ranks() {
        // Type 7 on four samples: rank = p/100 · 3.
        let levels = levels_of(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(levels.percentile(0.0), Some(10.0));
        assert_eq!(levels.percentile(50.0), Some(25.0));
        assert_eq!(levels.percentile(100.0), Some(40.0));
        assert_eq!(
            levels.percentile(95.0),
            Some(30.0 + 10.0 * (0.95 * 3.0 - 2.0))
        );
        // Ten samples 0..9: p90 sits at rank 8.1.
        let ramp: Vec<f32> = (0..10u8).map(f32::from).collect();
        let p90 = levels_of(&ramp).percentile(90.0).unwrap();
        assert!((p90 - 8.1).abs() < 1e-12, "{p90}");
        // Ties: both closest ranks on one level need no interpolation.
        assert_eq!(levels_of(&[5.0; 7]).percentile(33.0), Some(5.0));
        assert_eq!(levels_of(&[12.5]).percentile(95.0), Some(12.5));
    }

    #[test]
    fn level_counts_see_only_present_samples() {
        let levels = levels_of(&[10.0, f32::NAN, 20.5, f32::INFINITY]);
        assert_eq!(levels.count(), 2);
        assert_eq!(levels.mean(), Some(15.25));
        assert_eq!(levels.percentile(100.0), Some(20.5));
        for empty in [LevelCounts::new(), levels_of(&[f32::NAN, f32::NAN])] {
            assert_eq!(empty.count(), 0);
            assert_eq!(empty.mean(), None);
            assert_eq!(empty.percentile(95.0), None);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_counts_reject_an_impossible_percentile() {
        let _ = levels_of(&[1.0]).percentile(100.5);
    }

    #[test]
    fn fully_missing_series_has_zero_coverage_mean() {
        let s = UtilSeries::from_percentages(SimTime::ZERO, [f32::NAN, f32::INFINITY]);
        assert_eq!(s.present_count(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
