//! Utilization-pattern generators for the four archetypes of Figure 5:
//! diurnal, stable, irregular, and hourly-peak.
//!
//! All VMs of one *service* share a [`ServiceUtilProfile`] (same pattern,
//! base, amplitude, and phase) — this is what makes co-located
//! private-cloud VMs correlate with their host node (Figure 7(a)). Each VM
//! adds independent sampling noise and, for irregular services, its own
//! spike schedule.
//!
//! A region-agnostic (geo-load-balanced) service follows one *global*
//! clock in every region; a region-sensitive service follows the region's
//! local wall clock (Figure 7(c)).

use crate::config::PatternMix;
use cloudscope_model::telemetry::{quantize_percentage, UtilSeries};
use cloudscope_model::time::{SimTime, Weekday, SAMPLES_PER_DAY, SAMPLE_INTERVAL_MINUTES};
use cloudscope_stats::dist::{Categorical, Poisson, StdNormal};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The four utilization-pattern archetypes of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Daily cycle tied to user activity; weekday peaks ≈ 3× weekend.
    Diurnal,
    /// Flat utilization with small noise.
    Stable,
    /// Low base with unpredictable short spikes.
    Irregular,
    /// Sharp peaks at hour/half-hour marks during working hours.
    HourlyPeak,
}

impl PatternKind {
    /// All four kinds in Figure 5 order.
    pub const ALL: [PatternKind; 4] = [
        PatternKind::Diurnal,
        PatternKind::Stable,
        PatternKind::Irregular,
        PatternKind::HourlyPeak,
    ];

    /// Draws a pattern kind from a cloud's mixture.
    pub fn sample_from_mix<R: Rng + ?Sized>(mix: &PatternMix, rng: &mut R) -> PatternKind {
        let picker = Categorical::new(&mix.weights()).expect("valid mixture weights");
        Self::ALL[picker.sample_index(rng)]
    }
}

impl std::fmt::Display for PatternKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PatternKind::Diurnal => "diurnal",
            PatternKind::Stable => "stable",
            PatternKind::Irregular => "irregular",
            PatternKind::HourlyPeak => "hourly-peak",
        })
    }
}

/// The utilization profile every VM of one service shares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceUtilProfile {
    /// Pattern archetype.
    pub kind: PatternKind,
    /// Baseline utilization in percent.
    pub base: f64,
    /// Peak height above base in percent.
    pub amplitude: f64,
    /// Local (or global, if region-agnostic) hour of the diurnal peak.
    pub peak_hour: f64,
    /// Multiplier on the amplitude during weekends (the paper's Fig 5(a)
    /// shows weekday peaks ≈ 60% vs weekend ≈ 20%).
    pub weekend_damp: f64,
    /// If `true`, the activity clock is global (UTC): a geo-level load
    /// balancer routes demand, so peaks align across time zones.
    pub region_agnostic: bool,
    /// Std-dev of per-sample Gaussian noise each VM adds, in percent.
    pub noise_std: f64,
    /// Expected irregular spikes per day (irregular pattern only).
    pub spikes_per_day: f64,
    /// Duration of an irregular spike in minutes.
    pub spike_minutes: f64,
    /// Height of irregular/hourly spikes above base, in percent.
    pub spike_height: f64,
}

impl ServiceUtilProfile {
    /// Samples a profile for one service of the given archetype, with
    /// diurnal peak hours drawn from `peak_hour_range`.
    pub fn sample_in_range<R: Rng + ?Sized>(
        kind: PatternKind,
        region_agnostic: bool,
        peak_hour_range: (f64, f64),
        rng: &mut R,
    ) -> Self {
        let (peak_lo, peak_hi) = peak_hour_range;
        let peak = peak_lo + rng.random::<f64>() * (peak_hi - peak_lo).max(0.0);
        let base = 3.0 + rng.random::<f64>() * 10.0;
        match kind {
            PatternKind::Diurnal => Self {
                kind,
                base,
                // Some services peak near 50%, most lower -> p75 < 30%.
                amplitude: 8.0 + rng.random::<f64>() * 32.0,
                peak_hour: peak,
                weekend_damp: 0.25 + rng.random::<f64>() * 0.2,
                region_agnostic,
                noise_std: 1.5,
                spikes_per_day: 0.0,
                spike_minutes: 0.0,
                spike_height: 0.0,
            },
            PatternKind::Stable => Self {
                kind,
                base: 5.0 + rng.random::<f64>() * 25.0,
                amplitude: 0.0,
                peak_hour: 0.0,
                weekend_damp: 1.0,
                region_agnostic,
                noise_std: 0.8,
                spikes_per_day: 0.0,
                spike_minutes: 0.0,
                spike_height: 0.0,
            },
            PatternKind::Irregular => Self {
                kind,
                base: 2.0 + rng.random::<f64>() * 6.0,
                amplitude: 0.0,
                peak_hour: 0.0,
                weekend_damp: 1.0,
                region_agnostic,
                noise_std: 1.0,
                spikes_per_day: 0.5 + rng.random::<f64>() * 2.5,
                spike_minutes: 15.0 + rng.random::<f64>() * 45.0,
                spike_height: 40.0 + rng.random::<f64>() * 40.0,
            },
            PatternKind::HourlyPeak => Self {
                kind,
                base,
                amplitude: 6.0 + rng.random::<f64>() * 10.0,
                peak_hour: peak,
                weekend_damp: 0.3,
                region_agnostic,
                noise_std: 1.2,
                spikes_per_day: 0.0,
                spike_minutes: 10.0,
                spike_height: 25.0 + rng.random::<f64>() * 30.0,
            },
        }
    }

    /// Samples a profile with the default early-afternoon peak range.
    pub fn sample<R: Rng + ?Sized>(kind: PatternKind, region_agnostic: bool, rng: &mut R) -> Self {
        Self::sample_in_range(kind, region_agnostic, (13.0, 16.0), rng)
    }

    /// The deterministic (noise-free, spike-free) shape component at a UTC
    /// minute for a VM in a region with the given time-zone offset.
    #[must_use]
    pub fn shape_at(&self, utc_minute: i64, tz_offset_hours: i32) -> f64 {
        let clock = if self.region_agnostic {
            SimTime::from_minutes(utc_minute)
        } else {
            SimTime::from_minutes(utc_minute).to_local(tz_offset_hours)
        };
        match self.kind {
            PatternKind::Stable | PatternKind::Irregular => self.base,
            PatternKind::Diurnal => {
                let amp = if clock.is_weekend() {
                    self.amplitude * self.weekend_damp
                } else {
                    self.amplitude
                };
                self.base + amp * activity_bump(clock.fractional_hour_of_day(), self.peak_hour)
            }
            PatternKind::HourlyPeak => {
                let work_hours = !clock.is_weekend() && (8..18).contains(&clock.hour_of_day());
                let work_damp = if work_hours { 1.0 } else { self.weekend_damp };
                // Mild diurnal floor plus the on-the-hour/half-hour spike.
                let floor = self.base
                    + self.amplitude
                        * activity_bump(clock.fractional_hour_of_day(), self.peak_hour)
                        * work_damp;
                let minute_in_half_hour = f64::from(clock.minute_of_hour() % 30);
                let spike = if minute_in_half_hour < self.spike_minutes {
                    self.spike_height * (1.0 - minute_in_half_hour / self.spike_minutes) * work_damp
                } else {
                    0.0
                };
                floor + spike
            }
        }
    }
}

/// A smooth daily activity bump: raised cosine of half-width 7 hours
/// centred on `peak_hour`, in `[0, 1]`, wrapping across midnight.
#[must_use]
fn activity_bump(hour: f64, peak_hour: f64) -> f64 {
    let mut d = (hour - peak_hour).abs();
    if d > 12.0 {
        d = 24.0 - d;
    }
    const HALF_WIDTH: f64 = 7.0;
    if d >= HALF_WIDTH {
        0.0
    } else {
        0.5 * (1.0 + (std::f64::consts::PI * d / HALF_WIDTH).cos())
    }
}

/// Generates the telemetry for one VM: the service shape at each 5-minute
/// sample, plus this VM's own noise and (for irregular services) its own
/// spike schedule.
///
/// `start` is the first sample's time; `samples` the number of 5-minute
/// samples. The same `(profile, tz, rng-stream)` always produces the same
/// series.
///
/// Every sample is `((shape + spike₁) + spike₂ …) + noise`, noise drawn
/// in sample order; only how `shape` is found varies with the pattern
/// (see [`ShapeTable`]), and how the noise is computed is
/// [`noisy_levels`]'s business.
pub fn generate_vm_series<R: Rng + ?Sized>(
    profile: &ServiceUtilProfile,
    tz_offset_hours: i32,
    start: SimTime,
    samples: usize,
    rng: &mut R,
) -> UtilSeries {
    let noise_std = profile.noise_std;
    let minute_of = |i: usize| start.minutes() + i as i64 * SAMPLE_INTERVAL_MINUTES;
    let (levels, fallbacks) = match profile.kind {
        PatternKind::Stable => noisy_levels(samples, noise_std, |_| profile.base, rng),
        PatternKind::Irregular => {
            // Pre-draw this VM's spikes over the window, then paint each
            // onto the samples it covers, in spike order.
            let window_minutes = samples as i64 * SAMPLE_INTERVAL_MINUTES;
            let expected = profile.spikes_per_day * window_minutes as f64 / (24.0 * 60.0);
            let count = Poisson::new(expected.max(0.0))
                .expect("non-negative spike rate")
                .sample_count(rng);
            let mut values = vec![profile.base; samples];
            // Index of the first sample at or after `minute` (>= start).
            let first_at = |minute: i64| {
                let since = (minute - start.minutes()) as u64;
                (since.div_ceil(SAMPLE_INTERVAL_MINUTES as u64) as usize).min(samples)
            };
            for _ in 0..count {
                let at = start.minutes() + rng.random_range(0..window_minutes.max(1));
                let dur = (profile.spike_minutes * (0.5 + rng.random::<f64>())) as i64;
                let height = profile.spike_height * (0.6 + 0.4 * rng.random::<f64>());
                let end = at + dur.max(SAMPLE_INTERVAL_MINUTES);
                for v in &mut values[first_at(at)..first_at(end)] {
                    *v += height;
                }
            }
            noisy_levels(samples, noise_std, |i| values[i], rng)
        }
        PatternKind::Diurnal | PatternKind::HourlyPeak => {
            let on_grid = start.minutes().rem_euclid(SAMPLE_INTERVAL_MINUTES) == 0;
            if on_grid && samples >= ShapeTable::WORTH_FROM_SAMPLES {
                let mut table = ShapeTable::new(profile, tz_offset_hours, start);
                noisy_levels(samples, noise_std, |i| table.next(minute_of(i)), rng)
            } else {
                noisy_levels(
                    samples,
                    noise_std,
                    |i| profile.shape_at(minute_of(i), tz_offset_hours),
                    rng,
                )
            }
        }
    };
    cloudscope_obs::counter("tracegen.telemetry.exact_fallbacks").add(fallbacks);
    UtilSeries::from_levels(start, levels)
}

/// Samples per block of [`noisy_levels`]: a block's uniforms are all
/// drawn before any is transformed, into 8 KiB on the stack.
const NOISE_BLOCK: usize = 512;

/// The stored level of `shape(i) + noise_std · zᵢ` for each `i` in
/// `0..samples`, `zᵢ` the [`StdNormal`] drawn for sample `i` in sample
/// order, and how many samples took the exact fallback.
///
/// Byte for byte this is `quantize_percentage((shape(i) + noise_std *
/// StdNormal.sample(rng)) as f32)`, sample after sample, and it leaves
/// `rng` where that loop would; each sample just tries
/// [`LevelGuard::fast_level`] first and pays for [`exact_level`] only
/// when the fast normal cannot prove the level.
fn noisy_levels<R: Rng + ?Sized>(
    samples: usize,
    noise_std: f64,
    mut shape: impl FnMut(usize) -> f64,
    rng: &mut R,
) -> (Vec<u8>, u64) {
    let guard = LevelGuard::new(noise_std);
    let mut levels = Vec::with_capacity(samples);
    let mut fallbacks = 0u64;
    let mut uniforms = [(0.0, 0.0); NOISE_BLOCK];
    for block_start in (0..samples).step_by(NOISE_BLOCK) {
        let block = &mut uniforms[..NOISE_BLOCK.min(samples - block_start)];
        for pair in block.iter_mut() {
            *pair = StdNormal::uniforms(rng);
        }
        for (i, &(u1, u2)) in (block_start..).zip(block.iter()) {
            let v = shape(i);
            levels.push(guard.fast_level(v, u1, u2).unwrap_or_else(|| {
                fallbacks += 1;
                exact_level(v, noise_std, u1, u2)
            }));
        }
    }
    (levels, fallbacks)
}

/// The stored level of `shape + noise_std · z` for the exact normal `z`
/// of `(u1, u2)`: the one formula every sample's byte is defined by.
fn exact_level(shape: f64, noise_std: f64, u1: f64, u2: f64) -> u8 {
    quantize_percentage((shape + noise_std * StdNormal::from_uniforms(u1, u2)) as f32)
}

/// When a level computed from [`StdNormal::fast_from_uniforms`] is
/// provably [`exact_level`]'s, for one `noise_std`.
///
/// With `y = 2 (shape + noise_std · z)` from the fast `z`, clamped to
/// `[0, 200]`, the candidate is the integer `k` nearest `y`. It is
/// accepted when `y` lies at least `margin` inside `(k − ½, k + ½)`:
///
/// - The exact byte is `k` whenever the exact `y′` lies in
///   `[k − ½, k + ½ − 2⁻¹⁷)`. The half steps `(k ± ½)/2` are `f32`
///   values, and below 128 rounding to `f32` moves `v` by at most 2⁻¹⁸,
///   so it cannot carry `v` across one from more than 2⁻¹⁸ away.
/// - `|y′ − y| ≤ 2 |noise_std| (δ + 2⁻⁴⁸) + 2⁻⁴⁵`: `δ` =
///   [`StdNormal::FAST_ERROR_BOUND`] from `z`, the rest from rounding
///   `noise_std · z` (`|z| < 9`) and the sum (`|v| < 128`).
/// - `margin = 2 |noise_std| (δ + 2⁻⁴⁸) + 2⁻¹⁶` covers both, with room
///   for its own rounding.
///
/// A clamped `y` stands for its whole side: `y < 0` means the sum was
/// negative before rounding, so the exact sum is below
/// `|noise_std| (δ + 2⁻⁴⁸) < 0.1` and its byte is 0 (a `noise_std`
/// with a larger error sends every sample to the fallback); `y > 200`
/// gives 200 the same way. `|y| < 10³⁰` keeps `v` inside `f32`'s range,
/// so the missing-sample byte, which the exact path gives to values
/// that are not finite there, never has to be proven.
struct LevelGuard {
    noise_std: f64,
    /// `½ − margin`; negative when the fast path can prove nothing.
    limit: f64,
}

impl LevelGuard {
    fn new(noise_std: f64) -> Self {
        let margin =
            2.0 * noise_std.abs() * (StdNormal::FAST_ERROR_BOUND + 2f64.powi(-48)) + 2f64.powi(-16);
        Self {
            noise_std,
            limit: if margin < 0.2 { 0.5 - margin } else { -1.0 },
        }
    }

    /// [`exact_level`], when the fast normal proves it; else `None`.
    #[inline]
    fn fast_level(&self, shape: f64, u1: f64, u2: f64) -> Option<u8> {
        // Adding 1.5 · 2⁵² rounds to the nearest integer, which then
        // sits in the low bits: `k` without libm `round`.
        const ROUNDER: f64 = 6_755_399_441_055_744.0;
        let y = 2.0 * (shape + self.noise_std * StdNormal::fast_from_uniforms(u1, u2));
        let clamped = y.clamp(0.0, 200.0);
        let shifted = clamped + ROUNDER;
        let off_centre = clamped - (shifted - ROUNDER);
        (off_centre.abs() <= self.limit && y.abs() < 1e30).then_some(shifted.to_bits() as u8)
    }
}

/// The service shape of consecutive 5-minute samples, each distinct
/// value computed once.
///
/// [`ServiceUtilProfile::shape_at`] depends on its clock only through
/// (weekend?, minute of day), so on the 5-minute grid a profile has at
/// most 2 × 288 shape values, against 2 016 samples in a week-long
/// series. Cells are filled on first use *by `shape_at` itself*, so a
/// looked-up value is the `f64` a direct call returns; the walk keeps
/// the slot and weekday as counters instead of dividing per sample.
struct ShapeTable<'a> {
    profile: &'a ServiceUtilProfile,
    tz_offset_hours: i32,
    /// `[weekend?][slot of day]`; NaN marks a cell not yet computed.
    cells: [[f64; SAMPLES_PER_DAY]; 2],
    /// Slot of day and weekday index (Monday = 0) of the next sample on
    /// the profile's activity clock.
    slot: usize,
    weekday: usize,
}

impl<'a> ShapeTable<'a> {
    /// Filling the table costs about what this many direct `shape_at`
    /// calls do; shorter series skip it.
    const WORTH_FROM_SAMPLES: usize = 64;

    /// A table whose first [`ShapeTable::next`] is the sample at
    /// `start`, which must lie on the 5-minute grid.
    fn new(profile: &'a ServiceUtilProfile, tz_offset_hours: i32, start: SimTime) -> Self {
        let clock = if profile.region_agnostic {
            start
        } else {
            start.to_local(tz_offset_hours)
        };
        Self {
            profile,
            tz_offset_hours,
            cells: [[f64::NAN; SAMPLES_PER_DAY]; 2],
            slot: clock.minute_of_day() as usize / SAMPLE_INTERVAL_MINUTES as usize,
            weekday: clock.weekday().index(),
        }
    }

    /// The shape of the next sample, whose UTC time is `utc_minute`.
    fn next(&mut self, utc_minute: i64) -> f64 {
        let weekend = Weekday::from_index(self.weekday).is_weekend();
        let cell = &mut self.cells[usize::from(weekend)][self.slot];
        if cell.is_nan() {
            *cell = self.profile.shape_at(utc_minute, self.tz_offset_hours);
        }
        let shape = *cell;
        self.slot += 1;
        if self.slot == SAMPLES_PER_DAY {
            self.slot = 0;
            self.weekday = (self.weekday + 1) % 7;
        }
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_model::time::SAMPLES_PER_WEEK;
    use cloudscope_obs::{scoped, Registry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn gen_week(
        kind: PatternKind,
        agnostic: bool,
        tz: i32,
        seed: u64,
    ) -> (ServiceUtilProfile, UtilSeries) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = ServiceUtilProfile::sample(kind, agnostic, &mut rng);
        let series = generate_vm_series(&profile, tz, SimTime::ZERO, SAMPLES_PER_WEEK, &mut rng);
        (profile, series)
    }

    /// The per-sample loop `generate_vm_series` used before shapes were
    /// tabulated and spikes painted, kept as its oracle.
    fn generate_vm_series_per_sample<R: Rng + ?Sized>(
        profile: &ServiceUtilProfile,
        tz_offset_hours: i32,
        start: SimTime,
        samples: usize,
        rng: &mut R,
    ) -> UtilSeries {
        let spikes: Vec<(i64, i64, f64)> = if profile.kind == PatternKind::Irregular {
            let window_minutes = samples as i64 * SAMPLE_INTERVAL_MINUTES;
            let expected = profile.spikes_per_day * window_minutes as f64 / (24.0 * 60.0);
            let count = Poisson::new(expected.max(0.0))
                .expect("non-negative spike rate")
                .sample_count(rng);
            (0..count)
                .map(|_| {
                    let at = start.minutes() + rng.random_range(0..window_minutes.max(1));
                    let dur = (profile.spike_minutes * (0.5 + rng.random::<f64>())) as i64;
                    let height = profile.spike_height * (0.6 + 0.4 * rng.random::<f64>());
                    (at, at + dur.max(SAMPLE_INTERVAL_MINUTES), height)
                })
                .collect()
        } else {
            Vec::new()
        };
        let values = (0..samples).map(|i| {
            let minute = start.minutes() + i as i64 * SAMPLE_INTERVAL_MINUTES;
            let mut v = profile.shape_at(minute, tz_offset_hours);
            for &(s, e, h) in &spikes {
                if (s..e).contains(&minute) {
                    v += h;
                }
            }
            v += profile.noise_std * StdNormal.sample(rng);
            v as f32
        });
        UtilSeries::from_percentages(start, values.collect::<Vec<_>>())
    }

    #[test]
    fn series_equal_the_per_sample_loop_byte_for_byte() {
        // Starts on the 5-minute grid (trace origin, mid-week, before the
        // week) and off it; lengths on both sides of the table's
        // threshold, one day, one week.
        let starts = [0i64, 2 * 1440 + 35, -125, 3, -7];
        let lengths = [2usize, 63, 64, 288, 2016];
        let mut seed = 0u64;
        for kind in PatternKind::ALL {
            for agnostic in [false, true] {
                for tz in [-8, 0, 5] {
                    for start in starts.map(SimTime::from_minutes) {
                        for samples in lengths {
                            seed += 1;
                            let mut rng = StdRng::seed_from_u64(seed);
                            let mut profile = ServiceUtilProfile::sample(kind, agnostic, &mut rng);
                            // Spikes dense enough to overlap within a day.
                            profile.spikes_per_day *= 8.0;
                            let mut oracle_rng = rng.clone();
                            let new = generate_vm_series(&profile, tz, start, samples, &mut rng);
                            let old = generate_vm_series_per_sample(
                                &profile,
                                tz,
                                start,
                                samples,
                                &mut oracle_rng,
                            );
                            let case = format!(
                                "{kind} agnostic={agnostic} tz={tz} start={start} n={samples}"
                            );
                            assert_eq!(new.start(), old.start(), "{case}");
                            assert_eq!(new.as_quantized(), old.as_quantized(), "{case}");
                            assert_eq!(
                                rng.random::<u64>(),
                                oracle_rng.random::<u64>(),
                                "rng stream after {case}"
                            );
                        }
                    }
                }
            }
        }

        // Level-edge profiles: each base moved so that the first sample's
        // exact value sits on a half-step edge, which the fast normal
        // cannot prove, so the exact fallback runs.
        let registry = Arc::new(Registry::new());
        let edge_cases = scoped(&registry, || {
            let mut cases = 0u64;
            for kind in PatternKind::ALL {
                for noise_std in [0.0, 0.01, 0.4] {
                    seed += 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut profile = ServiceUtilProfile::sample(kind, false, &mut rng);
                    profile.noise_std = noise_std;
                    let (tz, start, samples) = (5, SimTime::from_minutes(2 * 1440 + 35), 64);
                    let first_byte = |base: f64| {
                        let moved = ServiceUtilProfile { base, ..profile };
                        generate_vm_series_per_sample(&moved, tz, start, samples, &mut rng.clone())
                            .as_quantized()[0]
                    };
                    let below = first_byte(profile.base - 0.3);
                    profile.base = first_where(profile.base - 0.3, profile.base + 0.3, |base| {
                        first_byte(base) != below
                    });
                    let mut oracle_rng = rng.clone();
                    let new = generate_vm_series(&profile, tz, start, samples, &mut rng);
                    let old = generate_vm_series_per_sample(
                        &profile,
                        tz,
                        start,
                        samples,
                        &mut oracle_rng,
                    );
                    let case = format!("{kind} on a level edge, noise_std={noise_std}");
                    assert_eq!(new.as_quantized(), old.as_quantized(), "{case}");
                    assert_eq!(
                        rng.random::<u64>(),
                        oracle_rng.random::<u64>(),
                        "rng stream after {case}"
                    );
                    cases += 1;
                }
            }
            cases
        });
        let fallbacks = registry
            .snapshot()
            .counter("tracegen.telemetry.exact_fallbacks")
            .expect("every series counts its fallbacks");
        assert!(
            fallbacks >= edge_cases,
            "{fallbacks} fallbacks over {edge_cases} edge cases"
        );
    }

    /// The least `x` in `(lo, hi]` at which the monotone `past_edge`
    /// turns true, given it is false at `lo` and true at `hi`.
    fn first_where(mut lo: f64, mut hi: f64, past_edge: impl Fn(f64) -> bool) -> f64 {
        assert!(!past_edge(lo) && past_edge(hi), "no edge in [{lo}, {hi}]");
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                return hi;
            }
            if past_edge(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    #[test]
    fn values_on_a_level_edge_take_the_exact_path() {
        let mut rng = StdRng::seed_from_u64(31);
        for noise_std in [0.0, 0.05, 1.5, 30.0] {
            let guard = LevelGuard::new(noise_std);
            // Each sample's shape is put where its exact value steps from
            // level k to k + 1, for edges across the whole range.
            let mut kernel_rng = rng.clone();
            let mut oracle_rng = rng.clone();
            let mut shapes = Vec::new();
            for k in [0u8, 1, 20, 57, 123, 198, 199] {
                let (u1, u2) = StdNormal::uniforms(&mut rng);
                let edge =
                    (f64::from(k) + 0.5) / 2.0 - noise_std * StdNormal::from_uniforms(u1, u2);
                let shape = first_where(edge - 0.2, edge + 0.2, |shape| {
                    exact_level(shape, noise_std, u1, u2) > k
                });
                let just_below = shape.next_down();
                assert_eq!(exact_level(shape, noise_std, u1, u2), k + 1);
                assert_eq!(exact_level(just_below, noise_std, u1, u2), k);
                for v in [shape, just_below] {
                    assert_eq!(guard.fast_level(v, u1, u2), None, "k={k} v={v:e}");
                }
                shapes.push(shape);
            }
            let (levels, fallbacks) =
                noisy_levels(shapes.len(), noise_std, |i| shapes[i], &mut kernel_rng);
            let oracle: Vec<u8> = shapes
                .iter()
                .map(|&v| {
                    quantize_percentage((v + noise_std * StdNormal.sample(&mut oracle_rng)) as f32)
                })
                .collect();
            assert_eq!(levels, oracle, "noise_std={noise_std}");
            assert_eq!(fallbacks, shapes.len() as u64);
        }
    }

    #[test]
    fn the_fast_path_proves_almost_every_byte_and_nothing_unprovable() {
        let mut rng = StdRng::seed_from_u64(32);
        let samples = 100_000;
        for (shape, noise_std) in [
            (20.0, 1.5),
            (1.0, 1.0),
            (99.0, 1.5),
            (-5.0, 0.8),
            (130.0, 3.0),
        ] {
            let mut oracle_rng = rng.clone();
            let (levels, fallbacks) = noisy_levels(samples, noise_std, |_| shape, &mut rng);
            let oracle: Vec<u8> = (0..samples)
                .map(|_| {
                    quantize_percentage(
                        (shape + noise_std * StdNormal.sample(&mut oracle_rng)) as f32,
                    )
                })
                .collect();
            assert_eq!(levels, oracle, "shape={shape} noise_std={noise_std}");
            assert!(
                fallbacks * 1000 <= samples as u64,
                "shape={shape} noise_std={noise_std}: {fallbacks} fallbacks"
            );
        }
        // Nothing the guard cannot bound is proven: non-finite inputs,
        // values beyond f32, and a noise_std whose error is not small.
        let (u1, u2) = (0.3, 0.7);
        for (shape, noise_std) in [
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (-1e300, 1.0),
            (20.0, f64::NAN),
            (20.0, f64::INFINITY),
            (20.0, 1e6),
        ] {
            assert_eq!(LevelGuard::new(noise_std).fast_level(shape, u1, u2), None);
        }
    }

    #[test]
    fn diurnal_has_daynight_contrast_and_weekend_dip() {
        let (profile, series) = gen_week(PatternKind::Diurnal, false, 0, 1);
        let vals = series.to_f64_vec();
        // Weekday (Tue) peak hour vs night.
        let day_idx = (24 + profile.peak_hour as usize) * 12;
        let night_idx = (24 + 3) * 12;
        assert!(vals[day_idx] > vals[night_idx] + profile.amplitude * 0.5);
        // Saturday same hour is damped.
        let sat_idx = (5 * 24 + profile.peak_hour as usize) * 12;
        assert!(vals[day_idx] > vals[sat_idx] + profile.amplitude * 0.3);
    }

    #[test]
    fn stable_is_flat() {
        let (profile, series) = gen_week(PatternKind::Stable, false, 0, 2);
        let vals = series.to_f64_vec();
        let summary: cloudscope_stats::Summary = vals.iter().copied().collect();
        assert!(summary.population_std_dev() < 3.0 * profile.noise_std + 0.5);
        assert!((summary.mean() - profile.base).abs() < 1.0);
    }

    #[test]
    fn irregular_spikes_rare_but_tall() {
        let (profile, series) = gen_week(PatternKind::Irregular, false, 0, 3);
        let vals = series.to_f64_vec();
        let above = vals.iter().filter(|&&v| v > profile.base + 20.0).count();
        let frac = above as f64 / vals.len() as f64;
        assert!(frac > 0.0, "no spikes generated");
        assert!(frac < 0.2, "spikes too frequent: {frac}");
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 30.0, "spikes too small: {max}");
    }

    #[test]
    fn hourly_peak_spikes_on_the_half_hour() {
        let (_, series) = gen_week(PatternKind::HourlyPeak, false, 0, 4);
        let vals = series.to_f64_vec();
        // Tuesday 10:00-16:00: compare on-the-hour samples vs :20 samples.
        let mut on_mark = 0.0;
        let mut off_mark = 0.0;
        let mut n = 0.0;
        for hour in 10..16 {
            let base_idx = (24 + hour) * 12;
            on_mark += vals[base_idx];
            off_mark += vals[base_idx + 4]; // :20
            n += 1.0;
        }
        assert!(
            on_mark / n > off_mark / n + 10.0,
            "on {on_mark} vs off {off_mark}"
        );
    }

    #[test]
    fn region_agnostic_aligns_peaks_across_time_zones() {
        // Same service profile, two regions 8 hours apart.
        let mut rng = StdRng::seed_from_u64(5);
        let profile = ServiceUtilProfile::sample(PatternKind::Diurnal, true, &mut rng);
        let a: Vec<f64> = (0..SAMPLES_PER_WEEK as i64)
            .map(|i| profile.shape_at(i * 5, 0))
            .collect();
        let b: Vec<f64> = (0..SAMPLES_PER_WEEK as i64)
            .map(|i| profile.shape_at(i * 5, -8))
            .collect();
        assert_eq!(a, b, "geo-LB service must ignore the local clock");

        // The same service without geo-LB shifts with the zone.
        let local = ServiceUtilProfile {
            region_agnostic: false,
            ..profile
        };
        let c: Vec<f64> = (0..SAMPLES_PER_WEEK as i64)
            .map(|i| local.shape_at(i * 5, -8))
            .collect();
        assert_ne!(a, c);
        let r = cloudscope_stats::pearson(&a, &c).unwrap();
        assert!(r < 0.7, "8-hour shift should decorrelate: {r}");
    }

    #[test]
    fn same_service_vms_correlate() {
        let mut rng = StdRng::seed_from_u64(6);
        let profile = ServiceUtilProfile::sample(PatternKind::Diurnal, false, &mut rng);
        let v1 = generate_vm_series(&profile, -5, SimTime::ZERO, 2016, &mut rng).to_f64_vec();
        let v2 = generate_vm_series(&profile, -5, SimTime::ZERO, 2016, &mut rng).to_f64_vec();
        let r = cloudscope_stats::pearson(&v1, &v2).unwrap();
        assert!(r > 0.8, "same-service VMs should correlate: {r}");
    }

    #[test]
    fn different_phase_services_decorrelate() {
        let morning = ServiceUtilProfile {
            kind: PatternKind::Diurnal,
            base: 10.0,
            amplitude: 30.0,
            peak_hour: 6.0,
            weekend_damp: 1.0,
            region_agnostic: false,
            noise_std: 0.5,
            spikes_per_day: 0.0,
            spike_minutes: 0.0,
            spike_height: 0.0,
        };
        let evening = ServiceUtilProfile {
            peak_hour: 18.0,
            ..morning
        };
        let a: Vec<f64> = (0..2016i64).map(|i| morning.shape_at(i * 5, 0)).collect();
        let b: Vec<f64> = (0..2016i64).map(|i| evening.shape_at(i * 5, 0)).collect();
        let r = cloudscope_stats::pearson(&a, &b).unwrap();
        assert!(r < 0.2, "opposite phases should not correlate: {r}");
    }

    #[test]
    fn pattern_mix_sampling_respects_weights() {
        let mix = PatternMix {
            diurnal: 0.7,
            stable: 0.3,
            irregular: 0.0,
            hourly_peak: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut diurnal = 0;
        for _ in 0..2000 {
            match PatternKind::sample_from_mix(&mix, &mut rng) {
                PatternKind::Diurnal => diurnal += 1,
                PatternKind::Stable => {}
                other => panic!("zero-weight pattern drawn: {other}"),
            }
        }
        let frac = f64::from(diurnal) / 2000.0;
        assert!((frac - 0.7).abs() < 0.05, "diurnal fraction {frac}");
    }

    #[test]
    fn utilization_stays_in_percent_range() {
        for (seed, kind) in PatternKind::ALL.iter().enumerate() {
            let (_, series) = gen_week(*kind, false, -8, seed as u64 + 10);
            for v in series.iter() {
                assert!((0.0..=100.0).contains(&v));
            }
        }
    }

    #[test]
    fn activity_bump_wraps_midnight() {
        // Peak at 23:00: 01:00 is 2h away, not 22h.
        assert!(activity_bump(1.0, 23.0) > 0.5);
        assert_eq!(activity_bump(11.0, 23.0), 0.0);
    }
}
