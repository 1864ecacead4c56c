//! VM arrival processes (Figure 3(b)/(c)).
//!
//! Regular churn follows a non-homogeneous Poisson process whose rate is
//! modulated by a diurnal curve in the region's local time and damped on
//! weekends. The private cloud additionally experiences *bursts*: rare
//! events that create a large batch of VMs at once — the spikes of
//! Figure 3's private-cloud curves.

use crate::config::ArrivalProfile;
use cloudscope_model::time::{SimTime, MINUTES_PER_WEEK};
use cloudscope_stats::dist::{Exponential, Poisson};
use rand::Rng;

/// The diurnal rate multiplier at a local time: a smooth curve peaking at
/// 14:00 local, scaled so it averages ~1 over the day, then damped by the
/// weekend factor on Saturday/Sunday.
#[must_use]
pub fn diurnal_rate_factor(local: SimTime, amplitude: f64, weekend_factor: f64) -> f64 {
    let hour = local.fractional_hour_of_day();
    // Cosine bump peaking at 14:00.
    let phase = (hour - 14.0) / 24.0 * std::f64::consts::TAU;
    let shape = 1.0 + amplitude * phase.cos();
    if local.is_weekend() {
        shape * weekend_factor
    } else {
        shape
    }
}

/// Samples event times of a non-homogeneous Poisson process over the
/// trace week by thinning: candidate events are drawn at the maximum rate
/// and accepted with probability `rate(t)/max_rate`.
///
/// `rate_per_hour` is the *base* rate; the instantaneous rate is
/// `base × diurnal_rate_factor(local time)`.
pub fn sample_nhpp_week<R: Rng + ?Sized>(
    rng: &mut R,
    profile: &ArrivalProfile,
    tz_offset_hours: i32,
) -> Vec<SimTime> {
    let base_per_min = profile.base_rate_per_hour / 60.0;
    if base_per_min <= 0.0 {
        return Vec::new();
    }
    let max_factor = (1.0 + profile.diurnal_amplitude).max(1e-9);
    let max_rate = base_per_min * max_factor;
    let exp = Exponential::new(max_rate).expect("positive rate");
    let mut events = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += exp.sample(rng);
        if t >= MINUTES_PER_WEEK as f64 {
            break;
        }
        let time = SimTime::from_minutes(t as i64);
        let factor = diurnal_rate_factor(
            time.to_local(tz_offset_hours),
            profile.diurnal_amplitude,
            profile.weekend_factor,
        );
        if rng.random::<f64>() < factor / max_factor {
            events.push(time);
        }
    }
    events
}

/// A deployment burst: when it fires and how many VMs it creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Fire time.
    pub at: SimTime,
    /// Number of VMs the burst deploys.
    pub size: usize,
}

/// Samples the week's bursts for one region: burst times uniform over
/// weekday working hours (large services deploy during business hours),
/// sizes Poisson around the configured mean.
pub fn sample_bursts_week<R: Rng + ?Sized>(
    rng: &mut R,
    profile: &ArrivalProfile,
    tz_offset_hours: i32,
) -> Vec<Burst> {
    if profile.bursts_per_region_week <= 0.0 || profile.burst_size_mean <= 0.0 {
        return Vec::new();
    }
    let count = Poisson::new(profile.bursts_per_region_week)
        .expect("non-negative burst rate")
        .sample_count(rng) as usize;
    let size_dist = Poisson::new(profile.burst_size_mean).expect("non-negative burst size");
    let mut bursts = Vec::with_capacity(count);
    for _ in 0..count {
        // Rejection-sample a weekday working-hour local time.
        let at = loop {
            let minute = rng.random_range(0..MINUTES_PER_WEEK);
            let t = SimTime::from_minutes(minute);
            let local = t.to_local(tz_offset_hours);
            if !local.is_weekend() && (8..20).contains(&local.hour_of_day()) {
                break t;
            }
        };
        let size = (size_dist.sample_count(rng) as usize).max(1);
        bursts.push(Burst { at, size });
    }
    bursts.sort_by_key(|b| b.at);
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_model::time::MINUTES_PER_DAY;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile(amplitude: f64, bursts: f64) -> ArrivalProfile {
        ArrivalProfile {
            base_rate_per_hour: 30.0,
            diurnal_amplitude: amplitude,
            weekend_factor: 0.5,
            bursts_per_region_week: bursts,
            burst_size_mean: 100.0,
        }
    }

    #[test]
    fn nhpp_hits_expected_total() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = profile(0.0, 0.0);
        // Flat rate, no weekend damping.
        let p_flat = ArrivalProfile {
            weekend_factor: 1.0,
            ..p
        };
        let events = sample_nhpp_week(&mut rng, &p_flat, 0);
        let expected = 30.0 * 24.0 * 7.0;
        let got = events.len() as f64;
        assert!(
            (got - expected).abs() < 0.1 * expected,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn events_sorted_and_in_window() {
        let mut rng = StdRng::seed_from_u64(2);
        let events = sample_nhpp_week(&mut rng, &profile(0.8, 0.0), -8);
        assert!(events.windows(2).all(|w| w[0] <= w[1]));
        assert!(events.iter().all(|t| t.in_trace_week()));
    }

    #[test]
    fn diurnal_amplitude_shapes_hourly_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let events = sample_nhpp_week(&mut rng, &profile(0.9, 0.0), 0);
        // Bucket weekday events by local hour.
        let mut by_hour = [0u32; 24];
        for t in &events {
            if !t.is_weekend() {
                by_hour[t.hour_of_day() as usize] += 1;
            }
        }
        let afternoon: u32 = (12..17).map(|h| by_hour[h]).sum();
        let night: u32 = (0..5).map(|h| by_hour[h]).sum();
        assert!(
            afternoon as f64 > 2.0 * night as f64,
            "afternoon {afternoon} vs night {night}"
        );
    }

    #[test]
    fn weekend_damping() {
        let mut rng = StdRng::seed_from_u64(4);
        let events = sample_nhpp_week(&mut rng, &profile(0.0, 0.0), 0);
        let weekend = events.iter().filter(|t| t.is_weekend()).count() as f64 / 2.0;
        let weekday = events.iter().filter(|t| !t.is_weekend()).count() as f64 / 5.0;
        let ratio = weekend / weekday;
        assert!((ratio - 0.5).abs() < 0.12, "ratio {ratio}");
    }

    #[test]
    fn zero_rate_yields_no_events() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = ArrivalProfile {
            base_rate_per_hour: 0.0,
            ..profile(0.5, 0.0)
        };
        assert!(sample_nhpp_week(&mut rng, &p, 0).is_empty());
    }

    #[test]
    fn bursts_fire_in_working_hours() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut total = 0usize;
        for _ in 0..50 {
            for b in sample_bursts_week(&mut rng, &profile(0.3, 3.0), -8) {
                let local = b.at.to_local(-8);
                assert!(!local.is_weekend());
                assert!((8..20).contains(&local.hour_of_day()));
                assert!(b.size >= 1);
                total += 1;
            }
        }
        // ~3 bursts per week over 50 weeks.
        assert!((100..220).contains(&total), "burst count {total}");
    }

    #[test]
    fn no_bursts_when_disabled() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(sample_bursts_week(&mut rng, &profile(0.3, 0.0), 0).is_empty());
    }

    #[test]
    fn rate_factor_peaks_afternoon_and_damps_weekend() {
        let weekday_peak = diurnal_rate_factor(SimTime::from_minutes(14 * 60), 0.8, 0.5);
        let weekday_night = diurnal_rate_factor(SimTime::from_minutes(2 * 60), 0.8, 0.5);
        assert!(weekday_peak > weekday_night);
        let saturday = SimTime::from_minutes(5 * MINUTES_PER_DAY + 14 * 60);
        let weekend_peak = diurnal_rate_factor(saturday, 0.8, 0.5);
        assert!((weekend_peak - weekday_peak * 0.5).abs() < 1e-12);
    }
}
