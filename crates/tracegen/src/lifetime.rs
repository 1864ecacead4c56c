//! Churn-VM lifetime sampling: the three-component mixture calibrated to
//! Figure 3(a)'s shortest-bin fractions (49% private, 81% public).

use crate::config::LifetimeProfile;
use cloudscope_model::time::SimDuration;
use cloudscope_stats::dist::{Exponential, LogNormal};
use rand::Rng;

/// Samples VM lifetimes from the short/medium/long mixture.
#[derive(Debug, Clone)]
pub struct LifetimeSampler {
    short_fraction: f64,
    long_fraction: f64,
    short: Exponential,
    medium: LogNormal,
    long: LogNormal,
}

impl LifetimeSampler {
    /// Builds the sampler from a profile.
    ///
    /// # Panics
    /// Panics if the profile's fractions are outside `[0, 1]` or sum past
    /// 1, or if any scale parameter is non-positive.
    #[must_use]
    pub fn new(profile: &LifetimeProfile) -> Self {
        assert!(
            (0.0..=1.0).contains(&profile.short_fraction)
                && (0.0..=1.0).contains(&profile.long_fraction)
                && profile.short_fraction + profile.long_fraction <= 1.0,
            "lifetime fractions must form a sub-probability"
        );
        Self {
            short_fraction: profile.short_fraction,
            long_fraction: profile.long_fraction,
            short: Exponential::new(1.0 / profile.short_mean_minutes).expect("positive short mean"),
            medium: LogNormal::from_median(profile.medium_median_minutes, profile.medium_sigma)
                .expect("positive medium median"),
            long: LogNormal::from_median(profile.long_median_minutes, 0.8)
                .expect("positive long median"),
        }
    }

    /// Draws one lifetime. Lifetimes are at least one minute.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let u: f64 = rng.random();
        let minutes = if u < self.short_fraction {
            self.short.sample(rng)
        } else if u < self.short_fraction + self.long_fraction {
            self.long.sample(rng)
        } else {
            self.medium.sample(rng)
        };
        SimDuration::from_minutes((minutes.round() as i64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn private_profile() -> LifetimeProfile {
        LifetimeProfile {
            short_fraction: 0.60,
            short_mean_minutes: 22.0,
            medium_median_minutes: 9.0 * 60.0,
            medium_sigma: 0.9,
            long_fraction: 0.10,
            long_median_minutes: 4.0 * 24.0 * 60.0,
        }
    }

    fn public_profile() -> LifetimeProfile {
        LifetimeProfile {
            short_fraction: 0.84,
            short_mean_minutes: 18.0,
            medium_median_minutes: 7.0 * 60.0,
            medium_sigma: 1.0,
            long_fraction: 0.04,
            long_median_minutes: 4.0 * 24.0 * 60.0,
        }
    }

    fn short_bin_fraction(profile: &LifetimeProfile, bin_minutes: i64) -> f64 {
        let sampler = LifetimeSampler::new(profile);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let short = (0..n)
            .filter(|_| sampler.sample(&mut rng).minutes() <= bin_minutes)
            .count();
        short as f64 / n as f64
    }

    #[test]
    fn shortest_bin_fractions_match_calibration() {
        // One-hour shortest bin, as in the Fig 3(a) reproduction.
        let private = short_bin_fraction(&private_profile(), 60);
        let public = short_bin_fraction(&public_profile(), 60);
        assert!((private - 0.55).abs() < 0.12, "private {private}");
        assert!((public - 0.82).abs() < 0.08, "public {public}");
        assert!(public > private + 0.2);
    }

    #[test]
    fn lifetimes_are_positive() {
        let sampler = LifetimeSampler::new(&public_profile());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(sampler.sample(&mut rng).minutes() >= 1);
        }
    }

    #[test]
    fn long_tail_exists() {
        let sampler = LifetimeSampler::new(&private_profile());
        let mut rng = StdRng::seed_from_u64(4);
        let week = 7 * 24 * 60;
        let long = (0..20_000)
            .filter(|_| sampler.sample(&mut rng).minutes() > week / 2)
            .count();
        assert!(long > 100, "expected a long-lived tail, got {long}");
    }

    #[test]
    #[should_panic(expected = "sub-probability")]
    fn invalid_fractions_rejected() {
        let mut p = private_profile();
        p.short_fraction = 0.9;
        p.long_fraction = 0.3;
        let _ = LifetimeSampler::new(&p);
    }
}
