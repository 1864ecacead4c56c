//! Property tests: the pattern classifier recovers the generating
//! archetype across randomly drawn service profiles — the ground-truth
//! validation the synthetic substrate makes possible.

use cloudscope_analysis::{PatternClassifier, UtilizationPattern};
use cloudscope_model::time::{SimTime, SAMPLES_PER_WEEK};
use cloudscope_tracegen::{generate_vm_series, PatternKind, ServiceUtilProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn classify(profile: &ServiceUtilProfile, tz: i32, seed: u64) -> Option<UtilizationPattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    let util = generate_vm_series(profile, tz, SimTime::ZERO, SAMPLES_PER_WEEK, &mut rng);
    PatternClassifier.classify_util(&util)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn diurnal_profiles_classify_diurnal(
        seed in any::<u64>(),
        tz in -10i32..=2,
        agnostic in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = ServiceUtilProfile::sample(PatternKind::Diurnal, agnostic, &mut rng);
        prop_assert_eq!(
            classify(&profile, tz, seed ^ 1),
            Some(UtilizationPattern::Diurnal),
            "profile {:?}", profile
        );
    }

    #[test]
    fn stable_profiles_classify_stable(seed in any::<u64>(), tz in -10i32..=2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = ServiceUtilProfile::sample(PatternKind::Stable, false, &mut rng);
        prop_assert_eq!(classify(&profile, tz, seed ^ 1), Some(UtilizationPattern::Stable));
    }

    #[test]
    fn hourly_profiles_classify_hourly(seed in any::<u64>(), tz in -10i32..=2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = ServiceUtilProfile::sample(PatternKind::HourlyPeak, false, &mut rng);
        prop_assert_eq!(
            classify(&profile, tz, seed ^ 1),
            Some(UtilizationPattern::HourlyPeak),
            "profile {:?}", profile
        );
    }

    #[test]
    fn irregular_profiles_never_classify_periodic(seed in any::<u64>(), tz in -10i32..=2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = ServiceUtilProfile::sample(PatternKind::Irregular, false, &mut rng);
        let got = classify(&profile, tz, seed ^ 1);
        // Sparse spikes carry no period; depending on spike density the
        // series may read as stable (few spikes) or irregular, but never
        // as diurnal or hourly-peak.
        prop_assert!(
            matches!(
                got,
                Some(UtilizationPattern::Irregular) | Some(UtilizationPattern::Stable)
            ),
            "irregular profile classified {got:?}"
        );
    }
}
