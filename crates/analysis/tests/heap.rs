//! Allocations per steady-state classification: the classifier reads
//! the stored bytes into this thread's reused buffers, and the period
//! detector keeps its candidates off the heap, so once the buffers and
//! the FFT plans are warm a classification allocates only the ACF of
//! each detection that takes one.
//!
//! Its own test binary, because it installs the counting allocator and
//! reads the process-wide event count: one test, nothing else running.

use cloudscope_analysis::{PatternClassifier, UtilizationPattern};
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::time::{SimTime, SAMPLES_PER_WEEK};
use cloudscope_obs::heap::{allocations_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A stored week: a daily cycle plus a 30-minute spike train of
/// `spike` percent, with every `loss`-th slot and a six-hour blackout
/// missing when `gapped`.
fn week(spike: f32, gapped: bool) -> UtilSeries {
    let values = (0..SAMPLES_PER_WEEK).map(|i| {
        let day = std::f32::consts::TAU * i as f32 / 288.0;
        let value = 40.0 + 25.0 * day.sin() + if i % 6 == 0 { spike } else { 0.0 };
        let lost = gapped && (i % 23 == 0 || (700..772).contains(&i));
        if lost {
            f32::NAN
        } else {
            value
        }
    });
    UtilSeries::from_percentages(SimTime::ZERO, values)
}

#[test]
fn steady_state_classification_allocates_one_acf_per_validated_detection() {
    let classifier = PatternClassifier;
    // (series, class, ACFs taken): a daily cycle's hourly query ends
    // after its periodogram and its daily query takes the ACF; a spike
    // train's hourly query takes it and answers; a flat series stops at
    // the stable gate.
    let flat = UtilSeries::from_percentages(SimTime::ZERO, vec![20.0; SAMPLES_PER_WEEK]);
    let cases = [
        (week(0.0, false), UtilizationPattern::Diurnal, 1),
        (week(0.0, true), UtilizationPattern::Diurnal, 1),
        (week(30.0, false), UtilizationPattern::HourlyPeak, 1),
        (flat, UtilizationPattern::Stable, 0),
    ];
    for (util, class, acfs) in &cases {
        // Warm twice: the thread's buffers, the FFT plans and the
        // metrics the detections register (a plan's first use is a
        // cache miss, its second the first hit).
        for _ in 0..2 {
            assert_eq!(classifier.classify_util(util), Some(*class));
        }
        let (pattern, events) = allocations_during(|| classifier.classify_util(util));
        assert_eq!(pattern, Some(*class));
        assert_eq!(
            events, *acfs,
            "{class} classification: {events} allocations, {acfs} expected"
        );
    }
}
