//! Property-based guarantees of the watermarked window state machine:
//! delivery order inside the watermark is irrelevant, and lateness is
//! always accounted, never silently applied.

use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::WireSample;
use cloudscope_ingest::{IngestConfig, Ingestor, WindowClose};
use cloudscope_model::prelude::*;
use cloudscope_model::time::SAMPLE_INTERVAL_MINUTES;
use cloudscope_model::trace::TelemetrySource;
use proptest::prelude::*;

/// Maximum positional displacement (in samples) the jittered delivery
/// may introduce — strictly inside the watermark below.
const MAX_DISPLACEMENT: i64 = 3;

fn config() -> IngestConfig {
    IngestConfig {
        // Roomy enough that a MAX_DISPLACEMENT-late sample is still
        // inside the watermark when it arrives.
        watermark_delay_minutes: (MAX_DISPLACEMENT + 2) * SAMPLE_INTERVAL_MINUTES,
        ..IngestConfig::default()
    }
}

/// A base stream: one sample per slot `0..n`, values in percent.
fn base_stream(max_len: usize) -> impl Strategy<Value = Vec<WireSample>> {
    prop::collection::vec(0.0f64..100.0, 1..max_len).prop_map(|values| {
        values
            .into_iter()
            .enumerate()
            .map(|(slot, value)| WireSample {
                minute: slot as i64 * SAMPLE_INTERVAL_MINUTES,
                value: value as f32,
            })
            .collect()
    })
}

/// Runs a stream through an ingestor: at tick `i` the watermark clock
/// advances to `i` intervals, then every sample of group `i` is
/// offered. Returns the closes, the session's series, and the late-drop
/// count.
fn run_stream(groups: &[Vec<WireSample>]) -> (Vec<WindowClose>, Option<UtilSeries>, u64) {
    let vm = VmId::new(1);
    let mut ingestor = Ingestor::new(config(), PatternClassifier);
    for (tick, group) in groups.iter().enumerate() {
        let now = SimTime::from_minutes(tick as i64 * SAMPLE_INTERVAL_MINUTES);
        let closes = ingestor.advance_watermark(now);
        assert!(closes.is_empty(), "no window boundary inside the week");
        for sample in group {
            ingestor.offer(vm, *sample);
        }
    }
    let closes = ingestor.drain(SimTime::WEEK_END);
    let dropped = ingestor.report().dropped_late;
    let session = ingestor.finish();
    (closes, session.load(vm), dropped)
}

proptest! {
    /// Any interleaving of late (bounded displacement), duplicated, and
    /// reordered deliveries inside the watermark yields *byte-identical*
    /// window state to the sorted clean stream: same reconstructed
    /// series, same closes, and zero drops.
    #[test]
    fn in_watermark_interleavings_are_byte_identical(
        base in base_stream(64),
        jitter in prop::collection::vec(0i64..=MAX_DISPLACEMENT, 64),
        dup_mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        // Displacement-bounded shuffle: sort by slot + jitter. A sample
        // sorted to tick `i` has slot `j >= i - MAX_DISPLACEMENT` (at
        // most j + MAX_DISPLACEMENT + 1 samples can precede it), so it
        // arrives late *and* reordered but strictly in-watermark.
        let mut shuffled: Vec<(i64, WireSample)> = base
            .iter()
            .enumerate()
            .map(|(i, s)| (i as i64 + jitter[i % jitter.len()], *s))
            .collect();
        shuffled.sort_by_key(|&(key, s)| (key, s.minute));
        // Duplicates: the fault model re-sends the delivered sample in
        // the same tick, so the copy carries an equal value and the
        // watermark clock is untouched.
        let delivered: Vec<Vec<WireSample>> = shuffled
            .iter()
            .enumerate()
            .map(|(i, &(_, sample))| {
                if dup_mask[i % dup_mask.len()] {
                    vec![sample, sample]
                } else {
                    vec![sample]
                }
            })
            .collect();
        let clean: Vec<Vec<WireSample>> = base.iter().map(|&s| vec![s]).collect();

        let (clean_closes, clean_series, clean_dropped) = run_stream(&clean);
        let (messy_closes, messy_series, messy_dropped) = run_stream(&delivered);

        prop_assert_eq!(clean_dropped, 0u64);
        prop_assert_eq!(messy_dropped, 0u64, "in-watermark deliveries must never drop");
        // Byte-identical series (UtilSeries equality compares the
        // quantized buffers) and identical close summaries.
        prop_assert_eq!(clean_series, messy_series);
        prop_assert_eq!(clean_closes, messy_closes);
    }

    /// A sample arriving after its slot sealed is counted in
    /// `dropped_late` (and in the flushed `ingest.dropped_late`
    /// metric) and never mutates sealed state — no matter its value.
    #[test]
    fn too_late_samples_are_counted_never_applied(
        base in base_stream(32),
        late_value in 0.0f64..100.0,
        late_slot_frac in 0.0f64..1.0,
    ) {
        use cloudscope_obs::testing::snapshot_diff;
        use std::sync::Arc;

        let vm = VmId::new(1);
        // Control: the same stream with no straggler.
        let mut control = Ingestor::new(config(), PatternClassifier);
        for sample in &base {
            control.offer(vm, *sample);
        }
        let clean = control
            .finish()
            .load(vm)
            .expect("non-empty stream must produce telemetry");

        let registry = Arc::new(cloudscope_obs::Registry::new());
        let ((), diff) = snapshot_diff(&registry, || {
            let mut ingestor = Ingestor::new(config(), PatternClassifier);
            for sample in &base {
                ingestor.offer(vm, *sample);
            }
            // Seal every offered slot: advance far past the last one.
            let horizon = (base.len() as i64 + MAX_DISPLACEMENT + 4) * SAMPLE_INTERVAL_MINUTES
                + config().watermark_delay_minutes;
            let _ = ingestor.advance_watermark(SimTime::from_minutes(horizon));

            // The straggler targets an already-sealed slot.
            let late_slot = ((base.len() - 1) as f64 * late_slot_frac) as i64;
            ingestor.offer(vm, WireSample {
                minute: late_slot * SAMPLE_INTERVAL_MINUTES,
                value: late_value as f32,
            });

            let report = ingestor.report();
            assert_eq!(report.dropped_late, 1, "straggler must be counted");
            assert_eq!(report.vms_with_drops, 1);
            let session = ingestor.finish();
            assert_eq!(
                session.load(vm).as_ref(),
                Some(&clean),
                "straggler must never mutate sealed state"
            );
            assert!(session.had_drops(vm));
        });
        prop_assert_eq!(diff.counter("ingest.dropped_late"), Some(1));
    }
}
