//! End-to-end streaming ingestion: convergence to the batch pipeline on
//! clean streams, bounded and fully-accounted divergence under faults,
//! and the KB publication path.

use cloudscope_analysis::{PatternClassifier, UtilizationPattern};
use cloudscope_faults::{corrupt_trace, FaultPlan, WireSample};
use cloudscope_ingest::{drive_ingest, IngestConfig, Ingestor};
use cloudscope_kb::{extract_subscription_knowledge, KnowledgeBase};
use cloudscope_model::prelude::*;
use cloudscope_model::trace::TelemetrySource;
use cloudscope_tracegen::{generate, GeneratorConfig};

/// The per-subscription classification cap `drive_ingest` publishes
/// with (mirrors the batch pipeline's default test setting).
const MAX_CLASSIFIED: usize = 4;

#[test]
fn clean_stream_converges_to_batch_exactly() {
    let g = generate(&GeneratorConfig::small(41));
    let classifier = PatternClassifier;
    let kb = KnowledgeBase::new();
    let outcome = drive_ingest(
        &g.trace,
        &FaultPlan::clean(41),
        &IngestConfig::default(),
        &classifier,
        &kb,
    );
    let session = &outcome.session;
    let report = session.report();

    // Headline: streamed series are byte-identical to the resident
    // trace, and the streaming classification equals the batch
    // classifier output for every VM.
    let mut with_telemetry = 0;
    for vm in g.trace.vms() {
        assert_eq!(session.load(vm.id), g.trace.util(vm.id), "vm {}", vm.id);
        assert_eq!(session.has(vm.id), g.trace.has_util(vm.id));
        assert_eq!(
            session.pattern(vm.id),
            classifier.classify_vm(&g.trace, vm.id),
            "vm {}",
            vm.id
        );
        with_telemetry += usize::from(g.trace.has_util(vm.id));
    }
    assert!(with_telemetry > 0, "trace must have telemetry");
    assert_eq!(report.vms, with_telemetry);

    // Clean accounting: everything offered was applied.
    assert_eq!(report.dropped_late, 0);
    assert_eq!(report.rejected_invalid, 0);
    assert_eq!(report.out_of_week, 0);
    assert_eq!(report.duplicates_collapsed, 0);
    assert_eq!(report.samples_offered, report.samples_applied);
    assert_eq!(report.vms_with_drops, 0);
    assert!(report.windows_closed as usize >= with_telemetry);
    assert!(report.classifications > 0);

    // Live memory is bounded: between hourly watermark ticks a lane
    // buffers at most (tick + delay)/interval + 1 unsealed slots
    // (sealing is lazy, applied on the lane's next touch).
    let pending_slots = (60 + IngestConfig::default().watermark_delay_minutes) / 5 + 1;
    assert!(
        report.peak_pending_samples <= with_telemetry * pending_slots as usize,
        "peak {} exceeds the watermark bound",
        report.peak_pending_samples
    );
}

#[test]
fn clean_stream_publishes_batch_identical_knowledge() {
    let g = generate(&GeneratorConfig::small(42));
    let classifier = PatternClassifier;
    let kb = KnowledgeBase::new();
    let outcome = drive_ingest(
        &g.trace,
        &FaultPlan::clean(42),
        &IngestConfig::default(),
        &classifier,
        &kb,
    );
    assert!(outcome.pipeline_stats.batches >= 1);
    assert!(outcome.pipeline_stats.failed == 0);
    assert!(!kb.is_empty());

    // The default window closes exactly at week end, so for every
    // subscription that actually streamed telemetry the published
    // entry must equal the batch extraction (same classifier, same
    // cap, same `updated_at`), entry by entry. Subscriptions with no
    // reporting VM never stream, so the service has nothing to refresh
    // for them — they must be absent, not fabricated from metadata.
    let mut streamed_subs = 0;
    for sub in g.trace.subscriptions() {
        let has_signal = g
            .trace
            .vms_of_subscription(sub.id)
            .iter()
            .any(|&vm| g.trace.has_util(vm));
        if !has_signal {
            assert!(
                kb.get(sub.id).is_none(),
                "no-signal sub {} published",
                sub.id
            );
            continue;
        }
        streamed_subs += 1;
        let batch =
            extract_subscription_knowledge(&g.trace, sub.id, &classifier, MAX_CLASSIFIED, None);
        assert_eq!(kb.get(sub.id), batch, "subscription {}", sub.id);
        let entry = kb.get(sub.id).expect("streamed sub has an entry");
        assert_eq!(entry.updated_at, SimTime::WEEK_END);
    }
    assert!(streamed_subs > 0);
    assert_eq!(kb.len(), streamed_subs);
}

#[test]
fn faulted_stream_divergence_is_fully_accounted() {
    let g = generate(&GeneratorConfig::small(43));
    let plan = FaultPlan::standard(43);
    let classifier = PatternClassifier;
    let kb = KnowledgeBase::new();
    let outcome = drive_ingest(&g.trace, &plan, &IngestConfig::default(), &classifier, &kb);
    let session = &outcome.session;
    let report = session.report();

    // The batch reference: the same plan applied by `corrupt_trace`
    // (identical per-VM RNG streams, so identical wire content).
    let (corrupted, batch_report) = corrupt_trace(&g.trace, &plan);

    // The corruption ledgers agree on everything the corrupt stage
    // decides (ingestion outcomes differ only via late drops).
    assert_eq!(outcome.fault_report.samples_in, batch_report.samples_in);
    assert_eq!(outcome.fault_report.dropped, batch_report.dropped);
    assert_eq!(
        outcome.fault_report.blackout_dropped,
        batch_report.blackout_dropped
    );
    assert_eq!(outcome.fault_report.duplicated, batch_report.duplicated);
    assert_eq!(outcome.fault_report.reordered, batch_report.reordered);
    assert_eq!(outcome.fault_report.invalidated, batch_report.invalidated);

    // Offer accounting is exhaustive: every wire sample is applied,
    // rejected, out-of-week, or dropped-late — nothing vanishes.
    assert_eq!(
        report.samples_offered,
        report.samples_applied + report.rejected_invalid + report.out_of_week + report.dropped_late
    );
    assert!(report.samples_offered > 10_000);

    // Divergence from batch ingestion is confined to VMs with reported
    // late drops — for everyone else, series AND classification match
    // the batch-corrupted trace exactly.
    let mut divergent = 0;
    for vm in g.trace.vms() {
        if session.had_drops(vm.id) {
            divergent += 1;
            continue;
        }
        assert_eq!(session.load(vm.id), corrupted.util(vm.id), "vm {}", vm.id);
        assert_eq!(
            session.pattern(vm.id),
            classifier.classify_vm(&corrupted, vm.id),
            "vm {}",
            vm.id
        );
    }
    assert_eq!(divergent, report.vms_with_drops);
    assert_eq!(
        u64::from(report.vms_with_drops > 0),
        u64::from(report.dropped_late > 0),
        "drop accounting must agree with the divergent set"
    );
    // The standard plan corrupts heavily but the default watermark is
    // sized to absorb its lateness almost entirely.
    assert!(
        report.vms_with_drops * 10 <= report.vms,
        "late drops must stay rare: {} of {}",
        report.vms_with_drops,
        report.vms
    );
}

#[test]
fn ingest_metrics_flush_under_a_scoped_registry() {
    use cloudscope_obs::testing::snapshot_diff;
    use std::sync::Arc;

    let g = generate(&GeneratorConfig::small(44));
    let registry = Arc::new(cloudscope_obs::Registry::new());
    let (outcome, diff) = snapshot_diff(&registry, || {
        drive_ingest(
            &g.trace,
            &FaultPlan::clean(44),
            &IngestConfig::default(),
            &PatternClassifier,
            &KnowledgeBase::new(),
        )
    });
    let report = outcome.session.report();
    assert_eq!(
        diff.counter("ingest.samples_offered"),
        Some(report.samples_offered)
    );
    assert_eq!(
        diff.counter("ingest.samples_applied"),
        Some(report.samples_applied)
    );
    assert_eq!(
        diff.counter("ingest.windows_closed"),
        Some(report.windows_closed)
    );
    assert_eq!(
        diff.counter("ingest.classifications"),
        Some(report.classifications)
    );
    assert!(diff.histogram("ingest.close.duration_ns").is_some());
    assert!(diff.histogram("ingest.publish.duration_ns").is_some());
    assert!(diff.histogram("ingest.drive.duration_ns").is_some());
    assert!(diff
        .gauge("ingest.backpressure.peak_pending_samples")
        .is_some());
    // The publish path went through the pipeline's shared write path.
    assert!(diff.counter("kb.pipeline.batches").unwrap_or(0) >= 1);
}

#[test]
fn a_window_shorter_than_the_classifier_minimum_still_classifies() {
    use cloudscope_model::time::MINUTES_PER_DAY;

    let g = generate(&GeneratorConfig::small(41));
    let classifier = PatternClassifier;
    let config = IngestConfig {
        window_minutes: MINUTES_PER_DAY,
        ..IngestConfig::default()
    };
    let kb = KnowledgeBase::new();
    let outcome = drive_ingest(&g.trace, &FaultPlan::clean(41), &config, &classifier, &kb);
    let session = &outcome.session;

    // A close classifies the lane's whole sealed history, so a one-day
    // window (shorter than the classifier's three-day minimum) ends on
    // the batch classification, not on a day too short to classify.
    let mut classified = 0;
    for vm in g.trace.vms() {
        let batch = g
            .trace
            .util(vm.id)
            .and_then(|util| classifier.classify_util(&util));
        assert_eq!(session.pattern(vm.id), batch, "vm {}", vm.id);
        classified += usize::from(batch.is_some());
    }
    assert!(classified > 100, "only {classified} VMs classified");
    assert!(session.report().windows_closed > session.report().vms as u64);

    // The last daily close falls on week end, so the KB ends on the
    // batch entries too.
    for sub in g.trace.subscriptions() {
        if let Some(entry) = kb.get(sub.id) {
            let batch =
                extract_subscription_knowledge(&g.trace, sub.id, &classifier, MAX_CLASSIFIED, None);
            assert_eq!(Some(entry), batch, "subscription {}", sub.id);
        }
    }
    assert!(!kb.is_empty());
}

#[test]
fn each_lane_is_classified_once_per_close() {
    use cloudscope_obs::testing::snapshot_diff;
    use std::sync::Arc;

    let g = generate(&GeneratorConfig::small(46));
    let registry = Arc::new(cloudscope_obs::Registry::new());
    let (outcome, diff) = snapshot_diff(&registry, || {
        drive_ingest(
            &g.trace,
            &FaultPlan::clean(46),
            &IngestConfig::default(),
            &PatternClassifier,
            &KnowledgeBase::new(),
        )
    });
    // Every classifier call lands in exactly one of these counters.
    let calls: u64 = ["dense_dispatch", "masked_dispatch", "coverage_rejections"]
        .iter()
        .map(|name| {
            diff.counter(&format!("analysis.classify.{name}"))
                .unwrap_or(0)
        })
        .sum();
    // On a clean drive every closed lane holds sealed samples, so each
    // close is one classifier call per lane: publication votes with the
    // close's patterns and classifies nothing itself.
    let report = outcome.session.report();
    assert!(report.windows_closed > 0);
    assert!(diff.counter("kb.pipeline.batches").unwrap_or(0) >= 1);
    assert_eq!(calls, report.windows_closed);
}

/// Classifier calls in a metrics diff: every call lands in exactly one
/// of these counters.
fn classifier_calls(diff: &cloudscope_obs::Snapshot) -> u64 {
    ["dense_dispatch", "masked_dispatch", "coverage_rejections"]
        .iter()
        .map(|name| {
            diff.counter(&format!("analysis.classify.{name}"))
                .unwrap_or(0)
        })
        .sum()
}

/// Live Figure 5 over a session, both clouds, every VM.
fn live_figure5(
    trace: &Trace,
    source: &(impl TelemetrySource + ?Sized),
) -> Vec<cloudscope_analysis::PatternShares> {
    [CloudKind::Private, CloudKind::Public]
        .iter()
        .map(|&cloud| {
            cloudscope_analysis::pattern_shares_from(
                trace,
                source,
                cloud,
                &PatternClassifier,
                usize::MAX,
            )
            .expect("classifiable telemetry")
        })
        .collect()
}

#[test]
fn live_figure5_over_a_finished_session_classifies_nothing() {
    use cloudscope_obs::testing::snapshot_diff;
    use std::sync::Arc;

    let g = generate(&GeneratorConfig::small(47));
    let registry = Arc::new(cloudscope_obs::Registry::new());
    let (outcome, drive) = snapshot_diff(&registry, || {
        drive_ingest(
            &g.trace,
            &FaultPlan::clean(47),
            &IngestConfig::default(),
            &PatternClassifier,
            &KnowledgeBase::new(),
        )
    });
    let (shares, figure5) = snapshot_diff(&registry, || live_figure5(&g.trace, &outcome.session));
    // Every sampled VM is tallied from its lane's close-time verdict.
    assert_eq!(classifier_calls(&figure5), 0);
    assert!(shares.iter().all(|s| s.classified() > 0));
    // The drive and live Figure 5 together classify each lane once:
    // one close per lane, and nothing after it.
    let report = outcome.session.report();
    assert_eq!(report.windows_closed, report.vms as u64);
    assert_eq!(
        classifier_calls(&drive) + classifier_calls(&figure5),
        report.vms as u64
    );
}

/// The session's series, served without its verdicts: what classifying
/// every served series sees.
#[derive(Debug)]
struct ServedOnly<'a>(&'a cloudscope_ingest::IngestSession);

impl TelemetrySource for ServedOnly<'_> {
    fn load(&self, id: VmId) -> Option<UtilSeries> {
        self.0.load(id)
    }

    fn has(&self, id: VmId) -> bool {
        self.0.has(id)
    }
}

#[test]
fn reused_verdicts_equal_classifying_every_served_series() {
    use cloudscope_model::time::MINUTES_PER_DAY;

    let g = generate(&GeneratorConfig::small(48));
    let classifier = PatternClassifier;
    let one_day = IngestConfig {
        window_minutes: MINUTES_PER_DAY,
        ..IngestConfig::default()
    };
    let mut unknown = 0;
    for plan in [FaultPlan::clean(48), FaultPlan::standard(48)] {
        for config in [IngestConfig::default(), one_day] {
            let kb = KnowledgeBase::new();
            let outcome = drive_ingest(&g.trace, &plan, &config, &classifier, &kb);
            let session = &outcome.session;
            for vm in g.trace.vms() {
                let served = session
                    .load(vm.id)
                    .and_then(|util| classifier.classify_util(&util));
                match session.classified(vm.id) {
                    Some(verdict) => assert_eq!(verdict, served, "vm {}", vm.id),
                    None => unknown += usize::from(session.has(vm.id)),
                }
            }
            assert_eq!(
                live_figure5(&g.trace, session),
                live_figure5(&g.trace, &ServedOnly(session)),
                "plan {plan:?} window {}",
                config.window_minutes
            );
        }
    }
    // Under faults with a one-day window the drain seals late slots
    // without a close, so some verdicts are not reused but recomputed.
    // A drive's last close falls after the week's last slot has
    // sealed, so every verdict was reusable here; the case where one is
    // not is `a_seal_after_the_last_close_voids_the_reused_verdict`.
    assert_eq!(unknown, 0);
}

#[test]
fn a_seal_after_the_last_close_voids_the_reused_verdict() {
    use cloudscope_model::time::MINUTES_PER_DAY;

    let config = IngestConfig {
        window_minutes: MINUTES_PER_DAY,
        ..IngestConfig::default()
    };
    let mut ingestor = Ingestor::new(config, PatternClassifier);
    let vm = VmId::new(3);
    // Four days and an hour of a daily cycle.
    for minute in (0..4 * MINUTES_PER_DAY + 60).step_by(5) {
        let phase = std::f32::consts::TAU * minute as f32 / MINUTES_PER_DAY as f32;
        let value = 40.0 + 30.0 * phase.sin();
        ingestor.offer(vm, WireSample { minute, value });
    }
    // The day-4 boundary closes with the last hour still unsealed.
    let now = SimTime::from_minutes(4 * MINUTES_PER_DAY + config.watermark_delay_minutes);
    assert_eq!(ingestor.advance_watermark(now).len(), 4);
    // Nothing arrived since, so the drain seals that hour without a
    // close: the close's verdict is on a shorter series than the one
    // the session now serves.
    assert!(ingestor.drain(now).is_empty());
    let session = ingestor.finish();
    assert_eq!(session.pattern(vm), Some(UtilizationPattern::Diurnal));
    assert_eq!(session.classified(vm), None);
    assert_eq!(
        session.load(vm).map(|util| util.len()),
        Some((4 * MINUTES_PER_DAY as usize + 60) / 5)
    );
}

#[test]
fn session_slots_into_generic_analyses() {
    let g = generate(&GeneratorConfig::small(45));
    let classifier = PatternClassifier;
    let outcome = drive_ingest(
        &g.trace,
        &FaultPlan::clean(45),
        &IngestConfig::default(),
        &classifier,
        &KnowledgeBase::new(),
    );
    // The same classifier entry points accept the trace and the session
    // interchangeably and agree exactly on a clean stream.
    let batch = cloudscope_analysis::pattern_shares_from(
        &g.trace,
        &g.trace,
        CloudKind::Public,
        &classifier,
        64,
    )
    .expect("batch shares");
    let live = cloudscope_analysis::pattern_shares_from(
        &g.trace,
        &outcome.session,
        CloudKind::Public,
        &classifier,
        64,
    )
    .expect("live shares");
    assert_eq!(batch, live);
}

#[test]
fn late_sample_is_dropped_and_counted_never_applied() {
    let mut ingestor = Ingestor::new(IngestConfig::default(), PatternClassifier);
    let vm = VmId::new(7);
    // Two on-time samples.
    ingestor.offer(
        vm,
        WireSample {
            minute: 0,
            value: 10.0,
        },
    );
    ingestor.offer(
        vm,
        WireSample {
            minute: 5,
            value: 20.0,
        },
    );
    // The watermark passes both slots (delay 10: watermark = 30 - 10 =
    // 20, sealing slots 0..4).
    let closes = ingestor.advance_watermark(SimTime::from_minutes(30));
    assert!(closes.is_empty(), "no window boundary crossed yet");
    // A late duplicate of slot 0 with a *different* value: must be
    // counted and must not change the sealed state.
    ingestor.offer(
        vm,
        WireSample {
            minute: 0,
            value: 99.0,
        },
    );
    let before = ingestor.report();
    assert_eq!(before.dropped_late, 1);
    assert_eq!(before.vms_with_drops, 1);
    let session = ingestor.finish();
    let series = session.load(vm).expect("sealed telemetry");
    assert_eq!(series.get(0), Some(10.0), "late sample must not apply");
    assert_eq!(series.get(1), Some(20.0));
    assert!(session.had_drops(vm));
}

#[test]
fn a_vm_offering_only_garbage_has_no_lane_and_is_not_counted() {
    let mut ingestor = Ingestor::new(IngestConfig::default(), PatternClassifier);
    let (garbage, valid, out_of_week) = (VmId::new(3), VmId::new(1), VmId::new(5));
    for value in [f32::NAN, -1.0, f32::NEG_INFINITY, -0.5] {
        ingestor.offer(garbage, WireSample { minute: 0, value });
    }
    ingestor.offer(
        out_of_week,
        WireSample {
            minute: -60,
            value: 10.0,
        },
    );
    ingestor.offer(
        valid,
        WireSample {
            minute: 0,
            value: 10.0,
        },
    );
    let report = ingestor.report();
    assert_eq!(report.samples_offered, 6);
    assert_eq!(report.rejected_invalid, 4);
    assert_eq!(report.out_of_week, 1);
    assert_eq!(
        report.vms, 1,
        "only the VM with a valid, in-week sample counts"
    );
    let session = ingestor.finish();
    assert!(session.has(valid));
    for vm in [garbage, out_of_week] {
        assert!(!session.has(vm) && session.load(vm).is_none() && !session.had_drops(vm));
    }
}
