//! The headline ingest gate, on the medium trace: a clean stream's
//! classifications converge to the batch classifier output *exactly*,
//! and under the PR 2 standard fault plan the divergence is bounded
//! and fully accounted for by reported drops.

use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::{corrupt_trace, FaultPlan};
use cloudscope_ingest::{drive_ingest, IngestConfig};
use cloudscope_kb::{extract_subscription_knowledge, KnowledgeBase};
use cloudscope_model::trace::TelemetrySource;
use cloudscope_tracegen::{generate, GeneratedTrace, GeneratorConfig};
use std::sync::OnceLock;

/// The per-subscription classification cap `drive_ingest` publishes
/// with (mirrors the batch pipeline's default test setting).
const MAX_CLASSIFIED: usize = 4;

fn generated() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| generate(&GeneratorConfig::medium(99)))
}

#[test]
fn clean_medium_stream_matches_batch_golden() {
    let g = generated();
    let classifier = PatternClassifier;
    let kb = KnowledgeBase::new();
    let outcome = drive_ingest(
        &g.trace,
        &FaultPlan::clean(99),
        &IngestConfig::default(),
        &classifier,
        &kb,
    );
    let session = &outcome.session;
    let report = session.report();

    // Clean accounting before anything else: a single unexplained drop
    // voids the convergence claim.
    assert_eq!(report.dropped_late, 0);
    assert_eq!(report.rejected_invalid, 0);
    assert_eq!(report.out_of_week, 0);
    assert_eq!(report.duplicates_collapsed, 0);
    assert_eq!(report.samples_offered, report.samples_applied);

    // Golden: streamed series and classifications are byte-identical
    // to the batch pipeline over every VM of the medium trace.
    let mut classified = 0usize;
    for vm in g.trace.vms() {
        assert_eq!(session.load(vm.id), g.trace.util(vm.id), "vm {}", vm.id);
        let batch = classifier.classify_vm(&g.trace, vm.id);
        assert_eq!(session.pattern(vm.id), batch, "vm {}", vm.id);
        classified += usize::from(batch.is_some());
    }
    assert!(classified > 100, "medium trace classifies many VMs");

    // Golden: every published KB entry equals the batch extraction.
    let mut streamed_subs = 0usize;
    for sub in g.trace.subscriptions() {
        let has_signal = g
            .trace
            .vms_of_subscription(sub.id)
            .iter()
            .any(|&vm| g.trace.has_util(vm));
        if !has_signal {
            assert!(kb.get(sub.id).is_none(), "no-signal sub {}", sub.id);
            continue;
        }
        streamed_subs += 1;
        let batch =
            extract_subscription_knowledge(&g.trace, sub.id, &classifier, MAX_CLASSIFIED, None);
        assert_eq!(kb.get(sub.id), batch, "subscription {}", sub.id);
    }
    assert!(streamed_subs > 0);
    assert_eq!(kb.len(), streamed_subs);
}

#[test]
fn faulted_medium_stream_divergence_is_bounded_and_accounted() {
    let g = generated();
    let plan = FaultPlan::standard(2024);
    let classifier = PatternClassifier;
    let outcome = drive_ingest(
        &g.trace,
        &plan,
        &IngestConfig::default(),
        &classifier,
        &KnowledgeBase::new(),
    );
    let session = &outcome.session;
    let report = session.report();

    // Same per-VM seeded streams as batch corruption: the wire ledgers
    // must agree exactly.
    let (corrupted, batch_report) = corrupt_trace(&g.trace, &plan);
    assert_eq!(outcome.fault_report.samples_in, batch_report.samples_in);
    assert_eq!(outcome.fault_report.dropped, batch_report.dropped);
    assert_eq!(outcome.fault_report.duplicated, batch_report.duplicated);
    assert_eq!(outcome.fault_report.reordered, batch_report.reordered);
    assert_eq!(outcome.fault_report.invalidated, batch_report.invalidated);

    // Exhaustive offer accounting.
    assert_eq!(
        report.samples_offered,
        report.samples_applied + report.rejected_invalid + report.out_of_week + report.dropped_late
    );

    // Bounded divergence: every VM outside the reported drop set is
    // byte-identical to batch ingestion of the corrupted wire streams.
    let mut divergent = 0usize;
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
    assert!(
        report.vms_with_drops * 10 <= report.vms,
        "late drops must stay rare: {} of {}",
        report.vms_with_drops,
        report.vms
    );
}
