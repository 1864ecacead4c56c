//! Cross-layer observability: the `cloudscope-obs` metrics every
//! subsystem publishes must reconcile with the ground truth those
//! subsystems report through their APIs, and the full metric surface
//! must match the committed schema in `tests/golden/metrics_schema.json`.
//!
//! Re-bless the schema after intentionally adding or renaming metrics:
//!
//! ```text
//! CLOUDSCOPE_UPDATE_GOLDEN=1 cargo test -p cloudscope --test observability
//! ```

use cloudscope::analysis::coverage::filled_week_series;
use cloudscope::cluster::{ClusterAllocator, PlacementPolicy, PlacementRequest, SpreadingRule};
use cloudscope::faults::{corrupt_trace, FaultPlan, FlakyStore};
use cloudscope::ingest::{drive_ingest, IngestConfig};
use cloudscope::kb::{
    run_extraction_pipeline, run_extraction_pipeline_with, DurableKb, RetryPolicy,
};
use cloudscope::mgmt::{OversubMethod, OversubPlanner, VmDemand};
use cloudscope::obs::testing::{assert_counter_eq, snapshot_diff};
use cloudscope::obs::{parse_json, to_json, Registry, Schema, Snapshot};
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::timeseries::fft;
use cloudscope_repro::ShapeChecks;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Present (non-gap) samples across every telemetry-bearing VM — the
/// quantity an analysis pass actually observes after ingest.
fn present_samples(trace: &Trace) -> usize {
    trace
        .vms()
        .iter()
        .filter_map(|vm| trace.util(vm.id))
        .map(|u| u.present_count())
        .sum()
}

/// Under a pure 5% drop plan the `faults.samples_dropped` counter, the
/// fault report, and the analysis-observed missing samples are the same
/// number — no other fault channel is open to blur the accounting.
#[test]
fn drop_only_losses_reconcile_with_observed_missing_samples() {
    let g = generate(&GeneratorConfig::small(9101));
    let pristine = present_samples(&g.trace);

    let registry = Arc::new(Registry::new());
    let plan = FaultPlan {
        drop_probability: 0.05,
        ..FaultPlan::clean(77)
    };
    let ((corrupted, report), diff) = snapshot_diff(&registry, || corrupt_trace(&g.trace, &plan));

    let observed_missing = pristine - present_samples(&corrupted);
    assert!(report.dropped > 0, "a 5% drop plan must drop something");
    assert_eq!(report.dropped, observed_missing);
    assert_eq!(report.samples_in - report.samples_out, observed_missing);

    assert_counter_eq(
        &diff,
        "faults.corrupt.samples_dropped",
        report.dropped as u64,
    );
    assert_counter_eq(&diff, "faults.corrupt.samples_in", report.samples_in as u64);
    assert_counter_eq(
        &diff,
        "faults.corrupt.samples_out",
        report.samples_out as u64,
    );
    assert_counter_eq(&diff, "faults.corrupt.vms_corrupted", report.vms as u64);
    // Channels the plan leaves closed publish zeros, not absences.
    assert_counter_eq(&diff, "faults.corrupt.blackout_dropped", 0);
    assert_counter_eq(&diff, "faults.corrupt.invalidated", 0);
    assert_counter_eq(&diff, "faults.corrupt.out_of_week", 0);
}

/// The PR 2 standard corruption profile (5% loss, one regional
/// blackout, duplication/reordering/garbage/skew on top): every lost
/// sample is attributed to exactly one cause, and the counters match
/// the report field for field.
#[test]
fn standard_profile_counters_match_fault_report_accounting() {
    let g = generate(&GeneratorConfig::small(9102));
    let pristine = present_samples(&g.trace);

    let registry = Arc::new(Registry::new());
    let ((corrupted, report), diff) = snapshot_diff(&registry, || {
        corrupt_trace(&g.trace, &FaultPlan::standard(42))
    });

    // ±2-minute skew can never move a sample to another 5-minute slot,
    // so nothing leaves the trace week.
    assert_eq!(report.out_of_week, 0);
    // Duplicates collapse at ingest and reorders only swap slots, so
    // the observed loss decomposes exactly into the three real causes.
    let observed_missing = pristine - present_samples(&corrupted);
    assert_eq!(
        observed_missing,
        report.dropped + report.blackout_dropped + report.invalidated
    );
    assert!(
        report.blackout_dropped > 0,
        "the blackout window has traffic"
    );
    assert!(report.duplicated > 0 && report.reordered > 0 && report.invalidated > 0);

    for (name, field) in [
        ("faults.corrupt.samples_dropped", report.dropped),
        ("faults.corrupt.blackout_dropped", report.blackout_dropped),
        ("faults.corrupt.invalidated", report.invalidated),
        ("faults.corrupt.duplicated", report.duplicated),
        ("faults.corrupt.reordered", report.reordered),
        ("faults.corrupt.samples_in", report.samples_in),
        ("faults.corrupt.samples_out", report.samples_out),
    ] {
        assert_counter_eq(&diff, name, field as u64);
    }
}

/// A clean store never retries: the pipeline stats and the `kb.*`
/// counters agree that every write landed first try.
#[test]
fn kb_pipeline_clean_run_records_zero_retries() {
    let g = generate(&GeneratorConfig::small(9103));
    let classifier = PatternClassifier;
    let kb = KnowledgeBase::new();

    let registry = Arc::new(Registry::new());
    let (stats, diff) = snapshot_diff(&registry, || {
        run_extraction_pipeline(&g.trace, &kb, &classifier, 64, 2)
    });

    assert!(stats.stored > 0, "a small trace stores knowledge");
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.failed, 0);
    // The retry counter is only created by an actual retry.
    assert_eq!(diff.counter("kb.pipeline.retries").unwrap_or(0), 0);
    assert_eq!(diff.counter("kb.pipeline.backoff_sleeps").unwrap_or(0), 0);
    assert_counter_eq(&diff, "kb.pipeline.processed", stats.processed as u64);
    assert_counter_eq(&diff, "kb.pipeline.stored", stats.stored as u64);
    assert_counter_eq(&diff, "kb.pipeline.skipped", stats.skipped as u64);
    assert_counter_eq(&diff, "kb.pipeline.failed", 0);
    // Fresh store: every upsert call stored an entry.
    assert_counter_eq(&diff, "kb.store.upserts", stats.stored as u64);
    // Every chunk with entries became exactly one batched write, and the
    // store's feed ledger agrees with the pipeline's.
    assert!(stats.batches >= 1);
    assert_counter_eq(&diff, "kb.pipeline.batches", stats.batches as u64);
    assert_counter_eq(&diff, "kb.store.feed_batches", stats.batches as u64);
    // No stale writes happened, so the counter saw no traffic inside the
    // scope (the store registered its zero at construction, outside).
    assert_eq!(diff.counter("kb.store.stale_rejected").unwrap_or(0), 0);
}

/// With a 30% flaky store, the retry counter equals the pipeline's own
/// retry tally equals the store's injected-failure tally — three
/// independent ledgers of the same events.
#[test]
fn kb_pipeline_flaky_store_retries_reconcile_three_ways() {
    let g = generate(&GeneratorConfig::small(9103));
    let classifier = PatternClassifier;
    let store = FlakyStore::new(KnowledgeBase::new(), 2024, 0.3);
    let retry = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_nanos(1),
    };

    let registry = Arc::new(Registry::new());
    let (stats, diff) = snapshot_diff(&registry, || {
        run_extraction_pipeline_with(&g.trace, &store, &classifier, 64, 2, &retry)
    });

    assert!(stats.retries > 0, "a 30% failure rate must trigger retries");
    assert_eq!(stats.failed, 0, "10 attempts ride out a 30% failure rate");
    assert_eq!(store.injected_failures(), stats.retries);
    assert_counter_eq(&diff, "kb.pipeline.retries", stats.retries as u64);
    assert_counter_eq(&diff, "kb.pipeline.backoff_sleeps", stats.retries as u64);
    assert_counter_eq(
        &diff,
        "faults.flaky.injected_failures",
        store.injected_failures() as u64,
    );
    // Per-batch accounting: the flaky store saw one batched write per
    // pipeline chunk (attempt 1 for each entry), and retries happened on
    // top of — not instead of — those batches.
    assert!(stats.batches >= 1);
    assert_counter_eq(&diff, "kb.pipeline.batches", stats.batches as u64);
    assert_eq!(
        store.attempts(),
        stats.stored + stats.retries,
        "every write attempt either stored or was retried"
    );
}

/// The serving-layer counters reconcile with ground truth: every query
/// is tallied as indexed or scanned by its selector, `entries_cloned`
/// counts exactly what `collect` returned, and the write-side counters
/// match the upsert/stale outcomes the API reported.
#[test]
fn kb_serving_counters_reconcile_with_query_outcomes() {
    use cloudscope::kb::KbQuery;

    let g = generate(&GeneratorConfig::small(9107));
    let classifier = PatternClassifier;

    let registry = Arc::new(Registry::new());
    let ((spot_len, all_len), diff) = snapshot_diff(&registry, || {
        let kb = KnowledgeBase::with_shards(4);
        let stats = run_extraction_pipeline(&g.trace, &kb, &classifier, 64, 2);
        assert!(stats.stored > 0);

        // Three indexed queries, two full scans.
        let spot = KbQuery::spot_candidates().collect(&kb);
        assert!(KbQuery::shiftable().count(&kb) <= kb.len());
        KbQuery::oversubscription_candidates(CloudKind::Public).fold(&kb, (), |(), _| ());
        let everything = KbQuery::all().collect(&kb);
        assert_eq!(everything.len(), kb.len());
        assert_eq!(KbQuery::matching(|k| k.vm_count > 0).count(&kb), kb.len());

        // One stale write (rejected by freshness).
        let mut stale = everything[0].clone();
        stale.updated_at = SimTime::from_minutes(stale.updated_at.minutes() - 1);
        assert!(!kb.upsert(stale));
        (spot.len(), everything.len())
    });

    // Selector routing: 3 indexed reads, 2 full scans.
    assert_counter_eq(&diff, "kb.store.queries_indexed", 3);
    assert_counter_eq(&diff, "kb.store.queries_scanned", 2);
    // Cloning happened exactly at the two collects — count() / fold
    // contributed nothing.
    assert_counter_eq(
        &diff,
        "kb.store.entries_cloned",
        (spot_len + all_len) as u64,
    );
    assert_counter_eq(&diff, "kb.store.stale_rejected", 1);
}

/// The durability counters reconcile with on-disk ground truth: one WAL
/// append per write call, `wal_bytes` matching the frames on disk
/// across the snapshot rotation, one snapshot file per shard, and
/// recovery replaying exactly the entries written after the last
/// snapshot cut.
#[test]
fn kb_persist_counters_reconcile_with_disk_state() {
    let g = generate(&GeneratorConfig::small(9109));
    let classifier = PatternClassifier;
    let staging = KnowledgeBase::new();
    let stats = run_extraction_pipeline(&g.trace, &staging, &classifier, 64, 2);
    assert!(stats.stored > 0);
    let entries = cloudscope::kb::KbQuery::all().collect(&staging);

    let dir = std::env::temp_dir().join(format!("cloudscope-obs-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const SHARDS: usize = 3;
    const TAIL_WRITES: usize = 5;
    // Segment header: 8-byte magic + 8-byte sequence.
    const WAL_HEADER: u64 = 16;

    let registry = Arc::new(Registry::new());
    let (pre_rotation_len, diff) = snapshot_diff(&registry, || {
        let db = DurableKb::open_with_shards(&dir, Some(SHARDS)).expect("open");
        // One batched feed, then a snapshot, then a post-snapshot tail
        // of single upserts — the part recovery must replay.
        db.feed(&entries).expect("feed");
        let pre_rotation_len = std::fs::metadata(dir.join("wal.log"))
            .expect("wal exists")
            .len();
        let report = db.snapshot().expect("snapshot");
        assert_eq!(report.shard_files, SHARDS);
        // The snapshot rotated everything it covers out of the log:
        // only a fresh segment header remains.
        assert_eq!(
            std::fs::metadata(dir.join("wal.log"))
                .expect("wal exists")
                .len(),
            WAL_HEADER
        );
        for k in entries.iter().take(TAIL_WRITES) {
            db.upsert(k.clone()).expect("upsert");
        }
        drop(db);
        let recovered = DurableKb::open_with_shards(&dir, Some(SHARDS)).expect("recover");
        let recovery = recovered.recovery_stats();
        assert_eq!(recovery.generation, 1);
        assert_eq!(recovery.snapshot_entries, entries.len());
        assert_eq!(recovery.replayed_records, TAIL_WRITES);
        assert_eq!(recovery.replayed_entries, TAIL_WRITES);
        assert!(!recovery.torn_tail);
        assert_eq!(recovered.kb().len(), entries.len());
        pre_rotation_len
    });

    // One append per write call: the batched feed plus each tail upsert.
    assert_counter_eq(&diff, "kb.persist.wal_appends", 1 + TAIL_WRITES as u64);
    // Appended bytes = frames in the pre-rotation segment (the feed)
    // plus frames in the live segment (the tail upserts); headers are
    // file structure, not appends, and the snapshot rotated exactly once.
    let wal_len = std::fs::metadata(dir.join("wal.log"))
        .expect("wal exists")
        .len();
    assert_counter_eq(
        &diff,
        "kb.persist.wal_bytes",
        (pre_rotation_len - WAL_HEADER) + (wal_len - WAL_HEADER),
    );
    assert_counter_eq(&diff, "kb.persist.wal_rotations", 1);
    // One snapshot file per shard, and they are all on disk.
    assert_counter_eq(&diff, "kb.persist.snapshots_written", SHARDS as u64);
    for shard in 0..SHARDS {
        assert!(
            dir.join(format!("snap-1-{shard}.snap")).exists(),
            "snapshot file for shard {shard} missing"
        );
    }
    // Recovery replayed exactly the post-snapshot tail and timed itself.
    assert_counter_eq(&diff, "kb.persist.recovery_replayed", TAIL_WRITES as u64);
    let ns = diff
        .gauge("kb.persist.recovery_ns")
        .expect("recovery gauge registers");
    assert!(ns > 0.0, "recovery must take measurable time, got {ns}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The streaming-ingestion counters reconcile with the session's own
/// report: the offer-accounting identity holds both in the report and
/// in the flushed counters, the drive span fires exactly once per run,
/// the backpressure gauge carries the report's peak, and the simulator
/// sees one event per simulated hour, not one per sample.
#[test]
fn ingest_counters_reconcile_with_session_report() {
    let g = generate(&GeneratorConfig::small(9110));
    let registry = Arc::new(Registry::new());
    let (outcome, diff) = snapshot_diff(&registry, || {
        drive_ingest(
            &g.trace,
            &FaultPlan::standard(9110),
            &IngestConfig::default(),
            &PatternClassifier,
            &KnowledgeBase::new(),
        )
    });
    let report = outcome.session.report();

    // Exhaustive accounting: nothing offered vanishes untallied.
    assert_eq!(
        report.samples_offered,
        report.samples_applied + report.rejected_invalid + report.out_of_week + report.dropped_late
    );
    for (name, field) in [
        ("ingest.samples_offered", report.samples_offered),
        ("ingest.samples_applied", report.samples_applied),
        ("ingest.duplicates_collapsed", report.duplicates_collapsed),
        ("ingest.rejected_invalid", report.rejected_invalid),
        ("ingest.out_of_week", report.out_of_week),
        ("ingest.dropped_late", report.dropped_late),
        ("ingest.windows_closed", report.windows_closed),
        ("ingest.classifications", report.classifications),
    ] {
        assert_counter_eq(&diff, name, field);
    }
    assert_eq!(
        diff.gauge("ingest.backpressure.peak_pending_samples"),
        Some(report.peak_pending_samples as f64)
    );
    let drive = diff
        .histogram("ingest.drive.duration_ns")
        .expect("drive span records");
    assert_eq!(drive.count, 1, "one drive, one span");
    // Access pattern: samples reach the ingestor in watermark-bounded
    // batches, so the only discrete events are the hourly ticks (the
    // week, plus the watermark delay's run-out).
    let hours_in_run = SimTime::WEEK_END.hours() as u64;
    assert!(
        outcome.events_processed <= hours_in_run + 4,
        "{} events for {} samples: delivery is per sample again",
        outcome.events_processed,
        report.samples_offered
    );
    assert_counter_eq(
        &diff,
        "sim.engine.events_processed",
        outcome.events_processed,
    );
    // Every published batch went through the shared KB pipeline path.
    assert_counter_eq(
        &diff,
        "kb.pipeline.batches",
        outcome.pipeline_stats.batches as u64,
    );
}

/// Work accounting is scheduling-invariant: the same sweep reports the
/// same `tasks_executed` and `sweeps` for every worker count, even
/// though stealing and chunking differ run to run.
#[test]
fn par_task_accounting_is_invariant_across_worker_counts() {
    let items: Vec<u64> = (0..357).collect();
    for workers in [1, 2, 4, 8] {
        let registry = Arc::new(Registry::new());
        let (sum, diff) = snapshot_diff(&registry, || {
            Parallelism::with_workers(workers)
                .par_map(&items, |&x| x * 2)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(sum, 357 * 356);
        assert_counter_eq(&diff, "par.executor.tasks_executed", 357);
        assert_counter_eq(&diff, "par.executor.sweeps", 1);
    }
}

/// The scale-out generation metrics reconcile with trace ground truth:
/// one region task per topology region, one merged record per VM in the
/// trace, one successful placement per VM that got a node, and at least
/// one index candidate probed per placement attempt. The queue counters
/// stay consistent with the engine's own event tally.
#[test]
fn generation_metrics_reconcile_with_trace_ground_truth() {
    let registry = Arc::new(Registry::new());
    let (g, diff) = snapshot_diff(&registry, || generate(&GeneratorConfig::small(9108)));

    let regions = g.trace.topology().regions().len() as u64;
    assert_counter_eq(&diff, "tracegen.generate.regions_driven", regions);
    assert_counter_eq(
        &diff,
        "tracegen.generate.vms_generated",
        g.trace.vms().len() as u64,
    );
    // Conservation: every spec the generator created either made it into
    // the trace or is accounted as dropped, and the merge counter sits
    // between the two (merge happens before unplaced churn is culled).
    let created = g.report.standing_vms + g.report.churn_vms + g.report.burst_vms;
    assert_eq!(g.trace.vms().len() as u64 + g.report.dropped_vms, created);
    let merged = diff
        .counter("tracegen.generate.merged_records")
        .expect("merge counter registers");
    assert!(
        merged >= g.trace.vms().len() as u64 && merged <= created,
        "merged {merged} outside [{}, {created}]",
        g.trace.vms().len()
    );
    let workers = diff
        .gauge("tracegen.generate.region_workers")
        .expect("worker gauge registers");
    assert!(workers >= 1.0, "at least one region worker, got {workers}");

    let placed = g.trace.vms().iter().filter(|vm| vm.node.is_some()).count() as u64;
    assert_counter_eq(&diff, "cluster.allocator.placements", placed);
    let candidates = diff
        .counter("cluster.alloc.index_candidates")
        .expect("index candidates register");
    assert!(
        candidates >= placed,
        "every placement probes at least one candidate ({candidates} < {placed})"
    );

    // Every event the DES processed went through the calendar queue, and
    // nothing the generator schedules lands past the one-week horizon.
    let scheduled = diff.counter("sim.queue.scheduled").expect("queue counter");
    let processed = diff
        .counter("sim.engine.events_processed")
        .expect("engine counter");
    assert!(
        scheduled >= processed,
        "processed events exceed scheduled ({processed} > {scheduled})"
    );
    assert_counter_eq(&diff, "sim.queue.overflow_events", 0);
}

/// Partition observability: a plain `generate` reports one drive task
/// per non-empty (region, cloud) group — on the small config every pair
/// has specs — and every generation phase exports its wall-clock gauge,
/// the breakdown that makes flat scaling diagnosable from a metrics
/// dump.
#[test]
fn partition_metrics_reflect_drive_granularity() {
    let cfg = GeneratorConfig::small(9108);
    let registry = Arc::new(Registry::new());
    let (g, diff) = snapshot_diff(&registry, || generate(&cfg));
    let regions = g.trace.topology().regions().len() as u64;
    assert_counter_eq(&diff, "tracegen.generate.tasks_driven", 2 * regions);
    assert_counter_eq(&diff, "tracegen.generate.regions_driven", regions);
    assert_eq!(
        diff.gauge("tracegen.generate.region_workers"),
        Some(Parallelism::auto().workers() as f64),
        "the drive fans out over the whole pool"
    );
    for phase in ["prepare", "placement", "merge", "telemetry", "assemble"] {
        let ns = diff
            .gauge(&format!("tracegen.generate.phase_{phase}_ns"))
            .unwrap_or_else(|| panic!("phase gauge {phase} registers"));
        assert!(ns >= 0.0, "{phase} gauge negative: {ns}");
    }
}

/// One `analyze` call times itself exactly once at the root and once
/// per figure-family child span.
#[test]
fn report_spans_fire_once_per_analysis() {
    let g = generate(&GeneratorConfig::small(9104));
    let registry = Arc::new(Registry::new());
    let (report, diff) = snapshot_diff(&registry, || {
        CharacterizationReport::analyze(&g.trace, &ReportConfig::default()).expect("analysis")
    });
    assert_eq!(cloudscope_repro::ledger::insights(&report).len(), 4);

    for path in [
        "analysis.report.duration_ns",
        "analysis.report.deployment.duration_ns",
        "analysis.report.vm_size.duration_ns",
        "analysis.report.temporal.duration_ns",
        "analysis.report.spatial.duration_ns",
        "analysis.report.patterns.duration_ns",
        "analysis.report.utilization.duration_ns",
        "analysis.report.correlation.duration_ns",
    ] {
        let h = diff
            .histogram(path)
            .unwrap_or_else(|| panic!("span histogram {path} missing"));
        assert_eq!(h.count, 1, "{path} must fire exactly once");
        assert!(h.sum > 0, "{path} must record wall-clock time");
    }
}

/// The JSON exporter round-trips a genuinely populated snapshot —
/// counters, negative/fractional gauges, and multi-bucket histograms —
/// exactly.
#[test]
fn exporters_round_trip_a_populated_snapshot() {
    let registry = Arc::new(Registry::new());
    let ((), _) = snapshot_diff(&registry, || {
        let g = generate(&GeneratorConfig::small(9105));
        let _ = CharacterizationReport::analyze(&g.trace, &ReportConfig::default());
        cloudscope::obs::gauge("test.gauge.negative").set(-12.75);
        cloudscope::obs::gauge("test.gauge.tiny").set(1.0e-9);
        let h = cloudscope::obs::current().histogram("test.histogram.spread");
        for v in [0, 1, 17, 4096, u64::MAX / 2] {
            h.observe(v);
        }
    });
    let snapshot = registry.snapshot();
    assert!(
        snapshot.metrics.len() > 20,
        "a real analysis populates a wide surface, got {}",
        snapshot.metrics.len()
    );

    let via_json = parse_json(&to_json(&snapshot)).expect("JSON parses");
    assert_eq!(via_json, snapshot, "JSON round-trip must be exact");
}

/// Runs every instrumented subsystem once inside one scoped registry,
/// deterministically touching the rare paths (placement failure,
/// coverage gates, classifier branches, retries, forced reroute) so the
/// full metric *name* surface registers regardless of trace content.
fn exercise_all_subsystems() -> Snapshot {
    let registry = Arc::new(Registry::new());
    cloudscope::obs::scoped(&registry, || {
        // tracegen + sim + model + stats + cluster placements + par.
        let g = generate(&GeneratorConfig::small(9106));
        let report =
            CharacterizationReport::analyze(&g.trace, &ReportConfig::default()).expect("analysis");
        assert_eq!(cloudscope_repro::ledger::insights(&report).len(), 4);

        // faults: the standard corruption profile flushes all nine
        // corruption counters even when a channel tallies zero.
        let (_, fault_report) = corrupt_trace(&g.trace, &FaultPlan::standard(7));
        assert!(fault_report.samples_in > 0);

        // ingest: one driven streaming run under the standard fault
        // plan registers the whole ingest.* surface — the offer/drop
        // accounting counters, the drive/close/publish spans, and the
        // backpressure gauge.
        let ingest_outcome = drive_ingest(
            &g.trace,
            &FaultPlan::standard(7),
            &IngestConfig::default(),
            &PatternClassifier,
            &KnowledgeBase::new(),
        );
        assert!(ingest_outcome.session.report().samples_offered > 0);

        // kb, clean then flaky, so the retry/backoff counters register.
        let classifier = PatternClassifier;
        let kb = KnowledgeBase::new();
        let stats = run_extraction_pipeline(&g.trace, &kb, &classifier, 64, 2);
        assert!(stats.stored > 0);
        let flaky = FlakyStore::new(KnowledgeBase::new(), 11, 0.3);
        let retry = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_nanos(1),
        };
        let flaky_stats =
            run_extraction_pipeline_with(&g.trace, &flaky, &classifier, 64, 2, &retry);
        assert!(flaky_stats.retries > 0);

        // cluster: force one placement failure on a starved allocator.
        let mut b = Topology::builder();
        let r = b.add_region("obs", 0, "US");
        let d = b.add_datacenter(r);
        let c = b.add_cluster(d, CloudKind::Private, NodeSku::new(4, 32.0), 1, 1);
        let topo = b.build();
        let mut alloc = ClusterAllocator::new(
            topo.cluster(c).unwrap(),
            PlacementPolicy::BestFit,
            SpreadingRule::default(),
        );
        alloc
            .place(PlacementRequest {
                vm: VmId::new(0),
                size: VmSize::new(4, 32.0),
                service: ServiceId::new(0),
                priority: Priority::OnDemand,
            })
            .expect("fits");
        assert!(alloc
            .place(PlacementRequest {
                vm: VmId::new(1),
                size: VmSize::new(4, 32.0),
                service: ServiceId::new(1),
                priority: Priority::OnDemand,
            })
            .is_err());

        // analysis classifier: hit all four dispatch branches.
        let dense: Vec<f64> = (0..2016)
            .map(|i| 20.0 + 10.0 * (std::f64::consts::TAU * i as f64 / 288.0).sin())
            .collect();
        let stored = |values: &[f64]| {
            UtilSeries::from_percentages(SimTime::ZERO, values.iter().map(|&v| v as f32))
        };
        let _ = classifier.classify_util(&stored(&dense));
        let mut long_gap = dense.clone();
        for slot in &mut long_gap[100..112] {
            *slot = f64::NAN; // 12-sample gap: beyond the 6-sample fill cap.
        }
        let _ = classifier.classify_util(&stored(&long_gap));
        let mut sparse = vec![f64::NAN; 2016];
        sparse[0] = 1.0; // coverage far below the 0.6 floor.
        let _ = classifier.classify_util(&stored(&sparse));

        // analysis coverage gate: one rejection, one fill.
        let util = g
            .trace
            .vms()
            .iter()
            .find_map(|vm| g.trace.util(vm.id))
            .expect("telemetry exists");
        assert!(filled_week_series(&util, 1.01).is_none());
        assert!(filled_week_series(&util, 0.0).is_some());

        // timeseries: a unique FFT size registers both plan-cache
        // counters on this thread (miss, then hit).
        fft::with_plan(32_768, |_, _| ()).expect("power of two");
        fft::with_plan(32_768, |_, _| ()).expect("power of two");

        // mgmt: one over-subscription plan.
        OversubPlanner::new(0.02, OversubMethod::EmpiricalQuantile)
            .expect("valid planner")
            .plan(&[VmDemand {
                cores: 8,
                utilization: dense,
            }])
            .expect("plan");

        // kb durability: a write-snapshot-reopen cycle registers the
        // whole kb.persist.* surface (WAL appends, snapshot files,
        // recovery replay and timing).
        let dir =
            std::env::temp_dir().join(format!("cloudscope-obs-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = DurableKb::open_with_shards(&dir, Some(2)).expect("open durable kb");
        let everything = cloudscope::kb::KbQuery::all().collect(&kb);
        db.feed(&everything).expect("durable feed");
        db.snapshot().expect("durable snapshot");
        db.upsert(everything[0].clone()).expect("durable upsert");
        drop(db);
        let recovered = DurableKb::open_with_shards(&dir, Some(2)).expect("recover durable kb");
        assert_eq!(recovered.kb().len(), everything.len());
        let _ = std::fs::remove_dir_all(&dir);

        // store: a write → out-of-core read cycle registers the whole
        // store.* surface — compression and commit counters on the
        // write side; batch, chunk, and series reads plus per-lane
        // cursor hits/misses/evictions on the read side — and one
        // rejected blob registers corruption detection.
        let store_dir =
            std::env::temp_dir().join(format!("cloudscope-obs-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store_par = Parallelism::with_workers(2);
        let opts = cloudscope::store::WriteOptions {
            target_chunk_rows: 64,
            ..cloudscope::store::WriteOptions::default()
        };
        cloudscope::tracegen::write_generated(&g, &store_dir, opts, &store_par)
            .expect("store write");
        let back = cloudscope::tracegen::read_generated(
            &store_dir,
            cloudscope::store::TelemetryMode::OutOfCore { cache_chunks: 1 },
            &store_par,
        )
        .expect("store read");
        assert!(back.trace.telemetry_is_lazy());
        for vm in back.trace.vms() {
            let _ = back.trace.util(vm.id); // stream every chunk through its lane's slot
        }
        // 64-row chunks make every lane several chunks long, so the
        // sweep above moved each lane's cursor (miss + evict) many
        // times. A second load of one VM finds every lane still on the
        // chunk the first load left it on: all hits.
        let hot = cloudscope::tracegen::read_generated(
            &store_dir,
            cloudscope::store::TelemetryMode::OutOfCore { cache_chunks: 64 },
            &store_par,
        )
        .expect("store read (hot)");
        let first = hot
            .trace
            .vms()
            .iter()
            .find(|vm| hot.trace.has_util(vm.id))
            .expect("telemetry exists")
            .id;
        let _ = hot.trace.util(first); // cold: moves the cursors
        let _ = hot.trace.util(first); // hot: guaranteed hits
        assert!(
            cloudscope::tracegen::store_io::decode_report(&store_dir, &[0xFF; 4]).is_err(),
            "garbage blob must be rejected"
        );
        let _ = std::fs::remove_dir_all(&store_dir);

        // tracegen, streamed: generating straight to a store records
        // the same surface as the in-memory generation above.
        let mut streamed = GeneratorConfig::small(9107);
        streamed.topology.regions.truncate(2);
        streamed.public.subscriptions = 60;
        cloudscope::tracegen::generate_to_store(&streamed, &store_dir, opts, store_par)
            .expect("streamed generation");
        let _ = std::fs::remove_dir_all(&store_dir);

        // repro: one passing and one failing shape check.
        let mut checks = ShapeChecks::new();
        checks.check("observability pass", true, "forced".to_owned());
        checks.check("observability fail", false, "forced".to_owned());

        // facade: the snapshot entry point counts itself.
        cloudscope::obs_snapshot()
    })
}

fn schema_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/metrics_schema.json")
}

/// The full metric surface — names and kinds — matches the committed
/// schema exactly, and every workspace crate contributes at least one
/// metric. Renaming, retyping, adding, or losing a metric trips this.
#[test]
fn metric_surface_matches_committed_schema() {
    let snapshot = exercise_all_subsystems();
    let schema = Schema::from_snapshot(&snapshot);

    for prefix in [
        "analysis.",
        "cluster.",
        "facade.",
        "faults.",
        "ingest.",
        "kb.",
        "mgmt.",
        "model.",
        "par.",
        "repro.",
        "sim.",
        "stats.",
        "store.",
        "timeseries.",
        "tracegen.",
    ] {
        assert!(
            schema.metrics.keys().any(|name| name.starts_with(prefix)),
            "no metric registered under {prefix}"
        );
    }

    let path = schema_path();
    if std::env::var_os("CLOUDSCOPE_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create tests/golden");
        std::fs::write(&path, schema.to_json()).expect("write schema golden");
        return;
    }

    let committed = Schema::parse_json(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing schema golden {} ({e}); run with CLOUDSCOPE_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    }))
    .expect("committed schema parses");

    assert!(
        committed.validate(&snapshot).is_empty(),
        "snapshot violates committed schema: {:?}",
        committed.validate(&snapshot)
    );
    let missing: Vec<&String> = committed
        .metrics
        .keys()
        .filter(|name| !schema.metrics.contains_key(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics in the committed schema no longer register: {missing:?}.\n\
         If removal is intentional, re-bless with CLOUDSCOPE_UPDATE_GOLDEN=1."
    );
    assert_eq!(
        schema, committed,
        "metric surface drifted; re-bless with CLOUDSCOPE_UPDATE_GOLDEN=1 if intentional"
    );
}

/// The decode pipeline's counters reconcile once its scans have
/// returned: every chunk a decoder thread decoded was taken by the
/// consumer (hit) or dropped unread when the scan ended (wasted), and
/// every such decode lands in the latency histogram.
#[test]
fn store_prefetch_metrics_reconcile_at_quiesce() {
    let g = generate(&GeneratorConfig::small(29));
    let dir = std::env::temp_dir().join(format!("cloudscope-obs-prefetch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let par = Parallelism::with_workers(2);
    // Tiny chunks so every (region, day) lane spans several chunks and
    // the sweep has successors to read ahead into.
    let opts = cloudscope::store::WriteOptions {
        target_chunk_rows: 16,
        target_chunk_bytes: 2048,
    };
    cloudscope::tracegen::write_generated(&g, &dir, opts, &par).expect("store write");

    let registry = Arc::new(Registry::new());
    let snap = cloudscope::obs::scoped(&registry, || {
        let back = cloudscope::tracegen::read_generated(
            &dir,
            cloudscope::store::TelemetryMode::OutOfCore { cache_chunks: 0 },
            &par,
        )
        .expect("store read");
        // Id-ordered full sweep of point loads: every lane's cursor
        // walks forward; a load that moves two lanes decodes them on
        // two threads.
        for vm in back.trace.vms() {
            let _ = back.trace.util(vm.id);
        }
        let swept = registry.snapshot();
        // Then a sparse ascending scan over the same reader, whose
        // decoder threads run ahead of it along its plan.
        let every_third: Vec<VmId> = back.trace.vms().iter().step_by(3).map(|vm| vm.id).collect();
        back.trace.scan(&every_third, &mut |_, _| {});
        drop(back);
        (swept, registry.snapshot())
    });
    let (swept, snap) = snap;
    let chunks = cloudscope::store::TraceReader::open(&dir)
        .expect("store opens")
        .chunks(cloudscope::store::ScanFilter::all().kind(cloudscope::store::ChunkKind::Telemetry))
        .count() as u64;
    let _ = std::fs::remove_dir_all(&dir);

    let issued = snap.counter("store.prefetch.issued").unwrap_or(0);
    let hits = snap.counter("store.prefetch.hits").unwrap_or(0);
    let wasted = snap.counter("store.prefetch.wasted").unwrap_or(0);
    assert!(issued > 0, "neither the sweep nor the scan read ahead");
    assert_eq!(
        issued,
        hits + wasted,
        "issued prefetches must be consumed or retired: {issued} != {hits} + {wasted}"
    );
    let decode = snap
        .histogram("store.prefetch.decode_ns")
        .expect("decode histogram registers");
    // Every chunk taken from a decoder thread was decoded by one, and
    // a decoder counts a chunk as issued when it has decoded it.
    assert!(
        hits <= decode.count && decode.count <= issued,
        "background decodes ({}) must cover hits ({hits}) and never exceed issues ({issued})",
        decode.count
    );
    // Prefetch hits are a subset of the cursor misses they absorbed.
    let misses = snap.counter("store.cache.misses").unwrap_or(0);
    assert!(
        hits <= misses,
        "prefetch hits ({hits}) cannot exceed cache misses ({misses})"
    );
    // An ascending sweep of point loads decodes every chunk exactly
    // once: demand misses no readahead absorbed, plus every readahead.
    let sweep_decodes = swept.counter("store.cache.misses").unwrap_or(0)
        - swept.counter("store.prefetch.hits").unwrap_or(0)
        + swept
            .histogram("store.prefetch.decode_ns")
            .map_or(0, |h| h.count);
    assert_eq!(sweep_decodes, chunks, "the id-ordered sweep re-decoded");
}
