//! End-to-end integration: generate both clouds, run the entire
//! characterization pipeline, and judge it with the paper-fact ledger
//! (the same rows `repro` prints).

use cloudscope::faults::{corrupt_trace, FaultPlan, FaultReport};
use cloudscope::prelude::*;
use cloudscope_repro::checks::{all_figure_checks, CheckProfile, Measurements};
use cloudscope_repro::figures::{Run, FIGURES};
use cloudscope_repro::ledger::{self, Strictness};
use cloudscope_repro::{ShapeChecks, TraceScale};
use std::fmt::Write;
use std::sync::OnceLock;

fn generated() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| generate(&GeneratorConfig::medium(99)))
}

/// The medium trace under the standard corruption profile: 5% uniform
/// sample loss plus a 6-hour regional blackout (and the light
/// duplicate/reorder/garbage/skew noise ingest must absorb).
fn corrupted() -> &'static (GeneratedTrace, FaultReport) {
    static CORRUPTED: OnceLock<(GeneratedTrace, FaultReport)> = OnceLock::new();
    CORRUPTED.get_or_init(|| {
        let clean = generated();
        let (trace, report) = corrupt_trace(&clean.trace, &FaultPlan::standard(2024));
        (
            GeneratedTrace {
                trace,
                services: clean.services.clone(),
                report: clean.report,
            },
            report,
        )
    })
}

/// The clean trace measured once. The report, the 26 shape checks at
/// every strictness, the insights and the golden verdicts all judge it.
fn clean() -> &'static Measurements {
    static CLEAN: OnceLock<Measurements> = OnceLock::new();
    CLEAN.get_or_init(|| {
        Measurements::of(generated(), CheckProfile::medium().oversub_pool)
            .expect("pipeline runs on the medium trace")
    })
}

/// The corrupted trace measured once, shared the same way.
fn faulted() -> &'static Measurements {
    static FAULTED: OnceLock<Measurements> = OnceLock::new();
    FAULTED.get_or_init(|| {
        Measurements::of(&corrupted().0, CheckProfile::medium().oversub_pool)
            .expect("pipeline still runs on the corrupted trace")
    })
}

fn report() -> &'static CharacterizationReport {
    &clean().report
}

fn clean_checks() -> ShapeChecks {
    clean().checks(&CheckProfile::medium())
}

/// The lines of the checks that failed, one per line.
fn failures(checks: &ShapeChecks) -> String {
    let failed: Vec<&str> = checks
        .lines()
        .filter(|(holds, _)| !holds)
        .map(|(_, line)| line)
        .collect();
    failed.join("\n")
}

fn corrupted_checks() -> ShapeChecks {
    faulted().checks(&CheckProfile::medium())
}

#[test]
fn all_four_insights_hold() {
    for (holds, verdict) in ledger::insights(report()) {
        assert!(holds, "insight failed: {verdict}");
    }
}

/// Asserts the named ledger rows at medium strictness on the clean
/// trace: one figure's share of the robustness gate, so a failing
/// figure names itself.
fn assert_rows_hold(ids: &[&str]) {
    let evidence = clean().evidence();
    for id in ids {
        let fact = ledger::LEDGER
            .iter()
            .find(|f| f.id == *id)
            .expect("a ledger row");
        let (holds, detail) = fact
            .judge(&evidence, Strictness::Medium)
            .expect("the clean trace carries every figure");
        assert!(holds, "{id} ({}): {detail}", fact.claim);
    }
}

#[test]
fn fig1_deployment_sizes() {
    assert_rows_hold(&["fig1a", "fig1b"]);
}

#[test]
fn fig2_vm_sizes() {
    assert_rows_hold(&["fig2a", "fig2b"]);
}

#[test]
fn fig3_lifetimes_and_burstiness() {
    assert_rows_hold(&["fig3a", "fig3d", "fig3b"]);
}

#[test]
fn fig4_spatial() {
    assert_rows_hold(&["fig4a", "fig4b", "fig4c"]);
}

#[test]
fn fig5_pattern_shares() {
    assert_rows_hold(&["fig5a", "fig5b", "fig5c", "fig5d"]);
}

#[test]
fn fig6_utilization_bands() {
    assert_rows_hold(&["fig6a", "fig6b", "fig6c"]);
}

#[test]
fn fig7_correlations() {
    assert_rows_hold(&["fig7a", "fig7b"]);
}

#[test]
fn fig7c_flagship_service_is_region_aligned() {
    assert_rows_hold(&["fig7c"]);
}

/// Every verdict the ledger renders for `medium(99)`, clean and under
/// the standard fault plan, at medium and full strictness: the 26
/// check lines, the four insights and the 12 differential orderings,
/// byte for byte as `tests/golden/shape_verdicts.txt` records them.
#[test]
fn shape_verdicts_match_the_golden_file() {
    let flag = |holds: bool| if holds { "ok" } else { "MISS" };
    let flags =
        |verdicts: &mut dyn Iterator<Item = bool>| verdicts.map(flag).collect::<Vec<_>>().join(" ");
    let mut rendered = String::new();
    for (name, measured) in [("clean", clean()), ("FaultPlan::standard(2024)", faulted())] {
        for (profile, checks) in [
            ("medium", CheckProfile::medium()),
            ("full", CheckProfile::full()),
        ] {
            let _ = writeln!(
                rendered,
                "# GeneratorConfig::medium(99) {name}, CheckProfile::{profile}()"
            );
            for (holds, line) in measured.checks(&checks).lines() {
                let _ = writeln!(rendered, "[{}] {line}", flag(holds));
            }
            let insights = ledger::insights(&measured.report);
            let orderings = ledger::differential(&measured.report);
            let _ = writeln!(
                rendered,
                "insights: {}\norderings: {}",
                flags(&mut insights.iter().map(|(holds, _)| *holds)),
                flags(&mut orderings.lines().map(|(holds, _)| holds)),
            );
        }
    }
    assert_eq!(rendered, include_str!("golden/shape_verdicts.txt"));
}

/// `repro all`'s stdout at `scale`: every row of the figure table over
/// one measurement, compared with `golden` (captured from the
/// per-figure binaries it replaced) line by line, then byte for byte.
fn assert_repro_all_matches(
    scale: TraceScale,
    generated: &GeneratedTrace,
    measured: &Measurements,
    golden: &str,
) {
    let run = Run {
        generated,
        measured,
        profile: scale.check_profile(),
    };
    let mut rendered = String::new();
    for figure in &FIGURES {
        figure.render(&run, &mut rendered);
    }
    for (n, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{scale:?} golden line {}", n + 1);
    }
    assert_eq!(rendered, golden, "{scale:?}: same lines, different length");
}

#[test]
fn repro_all_matches_the_medium_golden() {
    assert_eq!(
        TraceScale::Medium.generator_config(),
        GeneratorConfig::medium(99)
    );
    assert_repro_all_matches(
        TraceScale::Medium,
        generated(),
        clean(),
        include_str!("golden/repro_medium.txt"),
    );
}

#[test]
fn repro_all_matches_the_small_golden() {
    let scale = TraceScale::Small;
    let generated = generate(&scale.generator_config());
    let measured = Measurements::of(&generated, scale.check_profile().oversub_pool)
        .expect("pipeline runs on the small trace");
    assert_repro_all_matches(
        scale,
        &generated,
        &measured,
        include_str!("golden/repro_small.txt"),
    );
}

#[test]
fn robustness_gate_all_shape_checks_hold_on_the_clean_trace() {
    let checks = clean_checks();
    assert_eq!(checks.len(), 26, "the full shape-check surface ran");
    assert!(
        checks.all_hold(),
        "clean-trace shape checks failed:\n{}",
        failures(&checks)
    );
}

#[test]
fn robustness_gate_all_shape_checks_hold_under_standard_corruption() {
    let (_, fault_report) = corrupted();
    // The corruption really happened: ~5% uniform loss plus the
    // blackout, within sane bounds.
    let loss = fault_report.loss_fraction();
    assert!(loss > 0.04, "standard profile lost too little: {loss}");
    assert!(loss < 0.20, "standard profile lost too much: {loss}");
    assert!(fault_report.blackout_dropped > 0, "the blackout fired");

    println!(
        "corruption: {} of {} samples lost ({:.2}%), {} to the blackout, \
         {} duplicated, {} reordered, {} invalidated, {} skewed off-week",
        fault_report.samples_in - fault_report.samples_out,
        fault_report.samples_in,
        loss * 100.0,
        fault_report.blackout_dropped,
        fault_report.duplicated,
        fault_report.reordered,
        fault_report.invalidated,
        fault_report.out_of_week,
    );
    let checks = corrupted_checks();
    assert_eq!(checks.len(), 26, "the full shape-check surface ran");
    assert!(
        checks.all_hold(),
        "shape checks failed under {:.1}% sample loss:\n{}",
        loss * 100.0,
        failures(&checks)
    );
}

#[test]
fn classifier_agrees_with_generator_ground_truth() {
    // Classify full-week VMs and compare against the generating profile.
    let g = generated();
    let classifier = PatternClassifier;
    let mut agree = 0usize;
    let mut total = 0usize;
    for svc in &g.services {
        for &vm in g.trace.vms_of_service(svc.service).iter().take(2) {
            if g.trace.util(vm).is_none_or(|u| u.len() < 2016) {
                continue;
            }
            let Some(found) = classifier.classify_vm(&g.trace, vm) else {
                continue;
            };
            total += 1;
            let expected = format!("{:?}", svc.profile.kind);
            if format!("{found:?}") == expected {
                agree += 1;
            }
        }
    }
    assert!(total > 200, "enough classifiable VMs: {total}");
    let accuracy = agree as f64 / total as f64;
    assert!(
        accuracy > 0.7,
        "classifier accuracy vs ground truth: {accuracy:.2}"
    );
}

/// The out-of-core gate: the entire figure pipeline — every fig1–fig7
/// analysis core and all 26 shape checks — must produce byte-identical
/// results when the trace is scanned from a disk store, one decoded
/// chunk per lane, instead of sitting fully in memory, on the clean
/// medium trace *and* under the standard fault plan.
#[test]
fn out_of_core_pipeline_matches_in_memory_byte_for_byte() {
    use cloudscope::store::{TelemetryMode, WriteOptions};
    use cloudscope::tracegen::{read_generated, write_generated};

    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = TempDir(
        std::env::temp_dir().join(format!("cloudscope-pipeline-store-{}", std::process::id())),
    );

    let clean = generated();
    let par = cloudscope::par::Parallelism::auto();
    write_generated(clean, &dir.0, WriteOptions::default(), &par).expect("store writes");

    // One decoded chunk per (region, day) lane: telemetry pages in and
    // out, and every ascending scan decompresses each chunk it needs
    // only once.
    let streamed = read_generated(&dir.0, TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
        .expect("store reads");
    assert!(
        streamed.trace.telemetry_is_lazy(),
        "telemetry must stay on disk"
    );

    let render = |checks: &ShapeChecks| -> Vec<(bool, String)> {
        checks
            .lines()
            .map(|(h, line)| (h, line.to_owned()))
            .collect()
    };

    // 26 shape checks, byte-identical to the in-memory run.
    let in_memory = clean_checks();
    let out_of_core =
        all_figure_checks(&streamed, &CheckProfile::medium()).expect("out-of-core pipeline");
    assert_eq!(out_of_core.len(), 26, "the full shape-check surface ran");
    assert_eq!(
        render(&out_of_core),
        render(&in_memory),
        "out-of-core shape checks diverge from in-memory"
    );
    assert!(out_of_core.all_hold());

    // Every figure core, compared through the full report's rendering.
    let streamed_report =
        CharacterizationReport::analyze(&streamed.trace, &ReportConfig::default())
            .expect("out-of-core analysis");
    assert_eq!(
        format!("{streamed_report:?}"),
        format!("{:?}", report()),
        "out-of-core characterization diverges from in-memory"
    );

    // Under the standard fault plan the parity must survive too: the
    // injector pulls every series through the store in id order.
    let (corrupted_trace, fault_report) =
        corrupt_trace(&streamed.trace, &FaultPlan::standard(2024));
    let degraded = GeneratedTrace {
        trace: corrupted_trace,
        services: streamed.services.clone(),
        report: streamed.report,
    };
    let under_faults = all_figure_checks(&degraded, &CheckProfile::medium())
        .expect("out-of-core pipeline under faults");
    assert!(fault_report.blackout_dropped > 0, "the blackout fired");
    assert_eq!(
        render(&under_faults),
        render(&corrupted_checks()),
        "fault-plan shape checks diverge between disk and memory"
    );
}

/// The access-order guard. The whole `characterize` sequence of the
/// end-to-end benchmark — report, shape checks, pilot, oversub pool, KB
/// extraction, policies — runs out-of-core over a store with several
/// chunks per lane, must render exactly what the resident run renders,
/// and may fully decode each telemetry chunk at most 40 times: about
/// twenty ascending scans, each at most once over every chunk, with
/// room to spare. A stage that went back to point loads in its own
/// order would decode hundreds of times per chunk and fail here, not
/// only on the benchmark.
#[test]
fn out_of_core_pipeline_decodes_each_chunk_a_bounded_number_of_times() {
    use cloudscope::kb::pipeline::run_extraction_pipeline;
    use cloudscope::kb::KbQuery;
    use cloudscope::obs::Registry;
    use cloudscope::par::Parallelism;
    use cloudscope::store::{ChunkKind, ScanFilter, TelemetryMode, TraceReader, WriteOptions};
    use cloudscope::tracegen::{read_generated, write_generated};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let characterize = |generated: &GeneratedTrace| -> String {
        let checks = all_figure_checks(generated, &CheckProfile::medium()).expect("pipeline runs");
        let kb = KnowledgeBase::new();
        let workers = Parallelism::auto().workers();
        let stats = run_extraction_pipeline(&generated.trace, &kb, &PatternClassifier, 4, workers);
        assert_eq!(stats.failed, 0);
        let recommendations = PolicyEngine::standard().run(&kb);
        format!(
            "{:?};{:?};{recommendations:?}",
            checks.lines().collect::<Vec<_>>(),
            KbQuery::all().collect(&kb)
        )
    };

    let resident = generate(&GeneratorConfig::small(41));
    let dir = std::env::temp_dir().join(format!("cloudscope-amplification-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let par = Parallelism::auto();
    let options = WriteOptions {
        target_chunk_bytes: 16 << 10,
        ..WriteOptions::default()
    };
    write_generated(&resident, &dir, options, &par).expect("store writes");
    let lane_of_chunk: Vec<(u32, u8)> = TraceReader::open(&dir)
        .expect("store opens")
        .chunks(ScanFilter::all().kind(ChunkKind::Telemetry))
        .map(|entry| (entry.meta.region, entry.meta.day))
        .collect();
    let chunks = lane_of_chunk.len() as u64;
    let lanes = lane_of_chunk.iter().collect::<BTreeSet<_>>().len() as u64;
    assert!(
        chunks > 2 * lanes,
        "{chunks} chunks in {lanes} lanes: the lanes must be multi-chunk"
    );

    let registry = Arc::new(Registry::new());
    let out_of_core = cloudscope::obs::scoped(&registry, || {
        let streamed = read_generated(&dir, TelemetryMode::OutOfCore { cache_chunks: 0 }, &par)
            .expect("store reads");
        assert!(streamed.trace.telemetry_is_lazy());
        characterize(&streamed)
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out_of_core, characterize(&resident));

    // Full decodes, by the identity the end-to-end benchmark uses:
    // demand misses no readahead absorbed, plus every readahead.
    let snap = registry.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0);
    let read_ahead = snap
        .histogram("store.prefetch.decode_ns")
        .map_or(0, |h| h.count);
    let decodes = counter("store.cache.misses") - counter("store.prefetch.hits") + read_ahead;
    assert!(
        (chunks..=40 * chunks).contains(&decodes),
        "{decodes} full decodes of {chunks} telemetry chunks"
    );
}
