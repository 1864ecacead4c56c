//! One workload run in this process: set-up, timed iterations, probes
//! (traced run), verification, and the report.
//!
//! The untraced run yields the end-to-end metrics. The traced run
//! repeats the same call sequence with spans on and reports the
//! per-layer metrics, and ends with one untraced and one traced
//! iteration back to back, so the tracing overhead is measured inside
//! the run that pays it.

use crate::host;
use crate::json::Json;
use crate::metrics::{self, claimable_percentile, median, percentile, END_TO_END, PER_LAYER};
use crate::pipeline::Outcome;
use crate::trace::{self, layer_of, Ctx, Phase, SpanRec};
use crate::workloads::{telemetry_decodes, Input, Scale, StoreFacts, WorkloadDef, WORKLOADS};
use cloudscope::obs::{Registry, Snapshot};
use cloudscope::par::Parallelism;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub workload: String,
    /// Seed; `None` picks the workload's default.
    pub seed: Option<u64>,
    /// Seconds the timed section lasts (at least one iteration runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Every workload on `GeneratorConfig::small`.
    pub smoke: bool,
}

/// The directory result and trace files go to, and under which the
/// scratch directory lives: `benchmark/out`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Scratch space for trace stores and KB directories, removed when the
/// run ends — on success, on failure, and on a panic that unwinds.
struct TempRoot(PathBuf);

impl TempRoot {
    fn create() -> Result<Self, String> {
        // Unique per run even when several share a process (the tests).
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Wall and CPU seconds of the timed iterations.
#[derive(Debug, Clone, Default)]
struct Timings {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    plan: Plan,
    seed: u64,
    scale: Scale,
    host: Json,
    /// `true` if no operation failed.
    pub correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: u64,
    samples: u64,
    timings: Timings,
    store: Option<StoreFacts>,
    /// Metric values in `BENCHMARK.json` order: end-to-end ones for an
    /// untraced run, per-layer ones for a traced run.
    metrics: Vec<(&'static metrics::MetricDef, f64)>,
}

/// Runs `plan` to completion.
///
/// # Errors
/// A message if the workload is unknown or a step it cannot continue
/// without (set-up, a store open, scratch I/O) fails. Failed checks are
/// not errors: they are counted in the report.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let def = WORKLOADS
        .iter()
        .find(|w| w.name == plan.workload)
        .ok_or_else(|| format!("unknown workload {:?}", plan.workload))?;
    let scale = if plan.smoke { Scale::Small } else { def.scale };
    let seed = plan.seed.unwrap_or_else(|| scale.default_seed());
    let tmp = TempRoot::create()?;
    let registry = Arc::new(Registry::new());
    // Worker threads inherit the scope through cloudscope-par, so every
    // counter of the run lands in this registry.
    cloudscope::obs::scoped(&registry, || {
        run_scoped(plan, def, seed, scale, &tmp.0, Arc::clone(&registry))
    })
}

fn run_scoped(
    plan: &Plan,
    def: &WorkloadDef,
    seed: u64,
    scale: Scale,
    tmp: &Path,
    registry: Arc<Registry>,
) -> Result<Report, String> {
    let par = Parallelism::auto();
    let input = Input {
        scale,
        seed,
        tmp: tmp.to_owned(),
        par,
    };
    let mut workload = (def.build)(input);
    let mut cx = Ctx::new(registry, plan.traced);

    // Set-up: everything before the first timed iteration. It is done
    // `SETUP_REPEATS` times over and `setup_s` is the median, so that a
    // single slow set-up does not read as a regression.
    cx.enter(Phase::Setup, 1);
    let mut setups = Vec::new();
    // A smoke run wants every span once, not a steady figure.
    for _ in 0..if plan.smoke { 1 } else { SETUP_REPEATS } {
        let started = Instant::now();
        workload.setup(&mut cx)?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    if plan.traced {
        // Live-heap figures are growth over the state set-up left.
        crate::alloc::set_enabled(true);
    }

    let mut timings = Timings::default();
    let mut outputs: Vec<Outcome> = Vec::new();
    let timed = Instant::now();
    while outputs.is_empty() || timed.elapsed().as_secs_f64() < plan.seconds {
        cx.enter(Phase::Timed, outputs.len() as u32 + 1);
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        outputs.push(workload.iterate(&mut cx)?);
        timings.wall_s.push(t0.elapsed().as_secs_f64());
        timings
            .cpu_s
            .push(host::cpu_seconds().zip(cpu0).map_or(0.0, |(a, b)| a - b));
    }
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    if plan.traced {
        cx.enter(Phase::Probe, 1);
        workload.probes(&mut cx)?;
    }
    let reference_started = Instant::now();
    workload.verify(&mut cx, &outputs)?;
    let reference_ms = reference_started.elapsed().as_secs_f64() * 1e3;

    // Tracing overhead, measured inside the run that pays it: one
    // untraced and one traced iteration back to back, at the very end,
    // so both see the same warm state and nothing reads the heap
    // counters after they were paused.
    let mut overhead_pair = [0.0; 2];
    if plan.traced {
        cx.enter(Phase::Overhead, 1);
        for (slot, traced) in overhead_pair.iter_mut().zip([false, true]) {
            cx.traced = traced;
            crate::alloc::set_enabled(traced);
            let t0 = Instant::now();
            workload.iterate(&mut cx)?;
            *slot = t0.elapsed().as_secs_f64();
        }
    }

    let last = *outputs.last().expect("at least one timed iteration");
    let store = workload.store_facts();
    let wall_s = median(&timings.wall_s);
    let values: BTreeMap<&str, f64> = if plan.traced {
        let mut values = per_layer(&cx, &outputs, store.as_ref(), par.workers());
        values.insert("bench.traced_wall_s", wall_s);
        values.insert("bench.untraced_wall_s", overhead_pair[0]);
        values.insert(
            "bench.tracing_overhead_pct",
            (overhead_pair[1] / overhead_pair[0] - 1.0) * 100.0,
        );
        values.insert("bench.reference_ms", reference_ms);
        values
    } else {
        BTreeMap::from([
            ("wall_s", wall_s),
            ("cpu_s", median(&timings.cpu_s)),
            ("samples_per_s", last.samples as f64 / wall_s),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ])
    };
    let defs: &'static [metrics::MetricDef] = if plan.traced { &PER_LAYER } else { &END_TO_END };
    let report = Report {
        plan: plan.clone(),
        seed,
        scale,
        host: host::stamp(tmp),
        correct: cx.failed == 0,
        attempted: cx.attempted,
        failed: cx.failed,
        failures: cx.failures.clone(),
        digest: last.digest,
        samples: last.samples,
        timings,
        store,
        metrics: defs
            .iter()
            .map(|def| (def, values.get(def.name).copied().unwrap_or(0.0)))
            .collect(),
    };
    if plan.traced {
        let path = out_dir().join(format!("trace-{}.json", plan.workload));
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(plan.workload.clone())),
            ("seed".into(), Json::Num(seed as f64)),
            ("spans".into(), trace::spans_to_json(&cx.spans)),
        ]);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// per-layer metrics from the recorded spans

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn counter(delta: &Snapshot, name: &str) -> f64 {
    delta.counter(name).unwrap_or(0) as f64
}

fn histogram_sum(delta: &Snapshot, name: &str) -> f64 {
    delta.histogram(name).map_or(0, |h| h.sum) as f64
}

/// A value computed so far, 0 if the workload never produced it.
fn get(values: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

/// Spans of one phase, by name.
fn phase_total_ns(spans: &[SpanRec], phase: Phase, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.phase == phase && s.name == name)
        .map(SpanRec::duration_ns)
        .sum()
}

/// Metrics of one timed iteration: `root` is its `bench.iteration`
/// span, `spans` everything recorded under it.
fn iteration_metrics(
    root: &SpanRec,
    spans: &[&SpanRec],
    out: &Outcome,
    store: Option<&StoreFacts>,
    workers: usize,
) -> BTreeMap<&'static str, f64> {
    let d = &root.delta;
    let total_ns = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum()
    };
    let mut m = BTreeMap::new();

    // tracegen
    let generated = total_ns("tracegen.generate") + total_ns("tracegen.generate_to_store");
    m.insert("tracegen.generate_ms", ms(total_ns("tracegen.generate")));
    m.insert(
        "tracegen.generate_to_store_ms",
        ms(total_ns("tracegen.generate_to_store")),
    );
    if generated > 0 {
        // Gauges keep their last value, so read them only in an
        // iteration that generated.
        for (metric, gauge) in [
            (
                "tracegen.placement_ms",
                "tracegen.generate.phase_placement_ns",
            ),
            (
                "tracegen.telemetry_ms",
                "tracegen.generate.phase_telemetry_ns",
            ),
        ] {
            m.insert(metric, d.gauge(gauge).unwrap_or(0.0) / 1e6);
        }
    }
    m.insert(
        "tracegen.vms",
        counter(d, "tracegen.generate.vms_generated"),
    );
    m.insert(
        "tracegen.samples",
        counter(d, "tracegen.generate.samples_generated"),
    );

    // store, read side
    m.insert("store.open_ms", ms(total_ns("store.open")));
    let decodes = telemetry_decodes(d) as f64;
    let hits = counter(d, "store.cache.hits");
    let misses = counter(d, "store.cache.misses");
    m.insert("store.chunk_decodes", decodes);
    m.insert("store.cache_hit_ratio", ratio(hits, hits + misses));
    m.insert("store.evictions", counter(d, "store.cache.evictions"));
    m.insert(
        "store.prefetch_hit_ratio",
        ratio(
            counter(d, "store.prefetch.hits"),
            counter(d, "store.prefetch.issued"),
        ),
    );
    m.insert(
        "store.decode_amplification",
        ratio(decodes, store.map_or(0.0, |s| s.telemetry_chunks as f64)),
    );

    // analysis
    let mut analysis_ns = 0;
    for (metric, span) in [
        ("analysis.fig1_ms", "analysis.fig1"),
        ("analysis.fig2_ms", "analysis.fig2"),
        ("analysis.fig3_ms", "analysis.fig3"),
        ("analysis.fig4_ms", "analysis.fig4"),
        ("analysis.fig5_ms", "analysis.fig5"),
        ("analysis.fig6_ms", "analysis.fig6"),
        ("analysis.fig7a_ms", "analysis.fig7a"),
        ("analysis.fig7b_ms", "analysis.fig7b"),
        ("analysis.fig7c_ms", "analysis.fig7c"),
    ] {
        analysis_ns += total_ns(span);
        m.insert(metric, ms(total_ns(span)));
    }
    m.insert("analysis.total_ms", ms(analysis_ns));
    let classified_in = |delta: &Snapshot| {
        counter(delta, "analysis.classify.dense_dispatch")
            + counter(delta, "analysis.classify.masked_dispatch")
    };
    let fig5_vms: f64 = spans
        .iter()
        .filter(|s| s.name == "analysis.fig5")
        .map(|s| {
            classified_in(&s.delta) + counter(&s.delta, "analysis.classify.coverage_rejections")
        })
        .sum();
    m.insert(
        "analysis.fig5_ns_per_vm",
        ratio(total_ns("analysis.fig5") as f64, fig5_vms),
    );
    let loaded = counter(d, "store.read.series_loaded");
    m.insert("analysis.series_loaded", loaded);
    m.insert("analysis.vms_classified", classified_in(d));
    m.insert(
        "analysis.coverage_rejections",
        counter(d, "analysis.classify.coverage_rejections")
            + counter(d, "analysis.coverage.gate_rejections"),
    );
    m.insert(
        "analysis.useful_load_ratio",
        ratio(classified_in(d), loaded),
    );
    let plan_hits = counter(d, "timeseries.fft.plan_cache_hits");
    m.insert(
        "timeseries.fft_plan_hit_ratio",
        ratio(
            plan_hits,
            plan_hits + counter(d, "timeseries.fft.plan_cache_misses"),
        ),
    );
    m.insert(
        "stats.percentile_selections",
        counter(d, "stats.percentile.selections"),
    );

    // kb
    m.insert("kb.extract_ms", ms(total_ns("kb.extract")));
    m.insert("kb.entries", out.kb_entries as f64);
    m.insert("kb.feed_batches", counter(d, "kb.store.feed_batches"));
    m.insert("kb.pipeline_retries", counter(d, "kb.pipeline.retries"));
    m.insert("kb.pipeline_failed", counter(d, "kb.pipeline.failed"));
    m.insert("kb.query_us", total_ns("kb.query") as f64 / 1e3);
    m.insert("kb.wal_appends", counter(d, "kb.persist.wal_appends"));
    m.insert("kb.wal_bytes", counter(d, "kb.persist.wal_bytes"));
    m.insert("kb.snapshot_ms", ms(total_ns("kb.snapshot")));
    m.insert("kb.recovery_ms", ms(total_ns("kb.recovery")));
    if total_ns("kb.recovery") > 0 {
        m.insert("kb.recovered_entries", out.kb_entries as f64);
    }

    // mgmt and the shape checks
    m.insert("mgmt.policy_engine_ms", ms(total_ns("mgmt.policy_engine")));
    m.insert("mgmt.recommendations", out.recommendations as f64);
    m.insert("mgmt.pilot_ms", ms(total_ns("mgmt.pilot")));
    m.insert("mgmt.oversub_ms", ms(total_ns("mgmt.oversub")));
    m.insert("repro.shape_checks_held", out.shape_checks_held as f64);

    // ingest, sim, faults
    m.insert("ingest.drive_clean_ms", ms(total_ns("ingest.drive_clean")));
    m.insert(
        "ingest.drive_faulted_ms",
        ms(total_ns("ingest.drive_faulted")),
    );
    m.insert(
        "ingest.close_ms",
        histogram_sum(d, "ingest.close.duration_ns") / 1e6,
    );
    m.insert(
        "ingest.publish_ms",
        histogram_sum(d, "ingest.publish.duration_ns") / 1e6,
    );
    for (metric, name) in [
        ("ingest.samples_offered", "ingest.samples_offered"),
        ("ingest.samples_applied", "ingest.samples_applied"),
        ("ingest.dropped_late", "ingest.dropped_late"),
        ("ingest.rejected_invalid", "ingest.rejected_invalid"),
        ("ingest.classifications", "ingest.classifications"),
        ("sim.events_processed", "sim.engine.events_processed"),
        ("faults.samples_in", "faults.corrupt.samples_in"),
        // What the injector put on the wire is what the ingestor was
        // offered (the library's own `samples_out` tally is batch-only).
        ("faults.samples_out", "ingest.samples_offered"),
        ("par.tasks_executed", "par.executor.tasks_executed"),
    ] {
        m.insert(metric, counter(d, name));
    }
    if total_ns("ingest.drive_clean") > 0 {
        m.insert(
            "ingest.peak_pending_samples",
            d.gauge("ingest.backpressure.peak_pending_samples")
                .unwrap_or(0.0),
        );
    }

    // par: how much of the pool's capacity the iteration kept busy. A
    // wall-time gain with this already near 1 must come from less work.
    m.insert(
        "par.busy_share",
        ratio(
            histogram_sum(d, "par.executor.worker_busy_ns"),
            workers as f64 * root.duration_ns() as f64,
        ),
    );
    m
}

/// Per-layer metric values of a traced run, by name.
fn per_layer(
    cx: &Ctx,
    outputs: &[Outcome],
    store: Option<&StoreFacts>,
    workers: usize,
) -> BTreeMap<&'static str, f64> {
    let spans = &cx.spans;
    let self_ns = trace::self_times_ns(spans);

    // Median over the timed iterations, metric by metric.
    let mut per_iteration: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut attributed = Vec::new();
    let mut iteration_heap = 0u64;
    for (index, root) in spans.iter().enumerate() {
        if root.phase != Phase::Timed || root.name != "bench.iteration" {
            continue;
        }
        let under: Vec<&SpanRec> = spans
            .iter()
            .filter(|s| s.phase == Phase::Timed && s.iter == root.iter && s.parent.is_some())
            .collect();
        let out = &outputs[root.iter as usize - 1];
        for (name, value) in iteration_metrics(root, &under, out, store, workers) {
            per_iteration.entry(name).or_default().push(value);
        }
        attributed.push(1.0 - ratio(self_ns[index] as f64, root.duration_ns() as f64));
        iteration_heap = iteration_heap.max(root.peak_heap);
    }
    let mut values: BTreeMap<&'static str, f64> = per_iteration
        .into_iter()
        .map(|(name, samples)| (name, median(&samples)))
        .collect();
    values.insert("bench.attributed_share", median(&attributed));
    values.insert("bench.iteration_peak_heap_mb", mb(iteration_heap));

    // Peak live heap per layer: the largest over that layer's spans.
    for (metric, layer) in [
        ("tracegen.peak_heap_mb", "tracegen"),
        ("store.peak_heap_mb", "store"),
        ("analysis.peak_heap_mb", "analysis"),
        ("ingest.peak_heap_mb", "ingest"),
    ] {
        let peak = spans
            .iter()
            .filter(|s| matches!(s.phase, Phase::Timed | Phase::Probe) && layer_of(s.name) == layer)
            .map(|s| s.peak_heap)
            .max()
            .unwrap_or(0);
        values.insert(metric, mb(peak));
    }

    // The store as written: counters from the span that wrote it (in
    // set-up on `ooc_spill`, in the last timed iteration on `ooc_fits`).
    if let Some(facts) = store {
        values.insert("store.bytes_on_disk", facts.bytes_on_disk as f64);
        values.insert(
            "store.bytes_per_sample",
            ratio(facts.bytes_on_disk as f64, facts.samples as f64),
        );
        if let Some(write) = spans.iter().rev().find(|s| {
            s.name == "tracegen.generate_to_store" && matches!(s.phase, Phase::Setup | Phase::Timed)
        }) {
            let d = &write.delta;
            values.insert("store.write_chunks", counter(d, "store.write.chunks"));
            values.insert("store.bytes_raw", counter(d, "store.write.bytes_raw"));
            values.insert(
                "store.compression_ratio",
                ratio(
                    counter(d, "store.write.bytes_raw"),
                    counter(d, "store.write.bytes_compressed"),
                ),
            );
            values.insert(
                "store.manifest_commits",
                counter(d, "store.write.manifest_commits"),
            );
        }
    }

    // Probes.
    values.insert(
        "store.sweep_ms",
        ms(phase_total_ns(spans, Phase::Probe, "store.sweep")),
    );
    values.insert(
        "store.metadata_only_ms",
        ms(phase_total_ns(spans, Phase::Probe, "store.metadata_only")),
    );
    // The replay offers what the clean drive offers: every sample once.
    let replay_ns = phase_total_ns(spans, Phase::Probe, "ingest.offer_replay");
    let clean_offered = spans
        .iter()
        .rev()
        .find(|s| s.name == "ingest.drive_clean" && s.phase == Phase::Timed)
        .map_or(0.0, |s| counter(&s.delta, "ingest.samples_offered"));
    let offer_ns = ratio(replay_ns as f64, clean_offered);
    values.insert("ingest.offer_ns_per_sample", offer_ns);
    // Derived: what is left of the two drives after window closes,
    // publication and (at the replay's unit cost) the offers, per event.
    let drive_ms = get(&values, "ingest.drive_clean_ms") + get(&values, "ingest.drive_faulted_ms");
    let inside_ms = get(&values, "ingest.close_ms")
        + get(&values, "ingest.publish_ms")
        + offer_ns * get(&values, "ingest.samples_offered") / 1e6;
    values.insert(
        "sim.ns_per_event",
        ratio(
            (drive_ms - inside_ms).max(0.0) * 1e6,
            get(&values, "sim.events_processed"),
        ),
    );

    // Derived from the resident reference (same seed, same calls, run
    // after the timed section): a span's self time is what the call
    // costs with telemetry resident; the rest of the span is the store
    // working underneath it. Without a reference (`batch_resident`,
    // `stream_ingest`) the span is all self time.
    let has_reference = spans
        .iter()
        .any(|s| s.phase == Phase::Reference && s.name == "bench.iteration");
    for (metric, span, timed_metric) in [
        ("analysis.fig5_self_ms", "analysis.fig5", "analysis.fig5_ms"),
        ("analysis.fig6_self_ms", "analysis.fig6", "analysis.fig6_ms"),
        (
            "analysis.fig7a_self_ms",
            "analysis.fig7a",
            "analysis.fig7a_ms",
        ),
        (
            "analysis.fig7b_self_ms",
            "analysis.fig7b",
            "analysis.fig7b_ms",
        ),
        ("kb.extract_self_ms", "kb.extract", "kb.extract_ms"),
    ] {
        let value = if has_reference {
            ms(phase_total_ns(spans, Phase::Reference, span))
        } else {
            get(&values, timed_metric)
        };
        values.insert(metric, value);
    }
    if has_reference && get(&values, "tracegen.generate_to_store_ms") > 0.0 {
        let resident = ms(phase_total_ns(spans, Phase::Reference, "tracegen.generate"));
        values.insert(
            "store.write_share_ms",
            get(&values, "tracegen.generate_to_store_ms") - resident,
        );
    }
    values
}

// ---------------------------------------------------------------------
// output

impl Report {
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(def, value)| {
                    (
                        def.name.to_owned(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*value)),
                            ("unit".into(), Json::Str(def.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line JSON object a run prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ])
        .render()
    }

    /// The full record: the result line's content plus the host stamp,
    /// the input sizes, the digest and the per-iteration timings.
    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let wall = &self.timings.wall_s;
        let fold = |f: fn(f64, f64) -> f64| wall.iter().copied().reduce(f).unwrap_or(0.0);
        let claim = claimable_percentile(wall.len());
        let mut input = vec![
            ("scale".to_owned(), Json::Str(self.scale.label().into())),
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            (
                "samples_per_iteration".to_owned(),
                Json::Num(self.samples as f64),
            ),
        ];
        if let Some(store) = &self.store {
            input.push((
                "store".to_owned(),
                Json::Obj(vec![
                    (
                        "target_chunk_bytes".into(),
                        Json::Num(store.target_chunk_bytes as f64),
                    ),
                    (
                        "telemetry_chunks".into(),
                        Json::Num(store.telemetry_chunks as f64),
                    ),
                    ("files".into(), Json::Num(store.files as f64)),
                    (
                        "bytes_on_disk".into(),
                        Json::Num(store.bytes_on_disk as f64),
                    ),
                ]),
            ));
        }
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.plan.workload.clone())),
            ("traced".into(), Json::Bool(self.plan.traced)),
            ("smoke".into(), Json::Bool(self.plan.smoke)),
            ("run_seconds".into(), Json::Num(self.plan.seconds)),
            ("input".into(), Json::Obj(input)),
            ("host".into(), self.host.clone()),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "result_digest".into(),
                Json::Str(format!("{:016x}", self.digest)),
            ),
            (
                "iterations".into(),
                Json::Obj(vec![
                    ("n".into(), Json::Num(wall.len() as f64)),
                    ("wall_s".into(), nums(wall)),
                    ("cpu_s".into(), nums(&self.timings.cpu_s)),
                    ("wall_s_median".into(), Json::Num(median(wall))),
                    ("wall_s_min".into(), Json::Num(fold(f64::min))),
                    ("wall_s_max".into(), Json::Num(fold(f64::max))),
                    (
                        // Claimed only with ten samples beyond it.
                        "wall_s_percentile".into(),
                        claim.map_or(Json::Null, |p| {
                            Json::Obj(vec![
                                ("p".into(), Json::Num(p)),
                                ("value".into(), Json::Num(percentile(wall, p))),
                            ])
                        }),
                    ),
                ]),
            ),
            ("metrics".into(), self.metrics_json()),
        ])
    }

    /// Human-readable listing: every metric by name, with its unit.
    pub fn print_table(&self) {
        println!(
            "## {} seed {} ({}{}): {} operations, {} failed, digest {:016x}, {} iterations",
            self.plan.workload,
            self.seed,
            self.scale.label(),
            if self.plan.traced { ", traced" } else { "" },
            self.attempted,
            self.failed,
            self.digest,
            self.timings.wall_s.len(),
        );
        for (def, value) in &self.metrics {
            println!("{:<34} {:>16.4} {}", def.name, value, def.unit);
        }
        for line in &self.failures {
            println!("FAILED {line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    const CHARACTERIZE: [&str; 14] = [
        "bench.iteration",
        "analysis.fig1",
        "analysis.fig2",
        "analysis.fig3",
        "analysis.fig4",
        "analysis.fig5",
        "analysis.fig6",
        "analysis.fig7a",
        "analysis.fig7b",
        "mgmt.pilot",
        "mgmt.oversub",
        "kb.extract",
        "mgmt.policy_engine",
        "kb.query",
    ];
    const STORE: [&str; 4] = [
        "tracegen.generate_to_store",
        "store.open",
        "store.sweep",
        "store.metadata_only",
    ];
    const INGEST: [&str; 10] = [
        "bench.iteration",
        "tracegen.generate",
        "kb.open",
        "ingest.drive_clean",
        "ingest.drive_faulted",
        "analysis.fig5",
        "kb.snapshot",
        "kb.recovery",
        "kb.check_consistency",
        "ingest.offer_replay",
    ];

    fn smoke(workload: &str, traced: bool) -> Report {
        let plan = Plan {
            workload: workload.into(),
            seed: None,
            seconds: 0.0,
            traced,
            smoke: true,
        };
        let report = run(&plan).expect("the smoke run completes");
        assert!(report.correct, "{workload}: {:?}", report.failures);
        assert!(report.attempted > 0 && report.failed == 0);
        report
    }

    fn traced_span_names(workload: &str) -> BTreeSet<String> {
        let path = out_dir().join(format!("trace-{workload}.json"));
        let doc = json::parse(&std::fs::read_to_string(path).expect("trace file")).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans.iter().all(|s| {
            let f = |k| s.get(k).and_then(Json::as_f64).unwrap();
            f("start_ns") <= f("end_ns") && f("self_ns") <= f("end_ns") - f("start_ns")
        }));
        spans
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    /// `--smoke`: every workload on `GeneratorConfig::small`, untraced
    /// and traced, exercising every span and every check. One test, so
    /// the runs do not fight over the trace files or the heap counters.
    #[test]
    fn smoke_exercises_every_workload_span_and_check() {
        for def in &WORKLOADS {
            let untraced = smoke(def.name, false);
            let names: Vec<_> = untraced.metrics.iter().map(|(d, _)| d.name).collect();
            assert_eq!(names, END_TO_END.map(|d| d.name));
            for (metric, value) in &untraced.metrics {
                assert!(
                    *value > 0.0,
                    "{}: {} must never be 0",
                    def.name,
                    metric.name
                );
            }

            let traced = smoke(def.name, true);
            assert_eq!(traced.digest, untraced.digest, "{}", def.name);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let value = |name: &str| {
                let found = traced.metrics.iter().find(|(d, _)| d.name == name);
                found
                    .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
                    .1
            };
            assert!(value("bench.attributed_share") > 0.9, "{}", def.name);

            let spans = traced_span_names(def.name);
            let expected: Vec<&str> = match def.name {
                "batch_resident" => [&CHARACTERIZE[..], &["tracegen.generate"]].concat(),
                "ooc_fits" | "ooc_spill" => [&CHARACTERIZE[..], &STORE].concat(),
                _ => INGEST.to_vec(),
            };
            for name in expected {
                assert!(spans.contains(name), "{}: no {name} span", def.name);
            }
            // The designed contrasts.
            let layer_present = |layer| spans.iter().any(|s| layer_of(s) == layer);
            assert_eq!(layer_present("ingest"), def.name == "stream_ingest");
            assert_eq!(layer_present("store"), def.name.starts_with("ooc_"));
            assert_eq!(
                value("store.chunk_decodes") > 0.0,
                def.name.starts_with("ooc_")
            );
            assert_eq!(
                value("ingest.samples_offered") > 0.0,
                def.name == "stream_ingest"
            );
            if def.name != "stream_ingest" {
                assert!(value("repro.shape_checks_held") > 0.0);
                assert!(value("kb.entries") > 0.0 && value("analysis.total_ms") > 0.0);
            }
        }
        // Scratch directories are gone once their runs are.
        let left: Vec<_> = std::fs::read_dir(out_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(&format!("tmp-{}-", std::process::id())))
            .collect();
        assert!(left.is_empty(), "scratch left behind: {left:?}");
    }
}
