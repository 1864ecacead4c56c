//! The benchmark's vocabulary — every metric name, unit, direction and
//! bound, exactly as `BENCHMARK.json` lists them — and the small
//! statistics the reports use.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition. `bound` is set for end-to-end metrics only:
/// the share of the baseline median by which the metric may get worse
/// before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the pipeline sees, measured with tracing off.
///
/// The bounds are what this class of host can resolve: on fixed inputs
/// its speed drifts by up to 40 % for minutes at a time (CPU seconds
/// rise with wall seconds; steal stays near zero), and ten runs spread
/// by 8–20 % of their median. A tighter bound would reject the
/// benchmark against itself.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("samples_per_s", "samples/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run. A metric whose layer a
/// workload bypasses reads 0 there — the designed contrast.
pub const PER_LAYER: [MetricDef; 86] = [
    // tracegen
    layer("tracegen.generate_ms", "ms", Lower),
    layer("tracegen.placement_ms", "ms", Lower),
    layer("tracegen.telemetry_ms", "ms", Lower),
    layer("tracegen.vms", "count", Higher),
    layer("tracegen.samples", "count", Higher),
    layer("tracegen.peak_heap_mb", "MB", Lower),
    layer("tracegen.generate_to_store_ms", "ms", Lower),
    // store, write side
    layer("store.write_share_ms", "ms", Lower),
    layer("store.write_chunks", "count", Lower),
    layer("store.bytes_raw", "B", Lower),
    layer("store.bytes_on_disk", "B", Lower),
    layer("store.bytes_per_sample", "B", Lower),
    layer("store.compression_ratio", "ratio", Higher),
    layer("store.manifest_commits", "count", Lower),
    // store, read side
    layer("store.open_ms", "ms", Lower),
    layer("store.sweep_ms", "ms", Lower),
    layer("store.metadata_only_ms", "ms", Lower),
    layer("store.chunk_decodes", "count", Lower),
    layer("store.cache_hit_ratio", "ratio", Higher),
    layer("store.evictions", "count", Lower),
    layer("store.prefetch_hit_ratio", "ratio", Higher),
    layer("store.decode_amplification", "ratio", Lower),
    layer("store.peak_heap_mb", "MB", Lower),
    // analysis
    layer("analysis.fig1_ms", "ms", Lower),
    layer("analysis.fig2_ms", "ms", Lower),
    layer("analysis.fig3_ms", "ms", Lower),
    layer("analysis.fig4_ms", "ms", Lower),
    layer("analysis.fig5_ms", "ms", Lower),
    layer("analysis.fig6_ms", "ms", Lower),
    layer("analysis.fig7a_ms", "ms", Lower),
    layer("analysis.fig7b_ms", "ms", Lower),
    layer("analysis.fig7c_ms", "ms", Lower),
    layer("analysis.total_ms", "ms", Lower),
    layer("analysis.fig5_self_ms", "ms", Lower),
    layer("analysis.fig6_self_ms", "ms", Lower),
    layer("analysis.fig7a_self_ms", "ms", Lower),
    layer("analysis.fig7b_self_ms", "ms", Lower),
    layer("analysis.fig5_ns_per_vm", "ns", Lower),
    layer("analysis.series_loaded", "count", Lower),
    layer("analysis.vms_classified", "count", Higher),
    layer("analysis.coverage_rejections", "count", Lower),
    layer("analysis.useful_load_ratio", "ratio", Higher),
    layer("analysis.peak_heap_mb", "MB", Lower),
    layer("timeseries.fft_plan_hit_ratio", "ratio", Higher),
    layer("stats.percentile_selections", "count", Lower),
    // kb
    layer("kb.extract_ms", "ms", Lower),
    layer("kb.extract_self_ms", "ms", Lower),
    layer("kb.entries", "count", Higher),
    layer("kb.feed_batches", "count", Lower),
    layer("kb.pipeline_retries", "count", Lower),
    layer("kb.pipeline_failed", "count", Lower),
    layer("kb.query_us", "us", Lower),
    layer("kb.wal_appends", "count", Lower),
    layer("kb.wal_bytes", "B", Lower),
    layer("kb.snapshot_ms", "ms", Lower),
    layer("kb.recovery_ms", "ms", Lower),
    layer("kb.recovered_entries", "count", Higher),
    // mgmt and the shape checks
    layer("mgmt.policy_engine_ms", "ms", Lower),
    layer("mgmt.recommendations", "count", Higher),
    layer("mgmt.pilot_ms", "ms", Lower),
    layer("mgmt.oversub_ms", "ms", Lower),
    layer("repro.shape_checks_held", "count", Higher),
    // ingest, sim, faults
    layer("ingest.drive_clean_ms", "ms", Lower),
    layer("ingest.drive_faulted_ms", "ms", Lower),
    layer("ingest.close_ms", "ms", Lower),
    layer("ingest.publish_ms", "ms", Lower),
    layer("ingest.offer_ns_per_sample", "ns", Lower),
    layer("ingest.samples_offered", "count", Higher),
    layer("ingest.samples_applied", "count", Higher),
    layer("ingest.dropped_late", "count", Lower),
    layer("ingest.rejected_invalid", "count", Lower),
    layer("ingest.classifications", "count", Lower),
    layer("ingest.peak_pending_samples", "count", Lower),
    layer("ingest.peak_heap_mb", "MB", Lower),
    layer("sim.events_processed", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("faults.samples_in", "count", Higher),
    layer("faults.samples_out", "count", Higher),
    // par
    layer("par.tasks_executed", "count", Lower),
    layer("par.busy_share", "ratio", Higher),
    // the harness itself
    layer("bench.traced_wall_s", "s", Lower),
    layer("bench.untraced_wall_s", "s", Lower),
    layer("bench.tracing_overhead_pct", "%", Lower),
    layer("bench.attributed_share", "ratio", Higher),
    layer("bench.iteration_peak_heap_mb", "MB", Lower),
    layer("bench.reference_ms", "ms", Lower),
];

/// `BENCHMARK.json`, generated from the tables above so the file and
/// the program cannot disagree.
pub fn manifest() -> Json {
    let str_list =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name".to_owned(), Json::Str(m.name.into())),
            ("unit".to_owned(), Json::Str(m.unit.into())),
            ("better".to_owned(), Json::Str(m.better.label().into())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound".to_owned(), Json::Num(bound)));
        }
        Json::Obj(pairs)
    };
    Json::Obj(vec![
        (
            "command".into(),
            str_list(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths".into(), str_list(&["benchmark"])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.into())),
                            ("why".into(), Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method); `None` below two values, where they are undefined.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some([1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

/// The highest percentile a sample of `n` timings may claim: the
/// largest of p90 / p95 / p99 / p99.9 with at least ten samples beyond
/// it. Below 100 samples that is none of them — the report then gives
/// n, median, min and max only.
pub fn claimable_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// The value at percentile `p` (nearest rank) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = WORKLOADS.iter().map(|w| w.name);
        let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in workloads.chain(metrics) {
            assert!(
                valid_name(name),
                "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_matches_the_tables_exactly() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        assert!(
            json::parse(&text).expect("valid JSON") == manifest(),
            "BENCHMARK.json is stale: regenerate it with `cloudscope-e2e manifest`"
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.4, 3.1, 3.9], n=4)
        let q = quartiles(&[3.4, 3.1, 3.9]).unwrap();
        assert!((q[0] - 3.1).abs() < 1e-12 && (q[1] - 3.4).abs() < 1e-12);
        assert!((q[2] - 3.9).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        for n in [1, 5, 10, 11, 99] {
            assert_eq!(claimable_percentile(n), None, "n = {n}");
        }
        assert_eq!(claimable_percentile(100), Some(90.0));
        assert_eq!(claimable_percentile(199), Some(90.0));
        assert_eq!(claimable_percentile(200), Some(95.0));
        assert_eq!(claimable_percentile(1000), Some(99.0));
        assert_eq!(claimable_percentile(10_000), Some(99.9));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
    }
}
