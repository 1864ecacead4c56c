//! Metadata reads through the trace store: a metadata sweep touches no
//! telemetry chunk and reproduces the trace-backed analyses exactly.

use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::analysis::spatial::SpatialAnalysis;
use cloudscope::analysis::temporal::TemporalAnalysis;
use cloudscope::analysis::vmsize::VmSizeAnalysis;
use cloudscope::model::ids::RegionId;
use cloudscope::obs::testing::snapshot_diff;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::store::{write_trace, ScanFilter, TelemetryMode, TraceReader, WriteOptions};
use std::path::PathBuf;
use std::sync::Arc;

/// A unique temp store directory, removed on drop.
struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("cloudscope-pushdown-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn chunks_read(diff: &cloudscope::obs::Snapshot) -> u64 {
    diff.counter("store.read.chunks").unwrap_or(0)
}

#[test]
fn metadata_sweep_reproduces_the_trace_backed_fig1_and_fig3() {
    let g = generate(&GeneratorConfig::small(11));
    let dir = TempStore::new("sweep");
    let par = Parallelism::auto();
    write_trace(&g.trace, &dir.path, WriteOptions::default(), &par).expect("write store");
    let reader = TraceReader::open(&dir.path).expect("open store");
    let subscriptions = reader.read_subscriptions().expect("subscriptions blob");
    assert_eq!(subscriptions, g.trace.subscriptions());

    // Full metadata sweep: every record, in id order.
    let all = reader
        .read_vm_records(ScanFilter::all(), &par)
        .expect("full sweep");
    assert_eq!(all, g.trace.vms());

    // Figure 1 at a day-2 snapshot from the records equals the
    // trace-backed run exactly.
    let snapshot = SimTime::from_minutes(2 * 24 * 60 + 14 * 60);
    let pushed = DeploymentSizeAnalysis::run_from_records(&all, &subscriptions, snapshot)
        .expect("records fig1");
    let full = DeploymentSizeAnalysis::run(&g.trace, snapshot).expect("trace fig1");
    assert_eq!(pushed, full);

    // Figure 3 from records: global curves from the sweep, the
    // region's 3(b)/(c) series from its records.
    let region = RegionId::new(0);
    let region_records: Vec<_> = all
        .iter()
        .filter(|vm| vm.region == region)
        .cloned()
        .collect();
    assert!(!region_records.is_empty());
    let pushed = TemporalAnalysis::run_from_records(&all, &region_records, &subscriptions, region)
        .expect("records fig3");
    let full = TemporalAnalysis::run(&g.trace, region).expect("trace fig3");
    assert_eq!(pushed, full);
}

#[test]
fn metadata_only_figures_skip_every_telemetry_chunk() {
    let g = generate(&GeneratorConfig::small(13));
    let dir = TempStore::new("metaonly");
    let par = Parallelism::auto();
    write_trace(&g.trace, &dir.path, WriteOptions::default(), &par).expect("write store");
    let reader = TraceReader::open(&dir.path).expect("open store");
    let subscriptions = reader.read_subscriptions().expect("subscriptions blob");

    let registry = Arc::new(cloudscope::obs::Registry::new());

    // Baseline: materializing the whole trace decodes metadata AND
    // telemetry chunks.
    let (trace, full_diff) = snapshot_diff(&registry, || {
        reader
            .read_trace(TelemetryMode::Resident, &par)
            .expect("full trace")
    });
    let full_chunks = chunks_read(&full_diff);

    // The fig2/fig4 pushdown path: a metadata-only sweep.
    let (records, meta_diff) = snapshot_diff(&registry, || {
        reader
            .read_vm_records(ScanFilter::all(), &par)
            .expect("metadata sweep")
    });
    let meta_chunks = chunks_read(&meta_diff);
    assert!(
        meta_chunks < full_chunks,
        "metadata sweep read {meta_chunks} of {full_chunks} chunks"
    );
    assert_eq!(records, g.trace.vms());

    // Both metadata-only figures reproduce the trace-backed runs
    // exactly from the pushed-down slice.
    let pushed = VmSizeAnalysis::run_from_records(&records, &subscriptions).expect("records fig2");
    let full = VmSizeAnalysis::run(&trace).expect("trace fig2");
    assert_eq!(pushed, full);

    let pushed = SpatialAnalysis::run_from_records(&records, &subscriptions).expect("records fig4");
    let full = SpatialAnalysis::run(&trace).expect("trace fig4");
    assert_eq!(pushed, full);
}
