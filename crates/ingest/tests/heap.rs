//! Heap regression guard for the streaming drive: apart from the lanes
//! (one byte per week slot per reporting VM), the live heap a drive adds
//! must not grow with the telemetry it streams. A drive that buffers its
//! wire — 16 bytes per sample — fails this at once.
//!
//! Its own test binary, because it installs the counting allocator and
//! reads the process-wide peak: one test, nothing else running.

use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::FaultPlan;
use cloudscope_ingest::{drive_ingest, IngestConfig};
use cloudscope_kb::KnowledgeBase;
use cloudscope_model::time::SAMPLES_PER_WEEK;
use cloudscope_obs::heap::{peak_during, CountingAlloc};
use cloudscope_tracegen::{generate, GeneratorConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn drive_heap_beyond_the_lanes_does_not_grow_with_the_stream() {
    let g = generate(&GeneratorConfig::small(7));
    let plan = FaultPlan::standard(7);
    let (config, classifier) = (IngestConfig::default(), PatternClassifier::default());
    let kb = KnowledgeBase::new();

    let (outcome, added) = peak_during(|| drive_ingest(&g.trace, &plan, &config, &classifier, &kb));

    let report = outcome.session.report();
    let lanes = report.vms * SAMPLES_PER_WEEK;
    let offered = report.samples_offered as usize;
    assert!(
        offered > 100_000,
        "the trace must stream: {offered} samples"
    );
    let beyond_lanes = added.saturating_sub(lanes);
    let per_sample = beyond_lanes as f64 / offered as f64;
    assert!(
        per_sample < 4.0,
        "the drive added {added} B of peak heap: {lanes} B of lanes for {} VMs, \
         then {per_sample:.2} B per offered sample ({offered} offered)",
        report.vms,
    );
}
