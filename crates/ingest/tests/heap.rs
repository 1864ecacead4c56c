//! Heap regression guard for the streaming drive: apart from the lanes
//! (one byte per week slot per reporting VM), the live heap a drive adds
//! must not grow with the telemetry it streams. A drive that buffers its
//! wire — 16 bytes per sample — fails this at once.
//!
//! Its own test binary, because it swaps in a counting allocator and
//! reads the process-wide peak: one test, nothing else running.

use cloudscope_analysis::PatternClassifier;
use cloudscope_faults::FaultPlan;
use cloudscope_ingest::{drive_ingest, IngestConfig};
use cloudscope_kb::KnowledgeBase;
use cloudscope_model::time::SAMPLES_PER_WEEK;
use cloudscope_tracegen::{generate, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and their peak since the last [`reset_peak`].
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Starts a new peak window at the current live heap, and returns it.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

#[test]
fn drive_heap_beyond_the_lanes_does_not_grow_with_the_stream() {
    let g = generate(&GeneratorConfig::small(7));
    let plan = FaultPlan::standard(7);
    let (config, classifier) = (IngestConfig::default(), PatternClassifier::default());
    let kb = KnowledgeBase::new();

    let before = reset_peak();
    let outcome = drive_ingest(&g.trace, &plan, &config, &classifier, &kb);
    let added = PEAK.load(Ordering::Relaxed) - before;

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
