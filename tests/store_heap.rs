//! The out-of-core memory claim: a full characterization pass that
//! streams its telemetry from a committed store peaks well below the
//! same pass over the fully materialized trace. If chunking, the lane
//! cursors or a gathered batch ever regress into materializing the
//! column store, this fails before any figure output changes.
//!
//! Its own test binary, because it installs the counting allocator and
//! reads the process-wide peak: one test, nothing else running.

use cloudscope::obs::heap::{peak_during, CountingAlloc};
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::store::{TelemetryMode, WriteOptions};
use cloudscope::tracegen::{read_generated, write_generated};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn out_of_core_analysis_peaks_below_three_quarters_of_resident() {
    let dir = std::env::temp_dir().join(format!("cloudscope-store-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let par = Parallelism::default();
    // Chunks sealed at 128 KiB rather than the 1 MiB default, so the
    // medium trace's (region, day) lanes hold several chunks each, as a
    // full-scale trace's do under defaults. With one-chunk lanes the
    // reader's one decoded chunk per lane would be the whole store.
    let options = WriteOptions {
        target_chunk_bytes: 128 << 10,
        ..WriteOptions::default()
    };
    write_generated(
        &generate(&GeneratorConfig::medium(4242)),
        &dir,
        options,
        &par,
    )
    .expect("store writes");

    let analyze = |mode: TelemetryMode| {
        let back = read_generated(&dir, mode, &par).expect("store reads");
        let report = CharacterizationReport::analyze(&back.trace, &ReportConfig::default())
            .expect("analysis");
        black_box(cloudscope_repro::ledger::insights(&report).len())
    };
    let (_, resident) = peak_during(|| analyze(TelemetryMode::Resident));
    let (_, out_of_core) = peak_during(|| analyze(TelemetryMode::OutOfCore { cache_chunks: 0 }));
    let _ = std::fs::remove_dir_all(&dir);

    let budget = resident * 3 / 4;
    assert!(
        out_of_core < budget,
        "out-of-core analysis peaked at {out_of_core} B, over the {budget} B budget \
         (resident peak {resident} B)"
    );
}
