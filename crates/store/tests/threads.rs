//! Thread hygiene of a scan, in a test binary of its own: with one test
//! there is no sibling test thread to come and go, so the process's
//! thread count is this test's to read.
#![cfg(target_os = "linux")]

mod common;

use cloudscope_model::ids::VmId;
use cloudscope_par::Parallelism;
use common::{write_many_chunk_store, TempDir};
use std::time::{Duration, Instant};

fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// The kernel takes an exited thread off the process's count a moment
/// *after* it releases whoever joined it, so a count still above
/// `expected` is re-read for a short while before it is believed. A
/// thread left parked on a channel, or kept for the next scan, does not
/// go away however long one waits.
fn assert_threads(expected: usize, when: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads_now() != expected && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads_now(), expected, "thread count {when}");
}

/// No thread a scan starts is alive once `try_scan` has returned:
/// after a clean scan, after one cut short by a typed error, and after
/// one cut short by a panic in the visitor.
#[test]
fn a_scan_leaves_no_thread_behind() {
    let dir = TempDir::new("threads");
    let trace = write_many_chunk_store(dir.path());
    let ids: Vec<VmId> = trace.vms().iter().map(|vm| vm.id).collect();

    let registry = std::sync::Arc::new(cloudscope_obs::Registry::new());
    cloudscope_obs::scoped(&registry, || {
        let telemetry = common::open_telemetry(dir.path(), Parallelism::with_workers(4));
        let before = threads_now();
        let mut delivered = 0;
        telemetry
            .try_scan(&ids, &mut |_, _| delivered += 1)
            .expect("clean store scans");
        assert_threads(before, "after a clean scan");
        assert!(delivered > 0);

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            telemetry.try_scan(&ids, &mut |id, _| {
                assert!(id < ids[ids.len() / 3], "visitor gives up");
            })
        }));
        assert!(panicked.is_err(), "the visitor's panic was swallowed");
        assert_threads(before, "after a scan whose visitor panicked");

        // Every telemetry file damaged: whichever chunk the next scan
        // needs first fails it, with decoders already running ahead.
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("telemetry-") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x20;
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        telemetry
            .try_scan(&ids, &mut |_, _| {})
            .expect_err("damaged chunks scanned cleanly");
        assert_threads(before, "after a scan that failed");
    });
    let issued = registry.snapshot().counter("store.prefetch.issued");
    assert!(
        issued.unwrap_or(0) > 0,
        "no scan ever started a decoder thread: nothing was tested"
    );
}
