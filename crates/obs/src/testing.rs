//! Assertion helpers for metrics-driven tests.

use crate::registry::Registry;
use crate::snapshot::Snapshot;
use std::sync::Arc;

/// Asserts that `snapshot` holds a counter `name` whose value is
/// exactly `expected`.
///
/// # Panics
/// Panics with the metric name, expected, and actual value on mismatch,
/// and lists the available names when the counter is absent.
pub fn assert_counter_eq(snapshot: &Snapshot, name: &str, expected: u64) {
    match snapshot.counter(name) {
        Some(actual) => assert_eq!(
            actual, expected,
            "counter {name}: expected {expected}, got {actual}"
        ),
        None => panic!(
            "counter {name} not in snapshot; present: {:?}",
            snapshot.metrics.keys().collect::<Vec<_>>()
        ),
    }
}

/// Runs `work` with `registry` installed as the current scoped registry
/// and returns the closure's result alongside a snapshot of exactly
/// what it recorded (after minus before).
pub fn snapshot_diff<R>(registry: &Arc<Registry>, work: impl FnOnce() -> R) -> (R, Snapshot) {
    let before = registry.snapshot();
    let result = crate::scoped(registry, work);
    let diff = registry.snapshot().diff(&before);
    (result, diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_isolates_the_closure_work() {
        let reg = Arc::new(Registry::new());
        reg.counter("c").add(100);
        let ((), d) = snapshot_diff(&reg, || crate::counter("c").add(7));
        assert_counter_eq(&d, "c", 7);
    }

    #[test]
    #[should_panic(expected = "counter missing not in snapshot")]
    fn absent_counter_panics_with_context() {
        assert_counter_eq(&Snapshot::new(), "missing", 1);
    }
}
