//! `cloudscope-obs`: a zero-dependency, thread-safe metrics layer for
//! the cloudscope pipeline.
//!
//! - [`Registry`] — named counters, gauges, and fixed log-bucket
//!   histograms, all lock-free to update once a handle is held.
//! - [`Span`] — hierarchical wall-clock timers recording into
//!   `<path>.duration_ns` histograms.
//! - [`Snapshot`] — deterministic point-in-time copies with `diff`.
//! - [`to_json`] / [`parse_json`] — a serializer and its parser;
//!   snapshots round-trip exactly.
//! - [`Schema`] — committed name/kind sets for CI validation.
//! - [`testing`] — assertion helpers for metrics-driven tests.
//! - [`heap`] — the counting global allocator test binaries install to
//!   pin peak live heap and allocation counts.
//!
//! # Which registry do updates go to?
//!
//! Library code records against [`current()`]: the innermost registry
//! installed by [`scoped()`] on this thread, or the process-wide
//! [`global()`] registry when none is. Tests wrap the code under test
//! in `scoped(&my_registry, || ...)` to observe it in isolation even
//! though the test harness runs tests concurrently; binaries just use
//! the global registry and dump it at exit.
//!
//! Metric names follow `<crate>.<subsystem>.<name>`, e.g.
//! `faults.corrupt.samples_dropped`.

mod export;
pub mod heap;
mod registry;
mod schema;
mod snapshot;
mod span;
pub mod testing;

pub use export::{parse_json, to_json, ParseError};
pub use registry::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS,
};
pub use schema::Schema;
pub use snapshot::{HistogramSnapshot, MetricValue, Snapshot};
pub use span::Span;

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide registry binaries export at exit.
#[must_use]
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

/// The registry this thread currently records against: the innermost
/// [`scoped()`] registry, or [`global()`] outside any scope.
#[must_use]
pub fn current() -> Arc<Registry> {
    SCOPED
        .with(|stack| stack.borrow().last().map(Arc::clone))
        .unwrap_or_else(global)
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPED.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Runs `work` with `registry` as this thread's current registry,
/// restoring the previous one afterwards (also on panic). Scopes nest.
///
/// Worker threads do not inherit the scope automatically;
/// `cloudscope-par` captures [`current()`] before spawning and
/// re-installs it in each worker, so parallel sections stay attributed
/// to the caller's registry.
pub fn scoped<R>(registry: &Arc<Registry>, work: impl FnOnce() -> R) -> R {
    SCOPED.with(|stack| stack.borrow_mut().push(Arc::clone(registry)));
    let _guard = ScopeGuard;
    work()
}

/// The counter `name` on the current registry.
#[must_use]
pub fn counter(name: &str) -> Counter {
    current().counter(name)
}

/// The gauge `name` on the current registry.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    current().gauge(name)
}

/// Starts a root [`Span`] named `path` on the current registry.
#[must_use]
pub fn span(path: &str) -> Span {
    Span::root(current(), path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_overrides_global_and_restores() {
        let reg = Arc::new(Registry::new());
        scoped(&reg, || {
            counter("scoped.only").inc();
        });
        assert_eq!(reg.snapshot().counter("scoped.only"), Some(1));
        assert_eq!(global().snapshot().counter("scoped.only"), None);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        scoped(&outer, || {
            counter("depth").inc();
            scoped(&inner, || counter("depth").inc());
            counter("depth").inc();
        });
        assert_eq!(outer.snapshot().counter("depth"), Some(2));
        assert_eq!(inner.snapshot().counter("depth"), Some(1));
    }

    #[test]
    fn scope_is_restored_after_panic() {
        let reg = Arc::new(Registry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped(&reg, || panic!("boom"));
        }));
        assert!(result.is_err());
        // The scope stack is clean: recording now goes to the global
        // registry, not the panicked scope's.
        counter("lib.after_panic").inc();
        assert_eq!(reg.snapshot().counter("lib.after_panic"), None);
    }

    #[test]
    fn schema_validates_matching_snapshot() {
        let reg = Registry::new();
        reg.counter("a.b.c").inc();
        reg.gauge("a.b.g").set(1.0);
        reg.histogram("a.b.h").observe(5);
        let snap = reg.snapshot();
        let schema = Schema::from_snapshot(&snap);
        assert!(schema.validate(&snap).is_empty());

        // Round-trips through JSON.
        let parsed = Schema::parse_json(&schema.to_json()).expect("parses");
        assert_eq!(parsed, schema);

        // A metric missing from the snapshot is fine; an extra or
        // retyped metric is a violation.
        let reg2 = Registry::new();
        reg2.counter("a.b.c").inc();
        assert!(schema.validate(&reg2.snapshot()).is_empty());
        reg2.counter("a.b.new").inc();
        assert_eq!(schema.validate(&reg2.snapshot()).len(), 1);
        let reg3 = Registry::new();
        reg3.gauge("a.b.c").set(0.0);
        assert_eq!(schema.validate(&reg3.snapshot()).len(), 1);
    }
}
