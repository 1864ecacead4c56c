//! Hierarchical wall-clock span timers.
//!
//! A [`Span`] measures one region of work; dropping it records the
//! elapsed nanoseconds into the histogram `<path>.duration_ns` of its
//! registry. Hierarchy is explicit — `Span::child("stage")` produces
//! the path `parent.stage` — so metric names are determined by the
//! instrumented code alone, never by which caller happened to be on the
//! stack. That keeps the exported name set stable for schema checks.

use crate::registry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// A timed region of work. Records on drop.
#[derive(Debug)]
pub struct Span {
    registry: Arc<Registry>,
    path: String,
    start: Instant,
}

impl Span {
    /// Starts a root span named `path` against `registry`.
    #[must_use]
    pub fn root(registry: Arc<Registry>, path: &str) -> Self {
        Self {
            registry,
            path: path.to_owned(),
            start: Instant::now(),
        }
    }

    /// Starts a child span; its metrics land under `<self.path>.<name>`.
    #[must_use]
    pub fn child(&self, name: &str) -> Self {
        Self {
            registry: Arc::clone(&self.registry),
            path: format!("{}.{name}", self.path),
            start: Instant::now(),
        }
    }

    /// Ends the span now instead of at end of scope.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry
            .histogram(&format!("{}.duration_ns", self.path))
            .observe(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_path_duration_histogram() {
        let reg = Arc::new(Registry::new());
        {
            let root = Span::root(Arc::clone(&reg), "analysis.report");
            {
                let child = root.child("fig1");
                assert_eq!(child.path, "analysis.report.fig1");
            }
            root.child("fig2").finish();
        }
        let snap = reg.snapshot();
        for name in [
            "analysis.report.duration_ns",
            "analysis.report.fig1.duration_ns",
            "analysis.report.fig2.duration_ns",
        ] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(h.count, 1, "{name}");
        }
    }
}
