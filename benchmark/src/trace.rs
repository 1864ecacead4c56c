//! The run context every workload threads through its calls: operation
//! accounting (always on) and span recording (traced run only).
//!
//! Spans are opened from the benchmark's own files, around calls into a
//! layer (= a workspace crate; the span name's first dotted component).
//! They live in memory until the run ends. A span carries its parent,
//! the phase and iteration it belongs to, the peak live heap reached
//! while it was open, and the non-zero `cloudscope::obs` counter deltas
//! between its two boundaries.

use crate::alloc;
use crate::json::Json;
use cloudscope::obs::{MetricValue, Registry, Snapshot};
use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

/// Which part of the run a span or iteration belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the first timed iteration; counted in `setup_s`.
    Setup,
    /// A timed iteration; what the end-to-end metrics describe.
    Timed,
    /// Extra single-layer measurements of the traced run.
    Probe,
    /// The resident reference the outputs are verified against.
    Reference,
    /// The untraced/traced pair behind `bench.tracing_overhead_pct`;
    /// heap counting is paused around it, so its heap figures and
    /// spans feed no metric.
    Overhead,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Probe => "probe",
            Phase::Reference => "reference",
            Phase::Overhead => "overhead",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the run started.
    pub start_ns: u64,
    /// Nanoseconds since the run started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Phase the span was opened in.
    pub phase: Phase,
    /// Iteration within the phase, from 1.
    pub iter: u32,
    /// Peak live heap while the span was open, in bytes.
    pub peak_heap: u64,
    /// Registry deltas between the span's boundaries.
    pub delta: Snapshot,
}

impl SpanRec {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Ctx::begin`]; pass it back to [`Ctx::end`].
#[must_use]
pub struct Open {
    index: usize,
    before: Snapshot,
    outer_peak: isize,
}

/// Operation accounting plus, when tracing, the span recorder.
pub struct Ctx {
    /// The scoped registry the whole run records against.
    pub registry: Arc<Registry>,
    /// `true` in the traced run.
    pub traced: bool,
    /// Operations attempted: public layer calls and output checks.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Every span recorded so far (empty unless `traced`).
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
    phase: Phase,
    iter: u32,
    t0: Instant,
}

impl Ctx {
    /// A fresh context; `traced` switches span recording on.
    pub fn new(registry: Arc<Registry>, traced: bool) -> Self {
        Self {
            registry,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            phase: Phase::Setup,
            iter: 1,
            t0: Instant::now(),
        }
    }

    /// Labels the spans opened from now on.
    pub fn enter(&mut self, phase: Phase, iter: u32) {
        self.phase = phase;
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.traced {
            return None;
        }
        let index = self.spans.len();
        let before = self.registry.snapshot();
        let outer_peak = alloc::open_window();
        self.spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            phase: self.phase,
            iter: self.iter,
            peak_heap: 0,
            delta: Snapshot::new(),
        });
        self.stack.push(index);
        Some(Open {
            index,
            before,
            outer_peak,
        })
    }

    /// Closes the span opened by the matching [`Ctx::begin`].
    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(open.index), "spans must close innermost first");
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.peak_heap = alloc::close_window(open.outer_peak);
        span.delta = self.registry.snapshot().diff(&open.before);
    }

    /// One fallible call into a layer: a span around it, one operation
    /// attempted, and a failure recorded if it returns `Err`.
    pub fn call<T, E: Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                None
            }
        }
    }

    /// One call into a layer that has no error to return.
    pub fn call_ok<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        self.attempted += 1;
        result
    }

    /// One output check, counted as an operation.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.fail(what());
        }
    }

    fn fail(&mut self, line: String) {
        self.failed += 1;
        self.failures.push(line);
    }
}

/// Per-span self time: the span's duration minus the part of it that
/// its direct children cover. Children are recorded on one thread and
/// close before their parent, so their intervals never overlap.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(SpanRec::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

/// The layer a span name belongs to: its first dotted component.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders the spans as the trace file's JSON: one object per span, in
/// opening order, so `parent` indexes into the same array.
pub fn spans_to_json(spans: &[SpanRec]) -> Json {
    let self_ns = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                let counters = s
                    .delta
                    .metrics
                    .iter()
                    .filter_map(|(name, value)| match value {
                        MetricValue::Counter(n) if *n > 0 => {
                            Some((name.clone(), Json::Num(*n as f64)))
                        }
                        _ => None,
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("layer".into(), Json::Str(layer_of(s.name).into())),
                    ("phase".into(), Json::Str(s.phase.label().into())),
                    ("iteration".into(), Json::Num(f64::from(s.iter))),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ("self_ns".into(), Json::Num(self_ns as f64)),
                    ("peak_heap_bytes".into(), Json::Num(s.peak_heap as f64)),
                    ("counters".into(), Json::Obj(counters)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            phase: Phase::Timed,
            iter: 1,
            peak_heap: 0,
            delta: Snapshot::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("bench.iteration", 0, 100, None),
            span("analysis.fig5", 10, 60, Some(0)),
            span("store.load", 20, 50, Some(1)),
            span("kb.extract", 60, 95, Some(0)),
        ];
        // Root: 100 - (50 + 35); fig5: 50 - 30; grandchildren only
        // reduce their own parent.
        assert_eq!(self_times_ns(&spans), vec![15, 20, 30, 35]);
    }

    #[test]
    fn untraced_context_counts_operations_without_spans() {
        let mut cx = Ctx::new(Arc::new(Registry::new()), false);
        assert_eq!(cx.call("kb.extract", || Ok::<_, String>(7)), Some(7));
        assert_eq!(cx.call("kb.extract", || Err::<u8, _>("boom")), None);
        cx.check(true, || unreachable!());
        cx.check(false, || "digest mismatch".into());
        assert_eq!((cx.attempted, cx.failed), (4, 2));
        assert_eq!(cx.failures, ["kb.extract: boom", "digest mismatch"]);
        assert!(cx.spans.is_empty());
    }

    #[test]
    fn traced_context_nests_spans_and_reads_counter_deltas() {
        let registry = Arc::new(Registry::new());
        let mut cx = Ctx::new(Arc::clone(&registry), true);
        cx.enter(Phase::Timed, 3);
        let root = cx.begin("bench.iteration");
        let counter = registry.counter("store.cache.misses");
        cx.call_ok("store.open", || counter.add(5));
        cx.end(root);
        assert_eq!(cx.spans.len(), 2);
        assert_eq!(cx.spans[1].parent, Some(0));
        assert_eq!(cx.spans[1].iter, 3);
        assert_eq!(cx.spans[1].delta.counter("store.cache.misses"), Some(5));
        assert_eq!(cx.spans[0].delta.counter("store.cache.misses"), Some(5));
        assert_eq!(layer_of(cx.spans[1].name), "store");
    }
}
