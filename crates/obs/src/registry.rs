//! The metrics registry and the three instrument kinds.
//!
//! A [`Registry`] is a named collection of [`Counter`]s, [`Gauge`]s, and
//! [`Histogram`]s. Handles returned by the lookup methods are cheap
//! `Arc` clones of the shared atomic state, so hot call sites fetch a
//! handle once and update it lock-free; casual call sites go through the
//! name lookup every time (one short mutex hold over a `BTreeMap`).

use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: bucket `i` (for `i > 0`) counts
/// observations whose bit length is `i`, i.e. values in
/// `[2^(i-1), 2^i - 1]`; bucket 0 counts zero observations. Fixed
/// log-scale boundaries make bucket counts from different runs and
/// different processes directly comparable.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Upper (inclusive) bound of histogram bucket `i`.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The bucket an observation of `value` lands in.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (last write wins; `add` is atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is below it (atomic max).
    pub fn set_max(&self, value: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(current) >= value {
                return;
            }
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared state of a histogram with [`HISTOGRAM_BUCKETS`] fixed
/// log-scale buckets.
#[derive(Debug)]
pub struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram of `u64` observations (durations in nanoseconds, sizes,
/// depths) over fixed power-of-two buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // Bucket before count, with the count increment releasing: a
        // snapshot that observes a count value also observes the bucket
        // increments of every observe() that produced it, so the bucket
        // sum can trail count in neither direction — only lead it (from
        // observes still mid-flight).
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Release);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        // Count first, acquiring: pairs with the releasing increment in
        // observe(), so every observation counted here already has its
        // bucket store visible — the bucket sum below is >= count.
        let count = self.0.count.load(Ordering::Acquire);
        let sum = self.0.sum.load(Ordering::Relaxed);
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum,
            buckets,
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Cloning handles is cheap; the registry
/// itself is usually shared behind an [`Arc`].
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn instrument<F: FnOnce() -> Instrument>(&self, name: &str, make: F) -> Instrument {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = metrics.get(name) {
            return existing.clone();
        }
        let made = make();
        metrics.insert(name.to_owned(), made.clone());
        made
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.instrument(name, || {
            Instrument::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.instrument(name, || {
            Instrument::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.instrument(name, || {
            Instrument::Histogram(Histogram(Arc::new(HistogramCore::new())))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every metric, deterministically ordered
    /// by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        Snapshot {
            metrics: metrics
                .iter()
                .map(|(name, inst)| {
                    let value = match inst {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x.y.z");
        let b = reg.counter("x.y.z");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    fn gauges_set_add_and_max() {
        let reg = Registry::new();
        let g = reg.gauge("g");
        g.set(3.5);
        assert!((g.get() - 3.5).abs() < 1e-12);
        g.set_max(2.0);
        assert!(
            (g.get() - 3.5).abs() < 1e-12,
            "max below current is a no-op"
        );
        g.set_max(10.0);
        assert!((g.get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Boundaries are consistent: every value falls at or below its
        // bucket's bound and above the previous one.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} in bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "{v} above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_observations_tally() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        match snap.metrics.get("h") {
            Some(MetricValue::Histogram(hs)) => {
                assert_eq!(hs.count, 5);
                assert_eq!(hs.sum, 1006);
                assert_eq!(hs.buckets.iter().map(|(_, n)| n).sum::<u64>(), 5);
                assert_eq!(hs.buckets[0], (0, 1));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("same.name");
        let _ = reg.gauge("same.name");
    }
}
