//! A knowledge-store wrapper that injects seeded transient write
//! failures, for exercising the extraction pipeline's retry path.

use cloudscope_kb::{FeedOutcome, KbStore, StoreError, WorkloadKnowledge};
use cloudscope_sim::rng::RngFactory;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Wraps any [`KbStore`] and makes each write fail with a seeded
/// probability before it reaches the backend — the storage-side
/// counterpart of [`corrupt_trace`](crate::corrupt_trace). Failures are
/// always [`StoreError::Transient`], so a retrying caller eventually
/// lands every write (unless the probability is 1).
#[derive(Debug)]
pub struct FlakyStore<S> {
    inner: S,
    failure_probability: f64,
    rng: Mutex<StdRng>,
    attempts: AtomicUsize,
    injected: AtomicUsize,
}

impl<S> FlakyStore<S> {
    /// Wraps `inner`, failing each write with `failure_probability`
    /// (clamped to `[0, 1]`), drawing from a stream seeded by `seed`.
    #[must_use]
    pub fn new(inner: S, seed: u64, failure_probability: f64) -> Self {
        Self {
            inner,
            failure_probability: failure_probability.clamp(0.0, 1.0),
            rng: Mutex::new(RngFactory::new(seed).stream("flaky-store")),
            attempts: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// Writes attempted so far (including failed ones).
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Failures injected so far.
    #[must_use]
    pub fn injected_failures(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<S: KbStore> KbStore for FlakyStore<S> {
    fn try_upsert(&self, knowledge: WorkloadKnowledge) -> Result<bool, StoreError> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let fail = self
            .rng
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .random_bool(self.failure_probability);
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            cloudscope_obs::counter("faults.flaky.injected_failures").inc();
            return Err(StoreError::Transient("injected write failure"));
        }
        self.inner.try_upsert(knowledge)
    }

    fn try_feed(&self, batch: &[WorkloadKnowledge]) -> FeedOutcome {
        // Inject per entry (each batched entry is one write attempt), so
        // the failure ledger is identical to feeding the batch through
        // `try_upsert` one entry at a time. Survivors reach the backend
        // as one batch, preserving its batched-write semantics.
        self.attempts.fetch_add(batch.len(), Ordering::Relaxed);
        let mut outcome = FeedOutcome::default();
        let mut survivors: Vec<usize> = Vec::with_capacity(batch.len());
        {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            for index in 0..batch.len() {
                if rng.random_bool(self.failure_probability) {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    cloudscope_obs::counter("faults.flaky.injected_failures").inc();
                    outcome
                        .failures
                        .push((index, StoreError::Transient("injected write failure")));
                } else {
                    survivors.push(index);
                }
            }
        }
        if !survivors.is_empty() {
            let surviving: Vec<WorkloadKnowledge> =
                survivors.iter().map(|&i| batch[i].clone()).collect();
            let inner_outcome = self.inner.try_feed(&surviving);
            outcome.stored = inner_outcome.stored;
            outcome.stale = inner_outcome.stale;
            // Remap the backend's failure indices (positions within the
            // surviving sub-batch) back to positions in the caller's batch.
            for (sub_index, error) in inner_outcome.failures {
                outcome.failures.push((survivors[sub_index], error));
            }
        }
        outcome.failures.sort_by_key(|&(index, _)| index);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudscope_analysis::PatternClassifier;
    use cloudscope_kb::{run_extraction_pipeline_with, KnowledgeBase, RetryPolicy};
    use cloudscope_tracegen::{generate, GeneratorConfig};
    use std::time::Duration;

    #[test]
    fn zero_probability_delegates_cleanly() {
        let g = generate(&GeneratorConfig::small(31));
        let store = FlakyStore::new(KnowledgeBase::new(), 31, 0.0);
        let stats = run_extraction_pipeline_with(
            &g.trace,
            &store,
            &PatternClassifier,
            2,
            2,
            &RetryPolicy::default(),
        );
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(store.injected_failures(), 0);
        assert_eq!(store.inner.len(), stats.stored);
    }

    #[test]
    fn retries_ride_out_a_30_percent_failure_rate() {
        let g = generate(&GeneratorConfig::small(32));
        let store = FlakyStore::new(KnowledgeBase::new(), 32, 0.3);
        let retry = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::ZERO,
        };
        let stats =
            run_extraction_pipeline_with(&g.trace, &store, &PatternClassifier, 2, 2, &retry);
        // With 10 attempts per entry a 0.3 failure rate is survivable:
        // everything lands, and the KB matches a clean run exactly.
        assert_eq!(stats.failed, 0);
        assert!(stats.retries > 0, "a 30% failure rate must trigger retries");
        assert_eq!(store.injected_failures(), stats.retries);
        let clean = KnowledgeBase::new();
        let clean_stats = run_extraction_pipeline_with(
            &g.trace,
            &clean,
            &PatternClassifier,
            2,
            2,
            &RetryPolicy::default(),
        );
        assert_eq!(stats.stored, clean_stats.stored);
        for sub in g.trace.subscriptions() {
            assert_eq!(store.inner.get(sub.id), clean.get(sub.id));
        }
    }

    #[test]
    fn batched_feed_matches_per_entry_injection() {
        use cloudscope_kb::WorkloadKnowledge;
        use cloudscope_model::ids::SubscriptionId;
        use cloudscope_model::prelude::{CloudKind, SimTime};

        let entry = |id: u32| WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud: CloudKind::Public,
            pattern: None,
            lifetime: cloudscope_kb::LifetimeClass::Mixed,
            mean_util: 10.0,
            p95_util: 20.0,
            util_cv: 0.1,
            regions: 1,
            region_agnostic: None,
            vm_count: 1,
            cores: 4,
            updated_at: SimTime::ZERO,
        };
        let batch: Vec<WorkloadKnowledge> = (0..64).map(entry).collect();

        // Same seed, same probability: the batched path must draw the
        // same injection stream as entry-at-a-time writes.
        let batched = FlakyStore::new(KnowledgeBase::new(), 77, 0.4);
        let outcome = batched.try_feed(&batch);
        assert_eq!(
            outcome.stored + outcome.stale + outcome.failures.len(),
            batch.len()
        );
        assert_eq!(batched.attempts(), batch.len());
        assert_eq!(batched.injected_failures(), outcome.failures.len());
        assert!(
            outcome.failures.windows(2).all(|w| w[0].0 < w[1].0),
            "failure indices ascend"
        );

        let sequential = FlakyStore::new(KnowledgeBase::new(), 77, 0.4);
        let mut seq_failures = Vec::new();
        for (index, k) in batch.iter().enumerate() {
            if sequential.try_upsert(k.clone()).is_err() {
                seq_failures.push(index);
            }
        }
        let batch_failures: Vec<usize> = outcome.failures.iter().map(|&(i, _)| i).collect();
        assert_eq!(batch_failures, seq_failures);
        for k in &batch {
            assert_eq!(
                batched.inner.get(k.subscription),
                sequential.inner.get(k.subscription)
            );
        }
    }

    #[test]
    fn total_outage_is_reported_not_hung() {
        let g = generate(&GeneratorConfig::small(33));
        let store = FlakyStore::new(KnowledgeBase::new(), 33, 1.0);
        let retry = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
        };
        let stats =
            run_extraction_pipeline_with(&g.trace, &store, &PatternClassifier, 2, 2, &retry);
        assert_eq!(stats.stored, 0);
        assert!(stats.failed > 0);
        assert!(store.inner.is_empty());
        assert_eq!(store.attempts(), stats.failed * 2);
    }
}
