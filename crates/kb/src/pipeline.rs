//! The continuous extraction pipeline of Section V: worker threads sweep
//! the subscriptions, extract their workload knowledge from telemetry,
//! and feed the knowledge base — the shape a production deployment would
//! have, with the trace standing in for the telemetry stream.

use crate::extract::extract_subscription_knowledge_from;
use crate::knowledge::WorkloadKnowledge;
use crate::store::{KbStore, KnowledgeBase};
use cloudscope_analysis::PatternClassifier;
use cloudscope_model::ids::SubscriptionId;
use cloudscope_model::time::SimTime;
use cloudscope_model::trace::Trace;
use cloudscope_par::Parallelism;
use std::time::Duration;

/// Subscriptions per worker between two feeds: large enough that each
/// feed keeps every worker busy across several steal chunks, small
/// enough that the buffered
/// [`WorkloadKnowledge`](crate::knowledge::WorkloadKnowledge) values
/// between upserts stay bounded regardless of trace size.
const EXTRACTION_BATCH_PER_WORKER: usize = 64;

/// Statistics of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Subscriptions processed.
    pub processed: usize,
    /// Entries stored (subscriptions with at least one VM).
    pub stored: usize,
    /// Subscriptions skipped (no VMs).
    pub skipped: usize,
    /// Store writes that had to be retried after a transient failure.
    pub retries: usize,
    /// Entries dropped because the store kept failing past the retry
    /// budget. Always zero with the infallible in-memory store.
    pub failed: usize,
    /// Batched writes issued to the store ([`KbStore::try_feed`] calls).
    pub batches: usize,
}

/// Bounded retry-with-backoff policy for transient store failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per write, the first included. Must be at least 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on each further retry
    /// (1×, 2×, 4×, …).
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts with 1 ms base backoff: rides out brief blips
    /// (worst-case ~7 ms asleep per entry) without stalling the sweep on
    /// a store that is actually down.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
        }
    }
}

/// Retries one entry whose first (batched) write attempt failed. The
/// batch write consumed attempt 1; this drives attempts `2..=max` with
/// exponential backoff, counting each non-terminal failure (including
/// that first one) into `stats.retries` and a terminal failure into
/// `stats.failed` — so a permanently failing entry burns exactly
/// `max_attempts - 1` retries, same as the pre-batching pipeline.
fn retry_failed_entry<S: KbStore + ?Sized>(
    store: &S,
    knowledge: &WorkloadKnowledge,
    policy: &RetryPolicy,
    stats: &mut PipelineStats,
) {
    let mut backoff = policy.base_backoff;
    let mut attempts_used: u32 = 1;
    loop {
        if attempts_used >= policy.max_attempts {
            stats.failed += 1;
            return;
        }
        // The previous attempt failed and budget remains: retry it.
        stats.retries += 1;
        cloudscope_obs::counter("kb.pipeline.retries").inc();
        if !backoff.is_zero() {
            cloudscope_obs::counter("kb.pipeline.backoff_sleeps").inc();
            std::thread::sleep(backoff);
        }
        backoff = backoff.saturating_mul(2);
        attempts_used += 1;
        match store.try_upsert(knowledge.clone()) {
            Ok(true) => {
                stats.stored += 1;
                return;
            }
            // Stale by the time the retry landed (another feed won the
            // race): neither stored nor failed, exactly like a stale
            // first-try write.
            Ok(false) => return,
            Err(_) => {}
        }
    }
}

/// Publishes one batch of extracted knowledge into any [`KbStore`]: a
/// single batched write ([`KbStore::try_feed`] — attempt 1 for every
/// entry), then bounded per-entry retries per `retry` for whatever the
/// store rejected, with terminal failures counted into
/// [`PipelineStats::failed`] rather than aborting the batch.
///
/// This is the *one* write path into the KB: the batch extraction
/// pipeline feeds each chunk through it, and the streaming ingestion
/// service (`cloudscope-ingest`) publishes every closed window through
/// it — so a durable backend's WAL semantics apply identically to
/// either producer.
///
/// # Panics
/// Panics if `retry.max_attempts == 0`.
pub fn publish_batch<S: KbStore + ?Sized>(
    store: &S,
    entries: &[WorkloadKnowledge],
    retry: &RetryPolicy,
    stats: &mut PipelineStats,
) {
    assert!(
        retry.max_attempts >= 1,
        "retry policy needs at least one attempt"
    );
    if entries.is_empty() {
        return;
    }
    stats.batches += 1;
    cloudscope_obs::counter("kb.pipeline.batches").inc();
    let outcome = store.try_feed(entries);
    stats.stored += outcome.stored;
    for (index, _first_error) in outcome.failures {
        retry_failed_entry(store, &entries[index], retry, stats);
    }
}

/// Runs the extraction pipeline over every subscription in the trace
/// with `workers` threads, feeding `kb`. Per-subscription extraction is
/// independent, so results are identical to a sequential sweep.
///
/// # Panics
/// Panics if `workers == 0`.
#[must_use]
pub fn run_extraction_pipeline(
    trace: &Trace,
    kb: &KnowledgeBase,
    classifier: &PatternClassifier,
    max_classified_vms_per_sub: usize,
    workers: usize,
) -> PipelineStats {
    run_extraction_pipeline_with(
        trace,
        kb,
        classifier,
        max_classified_vms_per_sub,
        workers,
        &RetryPolicy::default(),
    )
}

/// [`run_extraction_pipeline`] over any [`KbStore`] backend: each chunk
/// is ingested as one batched write ([`KbStore::try_feed`]), transient
/// per-entry failures are retried per `retry` (exponential backoff),
/// and entries the store keeps rejecting are counted into
/// [`PipelineStats::failed`] rather than aborting the sweep — one bad
/// entry must not cost the rest of the batch.
///
/// # Panics
/// Panics if `workers == 0` or `retry.max_attempts == 0`.
#[must_use]
pub fn run_extraction_pipeline_with<S: KbStore + ?Sized>(
    trace: &Trace,
    store: &S,
    classifier: &PatternClassifier,
    max_classified_vms_per_sub: usize,
    workers: usize,
    retry: &RetryPolicy,
) -> PipelineStats {
    assert!(
        retry.max_attempts >= 1,
        "retry policy needs at least one attempt"
    );
    let subscriptions: Vec<SubscriptionId> =
        trace.subscriptions().iter().map(|sub| sub.id).collect();
    // Subscriptions have no id locality — nearly every one spans the
    // whole VM id range — so they are swept a bounded batch at a time:
    // one ascending scan gathers the telemetry of a batch's VMs, then
    // extraction (the expensive part) runs over the gathered series on
    // the shared executor. The batched feeds happen on this thread in
    // subscription order, so the KB sees the same feed sequence for any
    // worker count, and peak memory holds one gathered batch plus
    // O(feed) extracted knowledge values, not O(subscriptions), no
    // matter the trace size.
    let parallelism = Parallelism::with_workers(workers);
    let feed = (workers * EXTRACTION_BATCH_PER_WORKER).max(1);
    let mut stats = PipelineStats::default();
    let batches = trace.gather_batches(trace, &subscriptions, |&sub, ids| {
        ids.extend_from_slice(trace.vms_of_subscription(sub));
    });
    for (batch, gathered) in batches {
        for chunk in batch.chunks(feed) {
            let extracted = {
                let _stage = cloudscope_obs::span("kb.pipeline.extract");
                parallelism.par_map(chunk, |&sub| {
                    extract_subscription_knowledge_from(
                        trace,
                        &gathered,
                        sub,
                        |_, util| classifier.classify_util(util),
                        max_classified_vms_per_sub,
                        None,
                        SimTime::WEEK_END,
                    )
                })
            };
            let _stage = cloudscope_obs::span("kb.pipeline.upsert");
            stats.processed += extracted.len();
            let entries: Vec<WorkloadKnowledge> = extracted.into_iter().flatten().collect();
            stats.skipped += chunk.len() - entries.len();
            publish_batch(store, &entries, retry, &mut stats);
        }
    }
    cloudscope_obs::counter("kb.pipeline.processed").add(stats.processed as u64);
    cloudscope_obs::counter("kb.pipeline.stored").add(stats.stored as u64);
    cloudscope_obs::counter("kb.pipeline.skipped").add(stats.skipped as u64);
    cloudscope_obs::counter("kb.pipeline.failed").add(stats.failed as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreError;
    use cloudscope_tracegen::{generate, GeneratorConfig};

    #[test]
    fn pipeline_matches_sequential_extraction() {
        let g = generate(&GeneratorConfig::small(61));
        let classifier = PatternClassifier;

        let parallel_kb = KnowledgeBase::new();
        let stats = run_extraction_pipeline(&g.trace, &parallel_kb, &classifier, 2, 4);
        assert_eq!(stats.processed, g.trace.subscriptions().len());
        assert_eq!(stats.stored + stats.skipped, stats.processed);
        assert_eq!(parallel_kb.len(), stats.stored);

        let sequential_kb = KnowledgeBase::new();
        let seq_stats = run_extraction_pipeline(&g.trace, &sequential_kb, &classifier, 2, 1);
        assert_eq!(seq_stats.stored, stats.stored);
        // Entry-by-entry equality (region_agnostic is None in both).
        for sub in g.trace.subscriptions() {
            assert_eq!(parallel_kb.get(sub.id), sequential_kb.get(sub.id));
        }
    }

    #[test]
    fn repeated_runs_are_idempotent() {
        let g = generate(&GeneratorConfig::small(62));
        let classifier = PatternClassifier;
        let kb = KnowledgeBase::new();
        let first = run_extraction_pipeline(&g.trace, &kb, &classifier, 2, 2);
        let size = kb.len();
        // Same-timestamp refresh: entries overwrite, count stays.
        let second = run_extraction_pipeline(&g.trace, &kb, &classifier, 2, 2);
        assert_eq!(kb.len(), size);
        assert_eq!(first.processed, second.processed);
    }

    struct FlakyEveryOther {
        inner: KnowledgeBase,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl KbStore for FlakyEveryOther {
        fn try_upsert(&self, knowledge: crate::WorkloadKnowledge) -> Result<bool, StoreError> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n.is_multiple_of(2) {
                return Err(StoreError::Transient("injected"));
            }
            self.inner.try_upsert(knowledge)
        }
    }

    struct AlwaysDown;

    impl KbStore for AlwaysDown {
        fn try_upsert(&self, _: crate::WorkloadKnowledge) -> Result<bool, StoreError> {
            Err(StoreError::Transient("down"))
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let g = generate(&GeneratorConfig::small(64));
        let classifier = PatternClassifier;
        let store = FlakyEveryOther {
            inner: KnowledgeBase::new(),
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        // Strict alternation means an entry can fail at most every other
        // attempt; 4 attempts ride it out with slack.
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
        };
        let stats = run_extraction_pipeline_with(&g.trace, &store, &classifier, 2, 2, &retry);
        assert_eq!(stats.failed, 0);
        assert!(stats.stored > 0);
        assert!(stats.retries > 0, "an alternating store must force retries");
        assert!(stats.batches >= 1);
        assert_eq!(store.inner.len(), stats.stored);
        // Attempt ledger: every try_upsert call either stored an entry or
        // was a non-terminal failure that got retried.
        assert_eq!(
            store.calls.load(std::sync::atomic::Ordering::SeqCst),
            stats.stored + stats.retries
        );

        // Same trace against the infallible store: identical contents.
        let clean = KnowledgeBase::new();
        let clean_stats = run_extraction_pipeline(&g.trace, &clean, &classifier, 2, 2);
        assert_eq!(clean_stats.stored, stats.stored);
        for sub in g.trace.subscriptions() {
            assert_eq!(store.inner.get(sub.id), clean.get(sub.id));
        }
    }

    #[test]
    fn persistent_failures_are_bounded_and_counted() {
        let g = generate(&GeneratorConfig::small(65));
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
        };
        let stats =
            run_extraction_pipeline_with(&g.trace, &AlwaysDown, &PatternClassifier, 2, 2, &retry);
        assert_eq!(stats.stored, 0);
        assert!(stats.failed > 0);
        assert_eq!(stats.failed + stats.skipped, stats.processed);
        // Each failed entry burns exactly max_attempts - 1 retries.
        assert_eq!(stats.retries, stats.failed * 3);
    }

    #[test]
    fn pipeline_over_a_crashing_durable_store() {
        // Drive the pipeline into a DurableKb whose durability layer
        // dies mid-sweep: the pipeline must absorb the failures (counted
        // into `failed`, never panicking), and everything it reports as
        // stored must actually be recoverable from disk.
        let g = generate(&GeneratorConfig::small(66));
        let classifier = PatternClassifier;
        let dir = std::env::temp_dir().join(format!(
            "cloudscope-kb-pipeline-crash-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let db = crate::persist::DurableKb::open_with_shards(&dir, Some(2)).unwrap();
        // Die at the second WAL append: batch 1 commits, batch 2 onward
        // is refused (each refused batch costs one append attempt on the
        // batched write plus one per retry).
        db.arm_crash(crate::persist::CrashPlan::at_occurrence(
            crate::persist::CrashPoint::BeforeWalAppend,
            2,
        ));
        let retry = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
        };
        // workers = 1 keeps batches small enough that several feeds
        // happen, so the crash lands between batches.
        let stats = run_extraction_pipeline_with(&g.trace, &db, &classifier, 2, 1, &retry);
        assert!(db.crashed());
        assert!(stats.batches >= 2, "need a multi-batch sweep");
        assert!(stats.stored > 0, "the first batch committed");
        assert!(stats.failed > 0, "post-crash batches must fail");
        assert_eq!(stats.stored + stats.skipped + stats.failed, stats.processed);
        // Each failed entry burned attempt 1 (batch) + 1 retry.
        assert_eq!(stats.retries, stats.failed);
        drop(db);

        let recovered = crate::persist::DurableKb::open(&dir).unwrap();
        assert_eq!(recovered.kb().len(), stats.stored);
        recovered.kb().check_consistency().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let g = generate(&GeneratorConfig::small(63));
        let kb = KnowledgeBase::new();
        let _ = run_extraction_pipeline(&g.trace, &kb, &PatternClassifier, 2, 0);
    }
}
