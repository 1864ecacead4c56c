//! Publication of closed-window state into the knowledge base, through
//! the extraction pipeline's own batched write path.

use crate::ingestor::WindowClose;
use crate::session::IngestSession;
use cloudscope_kb::{
    extract_subscription_knowledge_from, publish_batch, KbStore, Parallelism, PipelineStats,
    RetryPolicy, WorkloadKnowledge,
};
use cloudscope_model::prelude::*;
use std::collections::BTreeSet;

/// Re-extracts [`WorkloadKnowledge`] for every subscription touched by
/// `closes` — reading telemetry from `lanes`, the state the close just
/// sealed, and voting with the patterns the close just classified — and
/// publishes it as one batch through [`cloudscope_kb::publish_batch`]
/// (a single `try_feed` plus the bounded retry ledger), so a durable
/// store's WAL semantics apply to streamed refreshes exactly as they do
/// to batch extraction sweeps. Entries are stamped with each window's
/// close time, letting the KB's staleness gate order refreshes.
///
/// `trace` supplies only the metadata (ownership, sizes, lifetimes);
/// all samples and patterns come from `lanes`.
pub(crate) fn publish_closed_windows<S: KbStore + ?Sized>(
    trace: &Trace,
    lanes: &IngestSession,
    closes: &[WindowClose],
    store: &S,
    max_classified_vms_per_sub: usize,
    retry: &RetryPolicy,
    stats: &mut PipelineStats,
) {
    let Some(updated_at) = closes.iter().map(|c| c.window_end).max() else {
        return;
    };
    let _stage = cloudscope_obs::span("ingest.publish");
    let subscriptions: Vec<SubscriptionId> = closes
        .iter()
        .filter_map(|c| trace.vm(c.vm).ok().map(|vm| vm.subscription))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // Subscriptions are independent reads of `lanes`: extract on every
    // worker, publish in subscription order.
    let extracted = Parallelism::auto().par_map(&subscriptions, |&sub| {
        extract_subscription_knowledge_from(
            trace,
            lanes,
            sub,
            |vm, _| lanes.pattern(vm),
            max_classified_vms_per_sub,
            None,
            updated_at,
        )
    });
    let entries: Vec<WorkloadKnowledge> = extracted.into_iter().flatten().collect();
    stats.processed += subscriptions.len();
    stats.skipped += subscriptions.len() - entries.len();
    publish_batch(store, &entries, retry, stats);
}
