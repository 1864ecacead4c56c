//! Durable restart: run the paper's extraction pipeline into a
//! WAL-backed knowledge base, checkpoint it, keep serving writes, then
//! simulate a restart — the cold `open()` must reproduce the exact
//! pre-restart store (snapshot generation + WAL-tail replay) and serve
//! the same policy queries.
use cloudscope::prelude::*;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("cloudscope-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Generate a small week and extract per-subscription knowledge
    // straight into the durable store: every batch is WAL-committed
    // before it lands in memory.
    let generated = generate(&GeneratorConfig::small(17));
    let classifier = PatternClassifier;
    let db = DurableKb::open(&dir)?;
    for cloud in CloudKind::BOTH {
        let knowledge = extract_cloud_knowledge(&generated.trace, cloud, &classifier, 4);
        db.feed(&knowledge)?;
    }

    // Checkpoint, then keep writing: the refreshed entries after the
    // snapshot live only in the WAL tail until the next checkpoint.
    db.snapshot()?;
    let refreshed: Vec<WorkloadKnowledge> = KbQuery::spot_candidates()
        .collect(db.kb())
        .into_iter()
        .take(8)
        .map(|mut k| {
            k.updated_at += SimDuration::from_minutes(5);
            k
        })
        .collect();
    db.feed(&refreshed)?;

    let before = db.kb().len();
    let spot_before = KbQuery::spot_candidates().count(db.kb());
    drop(db); // "crash": the only survivors are the files on disk

    let recovered = DurableKb::open(&dir)?;
    assert_eq!(recovered.kb().len(), before, "entry count survives restart");
    assert_eq!(
        KbQuery::spot_candidates().count(recovered.kb()),
        spot_before,
        "policy query results survive restart"
    );
    recovered
        .kb()
        .check_consistency()
        .expect("indexes consistent after recovery");

    let stats = recovered.recovery_stats();
    println!(
        "recovered {before} entries: generation {}, {} from the snapshot, \
         {} replayed from the WAL tail (torn tail: {}), {spot_before} spot candidates",
        stats.generation, stats.snapshot_entries, stats.replayed_entries, stats.torn_tail
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
