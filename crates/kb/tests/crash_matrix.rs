//! The crash-point matrix: simulate a process kill at every durability
//! boundary, at varying depths into an operation sequence, with and
//! without a prior snapshot — and assert that recovery reproduces
//! exactly the committed pre-crash state.

mod common;

use cloudscope_kb::{CrashPlan, CrashPoint, DurableKb, KnowledgeBase, PersistError};
use common::{assert_kb_equal, entry, entry_at, TempDir};
use proptest::prelude::*;

/// Applies operation `i` of the scripted sequence to both the durable
/// store and an in-memory shadow. Returns `Err` when the armed crash
/// fires mid-operation.
fn apply_op(db: &DurableKb, shadow: &KnowledgeBase, i: u32) -> Result<(), PersistError> {
    match i % 4 {
        0 | 1 => {
            db.upsert(entry(i))?;
            shadow.upsert(entry(i));
        }
        2 => {
            let batch: Vec<_> = (0..3).map(|j| entry(100 + i * 3 + j)).collect();
            db.feed(&batch)?;
            shadow.feed(batch);
        }
        _ => {
            // A later refresh of an earlier subscription.
            let refresh = entry_at(i.saturating_sub(3), 20);
            db.upsert(refresh.clone())?;
            shadow.upsert(refresh);
        }
    }
    Ok(())
}

/// The write-path matrix: crash at each write boundary, after each
/// prefix length of a scripted op sequence, with and without a prior
/// snapshot, recovering at a different shard count than the writer's.
#[test]
fn write_path_crash_matrix() {
    const OPS: u32 = 8;
    for point in CrashPoint::WRITE_PATH {
        for prefix in 0..OPS {
            for with_snapshot in [false, true] {
                let dir = TempDir::new("crash-write");
                let db = DurableKb::open_with_shards(dir.path(), Some(4)).unwrap();
                let shadow = KnowledgeBase::with_shards(1);

                for i in 0..prefix {
                    apply_op(&db, &shadow, i).unwrap();
                }
                if with_snapshot {
                    db.snapshot().unwrap();
                }

                // The crashing operation: committed iff the WAL append
                // completed before the kill.
                db.arm_crash(CrashPlan::at(point));
                let crashed = apply_op(&db, &shadow, prefix);
                assert!(crashed.is_err(), "{point:?} must kill the op");
                assert!(db.crashed());
                if !point.op_survives() {
                    // The shadow applied it, the durable store must not
                    // have: rebuild the shadow without the final op.
                    let rebuilt = KnowledgeBase::with_shards(1);
                    for i in 0..prefix {
                        apply_op_shadow_only(&rebuilt, i);
                    }
                    let recovered = DurableKb::open_with_shards(dir.path(), Some(7)).unwrap();
                    assert_kb_equal(
                        recovered.kb(),
                        &rebuilt,
                        &format!("{point:?} prefix {prefix} snapshot {with_snapshot}"),
                    );
                    if point == CrashPoint::MidWalRecord {
                        assert!(
                            recovered.recovery_stats().torn_tail,
                            "a mid-record kill leaves a torn tail"
                        );
                    }
                } else {
                    // AfterWalAppend: the record hit disk before the
                    // kill, so recovery must include the final op — the
                    // shadow never mirrored it (apply_op short-circuits
                    // on the error), so apply it now.
                    apply_op_shadow_only(&shadow, prefix);
                    let recovered = DurableKb::open_with_shards(dir.path(), Some(7)).unwrap();
                    assert_kb_equal(
                        recovered.kb(),
                        &shadow,
                        &format!("{point:?} prefix {prefix} snapshot {with_snapshot}"),
                    );
                }
            }
        }
    }
}

/// [`apply_op`] against the shadow only (to rebuild a committed-prefix
/// expectation without a durable store).
fn apply_op_shadow_only(shadow: &KnowledgeBase, i: u32) {
    match i % 4 {
        0 | 1 => {
            shadow.upsert(entry(i));
        }
        2 => {
            shadow.feed((0..3).map(|j| entry(100 + i * 3 + j)));
        }
        _ => {
            shadow.upsert(entry_at(i.saturating_sub(3), 20));
        }
    }
}

/// The snapshot-path matrix: a crash anywhere in `snapshot()` must lose
/// nothing — every write before it was WAL-committed, so recovery
/// reproduces the full pre-crash state no matter which boundary died.
#[test]
fn snapshot_path_crash_matrix() {
    const SHARDS: usize = 4;
    let mut plans: Vec<CrashPlan> = CrashPoint::SNAPSHOT_PATH
        .into_iter()
        .map(CrashPlan::at)
        .collect();
    // BetweenShardSnapshots at every depth: 1..SHARDS files renamed.
    for k in 2..=SHARDS as u32 {
        plans.push(CrashPlan::at_occurrence(
            CrashPoint::BetweenShardSnapshots,
            k,
        ));
    }
    // MidShardSnapshot on a later shard file too.
    plans.push(CrashPlan::at_occurrence(CrashPoint::MidShardSnapshot, 3));

    for plan in plans {
        for prior_snapshot in [false, true] {
            let dir = TempDir::new("crash-snap");
            let db = DurableKb::open_with_shards(dir.path(), Some(SHARDS)).unwrap();
            let shadow = KnowledgeBase::with_shards(1);
            for i in 0..20 {
                apply_op(&db, &shadow, i).unwrap();
            }
            if prior_snapshot {
                db.snapshot().unwrap();
                for i in 20..26 {
                    apply_op(&db, &shadow, i).unwrap();
                }
            }

            db.arm_crash(plan);
            let crashed = db.snapshot();
            assert!(crashed.is_err(), "{plan:?} must kill the snapshot");
            let recovered = DurableKb::open_with_shards(dir.path(), Some(3)).unwrap();
            assert_kb_equal(
                recovered.kb(),
                &shadow,
                &format!("{plan:?} prior_snapshot {prior_snapshot}"),
            );
            // The generation actually committed depends on where the
            // kill landed relative to the manifest rename (the commit
            // point): cleanup and WAL rotation run after it, so a kill
            // there still commits.
            let committed = recovered.recovery_stats().generation;
            let base = u64::from(prior_snapshot);
            if plan.point.snapshot_commits() {
                assert_eq!(committed, base + 1, "{plan:?}: rename landed, gen commits");
            } else {
                assert_eq!(committed, base, "{plan:?}: rename lost, old gen stays");
            }
        }
    }
}

/// Once a crash fires, the handle is dead: every operation errors with
/// `Crashed` and mutates nothing on disk or in memory.
#[test]
fn dead_handle_refuses_everything() {
    let dir = TempDir::new("crash-dead");
    let db = DurableKb::open(dir.path()).unwrap();
    db.feed(&(0..10).map(entry).collect::<Vec<_>>()).unwrap();
    db.arm_crash(CrashPlan::at(CrashPoint::BeforeWalAppend));
    assert!(db.upsert(entry(99)).is_err());

    let len_before = db.kb().len();
    assert!(matches!(db.upsert(entry(50)), Err(PersistError::Crashed)));
    assert!(matches!(db.feed(&[entry(51)]), Err(PersistError::Crashed)));
    assert!(matches!(db.snapshot(), Err(PersistError::Crashed)));
    assert_eq!(db.kb().len(), len_before, "dead handle mutated memory");

    // And the dead handle left disk exactly at the committed state.
    let recovered = DurableKb::open(dir.path()).unwrap();
    let shadow = KnowledgeBase::new();
    shadow.feed((0..10).map(entry));
    assert_kb_equal(recovered.kb(), &shadow, "dead handle");
}

/// Crash, recover, keep writing, crash again, recover again: the WAL
/// truncation after a torn tail must leave a cleanly appendable log.
#[test]
fn recover_continue_recover_again() {
    let dir = TempDir::new("crash-cycle");
    let shadow = KnowledgeBase::with_shards(1);

    let db = DurableKb::open_with_shards(dir.path(), Some(4)).unwrap();
    for i in 0..6 {
        apply_op(&db, &shadow, i).unwrap();
    }
    db.arm_crash(CrashPlan::at(CrashPoint::MidWalRecord));
    assert!(db.upsert(entry(70)).is_err()); // lost: shadow skips it
    drop(db);

    // First recovery drops the torn tail, then keeps appending.
    let db = DurableKb::open_with_shards(dir.path(), Some(2)).unwrap();
    assert!(db.recovery_stats().torn_tail);
    assert_kb_equal(db.kb(), &shadow, "after first recovery");
    for i in 6..12 {
        apply_op(&db, &shadow, i).unwrap();
    }
    db.snapshot().unwrap();
    for i in 12..15 {
        apply_op(&db, &shadow, i).unwrap();
    }
    db.arm_crash(CrashPlan::at(CrashPoint::MidWalRecord));
    assert!(db.feed(&[entry(80), entry(81)]).is_err()); // lost again
    drop(db);

    let db = DurableKb::open_with_shards(dir.path(), Some(5)).unwrap();
    let stats = db.recovery_stats();
    assert!(stats.torn_tail);
    assert_eq!(stats.generation, 1);
    // Replay covers exactly the three post-snapshot ops.
    assert_eq!(stats.replayed_records, 3);
    assert_kb_equal(db.kb(), &shadow, "after second recovery");
}

/// A crash between arming and the manifest rename must leave the *old*
/// manifest fully intact — the previous generation keeps serving.
#[test]
fn failed_snapshot_preserves_previous_generation() {
    let dir = TempDir::new("crash-prevgen");
    let db = DurableKb::open_with_shards(dir.path(), Some(2)).unwrap();
    db.feed(&(0..30).map(entry).collect::<Vec<_>>()).unwrap();
    let first = db.snapshot().unwrap();
    assert_eq!(first.generation, 1);
    db.feed(&(30..40).map(entry).collect::<Vec<_>>()).unwrap();
    db.arm_crash(CrashPlan::at(CrashPoint::BeforeManifestRename));
    assert!(db.snapshot().is_err());
    drop(db);

    let recovered = DurableKb::open(dir.path()).unwrap();
    let stats = recovered.recovery_stats();
    assert_eq!(stats.generation, 1, "old generation stays committed");
    assert_eq!(stats.snapshot_entries, 30);
    let shadow = KnowledgeBase::new();
    shadow.feed((0..40).map(entry));
    assert_kb_equal(recovered.kb(), &shadow, "previous generation");
}

/// Injected transient append failures (the ENOSPC/EIO shape): the
/// failed append's partial bytes are rolled back, the handle stays
/// alive, and a retry lands after the valid prefix — recovery never
/// sees mid-file garbage from a failed-then-retried append.
#[test]
fn torn_append_faults_roll_back_and_retry_cleanly() {
    let dir = TempDir::new("torn-append");
    let db = DurableKb::open_with_shards(dir.path(), Some(2)).unwrap();
    let shadow = KnowledgeBase::with_shards(1);
    for i in 0..5 {
        apply_op(&db, &shadow, i).unwrap();
    }

    db.arm_torn_append_faults(2);
    assert!(matches!(db.upsert(entry(60)), Err(PersistError::Io { .. })));
    assert!(!db.crashed(), "a transient fault must not kill the handle");
    assert!(matches!(
        db.feed(&[entry(61)]),
        Err(PersistError::Io { .. })
    ));

    // Retries append after valid records, never after fault residue.
    db.upsert(entry(60)).unwrap();
    shadow.upsert(entry(60));
    db.feed(&[entry(61), entry(62)]).unwrap();
    shadow.feed([entry(61), entry(62)]);
    drop(db);

    let recovered = DurableKb::open_with_shards(dir.path(), Some(3)).unwrap();
    assert!(
        !recovered.recovery_stats().torn_tail,
        "rollback must leave no torn bytes behind"
    );
    assert_kb_equal(recovered.kb(), &shadow, "after torn-append retries");
}

/// Concurrent snapshot calls serialize: under parallel writers taking
/// overlapping snapshots, every generation commits a consistent file
/// set and recovery reproduces all acknowledged writes.
#[test]
fn concurrent_snapshots_never_lose_a_generation() {
    use std::sync::Arc;
    const WRITERS: u32 = 3;
    const OPS: u32 = 40;
    let dir = TempDir::new("snap-race");
    let db = Arc::new(DurableKb::open_with_shards(dir.path(), Some(4)).unwrap());

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    db.upsert(entry(w * 100 + i)).unwrap();
                    if i % 8 == 0 {
                        db.snapshot().unwrap();
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // 5 snapshots per writer, serialized, plus this one: generations
    // are never skipped or double-assigned.
    let last = db.snapshot().unwrap();
    assert_eq!(last.generation, u64::from(WRITERS) * 5 + 1);
    drop(db);

    let recovered = DurableKb::open_with_shards(dir.path(), Some(2)).unwrap();
    let shadow = KnowledgeBase::with_shards(1);
    for w in 0..WRITERS {
        shadow.feed((0..OPS).map(|i| entry(w * 100 + i)));
    }
    assert_kb_equal(recovered.kb(), &shadow, "after concurrent snapshots");
}

/// Proptest: random interleavings of upserts, feeds, snapshots
/// and one crash at a random point/occurrence — recovery always equals
/// the committed shadow.
#[derive(Debug, Clone)]
enum Op {
    Upsert(u32, i64),
    Feed(Vec<u32>),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..40, 0i64..100)
            .prop_map(|(id, at)| Op::Upsert(id, at))
            .boxed(),
        (0u32..40, 50i64..150)
            .prop_map(|(id, at)| Op::Upsert(id, at))
            .boxed(),
        proptest::collection::vec(0u32..40, 1..6)
            .prop_map(Op::Feed)
            .boxed(),
        Just(Op::Snapshot).boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_recover_committed_state(
        ops in proptest::collection::vec(op_strategy(), 1..25),
        point_idx in 0usize..CrashPoint::ALL.len(),
        occurrence in 1u32..4,
        writer_shards in 1usize..6,
        recover_shards in 1usize..6,
    ) {
        let point = CrashPoint::ALL[point_idx];
        let dir = TempDir::new("crash-prop");
        let db = DurableKb::open_with_shards(dir.path(), Some(writer_shards)).unwrap();
        let shadow = KnowledgeBase::with_shards(1);
        db.arm_crash(CrashPlan::at_occurrence(point, occurrence));

        for (step, op) in ops.iter().enumerate() {
            let minute = step as i64 + 1;
            // Apply to the durable store first; mirror into the shadow
            // only if the op survives (WAL append completed).
            let committed = match op {
                Op::Upsert(id, at) => db.upsert(entry_at(*id, *at)).map(|_| ()),
                Op::Feed(ids) => {
                    let batch: Vec<_> =
                        ids.iter().map(|id| entry_at(*id, minute)).collect();
                    db.feed(&batch).map(|_| ())
                }
                Op::Snapshot => db.snapshot().map(|_| ()),
            };
            let survived = committed.is_ok()
                || (db.crashed() && point.op_survives());
            if survived {
                match op {
                    Op::Upsert(id, at) => { shadow.upsert(entry_at(*id, *at)); }
                    Op::Feed(ids) => {
                        shadow.feed(ids.iter().map(|id| entry_at(*id, minute)));
                    }
                    Op::Snapshot => {}
                }
            }
            if committed.is_err() {
                break;
            }
        }

        let recovered =
            DurableKb::open_with_shards(dir.path(), Some(recover_shards)).unwrap();
        assert_kb_equal(recovered.kb(), &shadow, &format!("{point:?} x{occurrence}"));
    }
}
