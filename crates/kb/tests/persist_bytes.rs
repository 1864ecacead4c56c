//! The durable KB's bytes are pinned: a fixed op script — upserts, a
//! feed batch, a 4-shard snapshot, more writes, a second
//! snapshot that rotates the WAL, and a post-rotation tail — leaves a
//! directory whose digest was recorded before the KB's codec, CRC and
//! commit code moved onto the shared durable primitives (and recorded
//! again when the WAL's remove record was deleted from the script). A
//! change that moves it has changed the on-disk format.

mod common;

use cloudscope_kb::{DurableKb, KbStore};
use common::{entry, entry_at, TempDir};
use std::path::Path;

/// FNV-1a, 64-bit, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest over the directory: every file's name and bytes, in name
/// order.
fn dir_digest(dir: &Path) -> (u64, Vec<String>) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let digest = names.iter().fold(FNV_OFFSET, |h, name| {
        let h = fnv1a(h, name.as_bytes());
        fnv1a(h, &std::fs::read(dir.join(name)).unwrap())
    });
    (digest, names)
}

#[test]
fn kb_directory_bytes_are_pinned() {
    let dir = TempDir::new("pinned");
    {
        let db = DurableKb::open_with_shards(dir.path(), Some(4)).unwrap();
        for id in 1..=5 {
            db.upsert(entry(id)).unwrap();
        }
        let batch: Vec<_> = (10..30).map(entry).collect();
        db.feed(&batch).unwrap();
        let first = db.snapshot().unwrap();
        assert_eq!((first.generation, first.shard_files), (1, 4));

        db.upsert(entry_at(7, 100)).unwrap();
        assert!(db.try_upsert(entry_at(8, 200)).unwrap());
        db.feed(&[entry(40), entry(41)]).unwrap();
        let second = db.snapshot().unwrap();
        assert_eq!((second.generation, second.shard_files), (2, 4));

        // A tail the rotated segment carries past the second cut.
        db.upsert(entry(50)).unwrap();
    }

    let (digest, names) = dir_digest(dir.path());
    assert_eq!(
        names,
        [
            "MANIFEST",
            "snap-2-0.snap",
            "snap-2-1.snap",
            "snap-2-2.snap",
            "snap-2-3.snap",
            "wal.log"
        ]
    );
    assert_eq!(
        digest, 0x278f_6ca1_c5fe_6e53,
        "directory digest 0x{digest:016x}"
    );

    // The pinned directory recovers to what the script committed.
    let reopened = DurableKb::open_with_shards(dir.path(), Some(3)).unwrap();
    let stats = reopened.recovery_stats();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.replayed_records, 1);
    // 5 upserts + 20 fed + 2 upserts + 2 fed + 1 upsert.
    assert_eq!(reopened.kb().len(), 30);
}
