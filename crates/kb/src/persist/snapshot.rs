//! Per-shard snapshot files and the manifest that commits a generation.
//!
//! A snapshot of generation `g` over `S` shards is the file set
//! `snap-<g>-<shard>.snap` for `shard` in `0..S`, plus the `MANIFEST`
//! that names `g`, `S`, and the WAL byte offset the snapshot captured.
//! Each shard file is written to a `.tmp` sibling, fsynced, and
//! atomically renamed; the manifest rename is the commit point — until
//! it lands, recovery keeps using the previous generation (or the bare
//! WAL), so a crash anywhere mid-snapshot is harmless.
//!
//! Shard files are containers of entries, nothing more: recovery feeds
//! every entry of every file into the new store, so the shard count of
//! the *writing* process never constrains the shard count of the
//! *recovering* one.

use super::codec::{self, FrameOutcome};
use super::PersistError;
use crate::knowledge::WorkloadKnowledge;
use cloudscope_model::durable::{Dec, Enc};

/// Magic prefix of a shard snapshot file.
pub(crate) const SNAP_MAGIC: &[u8; 8] = b"CSKBSNP1";

/// Magic prefix of the manifest.
pub(crate) const MANIFEST_MAGIC: &[u8; 8] = b"CSKBMAN2";

/// The manifest's file name inside a durable KB directory.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// The file name of shard `shard` in generation `generation`.
pub(crate) fn shard_file_name(generation: u64, shard: usize) -> String {
    format!("snap-{generation}-{shard}.snap")
}

/// The committed durable state: which snapshot generation is live and
/// where its WAL cut sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Snapshot generation the manifest commits (starts at 1).
    pub generation: u64,
    /// Number of shard files in that generation.
    pub shard_files: u32,
    /// Segment sequence of the WAL the cut was taken in: `wal_offset`
    /// is only meaningful inside that segment. A log whose header
    /// carries `generation` instead was rotated after this manifest
    /// committed and replays from its own start.
    pub wal_seq: u64,
    /// WAL byte offset the snapshot captured: replay starts here.
    pub wal_offset: u64,
}

/// Byte length of the manifest's framed payload.
const MANIFEST_PAYLOAD: usize = 28;

/// Serializes a manifest (magic + one framed payload).
pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut payload = Enc::with_capacity(MANIFEST_PAYLOAD);
    payload.put_u64(m.generation);
    payload.put_u32(m.shard_files);
    payload.put_u64(m.wal_seq);
    payload.put_u64(m.wal_offset);
    let mut buf = Enc::default();
    buf.put_slice(MANIFEST_MAGIC);
    codec::append_frame(&mut buf, payload.as_slice());
    buf.into_vec()
}

/// Parses a manifest file's bytes. The manifest is renamed into place
/// whole, so *any* defect — bad magic, torn frame, bad checksum — is
/// corruption, never tolerated truncation.
pub(crate) fn decode_manifest(buf: &[u8], file: &str) -> Result<Manifest, PersistError> {
    let malformed = |reason: String| PersistError::Malformed {
        file: file.to_owned(),
        reason,
    };
    if buf.len() < MANIFEST_MAGIC.len() || &buf[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(malformed(
            "bad magic (not a cloudscope KB manifest)".to_owned(),
        ));
    }
    let payload = match codec::next_frame(buf, MANIFEST_MAGIC.len(), file, 1)? {
        FrameOutcome::Frame(payload, next) => {
            if next != buf.len() {
                return Err(malformed(format!(
                    "{} trailing bytes after the manifest record",
                    buf.len() - next
                )));
            }
            payload
        }
        FrameOutcome::TornTail | FrameOutcome::End => {
            return Err(malformed("truncated manifest record".to_owned()));
        }
    };
    if payload.len() != MANIFEST_PAYLOAD {
        return Err(malformed(format!(
            "manifest payload is {} bytes, expected {MANIFEST_PAYLOAD}",
            payload.len()
        )));
    }
    let mut d = Dec::new(payload);
    Ok(Manifest {
        generation: d.take_u64().map_err(malformed)?,
        shard_files: d.take_u32().map_err(malformed)?,
        wal_seq: d.take_u64().map_err(malformed)?,
        wal_offset: d.take_u64().map_err(malformed)?,
    })
}

/// Serializes one shard's snapshot: magic, a framed header
/// (generation, shard index, entry count), then one frame per entry.
pub(crate) fn encode_shard_snapshot(
    generation: u64,
    shard: usize,
    entries: &[WorkloadKnowledge],
) -> Vec<u8> {
    let mut buf = Enc::default();
    buf.put_slice(SNAP_MAGIC);
    let mut header = Enc::with_capacity(16);
    header.put_u64(generation);
    header.put_u32(shard as u32);
    header.put_u32(entries.len() as u32);
    codec::append_frame(&mut buf, header.as_slice());
    for k in entries {
        let mut entry = Enc::with_capacity(codec::ENTRY_BYTES);
        codec::encode_entry(k, &mut entry);
        codec::append_frame(&mut buf, entry.as_slice());
    }
    buf.into_vec()
}

/// Parses one shard snapshot file, validating generation and shard
/// index against what the manifest led us to expect. Snapshot files are
/// renamed into place whole, so torn frames are corruption here.
pub(crate) fn decode_shard_snapshot(
    buf: &[u8],
    file: &str,
    expect_generation: u64,
    expect_shard: usize,
) -> Result<Vec<WorkloadKnowledge>, PersistError> {
    let malformed = |reason: String| PersistError::Malformed {
        file: file.to_owned(),
        reason,
    };
    if buf.len() < SNAP_MAGIC.len() || &buf[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(malformed(
            "bad magic (not a cloudscope KB snapshot)".to_owned(),
        ));
    }
    let read_frame = |pos: usize, record: u64| -> Result<(&[u8], usize), PersistError> {
        match codec::next_frame(buf, pos, file, record)? {
            FrameOutcome::Frame(payload, next) => Ok((payload, next)),
            FrameOutcome::TornTail | FrameOutcome::End => Err(PersistError::Corrupt {
                file: file.to_owned(),
                record,
                reason: "truncated record (snapshot files must be whole)".to_owned(),
            }),
        }
    };
    let (header, mut pos) = read_frame(SNAP_MAGIC.len(), 1)?;
    if header.len() != 16 {
        return Err(malformed(format!(
            "snapshot header is {} bytes, expected 16",
            header.len()
        )));
    }
    let mut d = Dec::new(header);
    let generation = d.take_u64().map_err(malformed)?;
    let shard = d.take_u32().map_err(malformed)? as usize;
    let count = d.take_u32().map_err(malformed)? as usize;
    if generation != expect_generation || shard != expect_shard {
        return Err(malformed(format!(
            "snapshot header names generation {generation} shard {shard}, \
             manifest expects generation {expect_generation} shard {expect_shard}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        // Record 1 is the header; entry i (0-based) is record i + 2.
        let record = i as u64 + 2;
        let (payload, next) = read_frame(pos, record)?;
        if payload.len() != codec::ENTRY_BYTES {
            return Err(PersistError::Corrupt {
                file: file.to_owned(),
                record,
                reason: format!(
                    "entry record is {} bytes, expected {}",
                    payload.len(),
                    codec::ENTRY_BYTES
                ),
            });
        }
        entries.push(
            codec::decode_entry(&mut Dec::new(payload)).map_err(|reason| {
                PersistError::Corrupt {
                    file: file.to_owned(),
                    record,
                    reason,
                }
            })?,
        );
        pos = next;
    }
    if pos != buf.len() {
        return Err(malformed(format!(
            "{} trailing bytes after the declared {count} entries",
            buf.len() - pos
        )));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::LifetimeClass;
    use cloudscope_model::ids::SubscriptionId;
    use cloudscope_model::prelude::{CloudKind, SimTime};

    fn entry(id: u32) -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud: CloudKind::Private,
            pattern: None,
            lifetime: LifetimeClass::MostlyLong,
            mean_util: 1.0 / 3.0,
            p95_util: 2.0 / 3.0,
            util_cv: 0.1,
            regions: 2,
            region_agnostic: Some(true),
            vm_count: 5,
            cores: 20,
            updated_at: SimTime::from_minutes(100),
        }
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let m = Manifest {
            generation: 3,
            shard_files: 8,
            wal_seq: 2,
            wal_offset: 4096,
        };
        let buf = encode_manifest(&m);
        assert_eq!(decode_manifest(&buf, MANIFEST_FILE).unwrap(), m);
        // Every single-byte flip must fail loudly.
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert!(
                decode_manifest(&bad, MANIFEST_FILE).is_err(),
                "flip at byte {at} accepted"
            );
        }
        // Truncation too: a manifest is atomic or absent, never partial.
        for cut in 0..buf.len() {
            assert!(decode_manifest(&buf[..cut], MANIFEST_FILE).is_err());
        }
    }

    #[test]
    fn shard_snapshot_roundtrip() {
        let entries: Vec<WorkloadKnowledge> = (0..17).map(entry).collect();
        let buf = encode_shard_snapshot(2, 5, &entries);
        let back = decode_shard_snapshot(&buf, "snap-2-5.snap", 2, 5).unwrap();
        assert_eq!(back, entries);
        // Empty shards are legitimate.
        let empty = encode_shard_snapshot(2, 6, &[]);
        assert_eq!(decode_shard_snapshot(&empty, "s", 2, 6).unwrap(), vec![]);
    }

    #[test]
    fn shard_snapshot_rejects_every_byte_flip() {
        let entries: Vec<WorkloadKnowledge> = (0..4).map(entry).collect();
        let buf = encode_shard_snapshot(1, 0, &entries);
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x04;
            assert!(
                decode_shard_snapshot(&bad, "snap-1-0.snap", 1, 0).is_err(),
                "flip at byte {at} accepted"
            );
        }
    }

    #[test]
    fn corrupt_entry_errors_name_the_record() {
        let entries: Vec<WorkloadKnowledge> = (0..5).map(entry).collect();
        let buf = encode_shard_snapshot(1, 0, &entries);
        // Locate the third entry's frame: magic + header frame + 2 entry
        // frames, then its own header.
        let header_frame = codec::FRAME_HEADER + 16;
        let entry_frame = codec::FRAME_HEADER + codec::ENTRY_BYTES;
        let third = SNAP_MAGIC.len() + header_frame + 2 * entry_frame + codec::FRAME_HEADER;
        let mut bad = buf.clone();
        bad[third + 10] ^= 0x80;
        let err = decode_shard_snapshot(&bad, "snap-1-0.snap", 1, 0).unwrap_err();
        let msg = err.to_string();
        // Header is record 1, so the third entry is record 4.
        assert!(msg.contains("record 4"), "{msg}");
        assert!(msg.contains("snap-1-0.snap"), "{msg}");
    }

    #[test]
    fn generation_and_shard_mismatches_are_rejected() {
        let buf = encode_shard_snapshot(7, 3, &[entry(1)]);
        assert!(decode_shard_snapshot(&buf, "s", 8, 3).is_err());
        assert!(decode_shard_snapshot(&buf, "s", 7, 2).is_err());
        assert!(decode_shard_snapshot(&buf, "s", 7, 3).is_ok());
    }
}
