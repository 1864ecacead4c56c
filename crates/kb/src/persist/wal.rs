//! The write-ahead log: one append-only file (`wal.log`) of framed
//! records, written *before* the in-memory store applies an operation.
//! Replaying the log from any snapshot cut reproduces the store exactly,
//! because the store's freshness rule is deterministic in feed order.
//!
//! File layout: a 16-byte header — an 8-byte magic plus a `u64` segment
//! sequence — then frames ([`codec::append_frame`]). The sequence ties
//! the log to the manifest across rotations: after a snapshot commits,
//! [`DurableKb`](super::DurableKb) rewrites `wal.log` to just the
//! post-cut tail under a new sequence (the committed generation), so
//! recovery can tell "this is the segment the manifest's offset points
//! into" (sequences match: replay from the offset) from "the log was
//! rotated after the commit" (sequence equals the manifest's
//! generation: replay from the header). Each frame's payload is one
//! feed batch (tag 1), the unit of one `upsert`/`feed` call. A torn
//! final frame — the residue of a crash mid-append — is tolerated and
//! truncated on the next open; a checksum mismatch or implausible
//! length anywhere is corruption and fails loudly with the offending
//! record's number.

use super::codec::{self, FrameOutcome, ENTRY_BYTES};
use super::PersistError;
use crate::knowledge::WorkloadKnowledge;
use cloudscope_model::durable::{Dec, Enc};

/// Magic prefix of `wal.log` (also the format version marker).
pub(crate) const WAL_MAGIC: &[u8; 8] = b"CSKBWAL2";

/// Bytes before the first frame: the magic plus the `u64` segment
/// sequence.
pub(crate) const WAL_HEADER: usize = WAL_MAGIC.len() + 8;

/// The WAL's file name inside a durable KB directory.
pub(crate) const WAL_FILE: &str = "wal.log";

/// Builds a segment header carrying `seq`.
pub(crate) fn encode_header(seq: u64) -> [u8; WAL_HEADER] {
    let mut header = [0u8; WAL_HEADER];
    header[..WAL_MAGIC.len()].copy_from_slice(WAL_MAGIC);
    header[WAL_MAGIC.len()..].copy_from_slice(&seq.to_le_bytes());
    header
}

/// Record tag: a batch of upserts, applied in order.
const TAG_FEED: u8 = 1;

/// Encodes a feed batch as one record payload.
pub(crate) fn encode_feed(batch: &[WorkloadKnowledge]) -> Vec<u8> {
    let mut payload = Enc::with_capacity(5 + batch.len() * ENTRY_BYTES);
    payload.put_u8(TAG_FEED);
    payload.put_u32(batch.len() as u32);
    for k in batch {
        codec::encode_entry(k, &mut payload);
    }
    payload.into_vec()
}

/// Decodes one record payload into its feed batch. `record` is the
/// frame's 1-based ordinal in `file`, for error attribution.
pub(crate) fn decode_record(
    payload: &[u8],
    file: &str,
    record: u64,
) -> Result<Vec<WorkloadKnowledge>, PersistError> {
    let corrupt = |reason: String| PersistError::Corrupt {
        file: file.to_owned(),
        record,
        reason,
    };
    let mut d = Dec::new(payload);
    let tag = d
        .take_u8()
        .map_err(|_| corrupt("empty record payload".to_owned()))?;
    match tag {
        TAG_FEED => {
            let count = d
                .take_u32()
                .map_err(|_| corrupt("feed record shorter than its count field".to_owned()))?
                as usize;
            if d.remaining() != count * ENTRY_BYTES {
                return Err(corrupt(format!(
                    "feed record declares {count} entries but carries {} bytes",
                    d.remaining()
                )));
            }
            let mut batch = Vec::with_capacity(count);
            for i in 0..count {
                batch.push(codec::decode_entry(&mut d).map_err(|reason| {
                    corrupt(format!("feed entry {} of {count}: {reason}", i + 1))
                })?);
            }
            Ok(batch)
        }
        other => Err(corrupt(format!("unknown record tag {other}"))),
    }
}

/// Result of replaying a WAL buffer.
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Decoded feed batches from the requested offset onward, in log
    /// order.
    pub records: Vec<Vec<WorkloadKnowledge>>,
    /// Byte length of the valid log prefix (the append point after a
    /// torn tail is truncated away).
    pub valid_len: u64,
    /// `true` if a torn final record was dropped.
    pub torn_tail: bool,
}

/// Parses the segment header, returning its sequence.
///
/// # Errors
/// [`PersistError::Malformed`] for a bad magic or a file shorter than
/// the header (the header is written whole via rename, so a short one
/// is never a tolerable torn tail).
pub(crate) fn parse_seq(buf: &[u8], file: &str) -> Result<u64, PersistError> {
    let malformed = |reason: String| PersistError::Malformed {
        file: file.to_owned(),
        reason,
    };
    let mut d = Dec::new(buf);
    if d.take_slice(WAL_MAGIC.len()) != Ok(&WAL_MAGIC[..]) {
        return Err(malformed("bad magic (not a cloudscope KB WAL)".to_owned()));
    }
    d.take_u64().map_err(|_| {
        malformed(format!(
            "log is {} bytes, shorter than its {WAL_HEADER}-byte header",
            buf.len()
        ))
    })
}

/// Validates `buf` (the whole `wal.log`) and decodes every record at or
/// after byte offset `from`. Frames before `from` (already captured by
/// a snapshot) are CRC-validated but not decoded.
///
/// # Errors
/// [`PersistError::Malformed`] for a bad header or an offset that does
/// not land on a record boundary; [`PersistError::Corrupt`] (with the
/// 1-based record number) for any checksum or decode failure.
pub(crate) fn replay(buf: &[u8], from: u64, file: &str) -> Result<WalReplay, PersistError> {
    let malformed = |reason: String| PersistError::Malformed {
        file: file.to_owned(),
        reason,
    };
    parse_seq(buf, file)?;
    let from = usize::try_from(from).map_err(|_| malformed("offset beyond memory".to_owned()))?;
    if from < WAL_HEADER || from > buf.len() {
        return Err(malformed(format!(
            "snapshot cut at byte {from} is outside the log (len {})",
            buf.len()
        )));
    }
    let mut pos = WAL_HEADER;
    let mut record_no = 0u64;
    let mut records = Vec::new();
    loop {
        record_no += 1;
        match codec::next_frame(buf, pos, file, record_no)? {
            FrameOutcome::End => {
                if pos < from {
                    return Err(malformed(format!(
                        "snapshot cut at byte {from} is past the log's records"
                    )));
                }
                return Ok(WalReplay {
                    records,
                    valid_len: pos as u64,
                    torn_tail: false,
                });
            }
            FrameOutcome::TornTail => {
                if pos < from {
                    return Err(malformed(format!(
                        "snapshot cut at byte {from} lands inside a torn record"
                    )));
                }
                return Ok(WalReplay {
                    records,
                    valid_len: pos as u64,
                    torn_tail: true,
                });
            }
            FrameOutcome::Frame(payload, next) => {
                if pos >= from {
                    records.push(decode_record(payload, file, record_no)?);
                } else if next > from {
                    return Err(malformed(format!(
                        "snapshot cut at byte {from} lands inside record {record_no}"
                    )));
                }
                pos = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::LifetimeClass;
    use cloudscope_model::ids::SubscriptionId;
    use cloudscope_model::prelude::{CloudKind, SimTime};

    fn entry(id: u32, minutes: i64) -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud: CloudKind::Public,
            pattern: None,
            lifetime: LifetimeClass::MostlyShort,
            mean_util: 0.125,
            p95_util: 0.25,
            util_cv: 0.5,
            regions: 1,
            region_agnostic: None,
            vm_count: 1,
            cores: 2,
            updated_at: SimTime::from_minutes(minutes),
        }
    }

    fn log_with(records: &[Vec<WorkloadKnowledge>]) -> Vec<u8> {
        let mut buf = Enc::default();
        buf.put_slice(&encode_header(7));
        for batch in records {
            codec::append_frame(&mut buf, &encode_feed(batch));
        }
        buf.into_vec()
    }

    #[test]
    fn roundtrip_and_offset_replay() {
        let records = vec![
            vec![entry(1, 0), entry(2, 5)],
            vec![entry(1, 3)],
            vec![entry(3, 9)],
        ];
        let buf = log_with(&records);
        let all = replay(&buf, WAL_HEADER as u64, "wal.log").unwrap();
        assert_eq!(parse_seq(&buf, "wal.log").unwrap(), 7);
        assert_eq!(all.records, records);
        assert_eq!(all.valid_len, buf.len() as u64);
        assert!(!all.torn_tail);

        // Replay from the second record's boundary: first is skipped but
        // still CRC-validated.
        let first_len = log_with(&records[..1]).len() as u64;
        let tail = replay(&buf, first_len, "wal.log").unwrap();
        assert_eq!(tail.records, records[1..]);
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let records = vec![vec![entry(1, 0)], vec![entry(2, 0)]];
        let buf = log_with(&records);
        let first_len = log_with(&records[..1]).len();
        for cut in first_len + 1..buf.len() {
            let replayed = replay(&buf[..cut], WAL_HEADER as u64, "wal.log").unwrap();
            assert_eq!(replayed.records, records[..1], "cut at {cut}");
            assert_eq!(replayed.valid_len as usize, first_len);
            assert!(replayed.torn_tail);
        }
    }

    #[test]
    fn corrupt_record_errors_name_the_record_number() {
        let records = vec![vec![entry(1, 0)], vec![entry(9, 0)], vec![entry(2, 0)]];
        let mut buf = log_with(&records);
        // Flip one payload byte inside the *second* record.
        let second_start = log_with(&records[..1]).len();
        buf[second_start + codec::FRAME_HEADER] ^= 0x01;
        let err = replay(&buf, WAL_HEADER as u64, "wal.log").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("wal.log"), "{msg}");
        assert!(msg.contains("record 2"), "{msg}");
    }

    #[test]
    fn bad_magic_and_bad_offsets_are_malformed() {
        let buf = log_with(&[vec![entry(1, 0)]]);
        assert!(replay(b"NOTAWAL0AAAAAAAA", 16, "wal.log").is_err());
        // A file shorter than the header is malformed, not a torn tail.
        assert!(parse_seq(&buf[..WAL_HEADER - 3], "wal.log").is_err());
        // Offsets inside the header, inside a record, or past the end.
        for bad in [0, 3, 12, buf.len() as u64 - 1, buf.len() as u64 + 4] {
            let err = replay(&buf, bad, "wal.log").unwrap_err();
            assert!(
                matches!(err, PersistError::Malformed { .. }),
                "offset {bad}: {err}"
            );
        }
    }

    #[test]
    fn feed_count_mismatch_is_corrupt() {
        let mut payload = encode_feed(&[entry(1, 0)]);
        payload[1] = 7; // declare 7 entries, carry 1
        let err = decode_record(&payload, "wal.log", 5).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 5"), "{msg}");
        assert!(msg.contains("declares 7 entries"), "{msg}");
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        // Tag 2 once carried a removal; no writer emits it any more.
        let mut payload = vec![2];
        payload.extend_from_slice(&1u32.to_le_bytes());
        let mut buf = Enc::default();
        buf.put_slice(&encode_header(7));
        codec::append_frame(&mut buf, &payload);
        let err = replay(&buf.into_vec(), WAL_HEADER as u64, "wal.log").unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt { record: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("unknown record tag 2"), "{err}");
    }
}
