//! The binary wire format shared by the WAL and the snapshot files.
//!
//! Two layers:
//!
//! - **Entries**: one [`WorkloadKnowledge`] is a fixed [`ENTRY_BYTES`]-byte
//!   little-endian record. Floats are stored as raw IEEE-754 bits
//!   (`f64::to_bits`), so a restored KB is bit-identical to the one that
//!   was written — no decimal formatting loss.
//! - **Frames**: every durable record (a WAL append, a snapshot header,
//!   one snapshot entry) is wrapped as
//!   `[payload len: u32 LE][crc32(payload): u32 LE][payload]`. The CRC
//!   makes any bit flip loud; the length prefix makes a torn final
//!   write (a crash mid-append) distinguishable from corruption.

use super::PersistError;
use crate::knowledge::{LifetimeClass, WorkloadKnowledge};
use cloudscope_analysis::UtilizationPattern;
use cloudscope_model::durable::{crc32, Dec, Enc};
use cloudscope_model::ids::SubscriptionId;
use cloudscope_model::subscription::CloudKind;
use cloudscope_model::time::SimTime;

/// Size of one encoded [`WorkloadKnowledge`].
pub(crate) const ENTRY_BYTES: usize = 64;

/// Frame header: payload length (u32) + payload CRC-32 (u32).
pub(crate) const FRAME_HEADER: usize = 8;

/// Ceiling on a single frame's payload. Nothing legitimate comes close
/// (the largest payload is one extraction batch); a length beyond this
/// is a corrupted length field, not a torn write.
pub(crate) const MAX_FRAME: usize = 1 << 26; // 64 MiB

/// Appends the fixed-width encoding of `k` to `out`.
pub(crate) fn encode_entry(k: &WorkloadKnowledge, out: &mut Enc) {
    out.put_u32(k.subscription.index());
    out.put_u8(match k.cloud {
        CloudKind::Private => 0,
        CloudKind::Public => 1,
    });
    out.put_u8(match k.pattern {
        None => 0,
        Some(UtilizationPattern::Diurnal) => 1,
        Some(UtilizationPattern::Stable) => 2,
        Some(UtilizationPattern::Irregular) => 3,
        Some(UtilizationPattern::HourlyPeak) => 4,
    });
    out.put_u8(match k.lifetime {
        LifetimeClass::MostlyShort => 0,
        LifetimeClass::Mixed => 1,
        LifetimeClass::MostlyLong => 2,
    });
    out.put_u8(match k.region_agnostic {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    out.put_f64(k.mean_util);
    out.put_f64(k.p95_util);
    out.put_f64(k.util_cv);
    out.put_u64(k.regions as u64);
    out.put_u64(k.vm_count as u64);
    out.put_u64(k.cores);
    out.put_i64(k.updated_at.minutes());
}

/// Decodes the next [`ENTRY_BYTES`] of `d` as one entry (fields are
/// read in declaration order, which is the byte order).
///
/// # Errors
/// A description of the short or malformed field. The CRC catches
/// random corruption before this runs; decode errors mean format drift.
pub(crate) fn decode_entry(d: &mut Dec<'_>) -> Result<WorkloadKnowledge, String> {
    Ok(WorkloadKnowledge {
        subscription: SubscriptionId::new(d.take_u32()?),
        cloud: match d.take_u8()? {
            0 => CloudKind::Private,
            1 => CloudKind::Public,
            other => return Err(format!("unknown cloud tag {other}")),
        },
        pattern: match d.take_u8()? {
            0 => None,
            1 => Some(UtilizationPattern::Diurnal),
            2 => Some(UtilizationPattern::Stable),
            3 => Some(UtilizationPattern::Irregular),
            4 => Some(UtilizationPattern::HourlyPeak),
            other => return Err(format!("unknown pattern tag {other}")),
        },
        lifetime: match d.take_u8()? {
            0 => LifetimeClass::MostlyShort,
            1 => LifetimeClass::Mixed,
            2 => LifetimeClass::MostlyLong,
            other => return Err(format!("unknown lifetime tag {other}")),
        },
        region_agnostic: match d.take_u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            other => return Err(format!("unknown region_agnostic tag {other}")),
        },
        mean_util: d.take_f64()?,
        p95_util: d.take_f64()?,
        util_cv: d.take_f64()?,
        regions: d.take_u64()? as usize,
        vm_count: d.take_u64()? as usize,
        cores: d.take_u64()?,
        updated_at: SimTime::from_minutes(d.take_i64()?),
    })
}

/// Wraps `payload` as one frame and appends it to `out`.
pub(crate) fn append_frame(out: &mut Enc, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.put_u32(payload.len() as u32);
    out.put_u32(crc32(payload));
    out.put_slice(payload);
}

/// Outcome of reading the frame at one position.
#[derive(Debug)]
pub(crate) enum FrameOutcome<'a> {
    /// A complete, checksum-valid frame: its payload and the position of
    /// the next frame.
    Frame(&'a [u8], usize),
    /// The buffer ends before this frame completes — the torn tail a
    /// crash mid-append leaves behind. Only legitimate at the very end
    /// of a WAL; snapshot files are renamed into place whole, so their
    /// readers escalate this to corruption.
    TornTail,
    /// Clean end of the buffer: no more frames.
    End,
}

/// Reads the frame starting at `pos`. `record` is the 1-based ordinal
/// of this frame in `file`, used to point error messages at the
/// offending record. A read the checked decoder refuses is a frame cut
/// short: the torn tail.
pub(crate) fn next_frame<'a>(
    buf: &'a [u8],
    pos: usize,
    file: &str,
    record: u64,
) -> Result<FrameOutcome<'a>, PersistError> {
    if pos == buf.len() {
        return Ok(FrameOutcome::End);
    }
    let mut d = Dec::new(&buf[pos..]);
    let (Ok(len), Ok(crc)) = (d.take_u32(), d.take_u32()) else {
        return Ok(FrameOutcome::TornTail);
    };
    let len = len as usize;
    if len > MAX_FRAME {
        // A torn write can truncate a frame but never mint an absurd
        // length: the 4 length bytes are either all present or short
        // (caught above). This is a corrupted length field.
        return Err(PersistError::Corrupt {
            file: file.to_owned(),
            record,
            reason: format!("implausible record length {len} at byte {pos}"),
        });
    }
    let Ok(payload) = d.take_slice(len) else {
        return Ok(FrameOutcome::TornTail);
    };
    let actual = crc32(payload);
    if actual != crc {
        return Err(PersistError::Corrupt {
            file: file.to_owned(),
            record,
            reason: format!(
                "checksum mismatch at byte {pos} (stored {crc:#010x}, computed {actual:#010x})"
            ),
        });
    }
    Ok(FrameOutcome::Frame(payload, pos + d.position()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32) -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(id),
            cloud: CloudKind::Public,
            pattern: Some(UtilizationPattern::HourlyPeak),
            lifetime: LifetimeClass::Mixed,
            mean_util: 12.345_678_901_234_567,
            p95_util: f64::MIN_POSITIVE,
            util_cv: 1.0e300,
            regions: 3,
            region_agnostic: Some(false),
            vm_count: usize::MAX >> 1,
            cores: u64::MAX,
            updated_at: SimTime::from_minutes(-123_456),
        }
    }

    #[test]
    fn entry_roundtrip_is_bit_exact() {
        let k = entry(7);
        let mut e = Enc::default();
        encode_entry(&k, &mut e);
        assert_eq!(e.as_slice().len(), ENTRY_BYTES);
        let back = decode_entry(&mut Dec::new(e.as_slice())).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.mean_util.to_bits(), k.mean_util.to_bits());
        assert_eq!(back.util_cv.to_bits(), k.util_cv.to_bits());
    }

    #[test]
    fn unknown_enum_tags_are_rejected() {
        let mut e = Enc::default();
        encode_entry(&entry(1), &mut e);
        let buf = e.into_vec();
        for (at, what) in [
            (4, "cloud"),
            (5, "pattern"),
            (6, "lifetime"),
            (7, "region_agnostic"),
        ] {
            let mut bad = buf.clone();
            bad[at] = 0xEE;
            let err = decode_entry(&mut Dec::new(&bad)).unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn frame_roundtrip_and_corruption() {
        let mut e = Enc::default();
        append_frame(&mut e, b"hello");
        append_frame(&mut e, b"world!");
        let buf = e.into_vec();
        let FrameOutcome::Frame(p1, next) = next_frame(&buf, 0, "t", 1).unwrap() else {
            panic!("first frame reads");
        };
        assert_eq!(p1, b"hello");
        let FrameOutcome::Frame(p2, end) = next_frame(&buf, next, "t", 2).unwrap() else {
            panic!("second frame reads");
        };
        assert_eq!(p2, b"world!");
        assert!(matches!(
            next_frame(&buf, end, "t", 3).unwrap(),
            FrameOutcome::End
        ));

        // Any flipped payload byte trips the CRC with the record number.
        let mut bad = buf.clone();
        bad[FRAME_HEADER + 1] ^= 0x40;
        let err = next_frame(&bad, 0, "wal.log", 1).unwrap_err();
        assert!(err.to_string().contains("record 1"), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // A truncated tail is torn, not corrupt.
        assert!(matches!(
            next_frame(&buf[..buf.len() - 3], next, "t", 2).unwrap(),
            FrameOutcome::TornTail
        ));
        assert!(matches!(
            next_frame(&buf[..3], 0, "t", 1).unwrap(),
            FrameOutcome::TornTail
        ));
    }

    #[test]
    fn implausible_length_is_corruption_not_torn_tail() {
        let mut e = Enc::default();
        append_frame(&mut e, b"payload");
        let mut buf = e.into_vec();
        buf[3] = 0xFF; // length's high byte: claims a ~4 GiB record
        let err = next_frame(&buf, 0, "wal.log", 4).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 4"), "{msg}");
        assert!(msg.contains("implausible record length"), "{msg}");
    }
}
