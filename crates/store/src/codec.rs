//! The store's one column codec. A column is a run of little-endian
//! words of one width, and the width picks the coding:
//!
//! | width | coding                                                     |
//! |-------|------------------------------------------------------------|
//! | 1     | stored: the bytes as they are                              |
//! | 4, 8  | each word's wrapping difference from the one before (the   |
//! |       | first from 0), zigzag-folded, as an LEB128 varint          |
//!
//! Differences wrap at the word's width, so every bit pattern
//! round-trips — an `f64` column's IEEE-754 bits included — and a
//! sorted or clustered column (ids, times, small counts) codes in a
//! byte or two per word. The coding is a function of the column's
//! bytes and width alone.
//!
//! The decoder is total: for any input it cannot decode to exactly
//! `raw_len` bytes it returns a reason string, which the caller wraps
//! into a [`crate::StoreError::Corrupt`] naming the file and chunk.
//! Before it sizes anything it refuses a `raw_len` that is not a whole
//! number of words and one that promises more words than there are
//! coded bytes (each word takes at least one), so what it allocates is
//! at most eight bytes per coded byte. A varint longer than the minimal
//! form, one whose bits overflow the width, and bytes left after the
//! last word are refused too, so a column decodes only from the coding
//! [`encode`] writes for it.

/// Appends the coding of `raw`, a column of `width`-byte words, to
/// `out`.
///
/// # Panics
/// If `width` is not 1, 4 or 8: the widths [`decode`] accepts.
pub fn encode(width: u8, raw: &[u8], out: &mut Vec<u8>) {
    match width {
        1 => out.extend_from_slice(raw),
        4 => encode_words::<4>(raw, out),
        8 => encode_words::<8>(raw, out),
        other => panic!("no column has width {other}"),
    }
}

/// Decodes a column of `width`-byte words that [`encode`] coded as
/// `coded` back to its `raw_len` raw bytes.
///
/// # Errors
/// A reason, naming the fault, when `coded` is not the coding of any
/// `raw_len`-byte column of that width, or `width` is not 1, 4 or 8.
pub fn decode(width: u8, coded: &[u8], raw_len: usize) -> Result<Vec<u8>, String> {
    match width {
        1 if coded.len() == raw_len => Ok(coded.to_vec()),
        1 => Err(format!(
            "stored column holds {} bytes, expected {raw_len}",
            coded.len()
        )),
        4 => decode_words::<4>(coded, raw_len),
        8 => decode_words::<8>(coded, raw_len),
        other => Err(format!("unknown column width {other}")),
    }
}

/// Bits a `W`-byte word is shifted left by to bring its top bit to bit 63.
const fn spare_bits<const W: usize>() -> u32 {
    64 - 8 * W as u32
}

fn encode_words<const W: usize>(raw: &[u8], out: &mut Vec<u8>) {
    let (words, rest) = raw.as_chunks::<W>();
    debug_assert!(rest.is_empty(), "a {W}-byte column of {} bytes", raw.len());
    out.reserve(words.len());
    let mut prev = 0u64;
    for word in words {
        let mut le = [0u8; 8];
        le[..W].copy_from_slice(word);
        let value = u64::from_le_bytes(le);
        // The difference as a signed `W`-byte integer, zigzag-folded so
        // a small step either way is a small number.
        let delta = ((value.wrapping_sub(prev) << spare_bits::<W>()) as i64) >> spare_bits::<W>();
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        while zigzag >= 0x80 {
            out.push(zigzag as u8 | 0x80);
            zigzag >>= 7;
        }
        out.push(zigzag as u8);
        prev = value;
    }
}

fn decode_words<const W: usize>(coded: &[u8], raw_len: usize) -> Result<Vec<u8>, String> {
    if !raw_len.is_multiple_of(W) {
        return Err(format!(
            "{raw_len} raw bytes are not a whole number of {W}-byte words"
        ));
    }
    let words = raw_len / W;
    if words > coded.len() {
        return Err(format!(
            "{words} words cannot come from {} coded bytes",
            coded.len()
        ));
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..words {
        let zigzag = take_varint::<W>(coded, &mut pos)?;
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        prev = prev.wrapping_add(delta as u64);
        out.extend_from_slice(&prev.to_le_bytes()[..W]);
    }
    if pos != coded.len() {
        return Err(format!(
            "{} trailing bytes after the column's {words} words",
            coded.len() - pos
        ));
    }
    Ok(out)
}

/// Reads one minimal LEB128 varint of at most `8 * W` bits at `pos`.
fn take_varint<const W: usize>(coded: &[u8], pos: &mut usize) -> Result<u64, String> {
    let bits = 8 * W as u32;
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = coded
            .get(*pos)
            .ok_or_else(|| "column ends inside a varint".to_owned())?;
        *pos += 1;
        let group = u64::from(byte & 0x7F);
        if shift + 7 > bits && group >> (bits - shift) != 0 {
            return Err(format!("varint overflows a {W}-byte word"));
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err("over-long varint (a zero last group)".to_owned());
            }
            return Ok(value);
        }
        shift += 7;
        if shift >= bits {
            return Err(format!("over-long varint for a {W}-byte word"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn coded(width: u8, raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(width, raw, &mut out);
        out
    }

    fn roundtrip(width: u8, raw: &[u8]) {
        let back = decode(width, &coded(width, raw), raw.len()).expect("clean column decodes");
        assert_eq!(back, raw, "width {width}, {} bytes", raw.len());
    }

    fn words_u64(values: &[u64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn words_u32(values: &[u32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn roundtrips_across_widths_and_shapes() {
        let shapes: Vec<Vec<u8>> = vec![
            vec![],
            vec![0; 4_096],
            vec![0xFF; 4_096],
            (0..=255u8).cycle().take(10_000).collect(),
            words_u64(&[0, u64::MAX, 1, u64::MAX / 2, 1 << 63, (1 << 63) - 1, 0]),
            words_u32(&[u32::MAX, 0, u32::MAX, 1 << 31, (1 << 31) - 1]),
            (0..50_000u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
                .collect(),
        ];
        for data in &shapes {
            for width in [1, 4, 8] {
                if data.len() % usize::from(width) == 0 {
                    roundtrip(width, data);
                }
            }
        }
    }

    #[test]
    fn compression_wins_on_redundant_data() {
        // Ascending ids and a constant 4-byte column: a byte a word,
        // past the first word's distance from zero.
        let ids = words_u64(&(1_000_000..1_004_096).collect::<Vec<_>>());
        assert_eq!(coded(8, &ids).len(), ids.len() / 8 + 2);
        let constant = words_u32(&[7; 4_096]);
        assert_eq!(coded(4, &constant).len(), constant.len() / 4);
    }

    #[test]
    fn a_reused_encoder_writes_what_a_fresh_one_does() {
        // A chunk codes its columns back to back into one buffer: the
        // running difference starts from 0 in each, whatever came first.
        let columns: [(u8, Vec<u8>); 4] = [
            (8, words_u64(&[u64::MAX, 3, 1 << 40])),
            (4, words_u32(&[9, 9, 2])),
            (1, vec![5, 0, 1]),
            (8, words_u64(&[17])),
        ];
        let mut shared = Vec::new();
        let mut fresh = Vec::new();
        for (width, raw) in &columns {
            encode(*width, raw, &mut shared);
            fresh.extend(coded(*width, raw));
        }
        assert_eq!(shared, fresh);
    }

    /// FNV-1a, 64-bit: the digest the coded-bytes pins are recorded in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn compressed_bytes_are_pinned() {
        // Output bytes are a function of the column and width only: a
        // store written by one commit must equal the store another
        // writes from the same trace. Clustered ids with gaps, and
        // multiplicative-hash noise that steps both ways.
        let ids: Vec<u64> = (0..20_000u64).map(|i| 40_000 + i * 3 + i % 7).collect();
        let noise: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let columns: [(u8, &[u8]); 3] = [(8, &words_u64(&ids)), (4, &noise), (8, &noise)];
        let digests = columns.map(|(width, raw)| fnv1a(&coded(width, raw)));
        assert_eq!(
            digests,
            [
                0x1a6e_9d73_24ba_3fb5,
                0x369f_09ae_3b62_19c5,
                0x2c91_4815_3c18_20db
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn truncation_always_errors() {
        let raw = words_u64(&[1, 300, 70_000, u64::MAX, 12]);
        let out = coded(8, &raw);
        for cut in 0..out.len() {
            assert!(
                decode(8, &out[..cut], raw.len()).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn wrong_raw_len_errors() {
        let raw = words_u32(&[10, 20, 30, 40]);
        let out = coded(4, &raw);
        assert!(decode(4, &out, raw.len() + 4).is_err());
        assert!(decode(4, &out, raw.len() - 4).is_err());
        assert!(decode(4, &out, raw.len() - 1).is_err());
        assert!(decode(1, &raw, raw.len() - 1).is_err());
    }

    #[test]
    fn a_length_the_stream_cannot_reach_is_refused_before_allocating() {
        // Every word takes at least one coded byte, so a declared length
        // of more words than coded bytes is refused outright and the
        // allocation is bounded by the input.
        let out = coded(8, &words_u64(&[1, 2, 3]));
        assert_eq!(out.len(), 3);
        for raw_len in [8 * 4, usize::MAX - 7] {
            let err = decode(8, &out, raw_len).unwrap_err();
            assert!(err.contains("cannot come from 3 coded bytes"), "{err}");
        }
        let err = decode(8, &out, 8 * 3 + 1).unwrap_err();
        assert!(err.contains("not a whole number of 8-byte words"), "{err}");
        // The densest column there is stays on the right side of the bound.
        let zeros = vec![0u8; 8 << 10];
        assert_eq!(coded(8, &zeros).len(), 1 << 10);
        roundtrip(8, &zeros);
    }

    #[test]
    fn an_over_long_varint_is_refused() {
        // Zero with a zero continuation group, and a 4-byte word's
        // varint running to a sixth byte.
        for (width, column) in [
            (4, vec![0x80, 0x00]),
            (8, vec![0x81, 0x80, 0x00]),
            (4, vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x00]),
            (8, vec![0x80; 11]),
        ] {
            let err = decode(width, &column, usize::from(width)).unwrap_err();
            assert!(err.contains("over-long varint"), "{column:?}: {err}");
        }
    }

    #[test]
    fn a_width_4_overflow_is_refused() {
        // Five groups carry 35 bits; a 4-byte word's zigzag has 32.
        let mut column = vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(decode(4, &column, 4), Ok(vec![0, 0, 0, 0x80]));
        column[4] = 0x10;
        let err = decode(4, &column, 4).unwrap_err();
        assert!(err.contains("overflows a 4-byte word"), "{err}");
        // The tenth byte of an 8-byte word may carry one bit.
        let mut column = vec![0xFF; 9];
        column.push(0x02);
        let err = decode(8, &column, 8).unwrap_err();
        assert!(err.contains("overflows a 8-byte word"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let raw = words_u32(&[4, 5]);
        let mut out = coded(4, &raw);
        out.push(0);
        let err = decode(4, &out, raw.len()).unwrap_err();
        assert!(
            err.contains("1 trailing bytes after the column's 2 words"),
            "{err}"
        );
    }

    #[test]
    fn hostile_blocks_never_panic() {
        let cases: Vec<(u8, Vec<u8>, usize)> = vec![
            (8, vec![], 8),
            (8, vec![0x80], 8),
            (4, vec![0xFF; 64], 64),
            (8, vec![0xFF; 64], 64),
            (2, vec![1, 2], 2),
            (0, vec![], 0),
            (1, vec![1, 2, 3], 2),
        ];
        for (width, column, raw_len) in &cases {
            assert!(decode(*width, column, *raw_len).is_err(), "{column:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn width_8_words_roundtrip(
            words in prop::collection::vec(any::<u64>(), 0..300),
            // A memory column's sizes, and arbitrary bit patterns: NaNs,
            // infinities and subnormals included.
            sizes in prop::collection::vec(0.25f64..512.0, 0..100),
            floats in prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 0..100),
        ) {
            let mut raw = words_u64(&words);
            for f in sizes.iter().chain(&floats) {
                raw.extend(f.to_bits().to_le_bytes());
            }
            let back = decode(8, &coded(8, &raw), raw.len());
            prop_assert_eq!(back, Ok(raw));
        }

        #[test]
        fn width_4_words_roundtrip(words in prop::collection::vec(any::<u32>(), 0..300)) {
            let raw = words_u32(&words);
            let back = decode(4, &coded(4, &raw), raw.len());
            prop_assert_eq!(back, Ok(raw));
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_decode_only_from_their_coding(
            column in prop::collection::vec(0u8..=255, 0..64),
        ) {
            for width in [0u8, 1, 2, 4, 8] {
                for raw_len in 0..=column.len() * 8 + 1 {
                    if let Ok(raw) = decode(width, &column, raw_len) {
                        prop_assert_eq!(raw.len(), raw_len);
                        prop_assert_eq!(coded(width, &raw), column.clone());
                    }
                }
            }
        }
    }
}
