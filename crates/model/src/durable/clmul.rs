//! The CRC-32 fold by carry-less multiplication: 64 bytes per step
//! with PCLMULQDQ, four 128-bit lanes folded in parallel, then one lane,
//! then a Barrett reduction to the 32-bit state — the method of Intel's
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" for the reflected IEEE polynomial, with the constants
//! zlib, Linux `crc32-pclmul` and the `crc32fast` crate use.
//!
//! The fold runs only where the CPU reports `pclmulqdq` and `sse4.1` at
//! run time; it takes the longest whole-16-byte prefix of at least
//! [`FOLD_MIN`] bytes and hands the rest back to the slice-by-8 table,
//! which is also the whole checksum on every other target. Both paths
//! compute the same CRC-32/ISO-HDLC register.
//!
//! The crate denies `unsafe`; this module holds its one `unsafe` block,
//! the call into the `#[target_feature]` function after detection. The
//! kernel itself is safe code: it reads its input through
//! `u64::from_le_bytes`, not through pointers.

/// Shortest input the fold takes: the four lanes it loads at once.
/// A shorter one is cheaper through the table.
const FOLD_MIN: usize = 64;

/// Folds the longest 16-byte-multiple prefix of `data` (if it holds at
/// least [`FOLD_MIN`] bytes and the CPU has the instructions) into the
/// CRC register `state`. Returns the new register and the bytes still
/// to fold.
#[cfg(target_arch = "x86_64")]
pub(super) fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
    if data.len() < FOLD_MIN
        || !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
    {
        return (state, data);
    }
    let (body, tail) = data.split_at(data.len() & !15);
    // SAFETY: `pclmul::fold` needs `pclmulqdq` and `sse4.1`, both
    // detected on this CPU just above.
    let state = unsafe { pclmul::fold(state, body) };
    (state, tail)
}

/// No carry-less multiply on this target: the table folds everything.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
    (state, data)
}

#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128+32) and x^(4·128−32) mod P, reflected: one step of the
    /// four-lane fold, 64 bytes ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P, reflected: one lane, 16 bytes
    /// ahead; K4 also folds 128 bits to 96.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P, reflected: 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P′ and the Barrett constant μ′ = ⌊x^64 / P⌋,
    /// both reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Folds `data` — a multiple of 16 bytes, at least 64 — into the
    /// register `state`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, data: &[u8]) -> u32 {
        let (lanes, rest) = data.as_chunks::<16>();
        debug_assert!(rest.is_empty());
        let (head, lanes) = lanes.split_at(4);
        let mut x = [
            load(&head[0]),
            load(&head[1]),
            load(&head[2]),
            load(&head[3]),
        ];
        // The register enters as the first four bytes' XOR mask.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, lanes) = lanes.as_chunks::<4>();
        for quad in quads {
            for (acc, lane) in x.iter_mut().zip(quad) {
                *acc = fold_lane(*acc, load(lane), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_lane(x[0], x[1], k3k4);
        acc = fold_lane(acc, x[2], k3k4);
        acc = fold_lane(acc, x[3], k3k4);
        for lane in lanes {
            acc = fold_lane(acc, load(lane), k3k4);
        }

        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett reduction to 32 bits, in the reflected domain: the
        // remainder is the upper half of the 64-bit result.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32
    }

    /// `acc` carried 128 bits ahead by `keys` (low half × low key, high
    /// half × high key), added to the lane `next` it lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Sixteen bytes as a little-endian 128-bit lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let (lo, hi) = bytes.split_at(8);
        let word = |half: &[u8]| {
            i64::from_le_bytes([
                half[0], half[1], half[2], half[3], half[4], half[5], half[6], half[7],
            ])
        };
        _mm_set_epi64x(word(hi), word(lo))
    }
}
