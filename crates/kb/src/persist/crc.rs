//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`): the
//! checksum every framed record in the WAL, the snapshot files, and the
//! manifest carries. Table-driven, generated at compile time — no
//! dependency, stable across platforms.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// One 256-entry lookup table, built at compile time.
const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing-by-8: `TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight input bytes fold into the state
/// with eight independent lookups instead of eight dependent ones.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [make_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// A CRC-32 in progress: `update` may be called any number of times,
/// and `value` read between calls — the checksum of a prefix and of
/// the whole come from one pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// The state before any byte (initial value `!0`).
    pub(crate) const fn new() -> Self {
        Self(!0)
    }

    /// Folds `data` into the state.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let mut crc = self.0;
        let (words, tail) = data.as_chunks::<8>();
        for w in words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &byte in tail {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of everything folded in so far (final XOR `!0`).
    pub(crate) const fn value(self) -> u32 {
        !self.0
    }
}

/// CRC-32 of `data` (initial value `!0`, final XOR `!0` — the standard
/// "CRC-32/ISO-HDLC" parameters, matching zlib's `crc32`).
#[must_use]
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the sliced form replaced, kept as its
    /// oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = make_table();
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"cloudscope-kb durability layer".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn a_continued_state_equals_one_pass_at_every_split() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            assert_eq!(crc.value(), crc32(&data[..split]), "prefix {split}");
            crc.update(&data[split..]);
            assert_eq!(crc.value(), whole, "split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sliced_equals_bytewise_at_every_alignment(
            buf in prop::collection::vec(0u8..=255, 0..=4_108usize),
        ) {
            // The buffer's own address is whatever the allocator gave;
            // sliding the start over eight offsets visits every
            // alignment of the eight-byte words within it.
            for skip in 0..8.min(buf.len() + 1) {
                let data = &buf[skip..];
                prop_assert_eq!(crc32(data), crc32_bytewise(data), "skip {}", skip);
            }
        }
    }
}
