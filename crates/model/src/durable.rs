//! The durable-file substrate every on-disk format in the workspace
//! shares — the trace store's chunks and manifest, the knowledge base's
//! WAL, snapshots and manifest: one CRC-32, one checked little-endian
//! byte codec, and one way to commit a file durably.
//!
//! # Commit protocol
//!
//! [`write_atomic`] writes `<target>.tmp`, `sync_all`s it and renames
//! it onto `target`: a kill leaves the old `target` or the new one,
//! never a torn one, plus at worst a torn `.tmp` nobody reads. The
//! rename itself is durable only once the directory is synced, so a
//! caller committing a batch of files syncs the directory with
//! [`sync_dir`] once after the batch and before the rename that makes
//! the batch live — one sync covers every rename before it — and once
//! more after that commit rename.
//!
//! The module lives in `cloudscope-model` rather than a crate of its
//! own because both of its users already depend on this crate: a new
//! crate, or any new dependency edge, rewrites the end-to-end
//! benchmark's frozen lock file.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;

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

/// A CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) in
/// progress: `update` may be called any number of times, and `value`
/// read between calls — the checksum of a prefix and of the whole come
/// from one pass.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The state before any byte (initial value `!0`).
    #[must_use]
    pub const fn new() -> Self {
        Self(!0)
    }

    /// Folds `data` into the state.
    pub fn update(&mut self, data: &[u8]) {
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
    #[must_use]
    pub const fn value(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 of `data` (initial value `!0`, final XOR `!0` — the standard
/// "CRC-32/ISO-HDLC" parameters, matching zlib's `crc32`).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.value()
}

/// Append-only little-endian encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder with room for `cap` bytes.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern: exact round trip,
    /// no formatting loss.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed (u16) UTF-8 string.
    ///
    /// # Panics
    /// Panics if the string exceeds 64 KiB. Unreachable from the
    /// formats: their chunk and blob names are short, and the store's
    /// topology encoder rejects a longer region string with an error.
    pub fn put_str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("encoded strings fit in u16");
        self.put_u16(len);
        self.put_slice(s.as_bytes());
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Checked little-endian decoder over a byte slice. Every `take_*`
/// verifies the bytes exist first, so a truncated or bit-flipped file
/// surfaces as an error, never a panic or a misread; errors are reason
/// strings the caller wraps with file and record context.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes the next `len` bytes.
    ///
    /// # Errors
    /// Fewer than `len` bytes remain.
    pub fn take_slice(&mut self, len: usize) -> Result<&'a [u8], String> {
        if len > self.remaining() {
            return Err(format!(
                "need {len} bytes at offset {} but only {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Consumes the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let s = self.take_slice(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    /// The buffer is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take_slice(1)?[0])
    }

    /// Consumes a `u16`.
    ///
    /// # Errors
    /// Fewer than 2 bytes remain.
    pub fn take_u16(&mut self) -> Result<u16, String> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// Consumes a `u32`.
    ///
    /// # Errors
    /// Fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, String> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Consumes a `u64`.
    ///
    /// # Errors
    /// Fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, String> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Consumes an `i64`.
    ///
    /// # Errors
    /// Fewer than 8 bytes remain.
    pub fn take_i64(&mut self) -> Result<i64, String> {
        self.take_array().map(i64::from_le_bytes)
    }

    /// Consumes an `f64` stored as its IEEE-754 bit pattern.
    ///
    /// # Errors
    /// Fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, String> {
        self.take_u64().map(f64::from_bits)
    }

    /// Consumes a length-prefixed (u16) UTF-8 string.
    ///
    /// # Errors
    /// The prefix or the bytes it promises are missing, or the bytes
    /// are not UTF-8.
    pub fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u16()? as usize;
        let bytes = self.take_slice(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_owned())
    }
}

/// Commits `bytes` as `target`: writes `<target>.tmp`, `sync_all`s it
/// and renames it onto `target`. Returns the open handle, which now
/// names `target` with its cursor at the end — a log rotated this way
/// keeps appending through it. The directory is not synced: the caller
/// does that once per batch of renames ([`sync_dir`]).
///
/// # Errors
/// Any I/O error creating, writing, syncing or renaming the temp file.
/// `target` is untouched unless the rename succeeded.
pub fn write_atomic(target: &Path, bytes: &[u8]) -> std::io::Result<File> {
    let mut tmp_name = target.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = target.with_file_name(tmp_name);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, target)?;
    Ok(file)
}

/// Syncs `dir` itself, making every rename into it so far durable: a
/// rename alone only updates the in-memory directory entry on most
/// filesystems.
///
/// # Errors
/// Any I/O error opening or syncing the directory.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
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
        let data = b"cloudscope durable file".to_vec();
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

    #[test]
    fn roundtrip_all_widths() {
        let mut e = Enc::with_capacity(64);
        e.put_u8(7);
        e.put_u16(300);
        e.put_u32(70_000);
        e.put_u64(1 << 40);
        e.put_i64(-5);
        e.put_f64(-0.125);
        e.put_str("hello");
        let bytes = e.into_vec();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u16().unwrap(), 300);
        assert_eq!(d.take_u32().unwrap(), 70_000);
        assert_eq!(d.take_u64().unwrap(), 1 << 40);
        assert_eq!(d.take_i64().unwrap(), -5);
        assert_eq!(d.take_f64().unwrap(), -0.125);
        assert_eq!(d.take_str().unwrap(), "hello");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.take_u32().is_err());
        assert_eq!(d.take_u16().unwrap(), 0x0201);
        assert!(d.take_u8().is_err());
        // A length prefix larger than the buffer must not allocate.
        let mut d = Dec::new(&[0xFF, 0xFF, b'x']);
        assert!(d.take_str().is_err());
    }

    #[test]
    fn write_atomic_replaces_the_target_and_keeps_a_live_handle() {
        let dir = std::env::temp_dir().join(format!("cs-model-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("MANIFEST");
        write_atomic(&target, b"first").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        let mut handle = write_atomic(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        assert!(
            !dir.join("MANIFEST.tmp").exists(),
            "temp file must not survive a commit"
        );
        // The returned handle names the target, cursor at the end.
        handle.write_all(b"+tail").unwrap();
        drop(handle);
        assert_eq!(std::fs::read(&target).unwrap(), b"second+tail");
        sync_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
