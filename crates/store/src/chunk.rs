//! The chunk file: one `(kind, region, day, seq)` cell of the columnar
//! layout, columns coded independently so an ids-only read decodes the
//! id column alone.
//!
//! ```text
//! "CSCHUNK1"                                  8-byte file magic
//! header   version (3), kind, region, day, seq, rows,
//!          min_vm, max_vm, column count
//! directory per column: id, width, raw_len, coded_len, raw_crc
//! columns  coded columns, concatenated in directory order
//! footer   crc32 over everything above · "CSCKEND1"
//! ```
//!
//! Each column declares its word width, and [`codec`](crate::codec)
//! codes it by that width: a width-1 column (samples, priority, service
//! model, presence bytes) is stored as it is, a width-4 or width-8 one
//! as varint differences. The footer CRC covers every preceding byte,
//! so any single-bit flip anywhere in the file — header, directory,
//! columns, even inside the CRC field itself — fails validation.
//! Per-column raw CRCs re-check the *decoded* bytes, catching faults the
//! file CRC cannot see (a codec bug, a damaged buffer). A chunk of any
//! other version, the sub-block LZ format v2 included, is refused.

use crate::codec;
use crate::error::StoreError;
use cloudscope_model::durable::{crc32, Crc32, Dec, Enc};
use std::path::Path;

/// 8-byte magic opening every chunk file.
pub(crate) const CHUNK_MAGIC: &[u8; 8] = b"CSCHUNK1";
/// 8-byte magic closing every chunk file.
pub(crate) const CHUNK_END_MAGIC: &[u8; 8] = b"CSCKEND1";
/// Chunk format version. v3 codes each column as one block by its word
/// width.
const CHUNK_VERSION: u16 = 3;
/// Header size: magic, version, kind, region, day, seq, rows, min_vm,
/// max_vm and the column count.
const HEADER_LEN: usize = 8 + 2 + 1 + 4 + 1 + 4 + 4 + 8 + 8 + 2;
/// Directory entry size: id, width, raw_len, coded_len and raw_crc.
const DIR_ENTRY_LEN: usize = 2 + 1 + 4 + 4 + 4;
/// Footer size: file CRC + end magic.
const FOOTER_LEN: usize = 4 + 8;

/// What a chunk stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// VM deployment-record columns.
    VmMeta,
    /// Telemetry run columns (per-day slices of utilization series).
    Telemetry,
}

impl ChunkKind {
    pub(crate) const fn tag(self) -> u8 {
        match self {
            ChunkKind::VmMeta => 0,
            ChunkKind::Telemetry => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self, String> {
        match tag {
            0 => Ok(ChunkKind::VmMeta),
            1 => Ok(ChunkKind::Telemetry),
            other => Err(format!("unknown chunk kind {other}")),
        }
    }

    /// The kind's segment in chunk file names.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            ChunkKind::VmMeta => "vmmeta",
            ChunkKind::Telemetry => "telemetry",
        }
    }
}

/// A chunk's identity and row statistics — shared by the in-file
/// header and the manifest's chunk table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// What the chunk stores.
    pub kind: ChunkKind,
    /// Region of every row in the chunk.
    pub region: u32,
    /// Trace-week day (0 = Monday … 6 = Sunday) of every row.
    pub day: u8,
    /// Split ordinal within the `(kind, region, day)` cell.
    pub seq: u32,
    /// Rows in the chunk.
    pub rows: u32,
    /// Smallest VM id referenced (rows are sorted by VM id).
    pub min_vm: u64,
    /// Largest VM id referenced.
    pub max_vm: u64,
}

impl ChunkMeta {
    /// The chunk's manifest name, also its file stem:
    /// `vmmeta-r3-d0-0`.
    #[must_use]
    pub fn name(&self) -> String {
        format!(
            "{}-r{}-d{}-{}",
            self.kind.name(),
            self.region,
            self.day,
            self.seq
        )
    }

    /// The chunk's file name: `<name>.chunk`.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{}.chunk", self.name())
    }

    /// Writes the fields as the chunk header and the manifest entry both
    /// hold them: kind, region, day, seq, rows, min_vm, max_vm.
    pub(crate) fn put(&self, e: &mut Enc) {
        e.put_u8(self.kind.tag());
        e.put_u32(self.region);
        e.put_u8(self.day);
        e.put_u32(self.seq);
        e.put_u32(self.rows);
        e.put_u64(self.min_vm);
        e.put_u64(self.max_vm);
    }

    /// Reads what [`ChunkMeta::put`] wrote.
    pub(crate) fn take(d: &mut Dec<'_>) -> Result<Self, String> {
        let kind = ChunkKind::from_tag(d.take_u8()?)?;
        let region = d.take_u32()?;
        let day = d.take_u8()?;
        if day > 6 {
            return Err(format!("day {day} out of the trace week"));
        }
        Ok(Self {
            kind,
            region,
            day,
            seq: d.take_u32()?,
            rows: d.take_u32()?,
            min_vm: d.take_u64()?,
            max_vm: d.take_u64()?,
        })
    }
}

/// One raw (decoded) column heading into a chunk file.
#[derive(Debug)]
pub(crate) struct RawColumn {
    /// Physical column id (see `columns`).
    pub(crate) id: u16,
    /// Bytes per word: 1 (stored), 4 or 8 (varint-coded).
    pub(crate) width: u8,
    /// The column's raw bytes, a whole number of words.
    pub(crate) bytes: Vec<u8>,
}

/// A decoded chunk: its identity plus the requested columns' raw bytes
/// in file order.
#[derive(Debug)]
pub(crate) struct DecodedChunk {
    pub(crate) meta: ChunkMeta,
    /// `(column id, raw bytes)` for every column that was both present
    /// and requested.
    pub(crate) columns: Vec<(u16, Vec<u8>)>,
}

impl DecodedChunk {
    /// The raw bytes of column `id`, if decoded.
    pub(crate) fn column(&self, id: u16) -> Option<&[u8]> {
        self.columns
            .iter()
            .find(|(cid, _)| *cid == id)
            .map(|(_, b)| b.as_slice())
    }

    /// Takes column `id`'s buffer out of the chunk, if decoded; the
    /// rest stay in file order.
    pub(crate) fn take_column(&mut self, id: u16) -> Option<Vec<u8>> {
        let at = self.columns.iter().position(|(cid, _)| *cid == id)?;
        Some(self.columns.remove(at).1)
    }
}

/// A complete chunk file, ready to write.
#[derive(Debug)]
pub(crate) struct ChunkFile {
    pub(crate) bytes: Vec<u8>,
    /// Raw payload size (for the store's size metrics).
    pub(crate) raw_total: u64,
    /// CRC-32 of `bytes`, footer included — what the manifest records.
    pub(crate) file_crc: u32,
}

/// Encodes a complete chunk file: each column is coded straight into
/// the file buffer behind room left for the header and directory, which
/// are written once the coded lengths are known. One checksum pass
/// yields both CRCs: the footer's covers the body, and the whole file's
/// is that state continued over the footer.
pub(crate) fn encode_chunk_file(meta: &ChunkMeta, columns: &[RawColumn]) -> ChunkFile {
    let raw_total: u64 = columns.iter().map(|c| c.bytes.len() as u64).sum();
    let head_len = HEADER_LEN + DIR_ENTRY_LEN * columns.len();
    let mut bytes = vec![0u8; head_len];
    bytes.reserve(raw_total as usize + FOOTER_LEN);
    let mut head = Enc::with_capacity(head_len);
    head.put_slice(CHUNK_MAGIC);
    head.put_u16(CHUNK_VERSION);
    meta.put(&mut head);
    head.put_u16(columns.len() as u16);
    for col in columns {
        let start = bytes.len();
        codec::encode(col.width, &col.bytes, &mut bytes);
        head.put_u16(col.id);
        head.put_u8(col.width);
        head.put_u32(col.bytes.len() as u32);
        head.put_u32((bytes.len() - start) as u32);
        head.put_u32(crc32(&col.bytes));
    }
    bytes[..head_len].copy_from_slice(head.as_slice());
    let mut crc = Crc32::new();
    crc.update(&bytes);
    let body_len = bytes.len();
    bytes.extend_from_slice(&crc.value().to_le_bytes());
    bytes.extend_from_slice(CHUNK_END_MAGIC);
    crc.update(&bytes[body_len..]);
    ChunkFile {
        bytes,
        raw_total,
        file_crc: crc.value(),
    }
}

/// One column's directory entry.
#[derive(Debug)]
struct DirEntry {
    id: u16,
    width: u8,
    raw_len: usize,
    coded_len: usize,
    raw_crc: u32,
}

/// Decodes a chunk file, validating magic, footer CRC, structure, and
/// per-column raw CRCs. `wanted` limits which columns are decoded
/// (`None` = all). Each wanted column is decoded by its declared width
/// ([`codec::decode`], which refuses a length its coded bytes cannot
/// reach before it allocates), then checked against its raw CRC.
///
/// `verify_file_crc: false` skips the footer-CRC pass for callers that
/// already validated the exact file bytes against the manifest's
/// whole-file CRC (one pass covers every flip the footer pass would).
///
/// # Errors
/// [`StoreError::Corrupt`] (naming `path` and `name`) on any
/// validation failure.
pub(crate) fn decode_chunk_file(
    path: &Path,
    name: &str,
    bytes: &[u8],
    wanted: Option<&[u16]>,
    verify_file_crc: bool,
) -> Result<DecodedChunk, StoreError> {
    let fail = |reason: String| StoreError::corrupt(path, name, reason);

    if bytes.len() < CHUNK_MAGIC.len() + FOOTER_LEN {
        return Err(fail(format!("file is only {} bytes", bytes.len())));
    }
    if &bytes[..CHUNK_MAGIC.len()] != CHUNK_MAGIC {
        return Err(fail("bad chunk magic".to_owned()));
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    if &footer[4..] != CHUNK_END_MAGIC {
        return Err(fail("bad end-of-chunk magic (truncated file?)".to_owned()));
    }
    if verify_file_crc {
        let stored_crc = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(fail(format!(
                "file crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
    }

    let mut d = Dec::new(&body[CHUNK_MAGIC.len()..]);
    let version = d.take_u16().map_err(|e| fail(format!("version: {e}")))?;
    if version != CHUNK_VERSION {
        return Err(fail(format!("unsupported chunk version {version}")));
    }
    let (meta, col_count) = ChunkMeta::take(&mut d)
        .and_then(|meta| Ok((meta, usize::from(d.take_u16()?))))
        .map_err(|e| fail(format!("header: {e}")))?;

    let mut dir = Vec::with_capacity(col_count.min(d.remaining() / DIR_ENTRY_LEN));
    for i in 0..col_count {
        let entry = (|| -> Result<DirEntry, String> {
            Ok(DirEntry {
                id: d.take_u16()?,
                width: d.take_u8()?,
                raw_len: d.take_u32()? as usize,
                coded_len: d.take_u32()? as usize,
                raw_crc: d.take_u32()?,
            })
        })()
        .map_err(|e| fail(format!("column {i} directory entry: {e}")))?;
        dir.push(entry);
    }
    let coded_total: usize = dir.iter().map(|e| e.coded_len).sum();
    if coded_total != d.remaining() {
        return Err(fail(format!(
            "directory promises {coded_total} coded bytes but {} remain",
            d.remaining()
        )));
    }

    let mut columns = Vec::with_capacity(dir.len());
    for entry in &dir {
        let coded = d
            .take_slice(entry.coded_len)
            .map_err(|e| StoreError::corrupt(path, name, format!("column {}: {e}", entry.id)))?;
        if wanted.is_some_and(|w| !w.contains(&entry.id)) {
            continue;
        }
        let raw = codec::decode(entry.width, coded, entry.raw_len)
            .map_err(|e| fail(format!("column {}: {e}", entry.id)))?;
        let crc = crc32(&raw);
        if crc != entry.raw_crc {
            return Err(fail(format!(
                "column {} raw crc mismatch: stored {:#010x}, computed {crc:#010x}",
                entry.id, entry.raw_crc
            )));
        }
        columns.push((entry.id, raw));
    }

    cloudscope_obs::counter("store.read.chunks").inc();
    Ok(DecodedChunk { meta, columns })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> ChunkMeta {
        ChunkMeta {
            kind: ChunkKind::Telemetry,
            region: 2,
            day: 3,
            seq: 1,
            rows: 4,
            min_vm: 10,
            max_vm: 40,
        }
    }

    fn column(id: u16, width: u8, bytes: Vec<u8>) -> RawColumn {
        RawColumn { id, width, bytes }
    }

    /// A chunk of all three codings: ascending 8-byte words, a 4-byte
    /// column that steps both ways, and stored bytes.
    fn sample_columns() -> Vec<RawColumn> {
        vec![
            column(0, 8, (10..40u64).flat_map(u64::to_le_bytes).collect()),
            column(
                3,
                4,
                (0..300u32)
                    .flat_map(|i| (i * 7 % 201).to_le_bytes())
                    .collect(),
            ),
            column(4, 1, (0..300u32).map(|i| (i * 13 % 256) as u8).collect()),
        ]
    }

    fn decode(file: &[u8], wanted: Option<&[u16]>) -> Result<DecodedChunk, StoreError> {
        decode_chunk_file(Path::new("test.chunk"), "test", file, wanted, true)
    }

    #[test]
    fn roundtrip_all_and_projected() {
        let meta = sample_meta();
        let columns = sample_columns();
        let file = encode_chunk_file(&meta, &columns);
        assert_eq!(file.raw_total, 240 + 1_200 + 300);
        assert_eq!(file.file_crc, crc32(&file.bytes));
        let all = decode(&file.bytes, None).unwrap();
        assert_eq!(all.meta, meta);
        for col in &columns {
            assert_eq!(all.column(col.id).unwrap(), &col.bytes[..]);
        }
        let proj = decode(&file.bytes, Some(&[3])).unwrap();
        assert!(proj.column(0).is_none());
        assert_eq!(proj.column(3).unwrap(), &columns[1].bytes[..]);
        assert_eq!(proj.meta.rows, 4);
    }

    #[test]
    fn large_columns_of_every_width_roundtrip() {
        // A megabyte column of each width: what a default 1 MiB chunk
        // holds, each coded as one block.
        let big: Vec<u8> = (0..1usize << 20).map(|i| (i / 97) as u8).collect();
        let columns = vec![
            column(0, 8, big.clone()),
            column(3, 4, big.clone()),
            column(4, 1, big.clone()),
        ];
        let file = encode_chunk_file(&sample_meta(), &columns);
        assert_eq!(file.raw_total as usize, 3 * big.len());
        let decoded = decode(&file.bytes, None).unwrap();
        for (id, raw) in &decoded.columns {
            assert_eq!(raw, &big, "column {id}");
        }
    }

    #[test]
    fn empty_column_roundtrips() {
        let columns = vec![column(5, 8, Vec::new()), column(6, 1, Vec::new())];
        let file = encode_chunk_file(&sample_meta(), &columns);
        assert_eq!(file.raw_total, 0);
        let decoded = decode(&file.bytes, None).unwrap();
        assert_eq!(decoded.column(5).unwrap(), &[] as &[u8]);
        assert_eq!(decoded.column(6).unwrap(), &[] as &[u8]);
    }

    /// `file` with its directory entry `i` rewritten by `edit` and its
    /// footer CRC recomputed: honest checksums over a hostile directory.
    fn with_directory_edit(file: &[u8], i: usize, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut bad = file.to_vec();
        let at = HEADER_LEN + DIR_ENTRY_LEN * i;
        edit(&mut bad[at..at + DIR_ENTRY_LEN]);
        let body_len = bad.len() - FOOTER_LEN;
        let crc = crc32(&bad[..body_len]);
        bad[body_len..body_len + 4].copy_from_slice(&crc.to_le_bytes());
        bad
    }

    #[test]
    fn a_directory_cannot_reserve_what_the_file_cannot_fill() {
        // One 8-byte column declaring 4 GiB of raw bytes from its 30
        // coded ones: the length is the verdict, before anything is
        // sized from it.
        let file = encode_chunk_file(&sample_meta(), &sample_columns());
        let hostile = with_directory_edit(&file.bytes, 0, |entry| {
            entry[3..7].copy_from_slice(&(u32::MAX - 7).to_le_bytes());
        });
        match decode(&hostile, None) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(
                    reason.starts_with("column 0: 536870911 words cannot come from 30"),
                    "{reason}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_unknown_width_is_refused() {
        let file = encode_chunk_file(&sample_meta(), &sample_columns());
        let hostile = with_directory_edit(&file.bytes, 2, |entry| entry[2] = 2);
        let err = decode(&hostile, None).unwrap_err().to_string();
        assert!(err.contains("column 4: unknown column width 2"), "{err}");
        // A projection that skips the column never looks at it.
        assert!(decode(&hostile, Some(&[0, 3])).is_ok());
    }

    #[test]
    fn a_v2_chunk_is_refused() {
        // The sub-block LZ format's header: version 2, then kind and the
        // level byte v3 dropped. Its version is the verdict.
        let mut v2 = CHUNK_MAGIC.to_vec();
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.extend_from_slice(&[1, 2]);
        v2.extend_from_slice(&[0; 33]);
        v2.extend_from_slice(&crc32(&v2).to_le_bytes());
        v2.extend_from_slice(CHUNK_END_MAGIC);
        let err = decode(&v2, None).unwrap_err().to_string();
        assert!(err.contains("unsupported chunk version 2"), "{err}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(sample_meta().name(), "telemetry-r2-d3-1");
        assert_eq!(sample_meta().file_name(), "telemetry-r2-d3-1.chunk");
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let file = encode_chunk_file(&sample_meta(), &sample_columns()).bytes;
        for byte in 0..file.len() {
            for bit in [0, 7] {
                let mut bad = file.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(&bad, None).is_err(),
                    "flip of bit {bit} at byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let file = encode_chunk_file(&sample_meta(), &sample_columns()).bytes;
        for cut in 0..file.len() {
            assert!(
                decode(&file[..cut], None).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }
}
