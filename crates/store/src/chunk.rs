//! The chunk file: one `(kind, region, day, seq)` cell of the columnar
//! layout, columns compressed independently so an ids-only read
//! decompresses the id column alone.
//!
//! ```text
//! "CSCHUNK1"                                  8-byte file magic
//! header   version, kind, level, region, day, seq, rows,
//!          min_vm, max_vm, column count
//! directory per column: id, raw_len, comp_len, raw_crc
//! blocks   column blocks, concatenated in directory order
//! footer   crc32 over everything above · "CSCKEND1"
//! ```
//!
//! The footer CRC covers every preceding byte, so any single-bit flip
//! anywhere in the file — header, directory, blocks, even inside the
//! CRC field itself — fails validation. Per-column raw CRCs re-check
//! the *decompressed* bytes, catching faults the file CRC cannot see
//! (a decompressor bug, a partially cached block).
//!
//! Each column declares its [`Packing`]: the structured columns are
//! LZ-coded at [`LEVEL`], and a telemetry chunk's samples are stored
//! raw, because LZ finds only coincidences in 5-minute noise. The
//! reader takes either method in any column, so stores whose samples
//! were LZ-coded read back unchanged.

use crate::codec::{Encoder, METHOD_LZ};
use crate::error::StoreError;
use cloudscope_model::durable::{crc32, Crc32, Dec, Enc};
use cloudscope_par::Parallelism;
use std::path::Path;

/// 8-byte magic opening every chunk file.
pub(crate) const CHUNK_MAGIC: &[u8; 8] = b"CSCHUNK1";
/// 8-byte magic closing every chunk file.
pub(crate) const CHUNK_END_MAGIC: &[u8; 8] = b"CSCKEND1";
/// Chunk format version. v2 splits each column into independently
/// compressed sub-blocks so decompression can fan out within a single
/// chunk.
const CHUNK_VERSION: u16 = 2;
/// Footer size: file CRC + end magic.
const FOOTER_LEN: usize = 4 + 8;
/// Raw bytes per compression sub-block. Large enough that the codec's
/// 64 KiB window still sees long matches, small enough that a default
/// 1 MiB column fans out over several decompression tasks.
pub(crate) const SUB_BLOCK_RAW: usize = 128 << 10;
/// The LZ level of every [`Packing::Lz`] column, recorded in the
/// header's level byte.
const LEVEL: u8 = 2;
/// A chunk's decode fans out to threads only if at least two of its
/// wanted LZ sub-blocks hold this many raw bytes: spawning and joining
/// costs about what LZ-decoding a few tens of KiB does, so a chunk whose
/// columns are one small block each has nothing to win. A stored block
/// decodes as one copy and never counts.
const FAN_OUT_MIN_RAW: usize = 64 << 10;

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
}

/// How a column's sub-blocks are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Packing {
    /// LZ-coded at [`LEVEL`] (stored where that does not win): ids,
    /// run starts and lengths, VM fields.
    Lz,
    /// Stored as they are: telemetry samples, where LZ shrinks a block
    /// by under 1.2× at about 20× the cost of a copy.
    Raw,
}

/// One raw (uncompressed) column heading into a chunk file.
#[derive(Debug)]
pub(crate) struct RawColumn {
    /// Physical column id (see `columns`).
    pub(crate) id: u16,
    /// How its sub-blocks are written.
    pub(crate) packing: Packing,
    /// The column's raw bytes.
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

/// One column compressed into its sub-block series, ready for
/// assembly into a chunk file. Produced by [`compress_column`] — a pure
/// function of the column, so the writer can fan compression out over
/// `(chunk, column)` tasks without changing a byte of the output.
#[derive(Debug)]
pub(crate) struct CompressedColumn {
    pub(crate) id: u16,
    pub(crate) raw_len: usize,
    pub(crate) raw_crc: u32,
    /// Compressed sub-blocks, each covering [`SUB_BLOCK_RAW`] raw bytes
    /// (the last one covers the remainder).
    pub(crate) blocks: Vec<Vec<u8>>,
}

/// Compresses one raw column into its deterministic sub-block series:
/// LZ at [`LEVEL`], or level 0 — stored — for a [`Packing::Raw`] column.
pub(crate) fn compress_column(col: &RawColumn) -> CompressedColumn {
    let level = match col.packing {
        Packing::Lz => LEVEL,
        Packing::Raw => 0,
    };
    let mut encoder = Encoder::default();
    let blocks = col
        .bytes
        .chunks(SUB_BLOCK_RAW)
        .map(|raw| encoder.compress(raw, level))
        .collect();
    CompressedColumn {
        id: col.id,
        raw_len: col.bytes.len(),
        raw_crc: crc32(&col.bytes),
        blocks,
    }
}

/// A complete chunk file, ready to write.
#[derive(Debug)]
pub(crate) struct ChunkFile {
    pub(crate) bytes: Vec<u8>,
    /// Raw payload size (for the compression-ratio metrics).
    pub(crate) raw_total: u64,
    /// CRC-32 of `bytes`, footer included — what the manifest records.
    pub(crate) file_crc: u32,
}

/// Assembles pre-compressed columns into a complete chunk file. One
/// checksum pass yields both CRCs: the footer's covers the body, and
/// the whole file's is that state continued over the footer.
pub(crate) fn assemble_chunk_file(meta: &ChunkMeta, columns: &[CompressedColumn]) -> ChunkFile {
    let raw_total: u64 = columns.iter().map(|c| c.raw_len as u64).sum();
    let blocks_len: usize = columns
        .iter()
        .flat_map(|c| c.blocks.iter())
        .map(Vec::len)
        .sum();
    let mut e = Enc::with_capacity(blocks_len + 256);
    e.put_slice(CHUNK_MAGIC);
    e.put_u16(CHUNK_VERSION);
    e.put_u8(meta.kind.tag());
    e.put_u8(LEVEL);
    e.put_u32(meta.region);
    e.put_u8(meta.day);
    e.put_u32(meta.seq);
    e.put_u32(meta.rows);
    e.put_u64(meta.min_vm);
    e.put_u64(meta.max_vm);
    e.put_u16(columns.len() as u16);
    for col in columns {
        e.put_u16(col.id);
        e.put_u32(col.raw_len as u32);
        e.put_u32(col.raw_crc);
        e.put_u16(col.blocks.len() as u16);
        for block in &col.blocks {
            e.put_u32(block.len() as u32);
        }
    }
    for block in columns.iter().flat_map(|c| c.blocks.iter()) {
        e.put_slice(block);
    }
    let body_len = e.as_slice().len();
    let mut crc = Crc32::new();
    crc.update(e.as_slice());
    e.put_u32(crc.value());
    e.put_slice(CHUNK_END_MAGIC);
    crc.update(&e.as_slice()[body_len..]);
    ChunkFile {
        bytes: e.into_vec(),
        raw_total,
        file_crc: crc.value(),
    }
}

/// Encodes a complete chunk file, packing each column as it declares —
/// the serial reference the fanned-out writer must match byte for byte.
#[cfg(test)]
pub(crate) fn encode_chunk_file(meta: &ChunkMeta, columns: &[RawColumn]) -> (Vec<u8>, u64) {
    let compressed: Vec<CompressedColumn> = columns.iter().map(compress_column).collect();
    let file = assemble_chunk_file(meta, &compressed);
    (file.bytes, file.raw_total)
}

/// Each column's id and the method byte of each of its sub-blocks, read
/// off a well-formed chunk file's directory.
#[cfg(test)]
pub(crate) fn sub_block_methods(file: &[u8]) -> Vec<(u16, Vec<u8>)> {
    // Magic, then version, kind, level, region, day, seq, rows, min_vm
    // and max_vm: 8 + 2 + 1 + 1 + 4 + 1 + 4 + 4 + 8 + 8 bytes.
    let mut d = Dec::new(&file[41..]);
    let columns = d.take_u16().unwrap();
    let dir: Vec<(u16, Vec<usize>)> = (0..columns)
        .map(|_| {
            let id = d.take_u16().unwrap();
            d.take_u32().unwrap();
            d.take_u32().unwrap();
            let blocks = d.take_u16().unwrap();
            (
                id,
                (0..blocks)
                    .map(|_| d.take_u32().unwrap() as usize)
                    .collect(),
            )
        })
        .collect();
    dir.into_iter()
        .map(|(id, lens)| {
            let methods = lens
                .iter()
                .map(|&len| d.take_slice(len).unwrap()[0])
                .collect();
            (id, methods)
        })
        .collect()
}

/// One column's directory entry: identity, raw extent, and the
/// compressed length of each of its sub-blocks.
#[derive(Debug)]
struct DirEntry {
    id: u16,
    raw_len: usize,
    raw_crc: u32,
    comp_lens: Vec<usize>,
}

/// Decodes a chunk file, validating magic, footer CRC, structure, and
/// per-column raw CRCs. `wanted` limits which columns are
/// decompressed (`None` = all). When `par` is given and the directory
/// shows at least two wanted LZ sub-blocks of [`FAN_OUT_MIN_RAW`] raw
/// bytes or more, the sub-blocks decompress as parallel tasks, each into
/// its own slice of its column's buffer, so the output is identical for
/// any worker count. A chunk with less to share out — stored samples
/// included, whose blocks decode as copies — decodes on the calling
/// thread.
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
    par: Option<&Parallelism>,
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
    let take = |what: &str, r: Result<u64, String>| -> Result<u64, StoreError> {
        r.map_err(|e| StoreError::corrupt(path, name, format!("{what}: {e}")))
    };
    let version = take("version", d.take_u16().map(u64::from))?;
    if version != u64::from(CHUNK_VERSION) {
        return Err(fail(format!("unsupported chunk version {version}")));
    }
    let kind_tag = take("kind", d.take_u8().map(u64::from))? as u8;
    let kind = ChunkKind::from_tag(kind_tag).map_err(&fail)?;
    let _level = take("level", d.take_u8().map(u64::from))?;
    let region = take("region", d.take_u32().map(u64::from))? as u32;
    let day = take("day", d.take_u8().map(u64::from))? as u8;
    let seq = take("seq", d.take_u32().map(u64::from))? as u32;
    let rows = take("rows", d.take_u32().map(u64::from))? as u32;
    let min_vm = take("min_vm", d.take_u64())?;
    let max_vm = take("max_vm", d.take_u64())?;
    let col_count = take("column count", d.take_u16().map(u64::from))? as usize;
    if day > 6 {
        return Err(fail(format!("day {day} out of the trace week")));
    }

    let mut dir: Vec<DirEntry> = Vec::with_capacity(col_count);
    for i in 0..col_count {
        let ctx = |what: &str, e: String| {
            StoreError::corrupt(path, name, format!("column {i} {what}: {e}"))
        };
        let id = d.take_u16().map_err(|e| ctx("id", e))?;
        let raw_len = d.take_u32().map_err(|e| ctx("raw length", e))? as usize;
        let raw_crc = d.take_u32().map_err(|e| ctx("crc", e))?;
        let block_count = d.take_u16().map_err(|e| ctx("block count", e))? as usize;
        if block_count != raw_len.div_ceil(SUB_BLOCK_RAW) {
            return Err(fail(format!(
                "column {i} declares {block_count} sub-blocks for {raw_len} raw bytes"
            )));
        }
        let mut comp_lens = Vec::with_capacity(block_count);
        for b in 0..block_count {
            let len = d
                .take_u32()
                .map_err(|e| ctx(&format!("sub-block {b} length"), e))?;
            comp_lens.push(len as usize);
        }
        dir.push(DirEntry {
            id,
            raw_len,
            raw_crc,
            comp_lens,
        });
    }
    let blocks_len: usize = dir.iter().flat_map(|e| e.comp_lens.iter()).sum();
    if blocks_len != d.remaining() {
        return Err(fail(format!(
            "directory promises {blocks_len} block bytes but {} remain",
            d.remaining()
        )));
    }

    // Every wanted sub-block is checked against its raw length before
    // anything is sized from the directory: `raw_len` is a number the
    // file chose, and a block that cannot reach it is the verdict.
    let mut wanted_blocks: Vec<(usize, Vec<&[u8]>)> = Vec::new();
    for (col_idx, entry) in dir.iter().enumerate() {
        let col_blocks_len: usize = entry.comp_lens.iter().sum();
        let body = d.take_slice(col_blocks_len).map_err(|e| {
            StoreError::corrupt(path, name, format!("column {} block: {e}", entry.id))
        })?;
        if wanted.is_some_and(|w| !w.contains(&entry.id)) {
            continue;
        }
        let mut blocks = Vec::with_capacity(entry.comp_lens.len());
        let mut rest = body;
        for (b, &comp_len) in entry.comp_lens.iter().enumerate() {
            let (block, tail) = rest.split_at(comp_len);
            rest = tail;
            let raw_len = (entry.raw_len - b * SUB_BLOCK_RAW).min(SUB_BLOCK_RAW);
            crate::codec::check_reach(block, raw_len)
                .map_err(|e| fail(format!("column {}: {e}", entry.id)))?;
            blocks.push(block);
        }
        wanted_blocks.push((col_idx, blocks));
    }

    // Each wanted column is sized once, and each of its sub-blocks
    // decodes into its own slice of that buffer — fanned out when there
    // are two LZ blocks worth a thread each, on this thread otherwise.
    // The bytes land where they would either way.
    let mut buffers: Vec<Vec<u8>> = wanted_blocks
        .iter()
        .map(|&(col_idx, _)| vec![0u8; dir[col_idx].raw_len])
        .collect();
    struct Unit<'a> {
        id: u16,
        block: &'a [u8],
        out: &'a mut [u8],
    }
    let mut units: Vec<Unit<'_>> = Vec::new();
    for ((col_idx, blocks), buffer) in wanted_blocks.iter().zip(&mut buffers) {
        for (&block, out) in blocks.iter().zip(buffer.chunks_mut(SUB_BLOCK_RAW)) {
            units.push(Unit {
                id: dir[*col_idx].id,
                block,
                out,
            });
        }
    }
    let decode_unit =
        |u: &mut Unit<'_>| crate::codec::decompress_into(u.block, u.out).map_err(|e| (u.id, e));
    let large_units = units
        .iter()
        .filter(|u| u.block[0] == METHOD_LZ && u.out.len() >= FAN_OUT_MIN_RAW)
        .count();
    let decoded: Vec<Result<(), (u16, String)>> = match par {
        Some(par) if par.workers() > 1 && large_units >= 2 => {
            par.par_map_mut(&mut units, decode_unit)
        }
        _ => units.iter_mut().map(decode_unit).collect(),
    };
    drop(units);
    for outcome in decoded {
        outcome.map_err(|(id, e)| fail(format!("column {id}: {e}")))?;
    }

    let mut columns = Vec::with_capacity(buffers.len());
    for ((col_idx, _), raw) in wanted_blocks.iter().zip(buffers) {
        let entry = &dir[*col_idx];
        let crc = crc32(&raw);
        if crc != entry.raw_crc {
            return Err(fail(format!(
                "column {} raw crc mismatch: stored {:#010x}, computed {crc:#010x}",
                entry.id, entry.raw_crc
            )));
        }
        columns.push((entry.id, raw));
    }

    let meta = ChunkMeta {
        kind,
        region,
        day,
        seq,
        rows,
        min_vm,
        max_vm,
    };
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

    fn lz(id: u16, bytes: Vec<u8>) -> RawColumn {
        RawColumn {
            id,
            packing: Packing::Lz,
            bytes,
        }
    }

    fn raw(id: u16, bytes: Vec<u8>) -> RawColumn {
        RawColumn {
            id,
            packing: Packing::Raw,
            bytes,
        }
    }

    fn sample_columns() -> Vec<RawColumn> {
        vec![lz(0, (0u8..100).collect()), lz(3, vec![42; 5000])]
    }

    /// [`sample_columns`] with a third, stored column.
    fn sample_columns_with_raw() -> Vec<RawColumn> {
        let mut columns = sample_columns();
        columns.push(raw(4, (0..300u32).map(|i| (i * 7 % 201) as u8).collect()));
        columns
    }

    #[test]
    fn roundtrip_all_and_projected() {
        let meta = sample_meta();
        let (file, raw_total) = encode_chunk_file(&meta, &sample_columns());
        assert_eq!(raw_total, 5100);
        let p = Path::new("test.chunk");
        let all = decode_chunk_file(p, "test", &file, None, None, true).unwrap();
        assert_eq!(all.meta, meta);
        assert_eq!(all.column(0).unwrap().len(), 100);
        assert_eq!(all.column(3).unwrap(), &[42u8; 5000][..]);
        let proj = decode_chunk_file(p, "test", &file, Some(&[3]), None, true).unwrap();
        assert!(proj.column(0).is_none());
        assert!(proj.column(3).is_some());
        assert_eq!(proj.meta.rows, 4);
    }

    #[test]
    fn multi_block_columns_roundtrip_serial_and_parallel() {
        let meta = sample_meta();
        // Two and a half sub-blocks of patterned, compressible data.
        let big: Vec<u8> = (0..SUB_BLOCK_RAW * 2 + SUB_BLOCK_RAW / 2)
            .map(|i| (i / 97) as u8)
            .collect();
        let columns = vec![
            lz(0, (0u8..200).collect()),
            lz(3, big.clone()),
            raw(4, big.clone()),
        ];
        let (file, raw_total) = encode_chunk_file(&meta, &columns);
        assert_eq!(raw_total as usize, 200 + 2 * big.len());
        let p = Path::new("test.chunk");
        let serial = decode_chunk_file(p, "test", &file, None, None, true).unwrap();
        assert_eq!(serial.column(3).unwrap(), &big[..]);
        assert_eq!(serial.column(4).unwrap(), &big[..]);
        for workers in [1, 2, 7] {
            let par = Parallelism::with_workers(workers);
            let fanned = decode_chunk_file(p, "test", &file, None, Some(&par), true).unwrap();
            assert_eq!(fanned.columns, serial.columns);
        }
    }

    #[test]
    fn empty_column_roundtrips() {
        let meta = sample_meta();
        let columns = vec![lz(5, Vec::new()), raw(6, Vec::new())];
        let (file, raw_total) = encode_chunk_file(&meta, &columns);
        assert_eq!(raw_total, 0);
        let p = Path::new("test.chunk");
        let decoded = decode_chunk_file(p, "test", &file, None, None, true).unwrap();
        assert_eq!(decoded.column(5).unwrap(), &[] as &[u8]);
        assert_eq!(decoded.column(6).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn a_directory_cannot_reserve_what_the_file_cannot_fill() {
        // Honest CRCs, hostile directory: one column declaring 4 GiB of
        // raw bytes in 32 768 sub-blocks, every one of them empty — a
        // 128 KiB file. The first bad block is the verdict; nothing is
        // allocated from `raw_len`.
        let hostile = CompressedColumn {
            id: 3,
            raw_len: u32::MAX as usize,
            raw_crc: 0,
            blocks: vec![Vec::new(); (u32::MAX as usize).div_ceil(SUB_BLOCK_RAW)],
        };
        let file = assemble_chunk_file(&sample_meta(), &[hostile]);
        assert!(file.bytes.len() < 129 << 10, "{} bytes", file.bytes.len());
        let p = Path::new("test.chunk");
        for par in [None, Some(Parallelism::with_workers(4))] {
            match decode_chunk_file(p, "test", &file.bytes, None, par.as_ref(), true) {
                Err(StoreError::Corrupt { reason, .. }) => {
                    assert!(reason.starts_with("column 3: "), "{reason}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn only_a_chunk_with_two_large_blocks_fans_out() {
        // The rule is read off the directory; whether it fired shows in
        // the executor's sweep counter.
        let sweeps = |columns: &[RawColumn]| {
            let (file, _) = encode_chunk_file(&sample_meta(), columns);
            let registry = std::sync::Arc::new(cloudscope_obs::Registry::new());
            let decoded = cloudscope_obs::scoped(&registry, || {
                let par = Parallelism::with_workers(4);
                decode_chunk_file(Path::new("t.chunk"), "t", &file, None, Some(&par), true)
            })
            .unwrap();
            for (col, (_, raw)) in columns.iter().zip(&decoded.columns) {
                assert_eq!(&col.bytes, raw);
            }
            registry
                .snapshot()
                .counter("par.executor.sweeps")
                .unwrap_or(0)
        };
        let lz_columns = |raw_lens: &[usize]| -> Vec<RawColumn> {
            raw_lens
                .iter()
                .enumerate()
                .map(|(id, &len)| lz(id as u16, (0..len).map(|i| (i / 61) as u8).collect()))
                .collect()
        };
        // A 128 KiB chunk: one full block and three small columns.
        assert_eq!(
            sweeps(&lz_columns(&[3_600, 3_600, 1_800, SUB_BLOCK_RAW])),
            0
        );
        // One large block and a 63 KiB one: still nothing to share out.
        assert_eq!(sweeps(&lz_columns(&[SUB_BLOCK_RAW + (63 << 10)])), 0);
        // Two blocks of 64 KiB or more: the chunk's units fan out.
        assert_eq!(sweeps(&lz_columns(&[100, SUB_BLOCK_RAW + (64 << 10)])), 1);
        // Stored blocks decode as copies: eight full ones beside one
        // large LZ block stay on the calling thread.
        let mut columns = lz_columns(&[SUB_BLOCK_RAW]);
        columns.push(raw(1, vec![7; 8 * SUB_BLOCK_RAW]));
        assert_eq!(sweeps(&columns), 0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(sample_meta().name(), "telemetry-r2-d3-1");
        assert_eq!(sample_meta().file_name(), "telemetry-r2-d3-1.chunk");
    }

    #[test]
    fn every_bit_flip_is_detected() {
        for columns in [sample_columns(), sample_columns_with_raw()] {
            let (file, _) = encode_chunk_file(&sample_meta(), &columns);
            let p = Path::new("test.chunk");
            for byte in 0..file.len() {
                let mut bad = file.clone();
                bad[byte] ^= 1;
                assert!(
                    decode_chunk_file(p, "test", &bad, None, None, true).is_err(),
                    "{} columns: flip at byte {byte} went undetected",
                    columns.len()
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        for columns in [sample_columns(), sample_columns_with_raw()] {
            let (file, _) = encode_chunk_file(&sample_meta(), &columns);
            let p = Path::new("test.chunk");
            for cut in 0..file.len() {
                assert!(
                    decode_chunk_file(p, "test", &file[..cut], None, None, true).is_err(),
                    "{} columns: truncation to {cut} bytes went undetected",
                    columns.len()
                );
            }
        }
    }

    /// FNV-1a, 64-bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn a_chunk_with_lz_samples_decodes_as_the_one_written_today() {
        // A telemetry chunk of 150 week-long series in two runs each,
        // 2.3 sub-blocks of samples: a daily shape plus low-bit noise,
        // so LZ finds matches in it.
        let mut cols = crate::columns::TelemetryColumns::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for vm in 0..150u64 {
            let series: Vec<u8> = (0..2_016u32)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let daily = ((i % 288) / 24) as u8 * 9;
                    40 + daily + (state % 5) as u8
                })
                .collect();
            cols.push(vm, 0, &series[..1_008]);
            cols.push(vm, 5_040, &series[1_008..]);
        }
        let meta = ChunkMeta {
            kind: ChunkKind::Telemetry,
            region: 0,
            day: 0,
            seq: 0,
            rows: cols.rows,
            min_vm: cols.min_vm,
            max_vm: cols.max_vm,
        };
        let today = cols.into_columns();
        assert_eq!(today[3].packing, Packing::Raw);
        // What the writer wrote before samples were stored raw: every
        // column LZ-coded at level 2. The digest was recorded from that
        // writer's own output for this chunk.
        let lz_samples: Vec<RawColumn> = today.iter().map(|c| lz(c.id, c.bytes.clone())).collect();
        let (old_file, _) = encode_chunk_file(&meta, &lz_samples);
        let (new_file, _) = encode_chunk_file(&meta, &today);
        assert_eq!(
            fnv1a(&old_file),
            0xb7a0_1db7_402a_6199,
            "the LZ-samples chunk is the one that writer wrote (0x{:016x})",
            fnv1a(&old_file)
        );
        let methods = sub_block_methods(&old_file);
        assert_eq!(methods[3].1, vec![crate::codec::METHOD_LZ; 3]);
        assert!(new_file.len() > old_file.len());

        let p = Path::new("t.chunk");
        for par in [None, Some(Parallelism::with_workers(3))] {
            let old = decode_chunk_file(p, "t", &old_file, None, par.as_ref(), true).unwrap();
            let new = decode_chunk_file(p, "t", &new_file, None, par.as_ref(), true).unwrap();
            assert_eq!(old.meta, new.meta);
            assert_eq!(old.columns, new.columns);
            let expected: Vec<(u16, Vec<u8>)> =
                today.iter().map(|c| (c.id, c.bytes.clone())).collect();
            assert_eq!(new.columns, expected);
        }
    }
}
