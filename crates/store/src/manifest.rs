//! The store manifest: the single commit point for a written trace.
//!
//! A trace directory is a set of immutable chunk files plus one
//! `manifest.csm` naming every chunk (with its exact length and CRC)
//! and carrying the small non-columnar blobs (topology, subscriptions,
//! telemetry presence, generator sidecars). Readers trust only what
//! the manifest names: chunks written but never committed are garbage,
//! a manifest naming a missing or resized chunk is loudly stale.
//!
//! The writer commits it with the same atomic write and batched
//! directory sync as the KB's snapshots
//! ([`cloudscope_model::durable`]): one directory sync after the chunk
//! renames and before the manifest's, one after it.

use crate::chunk::ChunkMeta;
use crate::error::StoreError;
use cloudscope_model::durable::{crc32, Dec, Enc};
use std::path::Path;

/// Magic bytes opening the manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"CSMANIF1";
/// Manifest format version. v2 names chunks of format v3 and a
/// generator report blob without eviction and migration counters; a
/// v1 store is refused at open, before any chunk is read.
const MANIFEST_VERSION: u16 = 2;
/// The manifest's file name inside a trace directory.
pub const MANIFEST_NAME: &str = "manifest.csm";

/// One committed chunk: its logical identity plus the exact file
/// length and CRC the reader must observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Logical chunk identity (kind, region, day, seq, rows, id range).
    pub meta: ChunkMeta,
    /// Exact on-disk file length.
    pub file_len: u64,
    /// CRC-32 of the entire chunk file.
    pub file_crc: u32,
}

/// The decoded manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Total VM records across all metadata chunks.
    pub vm_count: u64,
    /// Every committed chunk, in writer seal order.
    pub chunks: Vec<ChunkEntry>,
    /// Named opaque blobs (topology, subscriptions, sidecars).
    pub blobs: Vec<(String, Vec<u8>)>,
}

impl Manifest {
    /// Looks up a named blob.
    #[must_use]
    pub fn blob(&self, name: &str) -> Option<&[u8]> {
        self.blobs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Serializes the manifest (with trailing CRC).
    #[must_use]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(256 + self.chunks.len() * 64);
        e.put_slice(MANIFEST_MAGIC);
        e.put_u16(MANIFEST_VERSION);
        e.put_u64(self.vm_count);
        e.put_u32(self.chunks.len() as u32);
        for c in &self.chunks {
            e.put_str(&c.meta.name());
            c.meta.put(&mut e);
            e.put_u64(c.file_len);
            e.put_u32(c.file_crc);
        }
        e.put_u32(self.blobs.len() as u32);
        for (name, bytes) in &self.blobs {
            e.put_str(name);
            e.put_u32(bytes.len() as u32);
            e.put_slice(bytes);
        }
        let crc = crc32(e.as_slice());
        e.put_u32(crc);
        e.into_vec()
    }

    /// Parses and validates a manifest file's bytes.
    ///
    /// # Errors
    /// [`StoreError::Malformed`] on any structural or checksum defect,
    /// naming the manifest file and the decode position.
    pub(crate) fn decode(path: &Path, bytes: &[u8]) -> Result<Self, StoreError> {
        let fail = |reason: String| StoreError::malformed(path, reason);
        if bytes.len() < MANIFEST_MAGIC.len() + 4 {
            return Err(fail(format!(
                "{} bytes is too short for a manifest",
                bytes.len()
            )));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("split of 4"));
        let actual_crc = crc32(body);
        if stored_crc != actual_crc {
            return Err(fail(format!(
                "manifest checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let mut d = Dec::new(body);
        let at = |d: &Dec<'_>, e: String| format!("at offset {}: {e}", d.position());
        let magic = d.take_slice(8).map_err(|e| fail(at(&d, e)))?;
        if magic != MANIFEST_MAGIC {
            return Err(fail(format!("bad magic {magic:02x?}")));
        }
        let version = d.take_u16().map_err(|e| fail(at(&d, e)))?;
        if version != MANIFEST_VERSION {
            return Err(fail(format!("unsupported manifest version {version}")));
        }
        let vm_count = d.take_u64().map_err(|e| fail(at(&d, e)))?;
        let chunk_count = d.take_u32().map_err(|e| fail(at(&d, e)))? as usize;
        // Each entry is at least 40 bytes even with an empty name.
        if chunk_count > body.len() / 40 {
            return Err(fail(format!(
                "chunk count {chunk_count} impossible for a {}-byte manifest",
                bytes.len()
            )));
        }
        let mut chunks = Vec::with_capacity(chunk_count);
        for i in 0..chunk_count {
            let entry = (|| -> Result<ChunkEntry, String> {
                let name = d.take_str()?;
                let meta = ChunkMeta::take(&mut d)?;
                if meta.name() != name {
                    return Err(format!(
                        "entry name {name:?} disagrees with its fields ({})",
                        meta.name()
                    ));
                }
                Ok(ChunkEntry {
                    meta,
                    file_len: d.take_u64()?,
                    file_crc: d.take_u32()?,
                })
            })()
            .map_err(|e| fail(format!("chunk entry {i}: {e}")))?;
            chunks.push(entry);
        }
        let blob_count = d.take_u32().map_err(|e| fail(at(&d, e)))? as usize;
        if blob_count > body.len() / 6 {
            return Err(fail(format!("blob count {blob_count} impossible")));
        }
        let mut blobs = Vec::with_capacity(blob_count);
        for i in 0..blob_count {
            let blob = (|| -> Result<(String, Vec<u8>), String> {
                let name = d.take_str()?;
                let len = d.take_u32()? as usize;
                let bytes = d.take_slice(len)?;
                Ok((name, bytes.to_vec()))
            })()
            .map_err(|e| fail(format!("blob {i}: {e}")))?;
            blobs.push(blob);
        }
        if d.remaining() != 0 {
            return Err(fail(format!(
                "{} trailing bytes after the blob table",
                d.remaining()
            )));
        }
        Ok(Self {
            vm_count,
            chunks,
            blobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkKind;

    fn sample() -> Manifest {
        Manifest {
            vm_count: 12,
            chunks: vec![
                ChunkEntry {
                    meta: ChunkMeta {
                        kind: ChunkKind::VmMeta,
                        region: 0,
                        day: 0,
                        seq: 0,
                        rows: 12,
                        min_vm: 0,
                        max_vm: 11,
                    },
                    file_len: 4096,
                    file_crc: 0xDEAD_BEEF,
                },
                ChunkEntry {
                    meta: ChunkMeta {
                        kind: ChunkKind::Telemetry,
                        region: 1,
                        day: 3,
                        seq: 2,
                        rows: 7,
                        min_vm: 3,
                        max_vm: 9,
                    },
                    file_len: 512,
                    file_crc: 1,
                },
            ],
            blobs: vec![
                ("topology".to_owned(), vec![1, 2, 3]),
                ("empty".to_owned(), Vec::new()),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(Path::new("manifest.csm"), &bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.blob("topology"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.blob("missing"), None);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().encode();
        let p = Path::new("manifest.csm");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                assert!(
                    Manifest::decode(p, &evil).is_err(),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        let p = Path::new("manifest.csm");
        for cut in 0..bytes.len() {
            assert!(
                Manifest::decode(p, &bytes[..cut]).is_err(),
                "truncation to {cut} bytes went unnoticed"
            );
        }
    }

    #[test]
    fn errors_name_the_file() {
        let err = Manifest::decode(Path::new("/traces/run1/manifest.csm"), &[0; 4]).unwrap_err();
        assert!(err.to_string().contains("manifest.csm"), "{err}");
    }
}
