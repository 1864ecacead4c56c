//! `cloudscope-store`: an out-of-core columnar trace store with
//! compressed streaming I/O.
//!
//! A one-week cloud workload trace is dominated by telemetry — one
//! byte per VM per five minutes adds up to far more than the metadata.
//! This crate persists a [`Trace`](cloudscope_model::trace::Trace) as
//! a directory of immutable, independently-compressed column chunks
//! partitioned by `(region, trace-week day)`, so the figure pipelines
//! can stream it back chunk-at-a-time in bounded memory and still
//! produce byte-identical results.
//!
//! # On-disk format
//!
//! ```text
//! trace-dir/
//!   manifest.csm            — the single commit point (CRC-tailed)
//!   vmmeta-r0-d0-0.chunk    — VM metadata columns for (region 0, day 0)
//!   telemetry-r0-d0-0.chunk — telemetry runs for (region 0, day 0)
//!   ...
//! ```
//!
//! Each chunk file frames per-column blocks, individually compressed
//! with a self-contained LZ-family block codec ([`codec`]) and guarded
//! by a per-column CRC plus a whole-file CRC footer, so an ids-only
//! read ([`TraceReader::read_chunk_ids`]) decompresses one column
//! while the whole-file CRC still covers every byte.
//! Utilization series are split into per-day runs (the day function is
//! monotone in time, so runs are contiguous and reassemble exactly).
//!
//! # Commit protocol
//!
//! Every file is committed with the workspace's one atomic write,
//! [`cloudscope_model::durable::write_atomic`] (tmp → `sync_all` →
//! rename). Chunks go first; one directory sync then covers every
//! chunk rename, and the manifest — which names every chunk with its
//! exact length and CRC and carries the topology/subscription blobs —
//! is renamed last and the directory synced again. A writer opened over
//! a committed store retires that store's manifest before its first
//! chunk rename, because chunk names are deterministic and the new
//! chunks replace the old. So a kill leaves the previous store intact
//! (nothing renamed yet), no store at all, or the new one — never a
//! manifest naming bytes it did not write. Every decode path funnels
//! into [`StoreError`], naming the file (and chunk) it blames —
//! corruption is loud, never silent.
//!
//! # Memory bounds
//!
//! Writing buffers one open chunk per `(kind, region, day)` cell plus
//! one compression batch. Reading out-of-core keeps VM metadata and a
//! presence bitmap resident while telemetry is read in stored order
//! ([`StoreTelemetry`]): one decoded chunk per `(region, day)` lane
//! between scans, and while a scan runs at most four more, decoded
//! ahead of it by threads that end with the scan — peak heap stays far
//! below a fully-materialized trace.

pub mod codec;

mod blobs;
mod chunk;
mod columns;
mod error;
mod manifest;
mod reader;
mod source;
mod writer;

pub use blobs::{
    decode_subscriptions, decode_topology, encode_subscriptions, encode_topology,
    BLOB_SUBSCRIPTIONS, BLOB_TELEMETRY_PRESENT, BLOB_TOPOLOGY,
};
pub use chunk::{ChunkKind, ChunkMeta};
pub use error::StoreError;
pub use manifest::{ChunkEntry, Manifest, MANIFEST_NAME};
pub use reader::{ScanFilter, TelemetryMode, TraceReader};
pub use source::StoreTelemetry;
pub use writer::{store_exists, write_trace, TraceWriter, WriteOptions};
