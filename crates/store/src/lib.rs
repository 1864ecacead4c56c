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
//! by a per-column CRC plus a whole-file CRC footer — projection can
//! skip decompressing unwanted columns without weakening integrity.
//! Utilization series are split into per-day runs (the day function is
//! monotone in time, so runs are contiguous and reassemble exactly).
//!
//! # Commit protocol
//!
//! Chunks are written tmp → fsync → rename; the manifest — which
//! names every chunk with its exact length and CRC and carries the
//! topology/subscription blobs — is committed the same way, last.
//! Until that final rename lands, readers see either the previous
//! store or none: a crash can truncate files, but never a committed
//! store. Every decode path funnels into [`StoreError`], naming the
//! file (and chunk) it blames — corruption is loud, never silent.
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
pub mod layout;

mod blobs;
mod chunk;
mod columns;
mod crc;
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
pub use columns::{Batch, Column, Projection, TelemetryBatch, VmMetaBatch};
pub use error::StoreError;
pub use manifest::{ChunkEntry, Manifest, MANIFEST_NAME};
pub use reader::{ScanFilter, TelemetryMode, TraceReader};
pub use source::StoreTelemetry;
pub use writer::{store_exists, write_trace, TraceWriter, WriteOptions};
