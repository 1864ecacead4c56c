//! Knowledge-base persistence.
//!
//! The durable store ([`DurableKb`]): a length-prefixed,
//! CRC-checksummed write-ahead log appended before every write, plus
//! per-shard binary snapshots committed by an atomic manifest rename.
//! Recovery ([`DurableKb::open`]) loads the newest committed snapshot
//! generation and replays the WAL tail, tolerating a torn final record
//! (the residue of a crash mid-append) and failing loudly on everything
//! else. Crash behaviour is testable in-process: a [`CrashPlan`] arms a
//! [`CrashPoint`] and the layer simulates a process kill exactly there.

mod codec;
mod crash;
mod durable;
mod snapshot;
mod wal;

pub use crash::{CrashPlan, CrashPoint};
pub use durable::{DurableKb, RecoveryStats, SnapshotReport, SyncPolicy};

/// Errors from the durability layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// An underlying I/O failure on `file`.
    Io {
        /// The file being read or written.
        file: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// `file`'s bytes fail validation inside a specific record:
    /// a checksum mismatch, an implausible length, an unknown tag.
    /// Nothing is loaded — silently accepting corrupt state is never an
    /// option.
    Corrupt {
        /// The file holding the bad record.
        file: String,
        /// 1-based ordinal of the offending record in that file.
        record: u64,
        /// What failed to validate.
        reason: String,
    },
    /// `file` is structurally wrong before any record can be blamed: a
    /// bad magic, a truncated manifest, a snapshot cut that lands off a
    /// record boundary.
    Malformed {
        /// The offending file.
        file: String,
        /// What is structurally wrong.
        reason: String,
    },
    /// A [`CrashPlan`] fired (or already had): the simulated process is
    /// dead and refuses all further work. Test-only in practice — a
    /// disarmed [`DurableKb`] never returns this.
    Crashed,
}

impl PersistError {
    /// Wraps an I/O error with the path it happened on.
    pub(crate) fn io(path: &std::path::Path, source: std::io::Error) -> Self {
        PersistError::Io {
            file: path.display().to_string(),
            source,
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { file, source } => write!(f, "{file}: io error: {source}"),
            PersistError::Corrupt {
                file,
                record,
                reason,
            } => write!(f, "{file}: record {record}: {reason}"),
            PersistError::Malformed { file, reason } => write!(f, "{file}: {reason}"),
            PersistError::Crashed => write!(f, "simulated crash: durability layer is dead"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
