//! The store's failure vocabulary. Every decode path funnels into
//! [`StoreError`], and every corruption variant names the file (and,
//! where one exists, the chunk) it blames — a truncated or bit-flipped
//! store must fail loudly, never yield silently wrong records.

use std::path::Path;

/// Why a trace-store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure on `file`.
    Io {
        /// The file (or directory) being read or written.
        file: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// `file` is structurally wrong before any chunk can be blamed: a
    /// bad magic, a truncated manifest, an unknown format version.
    Malformed {
        /// The offending file.
        file: String,
        /// What is structurally wrong.
        reason: String,
    },
    /// A chunk's bytes fail validation: a checksum mismatch, an
    /// implausible length, a decompression fault, a broken column run.
    /// Nothing decoded from the chunk is ever returned.
    Corrupt {
        /// The file holding the bad bytes.
        file: String,
        /// The chunk being decoded (its manifest name).
        chunk: String,
        /// What failed to validate.
        reason: String,
    },
    /// The manifest references a chunk that is not on disk (or whose
    /// size disagrees) — a stale manifest or a half-deleted store.
    Missing {
        /// The file the manifest promised.
        file: String,
        /// The chunk entry that promised it.
        chunk: String,
    },
    /// The decoded records do not assemble into a consistent trace
    /// (dangling ids, non-dense numbering, misaligned telemetry), or a
    /// trace to write does not fit the format (a region string over
    /// 64 KiB).
    Inconsistent(String),
}

impl StoreError {
    /// Wraps an I/O error with the path it happened on.
    pub(crate) fn io(path: &Path, source: std::io::Error) -> Self {
        StoreError::Io {
            file: path.display().to_string(),
            source,
        }
    }

    /// A corruption report for `chunk` stored in `path`. Also bumps the
    /// `store.corruption_detected` counter — corrupt stores are an
    /// operational event, not just an error value.
    pub(crate) fn corrupt(path: &Path, chunk: &str, reason: impl Into<String>) -> Self {
        cloudscope_obs::counter("store.corruption_detected").inc();
        StoreError::Corrupt {
            file: path.display().to_string(),
            chunk: chunk.to_owned(),
            reason: reason.into(),
        }
    }

    /// A structural-damage report for `path`. Bumps
    /// `store.corruption_detected` like [`StoreError::corrupt`].
    pub fn malformed(path: &Path, reason: impl Into<String>) -> Self {
        cloudscope_obs::counter("store.corruption_detected").inc();
        StoreError::Malformed {
            file: path.display().to_string(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { file, source } => write!(f, "{file}: io error: {source}"),
            StoreError::Malformed { file, reason } => write!(f, "{file}: {reason}"),
            StoreError::Corrupt {
                file,
                chunk,
                reason,
            } => write!(f, "{file}: chunk {chunk}: {reason}"),
            StoreError::Missing { file, chunk } => {
                write!(f, "{file}: chunk {chunk} referenced by manifest is missing")
            }
            StoreError::Inconsistent(reason) => write!(f, "inconsistent store: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_file_and_chunk() {
        let e = StoreError::corrupt(
            Path::new("/traces/telemetry-r0-d1-0.chunk"),
            "telemetry-r0-d1-0",
            "crc mismatch",
        );
        let msg = e.to_string();
        assert!(msg.contains("telemetry-r0-d1-0.chunk"), "{msg}");
        assert!(msg.contains("crc mismatch"), "{msg}");

        let m = StoreError::Missing {
            file: "x.chunk".into(),
            chunk: "x".into(),
        };
        assert!(m.to_string().contains("missing"));
    }
}
