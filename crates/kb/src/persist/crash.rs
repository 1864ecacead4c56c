//! Crash-point injection: the test harness's lever for simulating a
//! process kill at every durability boundary.
//!
//! A [`CrashPlan`] arms one [`CrashPoint`]; when the durability layer
//! reaches that boundary for the planned occurrence, the switch goes
//! *dead*: the in-flight operation stops exactly there (a mid-record
//! point stops after writing a partial record), returns
//! [`PersistError::Crashed`](super::PersistError::Crashed), and every
//! later operation on the same [`DurableKb`](super::DurableKb) refuses
//! to touch disk or memory — the process is "dead" until the test
//! recovers from the directory with a fresh open.

use super::PersistError;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

/// Every boundary in the durability layer where a process can die. The
/// crash-matrix test in `crates/kb/tests/crash_matrix.rs` enumerates
/// all of them and asserts recovery reproduces the committed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CrashPoint {
    /// Before any byte of the WAL record is written: the operation is
    /// wholly lost.
    BeforeWalAppend,
    /// After half the WAL record's bytes: recovery must drop the torn
    /// tail and keep everything before it.
    MidWalRecord,
    /// After the WAL record is fully on disk but before the in-memory
    /// store applies it: the operation is durable and recovery must
    /// include it.
    AfterWalAppend,
    /// At the start of a snapshot, before any shard file is written.
    BeforeSnapshot,
    /// Mid-write of one shard's snapshot temp file (a torn `.tmp` that
    /// was never renamed into place).
    MidShardSnapshot,
    /// After N shard files have been renamed into place but before the
    /// rest (and before the manifest): the old generation stays live.
    BetweenShardSnapshots,
    /// Every shard file renamed, manifest temp written, but the atomic
    /// manifest rename never happened: the old generation stays live.
    BeforeManifestRename,
    /// After the manifest rename: the new generation is committed; only
    /// the post-commit cleanup and WAL rotation are lost.
    AfterManifestRename,
    /// Mid-write of the rotated WAL segment's temp file (the manifest
    /// already committed; the torn `wal.log.tmp` is never renamed, so
    /// the old segment keeps serving the manifest's cut offset).
    MidWalRotate,
    /// After the rotated WAL segment replaced `wal.log`: the new
    /// generation is committed and the log holds only the post-cut
    /// tail.
    AfterWalRotate,
}

impl CrashPoint {
    /// Every crash point, for matrix-style enumeration.
    pub const ALL: [CrashPoint; 10] = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::MidWalRecord,
        CrashPoint::AfterWalAppend,
        CrashPoint::BeforeSnapshot,
        CrashPoint::MidShardSnapshot,
        CrashPoint::BetweenShardSnapshots,
        CrashPoint::BeforeManifestRename,
        CrashPoint::AfterManifestRename,
        CrashPoint::MidWalRotate,
        CrashPoint::AfterWalRotate,
    ];

    /// The points reached by write operations (`upsert`/`feed`).
    pub const WRITE_PATH: [CrashPoint; 3] = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::MidWalRecord,
        CrashPoint::AfterWalAppend,
    ];

    /// The points reached by [`DurableKb::snapshot`](super::DurableKb::snapshot).
    pub const SNAPSHOT_PATH: [CrashPoint; 7] = [
        CrashPoint::BeforeSnapshot,
        CrashPoint::MidShardSnapshot,
        CrashPoint::BetweenShardSnapshots,
        CrashPoint::BeforeManifestRename,
        CrashPoint::AfterManifestRename,
        CrashPoint::MidWalRotate,
        CrashPoint::AfterWalRotate,
    ];

    /// `true` if an operation crashed at this point is nonetheless
    /// durable: recovery must include it in the committed state.
    #[must_use]
    pub fn op_survives(self) -> bool {
        self == CrashPoint::AfterWalAppend
    }

    /// `true` if a snapshot crashed at this point nonetheless committed
    /// its generation: the manifest rename had already landed, so
    /// recovery must report the *new* generation (everything at or
    /// after [`CrashPoint::AfterManifestRename`]).
    #[must_use]
    pub fn snapshot_commits(self) -> bool {
        matches!(
            self,
            CrashPoint::AfterManifestRename | CrashPoint::MidWalRotate | CrashPoint::AfterWalRotate
        )
    }
}

/// One armed crash: die the `at_occurrence`-th time `point` is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The boundary to die at.
    pub point: CrashPoint,
    /// Which occurrence of the boundary kills the process (1-based).
    /// `CrashPlan::at(point)` uses 1: the very next time.
    pub at_occurrence: u32,
}

impl CrashPlan {
    /// Die the next time `point` is reached.
    #[must_use]
    pub fn at(point: CrashPoint) -> Self {
        Self {
            point,
            at_occurrence: 1,
        }
    }

    /// Die the `occurrence`-th time `point` is reached (1-based).
    ///
    /// # Panics
    /// Panics if `occurrence == 0`.
    #[must_use]
    pub fn at_occurrence(point: CrashPoint, occurrence: u32) -> Self {
        assert!(occurrence > 0, "occurrences are 1-based");
        Self {
            point,
            at_occurrence: occurrence,
        }
    }
}

/// The shared switch a [`DurableKb`](super::DurableKb) consults at every
/// boundary. Disarmed in production: `reached` is one relaxed atomic
/// load.
#[derive(Debug, Default)]
pub(crate) struct CrashSwitch {
    dead: AtomicBool,
    armed: Mutex<Option<(CrashPlan, u32)>>,
    /// Pending *transient* torn-append faults (not kills): each makes
    /// one WAL append write a partial frame and report an I/O error
    /// while the process stays alive — the disk-full/EIO shape whose
    /// retry path must not corrupt the log.
    torn_faults: AtomicU32,
}

impl CrashSwitch {
    /// Arms `plan`; replaces any previously armed plan.
    pub(crate) fn arm(&self, plan: CrashPlan) {
        *self
            .armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some((plan, 0));
    }

    /// Queues `count` transient torn-append faults.
    pub(crate) fn arm_torn_appends(&self, count: u32) {
        self.torn_faults.fetch_add(count, Ordering::SeqCst);
    }

    /// Consumes one pending torn-append fault, if any.
    pub(crate) fn take_torn_fault(&self) -> bool {
        self.torn_faults
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// `true` once a crash has fired.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Fails if the simulated process has already died — no further I/O
    /// or memory mutation is allowed.
    pub(crate) fn alive(&self) -> Result<(), PersistError> {
        if self.is_dead() {
            return Err(PersistError::Crashed);
        }
        Ok(())
    }

    /// Notes that `point` was reached; dies (marks dead and errors) if
    /// the armed plan says so.
    pub(crate) fn reached(&self, point: CrashPoint) -> Result<(), PersistError> {
        self.alive()?;
        if self.should_die(point) {
            return Err(PersistError::Crashed);
        }
        Ok(())
    }

    /// Occurrence bookkeeping for `point`; marks the switch dead and
    /// returns `true` when the armed occurrence fires. Used directly by
    /// the mid-record points, which must do a partial write *before*
    /// dying.
    pub(crate) fn should_die(&self, point: CrashPoint) -> bool {
        let mut armed = self
            .armed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some((plan, seen)) = armed.as_mut() else {
            return false;
        };
        if plan.point != point {
            return false;
        }
        *seen += 1;
        if *seen >= plan.at_occurrence {
            self.dead.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_switch_never_dies() {
        let s = CrashSwitch::default();
        for point in CrashPoint::ALL {
            assert!(s.reached(point).is_ok());
        }
        assert!(!s.is_dead());
    }

    #[test]
    fn armed_occurrence_counts_down_then_kills() {
        let s = CrashSwitch::default();
        s.arm(CrashPlan::at_occurrence(CrashPoint::BeforeWalAppend, 3));
        assert!(s.reached(CrashPoint::BeforeWalAppend).is_ok());
        assert!(s.reached(CrashPoint::AfterWalAppend).is_ok()); // other point: no count
        assert!(s.reached(CrashPoint::BeforeWalAppend).is_ok());
        assert!(matches!(
            s.reached(CrashPoint::BeforeWalAppend),
            Err(PersistError::Crashed)
        ));
        assert!(s.is_dead());
        // Dead means dead: every later boundary refuses.
        assert!(matches!(
            s.reached(CrashPoint::BeforeSnapshot),
            Err(PersistError::Crashed)
        ));
        assert!(s.alive().is_err());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_occurrence_rejected() {
        let _ = CrashPlan::at_occurrence(CrashPoint::MidWalRecord, 0);
    }
}
