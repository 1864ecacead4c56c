//! [`DurableKb`]: the knowledge base behind a write-ahead log and
//! per-shard snapshots, with crash recovery.
//!
//! Every write (`upsert`/`feed`) appends one framed record to
//! `wal.log` *before* mutating the in-memory store, under one mutex that
//! spans both steps — so the log order is exactly the apply order and a
//! snapshot cut taken under the same mutex is consistent. Reads go
//! straight to the inner [`KnowledgeBase`] (no lock beyond the store's
//! own shard locks). [`DurableKb::snapshot`] (serialized: one snapshot
//! at a time) writes one file per in-memory shard in parallel over
//! `cloudscope-par`, each committed by an atomic rename, commits the
//! generation by renaming the manifest, then rotates the WAL down to
//! the post-cut tail so log size and recovery cost track
//! since-last-snapshot volume, not lifetime volume. [`DurableKb::open`]
//! recovers: newest committed generation, then the WAL tail —
//! tolerating a torn final record — reproducing the pre-crash committed
//! state exactly, at *any* shard count.
//!
//! # Durability scope
//!
//! Under the default [`SyncPolicy::OsBuffered`], an acknowledged write
//! has reached the OS page cache: it survives any process crash or kill
//! (the failure mode the [`CrashPoint`] harness simulates), but an OS
//! crash or power failure may lose the most recent appends.
//! [`SyncPolicy::Always`] adds an `fdatasync` per append for
//! power-failure durability at a per-write latency cost. Snapshot
//! artifacts are always committed with the workspace's atomic write
//! ([`cloudscope_model::durable::write_atomic`]: tmp → fsync → rename)
//! and a directory sync per batch of renames, whichever policy is
//! active.

use super::crash::{CrashPlan, CrashPoint, CrashSwitch};
use super::snapshot::{self, Manifest};
use super::wal;
use super::{codec, PersistError};
use crate::knowledge::WorkloadKnowledge;
use crate::store::{FeedOutcome, KbStore, KnowledgeBase, StoreError};
use cloudscope_model::durable::{sync_dir, write_atomic, Enc};
use cloudscope_par::Parallelism;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What recovery found when a [`DurableKb`] was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed snapshot generation loaded (0 = no snapshot yet).
    pub generation: u64,
    /// Entries loaded from the snapshot files.
    pub snapshot_entries: usize,
    /// WAL records replayed after the snapshot cut.
    pub replayed_records: usize,
    /// Entries those records carried (the upserts).
    pub replayed_entries: usize,
    /// `true` if a torn final WAL record was dropped (the residue of a
    /// crash mid-append; everything before it was kept).
    pub torn_tail: bool,
}

/// What one completed [`DurableKb::snapshot`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// The generation this snapshot committed.
    pub generation: u64,
    /// Shard files written (one per in-memory shard).
    pub shard_files: usize,
    /// Entries captured across all shard files.
    pub entries: usize,
    /// WAL byte offset the snapshot cut at: recovery replays from here
    /// (until the post-commit rotation folds the cut away).
    pub wal_offset: u64,
}

/// How aggressively WAL appends are pushed to stable storage. Snapshot
/// artifacts (shard files, manifest, rotated segments) are always
/// fsynced and committed by rename plus directory fsync regardless of
/// policy; this knob only governs the per-append hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum SyncPolicy {
    /// Appends reach the OS page cache and flush on the kernel's
    /// schedule: durable against process crashes and kills (the
    /// failure mode the crash harness simulates), but an OS crash or
    /// power failure may lose the most recent appends. The default —
    /// no fsync on the write path.
    #[default]
    OsBuffered,
    /// `fdatasync` after every append: acknowledged records survive OS
    /// crashes and power failure (to the extent the storage stack
    /// honours flushes), at a large per-write latency cost.
    Always,
}

/// Serialized writer state: the WAL handle plus the bookkeeping that
/// must move in lockstep with it (the apply-to-memory step and the
/// snapshot generation counter).
#[derive(Debug)]
struct WalWriter {
    file: File,
    /// Valid bytes in `wal.log` (header included).
    len: u64,
    /// Segment sequence in the live log's header.
    seq: u64,
    /// Last snapshot generation started (committed or not; generations
    /// only ever grow, and only the manifest commits one).
    generation: u64,
    /// `false` after a failed append whose rollback (truncate back to
    /// `len`) also failed: the file may end in garbage, so no further
    /// append or rotation may trust it until the rollback succeeds.
    healthy: bool,
}

/// A [`KnowledgeBase`] that survives restarts: WAL on every write,
/// parallel per-shard snapshots, crash recovery on open.
///
/// # Example
/// ```no_run
/// use cloudscope_kb::{DurableKb, KbQuery};
///
/// let db = DurableKb::open("/var/lib/cloudscope/kb").unwrap();
/// // ... feed extraction sweeps through the KbStore trait ...
/// let snap = db.snapshot().unwrap();
/// println!("generation {} captured {} entries", snap.generation, snap.entries);
/// // After a restart, open() replays the WAL tail on top of the
/// // snapshot: the store is exactly what was committed before.
/// let restored = DurableKb::open("/var/lib/cloudscope/kb").unwrap();
/// println!("{} spot candidates", KbQuery::spot_candidates().count(restored.kb()));
/// ```
#[derive(Debug)]
pub struct DurableKb {
    kb: KnowledgeBase,
    dir: PathBuf,
    wal: Mutex<WalWriter>,
    /// Serializes whole snapshots: generation bump → shard files →
    /// manifest rename → cleanup → WAL rotation. Without it, a newer
    /// generation's cleanup could delete shard files an older in-flight
    /// snapshot is about to commit a manifest for.
    snapshots: Mutex<()>,
    sync: SyncPolicy,
    crash: Arc<CrashSwitch>,
    recovery: RecoveryStats,
}

impl DurableKb {
    /// Opens (creating if absent) the durable KB at `dir` with the
    /// default in-memory shard count, recovering any committed state:
    /// the newest valid snapshot generation plus the WAL tail.
    ///
    /// # Errors
    /// I/O errors, and loud [`PersistError::Corrupt`] /
    /// [`PersistError::Malformed`] for any checksum or format defect —
    /// silently loading corrupt state is never an option. The only
    /// tolerated defect is a torn *final* WAL record (a crash
    /// mid-append), which is dropped and truncated away.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_with_shards(dir, None)
    }

    /// [`DurableKb::open`] with an explicit in-memory shard count. The
    /// shard count is a concurrency knob of *this* process: recovery
    /// accepts snapshots written at any other count and produces
    /// identical query results.
    ///
    /// # Errors
    /// See [`DurableKb::open`].
    ///
    /// # Panics
    /// Panics if `shards == Some(0)`.
    pub fn open_with_shards(
        dir: impl AsRef<Path>,
        shards: Option<usize>,
    ) -> Result<Self, PersistError> {
        Self::open_with(dir, shards, SyncPolicy::default())
    }

    /// [`DurableKb::open_with_shards`] with an explicit WAL
    /// [`SyncPolicy`] (see the module docs for the durability scope of
    /// each).
    ///
    /// # Errors
    /// See [`DurableKb::open`].
    ///
    /// # Panics
    /// Panics if `shards == Some(0)`.
    pub fn open_with(
        dir: impl AsRef<Path>,
        shards: Option<usize>,
        sync: SyncPolicy,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::io(&dir, e))?;
        for name in [
            "kb.persist.wal_appends",
            "kb.persist.wal_bytes",
            "kb.persist.wal_rotations",
            "kb.persist.snapshots_written",
            "kb.persist.recovery_replayed",
        ] {
            cloudscope_obs::counter(name).add(0);
        }
        let started = Instant::now();
        let kb = match shards {
            Some(n) => KnowledgeBase::with_shards(n),
            None => KnowledgeBase::new(),
        };
        let mut recovery = RecoveryStats::default();

        // 1. The manifest names the committed generation, if any.
        let manifest_path = dir.join(snapshot::MANIFEST_FILE);
        let manifest: Option<Manifest> = match std::fs::read(&manifest_path) {
            Ok(bytes) => Some(snapshot::decode_manifest(&bytes, snapshot::MANIFEST_FILE)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(PersistError::io(&manifest_path, e)),
        };

        // 2. Load every shard file of that generation.
        if let Some(m) = manifest {
            recovery.generation = m.generation;
            for shard in 0..m.shard_files as usize {
                let name = snapshot::shard_file_name(m.generation, shard);
                let path = dir.join(&name);
                let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, e))?;
                let entries = snapshot::decode_shard_snapshot(&bytes, &name, m.generation, shard)?;
                recovery.snapshot_entries += entries.len();
                let outcome = kb.feed_batch(&entries);
                debug_assert_eq!(outcome.stored, entries.len(), "snapshot entries are unique");
            }
        }

        // 3. Replay the WAL tail on top. The segment sequence decides
        // where the tail starts: the manifest's cut offset points into
        // the segment it was taken in; a segment carrying the
        // manifest's generation was rotated after that commit and
        // replays whole.
        let wal_path = dir.join(wal::WAL_FILE);
        let buf = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if manifest.is_some() {
                    return Err(PersistError::Malformed {
                        file: wal::WAL_FILE.to_owned(),
                        reason: "manifest present but wal.log is missing".to_owned(),
                    });
                }
                // Create segment 0 whole via the atomic write, so a
                // crash mid-creation can never leave a torn header.
                let header = wal::encode_header(0);
                write_atomic(&wal_path, &header).map_err(|e| PersistError::io(&wal_path, e))?;
                sync_dir(&dir).map_err(|e| PersistError::io(&dir, e))?;
                header.to_vec()
            }
            Err(e) => return Err(PersistError::io(&wal_path, e)),
        };
        let seq = wal::parse_seq(&buf, wal::WAL_FILE)?;
        let wal_offset = match manifest {
            None if seq == 0 => wal::WAL_HEADER as u64,
            None => {
                return Err(PersistError::Malformed {
                    file: wal::WAL_FILE.to_owned(),
                    reason: format!(
                        "log is rotated segment {seq} but the manifest that committed \
                         it is missing"
                    ),
                });
            }
            Some(m) if seq == m.wal_seq => m.wal_offset,
            Some(m) if seq == m.generation => wal::WAL_HEADER as u64,
            Some(m) => {
                return Err(PersistError::Malformed {
                    file: wal::WAL_FILE.to_owned(),
                    reason: format!(
                        "log segment {seq} matches neither the manifest's cut segment {} \
                         nor its generation {}",
                        m.wal_seq, m.generation
                    ),
                });
            }
        };
        let replayed = wal::replay(&buf, wal_offset, wal::WAL_FILE)?;
        recovery.torn_tail = replayed.torn_tail;
        recovery.replayed_records = replayed.records.len();
        for batch in &replayed.records {
            recovery.replayed_entries += batch.len();
            let _ = kb.feed_batch(batch);
        }

        // 4. Truncate any torn tail and keep appending after the valid
        // prefix — new records must never follow garbage bytes.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&wal_path)
            .map_err(|e| PersistError::io(&wal_path, e))?;
        file.set_len(replayed.valid_len)
            .map_err(|e| PersistError::io(&wal_path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| PersistError::io(&wal_path, e))?;

        cloudscope_obs::counter("kb.persist.recovery_replayed")
            .add(recovery.replayed_entries as u64);
        cloudscope_obs::gauge("kb.persist.recovery_ns").set(started.elapsed().as_nanos() as f64);

        Ok(Self {
            kb,
            dir,
            wal: Mutex::new(WalWriter {
                file,
                len: replayed.valid_len,
                seq,
                generation: recovery.generation,
                healthy: true,
            }),
            snapshots: Mutex::new(()),
            sync,
            crash: Arc::new(CrashSwitch::default()),
            recovery,
        })
    }

    /// The in-memory store, for queries ([`KbQuery`](crate::KbQuery)
    /// terminals take `&KnowledgeBase`). Writes through this reference
    /// bypass the WAL and will not survive a restart — route writes
    /// through [`DurableKb::upsert`]/[`DurableKb::feed`] (or the
    /// [`KbStore`] impl) instead.
    #[must_use]
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// What recovery found when this handle was opened.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Arms a crash: the durability layer will simulate a process kill
    /// at the planned point. A test hook — after the crash fires, every
    /// operation fails with [`PersistError::Crashed`] until the
    /// directory is recovered by a fresh [`DurableKb::open`].
    pub fn arm_crash(&self, plan: CrashPlan) {
        self.crash.arm(plan);
    }

    /// Queues `count` *transient* torn-append faults: each makes one
    /// WAL append write a partial frame and then fail with an I/O error
    /// — the ENOSPC/EIO shape — while the process stays alive. A test
    /// hook for the retry path: unlike [`DurableKb::arm_crash`], the
    /// handle stays usable, and a retried append must land on the valid
    /// log prefix, never after the failed append's garbage bytes.
    pub fn arm_torn_append_faults(&self, count: u32) {
        self.crash.arm_torn_appends(count);
    }

    /// `true` once an armed crash has fired.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crash.is_dead()
    }

    fn lock_wal(&self) -> MutexGuard<'_, WalWriter> {
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one framed record, observing the write-path crash points
    /// and fault injection. On success the record has reached the OS
    /// (and stable storage under [`SyncPolicy::Always`]); on failure
    /// the file is rolled back to the valid prefix, so a later retry
    /// appends after valid records — never after the failed append's
    /// partial bytes, which would corrupt the log mid-file.
    fn append(&self, wal: &mut WalWriter, payload: &[u8]) -> Result<(), PersistError> {
        self.crash.reached(CrashPoint::BeforeWalAppend)?;
        let wal_path = self.dir.join(wal::WAL_FILE);
        if !wal.healthy {
            // An earlier failed append could not be rolled back; retry
            // that rollback before accepting new records.
            restore_append_point(wal).map_err(|e| PersistError::io(&wal_path, e))?;
            wal.healthy = true;
        }
        let mut framed = Enc::with_capacity(codec::FRAME_HEADER + payload.len());
        codec::append_frame(&mut framed, payload);
        let framed = framed.into_vec();
        if self.crash.should_die(CrashPoint::MidWalRecord) {
            // A torn write: the first half of the record reaches disk,
            // the rest never does (and the process is dead, so no
            // rollback runs — recovery truncates the torn tail).
            let half = &framed[..framed.len() / 2];
            let _ = wal.file.write_all(half);
            wal.len += half.len() as u64;
            return Err(PersistError::Crashed);
        }
        let wrote = if self.crash.take_torn_fault() {
            // Injected transient failure: some bytes reach the file,
            // then the device errors — but the process lives on.
            let _ = wal.file.write_all(&framed[..framed.len() / 2]);
            Err(std::io::Error::other("injected torn-append fault"))
        } else {
            wal.file.write_all(&framed)
        };
        let synced = wrote.and_then(|()| match self.sync {
            SyncPolicy::Always => wal.file.sync_data(),
            SyncPolicy::OsBuffered => Ok(()),
        });
        if let Err(e) = synced {
            // Partial frame bytes may sit after the valid prefix now;
            // truncate them away and repark the cursor. If even that
            // fails, poison the writer so nothing appends after the
            // garbage.
            if restore_append_point(wal).is_err() {
                wal.healthy = false;
            }
            return Err(PersistError::io(&wal_path, e));
        }
        wal.len += framed.len() as u64;
        cloudscope_obs::counter("kb.persist.wal_appends").inc();
        cloudscope_obs::counter("kb.persist.wal_bytes").add(framed.len() as u64);
        self.crash.reached(CrashPoint::AfterWalAppend)?;
        Ok(())
    }

    /// Durably inserts or refreshes one entry: WAL append, then the
    /// in-memory upsert. Returns the store's verdict (`false` = stale).
    ///
    /// # Errors
    /// The WAL append's I/O error (the store is untouched then), or
    /// [`PersistError::Crashed`] under an armed crash plan.
    pub fn upsert(&self, knowledge: WorkloadKnowledge) -> Result<bool, PersistError> {
        let mut wal = self.lock_wal();
        self.append(
            &mut wal,
            &wal::encode_feed(std::slice::from_ref(&knowledge)),
        )?;
        Ok(self.kb.upsert(knowledge))
    }

    /// Durably ingests one batch as a single WAL record, then one
    /// in-memory batched write. Atomic under crash: recovery sees the
    /// whole batch or none of it.
    ///
    /// # Errors
    /// See [`DurableKb::upsert`].
    pub fn feed(&self, batch: &[WorkloadKnowledge]) -> Result<FeedOutcome, PersistError> {
        if batch.is_empty() {
            return Ok(FeedOutcome::default());
        }
        let mut wal = self.lock_wal();
        self.append(&mut wal, &wal::encode_feed(batch))?;
        Ok(self.kb.feed_batch(batch))
    }

    /// Takes a snapshot with [`Parallelism::auto`] workers.
    ///
    /// # Errors
    /// See [`DurableKb::snapshot_with`].
    pub fn snapshot(&self) -> Result<SnapshotReport, PersistError> {
        self.snapshot_with(&Parallelism::auto())
    }

    /// Writes one snapshot file per in-memory shard (in parallel over
    /// `parallelism`), each committed by an atomic rename, commits the
    /// generation by atomically renaming the manifest, then rotates the
    /// WAL down to the post-cut tail. The cut is consistent: it is
    /// taken under the WAL mutex, so it sits exactly between two
    /// records. A crash anywhere before the manifest rename leaves the
    /// previous generation live and loses nothing — the WAL still
    /// covers every committed write; a crash after it (cleanup or
    /// rotation) has already committed the new generation.
    ///
    /// Snapshots are serialized on a dedicated mutex: a second
    /// concurrent call blocks until the first finishes, so a newer
    /// generation can never delete files an in-flight older one is
    /// still committing.
    ///
    /// # Errors
    /// I/O errors from the file writes/renames, or
    /// [`PersistError::Crashed`] under an armed crash plan.
    pub fn snapshot_with(&self, parallelism: &Parallelism) -> Result<SnapshotReport, PersistError> {
        let _one_at_a_time = self
            .snapshots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (generation, wal_seq, wal_offset, dumps) = {
            let mut wal = self.lock_wal();
            self.crash.reached(CrashPoint::BeforeSnapshot)?;
            wal.generation += 1;
            (
                wal.generation,
                wal.seq,
                wal.len,
                self.kb.export_shard_entries(),
            )
        };
        debug_assert!(wal_seq < generation, "rotation sequences trail generations");
        let entries: usize = dumps.iter().map(|(_, v)| v.len()).sum();

        // Parallel per-shard writes; each task is independent and each
        // file is atomically renamed, so any subset surviving a crash is
        // harmless (recovery only reads manifest-named generations).
        let results = parallelism.par_map(&dumps, |(shard, entries)| {
            self.write_shard_file(generation, *shard, entries)
        });
        for result in results {
            result?;
        }
        // One directory fsync covers all the shard renames, so the
        // manifest can never commit names the directory might forget.
        sync_dir(&self.dir).map_err(|e| PersistError::io(&self.dir, e))?;

        self.crash.reached(CrashPoint::BeforeManifestRename)?;
        let manifest = Manifest {
            generation,
            shard_files: dumps.len() as u32,
            wal_seq,
            wal_offset,
        };
        let manifest_path = self.dir.join(snapshot::MANIFEST_FILE);
        write_atomic(&manifest_path, &snapshot::encode_manifest(&manifest))
            .map_err(|e| PersistError::io(&manifest_path, e))?;
        sync_dir(&self.dir).map_err(|e| PersistError::io(&self.dir, e))?;
        self.crash.reached(CrashPoint::AfterManifestRename)?;

        cloudscope_obs::counter("kb.persist.snapshots_written").add(dumps.len() as u64);
        self.cleanup_stale_generations(generation);
        self.rotate_wal(generation, wal_offset)?;
        Ok(SnapshotReport {
            generation,
            shard_files: dumps.len(),
            entries,
            wal_offset,
        })
    }

    /// Rewrites `wal.log` as a fresh segment (sequence = the committed
    /// `generation`) holding only the records after byte `cut` — the
    /// part no snapshot covers — so log size and recovery replay cost
    /// track since-last-snapshot write volume instead of lifetime
    /// volume. Runs strictly after the manifest rename: until the
    /// atomic segment swap lands, the manifest's `(wal_seq, wal_offset)`
    /// cut stays valid against the old segment, and afterwards recovery
    /// recognizes the rotated segment by its sequence. A crash or error
    /// mid-rotation leaves the old segment live — pure growth, no
    /// correctness loss.
    fn rotate_wal(&self, generation: u64, cut: u64) -> Result<(), PersistError> {
        let mut wal = self.lock_wal();
        if !wal.healthy {
            // A failed append's rollback is still pending; the file
            // tail is not trustworthy, so keep the old segment.
            return Ok(());
        }
        let wal_path = self.dir.join(wal::WAL_FILE);
        let buf = std::fs::read(&wal_path).map_err(|e| PersistError::io(&wal_path, e))?;
        let tail =
            buf.get(cut as usize..wal.len as usize)
                .ok_or_else(|| PersistError::Malformed {
                    file: wal::WAL_FILE.to_owned(),
                    reason: format!(
                        "log shrank below its own append point ({} bytes, cursor {})",
                        buf.len(),
                        wal.len
                    ),
                })?;
        if self.crash.should_die(CrashPoint::MidWalRotate) {
            // A torn rotation temp that never replaces the live
            // segment; the manifest's cut keeps working.
            let tmp_path = self.dir.join(format!("{}.tmp", wal::WAL_FILE));
            let _ = std::fs::write(tmp_path, &wal::encode_header(generation)[..4]);
            return Err(PersistError::Crashed);
        }
        let segment = [&wal::encode_header(generation)[..], tail].concat();
        let file = write_atomic(&wal_path, &segment).map_err(|e| PersistError::io(&wal_path, e))?;
        // The returned handle owns the inode now named `wal.log`, cursor
        // at the end — swap it in before anything else can fail, so the
        // writer never keeps appending to the unlinked old inode.
        wal.file = file;
        wal.len = segment.len() as u64;
        wal.seq = generation;
        cloudscope_obs::counter("kb.persist.wal_rotations").inc();
        sync_dir(&self.dir).map_err(|e| PersistError::io(&self.dir, e))?;
        self.crash.reached(CrashPoint::AfterWalRotate)?;
        Ok(())
    }

    /// Writes one shard's snapshot file (tmp → fsync → rename),
    /// observing the snapshot-path crash points.
    fn write_shard_file(
        &self,
        generation: u64,
        shard: usize,
        entries: &[WorkloadKnowledge],
    ) -> Result<(), PersistError> {
        self.crash.alive()?;
        let bytes = snapshot::encode_shard_snapshot(generation, shard, entries);
        let name = snapshot::shard_file_name(generation, shard);
        if self.crash.should_die(CrashPoint::MidShardSnapshot) {
            // A torn temp file that never gets renamed into place.
            let _ = std::fs::write(
                self.dir.join(format!("{name}.tmp")),
                &bytes[..bytes.len() / 2],
            );
            return Err(PersistError::Crashed);
        }
        let path = self.dir.join(&name);
        write_atomic(&path, &bytes).map_err(|e| PersistError::io(&path, e))?;
        self.crash.reached(CrashPoint::BetweenShardSnapshots)?;
        Ok(())
    }

    /// Best-effort removal of snapshot files from generations older
    /// than `live` and of leftover `.tmp` files. Only ever called under
    /// the snapshot mutex, after this generation's shard files and
    /// manifest have been renamed into place and before its WAL
    /// rotation starts — so every `.tmp` it can see is a dead leftover
    /// (a crashed snapshot or rotation), never an in-flight artifact.
    /// Failures are ignored: recovery never reads anything the manifest
    /// does not name.
    fn cleanup_stale_generations(&self, live: u64) {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_snap = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.split('-').next())
                .and_then(|generation| generation.parse::<u64>().ok())
                .is_some_and(|generation| generation < live);
            if (stale_snap && name.ends_with(".snap")) || name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Truncates the WAL file back to `wal.len` and reparks the cursor
/// there — the rollback that keeps a failed append's partial bytes out
/// of the record stream.
fn restore_append_point(wal: &mut WalWriter) -> std::io::Result<()> {
    wal.file.set_len(wal.len)?;
    wal.file.seek(SeekFrom::Start(wal.len))?;
    Ok(())
}

impl KbStore for DurableKb {
    /// [`DurableKb::upsert`] surfaced as a [`KbStore`] write: WAL I/O
    /// failures become transient store errors the extraction pipeline
    /// already knows how to retry.
    fn try_upsert(&self, knowledge: WorkloadKnowledge) -> Result<bool, StoreError> {
        self.upsert(knowledge)
            .map_err(|_| StoreError::Transient("kb durability layer unavailable"))
    }

    /// One WAL record per batch, then the store's native batched write.
    /// If the append fails, the whole batch is reported failed (the
    /// record is all-or-nothing), preserving per-entry retryability.
    fn try_feed(&self, batch: &[WorkloadKnowledge]) -> FeedOutcome {
        match self.feed(batch) {
            Ok(outcome) => outcome,
            Err(_) => FeedOutcome {
                failures: (0..batch.len())
                    .map(|i| (i, StoreError::Transient("kb durability layer unavailable")))
                    .collect(),
                ..FeedOutcome::default()
            },
        }
    }
}
