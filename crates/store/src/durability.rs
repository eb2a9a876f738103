//! Durability engine: configuration, snapshots, directory recovery, and
//! the flush policy between the [`crate::Store`] write path and the
//! [`crate::wal::Wal`].
//!
//! No thread runs here. Under [`FlushPolicy::GroupCommit`] the writers
//! flush the WAL themselves (leader/follower, see [`crate::wal`]). Under
//! [`FlushPolicy::Async`] the record that opens a batch arms one
//! [`Clock::wake_at`] timer, `window` ahead, whose waker holds the engine
//! weakly and flushes; on `RealClock` that fsync runs on the clock's
//! timer thread.
//!
//! A durable store's directory holds
//!
//! * `snapshot.snap` — the newest complete snapshot (frame-encoded, see
//!   [`crate::wal`] for the frame format), replaced atomically via
//!   `snapshot.tmp` + rename,
//! * `wal-<seq>.log` — WAL segments, replayed in sequence order; the
//!   highest sequence is the active segment and the only one allowed a
//!   torn tail.
//!
//! Recovery = load snapshot (if any) + replay every WAL record with a
//! revision above the snapshot revision, then open a fresh segment for new
//! appends. The torn tail of the old active segment is truncated off so a
//! later recovery never mistakes it for mid-log corruption.

use crate::wal::{
    self, decode_frame, frame_into, EntryRef, Frame, StoreError, Wal, WalEntry, WalOp, SNAP_MAGIC,
    WAL_MAGIC,
};
use serde::{Deserialize, Serialize, Sink};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::Object;
use vc_api::time::{waker_fn, Clock};

pub use crate::wal::FlushPolicy;

/// Configuration for the durable tier of a [`crate::Store`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the snapshot and WAL segments. Created if absent.
    pub dir: PathBuf,
    /// When a write is acknowledged relative to the fsync.
    pub flush: FlushPolicy,
    /// Automatically cut a snapshot (and retire old WAL segments) after
    /// this many durable writes; `0` disables auto-snapshots (tests call
    /// [`crate::Store::snapshot_now`] explicitly).
    pub snapshot_every_writes: u64,
}

impl DurabilityConfig {
    /// Durability in `dir` with [`FlushPolicy::GroupCommit`] and no
    /// auto-snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            flush: FlushPolicy::GroupCommit,
            snapshot_every_writes: 0,
        }
    }

    /// Replaces the flush policy.
    pub fn with_flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    /// Replaces the auto-snapshot write threshold.
    pub fn with_snapshot_every(mut self, writes: u64) -> Self {
        self.snapshot_every_writes = writes;
        self
    }
}

/// What recovery found in the WAL directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Revision of the loaded snapshot (0 when none existed).
    pub snapshot_revision: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_applied: u64,
    /// Whether the active segment ended in a torn (incomplete) record —
    /// i.e. the previous process died mid-append. The tail was truncated.
    pub torn_tail: bool,
    /// Store revision after recovery.
    pub recovered_revision: u64,
}

/// Monotonic counters describing durable-tier activity, readable while
/// the store runs (all atomic). Each is a shared cell a metrics registry
/// binds once.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended to the WAL.
    pub appends: Arc<Counter>,
    /// Batches written and fsynced (batches, not records; a flush that
    /// finds nothing pending is not one).
    pub fsyncs: Arc<Counter>,
    /// Frame bytes appended (headers + payloads).
    pub bytes_appended: Arc<Counter>,
    /// Snapshots successfully written.
    pub snapshots: Arc<Counter>,
    /// Group-commit flushes that failed. The WAL is fail-stop, so after
    /// the first real failure every durable write errors out.
    pub flush_failures: Arc<Counter>,
    /// Auto-snapshot attempts that failed (cut or write error). A
    /// persistently failing snapshot means the WAL keeps growing until
    /// one succeeds — watch this counter.
    pub snapshot_failures: Arc<Counter>,
}

/// One frame payload inside a snapshot file: metadata first, then the
/// object set, then the per-kind event logs (so recovered watchers can
/// resume from any revision at or above the compaction floor).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) enum SnapRecord {
    /// First frame: the revision the snapshot was cut at plus each
    /// shard's compaction floor (indexed by kind discriminant).
    Meta {
        /// Store revision of the consistent cut.
        revision: u64,
        /// Per-kind compaction floors at the cut.
        floors: Vec<u64>,
    },
    /// One live object (its `resource_version` is authoritative).
    Object {
        /// The stored object.
        object: Object,
    },
    /// One retained event-log entry.
    Event {
        /// Revision the event happened at.
        revision: u64,
        /// Operation (maps onto the watch event type).
        op: WalOp,
        /// Object state the event carries.
        object: Object,
    },
}

/// A [`SnapRecord`] object or event frame that borrows its object, so that
/// a snapshot copies no object. It writes what the derived `SnapRecord`
/// writes: an event's fields are a WAL entry's.
enum SnapRecordRef<'a> {
    /// [`SnapRecord::Object`].
    Object(&'a Object),
    /// [`SnapRecord::Event`].
    Event(EntryRef<'a>),
}

impl Serialize for SnapRecordRef<'_> {
    fn serialize<S: Sink>(&self, out: &mut S) {
        let mut variant = out.begin_map(1);
        match self {
            SnapRecordRef::Object(object) => {
                out.key(&mut variant, "Object");
                let mut fields = out.begin_struct(1);
                out.field(&mut fields, "object", *object);
                out.end_map(fields);
            }
            SnapRecordRef::Event(entry) => {
                out.key(&mut variant, "Event");
                entry.serialize(out);
            }
        }
        out.end_map(variant);
    }
}

/// Everything recovery reads back from a store directory.
pub(crate) struct Recovered {
    /// Parsed snapshot, if `snapshot.snap` existed.
    pub snapshot: Option<SnapshotData>,
    /// WAL entries with revision above the snapshot revision, in commit
    /// order.
    pub entries: Vec<WalEntry>,
    /// Whether the active segment had a torn tail (now truncated).
    pub torn_tail: bool,
    /// Sequence number the next (fresh) active segment should use.
    pub next_seq: u64,
}

/// Snapshot content: built from `Arc` clones under the shard locks on the
/// write side (serialization then happens outside the locks), and from
/// freshly-decoded objects on the load side.
pub(crate) struct SnapshotData {
    /// Revision of the consistent cut.
    pub revision: u64,
    /// Per-kind compaction floors (indexed by kind discriminant).
    pub floors: Vec<u64>,
    /// Live objects.
    pub objects: Vec<Arc<Object>>,
    /// Retained event-log entries, oldest first, grouped by kind.
    pub events: Vec<(u64, WalOp, Arc<Object>)>,
}

/// The durable tier attached to a [`crate::Store`]: the WAL and snapshot
/// bookkeeping.
pub(crate) struct Durability {
    pub(crate) config: DurabilityConfig,
    pub(crate) wal: Wal,
    /// Clock the [`FlushPolicy::Async`] flush timers are armed on
    /// (SimClock in deterministic tests).
    clock: Arc<dyn Clock>,
    /// Sequence number of the active WAL segment.
    active_seq: AtomicU64,
    /// Serializes snapshot writers (at most one cut at a time).
    snapshot_lock: parking_lot::Mutex<()>,
    /// Durable writes since the last snapshot (drives auto-snapshots).
    pub(crate) writes_since_snapshot: AtomicU64,
}

impl Durability {
    /// Opens the durable tier on an already-recovered directory: creates
    /// the fresh active segment `seq`.
    pub(crate) fn open(
        config: DurabilityConfig,
        clock: Arc<dyn Clock>,
        seq: u64,
    ) -> Result<Arc<Durability>, StoreError> {
        Ok(Arc::new(Durability {
            wal: Wal::create(&config.dir, seq)?,
            clock,
            active_seq: AtomicU64::new(seq),
            snapshot_lock: parking_lot::Mutex::new(()),
            writes_since_snapshot: AtomicU64::new(0),
            config,
        }))
    }

    /// Allocates a revision and logs its record atomically (see
    /// [`Wal::append_allocating`]): `encode` appends the record's frame to
    /// the batch it is handed. Returns `(revision, ack offset)`.
    /// Under [`FlushPolicy::Async`] the record that opens a batch arms the
    /// timer that flushes it, after the WAL lock is released.
    pub(crate) fn log_write(
        self: &Arc<Self>,
        alloc: impl FnOnce() -> u64,
        encode: impl FnOnce(u64, &mut Vec<u8>),
    ) -> Result<(u64, u64), StoreError> {
        let (revision, offset, opened) = self.wal.append_allocating(alloc, encode)?;
        if let (true, FlushPolicy::Async { window }) = (opened, self.config.flush) {
            let engine = Arc::downgrade(self);
            let flush = waker_fn(move || {
                if let Some(engine) = engine.upgrade() {
                    // A failure is counted and kills the WAL; the writers
                    // that follow get the error.
                    let _ = engine.wal.flush();
                }
            });
            self.clock.wake_at(self.clock.now().add(window), flush);
        }
        Ok((revision, offset))
    }

    /// Serializes snapshot cuts: the caller holds this for the whole
    /// collect-rotate-write sequence.
    pub(crate) fn snapshot_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.snapshot_lock.lock()
    }

    /// Non-blocking variant for the auto-snapshot path: skip the cut if
    /// one is already in progress.
    pub(crate) fn snapshot_try_guard(&self) -> Option<parking_lot::MutexGuard<'_, ()>> {
        self.snapshot_lock.try_lock()
    }

    /// Writes `data` as the new snapshot: frame each record into one reused
    /// buffer and write it to `snapshot.tmp`, fsync, rename over
    /// `snapshot.snap`, fsync the directory, then retire every WAL segment
    /// older than the active one. `data` must be
    /// a consistent cut, the WAL must already be rotated past it, and the
    /// caller must hold the [`Durability::snapshot_guard`]
    /// (see [`crate::Store::snapshot_now`]).
    pub(crate) fn write_snapshot(&self, data: &SnapshotData) -> Result<(), StoreError> {
        let dir = &self.config.dir;
        let tmp = dir.join("snapshot.tmp");
        let fin = dir.join("snapshot.snap");

        let mut file = File::create(&tmp).map_err(|e| StoreError::io("create snapshot.tmp", e))?;
        // Frames gather in one buffer that goes to the file a chunk at a
        // time, not one `write` per record.
        let mut frames = SNAP_MAGIC.to_vec();
        let meta = SnapRecord::Meta { revision: data.revision, floors: data.floors.clone() };
        write_frame(&mut file, &mut frames, &meta, "write snapshot meta")?;

        let half = data.objects.len() / 2;
        for (i, object) in data.objects.iter().enumerate() {
            // Injected mid-snapshot crash: die halfway through the object
            // section, before the rename — the tmp file is left behind
            // exactly as a real crash would leave it.
            if i == half && self.wal.take_snapshot_crash() {
                return Err(injected_snapshot_crash(&mut file, &frames));
            }
            let record = SnapRecordRef::Object(object);
            write_frame(&mut file, &mut frames, &record, "write snapshot object")?;
        }
        for (revision, op, object) in &data.events {
            let record = SnapRecordRef::Event(EntryRef { revision: *revision, op: *op, object });
            write_frame(&mut file, &mut frames, &record, "write snapshot event")?;
        }
        // An empty object section can't host the injected crash above;
        // still honor it so the chaos test works on tiny stores.
        if self.wal.take_snapshot_crash() {
            return Err(injected_snapshot_crash(&mut file, &frames));
        }
        file.write_all(&frames).map_err(|e| StoreError::io("write snapshot", e))?;
        file.sync_all().map_err(|e| StoreError::io("fsync snapshot.tmp", e))?;
        drop(file);
        fs::rename(&tmp, &fin).map_err(|e| StoreError::io("rename snapshot", e))?;
        sync_dir(dir)?;

        // The snapshot covers everything below the active segment: retire
        // the old segments.
        let active = self.active_seq.load(Ordering::Relaxed);
        for (seq, path) in list_segments(dir)? {
            if seq < active {
                let _ = fs::remove_file(path);
            }
        }
        self.wal.stats.snapshots.inc();
        self.writes_since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes the active segment and switches appends to a fresh one,
    /// returning nothing; callers hold every shard state lock so no
    /// append races the rotation.
    pub(crate) fn rotate_wal(&self) -> Result<(), StoreError> {
        let next = self.active_seq.load(Ordering::Relaxed) + 1;
        self.wal.rotate(&self.config.dir, next)?;
        self.active_seq.store(next, Ordering::Relaxed);
        Ok(())
    }
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir).and_then(|d| d.sync_all()).map_err(|e| StoreError::io("fsync wal dir", e))
}

/// A snapshot's buffered frames go to its file once they reach this size.
const SNAPSHOT_CHUNK: usize = 1024 * 1024;

/// Appends `record`'s frame to `frames`, and writes them out to `file`
/// once they reach [`SNAPSHOT_CHUNK`].
fn write_frame(
    file: &mut File,
    frames: &mut Vec<u8>,
    record: &impl Serialize,
    what: &str,
) -> Result<(), StoreError> {
    frame_into(record, frames);
    if frames.len() >= SNAPSHOT_CHUNK {
        file.write_all(frames).map_err(|e| StoreError::io(what, e))?;
        frames.clear();
    }
    Ok(())
}

/// Leaves `file` as a crash mid-snapshot would, with every frame written
/// so far on disk, and returns the injected error.
fn injected_snapshot_crash(file: &mut File, frames: &[u8]) -> StoreError {
    let _ = file.write_all(frames);
    let _ = file.sync_all();
    StoreError::io("snapshot", std::io::Error::other("injected crash: mid-snapshot"))
}

/// Lists `wal-<seq>.log` files in `dir`, sorted by sequence.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read wal dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read wal dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Reads and validates `snapshot.snap` if present. A snapshot only exists
/// after a full fsync + atomic rename, so *any* damage inside it — torn
/// frame included — is corruption, never a benign tail.
fn load_snapshot(dir: &Path) -> Result<Option<SnapshotData>, StoreError> {
    let path = dir.join("snapshot.snap");
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(|e| StoreError::io("read snapshot", e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("open snapshot", e)),
    }
    if bytes.len() < SNAP_MAGIC.len() || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(StoreError::corrupt(&path, 0, "bad snapshot magic"));
    }
    let mut offset = SNAP_MAGIC.len();
    let mut meta: Option<(u64, Vec<u64>)> = None;
    let mut objects = Vec::new();
    let mut events = Vec::new();
    while offset < bytes.len() {
        match decode_frame(&bytes, offset) {
            Frame::Ok { payload, next } => {
                let text = std::str::from_utf8(payload).map_err(|_| {
                    StoreError::corrupt(&path, offset as u64, "snapshot payload is not UTF-8")
                })?;
                let record: SnapRecord = serde_json::from_str(text).map_err(|e| {
                    StoreError::corrupt(
                        &path,
                        offset as u64,
                        format!("snapshot payload not a SnapRecord: {e}"),
                    )
                })?;
                match record {
                    SnapRecord::Meta { revision, floors } => {
                        if meta.is_some() {
                            return Err(StoreError::corrupt(
                                &path,
                                offset as u64,
                                "duplicate snapshot meta frame",
                            ));
                        }
                        meta = Some((revision, floors));
                    }
                    SnapRecord::Object { object } => objects.push(Arc::new(frozen(object))),
                    SnapRecord::Event { revision, op, object } => {
                        events.push((revision, op, Arc::new(frozen(object))))
                    }
                }
                offset = next;
            }
            Frame::Torn => {
                return Err(StoreError::corrupt(
                    &path,
                    offset as u64,
                    "torn frame in snapshot (snapshots are written atomically)",
                ));
            }
            Frame::Corrupt { detail } => {
                return Err(StoreError::corrupt(&path, offset as u64, detail));
            }
        }
    }
    let (revision, floors) =
        meta.ok_or_else(|| StoreError::corrupt(&path, 0, "snapshot missing meta frame"))?;
    Ok(Some(SnapshotData { revision, floors, objects, events }))
}

/// Recovers a store directory: snapshot + ordered WAL replay suffix.
/// Truncates the active segment's torn tail (if any) so it reads clean on
/// the next recovery, and removes a leftover `snapshot.tmp` from a crash
/// mid-snapshot.
pub(crate) fn recover_dir(dir: &Path) -> Result<Recovered, StoreError> {
    fs::create_dir_all(dir).map_err(|e| StoreError::io("create wal dir", e))?;
    // A crash between tmp-write and rename leaves snapshot.tmp behind;
    // it was never the authoritative snapshot, so drop it.
    let _ = fs::remove_file(dir.join("snapshot.tmp"));

    let snapshot = load_snapshot(dir)?;
    let snapshot_revision = snapshot.as_ref().map(|s| s.revision).unwrap_or(0);

    let segments = list_segments(dir)?;
    let last_seq = segments.last().map(|(seq, _)| *seq).unwrap_or(0);
    let mut entries = Vec::new();
    let mut torn_tail = false;
    let mut last_revision = 0u64;
    for (seq, path) in &segments {
        let active = *seq == last_seq;
        let (segment_entries, torn_at) = wal::read_segment(path, active)?;
        for entry in segment_entries {
            // WAL byte order equals commit order (revisions are allocated
            // under the WAL lock), so anything non-monotonic is damage,
            // not reordering.
            if entry.revision <= last_revision {
                return Err(StoreError::corrupt(
                    path,
                    0,
                    format!("revision went backwards: {} after {last_revision}", entry.revision),
                ));
            }
            last_revision = entry.revision;
            if entry.revision > snapshot_revision {
                entries.push(entry);
            }
        }
        if let Some(offset) = torn_at {
            torn_tail = true;
            if offset < WAL_MAGIC.len() as u64 {
                // The active segment died before even its magic reached
                // disk: no frame can exist. Delete it — truncating would
                // leave a sub-magic segment that, once it is no longer
                // the active one, the next recovery rejects as "bad
                // segment magic".
                fs::remove_file(path)
                    .map_err(|e| StoreError::io("remove headerless segment", e))?;
                sync_dir(dir)?;
            } else {
                // Truncate the torn record so this segment reads clean
                // if it is no longer the active one on the next recovery.
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io("open segment for truncate", e))?;
                file.set_len(offset).map_err(|e| StoreError::io("truncate torn tail", e))?;
                file.sync_all().map_err(|e| StoreError::io("fsync truncated segment", e))?;
            }
        }
    }
    Ok(Recovered { snapshot, entries, torn_tail, next_seq: last_seq + 1 })
}

/// `object` with its shareable parts frozen, as the store holds it.
fn frozen(mut object: Object) -> Object {
    object.freeze();
    object
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::pod::Pod;

    #[test]
    fn borrowed_snapshot_records_write_the_owned_record_text() {
        let mut pod = Pod::new("ns", "p");
        pod.meta.annotations.insert("a".into(), "b".into());
        let object: Object = pod.into();
        let owned = SnapRecord::Object { object: object.clone() };
        assert_eq!(
            serde_json::to_string(&SnapRecordRef::Object(&object)).unwrap(),
            serde_json::to_string(&owned).unwrap()
        );
        let owned = SnapRecord::Event { revision: 9, op: WalOp::Delete, object: object.clone() };
        let borrowed =
            SnapRecordRef::Event(EntryRef { revision: 9, op: WalOp::Delete, object: &object });
        assert_eq!(
            serde_json::to_string(&borrowed).unwrap(),
            serde_json::to_string(&owned).unwrap()
        );
    }
}
