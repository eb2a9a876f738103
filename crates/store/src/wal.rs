//! Write-ahead log: length-prefixed, checksummed record frames with group
//! commit, plus the typed durability errors recovery surfaces.
//!
//! ## On-disk frame format
//!
//! Every record — in WAL segments and snapshot files alike — is framed as
//!
//! ```text
//! ┌───────────────┬──────────────────────┬─────────────────┐
//! │ len: u32 LE   │ sha256(payload): 32B │ payload: len B  │
//! └───────────────┴──────────────────────┴─────────────────┘
//! ```
//!
//! where the payload is the JSON encoding of a [`WalEntry`]. Files start
//! with an 8-byte magic (`VCWAL1\0\0` / `VCSNAP1\0`) so a WAL directory
//! pointed at the wrong files fails loudly instead of replaying garbage.
//!
//! ## Torn tail vs corruption
//!
//! A crash can tear the final frame of the *active* segment: the frame is
//! incomplete (the file ends before `len + 36` bytes are available). That
//! is the expected shutdown boundary — recovery truncates it and treats
//! everything before it as the durable prefix. A **complete** frame whose
//! checksum does not match, or a torn frame in a rotated (fsynced-then-
//! retired) segment, cannot be produced by a crash of our append-only
//! writer; both surface as [`StoreError::Corrupt`] instead of being
//! silently dropped.
//!
//! ## Group commit
//!
//! Appends go to an in-memory batch under the WAL lock; a flusher thread
//! (driven by the store's [`Clock`], so `SimClock` tests stay
//! deterministic) writes and fsyncs the batch once per flush window.
//! Writers under [`FlushPolicy::GroupCommit`] block until the fsync
//! covering their record completes (durable ack, amortized fsync); under
//! [`FlushPolicy::Async`] they return immediately and the flush window is
//! the crash-loss window; [`FlushPolicy::PerWrite`] fsyncs inline.
//!
//! [`Clock`]: vc_api::time::Clock

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use vc_api::object::Object;
use vc_api::sha256::sha256;

/// Magic bytes opening every WAL segment file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"VCWAL1\0\0";
/// Magic bytes opening every snapshot file.
pub(crate) const SNAP_MAGIC: &[u8; 8] = b"VCSNAP1\0";
/// Frame header size: u32 length + 32-byte SHA-256.
const FRAME_HEADER: usize = 4 + 32;
/// Cap on a single frame payload — a length prefix beyond this is treated
/// as corruption rather than an attempted 4GB allocation.
const MAX_FRAME_LEN: usize = 64 << 20;

/// Typed durability errors. Everything the WAL/snapshot/recovery path can
/// fail with is either an I/O error or evidence of on-disk corruption —
/// recovery never panics on bad bytes.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing when the operation failed.
        context: String,
        /// The failing I/O error.
        source: std::io::Error,
    },
    /// On-disk data is damaged: a mid-log checksum mismatch, a torn frame
    /// in a rotated segment, a bad magic, or a revision that moves
    /// backwards. Distinguished from a benign torn tail, which recovery
    /// truncates silently as the clean-shutdown boundary.
    Corrupt {
        /// File the damage was found in.
        file: PathBuf,
        /// Byte offset of the damaged frame.
        offset: u64,
        /// What check failed.
        detail: String,
    },
}

impl StoreError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        StoreError::Io { context: context.into(), source }
    }

    pub(crate) fn corrupt(file: &Path, offset: u64, detail: impl Into<String>) -> Self {
        StoreError::Corrupt { file: file.to_path_buf(), offset, detail: detail.into() }
    }

    /// Returns `true` for the corruption variant (vs plain I/O failure).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "wal io error ({context}): {source}"),
            StoreError::Corrupt { file, offset, detail } => {
                write!(f, "wal corrupt at {}+{offset}: {detail}", file.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// When a write is considered committed relative to the fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Every write is flushed and fsynced before it returns. Durable ack
    /// per write; one fsync per write.
    PerWrite,
    /// Writers block until the group fsync covering their record lands;
    /// the flusher batches everything that arrived inside one window into
    /// a single fsync.
    GroupCommit {
        /// Flush window — the longest a committed-but-unsynced batch waits.
        window: Duration,
    },
    /// Writers return as soon as the record is in the in-memory batch;
    /// the flusher fsyncs once per window. A crash loses at most one
    /// window of acknowledged writes (the etcd `--unsafe-no-fsync` mode).
    Async {
        /// Flush window — also the crash-loss window.
        window: Duration,
    },
}

impl FlushPolicy {
    /// The flush window a background flusher should run at (`None` for
    /// [`FlushPolicy::PerWrite`], which flushes inline).
    pub(crate) fn window(&self) -> Option<Duration> {
        match self {
            FlushPolicy::PerWrite => None,
            FlushPolicy::GroupCommit { window } | FlushPolicy::Async { window } => Some(*window),
        }
    }
}

/// The operation a WAL record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalOp {
    /// Object created (`Added` watch event).
    Insert,
    /// Object replaced (`Modified` watch event).
    Update,
    /// Object removed; the record carries the last state (`Deleted` event).
    Delete,
}

impl WalOp {
    /// The watch event type a replayed record of this op produces.
    pub(crate) fn event_type(self) -> crate::watch::EventType {
        match self {
            WalOp::Insert => crate::watch::EventType::Added,
            WalOp::Update => crate::watch::EventType::Modified,
            WalOp::Delete => crate::watch::EventType::Deleted,
        }
    }

    /// The op that produced a given watch event type (snapshot encoding).
    pub(crate) fn of_event(event_type: crate::watch::EventType) -> WalOp {
        match event_type {
            crate::watch::EventType::Added => WalOp::Insert,
            crate::watch::EventType::Modified => WalOp::Update,
            crate::watch::EventType::Deleted => WalOp::Delete,
        }
    }
}

/// One logical WAL record: the revision the write committed at, the
/// operation, and the object state the event log carries for it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalEntry {
    /// Store revision allocated to this write.
    pub revision: u64,
    /// Operation kind.
    pub op: WalOp,
    /// Object state after the write (last state for deletes).
    pub object: Object,
}

/// Encodes one frame: `[len u32 LE][sha256(payload)][payload]`.
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&sha256(payload));
    frame.extend_from_slice(payload);
    frame
}

pub(crate) fn encode_entry(entry: &WalEntry) -> Vec<u8> {
    let payload = serde_json::to_string(entry).expect("WalEntry serializes");
    encode_frame(payload.as_bytes())
}

/// Outcome of decoding the frame at `offset` in `bytes`.
pub(crate) enum Frame<'a> {
    /// A complete, checksum-verified frame; `next` is the following offset.
    Ok {
        /// Verified payload bytes.
        payload: &'a [u8],
        /// Offset of the next frame.
        next: usize,
    },
    /// The file ends before this frame completes — a torn tail.
    Torn,
    /// The frame is complete but fails verification.
    Corrupt {
        /// Which check failed.
        detail: String,
    },
}

/// Decodes the frame starting at `offset`; `offset == bytes.len()` is a
/// clean end and never reaches here (callers loop while `offset < len`).
pub(crate) fn decode_frame(bytes: &[u8], offset: usize) -> Frame<'_> {
    let remaining = &bytes[offset..];
    if remaining.len() < FRAME_HEADER {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes([remaining[0], remaining[1], remaining[2], remaining[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Frame::Corrupt { detail: format!("frame length {len} exceeds {MAX_FRAME_LEN}") };
    }
    if remaining.len() < FRAME_HEADER + len {
        return Frame::Torn;
    }
    let checksum = &remaining[4..FRAME_HEADER];
    let payload = &remaining[FRAME_HEADER..FRAME_HEADER + len];
    if sha256(payload) != checksum[..] {
        return Frame::Corrupt { detail: "checksum mismatch".into() };
    }
    Frame::Ok { payload, next: offset + FRAME_HEADER + len }
}

/// Injected crash points for the crash-restart chaos tests. Arming one
/// makes the durability layer die at that point: it stops persisting
/// (leaving the on-disk state exactly as a real `kill -9` there would)
/// and fails every subsequent durable operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die halfway through writing a batch to the segment file: a prefix
    /// of the batch (cut mid-frame) reaches disk — the torn-tail case.
    MidBatchAppend,
    /// Die after batching but before any byte reaches the file — the
    /// whole pending batch is lost (page cache never flushed).
    PreFsync,
    /// Die halfway through writing a snapshot temp file, before the
    /// atomic rename — recovery must fall back to the previous snapshot
    /// plus full WAL replay and ignore the partial temp file.
    MidSnapshot,
}

/// Mutable WAL state: the open segment plus the unflushed batch.
struct WalState {
    file: File,
    /// Logical bytes appended (batched) over the WAL's lifetime,
    /// including what is already flushed. Monotonic across segment
    /// rotations — these are ack tokens for [`Wal::wait_durable`], not
    /// file offsets.
    appended: u64,
    /// Logical bytes durably fsynced; same monotonic coordinate space as
    /// `appended`.
    synced: u64,
    /// The pending batch: encoded frames not yet written to the file.
    batch: Vec<u8>,
    /// Armed crash point, consumed by the next flush/snapshot.
    armed_crash: Option<CrashPoint>,
    /// Set once the WAL has "died" — an injected crash or a real
    /// write/fsync failure; every durable operation afterwards fails and
    /// nothing more reaches disk.
    crashed: bool,
}

/// An append-only checksummed segment log with group commit.
pub(crate) struct Wal {
    state: Mutex<WalState>,
    /// Signalled after every fsync (and on crash) so `GroupCommit`
    /// writers blocked in [`Wal::wait_durable`] re-check their offset.
    synced_cond: Condvar,
    /// Signalled when an idle WAL gets something for its flusher to do
    /// (see [`Wal::wait_for_work`]).
    work_cond: Condvar,
}

/// Names the WAL segment file for sequence number `seq`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.log"))
}

impl Wal {
    /// Creates a fresh segment file (truncating any leftover) and writes
    /// the magic header.
    pub(crate) fn create(dir: &Path, seq: u64) -> Result<Wal, StoreError> {
        let path = segment_path(dir, seq);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("create segment {}", path.display()), e))?;
        file.write_all(WAL_MAGIC).map_err(|e| StoreError::io("write segment magic", e))?;
        file.sync_all().map_err(|e| StoreError::io("fsync segment magic", e))?;
        let len = WAL_MAGIC.len() as u64;
        Ok(Wal {
            state: Mutex::new(WalState {
                file,
                appended: len,
                synced: len,
                batch: Vec::new(),
                armed_crash: None,
                crashed: false,
            }),
            synced_cond: Condvar::new(),
            work_cond: Condvar::new(),
        })
    }

    /// Allocates a revision and appends its record in one step under the
    /// WAL lock, so WAL byte order always equals revision order even when
    /// writers on different shards race. Returns
    /// `(revision, ack offset, frame bytes)`; fails — without burning a
    /// revision — if the WAL is dead, and rejects frames whose payload
    /// exceeds [`MAX_FRAME_LEN`] (decode would read them back as
    /// corruption, so letting one reach disk poisons every later
    /// recovery). An oversized write burns its revision; the resulting
    /// WAL gap is legal — recovery only rejects revisions moving
    /// backwards.
    pub(crate) fn append_allocating(
        &self,
        alloc: impl FnOnce() -> u64,
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> Result<(u64, u64, u64), StoreError> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StoreError::io("append after crash", std::io::Error::other("wal is dead")));
        }
        let revision = alloc();
        let frame = encode(revision);
        let payload_len = frame.len() - FRAME_HEADER;
        if payload_len > MAX_FRAME_LEN {
            return Err(StoreError::io(
                "append",
                std::io::Error::other(format!(
                    "record payload of {payload_len} bytes exceeds the \
                     {MAX_FRAME_LEN}-byte frame limit"
                )),
            ));
        }
        if state.batch.is_empty() {
            self.work_cond.notify_one();
        }
        state.batch.extend_from_slice(&frame);
        state.appended += frame.len() as u64;
        Ok((revision, state.appended, frame.len() as u64))
    }

    /// Writes the pending batch to the segment file and fsyncs it — one
    /// group commit. Returns `true` when an fsync actually happened (the
    /// batch was non-empty). Consumes an armed crash point, if any.
    pub(crate) fn flush(&self) -> Result<bool, StoreError> {
        let mut state = self.state.lock();
        self.flush_locked(&mut state)
    }

    fn flush_locked(&self, state: &mut WalState) -> Result<bool, StoreError> {
        if state.crashed {
            return Err(StoreError::io("flush after crash", std::io::Error::other("wal is dead")));
        }
        match state.armed_crash.take() {
            Some(CrashPoint::MidBatchAppend) => {
                // Tear the batch mid-frame: persist roughly half of the
                // pending bytes (guaranteed to cut the final frame short
                // when the batch holds at least one frame), then die.
                let cut = state.batch.len() / 2;
                let partial = state.batch[..cut].to_vec();
                state.file.write_all(&partial).map_err(|e| StoreError::io("torn write", e))?;
                state.file.sync_all().map_err(|e| StoreError::io("torn fsync", e))?;
                self.die(state);
                return Err(StoreError::io(
                    "flush",
                    std::io::Error::other("injected crash: mid-batch append"),
                ));
            }
            Some(CrashPoint::PreFsync) => {
                // The batch never reaches the file: modeled page-cache
                // loss of everything after the last fsync.
                self.die(state);
                return Err(StoreError::io(
                    "flush",
                    std::io::Error::other("injected crash: pre-fsync"),
                ));
            }
            Some(CrashPoint::MidSnapshot) => {
                // Snapshot-targeted; re-arm so the snapshot path sees it.
                state.armed_crash = Some(CrashPoint::MidSnapshot);
            }
            None => {}
        }
        if state.batch.is_empty() {
            return Ok(false);
        }
        let batch = std::mem::take(&mut state.batch);
        if let Err(e) = state.file.write_all(&batch).and_then(|()| state.file.sync_all()) {
            // After a failed write or fsync the batch's durability is
            // unknown and the records are gone from the in-memory batch:
            // fail-stop so GroupCommit waiters error out instead of
            // hanging and no later append acks on top of a hole.
            self.die(state);
            return Err(StoreError::io("write+fsync batch", e));
        }
        state.synced = state.appended;
        self.synced_cond.notify_all();
        Ok(true)
    }

    /// Marks the WAL dead (injected crash or real flush failure): wakes
    /// blocked writers so they observe the death, and every durable
    /// operation afterwards fails.
    fn die(&self, state: &mut WalState) {
        state.crashed = true;
        state.batch.clear();
        self.synced_cond.notify_all();
        self.work_cond.notify_one();
    }

    /// Parks the flusher while there is nothing for it to do: no pending
    /// batch, no armed crash point for its next flush to consume, a live
    /// WAL, and `stop` unset. An idle store then costs no wake-ups; the
    /// first append afterwards starts the flusher's next window.
    /// [`Wal::wake_flusher`] must follow any change to `stop`.
    pub(crate) fn wait_for_work(&self, stop: &AtomicBool) {
        let mut state = self.state.lock();
        while state.batch.is_empty()
            && state.armed_crash.is_none()
            && !state.crashed
            && !stop.load(Ordering::Relaxed)
        {
            self.work_cond.wait(&mut state);
        }
    }

    /// Makes a flusher parked in [`Wal::wait_for_work`] re-check its
    /// stop flag. Takes the lock so the wake cannot fall between the
    /// flusher's check and its park.
    pub(crate) fn wake_flusher(&self) {
        let _state = self.state.lock();
        self.work_cond.notify_one();
    }

    /// Blocks until `offset` is durably synced. Errors if the WAL died
    /// (injected crash or flush failure) before the record landed.
    pub(crate) fn wait_durable(&self, offset: u64) -> Result<(), StoreError> {
        let mut state = self.state.lock();
        while state.synced < offset && !state.crashed {
            self.synced_cond.wait(&mut state);
        }
        if state.synced >= offset {
            Ok(())
        } else {
            Err(StoreError::io(
                "wait_durable",
                std::io::Error::other("wal died before the record was synced"),
            ))
        }
    }

    /// Arms `point`; the next flush (or snapshot) consumes it and kills
    /// the WAL.
    pub(crate) fn arm_crash(&self, point: CrashPoint) {
        self.state.lock().armed_crash = Some(point);
        self.work_cond.notify_one();
    }

    /// Takes the armed crash point if it is [`CrashPoint::MidSnapshot`]
    /// (the snapshot writer polls this) and kills the WAL when so.
    pub(crate) fn take_snapshot_crash(&self) -> bool {
        let mut state = self.state.lock();
        if state.armed_crash == Some(CrashPoint::MidSnapshot) {
            state.armed_crash = None;
            self.die(&mut state);
            true
        } else {
            false
        }
    }

    /// Returns `true` once this WAL died (injected crash or real flush
    /// failure).
    pub(crate) fn is_crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Pending (batched, unflushed) bytes.
    pub(crate) fn pending_bytes(&self) -> usize {
        self.state.lock().batch.len()
    }

    /// Flushes the current segment and switches appends to a fresh
    /// segment `seq`. Called with all shard state locks held (snapshot
    /// cut), so no append races the swap.
    pub(crate) fn rotate(&self, dir: &Path, seq: u64) -> Result<(), StoreError> {
        let mut state = self.state.lock();
        self.flush_locked(&mut state)?;
        let fresh = Wal::create(dir, seq)?;
        // Swap only the file handle. `appended`/`synced` are logical ack
        // tokens and must stay monotonic across rotations: a GroupCommit
        // writer may still be parked in `wait_durable` on an offset from
        // the retiring segment (`durable_ack` runs after the shard locks
        // drop, so it can interleave with a snapshot cut), and resetting
        // the counters would strand it forever. The batch is empty and
        // `synced == appended` after the pre-rotation flush; the armed
        // crash point stays put — a mid-snapshot crash is armed before
        // rotation but fires after it.
        state.file = fresh.state.into_inner().file;
        Ok(())
    }
}

/// Reads every valid [`WalEntry`] from segment `path`.
///
/// `active` marks the newest segment — the only one where a torn tail is
/// a legal clean-shutdown boundary. `on_torn_tail` receives the offset at
/// which the tail was truncated (for the recovery report).
pub(crate) fn read_segment(
    path: &Path,
    active: bool,
) -> Result<(Vec<WalEntry>, Option<u64>), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::io(format!("read segment {}", path.display()), e))?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Even the magic may be torn in an active segment created right
        // before the crash; an empty-ish active segment recovers as empty.
        if active && bytes.len() < WAL_MAGIC.len() {
            return Ok((Vec::new(), Some(0)));
        }
        return Err(StoreError::corrupt(path, 0, "bad segment magic"));
    }
    let mut entries = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let mut torn_at = None;
    while offset < bytes.len() {
        match decode_frame(&bytes, offset) {
            Frame::Ok { payload, next } => {
                let text = std::str::from_utf8(payload).map_err(|_| {
                    StoreError::corrupt(path, offset as u64, "payload is not UTF-8")
                })?;
                let entry: WalEntry = serde_json::from_str(text).map_err(|e| {
                    StoreError::corrupt(path, offset as u64, format!("payload not a WalEntry: {e}"))
                })?;
                entries.push(entry);
                offset = next;
            }
            Frame::Torn if active => {
                torn_at = Some(offset as u64);
                break;
            }
            Frame::Torn => {
                return Err(StoreError::corrupt(
                    path,
                    offset as u64,
                    "torn frame in a rotated (fully-synced) segment",
                ));
            }
            Frame::Corrupt { detail } => {
                return Err(StoreError::corrupt(path, offset as u64, detail));
            }
        }
    }
    Ok((entries, torn_at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vc_api::pod::Pod;

    fn entry(revision: u64) -> WalEntry {
        WalEntry { revision, op: WalOp::Insert, object: Pod::new("ns", "p").into() }
    }

    /// Fresh scratch directory (no tempfile crate: pid + counter keeps
    /// parallel tests apart).
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vc-store-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A `Wal` over an arbitrary file handle (no segment naming), for
    /// driving real I/O failures through the flush path.
    fn wal_on(file: File) -> Wal {
        Wal {
            state: Mutex::new(WalState {
                file,
                appended: 0,
                synced: 0,
                batch: Vec::new(),
                armed_crash: None,
                crashed: false,
            }),
            synced_cond: Condvar::new(),
            work_cond: Condvar::new(),
        }
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello frame";
        let frame = encode_frame(payload);
        let mut file = WAL_MAGIC.to_vec();
        file.extend_from_slice(&frame);
        match decode_frame(&file, WAL_MAGIC.len()) {
            Frame::Ok { payload: got, next } => {
                assert_eq!(got, payload);
                assert_eq!(next, file.len());
            }
            _ => panic!("complete frame must decode"),
        }
    }

    #[test]
    fn short_frame_is_torn_not_corrupt() {
        let frame = encode_frame(b"payload");
        for cut in [1, 3, 10, frame.len() - 1] {
            match decode_frame(&frame[..cut], 0) {
                Frame::Torn => {}
                _ => panic!("truncated at {cut} must be torn"),
            }
        }
    }

    #[test]
    fn bitflip_is_corrupt_not_torn() {
        let mut frame = encode_frame(b"payload bytes here");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        match decode_frame(&frame, 0) {
            Frame::Corrupt { detail } => assert!(detail.contains("checksum"), "{detail}"),
            _ => panic!("bit-flipped frame must be corrupt"),
        }
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut frame = encode_frame(b"x");
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&frame, 0) {
            Frame::Corrupt { detail } => assert!(detail.contains("length"), "{detail}"),
            _ => panic!("absurd length must be corrupt, not an allocation"),
        }
    }

    #[test]
    fn entry_roundtrip_through_frame() {
        let original = entry(42);
        let frame = encode_entry(&original);
        match decode_frame(&frame, 0) {
            Frame::Ok { payload, .. } => {
                let back: WalEntry =
                    serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap();
                assert_eq!(back.revision, 42);
                assert_eq!(back.op, WalOp::Insert);
                assert_eq!(back.object.key(), "ns/p");
            }
            _ => panic!("frame must decode"),
        }
    }

    #[test]
    fn ack_offsets_stay_monotonic_across_rotation() {
        let dir = scratch("rotate");
        let wal = Wal::create(&dir, 1).unwrap();
        let (_, off1, _) = wal.append_allocating(|| 1, |r| encode_entry(&entry(r))).unwrap();
        // rotate() flushes the pending batch itself, exactly like the
        // snapshot-cut path.
        wal.rotate(&dir, 2).unwrap();
        // A writer parked on a retired-segment offset must see it as
        // durable — a regression here hangs this call forever.
        wal.wait_durable(off1).unwrap();
        let (_, off2, _) = wal.append_allocating(|| 2, |r| encode_entry(&entry(r))).unwrap();
        assert!(off2 > off1, "ack offsets reset across rotation: {off2} <= {off1}");
        wal.flush().unwrap();
        wal.wait_durable(off2).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_flush_failure_is_fail_stop_not_a_hang() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // a real I/O failure, not an injected crash.
        let Ok(full) = OpenOptions::new().write(true).open("/dev/full") else {
            return; // platform without /dev/full
        };
        let wal = wal_on(full);
        let (_, offset, _) = wal.append_allocating(|| 1, |r| encode_entry(&entry(r))).unwrap();
        let err = wal.flush().expect_err("write to /dev/full must fail");
        assert!(!err.is_corrupt(), "{err}");
        assert!(wal.is_crashed(), "flush failure must kill the WAL");
        // Waiters error out instead of hanging on a record that was
        // dropped from the batch, and later appends are refused.
        wal.wait_durable(offset).expect_err("waiter must observe the death");
        wal.append_allocating(|| 2, |r| encode_entry(&entry(r)))
            .expect_err("append after flush failure must fail");
    }

    #[test]
    fn oversized_record_is_rejected_before_reaching_disk() {
        let dir = scratch("oversize");
        let wal = Wal::create(&dir, 1).unwrap();
        let err = wal
            .append_allocating(|| 1, |_| vec![0u8; FRAME_HEADER + MAX_FRAME_LEN + 1])
            .expect_err("payload beyond MAX_FRAME_LEN must be rejected");
        assert!(!err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("frame limit"), "{err}");
        assert_eq!(wal.pending_bytes(), 0, "the oversized frame must not be batched");
        // The WAL stays alive: a normal append still commits.
        let (_, offset, _) = wal.append_allocating(|| 2, |r| encode_entry(&entry(r))).unwrap();
        wal.flush().unwrap();
        wal.wait_durable(offset).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_error_display_and_predicate() {
        let io = StoreError::io("ctx", std::io::Error::other("boom"));
        assert!(!io.is_corrupt());
        assert!(io.to_string().contains("ctx"));
        let corrupt = StoreError::corrupt(Path::new("/w/wal-1.log"), 99, "checksum mismatch");
        assert!(corrupt.is_corrupt());
        let s = corrupt.to_string();
        assert!(s.contains("+99") && s.contains("checksum"), "{s}");
    }
}
