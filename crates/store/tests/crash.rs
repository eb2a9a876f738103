//! Crash-restart chaos tests for the durable store tier.
//!
//! Each test builds a durable store in a scratch directory, kills it at an
//! injected crash point ([`CrashPoint::MidBatchAppend`],
//! [`CrashPoint::PreFsync`], [`CrashPoint::MidSnapshot`]) or tampers with
//! the files directly (bit-flip, truncation), then recovers and checks the
//! result against what the durability contract promises:
//!
//! * everything acknowledged durable (flushed under `Async`, every write
//!   under `PerWrite`) survives,
//! * the recovered state is a **revision prefix** of the pre-crash
//!   history — verified against the same naive reference model as
//!   `tests/model.rs`, replayed up to the recovered revision,
//! * a torn tail is a clean shutdown boundary; a checksum mismatch in the
//!   middle of the log is a typed [`StoreError::Corrupt`], never a panic,
//! * watchers re-attached at their last acked revision replay exactly the
//!   missed events (no loss, no duplicates),
//! * the incremental object/byte counters equal a from-scratch recount
//!   after recovery.
//!
//! Case count honors `PROPTEST_CASES` (the crash-chaos CI job runs 128).

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use vc_api::namespace::Namespace;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::Pod;
use vc_api::time::RealClock;
use vc_store::{
    CrashPoint, DurabilityConfig, EventType, FlushPolicy, RecoveryReport, Store, StoreConfig,
};

/// Fresh scratch directory for one test run (no tempfile crate: the
/// process id plus a counter keeps parallel tests apart).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vc-store-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn per_write(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_flush(FlushPolicy::PerWrite)
}

/// Async with an effectively-infinite window: nothing reaches disk until
/// the test calls `flush_wal()` — which makes the durable boundary, and
/// therefore the crash-loss window, fully deterministic.
fn async_manual(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_flush(FlushPolicy::Async { window: Duration::from_secs(3600) })
}

fn open(config: StoreConfig, dur: DurabilityConfig) -> (Store, RecoveryReport) {
    Store::open_durable(config, dur, RealClock::shared()).expect("open durable store")
}

fn pod(ns: &str, name: &str) -> Object {
    Pod::new(ns, name).into()
}

/// The incremental counters must equal a from-scratch recount — recovery
/// rebuilds them incrementally, so drift here means the rebuild diverged
/// from the live write path.
fn assert_counters_consistent(store: &Store) {
    let (count, bytes) = store.recount();
    assert_eq!(store.len(), count, "object count drifted from recount");
    assert_eq!(store.estimated_bytes(), bytes, "byte accounting drifted from recount");
}

fn keys(store: &Store, kind: ResourceKind) -> Vec<String> {
    store.list(kind, None).0.iter().map(|o| o.key()).collect()
}

// ---------------------------------------------------------------------
// Clean shutdown and snapshot round-trips
// ---------------------------------------------------------------------

#[test]
fn clean_shutdown_recovers_everything() {
    let dir = scratch_dir("clean");
    let (store, report) = open(StoreConfig::default(), per_write(&dir));
    assert_eq!(report.recovered_revision, 0);
    store.insert(pod("ns", "a")).unwrap();
    store.insert(pod("ns", "b")).unwrap();
    store.insert(Namespace::new("ns").into()).unwrap();
    store.update(pod("ns", "a"), None).unwrap();
    store.delete(ResourceKind::Pod, "ns/b").unwrap();
    let revision = store.revision();
    let bytes = store.estimated_bytes();
    drop(store);

    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert!(!report.torn_tail, "clean shutdown must not report a torn tail");
    assert_eq!(report.snapshot_revision, 0);
    assert_eq!(report.wal_records_applied, 5);
    assert_eq!(recovered.revision(), revision);
    assert_eq!(keys(&recovered, ResourceKind::Pod), vec!["ns/a"]);
    assert_eq!(keys(&recovered, ResourceKind::Namespace), vec!["ns"]);
    // The surviving object kept the resource_version it was committed at.
    let a = recovered.get(ResourceKind::Pod, "ns/a").unwrap();
    assert_eq!(a.meta().resource_version, 4);
    assert_eq!(recovered.estimated_bytes(), bytes);
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_retires_wal_and_recovery_uses_both() {
    let dir = scratch_dir("snap");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    for i in 0..8 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    assert!(store.snapshot_now().unwrap());
    let snap_revision = store.revision();
    store.insert(pod("ns", "after-snap")).unwrap();
    store.delete(ResourceKind::Pod, "ns/p0").unwrap();
    let revision = store.revision();
    drop(store);

    // Only the snapshot plus the post-rotation segments remain on disk.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n == "snapshot.snap"), "{names:?}");
    assert!(
        !names.iter().any(|n| n == "wal-0000000001.log"),
        "pre-snapshot segment retired: {names:?}"
    );

    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert_eq!(report.snapshot_revision, snap_revision);
    assert_eq!(report.wal_records_applied, 2, "only post-snapshot records replayed");
    assert_eq!(recovered.revision(), revision);
    assert_eq!(recovered.len(), 8); // 8 inserted - p0 + after-snap
    assert!(recovered.get(ResourceKind::Pod, "ns/p0").is_none());
    assert!(recovered.get(ResourceKind::Pod, "ns/after-snap").is_some());
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_snapshot_triggers_on_write_threshold() {
    let dir = scratch_dir("autosnap");
    let dur = per_write(&dir).with_snapshot_every(10);
    let (store, _) = open(StoreConfig::default(), dur);
    for i in 0..25 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    let stats = store.wal_stats().unwrap();
    assert!(stats.snapshots.get() >= 2, "25 writes at every=10: {}", stats.snapshots.get());
    drop(store);

    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert!(report.snapshot_revision >= 10);
    assert_eq!(recovered.len(), 25);
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Injected crash points
// ---------------------------------------------------------------------

#[test]
fn crash_pre_fsync_loses_exactly_the_unflushed_suffix() {
    let dir = scratch_dir("prefsync");
    let (store, _) = open(StoreConfig::default(), async_manual(&dir));
    store.insert(pod("ns", "a")).unwrap();
    store.insert(pod("ns", "b")).unwrap();
    store.flush_wal().unwrap();
    let durable_revision = store.revision();
    store.insert(pod("ns", "c")).unwrap();
    store.update(pod("ns", "a"), None).unwrap();

    store.inject_crash(CrashPoint::PreFsync);
    store.flush_wal().expect_err("injected crash must surface");
    // The WAL is dead: writes are rejected without touching memory.
    let err = store.insert(pod("ns", "rejected")).unwrap_err();
    assert!(err.to_string().contains("durable store"), "{err}");
    assert!(store.get(ResourceKind::Pod, "ns/rejected").is_none());
    drop(store);

    let (recovered, report) = open(StoreConfig::default(), async_manual(&dir));
    assert_eq!(recovered.revision(), durable_revision, "exactly the flushed prefix survives");
    assert!(!report.torn_tail, "pre-fsync loss leaves no torn record");
    assert_eq!(keys(&recovered, ResourceKind::Pod), vec!["ns/a", "ns/b"]);
    assert_eq!(
        recovered.get(ResourceKind::Pod, "ns/a").unwrap().meta().resource_version,
        1,
        "the unflushed update to a is gone"
    );
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The group-commit flusher blocks after an empty window instead of
/// waking every window for nothing. Everything that gives it work must
/// reach it there: an append (or its writer never gets its ack), an armed
/// crash point ("the next flush dies" must not wait for a write), and
/// shutdown (or `Drop` joins a thread that never wakes).
#[test]
fn parked_flusher_wakes_for_an_append_an_armed_crash_and_shutdown() {
    let dir = scratch_dir("parked");
    let group_commit = || {
        DurabilityConfig::new(&dir)
            .with_flush(FlushPolicy::GroupCommit { window: Duration::from_millis(1) })
    };
    let idle = || std::thread::sleep(Duration::from_millis(30));
    let (store, _) = open(StoreConfig::default(), group_commit());
    idle();
    store.insert(pod("ns", "a")).expect("acked by the flusher's fsync");
    idle();
    store.inject_crash(CrashPoint::PreFsync);
    let died = (0..500).any(|_| {
        std::thread::sleep(Duration::from_millis(2));
        store.wal_stats().unwrap().flush_failures.get() == 1
    });
    assert!(died, "the parked flusher never ran the flush the crash was armed for");
    drop(store);

    let (store, _) = open(StoreConfig::default(), group_commit());
    assert_eq!(keys(&store, ResourceKind::Pod), vec!["ns/a"]);
    idle();
    drop(store); // joins the flusher: hangs here if shutdown does not wake it
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_batch_append_tears_the_tail() {
    let dir = scratch_dir("midbatch");
    let (store, _) = open(StoreConfig::default(), async_manual(&dir));
    store.insert(pod("ns", "a")).unwrap();
    store.flush_wal().unwrap();
    // Exactly one frame pending: the mid-batch cut is guaranteed to land
    // inside it, producing a torn record on disk.
    store.insert(pod("ns", "torn-victim")).unwrap();
    store.inject_crash(CrashPoint::MidBatchAppend);
    store.flush_wal().expect_err("injected crash must surface");
    drop(store);

    let (recovered, report) = open(StoreConfig::default(), async_manual(&dir));
    assert!(report.torn_tail, "half-written frame must be detected as torn");
    assert_eq!(recovered.revision(), 1);
    assert_eq!(keys(&recovered, ResourceKind::Pod), vec!["ns/a"]);
    assert_counters_consistent(&recovered);
    drop(recovered);

    // The torn tail was truncated during recovery: a second recovery —
    // where that segment is no longer the active one — must read it as
    // clean instead of reporting mid-log corruption.
    let (again, report) = open(StoreConfig::default(), async_manual(&dir));
    assert!(!report.torn_tail);
    assert_eq!(again.revision(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_snapshot_falls_back_to_previous_snapshot_plus_wal() {
    let dir = scratch_dir("midsnap");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    for i in 0..4 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    assert!(store.snapshot_now().unwrap());
    let first_snap_revision = store.revision();
    for i in 4..8 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    let revision = store.revision();

    store.inject_crash(CrashPoint::MidSnapshot);
    let err = store.snapshot_now().expect_err("snapshot must die at the injected point");
    assert!(!err.is_corrupt(), "injected crash is an io-style failure: {err}");
    // A partially written snapshot.tmp is left behind, as a real crash
    // before the rename would leave it.
    assert!(dir.join("snapshot.tmp").exists());
    drop(store);

    // Every write was PerWrite-durable, so nothing is lost: recovery
    // ignores the partial tmp and uses the previous snapshot + full WAL.
    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert_eq!(report.snapshot_revision, first_snap_revision);
    assert_eq!(recovered.revision(), revision);
    assert_eq!(recovered.len(), 8);
    assert!(!dir.join("snapshot.tmp").exists(), "stale tmp cleaned up");
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// On-disk damage: corruption vs torn tail
// ---------------------------------------------------------------------

/// Path of the newest WAL segment in `dir`.
fn newest_segment(dir: &std::path::Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

#[test]
fn bit_flip_mid_log_is_typed_corruption_not_a_panic() {
    let dir = scratch_dir("bitflip");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    for i in 0..6 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    drop(store);

    // Flip one byte inside the first record's payload — a complete frame
    // whose checksum no longer matches.
    let segment = newest_segment(&dir);
    let mut bytes = std::fs::read(&segment).unwrap();
    let offset = 8 + 4 + 32 + 5; // magic + len + checksum + into the payload
    bytes[offset] ^= 0x40;
    std::fs::write(&segment, &bytes).unwrap();

    let err = Store::open_durable(StoreConfig::default(), per_write(&dir), RealClock::shared())
        .expect_err("corrupt record must fail recovery");
    assert!(err.is_corrupt(), "expected Corrupt, got: {err}");
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_tail_is_a_clean_shutdown_boundary() {
    let dir = scratch_dir("truncate");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    for i in 0..6 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    drop(store);

    // Cut the last record short — the same shape a power loss mid-append
    // leaves behind.
    let segment = newest_segment(&dir);
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&segment).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);

    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert!(report.torn_tail);
    assert_eq!(recovered.revision(), 5, "last record discarded, rest intact");
    assert_eq!(recovered.len(), 5);
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn headerless_active_segment_survives_repeated_recovery() {
    let dir = scratch_dir("headerless");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    store.insert(pod("ns", "a")).unwrap();
    drop(store);

    // Simulate a crash right after the next segment file was created but
    // before its 8-byte magic reached disk.
    let newest = newest_segment(&dir);
    let seq: u64 = newest
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.trim_start_matches("wal-").trim_end_matches(".log").parse().ok())
        .unwrap();
    let stub = dir.join(format!("wal-{:010}.log", seq + 1));
    std::fs::write(&stub, b"VC").unwrap();

    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert!(report.torn_tail, "a sub-magic active segment is a torn tail");
    assert_eq!(recovered.revision(), 1);
    assert!(!stub.exists(), "the headerless segment must be deleted, not truncated to 0");
    drop(recovered);

    // Second recovery: the stub would no longer be the active segment.
    // Had it been left behind as a 0-byte file, this open would fail
    // with "bad segment magic".
    let (again, report) = open(StoreConfig::default(), per_write(&dir));
    assert!(!report.torn_tail);
    assert_eq!(again.revision(), 1);
    assert_eq!(keys(&again, ResourceKind::Pod), vec!["ns/a"]);
    assert_counters_consistent(&again);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_auto_snapshot_is_counted_and_write_still_succeeds() {
    let dir = scratch_dir("snapfail");
    let dur = per_write(&dir).with_snapshot_every(3);
    let (store, _) = open(StoreConfig::default(), dur);
    store.insert(pod("ns", "a")).unwrap();
    store.insert(pod("ns", "b")).unwrap();
    store.inject_crash(CrashPoint::MidSnapshot);
    // The third durable write crosses the snapshot threshold; the cut
    // dies at the injected point but the triggering write is already
    // durable and must succeed.
    store.insert(pod("ns", "c")).unwrap();
    let stats = store.wal_stats().unwrap();
    assert_eq!(stats.snapshot_failures.get(), 1, "failed auto-snapshot must be observable");
    assert_eq!(stats.snapshots.get(), 0);
    drop(store);

    // Nothing was lost: every record is still in the WAL.
    let (recovered, report) = open(StoreConfig::default(), per_write(&dir));
    assert_eq!(report.snapshot_revision, 0, "no snapshot was completed");
    assert_eq!(recovered.revision(), 3);
    assert_eq!(recovered.len(), 3);
    assert_counters_consistent(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_typed_corruption() {
    let dir = scratch_dir("snapflip");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    for i in 0..4 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    store.snapshot_now().unwrap();
    drop(store);

    let snap = dir.join("snapshot.snap");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    let err = Store::open_durable(StoreConfig::default(), per_write(&dir), RealClock::shared())
        .expect_err("corrupt snapshot must fail recovery");
    assert!(err.is_corrupt(), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Watcher resume after restart
// ---------------------------------------------------------------------

#[test]
fn watcher_resumes_from_last_acked_revision_exactly_once() {
    let dir = scratch_dir("resume");
    let (store, _) = open(StoreConfig::default(), per_write(&dir));
    store.insert(pod("ns", "p0")).unwrap();
    store.insert(pod("ns", "p1")).unwrap();

    // A watcher drains everything so far; its last acked revision is 2.
    let stream = store.watch(ResourceKind::Pod, None, 0).unwrap();
    let mut acked = 0;
    for _ in 0..2 {
        acked = stream.recv_timeout_ms(1000).unwrap().revision;
    }
    assert_eq!(acked, 2);

    // More events the watcher never sees before the crash.
    store.insert(pod("ns", "p2")).unwrap();
    store.update(pod("ns", "p0"), None).unwrap();
    store.delete(ResourceKind::Pod, "ns/p1").unwrap();
    drop(stream);
    drop(store);

    // After restart, re-watching from the acked revision replays exactly
    // the three missed events — nothing lost, nothing repeated.
    let (recovered, _) = open(StoreConfig::default(), per_write(&dir));
    let stream = recovered.watch(ResourceKind::Pod, None, acked).unwrap();
    let missed: Vec<(u64, EventType, String)> = (0..3)
        .map(|_| {
            let ev = stream.recv_timeout_ms(1000).unwrap();
            (ev.revision, ev.event_type, ev.object.key())
        })
        .collect();
    assert_eq!(
        missed,
        vec![
            (3, EventType::Added, "ns/p2".to_string()),
            (4, EventType::Modified, "ns/p0".to_string()),
            (5, EventType::Deleted, "ns/p1".to_string()),
        ]
    );
    assert!(stream.try_recv().is_none(), "no duplicated or invented events");

    // The resumed stream is live: the next write is delivered.
    recovered.insert(pod("ns", "p3")).unwrap();
    assert_eq!(stream.recv_timeout_ms(1000).unwrap().object.key(), "ns/p3");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watcher_resume_is_all_or_nothing_below_recovered_floor() {
    // Tiny log: the event log compacts before the crash, and the floor
    // survives recovery — a watcher from a compacted revision must get
    // Expired (and re-list), never a partial replay.
    let config = StoreConfig { event_log_capacity: 8, watcher_buffer: 64 };
    let dir = scratch_dir("floor");
    let (store, _) = open(config.clone(), per_write(&dir));
    for i in 0..30 {
        store.insert(pod("ns", &format!("p{i}"))).unwrap();
    }
    drop(store);

    let (recovered, _) = open(config, per_write(&dir));
    let delivered_before = recovered.events_delivered.get();
    let err = recovered.watch(ResourceKind::Pod, None, 0).unwrap_err();
    assert!(err.is_expired(), "{err}");
    assert_eq!(recovered.events_delivered.get(), delivered_before, "no partial replay");
    // From the current revision, watching works.
    let (_, rev) = recovered.list(ResourceKind::Pod, None);
    assert!(recovered.watch(ResourceKind::Pod, None, rev).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash-recovery vs the reference model (property)
// ---------------------------------------------------------------------

const NAMESPACES: [&str; 2] = ["ns0", "ns1"];
const NAMES: [&str; 4] = ["p0", "p1", "p2", "p3"];
const KEY_POOL: usize = NAMESPACES.len() * NAMES.len();

fn slot(idx: usize) -> (&'static str, &'static str) {
    (NAMESPACES[idx / NAMES.len()], NAMES[idx % NAMES.len()])
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Update(usize),
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEY_POOL).prop_map(Op::Insert),
        (0..KEY_POOL).prop_map(Op::Update),
        (0..KEY_POOL).prop_map(Op::Delete),
    ]
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RefEvent {
    revision: u64,
    event_type: EventType,
    key: String,
    rv: u64,
}

/// The same naive reference model as `tests/model.rs`: one map, one
/// counter, one bounded log with the documented compaction rule. Replayed
/// deterministically up to the recovered revision, it defines the exact
/// state a correct recovery must land on.
struct RefModel {
    revision: u64,
    objects: BTreeMap<String, u64>,
    log: VecDeque<RefEvent>,
    floor: u64,
    log_capacity: usize,
}

impl RefModel {
    fn new(log_capacity: usize) -> Self {
        RefModel {
            revision: 0,
            objects: BTreeMap::new(),
            log: VecDeque::new(),
            floor: 0,
            log_capacity,
        }
    }

    fn append(&mut self, event: RefEvent) {
        self.log.push_back(event);
        if self.log.len() > self.log_capacity {
            let drop_count = self.log.len() / 2;
            for _ in 0..drop_count {
                if let Some(dropped) = self.log.pop_front() {
                    self.floor = dropped.revision;
                }
            }
        }
    }

    /// Applies `op`; returns `true` if it mutated state (allocated a
    /// revision).
    fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::Insert(i) => {
                let (ns, name) = slot(*i);
                let key = format!("{ns}/{name}");
                if self.objects.contains_key(&key) {
                    return false;
                }
                self.revision += 1;
                let rv = self.revision;
                self.objects.insert(key.clone(), rv);
                self.append(RefEvent { revision: rv, event_type: EventType::Added, key, rv });
                true
            }
            Op::Update(i) => {
                let (ns, name) = slot(*i);
                let key = format!("{ns}/{name}");
                if !self.objects.contains_key(&key) {
                    return false;
                }
                self.revision += 1;
                let rv = self.revision;
                self.objects.insert(key.clone(), rv);
                self.append(RefEvent { revision: rv, event_type: EventType::Modified, key, rv });
                true
            }
            Op::Delete(i) => {
                let (ns, name) = slot(*i);
                let key = format!("{ns}/{name}");
                let Some(old_rv) = self.objects.remove(&key) else {
                    return false;
                };
                self.revision += 1;
                self.append(RefEvent {
                    revision: self.revision,
                    event_type: EventType::Deleted,
                    key,
                    rv: old_rv,
                });
                true
            }
        }
    }
}

fn apply_to_store(store: &Store, op: &Op) {
    match op {
        Op::Insert(i) => {
            let (ns, name) = slot(*i);
            let _ = store.insert(pod(ns, name));
        }
        Op::Update(i) => {
            let (ns, name) = slot(*i);
            let _ = store.update(pod(ns, name), None);
        }
        Op::Delete(i) => {
            let (ns, name) = slot(*i);
            let _ = store.delete(ResourceKind::Pod, &format!("{ns}/{name}"));
        }
    }
}

proptest! {
    /// Kill the store at an injected crash point with an arbitrary mix of
    /// flushed and unflushed operations in flight. The recovered state
    /// must be a *revision prefix* of the history: identical to the
    /// reference model replayed until its revision matches the recovered
    /// one — objects, resource versions, compaction floor, event replay
    /// and byte accounting all included. The durable boundary (last
    /// explicit flush) must always survive.
    #[test]
    fn prop_crash_recovery_is_a_reference_model_prefix(
        log_capacity in 8usize..=16,
        ops_flushed in proptest::collection::vec(op_strategy(), 1..40),
        ops_buffered in proptest::collection::vec(op_strategy(), 1..40),
        tear in proptest::bool::ANY,
    ) {
        let config = StoreConfig { event_log_capacity: log_capacity, watcher_buffer: 64 };
        let dir = scratch_dir("prop");
        let (store, _) = open(config.clone(), async_manual(&dir));

        for op in &ops_flushed {
            apply_to_store(&store, op);
        }
        store.flush_wal().unwrap();
        let durable_revision = store.revision();
        for op in &ops_buffered {
            apply_to_store(&store, op);
        }
        store.inject_crash(if tear { CrashPoint::MidBatchAppend } else { CrashPoint::PreFsync });
        let _ = store.flush_wal();
        drop(store);

        let (recovered, report) = open(config, async_manual(&dir));
        let recovered_revision = report.recovered_revision;
        prop_assert_eq!(recovered.revision(), recovered_revision);
        prop_assert!(
            recovered_revision >= durable_revision,
            "lost acknowledged-durable writes: recovered {} < flushed {}",
            recovered_revision, durable_revision
        );
        if !tear {
            // Pre-fsync loses the entire unflushed batch, exactly.
            prop_assert_eq!(recovered_revision, durable_revision);
        }

        // Replay the reference model until it reaches the recovered
        // revision: that is the unique history prefix recovery must match.
        let mut model = RefModel::new(log_capacity);
        for op in ops_flushed.iter().chain(&ops_buffered) {
            if model.revision == recovered_revision {
                break;
            }
            model.apply(op);
        }
        prop_assert_eq!(model.revision, recovered_revision, "recovered revision is not a prefix point");

        let (items, _) = recovered.list(ResourceKind::Pod, None);
        let got: BTreeMap<String, u64> =
            items.iter().map(|o| (o.key(), o.meta().resource_version)).collect();
        prop_assert_eq!(&got, &model.objects, "recovered objects diverge from model prefix");

        // Event replay from the model's floor matches event-for-event.
        match recovered.watch(ResourceKind::Pod, None, model.floor) {
            Ok(stream) => {
                let mut replayed = Vec::new();
                while let Some(ev) = stream.try_recv() {
                    replayed.push(RefEvent {
                        revision: ev.revision,
                        event_type: ev.event_type,
                        key: ev.object.key(),
                        rv: ev.object.meta().resource_version,
                    });
                }
                let want: Vec<RefEvent> =
                    model.log.iter().filter(|e| e.revision > model.floor).cloned().collect();
                prop_assert_eq!(replayed, want, "recovered event log diverges from model prefix");
            }
            Err(e) => prop_assert!(false, "watch from model floor must replay: {}", e),
        }

        // Satellite: incremental counters equal a from-scratch recount.
        let (count, bytes) = recovered.recount();
        prop_assert_eq!(recovered.len(), count);
        prop_assert_eq!(recovered.estimated_bytes(), bytes);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
