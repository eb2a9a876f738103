//! # vc-store — sharded in-memory MVCC object store with watch streams
//!
//! The etcd analog backing every control plane in the simulation. Each
//! control plane (super cluster and every tenant) owns one [`Store`]; the
//! paper's experiment setup assigns "a dedicated etcd to each tenant
//! control plane", which maps to one `Store` per tenant here.
//!
//! Semantics mirrored from etcd/Kubernetes:
//!
//! * a single monotonically increasing **revision** shared by all keys,
//! * every write stamps the object's `resource_version` with the new
//!   revision (the optimistic-concurrency token the apiserver checks),
//! * **watch** streams deliver `Added`/`Modified`/`Deleted` events starting
//!   from a requested revision, replayed from a bounded event log,
//! * the log is **compacted**; a watch from a compacted revision fails with
//!   [`ApiError::Expired`] and the client must re-list (exactly the
//!   condition that triggers reflector re-lists — and, at scale, the re-list
//!   floods the paper's centralized-syncer design avoids),
//! * watchers that fall too far behind are **evicted** (their channel
//!   closes) rather than blocking writers.
//!
//! ## Sharding
//!
//! Internally the store is sharded by [`ResourceKind`]: each kind owns its
//! object map (ordered for ranged/sorted lists), a per-namespace secondary
//! index, a bounded event log and a watcher registry, all behind per-shard
//! locks. A store-wide [`AtomicU64`] allocates revisions, so the global
//! total order of revisions — and every resourceVersion/CAS/Expired
//! semantic above — is preserved while writes, reads and watch fan-out for
//! different kinds never contend. Within a shard, event *fan-out* happens
//! after the state lock is dropped (see the `shard` module docs for the
//! lock handoff protocol), so delivering to slow watchers never blocks
//! readers.
//! Object/byte counts are maintained incrementally on atomics, making
//! [`Store::len`] and [`Store::estimated_bytes`] lock-free.
//!
//! ## Model checking
//!
//! The shard locks, the revision allocator and the WAL's lock and condvar
//! come from the `vc-sync` facade: `parking_lot`/`std` in production, the
//! `loom` model checker under `RUSTFLAGS="--cfg loom"`. The `loom_*` tests
//! in `tests/loom_store.rs` and `tests/loom_wal.rs` run this *production*
//! store — not a replica — under exhaustive interleaving and prove
//! revision monotonicity, single-CAS-winner semantics, and that group
//! commit acks every durable write with no wake-up lost.
//!
//! [`AtomicU64`]: vc_sync::atomic::AtomicU64

#![warn(missing_docs)]

mod durability;
mod handoff;
mod shard;
mod wal;
pub mod watch;

use durability::{Durability, SnapshotData};
use shard::Shard;
use std::sync::Arc;
use vc_api::error::{ApiError, ApiResult};
use vc_api::metrics::{Counter, Gauge};
use vc_api::object::{Object, ResourceKind};
use vc_api::time::Clock;
use vc_sync::atomic::{AtomicU64, Ordering};
use wal::{EntryRef, WalEntry, WalOp};

pub use durability::{DurabilityConfig, FlushPolicy, RecoveryReport, WalStats};
/// The synchronization facade the store is built on, for the crates above
/// it that share its loom build (the apiserver's admission gate).
pub use vc_sync as sync;
pub use wal::{CrashPoint, StoreError};
pub use watch::{EventType, RecvOutcome, WatchEvent, WatchStream};

/// Number of shards: one per [`ResourceKind`].
const SHARD_COUNT: usize = ResourceKind::ALL.len();

/// Configuration for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum events retained **per kind** for watch replay before that
    /// kind's log is compacted.
    pub event_log_capacity: usize,
    /// Per-watcher channel capacity; a watcher this far behind is evicted.
    pub watcher_buffer: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { event_log_capacity: 100_000, watcher_buffer: 65_536 }
    }
}

/// Key of an object inside the store: kind + `namespace/name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Resource kind.
    pub kind: ResourceKind,
    /// `namespace/name` (or `name` for cluster-scoped kinds).
    pub key: String,
}

impl ObjectKey {
    /// Creates a key from a kind and full name.
    pub fn new(kind: ResourceKind, key: impl Into<String>) -> Self {
        ObjectKey { kind, key: key.into() }
    }

    /// Creates the key identifying `obj`.
    pub fn of(obj: &Object) -> Self {
        ObjectKey { kind: obj.kind(), key: obj.key() }
    }
}

/// Thread-safe sharded MVCC object store.
///
/// # Examples
///
/// ```
/// use vc_store::Store;
/// use vc_api::object::{Object, ResourceKind};
/// use vc_api::pod::Pod;
///
/// let store = Store::new();
/// let stored = store.insert(Pod::new("ns", "a").into())?;
/// assert!(stored.meta().resource_version > 0);
/// let (items, rev) = store.list(ResourceKind::Pod, Some("ns"));
/// assert_eq!(items.len(), 1);
/// assert_eq!(rev, stored.meta().resource_version);
/// # Ok::<(), vc_api::ApiError>(())
/// ```
pub struct Store {
    /// One shard per kind, indexed by the kind's discriminant.
    shards: Vec<Shard>,
    /// Store-wide revision allocator; the next write gets `revision + 1`.
    revision: AtomicU64,
    config: StoreConfig,
    /// Durable tier (WAL + snapshots); `None` for the in-memory store.
    durability: Option<Arc<Durability>>,
    // The counters and levels below are shared cells: a metrics registry
    // binds them once and reads the values the store itself updates.
    /// Incrementally maintained object count (all kinds).
    pub objects: Arc<Gauge>,
    /// Incrementally maintained estimated byte total (all kinds).
    pub bytes: Arc<Gauge>,
    /// Total writes (insert/update/delete) performed.
    pub writes: Arc<Counter>,
    /// Total watch events fanned out to watchers (replay + live).
    pub events_delivered: Arc<Counter>,
    /// Watchers evicted for falling behind (live fan-out buffer overflow,
    /// or a replay backlog that exceeds the watcher buffer).
    pub watchers_evicted: Arc<Counter>,
    /// Dead watchers (consumer dropped its stream) swept out of the
    /// registry during publish fan-out or [`Store::watcher_count`].
    pub watchers_swept: Arc<Counter>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Store {
    /// Reads only atomic counters — never takes a shard lock, so it is
    /// safe to log a store from code paths already holding one.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("objects", &self.objects.get())
            .field("revision", &self.revision.load(Ordering::Relaxed))
            .field("estimated_bytes", &self.bytes.get())
            .field("writes", &self.writes.get())
            .field("events_delivered", &self.events_delivered.get())
            .field("watchers_evicted", &self.watchers_evicted.get())
            .field("watchers_swept", &self.watchers_swept.get())
            .finish()
    }
}

impl Store {
    /// Creates an empty store with default configuration.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// Creates an empty store with the given configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        // Shards are indexed by discriminant; `ResourceKind::ALL` is in
        // declaration order, so the two agree.
        debug_assert!(ResourceKind::ALL.iter().enumerate().all(|(i, k)| *k as usize == i));
        Store {
            shards: (0..SHARD_COUNT).map(|_| shard::new_shard()).collect(),
            revision: AtomicU64::new(0),
            config,
            durability: None,
            objects: Arc::default(),
            bytes: Arc::default(),
            writes: Arc::default(),
            events_delivered: Arc::default(),
            watchers_evicted: Arc::default(),
            watchers_swept: Arc::default(),
        }
    }

    fn shard(&self, kind: ResourceKind) -> &Shard {
        &self.shards[kind as usize]
    }

    /// Allocates the next revision. Callers hold the target shard's state
    /// lock, so per-kind event streams see strictly increasing revisions.
    fn next_revision(&self) -> u64 {
        self.revision.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the current store revision.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Relaxed)
    }

    /// Returns the number of stored objects (all kinds). Lock-free.
    pub fn len(&self) -> usize {
        self.objects.get().max(0) as usize
    }

    /// Returns `true` if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a new object, assigning it the next revision.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::AlreadyExists`] if the key is taken.
    pub fn insert(&self, mut obj: Object) -> ApiResult<Arc<Object>> {
        let kind = obj.kind();
        let key = obj.key();
        let mut wal_ack = None;
        let arc = self.shard(kind).publish(
            |state| {
                if state.objects.contains_key(&key) {
                    return Err(ApiError::already_exists(kind.as_str(), key.clone()));
                }
                let revision = match &self.durability {
                    // Revision allocation and WAL append happen atomically
                    // under the WAL lock (still inside the shard state
                    // lock), so the log's byte order is the commit order.
                    // A failed append leaves the in-memory state untouched.
                    Some(d) => {
                        let (revision, offset) = d
                            .log_write(
                                || self.next_revision(),
                                |revision, batch| {
                                    obj.meta_mut().resource_version = revision;
                                    wal::frame_into(
                                        &EntryRef { revision, op: WalOp::Insert, object: &obj },
                                        batch,
                                    )
                                },
                            )
                            .map_err(wal_unavailable)?;
                        wal_ack = Some(offset);
                        revision
                    }
                    None => {
                        let revision = self.next_revision();
                        obj.meta_mut().resource_version = revision;
                        revision
                    }
                };
                obj.freeze();
                let arc = Arc::new(obj);
                state.index_insert(key.into(), Arc::clone(&arc));
                self.objects.inc();
                self.writes.inc();
                let event =
                    WatchEvent { revision, event_type: EventType::Added, object: Arc::clone(&arc) };
                state.append_event(event.clone(), self.config.event_log_capacity);
                Ok((arc, event))
            },
            |watchers, (arc, event)| {
                self.fan_out(watchers, &event);
                arc
            },
        )?;
        // Size estimation serializes the object — done after the shard lock
        // is released; the gauge only needs exact deltas, not lock-step
        // timing with the map.
        self.bytes.add(arc.estimated_size() as i64);
        self.durable_ack(wal_ack)?;
        Ok(arc)
    }

    /// Replaces an existing object.
    ///
    /// If `expected_revision` is `Some`, the update only succeeds when it
    /// matches the stored object's `resource_version` (compare-and-swap).
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`] if absent, [`ApiError::Conflict`] on a failed
    /// compare-and-swap.
    pub fn update(
        &self,
        mut obj: Object,
        expected_revision: Option<u64>,
    ) -> ApiResult<Arc<Object>> {
        let kind = obj.kind();
        // Borrowed, on the stack: an update overwrites an existing key.
        let key_buf = obj.meta().full_name_buf();
        let key = key_buf.as_str();
        let mut wal_ack = None;
        let (arc, old) = self.shard(kind).publish(
            |state| {
                let current = state
                    .objects
                    .get(key)
                    .ok_or_else(|| ApiError::not_found(kind.as_str(), key))?;
                if let Some(expected) = expected_revision {
                    let actual = current.meta().resource_version;
                    if actual != expected {
                        return Err(ApiError::conflict(
                            kind.as_str(),
                            key,
                            format!(
                                "the object has been modified \
                                 (expected rv {expected}, actual {actual})"
                            ),
                        ));
                    }
                }
                let old = Arc::clone(current);
                let revision = match &self.durability {
                    Some(d) => {
                        let (revision, offset) = d
                            .log_write(
                                || self.next_revision(),
                                |revision, batch| {
                                    obj.meta_mut().resource_version = revision;
                                    wal::frame_into(
                                        &EntryRef { revision, op: WalOp::Update, object: &obj },
                                        batch,
                                    )
                                },
                            )
                            .map_err(wal_unavailable)?;
                        wal_ack = Some(offset);
                        revision
                    }
                    None => {
                        let revision = self.next_revision();
                        obj.meta_mut().resource_version = revision;
                        revision
                    }
                };
                obj.freeze();
                let arc = Arc::new(obj);
                state.index_insert(key.into(), Arc::clone(&arc));
                self.writes.inc();
                let event = WatchEvent {
                    revision,
                    event_type: EventType::Modified,
                    object: Arc::clone(&arc),
                };
                state.append_event(event.clone(), self.config.event_log_capacity);
                Ok((arc, old, event))
            },
            |watchers, (arc, old, event)| {
                self.fan_out(watchers, &event);
                (arc, old)
            },
        )?;
        self.bytes.add(arc.estimated_size() as i64 - old.estimated_size() as i64);
        self.durable_ack(wal_ack)?;
        Ok(arc)
    }

    /// Removes an object, returning its last state.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::NotFound`] if absent.
    pub fn delete(&self, kind: ResourceKind, key: &str) -> ApiResult<Arc<Object>> {
        let mut wal_ack = None;
        let removed = self.shard(kind).publish(
            |state| {
                // Log before mutating so a dead WAL rejects the write
                // without touching in-memory state.
                let current = state
                    .objects
                    .get(key)
                    .ok_or_else(|| ApiError::not_found(kind.as_str(), key))?;
                let revision = match &self.durability {
                    Some(d) => {
                        let (revision, offset) = d
                            .log_write(
                                || self.next_revision(),
                                |revision, batch| {
                                    // A delete does not bump the object's
                                    // resource_version; the record carries
                                    // its last state for event replay.
                                    wal::frame_into(
                                        &EntryRef { revision, op: WalOp::Delete, object: current },
                                        batch,
                                    )
                                },
                            )
                            .map_err(wal_unavailable)?;
                        wal_ack = Some(offset);
                        revision
                    }
                    None => self.next_revision(),
                };
                let removed = state.index_remove(key).expect("checked present above");
                self.objects.dec();
                self.writes.inc();
                let event = WatchEvent {
                    revision,
                    event_type: EventType::Deleted,
                    object: Arc::clone(&removed),
                };
                state.append_event(event.clone(), self.config.event_log_capacity);
                Ok((removed, event))
            },
            |watchers, (removed, event)| {
                self.fan_out(watchers, &event);
                removed
            },
        )?;
        self.bytes.add(-(removed.estimated_size() as i64));
        self.durable_ack(wal_ack)?;
        Ok(removed)
    }

    /// Fetches an object by key. Takes only the kind's shard lock.
    pub fn get(&self, kind: ResourceKind, key: &str) -> Option<Arc<Object>> {
        self.shard(kind).state().objects.get(key).cloned()
    }

    /// Lists objects of `kind`, optionally restricted to `namespace`,
    /// returning the items sorted by key plus the store revision at which
    /// the snapshot was taken (the revision a subsequent watch should start
    /// from).
    ///
    /// A namespace-scoped list reads the per-namespace index — cost is
    /// O(items in that namespace), independent of total store size.
    pub fn list(&self, kind: ResourceKind, namespace: Option<&str>) -> (Vec<Arc<Object>>, u64) {
        let state = self.shard(kind).state();
        let items = match namespace {
            Some(ns) => state
                .by_namespace
                .get(ns)
                .map(|per_ns| per_ns.values().cloned().collect())
                .unwrap_or_default(),
            None => state.objects.values().cloned().collect(),
        };
        // Read under the shard lock: any later write of this kind must
        // reacquire it and will allocate a strictly greater revision, so a
        // watch from this revision misses nothing and repeats nothing.
        let revision = self.revision.load(Ordering::Relaxed);
        (items, revision)
    }

    /// Opens a watch for `kind` (optionally namespace-filtered) delivering
    /// all events with revision **greater than** `from_revision`.
    ///
    /// The usual pattern is `let (items, rev) = store.list(..)` followed by
    /// `store.watch(kind, ns, rev)`.
    ///
    /// Replay is all-or-nothing: if the matching backlog does not fit the
    /// watcher buffer the watch fails without registering a watcher and
    /// without counting any partial delivery.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Expired`] when `from_revision` precedes the
    /// compaction floor, or when the backlog exceeds the watcher buffer;
    /// the caller must re-list.
    pub fn watch(
        &self,
        kind: ResourceKind,
        namespace: Option<String>,
        from_revision: u64,
    ) -> ApiResult<WatchStream> {
        self.shard(kind).publish(
            |state| {
                if from_revision < state.compacted_floor {
                    return Err(ApiError::expired(format!(
                        "requested revision {} but log is compacted up to {}",
                        from_revision, state.compacted_floor
                    )));
                }
                let (handle, stream) =
                    watch::WatcherHandle::new(kind, namespace, self.config.watcher_buffer);
                // Collect the backlog the watcher missed. The per-kind log
                // is sorted by revision, so skip the already-seen prefix.
                let skip = state.event_log.partition_point(|ev| ev.revision <= from_revision);
                let backlog: Vec<WatchEvent> =
                    state.event_log.range(skip..).filter(|ev| handle.wants(ev)).cloned().collect();
                if backlog.len() > self.config.watcher_buffer {
                    // All-or-nothing: nothing was delivered, nothing
                    // registered, no events counted. The nascent watcher
                    // still counts as an eviction — it fell behind before
                    // it even started.
                    self.watchers_evicted.inc();
                    return Err(ApiError::expired(
                        "watch backlog exceeds watcher buffer; re-list required",
                    ));
                }
                Ok((handle, stream, backlog))
            },
            // The handoff (registry lock taken before the state lock is
            // released) guarantees no event published after our backlog
            // snapshot can beat the replay; delivery itself happens
            // outside the write critical section.
            |watchers, (handle, stream, backlog)| {
                let replayed = backlog.len() as u64;
                for event in backlog {
                    // Cannot fail: the channel is fresh, the backlog fits
                    // its capacity, and we still hold the receiving stream.
                    let delivered = handle.deliver(event);
                    debug_assert!(delivered, "replay into a fresh channel cannot overflow");
                }
                self.events_delivered.add(replayed);
                watchers.push(handle);
                stream
            },
        )
    }

    /// Number of currently registered (non-evicted) watchers, sweeping any
    /// dead ones encountered.
    pub fn watcher_count(&self) -> usize {
        let mut alive = 0;
        let mut swept = 0u64;
        for shard in &self.shards {
            let mut watchers = shard.watchers();
            watchers.retain(|w| {
                if w.is_dead() {
                    swept += 1;
                    false
                } else {
                    true
                }
            });
            alive += watchers.len();
        }
        if swept > 0 {
            self.watchers_swept.add(swept);
        }
        alive
    }

    /// Estimated total serialized size of stored objects in bytes (Fig 10
    /// memory accounting). Maintained incrementally on writes — reading it
    /// is a single atomic load, no locks and no per-object walk.
    pub fn estimated_bytes(&self) -> usize {
        self.bytes.get().max(0) as usize
    }

    /// Delivers `event` to every interested watcher, evicting full ones
    /// and sweeping dead ones (consumer dropped) out of the registry.
    fn fan_out(&self, watchers: &mut Vec<watch::WatcherHandle>, event: &WatchEvent) {
        let mut evicted = 0u64;
        let mut swept = 0u64;
        watchers.retain(|w| {
            if !w.wants(event) {
                if w.is_dead() {
                    swept += 1;
                    return false;
                }
                return true;
            }
            if w.deliver(event.clone()) {
                self.events_delivered.inc();
                true
            } else if w.is_dead() {
                swept += 1;
                false
            } else {
                evicted += 1;
                false
            }
        });
        if evicted > 0 {
            self.watchers_evicted.add(evicted);
        }
        if swept > 0 {
            self.watchers_swept.add(swept);
        }
    }

    // ---------------------------------------------------------------
    // Durable tier
    // ---------------------------------------------------------------

    /// Opens (or recovers) a durable store in `durability.dir`.
    ///
    /// Recovery loads `snapshot.snap` (if present), replays every WAL
    /// record above the snapshot revision in commit order — rebuilding the
    /// object maps, namespace indexes, event logs, compaction floors and
    /// the global revision counter — and then opens a fresh WAL segment
    /// for new writes. A torn record at the tail of the newest segment is
    /// the expected crash boundary: it is truncated and reported, not an
    /// error. Damage anywhere else surfaces as [`StoreError::Corrupt`].
    ///
    /// `clock` times the flushes of [`FlushPolicy::Async`], so tests using
    /// `SimClock` stay deterministic. [`FlushPolicy::GroupCommit`] waits
    /// on no clock: its writers run the fsyncs themselves.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for filesystem failures, [`StoreError::Corrupt`]
    /// for checksum mismatches, torn frames in retired segments, damaged
    /// snapshots or non-monotonic revisions.
    pub fn open_durable(
        config: StoreConfig,
        durability: DurabilityConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<(Store, RecoveryReport), StoreError> {
        let recovered = durability::recover_dir(&durability.dir)?;
        let mut store = Store::with_config(config);
        let mut report = RecoveryReport { torn_tail: recovered.torn_tail, ..Default::default() };

        if let Some(snapshot) = recovered.snapshot {
            report.snapshot_revision = snapshot.revision;
            for arc in snapshot.objects {
                let kind = arc.kind();
                let key = arc.key();
                let mut state = store.shards[kind as usize].state();
                store.bytes.add(arc.estimated_size() as i64);
                store.objects.inc();
                state.index_insert(key.into(), arc);
            }
            for (revision, op, object) in snapshot.events {
                let kind = object.kind();
                let event = WatchEvent { revision, event_type: op.event_type(), object };
                // Push directly: the snapshot preserved the log exactly as
                // compaction left it, so no re-compaction on load.
                store.shards[kind as usize].state().event_log.push_back(event);
            }
            for (i, floor) in snapshot.floors.iter().enumerate() {
                if let Some(shard) = store.shards.get(i) {
                    shard.state().compacted_floor = *floor;
                }
            }
            store.revision.store(snapshot.revision, Ordering::Relaxed);
        }

        for entry in recovered.entries {
            store.apply_recovered(entry);
            report.wal_records_applied += 1;
        }
        report.recovered_revision = store.revision();

        store.durability = Some(Durability::open(durability, clock, recovered.next_seq)?);
        Ok((store, report))
    }

    /// Applies one replayed WAL record to the in-memory state, maintaining
    /// the incremental object/byte counters exactly like the live write
    /// path so recovery cannot drift from a from-scratch recount.
    fn apply_recovered(&self, mut entry: WalEntry) {
        entry.object.freeze();
        let kind = entry.object.kind();
        let key = entry.object.key();
        let revision = entry.revision;
        let mut state = self.shards[kind as usize].state();
        let event_object = match entry.op {
            WalOp::Insert | WalOp::Update => {
                let arc = Arc::new(entry.object);
                self.bytes.add(arc.estimated_size() as i64);
                match state.index_insert(key.into(), Arc::clone(&arc)) {
                    Some(old) => self.bytes.add(-(old.estimated_size() as i64)),
                    None => self.objects.inc(),
                }
                arc
            }
            WalOp::Delete => {
                if let Some(removed) = state.index_remove(&key) {
                    self.bytes.add(-(removed.estimated_size() as i64));
                    self.objects.dec();
                }
                Arc::new(entry.object)
            }
        };
        let event =
            WatchEvent { revision, event_type: entry.op.event_type(), object: event_object };
        state.append_event(event, self.config.event_log_capacity);
        self.revision.store(revision, Ordering::Relaxed);
    }

    /// Completes a durable write after the shard lock is released: under
    /// `GroupCommit`, return once an fsync covers the record, leading that
    /// fsync when none is in flight; under `Async`, return at once. The
    /// write is already visible to readers at this point — durability
    /// lags visibility by one fsync, or by at most one `Async` window
    /// (documented in DESIGN.md §13).
    fn durable_ack(&self, offset: Option<u64>) -> ApiResult<()> {
        let (Some(d), Some(offset)) = (self.durability.as_deref(), offset) else {
            return Ok(());
        };
        if d.config.flush == FlushPolicy::GroupCommit {
            d.wal.wait_durable(offset).map_err(wal_unavailable)?;
        }
        self.maybe_auto_snapshot(d);
        Ok(())
    }

    /// Cuts a snapshot when the configured write threshold is reached and
    /// no other cut is in flight. Failures don't fail the triggering
    /// write — the WAL still holds every record, so a missed snapshot
    /// only delays compaction — but they are counted in
    /// [`WalStats::snapshot_failures`]: a persistently failing snapshot
    /// means unbounded WAL growth.
    fn maybe_auto_snapshot(&self, d: &Durability) {
        let every = d.config.snapshot_every_writes;
        if every == 0 {
            return;
        }
        let n = d.writes_since_snapshot.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if n < every {
            return;
        }
        if let Some(_guard) = d.snapshot_try_guard() {
            if self.collect_cut(d).and_then(|data| d.write_snapshot(&data)).is_err() {
                d.wal.stats.snapshot_failures.inc();
            }
        }
    }

    /// Writes a snapshot of the current state and retires WAL segments it
    /// covers. Returns `false` (and does nothing) on a non-durable store.
    ///
    /// The cut is consistent: all shard state locks are held (in kind
    /// order) while the revision, objects, event logs and floors are
    /// captured and the WAL is rotated, so the snapshot plus the new
    /// segment is exactly the store's history.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from serialization or the filesystem.
    pub fn snapshot_now(&self) -> Result<bool, StoreError> {
        let Some(d) = self.durability.as_deref() else {
            return Ok(false);
        };
        let _guard = d.snapshot_guard();
        let data = self.collect_cut(d)?;
        d.write_snapshot(&data)?;
        Ok(true)
    }

    /// Captures a consistent cut under every shard state lock and rotates
    /// the WAL before releasing them. Only `Arc`s are cloned under the
    /// locks; serialization happens later, outside them.
    fn collect_cut(&self, d: &Durability) -> Result<SnapshotData, StoreError> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.state()).collect();
        let revision = self.revision.load(Ordering::Relaxed);
        let mut objects = Vec::with_capacity(self.len());
        let mut events = Vec::new();
        let mut floors = Vec::with_capacity(self.shards.len());
        for state in &guards {
            floors.push(state.compacted_floor);
            objects.extend(state.objects.values().cloned());
            for ev in &state.event_log {
                events.push((ev.revision, WalOp::of_event(ev.event_type), Arc::clone(&ev.object)));
            }
        }
        // Rotate while still holding the locks: every record at or below
        // `revision` is in the retiring segments, everything after goes to
        // the fresh one.
        d.rotate_wal()?;
        drop(guards);
        Ok(SnapshotData { revision, floors, objects, events })
    }

    /// Flushes (write + fsync) any batched WAL records immediately,
    /// regardless of flush policy. No-op on a non-durable store.
    ///
    /// # Errors
    ///
    /// Propagates WAL I/O failures (including an injected crash firing).
    pub fn flush_wal(&self) -> Result<(), StoreError> {
        match self.durability.as_deref() {
            Some(d) => d.wal.flush().map(drop),
            None => Ok(()),
        }
    }

    /// Arms an injected crash point on the durable tier (chaos tests): the
    /// next flush — a durable write's, [`Store::flush_wal`], a snapshot's
    /// rotation or shutdown — or snapshot dies at that point, leaving the
    /// directory exactly as a `kill -9` would, and every later durable
    /// operation fails. No-op on a non-durable store.
    pub fn inject_crash(&self, point: CrashPoint) {
        if let Some(d) = self.durability.as_deref() {
            d.wal.arm_crash(point);
        }
    }

    /// Durable-tier activity counters, when durability is enabled.
    pub fn wal_stats(&self) -> Option<&WalStats> {
        self.durability.as_deref().map(|d| &d.wal.stats)
    }

    /// Walks every shard and recounts objects and estimated bytes from
    /// scratch — the ground truth the incremental [`Store::len`] /
    /// [`Store::estimated_bytes`] counters must match (recovery asserts
    /// this; drift means the incremental path missed a transition).
    pub fn recount(&self) -> (usize, usize) {
        let mut count = 0usize;
        let mut bytes = 0usize;
        for shard in &self.shards {
            let state = shard.state();
            count += state.objects.len();
            bytes += state.objects.values().map(|o| o.estimated_size()).sum::<usize>();
        }
        (count, bytes)
    }
}

impl Drop for Store {
    /// Flushes what is still pending in the WAL — an `Async` batch whose
    /// timer has not fired. Like any flush it consumes an armed crash
    /// point, and a WAL an injected crash already killed stays as it
    /// died: the point of the crash is that nothing more reaches disk.
    fn drop(&mut self) {
        if let Some(d) = self.durability.take() {
            let _ = d.wal.flush();
        }
    }
}

/// Maps a durability failure onto the API error surface: the store cannot
/// currently accept durable writes.
fn wal_unavailable(err: StoreError) -> ApiError {
    ApiError::unavailable(format!("durable store: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::config::ConfigMap;
    use vc_api::namespace::Namespace;
    use vc_api::pod::Pod;

    fn pod(ns: &str, name: &str) -> Object {
        Pod::new(ns, name).into()
    }

    #[test]
    fn insert_assigns_increasing_revisions() {
        let store = Store::new();
        let a = store.insert(pod("ns", "a")).unwrap();
        let b = store.insert(pod("ns", "b")).unwrap();
        assert_eq!(a.meta().resource_version, 1);
        assert_eq!(b.meta().resource_version, 2);
        assert_eq!(store.revision(), 2);
        assert_eq!(store.writes.get(), 2);
    }

    #[test]
    fn insert_duplicate_fails() {
        let store = Store::new();
        store.insert(pod("ns", "a")).unwrap();
        let err = store.insert(pod("ns", "a")).unwrap_err();
        assert!(err.is_already_exists());
    }

    #[test]
    fn same_name_different_kind_coexist() {
        let store = Store::new();
        store.insert(pod("ns", "x")).unwrap();
        store.insert(Namespace::new("x").into()).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn update_cas_semantics() {
        let store = Store::new();
        let stored = store.insert(pod("ns", "a")).unwrap();
        let rv = stored.meta().resource_version;

        // Correct expected revision succeeds.
        let updated = store.update(pod("ns", "a"), Some(rv)).unwrap();
        assert!(updated.meta().resource_version > rv);

        // Stale expected revision conflicts.
        let err = store.update(pod("ns", "a"), Some(rv)).unwrap_err();
        assert!(err.is_conflict());

        // Unconditional update succeeds.
        store.update(pod("ns", "a"), None).unwrap();
    }

    #[test]
    fn update_missing_fails() {
        let store = Store::new();
        assert!(store.update(pod("ns", "a"), None).unwrap_err().is_not_found());
    }

    #[test]
    fn delete_returns_last_state_and_bumps_revision() {
        let store = Store::new();
        store.insert(pod("ns", "a")).unwrap();
        let rev_before = store.revision();
        let removed = store.delete(ResourceKind::Pod, "ns/a").unwrap();
        assert_eq!(removed.key(), "ns/a");
        assert_eq!(store.revision(), rev_before + 1);
        assert!(store.get(ResourceKind::Pod, "ns/a").is_none());
        assert!(store.delete(ResourceKind::Pod, "ns/a").unwrap_err().is_not_found());
    }

    #[test]
    fn list_filters_kind_and_namespace_sorted() {
        let store = Store::new();
        store.insert(pod("ns2", "b")).unwrap();
        store.insert(pod("ns1", "a")).unwrap();
        store.insert(pod("ns1", "c")).unwrap();
        store.insert(Namespace::new("ns1").into()).unwrap();

        let (all, rev) = store.list(ResourceKind::Pod, None);
        assert_eq!(all.len(), 3);
        assert_eq!(rev, store.revision());
        let keys: Vec<String> = all.iter().map(|o| o.key()).collect();
        assert_eq!(keys, vec!["ns1/a", "ns1/c", "ns2/b"], "sorted by key");

        let (ns1, _) = store.list(ResourceKind::Pod, Some("ns1"));
        assert_eq!(ns1.len(), 2);
    }

    #[test]
    fn namespace_index_survives_churn() {
        let store = Store::new();
        for i in 0..10 {
            store.insert(pod("ns1", &format!("a{i}"))).unwrap();
            store.insert(pod("ns2", &format!("b{i}"))).unwrap();
        }
        for i in 0..10 {
            store.delete(ResourceKind::Pod, &format!("ns1/a{i}")).unwrap();
        }
        let (ns1, _) = store.list(ResourceKind::Pod, Some("ns1"));
        assert!(ns1.is_empty());
        let (ns2, _) = store.list(ResourceKind::Pod, Some("ns2"));
        assert_eq!(ns2.len(), 10);
        // Updates keep the index entry current.
        let rv = ns2[0].meta().resource_version;
        let updated = store.update(pod("ns2", "b0"), Some(rv)).unwrap();
        let (ns2_after, _) = store.list(ResourceKind::Pod, Some("ns2"));
        assert_eq!(
            ns2_after.iter().find(|o| o.key() == "ns2/b0").unwrap().meta().resource_version,
            updated.meta().resource_version
        );
    }

    #[test]
    fn namespace_list_is_served_from_the_namespace_index() {
        let store = Store::new();
        for name in ["c", "a", "b"] {
            store.insert(pod("ns-a", name)).unwrap();
            store.insert(pod("ns-b", name)).unwrap();
        }
        // Empty the object map behind the index's back: a namespace list
        // still answers in full because it never reads `objects`, so its
        // cost is the namespace's size, not the kind's.
        store.shard(ResourceKind::Pod).state().objects.clear();

        let (ns_a, _) = store.list(ResourceKind::Pod, Some("ns-a"));
        let keys: Vec<String> = ns_a.iter().map(|o| o.key()).collect();
        assert_eq!(keys, ["ns-a/a", "ns-a/b", "ns-a/c"], "exactly ns-a, in key order");
        assert!(store.list(ResourceKind::Pod, None).0.is_empty());
    }

    #[test]
    fn kinds_do_not_share_a_lock() {
        let store = Arc::new(Store::new());
        store.insert(ConfigMap::new("ns", "before").into()).unwrap();
        let pod_state = store.shard(ResourceKind::Pod).state();

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let other = Arc::clone(&store);
        std::thread::spawn(move || {
            let got = other.get(ResourceKind::ConfigMap, "ns/before").is_some();
            let inserted = other.insert(ConfigMap::new("ns", "after").into()).is_ok();
            let _ = done_tx.send((got, inserted));
        });
        // Bounded, so a shared lock fails the test instead of hanging it;
        // releasing the guard afterwards lets a blocked thread finish.
        let outcome = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        drop(pod_state);
        assert_eq!(outcome, Ok((true, true)), "a ConfigMap get + insert waited on the Pod shard");
    }

    #[test]
    fn watch_receives_live_events() {
        let store = Store::new();
        let stream = store.watch(ResourceKind::Pod, None, 0).unwrap();
        store.insert(pod("ns", "a")).unwrap();
        store.update(pod("ns", "a"), None).unwrap();
        store.delete(ResourceKind::Pod, "ns/a").unwrap();

        let types: Vec<EventType> =
            (0..3).map(|_| stream.recv_timeout_ms(1000).unwrap().event_type).collect();
        assert_eq!(types, vec![EventType::Added, EventType::Modified, EventType::Deleted]);
    }

    #[test]
    fn watch_replays_backlog_from_revision() {
        let store = Store::new();
        store.insert(pod("ns", "a")).unwrap();
        let (items, rev) = store.list(ResourceKind::Pod, None);
        assert_eq!(items.len(), 1);
        store.insert(pod("ns", "b")).unwrap();

        // Watch from the list revision sees only b.
        let stream = store.watch(ResourceKind::Pod, None, rev).unwrap();
        let ev = stream.recv_timeout_ms(1000).unwrap();
        assert_eq!(ev.object.key(), "ns/b");
        assert_eq!(ev.event_type, EventType::Added);
        assert!(stream.try_recv().is_none());
    }

    #[test]
    fn watch_namespace_filter() {
        let store = Store::new();
        let stream = store.watch(ResourceKind::Pod, Some("ns1".into()), 0).unwrap();
        store.insert(pod("ns2", "x")).unwrap();
        store.insert(pod("ns1", "y")).unwrap();
        let ev = stream.recv_timeout_ms(1000).unwrap();
        assert_eq!(ev.object.key(), "ns1/y");
        assert!(stream.try_recv().is_none());
    }

    #[test]
    fn watch_kind_filter() {
        let store = Store::new();
        let stream = store.watch(ResourceKind::Namespace, None, 0).unwrap();
        store.insert(pod("ns", "x")).unwrap();
        store.insert(Namespace::new("n1").into()).unwrap();
        let ev = stream.recv_timeout_ms(1000).unwrap();
        assert_eq!(ev.object.kind(), ResourceKind::Namespace);
    }

    #[test]
    fn compaction_expires_old_watch_revisions() {
        let store = Store::with_config(StoreConfig { event_log_capacity: 10, watcher_buffer: 64 });
        for i in 0..30 {
            store.insert(pod("ns", &format!("p{i}"))).unwrap();
        }
        let err = store.watch(ResourceKind::Pod, None, 0).unwrap_err();
        assert!(err.is_expired(), "{err}");
        // A fresh list + watch works.
        let (_, rev) = store.list(ResourceKind::Pod, None);
        assert!(store.watch(ResourceKind::Pod, None, rev).is_ok());
    }

    #[test]
    fn compaction_is_per_kind() {
        let store = Store::with_config(StoreConfig { event_log_capacity: 10, watcher_buffer: 64 });
        for i in 0..30 {
            store.insert(pod("ns", &format!("p{i}"))).unwrap();
        }
        // The pod log is compacted, but the namespace log is untouched: a
        // from-zero namespace watch still works.
        assert!(store.watch(ResourceKind::Pod, None, 0).unwrap_err().is_expired());
        assert!(store.watch(ResourceKind::Namespace, None, 0).is_ok());
    }

    #[test]
    fn overflowing_replay_is_all_or_nothing() {
        let store = Store::with_config(StoreConfig { event_log_capacity: 1000, watcher_buffer: 4 });
        for i in 0..20 {
            store.insert(pod("ns", &format!("p{i}"))).unwrap();
        }
        let delivered_before = store.events_delivered.get();
        let err = store.watch(ResourceKind::Pod, None, 0).unwrap_err();
        assert!(err.is_expired(), "{err}");
        // No partial replay was counted and no half-fed watcher registered.
        assert_eq!(store.events_delivered.get(), delivered_before);
        assert_eq!(store.watcher_count(), 0);
        assert!(store.watchers_evicted.get() >= 1);
    }

    #[test]
    fn slow_watcher_evicted_and_channel_closes() {
        let store = Store::with_config(StoreConfig { event_log_capacity: 1000, watcher_buffer: 4 });
        let stream = store.watch(ResourceKind::Pod, None, 0).unwrap();
        for i in 0..20 {
            store.insert(pod("ns", &format!("p{i}"))).unwrap();
        }
        assert!(store.watchers_evicted.get() >= 1);
        // Drain what was buffered; the stream then reports closure.
        let mut received = 0;
        while stream.recv_timeout_ms(50).is_some() {
            received += 1;
        }
        assert!(received <= 4);
        assert!(stream.is_closed());
        assert_eq!(store.watcher_count(), 0);
    }

    #[test]
    fn dropped_stream_cleans_up_watcher() {
        let store = Store::new();
        let stream = store.watch(ResourceKind::Pod, None, 0).unwrap();
        assert_eq!(store.watcher_count(), 1);
        drop(stream);
        // Next publish sweeps the dead watcher (counted as swept, not as
        // an eviction — the consumer left, it did not fall behind).
        store.insert(pod("ns", "a")).unwrap();
        assert_eq!(store.watcher_count(), 0);
        assert_eq!(store.watchers_swept.get(), 1);
        assert_eq!(store.watchers_evicted.get(), 0);
    }

    #[test]
    fn debug_impl_is_lock_free() {
        let store = Store::new();
        store.insert(pod("ns", "a")).unwrap();
        // Formatting while holding every shard lock would deadlock if
        // Debug took any of them.
        let _state_guards: Vec<_> =
            ResourceKind::ALL.iter().map(|k| store.shards[*k as usize].state()).collect();
        let _watcher_guards: Vec<_> =
            ResourceKind::ALL.iter().map(|k| store.shards[*k as usize].watchers()).collect();
        let rendered = format!("{store:?}");
        assert!(rendered.contains("objects: 1"), "{rendered}");
        assert!(rendered.contains("revision: 1"), "{rendered}");
    }

    #[test]
    fn estimated_bytes_grows_with_objects() {
        let store = Store::new();
        let empty = store.estimated_bytes();
        assert_eq!(empty, 0);
        store.insert(pod("ns", "a")).unwrap();
        assert!(store.estimated_bytes() > 0);
    }

    #[test]
    fn estimated_bytes_tracks_updates_and_deletes() {
        let store = Store::new();
        store.insert(pod("ns", "a")).unwrap();
        let after_insert = store.estimated_bytes();
        store.update(pod("ns", "a"), None).unwrap();
        assert!(store.estimated_bytes() > 0);
        store.delete(ResourceKind::Pod, "ns/a").unwrap();
        assert_eq!(store.estimated_bytes(), 0, "after {after_insert} bytes inserted");
    }

    #[test]
    fn concurrent_writers_unique_revisions() {
        let store = Arc::new(Store::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    s.insert(pod("ns", &format!("t{t}-p{i}"))).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
        assert_eq!(store.revision(), 400);
        // All resource versions are unique.
        let (items, _) = store.list(ResourceKind::Pod, None);
        let mut rvs: Vec<u64> = items.iter().map(|o| o.meta().resource_version).collect();
        rvs.sort_unstable();
        rvs.dedup();
        assert_eq!(rvs.len(), 400);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vc_api::pod::Pod;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8),
        Update(u8),
        Delete(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..20).prop_map(Op::Insert),
            (0u8..20).prop_map(Op::Update),
            (0u8..20).prop_map(Op::Delete),
        ]
    }

    proptest! {
        /// Applying a random operation sequence, a watcher that replays from
        /// revision 0 reconstructs exactly the store's final content.
        #[test]
        fn prop_watch_replay_reconstructs_state(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let store = Store::new();
            for op in &ops {
                match op {
                    Op::Insert(i) => { let _ = store.insert(Pod::new("ns", format!("p{i}")).into()); }
                    Op::Update(i) => { let _ = store.update(Pod::new("ns", format!("p{i}")).into(), None); }
                    Op::Delete(i) => { let _ = store.delete(ResourceKind::Pod, &format!("ns/p{i}")); }
                }
            }
            let stream = store.watch(ResourceKind::Pod, None, 0).unwrap();
            let mut reconstructed: std::collections::HashMap<String, u64> = Default::default();
            while let Some(ev) = stream.try_recv() {
                match ev.event_type {
                    EventType::Added | EventType::Modified => {
                        reconstructed.insert(ev.object.key(), ev.object.meta().resource_version);
                    }
                    EventType::Deleted => { reconstructed.remove(&ev.object.key()); }
                }
            }
            let (items, _) = store.list(ResourceKind::Pod, None);
            let actual: std::collections::HashMap<String, u64> =
                items.iter().map(|o| (o.key(), o.meta().resource_version)).collect();
            prop_assert_eq!(reconstructed, actual);
        }

        /// Revisions strictly increase across any mix of successful writes.
        #[test]
        fn prop_revisions_strictly_increase(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let store = Store::new();
            let stream = store.watch(ResourceKind::Pod, None, 0).unwrap();
            for op in &ops {
                match op {
                    Op::Insert(i) => { let _ = store.insert(Pod::new("ns", format!("p{i}")).into()); }
                    Op::Update(i) => { let _ = store.update(Pod::new("ns", format!("p{i}")).into(), None); }
                    Op::Delete(i) => { let _ = store.delete(ResourceKind::Pod, &format!("ns/p{i}")); }
                }
            }
            let mut last = 0u64;
            while let Some(ev) = stream.try_recv() {
                prop_assert!(ev.revision > last);
                last = ev.revision;
            }
        }

        /// The incremental byte accounting always equals a full recount.
        #[test]
        fn prop_bytes_accounting_matches_recount(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let store = Store::new();
            for op in &ops {
                match op {
                    Op::Insert(i) => { let _ = store.insert(Pod::new("ns", format!("p{i}")).into()); }
                    Op::Update(i) => { let _ = store.update(Pod::new("ns", format!("p{i}")).into(), None); }
                    Op::Delete(i) => { let _ = store.delete(ResourceKind::Pod, &format!("ns/p{i}")); }
                }
            }
            let (items, _) = store.list(ResourceKind::Pod, None);
            let recount: usize = items.iter().map(|o| o.estimated_size()).sum();
            prop_assert_eq!(store.estimated_bytes(), recount);
            prop_assert_eq!(store.len(), items.len());
        }
    }
}
