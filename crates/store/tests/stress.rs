//! Threaded stress tests for the sharded store: 8+ writers and 8+ listers
//! racing across three kinds while watchers observe, asserting revision
//! monotonicity, CAS correctness and exactly-once event delivery.
//!
//! Run multi-threaded (`cargo test -p vc-store -- --test-threads=8`, as CI
//! does) so the shard locks actually contend.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use vc_api::config::{ConfigMap, Secret};
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::Pod;
use vc_store::{EventType, Store, WatchStream};

const WRITERS: usize = 9;
const LISTERS: usize = 9;
const ITEMS_PER_WRITER: usize = 60;
const KINDS: [ResourceKind; 3] = [ResourceKind::Pod, ResourceKind::ConfigMap, ResourceKind::Secret];

fn make(kind: ResourceKind, ns: &str, name: &str) -> Object {
    match kind {
        ResourceKind::Pod => Pod::new(ns, name).into(),
        ResourceKind::ConfigMap => ConfigMap::new(ns, name).into(),
        ResourceKind::Secret => Secret::new(ns, name).into(),
        other => panic!("unsupported stress kind {other:?}"),
    }
}

/// Drains `stream` until no event arrives for a grace period.
fn drain(stream: &WatchStream) -> Vec<vc_store::WatchEvent> {
    let mut events = Vec::new();
    while let Some(ev) = stream.recv_timeout_ms(250) {
        events.push(ev);
    }
    events
}

/// One committed write as observed by the writer that performed it.
#[derive(Debug)]
struct Committed {
    kind: ResourceKind,
    revision: u64,
    deleted: bool,
}

#[test]
fn writers_listers_watchers_race_without_anomalies() {
    let store = Arc::new(Store::new());

    // From-zero watchers opened before any write: they must observe every
    // committed write of their kind live, in revision order, exactly once.
    let live_streams: Vec<WatchStream> =
        KINDS.iter().map(|k| store.watch(*k, None, 0).unwrap()).collect();

    let stop = Arc::new(AtomicBool::new(false));
    // Writers finish in a few milliseconds; without a common start line the
    // listers, spawned after them, could find nothing left to race.
    let start = Arc::new(Barrier::new(WRITERS + LISTERS));
    let mut writer_handles = Vec::new();
    for w in 0..WRITERS {
        let store = Arc::clone(&store);
        let start = Arc::clone(&start);
        writer_handles.push(std::thread::spawn(move || {
            let kind = KINDS[w % KINDS.len()];
            let ns = format!("ns-{}", w % 4);
            let mut committed = Vec::new();
            start.wait();
            for i in 0..ITEMS_PER_WRITER {
                let name = format!("w{w}-i{i}");
                let stored = store.insert(make(kind, &ns, &name)).unwrap();
                committed.push(Committed {
                    kind,
                    revision: stored.meta().resource_version,
                    deleted: false,
                });
                // CAS update against the just-stored revision must succeed
                // (nobody else writes this key).
                let updated = store
                    .update(make(kind, &ns, &name), Some(stored.meta().resource_version))
                    .unwrap();
                assert!(updated.meta().resource_version > stored.meta().resource_version);
                committed.push(Committed {
                    kind,
                    revision: updated.meta().resource_version,
                    deleted: false,
                });
                // A retry with the consumed revision must conflict.
                let err = store
                    .update(make(kind, &ns, &name), Some(stored.meta().resource_version))
                    .unwrap_err();
                assert!(err.is_conflict(), "{err}");
                // Every third object is deleted again.
                if i % 3 == 0 {
                    store.delete(kind, &format!("{ns}/{name}")).unwrap();
                    committed.push(Committed { kind, revision: 0, deleted: true });
                }
            }
            committed
        }));
    }

    let mut lister_handles = Vec::new();
    for l in 0..LISTERS {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        lister_handles.push(std::thread::spawn(move || {
            let kind = KINDS[l % KINDS.len()];
            let ns = format!("ns-{}", l % 4);
            // Snapshot revision of every pass; the main thread counts the
            // ones taken before the last write committed.
            let mut snapshots = Vec::new();
            start.wait();
            // Check `stop` after the pass, not before: a lister descheduled
            // for the writers' whole run still verifies the final state.
            loop {
                let (items, rev) = store.list(kind, Some(&ns));
                // Sorted output, and no item newer than the snapshot
                // revision.
                for pair in items.windows(2) {
                    assert!(pair[0].key() < pair[1].key(), "list must be sorted");
                }
                for item in &items {
                    assert!(item.meta().resource_version <= rev);
                    assert_eq!(item.meta().namespace, ns);
                    assert_eq!(item.kind(), kind);
                }
                // Point reads agree with the index (the object may have
                // been deleted since the snapshot; only check identity).
                if let Some(item) = items.first() {
                    if let Some(got) = store.get(kind, &item.key()) {
                        assert_eq!(got.key(), item.key());
                    }
                }
                snapshots.push(rev);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            snapshots
        }));
    }

    let mut all_committed: Vec<Committed> = Vec::new();
    for h in writer_handles {
        all_committed.extend(h.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    // A pass whose snapshot is older than the final revision ran while
    // writers were still committing: that is the race this test is about.
    // Summed over listers, because the shard lock is unfair and any one
    // lister can be parked on it for the writers' whole run.
    let final_revision = store.revision();
    let raced: Vec<usize> = lister_handles
        .into_iter()
        .map(|h| {
            let snapshots = h.join().unwrap();
            assert!(snapshots.windows(2).all(|p| p[0] <= p[1]), "list revision went backwards");
            snapshots.iter().filter(|rev| **rev < final_revision).count()
        })
        .collect();
    assert!(raced.iter().sum::<usize>() > 0, "no lister pass overlapped the writers: {raced:?}");

    // --- Revision bookkeeping ---------------------------------------
    let write_count = all_committed.len() as u64;
    assert_eq!(store.revision(), write_count, "every committed write got one revision");
    assert_eq!(store.writes.get(), write_count);

    let mut seen = HashSet::new();
    for c in all_committed.iter().filter(|c| !c.deleted) {
        assert!(seen.insert(c.revision), "revision {} assigned twice", c.revision);
    }

    // --- Live watchers: exactly-once, in order ----------------------
    let mut live_by_kind: HashMap<ResourceKind, Vec<vc_store::WatchEvent>> = HashMap::new();
    for (kind, stream) in KINDS.iter().zip(&live_streams) {
        let events = drain(stream);
        assert!(!stream.is_closed(), "live watcher must not have been evicted");
        let mut last = 0u64;
        for ev in &events {
            assert!(ev.revision > last, "per-watcher revisions must strictly increase");
            last = ev.revision;
        }
        live_by_kind.insert(*kind, events);
    }
    for kind in KINDS {
        let committed: HashSet<u64> = all_committed
            .iter()
            .filter(|c| c.kind == kind && !c.deleted)
            .map(|c| c.revision)
            .collect();
        let deletes = all_committed.iter().filter(|c| c.kind == kind && c.deleted).count();
        let events = &live_by_kind[&kind];
        let observed: HashSet<u64> = events
            .iter()
            .filter(|ev| ev.event_type != EventType::Deleted)
            .map(|ev| ev.revision)
            .collect();
        assert_eq!(
            observed, committed,
            "{kind:?}: every committed insert/update observed exactly once"
        );
        let observed_deletes =
            events.iter().filter(|ev| ev.event_type == EventType::Deleted).count();
        assert_eq!(observed_deletes, deletes, "{kind:?}: every delete observed exactly once");
    }

    // --- From-zero replay watcher reconstructs final state ----------
    for kind in KINDS {
        let stream = store.watch(kind, None, 0).unwrap();
        let mut reconstructed: HashMap<String, u64> = HashMap::new();
        for ev in drain(&stream) {
            match ev.event_type {
                EventType::Added | EventType::Modified => {
                    reconstructed.insert(ev.object.key(), ev.object.meta().resource_version);
                }
                EventType::Deleted => {
                    reconstructed.remove(&ev.object.key());
                }
            }
        }
        let (items, _) = store.list(kind, None);
        let actual: HashMap<String, u64> =
            items.iter().map(|o| (o.key(), o.meta().resource_version)).collect();
        assert_eq!(reconstructed, actual, "{kind:?}: replay reconstructs state");
    }

    // --- Incremental accounting matches a recount -------------------
    let mut total_items = 0;
    let mut total_bytes = 0;
    for kind in ResourceKind::ALL {
        let (items, _) = store.list(kind, None);
        total_items += items.len();
        total_bytes += items.iter().map(|o| o.estimated_size()).sum::<usize>();
    }
    assert_eq!(store.len(), total_items);
    assert_eq!(store.estimated_bytes(), total_bytes);
}

#[test]
fn concurrent_cas_on_one_key_admits_exactly_one_winner() {
    let store = Arc::new(Store::new());
    let stored = store.insert(Pod::new("ns", "contested").into()).unwrap();
    let rv = stored.meta().resource_version;

    let mut handles = Vec::new();
    for _ in 0..8 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            store.update(Pod::new("ns", "contested").into(), Some(rv)).is_ok()
        }));
    }
    let wins = handles.into_iter().map(|h| h.join().unwrap()).filter(|won| *won).count();
    assert_eq!(wins, 1, "exactly one CAS with the same expected revision may win");
    assert_eq!(store.revision(), 2);
}

#[test]
fn cross_kind_writes_do_not_serialize_watch_order() {
    // Writers on different kinds run concurrently; each kind's watcher
    // still sees strictly increasing revisions.
    let store = Arc::new(Store::new());
    let streams: Vec<WatchStream> =
        KINDS.iter().map(|k| store.watch(*k, None, 0).unwrap()).collect();

    let mut handles = Vec::new();
    for (k, kind) in KINDS.iter().enumerate() {
        let store = Arc::clone(&store);
        let kind = *kind;
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                store.insert(make(kind, "ns", &format!("k{k}-i{i}"))).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut all_revisions = HashSet::new();
    for stream in &streams {
        let mut last = 0u64;
        let events = drain(stream);
        assert_eq!(events.len(), 200);
        for ev in events {
            assert!(ev.revision > last);
            last = ev.revision;
            assert!(all_revisions.insert(ev.revision), "globally unique revisions");
        }
    }
    assert_eq!(store.revision(), 600);
}
