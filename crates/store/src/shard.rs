//! Per-kind shard internals: object maps, namespace indexes, event logs
//! and watcher registries.
//!
//! Each [`crate::Store`] owns one [`Shard`] per [`ResourceKind`]. A shard
//! carries **two** locks with a strict acquisition order (`state` before
//! `watchers`, never the reverse):
//!
//! * the state lock guards the object map, the per-namespace secondary
//!   index and the bounded event log — the write critical section.
//! * the watcher lock guards the watcher registry. Writers hand off
//!   from state to watchers (acquire the watcher lock *before* releasing
//!   state) so events fan out in revision order, but the delivery work
//!   itself — cloning events into watcher channels — happens after the
//!   state lock is dropped and therefore never blocks readers or other
//!   writers of the shard's data.
//!
//! The handoff itself lives in [`crate::handoff::DualLock`]; a shard is
//! that primitive instantiated with [`ShardState`] and the watcher list.
//!
//! [`ResourceKind`]: vc_api::object::ResourceKind

use crate::handoff::DualLock;
use crate::watch::{WatchEvent, WatcherHandle};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use vc_api::object::Object;

/// Mutable per-kind state: objects, indexes and the replay log.
pub(crate) struct ShardState {
    /// Objects of this kind, keyed by `namespace/name` (or `name` for
    /// cluster-scoped kinds). Ordered, so full-kind lists come out sorted
    /// without a per-call rebuild.
    pub objects: BTreeMap<String, Arc<Object>>,
    /// Secondary index: namespace → (key → object). `list(kind, Some(ns))`
    /// reads one inner map instead of scanning every object of the kind.
    /// Cluster-scoped objects index under the empty namespace.
    pub by_namespace: HashMap<String, BTreeMap<String, Arc<Object>>>,
    /// Oldest revision still replayable from this shard's event log.
    pub compacted_floor: u64,
    /// Bounded replay log of this kind's events, oldest first; revisions
    /// are strictly increasing (allocated under the state lock).
    pub event_log: VecDeque<WatchEvent>,
}

impl ShardState {
    pub(crate) fn new() -> Self {
        ShardState {
            objects: BTreeMap::new(),
            by_namespace: HashMap::new(),
            compacted_floor: 0,
            event_log: VecDeque::new(),
        }
    }

    /// Inserts `obj` under `key` into the object map and the namespace
    /// index, returning the previous object (if any). An update of a key
    /// already present overwrites both entries in place: only a new key
    /// (or the first key of a namespace) is copied into the index.
    pub(crate) fn index_insert(
        &mut self,
        key: Cow<'_, str>,
        obj: Arc<Object>,
    ) -> Option<Arc<Object>> {
        let ns = obj.meta().namespace.as_str();
        if !self.by_namespace.contains_key(ns) {
            self.by_namespace.insert(ns.to_string(), BTreeMap::new());
        }
        let per_ns = self.by_namespace.get_mut(ns).expect("inserted above");
        match per_ns.get_mut(&*key) {
            Some(slot) => *slot = Arc::clone(&obj),
            None => {
                per_ns.insert(key.to_string(), Arc::clone(&obj));
            }
        }
        match self.objects.get_mut(&*key) {
            Some(slot) => Some(std::mem::replace(slot, obj)),
            None => self.objects.insert(key.into_owned(), obj),
        }
    }

    /// Removes `key` from the object map and the namespace index,
    /// returning the removed object.
    pub(crate) fn index_remove(&mut self, key: &str) -> Option<Arc<Object>> {
        let removed = self.objects.remove(key)?;
        let ns = &removed.meta().namespace;
        if let Some(per_ns) = self.by_namespace.get_mut(ns) {
            per_ns.remove(key);
            // Drop empty per-namespace maps so churned namespaces do not
            // accumulate empty index entries over long runs.
            if per_ns.is_empty() {
                self.by_namespace.remove(ns);
            }
        }
        Some(removed)
    }

    /// Appends `event` to the replay log, compacting the oldest half when
    /// the log exceeds `capacity` and advancing the compaction floor to
    /// the last dropped revision.
    pub(crate) fn append_event(&mut self, event: WatchEvent, capacity: usize) {
        self.event_log.push_back(event);
        if self.event_log.len() > capacity {
            let drop_count = self.event_log.len() / 2;
            for _ in 0..drop_count {
                if let Some(dropped) = self.event_log.pop_front() {
                    self.compacted_floor = dropped.revision;
                }
            }
        }
    }
}

/// One per-kind shard: state under one lock, watchers under another,
/// with the acquisition order enforced by [`DualLock`].
pub(crate) type Shard = DualLock<ShardState, Vec<WatcherHandle>>;

pub(crate) fn new_shard() -> Shard {
    DualLock::new(ShardState::new(), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watch::EventType;
    use vc_api::pod::Pod;

    fn event(rev: u64) -> WatchEvent {
        WatchEvent {
            revision: rev,
            event_type: EventType::Added,
            object: Arc::new(Pod::new("ns", format!("p{rev}")).into()),
        }
    }

    #[test]
    fn namespace_index_tracks_inserts_and_removals() {
        let mut state = ShardState::new();
        let a: Arc<Object> = Arc::new(Pod::new("ns1", "a").into());
        let b: Arc<Object> = Arc::new(Pod::new("ns2", "b").into());
        state.index_insert("ns1/a".into(), Arc::clone(&a));
        state.index_insert("ns2/b".into(), Arc::clone(&b));
        assert_eq!(state.by_namespace.len(), 2);
        assert_eq!(state.by_namespace["ns1"].len(), 1);

        state.index_remove("ns1/a").unwrap();
        assert!(!state.by_namespace.contains_key("ns1"), "empty ns entry dropped");
        assert_eq!(state.objects.len(), 1);
    }

    #[test]
    fn updates_overwrite_the_index_entries_in_place() {
        let mut state = ShardState::new();
        let mut last = None;
        for rev in 1..=100 {
            let mut pod = Pod::new("ns", "p");
            pod.meta.resource_version = rev;
            let pod: Arc<Object> = Arc::new(pod.into());
            let previous = state.index_insert("ns/p".into(), Arc::clone(&pod));
            assert_eq!(previous.map(|o| o.meta().resource_version), last);
            last = Some(rev);
        }
        assert_eq!(state.objects.len(), 1);
        assert_eq!(state.by_namespace.len(), 1);
        assert_eq!(state.by_namespace["ns"].len(), 1);
        assert_eq!(state.objects["ns/p"].meta().resource_version, 100);
        assert_eq!(state.by_namespace["ns"]["ns/p"].meta().resource_version, 100);

        state.index_remove("ns/p").unwrap();
        assert!(state.objects.is_empty());
        assert!(state.by_namespace.is_empty());
    }

    #[test]
    fn append_event_compacts_and_advances_floor() {
        let mut state = ShardState::new();
        for rev in 1..=11 {
            state.append_event(event(rev), 10);
        }
        // 11 events overflowed a capacity of 10: the oldest 5 are gone.
        assert_eq!(state.event_log.len(), 6);
        assert_eq!(state.compacted_floor, 5);
        assert_eq!(state.event_log.front().unwrap().revision, 6);
    }
}
