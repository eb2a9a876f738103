//! Weighted-fair work queue: per-tenant sub-queues dispatched by weighted
//! round-robin.
//!
//! This is the paper's extension of the client-go work queue (§III-C): "we
//! add per tenant sub-queues and use the weighted round-robin scheduling
//! algorithm to dispatch tenant objects to the downward worker queue. As a
//! result, none of the tenants would suffer from significant object
//! synchronization delays, preventing starvation."
//!
//! Dequeue is deficit-style WRR: the front tenant of an **active-tenant
//! ring** is served for up to `weight` consecutive items, then rotated to
//! the back. The ring holds exactly the tenants with non-empty, non-paused
//! sub-queues (each at most once), so dequeue is O(1) amortized regardless
//! of how many registered tenants are idle — the cursor scan over empty
//! sub-queues this replaces was O(tenants). With equal weights the ring
//! degenerates to plain round-robin. Construct with `fair = false` to get a
//! single shared FIFO instead — the configuration Fig 11(b) measures.
//!
//! A tenant unregistered while it still has backlog
//! ([`WeightedFairQueue::remove_tenant`] returning `false`) is marked
//! defunct; its sub-queue is dropped automatically the moment it drains.
//!
//! Deduplication follows the same dirty/processing protocol as
//! [`WorkQueue`](crate::workqueue::WorkQueue), with the same event
//! coalescing extension: [`WeightedFairQueue::add_coalescing`] records only
//! the latest generation for an item re-added while dirty, and
//! [`WeightedFairQueue::get_batch`] drains up to `n` same-tenant items per
//! wakeup (bounded by the tenant's WRR round, so batching never distorts
//! the fair shares).

use crate::coalesce::{CoalesceCore, Offer};
use crate::workqueue::WorkSource;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_sync::{Condvar, Mutex};

/// Default tenant weight.
pub const DEFAULT_WEIGHT: u32 = 1;

#[derive(Debug)]
struct SubQueue<T> {
    items: VecDeque<T>,
    weight: u32,
    /// Remaining credit while this tenant sits at the front of the ring.
    credit: u32,
    /// Whether this tenant currently occupies a ring slot.
    in_ring: bool,
}

/// Tenant names are `Arc<str>`s, made once when a tenant registers (its
/// sub-queue key) and shared by the ring and every item's tenant entry, so
/// moving items and tenants through the queue copies no string.
#[derive(Debug)]
struct FqState<T> {
    /// Tenant name -> sub-queue (fair mode; unfair mode keeps the entries
    /// only as the tenants' names and weights).
    subqueues: HashMap<Arc<str>, SubQueue<T>>,
    /// Active-tenant ring: tenants with non-empty, non-paused sub-queues,
    /// each at most once. The front tenant is served until its WRR credit
    /// runs out, then rotated to the back; a drained tenant just leaves.
    ring: VecDeque<Arc<str>>,
    /// Single shared FIFO (unfair mode).
    fifo: VecDeque<T>,
    /// Items in the sub-queues or the FIFO, kept so `len()` is O(1).
    pending: usize,
    /// Dirty/processing/latest-generation protocol (shared with the plain
    /// work queue via [`CoalesceCore`]).
    core: CoalesceCore<T>,
    /// Tenant that last enqueued each in-flight item (for re-queue on
    /// `done`).
    item_tenant: HashMap<T, Arc<str>>,
    /// Tenants whose items are retained but not dispatched (circuit-breaker
    /// support): dequeue skips them until resumed.
    paused: HashSet<String>,
    /// Tenants unregistered while their sub-queue still had backlog; the
    /// sub-queue is dropped as soon as it drains.
    defunct: HashSet<String>,
    shutdown: bool,
}

/// A multi-tenant work queue with optional weighted-fair dispatch.
///
/// # Examples
///
/// ```
/// use vc_client::fairqueue::WeightedFairQueue;
///
/// let q: WeightedFairQueue<String> = WeightedFairQueue::new(true);
/// q.add("tenant-a", "a1".to_string());
/// q.add("tenant-b", "b1".to_string());
/// q.add("tenant-a", "a2".to_string());
/// // Round-robin: a1, b1, a2 rather than a1, a2, b1.
/// assert_eq!(q.try_get().unwrap(), "a1");
/// assert_eq!(q.try_get().unwrap(), "b1");
/// assert_eq!(q.try_get().unwrap(), "a2");
/// ```
#[derive(Debug)]
pub struct WeightedFairQueue<T: Eq + Hash + Clone> {
    state: Mutex<FqState<T>>,
    cond: Condvar,
    fair: bool,
    /// Items accepted (post-dedup).
    pub adds: Counter,
    /// Items dropped by deduplication.
    pub deduped: Counter,
    /// Re-adds that only refreshed a dirty item's generation.
    pub coalesced: Counter,
    /// Items handed to workers.
    pub gets: Counter,
}

impl<T: Eq + Hash + Clone> WeightedFairQueue<T> {
    /// Creates a queue; `fair = false` degrades to a single shared FIFO.
    pub fn new(fair: bool) -> Self {
        WeightedFairQueue {
            state: Mutex::new(FqState {
                subqueues: HashMap::new(),
                ring: VecDeque::new(),
                fifo: VecDeque::new(),
                pending: 0,
                core: CoalesceCore::new(),
                item_tenant: HashMap::new(),
                paused: HashSet::new(),
                defunct: HashSet::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            fair,
            adds: Counter::new(),
            deduped: Counter::new(),
            coalesced: Counter::new(),
            gets: Counter::new(),
        }
    }

    /// Sets a tenant's weight (items served per WRR round). Registers the
    /// tenant if unknown.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn set_weight(&self, tenant: &str, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        let mut state = self.state.lock();
        Self::ensure_tenant(&mut state, tenant);
        // Explicit (re-)registration cancels a pending drop-on-drain.
        state.defunct.remove(tenant);
        let sq = state.subqueues.get_mut(tenant).expect("registered");
        sq.weight = weight;
        sq.credit = sq.credit.min(weight);
    }

    /// Pauses dispatch for `tenant`: its items stay queued (and new adds
    /// are accepted) but dequeue skips them until [`resume_tenant`] is
    /// called — the tenant leaves the active ring, so paused backlog costs
    /// dequeue nothing. Other tenants' dispatch shares are unaffected.
    /// No-op on an already-paused tenant.
    ///
    /// [`resume_tenant`]: WeightedFairQueue::resume_tenant
    pub fn pause_tenant(&self, tenant: &str) {
        let mut state = self.state.lock();
        if state.paused.insert(tenant.to_string()) {
            Self::ring_remove(&mut state, tenant);
        }
    }

    /// Resumes dispatch for a paused tenant (re-entering the ring if it has
    /// backlog), waking blocked takes.
    pub fn resume_tenant(&self, tenant: &str) {
        let mut state = self.state.lock();
        if state.paused.remove(tenant) {
            Self::ring_insert(&mut state, tenant);
            self.cond.notify_all();
        }
    }

    /// Returns `true` while `tenant` is paused.
    pub fn is_paused(&self, tenant: &str) -> bool {
        self.state.lock().paused.contains(tenant)
    }

    /// Removes an idle tenant's sub-queue; returns `false` if it still has
    /// pending items — in that case the tenant is marked defunct and its
    /// sub-queue (plus its metrics slot) is dropped automatically once the
    /// backlog drains.
    pub fn remove_tenant(&self, tenant: &str) -> bool {
        let mut state = self.state.lock();
        if state.paused.remove(tenant) {
            // Leftover items become dispatchable again (their reconciles
            // no-op once the tenant is gone); wake any blocked workers.
            Self::ring_insert(&mut state, tenant);
            self.cond.notify_all();
        }
        match state.subqueues.get(tenant) {
            None => true,
            Some(sq) if !sq.items.is_empty() => {
                state.defunct.insert(tenant.to_string());
                false
            }
            Some(_) => {
                Self::drop_tenant(&mut state, tenant);
                true
            }
        }
    }

    /// Adds `item` on behalf of `tenant`, applying dedup semantics.
    pub fn add(&self, tenant: &str, item: T) {
        let mut state = self.state.lock();
        self.add_locked(&mut state, tenant, item, None);
    }

    /// Adds `item` tagged with a `generation` (typically the triggering
    /// object's resource version). A re-add while the item is dirty
    /// *coalesces*: only the newest generation is kept, and the eventual
    /// [`WeightedFairQueue::get_batch`] delivery carries exactly that one.
    pub fn add_coalescing(&self, tenant: &str, item: T, generation: u64) {
        let mut state = self.state.lock();
        self.add_locked(&mut state, tenant, item, Some(generation));
    }

    fn add_locked(&self, state: &mut FqState<T>, tenant: &str, item: T, generation: Option<u64>) {
        if state.shutdown {
            return;
        }
        match state.core.offer(&item, generation) {
            Offer::Coalesced => self.coalesced.inc(),
            Offer::Deduped => self.deduped.inc(),
            Offer::Deferred => {
                // Re-queued on done().
                let tenant = Self::ensure_tenant(state, tenant);
                state.item_tenant.insert(item, tenant);
                self.adds.inc();
            }
            Offer::Enqueue => {
                let tenant = Self::ensure_tenant(state, tenant);
                state.item_tenant.insert(item.clone(), Arc::clone(&tenant));
                self.adds.inc();
                self.enqueue(state, &tenant, item);
                self.cond.notify_one();
            }
        }
    }

    /// Takes the next item per the dispatch policy without blocking.
    pub fn try_get(&self) -> Option<T> {
        let mut state = self.state.lock();
        self.dequeue(&mut state).map(|(item, _gen)| item)
    }

    /// Blocks for work, then drains up to `max` items under a single lock
    /// acquisition, each paired with the latest generation recorded for it
    /// (0 for plain `add`s). In fair mode the batch stays within the front
    /// tenant's current WRR round — all items belong to one tenant and the
    /// batch never takes more than the tenant's remaining credit, so
    /// batching cannot distort the fair shares. Returns an empty vec once
    /// the queue is shut down and drained. Every returned item is marked
    /// processing and must be [`WeightedFairQueue::done`] individually.
    pub fn get_batch(&self, max: usize) -> Vec<(T, u64)> {
        let mut batch = Vec::new();
        self.pop_batch(max, |item, generation| batch.push((item, generation)));
        batch
    }

    /// Blocks for work, then pops up to `max` items of one WRR round under
    /// one lock acquisition, handing each to `push` with its generation.
    /// Returns `false` once the queue is shut down and drained.
    fn pop_batch(&self, max: usize, push: impl FnMut(T, u64)) -> bool {
        let mut state = self.state.lock();
        loop {
            if let Some(first) = self.dequeue(&mut state) {
                self.fill_batch(&mut state, first, max, push);
                return true;
            }
            if state.shutdown {
                return false;
            }
            self.cond.wait(&mut state);
        }
    }

    /// Hands `first` and up to `max - 1` more items to `push` under the
    /// held lock, staying within the front tenant's WRR round in fair mode.
    fn fill_batch(
        &self,
        state: &mut FqState<T>,
        (item, generation): (T, u64),
        max: usize,
        mut push: impl FnMut(T, u64),
    ) {
        let batch_tenant = state.item_tenant.get(&item).cloned();
        push(item, generation);
        for _ in 1..max {
            if self.fair {
                // Stop when the next serve would switch tenants
                // (the front tenant rotated away or drained).
                match (state.ring.front(), &batch_tenant) {
                    (Some(front), Some(tenant)) if front == tenant => {}
                    _ => break,
                }
            }
            match self.dequeue(state) {
                Some((item, generation)) => push(item, generation),
                None => break,
            }
        }
    }

    /// Marks processing finished, re-queueing the item if it was re-added.
    pub fn done(&self, item: &T) {
        let mut state = self.state.lock();
        if state.core.finish(item) {
            let tenant = state.item_tenant.get(item).cloned().unwrap_or_else(|| "unknown".into());
            self.enqueue(&mut state, &tenant, item.clone());
            self.cond.notify_one();
        } else {
            state.item_tenant.remove(item);
        }
    }

    /// Total pending items across sub-queues.
    pub fn len(&self) -> usize {
        self.state.lock().pending
    }

    /// Returns `true` if no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items currently being processed.
    pub fn processing_count(&self) -> usize {
        self.state.lock().core.processing_len()
    }

    /// Pending items for one tenant (0 in unfair mode).
    pub fn tenant_len(&self, tenant: &str) -> usize {
        self.state.lock().subqueues.get(tenant).map_or(0, |s| s.items.len())
    }

    /// Number of registered tenant sub-queues.
    pub fn tenant_count(&self) -> usize {
        self.state.lock().subqueues.len()
    }

    /// Shuts down; blocked takes drain the backlog, then return empty.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cond.notify_all();
    }

    /// Registers `tenant` if unknown; returns its shared name.
    fn ensure_tenant(state: &mut FqState<T>, tenant: &str) -> Arc<str> {
        if let Some((name, _)) = state.subqueues.get_key_value(tenant) {
            return Arc::clone(name);
        }
        let name: Arc<str> = Arc::from(tenant);
        let sq =
            SubQueue { items: VecDeque::new(), weight: DEFAULT_WEIGHT, credit: 0, in_ring: false };
        state.subqueues.insert(Arc::clone(&name), sq);
        name
    }

    /// Gives `tenant` a ring slot if it has backlog, is not paused, and is
    /// not already in the ring.
    fn ring_insert(state: &mut FqState<T>, tenant: &str) {
        if state.paused.contains(tenant) {
            return;
        }
        let Some((name, sq)) = state.subqueues.get_key_value(tenant) else { return };
        if !sq.in_ring && !sq.items.is_empty() {
            let name = Arc::clone(name);
            state.subqueues.get_mut(tenant).expect("looked up above").in_ring = true;
            state.ring.push_back(name);
        }
    }

    /// Takes `tenant`'s ring slot away (pause path).
    fn ring_remove(state: &mut FqState<T>, tenant: &str) {
        if let Some(sq) = state.subqueues.get_mut(tenant) {
            if sq.in_ring {
                sq.in_ring = false;
                sq.credit = 0;
                state.ring.retain(|t| &**t != tenant);
            }
        }
    }

    /// Drops a drained defunct tenant's sub-queue.
    fn drop_if_defunct(state: &mut FqState<T>, tenant: &str) {
        if state.defunct.contains(tenant)
            && state.subqueues.get(tenant).is_some_and(|sq| sq.items.is_empty())
        {
            Self::drop_tenant(state, tenant);
        }
    }

    fn drop_tenant(state: &mut FqState<T>, tenant: &str) {
        if let Some(sq) = state.subqueues.remove(tenant) {
            state.pending -= sq.items.len();
        }
        state.ring.retain(|t| &**t != tenant);
        state.defunct.remove(tenant);
    }

    fn enqueue(&self, state: &mut FqState<T>, tenant: &Arc<str>, item: T) {
        state.pending += 1;
        if !self.fair {
            state.fifo.push_back(item);
            return;
        }
        Self::ensure_tenant(state, tenant);
        let sq = state.subqueues.get_mut(&**tenant).expect("registered");
        sq.items.push_back(item);
        // `ring_insert`, with the name already in hand.
        if !sq.in_ring && !state.paused.contains(&**tenant) {
            sq.in_ring = true;
            state.ring.push_back(Arc::clone(tenant));
        }
    }

    fn dequeue(&self, state: &mut FqState<T>) -> Option<(T, u64)> {
        let item = if self.fair { self.dequeue_wrr(state)? } else { Self::dequeue_fifo(state)? };
        state.pending -= 1;
        let generation = state.core.take(&item);
        self.gets.inc();
        Some((item, generation))
    }

    /// FIFO dequeue (unfair mode) honoring paused tenants: the first item
    /// whose tenant is not paused is served, preserving order otherwise.
    fn dequeue_fifo(state: &mut FqState<T>) -> Option<T> {
        if state.paused.is_empty() {
            return state.fifo.pop_front();
        }
        let idx = state.fifo.iter().position(|item| {
            state.item_tenant.get(item).is_none_or(|t| !state.paused.contains(&**t))
        })?;
        state.fifo.remove(idx)
    }

    /// Deficit-style weighted round-robin over the active-tenant ring:
    /// serve up to `weight` items from the front tenant, then rotate it to
    /// the back; a drained tenant just leaves the ring. O(1) amortized —
    /// idle or paused tenants hold no ring slot, so dequeue never scans
    /// them.
    fn dequeue_wrr(&self, state: &mut FqState<T>) -> Option<T> {
        while let Some(tenant) = state.ring.front().cloned() {
            let paused = state.paused.contains(&*tenant);
            let Some(sq) = state.subqueues.get_mut(&tenant) else {
                state.ring.pop_front();
                continue;
            };
            if paused || sq.items.is_empty() {
                // Stale slot (defensive — pause/drain normally evict
                // eagerly): drop it and keep going.
                sq.in_ring = false;
                sq.credit = 0;
                state.ring.pop_front();
                Self::drop_if_defunct(state, &tenant);
                continue;
            }
            if sq.credit == 0 {
                // Fresh at the front: grant a round of credit.
                sq.credit = sq.weight;
            }
            let item = sq.items.pop_front().expect("checked non-empty");
            sq.credit -= 1;
            if sq.items.is_empty() {
                // Drained: leave the ring (and drop the sub-queue entirely
                // if the tenant was unregistered while it had backlog).
                sq.in_ring = false;
                sq.credit = 0;
                state.ring.pop_front();
                Self::drop_if_defunct(state, &tenant);
            } else if sq.credit == 0 {
                // Round exhausted: rotate to the back of the ring.
                state.ring.pop_front();
                state.ring.push_back(tenant);
            }
            return Some(item);
        }
        None
    }
}

impl<T: Eq + Hash + Clone + Send> WorkSource for WeightedFairQueue<T> {
    type Item = T;

    fn take(&self, max: usize, into: &mut Vec<T>) -> bool {
        self.pop_batch(max, |item, _generation| into.push(item))
    }

    fn done(&self, item: &T) {
        WeightedFairQueue::done(self, item);
    }

    fn shutdown(&self) {
        WeightedFairQueue::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workqueue::tests::take;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn round_robin_interleaves_tenants() {
        let q = WeightedFairQueue::new(true);
        for i in 0..3 {
            q.add("a", format!("a{i}"));
        }
        q.add("b", "b0".to_string());
        let order: Vec<String> = std::iter::from_fn(|| q.try_get()).collect();
        assert_eq!(order, vec!["a0", "b0", "a1", "a2"]);
    }

    #[test]
    fn unfair_mode_is_fifo() {
        let q = WeightedFairQueue::new(false);
        for i in 0..3 {
            q.add("greedy", format!("g{i}"));
        }
        q.add("regular", "r0".to_string());
        let order: Vec<String> = std::iter::from_fn(|| q.try_get()).collect();
        assert_eq!(order, vec!["g0", "g1", "g2", "r0"], "regular tenant starved behind burst");
    }

    #[test]
    fn weights_give_proportional_service() {
        let q = WeightedFairQueue::new(true);
        q.set_weight("big", 3);
        q.set_weight("small", 1);
        for i in 0..6 {
            q.add("big", format!("B{i}"));
        }
        for i in 0..2 {
            q.add("small", format!("S{i}"));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.try_get()).collect();
        // big gets 3 per round, small gets 1.
        assert_eq!(order, vec!["B0", "B1", "B2", "S0", "B3", "B4", "B5", "S1"]);
    }

    #[test]
    fn dedup_across_tenant_subqueues() {
        let q = WeightedFairQueue::new(true);
        q.add("a", "x");
        q.add("a", "x");
        assert_eq!(q.len(), 1);
        assert_eq!(q.deduped.get(), 1);
    }

    #[test]
    fn readd_while_processing_requeues_to_same_tenant() {
        let q = WeightedFairQueue::new(true);
        q.add("a", "x");
        let item = q.try_get().unwrap();
        q.add("a", "x");
        assert_eq!(q.len(), 0, "deferred while processing");
        q.done(&item);
        assert_eq!(q.tenant_len("a"), 1);
        assert_eq!(q.try_get(), Some("x"));
    }

    /// `len()` is a kept count: it must match the items actually queued
    /// through every path that adds or removes one.
    #[test]
    fn len_tracks_every_enqueue_and_dequeue() {
        fn check(q: &WeightedFairQueue<String>) {
            let state = q.state.lock();
            let queued = if q.fair {
                state.subqueues.values().map(|s| s.items.len()).sum()
            } else {
                state.fifo.len()
            };
            assert_eq!(state.pending, queued);
            drop(state);
            assert_eq!(q.len(), queued);
        }
        for fair in [true, false] {
            let q = WeightedFairQueue::new(fair);
            q.add("a", "a0".to_string());
            q.add("a", "a0".to_string()); // dedup
            q.add_coalescing("b", "b0".to_string(), 1);
            q.add_coalescing("b", "b0".to_string(), 2); // coalesce
            q.add("gone", "g0".to_string());
            q.add("gone", "g1".to_string());
            check(&q);
            q.pause_tenant("a");
            check(&q);
            let taken = q.try_get().unwrap();
            q.add("b", taken.clone()); // re-added while processing
            check(&q);
            q.resume_tenant("a");
            // Fair mode keeps the backlog and drops the sub-queue once
            // drained; unfair mode has no sub-queue to keep.
            assert_eq!(q.remove_tenant("gone"), !fair);
            check(&q);
            q.done(&taken); // re-queued
            check(&q);
            while let Some(item) = q.try_get() {
                q.done(&item);
                check(&q);
            }
            assert_eq!(q.len(), 0);
            if fair {
                assert_eq!(q.tenant_count(), 2, "the defunct tenant was dropped");
            }
        }
    }

    #[test]
    fn empty_tenant_skipped() {
        let q = WeightedFairQueue::new(true);
        q.add("a", "a0");
        let _ = q.try_get().unwrap();
        // a's sub-queue is now empty; b still gets served.
        q.add("b", "b0");
        assert_eq!(q.try_get(), Some("b0"));
    }

    #[test]
    fn remove_tenant_only_when_idle() {
        let q = WeightedFairQueue::new(true);
        q.add("a", "a0");
        assert!(!q.remove_tenant("a"), "non-empty sub-queue retained");
        let item = q.try_get().unwrap();
        q.done(&item);
        assert!(q.remove_tenant("a"));
        assert_eq!(q.tenant_count(), 0);
        assert!(q.remove_tenant("never-seen"));
    }

    #[test]
    fn unregistered_tenant_subqueue_dropped_on_drain() {
        let q = WeightedFairQueue::new(true);
        q.add("gone", "g0");
        q.add("gone", "g1");
        assert!(!q.remove_tenant("gone"), "backlog retained");
        assert_eq!(q.tenant_count(), 1);
        let first = q.try_get().unwrap();
        q.done(&first);
        assert_eq!(q.tenant_count(), 1, "still draining");
        let second = q.try_get().unwrap();
        q.done(&second);
        assert_eq!(q.tenant_count(), 0, "sub-queue dropped once drained");
        assert!(q.remove_tenant("gone"), "idempotent after the drop");
    }

    #[test]
    fn reregistration_cancels_drop_on_drain() {
        let q = WeightedFairQueue::new(true);
        q.add("t", "x0");
        assert!(!q.remove_tenant("t"));
        q.set_weight("t", 2); // tenant re-registered before draining
        let item = q.try_get().unwrap();
        q.done(&item);
        assert_eq!(q.tenant_count(), 1, "re-registered tenant survives the drain");
    }

    #[test]
    fn get_batch_stays_within_tenant_round() {
        let q = WeightedFairQueue::new(true);
        q.set_weight("big", 3);
        q.set_weight("small", 1);
        for i in 0..6 {
            q.add("big", format!("B{i}"));
        }
        for i in 0..2 {
            q.add("small", format!("S{i}"));
        }
        let items = |batch: Vec<(String, u64)>| -> Vec<String> {
            batch.into_iter().map(|(i, _)| i).collect()
        };
        // Batches respect the WRR schedule exactly: 3 big, 1 small, ...
        assert_eq!(items(q.get_batch(8)), vec!["B0", "B1", "B2"]);
        assert_eq!(items(q.get_batch(8)), vec!["S0"]);
        assert_eq!(items(q.get_batch(2)), vec!["B3", "B4"], "max caps the batch");
        assert_eq!(items(q.get_batch(8)), vec!["B5"]);
        assert_eq!(items(q.get_batch(8)), vec!["S1"]);
    }

    #[test]
    fn coalesced_readd_keeps_latest_generation() {
        let q = WeightedFairQueue::new(true);
        q.add_coalescing("t", "x", 4);
        q.add_coalescing("t", "x", 11);
        q.add_coalescing("t", "x", 6);
        assert_eq!(q.len(), 1);
        assert_eq!(q.coalesced.get(), 2);
        assert_eq!(q.get_batch(4), vec![("x", 11)]);
        // Re-add while processing defers, then delivers the newer gen.
        q.add_coalescing("t", "x", 12);
        assert_eq!(q.len(), 0);
        q.done(&"x");
        assert_eq!(q.get_batch(4), vec![("x", 12)]);
    }

    #[test]
    fn many_idle_tenants_do_not_slow_dequeue() {
        // The active ring only holds tenants with backlog: dequeue touches
        // the one busy tenant no matter how many idle tenants registered.
        let q = WeightedFairQueue::new(true);
        for i in 0..500 {
            q.set_weight(&format!("idle-{i}"), 1);
        }
        q.add("busy", "item");
        assert_eq!(q.try_get(), Some("item"));
        assert_eq!(q.tenant_count(), 501);
    }

    #[test]
    fn blocking_get_and_shutdown() {
        let q = Arc::new(WeightedFairQueue::new(true));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || take(&*q2, 1));
        std::thread::sleep(Duration::from_millis(20));
        q.add("t", 42);
        assert_eq!(handle.join().unwrap(), Some(vec![42]));
        q.shutdown();
        assert_eq!(take(&*q, 1), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let q: WeightedFairQueue<u32> = WeightedFairQueue::new(true);
        q.set_weight("t", 0);
    }

    #[test]
    fn paused_tenant_retains_items_others_flow() {
        let q = WeightedFairQueue::new(true);
        q.add("sick", "s0");
        q.pause_tenant("sick");
        q.add("sick", "s1");
        q.add("ok", "o0");
        assert!(q.is_paused("sick"));
        // Only the healthy tenant is served.
        assert_eq!(q.try_get(), Some("o0"));
        assert_eq!(q.try_get(), None);
        assert_eq!(q.tenant_len("sick"), 2, "paused backlog retained");
        // Resume releases the backlog in order.
        q.resume_tenant("sick");
        assert!(!q.is_paused("sick"));
        assert_eq!(q.try_get(), Some("s0"));
        assert_eq!(q.try_get(), Some("s1"));
    }

    #[test]
    fn resume_wakes_blocked_getter() {
        let q = Arc::new(WeightedFairQueue::new(true));
        q.add("sick", "s0");
        q.pause_tenant("sick");
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || take(&*q2, 1));
        std::thread::sleep(Duration::from_millis(20));
        q.resume_tenant("sick");
        assert_eq!(handle.join().unwrap(), Some(vec!["s0"]));
    }

    #[test]
    fn fifo_mode_honors_pause() {
        let q = WeightedFairQueue::new(false);
        q.add("sick", "s0");
        q.add("ok", "o0");
        q.pause_tenant("sick");
        assert_eq!(q.try_get(), Some("o0"), "paused item skipped in FIFO order");
        assert_eq!(q.try_get(), None);
        q.resume_tenant("sick");
        assert_eq!(q.try_get(), Some("s0"));
    }

    #[test]
    fn burst_tenant_does_not_starve_regular() {
        // Miniature Fig 11: one greedy tenant floods 100 items, one regular
        // tenant adds 5. Under fair dispatch the regular tenant's items all
        // appear within the first 10 dequeues.
        let q = WeightedFairQueue::new(true);
        for i in 0..100 {
            q.add("greedy", format!("g{i}"));
        }
        for i in 0..5 {
            q.add("regular", format!("r{i}"));
        }
        let first_ten: Vec<String> = (0..10).filter_map(|_| q.try_get()).collect();
        let regular_served = first_ten.iter().filter(|s| s.starts_with('r')).count();
        assert_eq!(regular_served, 5, "{first_ten:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Everything enqueued is dequeued exactly once (after dedup), for
        /// both fair and unfair modes.
        #[test]
        fn prop_all_items_delivered_once(
            adds in proptest::collection::vec((0u8..5, 0u16..50), 1..200),
            fair in proptest::bool::ANY,
        ) {
            let q = WeightedFairQueue::new(fair);
            let mut expected = std::collections::HashSet::new();
            for (tenant, item) in &adds {
                q.add(&format!("t{tenant}"), *item);
                expected.insert(*item);
            }
            let mut got = std::collections::HashSet::new();
            while let Some(item) = q.try_get() {
                prop_assert!(got.insert(item), "duplicate delivery of {item}");
                q.done(&item);
            }
            prop_assert_eq!(got, expected);
        }

        /// Fairness bound: with equal weights, after any prefix of dequeues
        /// the per-tenant service counts differ by at most 1 whenever both
        /// tenants still have backlog.
        #[test]
        fn prop_equal_weight_service_within_one(
            a_items in 1usize..40,
            b_items in 1usize..40,
        ) {
            let q = WeightedFairQueue::new(true);
            for i in 0..a_items {
                q.add("a", format!("a{i}"));
            }
            for i in 0..b_items {
                q.add("b", format!("b{i}"));
            }
            let (mut served_a, mut served_b) = (0usize, 0usize);
            while let Some(item) = q.try_get() {
                if item.starts_with('a') { served_a += 1 } else { served_b += 1 }
                let a_left = a_items - served_a;
                let b_left = b_items - served_b;
                if a_left > 0 && b_left > 0 {
                    prop_assert!(served_a.abs_diff(served_b) <= 1,
                        "served_a={served_a} served_b={served_b}");
                }
                q.done(&item);
            }
        }
    }
}
