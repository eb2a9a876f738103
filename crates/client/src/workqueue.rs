//! FIFO work queue with client-go's exact deduplication semantics.
//!
//! The dirty/processing-set protocol matters for the paper's analysis: "the
//! client-go worker queue has the capability of deduplicating the incoming
//! requests, \[so\] the memory consumptions of the worker queues are unlikely
//! to grow infinitely" (§III-C). Concretely:
//!
//! * an item `add`ed while already pending (dirty) is dropped,
//! * an item `add`ed while being processed is remembered and re-queued when
//!   its processing finishes (`done`),
//! * taking an item marks it processing and removes it from dirty.
//!
//! On top of the dedup protocol the queue supports **event coalescing**:
//! [`WorkQueue::add_coalescing`] tags an item with a generation (the
//! triggering object's resource version), and a re-add while the item is
//! dirty records only the newest generation — the eventual delivery carries
//! exactly the latest one. [`WorkQueue::get_batch`] drains up to `n` items
//! per wakeup, amortizing lock and condvar traffic under bursty load.
//!
//! [`WorkQueue::add_after`] delivers an item after a delay on the queue's
//! clock; [`BackoffPolicy`] is client-go's per-item exponential backoff
//! schedule for the delays of retried items.

use crate::coalesce::{CoalesceCore, Offer};
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;
use vc_api::metrics::Counter;
use vc_api::time::{waker_fn, Clock, RealClock};
use vc_sync::{Condvar, Mutex};

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    /// Dirty/processing/latest-generation protocol (shared with the fair
    /// queue via [`CoalesceCore`]).
    core: CoalesceCore<T>,
    shutting_down: bool,
}

/// A deduplicating FIFO work queue.
///
/// # Examples
///
/// ```
/// use vc_client::workqueue::{WorkQueue, WorkSource};
///
/// let q: WorkQueue<String> = WorkQueue::new();
/// q.add("a".to_string());
/// q.add("a".to_string()); // deduplicated
/// assert_eq!(q.len(), 1);
/// let mut items = Vec::new();
/// assert!(q.take(8, &mut items)); // blocks until there is work
/// assert_eq!(items, ["a"]);
/// q.done(&items[0]);
/// ```
#[derive(Debug)]
pub struct WorkQueue<T: Eq + Hash + Clone> {
    state: Mutex<State<T>>,
    cond: Condvar,
    /// Time source for [`WorkQueue::add_after`] delays; a virtual clock
    /// makes delayed deliveries deterministic in tests.
    clock: Arc<dyn Clock>,
    /// Items accepted (post-dedup).
    pub adds: Counter,
    /// Items dropped by deduplication.
    pub deduped: Counter,
    /// Re-adds that only refreshed a dirty item's generation.
    pub coalesced: Counter,
    /// Items handed to workers.
    pub gets: Counter,
}

impl<T: Eq + Hash + Clone> Default for WorkQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq + Hash + Clone> WorkQueue<T> {
    /// Creates an empty queue on the wall clock.
    pub fn new() -> Self {
        Self::with_clock(RealClock::shared())
    }

    /// Creates an empty queue whose delays run on `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        WorkQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                core: CoalesceCore::new(),
                shutting_down: false,
            }),
            cond: Condvar::new(),
            clock,
            adds: Counter::new(),
            deduped: Counter::new(),
            coalesced: Counter::new(),
            gets: Counter::new(),
        }
    }

    /// Adds an item, applying dedup semantics.
    pub fn add(&self, item: T) {
        let mut state = self.state.lock();
        if state.shutting_down {
            return;
        }
        match state.core.offer(&item, None) {
            Offer::Deduped | Offer::Coalesced => self.deduped.inc(),
            Offer::Deferred => self.adds.inc(), // re-queued by done()
            Offer::Enqueue => {
                self.adds.inc();
                state.queue.push_back(item);
                self.cond.notify_one();
            }
        }
    }

    /// Adds an item tagged with a `generation` (typically the triggering
    /// object's resource version). Dedup semantics match [`WorkQueue::add`],
    /// except that a re-add while the item is dirty *coalesces*: the stored
    /// generation is raised to the max of the two, so the eventual delivery
    /// (via [`WorkQueue::get_batch`]) carries exactly the latest generation
    /// observed.
    pub fn add_coalescing(&self, item: T, generation: u64) {
        let mut state = self.state.lock();
        if state.shutting_down {
            return;
        }
        match state.core.offer(&item, Some(generation)) {
            Offer::Deduped | Offer::Coalesced => self.coalesced.inc(),
            Offer::Deferred => self.adds.inc(), // re-queued by done()
            Offer::Enqueue => {
                self.adds.inc();
                state.queue.push_back(item);
                self.cond.notify_one();
            }
        }
    }

    /// Adds `item` once `delay` has passed on the queue's clock (at once
    /// when zero). The pending timer holds the queue weakly: a queue
    /// dropped meanwhile drops the item.
    pub fn add_after(self: &Arc<Self>, item: T, delay: Duration)
    where
        T: Send + 'static,
    {
        if delay.is_zero() {
            return self.add(item);
        }
        let queue = Arc::downgrade(self);
        let item = Mutex::new(Some(item));
        let deliver = waker_fn(move || {
            if let (Some(queue), Some(item)) = (queue.upgrade(), item.lock().take()) {
                queue.add(item);
            }
        });
        self.clock.wake_at(self.clock.now().add(delay), deliver);
    }

    /// Takes the next item without blocking.
    pub fn try_get(&self) -> Option<T> {
        let mut state = self.state.lock();
        let item = Self::pop_locked(&mut state)?;
        self.gets.inc();
        Some(item.0)
    }

    /// Blocks for work, then drains up to `max` pending items under a
    /// single lock acquisition, returning each with the latest generation
    /// recorded for it (0 for plain `add`s). Returns an empty vec once the
    /// queue is shut down and drained. Every returned item is marked
    /// processing and must be [`WorkQueue::done`] individually.
    pub fn get_batch(&self, max: usize) -> Vec<(T, u64)> {
        let mut batch = Vec::new();
        self.pop_batch(max, |item, generation| batch.push((item, generation)));
        batch
    }

    /// Blocks for work, then pops up to `max` pending items under one lock
    /// acquisition, handing each to `push` with its generation. Returns
    /// `false` once the queue is shut down and drained.
    fn pop_batch(&self, max: usize, mut push: impl FnMut(T, u64)) -> bool {
        let mut state = self.state.lock();
        loop {
            if !state.queue.is_empty() {
                for _ in 0..max.max(1).min(state.queue.len()) {
                    let (item, generation) = Self::pop_locked(&mut state).expect("queue non-empty");
                    self.gets.inc();
                    push(item, generation);
                }
                return true;
            }
            if state.shutting_down {
                return false;
            }
            self.cond.wait(&mut state);
        }
    }

    /// Pops the front item, moving it dirty → processing and taking its
    /// recorded generation. Caller holds the lock.
    fn pop_locked(state: &mut State<T>) -> Option<(T, u64)> {
        let item = state.queue.pop_front()?;
        let generation = state.core.take(&item);
        Some((item, generation))
    }

    /// Marks an item's processing finished, re-queueing it if it was
    /// re-added meanwhile.
    pub fn done(&self, item: &T) {
        let mut state = self.state.lock();
        if state.core.finish(item) {
            state.queue.push_back(item.clone());
            self.cond.notify_one();
        }
    }

    /// Number of pending (queued, not processing) items.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Returns `true` if no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items currently being processed.
    pub fn processing_count(&self) -> usize {
        self.state.lock().core.processing_len()
    }

    /// Shuts the queue down; blocked takes drain the backlog, then return
    /// empty, and further `add`s are ignored.
    pub fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutting_down = true;
        self.cond.notify_all();
    }

    /// Returns `true` once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.lock().shutting_down
    }
}

/// A queue that workers drain: it hands out items in batches and is told
/// when each one is finished. [`WorkQueue`] and
/// [`WeightedFairQueue`](crate::WeightedFairQueue) implement it with the
/// pop code of their `get_batch`.
pub trait WorkSource: Send + Sync {
    /// What the queue hands out.
    type Item;

    /// Blocks for work, then moves up to `max` items into `into`, each
    /// marked processing until [`WorkSource::done`]. Returns `false` once
    /// the queue is shut down and drained.
    fn take(&self, max: usize, into: &mut Vec<Self::Item>) -> bool;

    /// Marks an item's processing finished.
    fn done(&self, item: &Self::Item);

    /// Shuts the queue down: takes drain the backlog, then return `false`.
    fn shutdown(&self);
}

impl<T: Eq + Hash + Clone + Send> WorkSource for WorkQueue<T> {
    type Item = T;

    fn take(&self, max: usize, into: &mut Vec<T>) -> bool {
        self.pop_batch(max, |item, _generation| into.push(item))
    }

    fn done(&self, item: &T) {
        WorkQueue::done(self, item);
    }

    fn shutdown(&self) {
        WorkQueue::shutdown(self);
    }
}

/// Per-item exponential backoff policy.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: Duration,
    /// Cap on the delay.
    pub max: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        // client-go defaults: 5ms base, 1000s cap (we cap at 30s to keep
        // simulations snappy).
        BackoffPolicy { base: Duration::from_millis(5), max: Duration::from_secs(30) }
    }
}

impl BackoffPolicy {
    /// Returns the delay for the `failures`-th consecutive failure
    /// (0-based).
    pub fn delay(&self, failures: u32) -> Duration {
        let exp = self.base.as_nanos().saturating_mul(1u128 << failures.min(40));
        Duration::from_nanos(exp.min(self.max.as_nanos()) as u64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = WorkQueue::new();
        q.add(1);
        q.add(2);
        q.add(3);
        assert_eq!(q.try_get(), Some(1));
        assert_eq!(q.try_get(), Some(2));
        assert_eq!(q.try_get(), Some(3));
    }

    #[test]
    fn dedup_while_pending() {
        let q = WorkQueue::new();
        q.add("x");
        q.add("x");
        q.add("x");
        assert_eq!(q.len(), 1);
        assert_eq!(q.deduped.get(), 2);
    }

    #[test]
    fn readd_while_processing_requeues_on_done() {
        let q = WorkQueue::new();
        q.add("x");
        let item = q.try_get().unwrap();
        assert_eq!(q.len(), 0);
        // Re-added while processing: not queued yet.
        q.add("x");
        assert_eq!(q.len(), 0, "deferred until done()");
        q.done(&item);
        assert_eq!(q.len(), 1, "requeued after done");
        let again = q.try_get().unwrap();
        q.done(&again);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn done_without_readd_leaves_queue_empty() {
        let q = WorkQueue::new();
        q.add(7);
        let item = q.try_get().unwrap();
        q.done(&item);
        assert!(q.is_empty());
        assert_eq!(q.processing_count(), 0);
    }

    #[test]
    fn coalesced_readd_keeps_latest_generation() {
        let q = WorkQueue::new();
        q.add_coalescing("x", 3);
        q.add_coalescing("x", 9);
        q.add_coalescing("x", 7); // stale: does not lower the recorded gen
        assert_eq!(q.len(), 1);
        assert_eq!(q.coalesced.get(), 2);
        let batch = q.get_batch(10);
        assert_eq!(batch, vec![("x", 9)]);
    }

    #[test]
    fn readd_while_processing_carries_new_generation() {
        let q = WorkQueue::new();
        q.add_coalescing("x", 1);
        let batch = q.get_batch(1);
        assert_eq!(batch, vec![("x", 1)]);
        q.add_coalescing("x", 2);
        assert_eq!(q.len(), 0, "deferred until done()");
        q.done(&"x");
        assert_eq!(q.get_batch(1), vec![("x", 2)]);
    }

    #[test]
    fn get_batch_drains_up_to_max() {
        let q = WorkQueue::new();
        for i in 0..5 {
            q.add(i);
        }
        let first = q.get_batch(3);
        assert_eq!(first.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
        let rest = q.get_batch(10);
        assert_eq!(rest.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![3, 4]);
        for (i, _) in first.iter().chain(rest.iter()) {
            q.done(i);
        }
        assert!(q.is_empty());
        assert_eq!(q.processing_count(), 0);
    }

    #[test]
    fn get_batch_returns_empty_on_shutdown() {
        let q: WorkQueue<u32> = WorkQueue::new();
        q.shutdown();
        assert!(q.get_batch(4).is_empty());
    }

    /// Takes up to `max` items the way a worker does, blocking until there
    /// are some; `None` once the queue is shut down and drained.
    pub(crate) fn take<Q: WorkSource>(q: &Q, max: usize) -> Option<Vec<Q::Item>> {
        let mut items = Vec::new();
        q.take(max, &mut items).then_some(items)
    }

    #[test]
    fn shutdown_drains_then_none() {
        let q = Arc::new(WorkQueue::new());
        q.add(1);
        q.shutdown();
        q.add(2); // ignored
        assert_eq!(take(&*q, 8), Some(vec![1]));
        assert_eq!(take(&*q, 8), None);
        assert!(q.is_shutting_down());
    }

    #[test]
    fn add_after_delivers_in_deadline_order_never_early() {
        use vc_api::time::SimClock;
        let clock = SimClock::new();
        let q = Arc::new(WorkQueue::with_clock(Arc::clone(&clock) as Arc<dyn Clock>));
        q.add_after("now", Duration::ZERO);
        q.add_after("late", Duration::from_secs(3600));
        q.add_after("early", Duration::from_secs(60));
        assert_eq!(q.try_get(), Some("now"));
        clock.advance(Duration::from_secs(59));
        assert_eq!(q.try_get(), None, "not due yet");
        // One virtual hour passes instantly and delivers, on this thread.
        clock.advance(Duration::from_secs(3600));
        assert_eq!(q.try_get(), Some("early"));
        assert_eq!(q.try_get(), Some("late"));
    }

    #[test]
    fn backoff_policy_doubles_and_caps() {
        let p = BackoffPolicy { base: Duration::from_millis(10), max: Duration::from_millis(50) };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(50), "capped");
        assert_eq!(p.delay(30), Duration::from_millis(50), "no overflow");
    }

    #[test]
    fn blocking_get_wakes_on_add() {
        let q = Arc::new(WorkQueue::new());
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || take(&*q2, 1));
        std::thread::sleep(Duration::from_millis(20));
        q.add(42);
        assert_eq!(handle.join().unwrap(), Some(vec![42]));
    }

    #[test]
    fn concurrent_producers_consumers_process_everything() {
        use std::collections::HashSet;
        let q = Arc::new(WorkQueue::new());
        let processed = Arc::new(Mutex::new(HashSet::new()));
        let mut workers = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let processed = Arc::clone(&processed);
            workers.push(std::thread::spawn(move || {
                while let Some(items) = take(&*q, 4) {
                    for item in items {
                        processed.lock().insert(item);
                        q.done(&item);
                    }
                }
            }));
        }
        let mut producers = Vec::new();
        for t in 0..4 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..250 {
                    q.add(t * 1000 + i);
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        // Wait for drain, then stop workers.
        while !q.is_empty() || q.processing_count() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        q.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(processed.lock().len(), 1000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        /// Under any interleaving of adds, every added item is eventually
        /// delivered at least once, and never delivered while a previous
        /// delivery of it is still being processed.
        #[test]
        fn prop_no_concurrent_processing_of_same_item(items in proptest::collection::vec(0u8..10, 1..100)) {
            let q = WorkQueue::new();
            for &i in &items {
                q.add(i);
            }
            let mut in_flight = HashSet::new();
            let mut delivered = HashSet::new();
            while let Some(item) = q.try_get() {
                prop_assert!(!in_flight.contains(&item), "item processed twice concurrently");
                in_flight.insert(item);
                delivered.insert(item);
                // Finish processing immediately.
                q.done(&item);
                in_flight.remove(&item);
            }
            let unique: HashSet<u8> = items.iter().copied().collect();
            prop_assert_eq!(delivered, unique);
        }
    }
}
