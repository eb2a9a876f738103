//! Shared controller plumbing: the informer set a cluster's components
//! share, the handle that owns a controller's workers and timers, and the
//! retry helper.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::ResourceKind;
use vc_api::time::Clock;
use vc_client::reflector::Timer;
use vc_client::{Client, InformerConfig, SharedInformer, WorkSource};

/// How long [`Informers::get`] waits for a new informer's first list.
const SYNC_TIMEOUT: Duration = Duration::from_secs(10);

/// One [`SharedInformer`] per kind over one client: the list/watch caches a
/// cluster's controllers, scheduler and kubelets share, as client-go's
/// `SharedInformerFactory` serves a controller-manager. Each extra informer
/// on a kind would cost the apiserver another list and watch (paper
/// §III-C).
///
/// A consumer takes an informer with [`Informers::get`] and registers its
/// handlers on it; a handler added after the first consumer's gets the
/// cache replayed (`SharedInformer::add_handler`). The owner stops the set.
pub struct Informers {
    client: Client,
    by_kind: Mutex<HashMap<ResourceKind, Arc<SharedInformer>>>,
}

impl Informers {
    /// An empty set whose informers will list and watch through `client`.
    pub fn new(client: Client) -> Self {
        Informers { client, by_kind: Mutex::default() }
    }

    /// The informer for `kind`, created and started on the first call.
    /// Returns once its first list has been applied, or after 10 s of
    /// trying, so a controller that starts its workers after its `get`s
    /// starts them on synced caches.
    pub fn get(&self, kind: ResourceKind) -> Arc<SharedInformer> {
        let informer = Arc::clone(self.by_kind.lock().entry(kind).or_insert_with(|| {
            SharedInformer::start(SharedInformer::new(
                self.client.clone(),
                InformerConfig::new(kind),
            ))
        }));
        informer.wait_for_sync(SYNC_TIMEOUT);
        informer
    }

    /// Waits until every informer in the set has synced (with `timeout`).
    pub fn wait_for_sync(&self, timeout: Duration) -> bool {
        let informers: Vec<_> = self.by_kind.lock().values().cloned().collect();
        informers.iter().all(|informer| informer.wait_for_sync(timeout))
    }

    /// Stops every informer in the set. Idempotent.
    pub fn stop(&self) {
        for informer in self.by_kind.lock().values() {
            informer.stop();
        }
    }
}

/// Owns a controller's worker threads and timers; stopping joins
/// everything.
pub struct ControllerHandle {
    name: String,
    /// Set by [`ControllerHandle::stop`]: workers then finish what they
    /// take without reconciling it.
    stopped: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    timers: Vec<Arc<Timer>>,
    /// Run first by `stop`: shut down the queues the workers drain,
    /// releasing blocked takes, and whatever [`ControllerHandle::on_stop`]
    /// registered.
    shutdowns: Vec<Box<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for ControllerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerHandle")
            .field("name", &self.name)
            .field("threads", &self.threads.len())
            .field("timers", &self.timers.len())
            .finish()
    }
}

impl ControllerHandle {
    /// Creates an empty handle.
    pub fn new(name: impl Into<String>) -> Self {
        ControllerHandle {
            name: name.into(),
            stopped: Arc::new(AtomicBool::new(false)),
            threads: Vec::new(),
            timers: Vec::new(),
            shutdowns: Vec::new(),
        }
    }

    /// Controller name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Drains `queue` on `count.max(1)` threads named `{name}-{i}`: the one
    /// way a controller runs its queue. Each thread takes up to `batch`
    /// items at a time into one reused buffer, calls `reconcile` on each,
    /// then marks it done. The threads share `reconcile`. Once
    /// [`ControllerHandle::stop`] has run, a worker marks what it takes
    /// done without reconciling it; `stop` shuts `queue` down and joins
    /// the threads.
    pub fn workers<Q: WorkSource + 'static>(
        &mut self,
        name: &str,
        count: usize,
        batch: usize,
        queue: &Arc<Q>,
        reconcile: impl Fn(&Q::Item) + Send + Sync + 'static,
    ) {
        let reconcile = Arc::new(reconcile);
        for i in 0..count.max(1) {
            let queue = Arc::clone(queue);
            let reconcile = Arc::clone(&reconcile);
            let stopped = Arc::clone(&self.stopped);
            let thread = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || {
                    let mut items = Vec::with_capacity(batch.max(1));
                    while queue.take(batch, &mut items) {
                        for item in items.drain(..) {
                            if !stopped.load(Ordering::SeqCst) {
                                reconcile(&item);
                            }
                            queue.done(&item);
                        }
                    }
                })
                .expect("spawn worker thread");
            self.threads.push(thread);
        }
        let queue = Arc::clone(queue);
        self.on_stop(move || queue.shutdown());
    }

    /// Runs `stop` when the handle stops, before its timers stop and its
    /// threads are joined: how a component ties what else it owns (its
    /// informers) to its handle.
    pub fn on_stop(&mut self, stop: impl Fn() + Send + Sync + 'static) {
        self.shutdowns.push(Box::new(stop));
    }

    /// Runs `body` every `interval` on `clock`, the first time one interval
    /// from now: periodic work as a [`Timer`] on the reflector pool, whose
    /// helper thread runs the body, rather than a thread of its own.
    /// Stopping the handle stops it and waits out a run in flight.
    pub fn every(
        &mut self,
        clock: &Arc<dyn Clock>,
        interval: Duration,
        body: impl FnMut() + Send + 'static,
    ) {
        self.timers.push(Timer::every(Arc::clone(clock), interval, body));
    }

    /// Stops everything: workers stop reconciling, their queues shut down
    /// and the [`ControllerHandle::on_stop`] hooks run, then timers stop
    /// and the worker threads are joined. Idempotent.
    pub fn stop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
        for shutdown in &self.shutdowns {
            shutdown();
        }
        for timer in self.timers.drain(..) {
            timer.stop();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Retries `f` on [`ApiError::Conflict`] up to `attempts` times; other
/// errors and exhaustion propagate.
///
/// # Errors
///
/// The final error after exhausting retries, or the first non-conflict
/// error.
pub fn retry_on_conflict<T>(attempts: usize, mut f: impl FnMut() -> ApiResult<T>) -> ApiResult<T> {
    let mut last = None;
    for _ in 0..attempts.max(1) {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_conflict() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| ApiError::internal("retry_on_conflict: no attempts")))
}

/// Polls `check` every `interval` until it returns `true` or `timeout`
/// elapses; returns the final check result. Test/example helper.
pub fn wait_until(
    timeout: std::time::Duration,
    interval: std::time::Duration,
    mut check: impl FnMut() -> bool,
) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if check() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return check();
        }
        std::thread::sleep(interval);
    }
}

/// Asserts that `counter` settles on exactly `expected`. Controllers bump
/// their counters *after* the write returns whose effect a test watches
/// through the apiserver, so a counter read right after polling the object
/// races the bump; this waits for it and only then compares. Test helper.
#[track_caller]
pub fn assert_count_reaches(counter: &vc_api::metrics::Counter, expected: u64) {
    use std::time::Duration;
    wait_until(Duration::from_secs(5), Duration::from_millis(1), || counter.get() >= expected);
    assert_eq!(counter.get(), expected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Barrier;
    use vc_client::WorkQueue;

    #[test]
    fn handle_joins_threads_and_runs_callbacks() {
        let mut handle = ControllerHandle::new("test");
        let queue: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new());
        handle.workers("test-worker", 1, 1, &queue, |_| {});
        let clock = vc_api::time::SimClock::new();
        let ticks = Arc::new(vc_api::metrics::Counter::new());
        let counted = Arc::clone(&ticks);
        let sim: Arc<dyn Clock> = clock.clone();
        handle.every(&sim, Duration::from_secs(1), move || counted.inc());
        handle.stop();
        assert!(queue.is_shutting_down(), "stop shuts the workers' queue down");
        clock.advance(Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ticks.get(), 0, "a stopped handle's timers never run");
        // Idempotent.
        handle.stop();
    }

    #[test]
    fn workers_reconcile_each_item_once_and_stop_joins_them() {
        let mut handle = ControllerHandle::new("test");
        let queue: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        {
            let (seen, entered, release) =
                (Arc::clone(&seen), Arc::clone(&entered), Arc::clone(&release));
            let held = AtomicBool::new(false);
            handle.workers("test-worker", 3, 1, &queue, move |item: &u32| {
                seen.lock().push(*item);
                if *item == 0 && !held.swap(true, Ordering::SeqCst) {
                    // Hold one worker inside a reconcile across stop().
                    entered.wait();
                    release.wait();
                }
            });
        }
        for item in 0..100 {
            queue.add(item);
        }
        entered.wait();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(1), || {
            seen.lock().len() == 100 && queue.processing_count() == 1
        }));

        // Item 0 is processing, so this add is deferred: done(0) re-queues
        // it after stop(), and the worker that takes it must not reconcile.
        queue.add(0);
        let stopper = std::thread::spawn(move || {
            handle.stop();
            handle
        });
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(1), || {
            queue.is_shutting_down()
        }));
        release.wait();
        drop(stopper.join().unwrap());

        // The workers' threads own the reconcile closure and its captures.
        assert_eq!(Arc::strong_count(&seen), 1, "stop() returned with every worker joined");
        assert!(queue.is_empty() && queue.processing_count() == 0, "taken after stop, then done");
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>(), "each item reconciled exactly once");
    }

    #[test]
    fn retry_on_conflict_retries_then_succeeds() {
        let mut calls = 0;
        let result = retry_on_conflict(5, || {
            calls += 1;
            if calls < 3 {
                Err(ApiError::conflict("Pod", "ns/p", "stale"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
    }

    #[test]
    fn retry_on_conflict_propagates_other_errors() {
        let result: ApiResult<()> =
            retry_on_conflict(5, || Err(ApiError::not_found("Pod", "ns/p")));
        assert!(result.unwrap_err().is_not_found());
    }

    #[test]
    fn retry_on_conflict_exhausts() {
        let result: ApiResult<()> =
            retry_on_conflict(2, || Err(ApiError::conflict("Pod", "ns/p", "stale")));
        assert!(result.unwrap_err().is_conflict());
    }

    #[test]
    fn wait_until_polls() {
        let mut n = 0;
        assert!(wait_until(
            std::time::Duration::from_secs(1),
            std::time::Duration::from_millis(1),
            || {
                n += 1;
                n >= 3
            }
        ));
        assert!(!wait_until(
            std::time::Duration::from_millis(20),
            std::time::Duration::from_millis(5),
            || false
        ));
    }
}
