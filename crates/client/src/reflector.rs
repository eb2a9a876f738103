//! The reflector pool: a few threads that run every informer and timer in
//! the process and sleep when there is nothing to do.
//!
//! A [`Task`] (a [`crate::SharedInformer`] or a [`Timer`]) registers with one
//! [`Worker`] — one pool thread — and stays **pinned** to it, so its turns
//! never overlap and its events keep their order. A turn is requested with
//! [`Registration::wake`]; a watch does that through [`std::task::Waker`]
//! whenever it delivers an event or closes, and so does a
//! [`Clock::wake_at`] timer when its deadline passes. The wake protocol is
//! one flag:
//!
//! * `wake` sets `scheduled` and, **only on the false → true edge**, pushes
//!   the registration onto its worker's ready queue and notifies the
//!   worker — any number of events between two turns cost one push;
//! * the worker pops a registration, **clears `scheduled` first**, then
//!   runs the turn. An event that lands after the turn found its stream
//!   empty therefore sees `scheduled == false` and queues a fresh turn; one
//!   that lands earlier is drained by the turn in progress. No interleaving
//!   loses a wake-up (`tests/loom_reflector.rs` and `tests/loom_timer.rs`
//!   check them all).
//!
//! A turn is bounded by the task ([`Progress::more`] asks for another one
//! at the **tail** of the queue), so a flooding informer takes turns with
//! its neighbours instead of starving them. A worker with nothing ready
//! blocks on its condvar indefinitely; deadlines are the clock's business.
//!
//! A turn must not block. Work that calls an apiserver goes to the pool's
//! one lazily started helper thread through [`Registration::offload`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{OnceLock, Weak};
use std::task::Waker;
use std::time::Duration;
use vc_api::metrics::{Counter, Gauge};
use vc_api::time::{Clock, Timestamp};
use vc_obs::MetricsRegistry;
use vc_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use vc_sync::{Arc, Condvar, Mutex};

/// What one turn did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Events handled in this turn (feeds `client_reflector_events_total`).
    pub events: u64,
    /// The task stopped at its bound with work left: queue another turn
    /// behind the tasks already waiting.
    pub more: bool,
}

/// Something a pool thread runs in bounded, non-blocking turns.
pub trait Task: Send + Sync {
    /// Runs one turn. Called only on the worker the task registered with,
    /// never concurrently with itself, and never after
    /// [`Registration::stop`] returned. The handle is the worker's own
    /// upgrade of its weak reference; a task that needs to outlive the
    /// turn (to finish an offloaded job) clones it.
    fn turn(self: Arc<Self>) -> Progress;
}

/// The pool's counters. Cells are `Arc`s so a metrics registry can hold
/// the same cell the pool updates (see [`Pool::publish_metrics`]).
#[derive(Debug, Default)]
struct Stats {
    threads: Arc<Gauge>,
    tasks: Arc<Gauge>,
    wakeups: Arc<Counter>,
    events: Arc<Counter>,
    timer_runs: Arc<Counter>,
}

type Job = Box<dyn FnOnce() + Send>;

/// State shared by a pool's workers: the counters and the helper thread.
#[derive(Default)]
struct Shared {
    stats: Stats,
    /// Sending side of the helper thread's job queue; the thread starts
    /// with the first job and ends when the last sender is gone.
    helper: OnceLock<crossbeam::channel::Sender<Job>>,
}

impl Shared {
    fn offload(&self, job: Job) {
        let jobs = self.helper.get_or_init(|| {
            let (tx, rx) = crossbeam::channel::unbounded::<Job>();
            let threads = Arc::clone(&self.stats.threads);
            // Detached on purpose: it ends when the pool and every task
            // registered with it are gone, which may be on this thread.
            std::thread::Builder::new()
                .name("reflector-list".into())
                .spawn(move || {
                    threads.inc();
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                    threads.dec();
                })
                .expect("spawn reflector helper thread");
            tx
        });
        // The helper only exits once this sender is dropped.
        let _ = jobs.send(job);
    }
}

#[derive(Default)]
struct Queue {
    /// Registrations whose `scheduled` flag is set, in wake order.
    ready: VecDeque<Arc<Registration>>,
    shutdown: bool,
}

thread_local! {
    /// The registration whose turn this thread is running, so `stop()`
    /// called from inside that turn (an informer stopped by its own
    /// handler) does not wait for itself.
    static IN_TURN: Cell<*const Registration> = const { Cell::new(std::ptr::null()) };
}

/// One pool thread's ready queue.
///
/// [`Pool`] spawns a thread per worker; a model checker drives
/// [`Worker::run`] from a thread of its own instead.
pub struct Worker {
    queue: Mutex<Queue>,
    wake: Condvar,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Worker { .. }")
    }
}

impl Worker {
    /// Creates a worker that belongs to no pool; the caller provides the
    /// thread that calls [`Worker::run`].
    pub fn new() -> Arc<Worker> {
        Worker::with_shared(Arc::new(Shared::default()))
    }

    fn with_shared(shared: Arc<Shared>) -> Arc<Worker> {
        Arc::new(Worker { queue: Mutex::new(Queue::default()), wake: Condvar::new(), shared })
    }

    /// Pins `task` to this worker. The worker holds the task weakly: when
    /// its last strong handle is dropped the registration lapses.
    pub fn register(self: &Arc<Self>, task: Weak<dyn Task>) -> Arc<Registration> {
        self.shared.stats.tasks.inc();
        Arc::new(Registration {
            worker: Arc::clone(self),
            task,
            scheduled: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            turn: Mutex::new(()),
        })
    }

    /// Makes [`Worker::run`] return; queued turns are abandoned.
    pub fn shutdown(&self) {
        self.queue.lock().shutdown = true;
        self.wake.notify_one();
    }

    /// The worker loop: runs ready registrations one turn at a time and
    /// blocks when none is ready. Returns after [`Worker::shutdown`].
    pub fn run(&self) {
        while let Some(registration) = self.next() {
            registration.run_turn();
        }
    }

    /// Blocks for the next ready registration; `None` on shutdown.
    fn next(&self) -> Option<Arc<Registration>> {
        let mut queue = self.queue.lock();
        loop {
            if queue.shutdown {
                return None;
            }
            if let Some(registration) = queue.ready.pop_front() {
                return Some(registration);
            }
            self.wake.wait(&mut queue);
            self.shared.stats.wakeups.inc();
        }
    }
}

/// A task's place on its worker: the handle that wakes and stops it.
///
/// `Waker::from(registration)` is what a [`vc_store::WatchStream`] takes
/// in `set_waker`.
pub struct Registration {
    worker: Arc<Worker>,
    task: Weak<dyn Task>,
    /// Set while the registration sits in the ready queue.
    scheduled: AtomicBool,
    stopped: AtomicBool,
    /// Held by the worker for the length of a turn; [`Registration::stop`]
    /// passes through it to wait out a turn in flight.
    turn: Mutex<()>,
}

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration")
            .field("scheduled", &self.scheduled.load(Ordering::SeqCst))
            .field("stopped", &self.stopped.load(Ordering::SeqCst))
            .finish()
    }
}

impl Registration {
    /// Requests a turn. Cheap and allocation-free when one is already
    /// queued; callable from any thread, under any lock the task's turn
    /// does not take.
    pub fn wake(self: &Arc<Self>) {
        if self.scheduled.swap(true, Ordering::SeqCst) {
            return;
        }
        self.worker.queue.lock().ready.push_back(Arc::clone(self));
        self.worker.wake.notify_one();
    }

    /// Runs `job` on the pool's helper thread — the place for calls that
    /// block (an apiserver LIST carries simulated latency and injected
    /// delays) and would otherwise stall every task on this worker.
    pub fn offload(&self, job: impl FnOnce() + Send + 'static) {
        self.worker.shared.offload(Box::new(job));
    }

    /// De-registers the task: no turn starts after this returns, and a
    /// turn in flight on another thread has finished. Idempotent; callable
    /// from any thread, including from inside the task's own turn (where it
    /// cannot wait for that turn and does not).
    pub fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            self.worker.shared.stats.tasks.dec();
        }
        if !std::ptr::eq(IN_TURN.get(), self) {
            drop(self.turn.lock());
        }
    }

    /// `true` once [`Registration::stop`] was called (or the task was
    /// dropped). A turn checks this between events so a stop takes effect
    /// mid-batch.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    fn run_turn(self: &Arc<Self>) {
        // Cleared before the turn looks at its input: see the module docs.
        self.scheduled.store(false, Ordering::SeqCst);
        let turn = self.turn.lock();
        if self.is_stopped() {
            return;
        }
        let Some(task) = self.task.upgrade() else {
            drop(turn);
            return self.stop();
        };
        IN_TURN.set(Arc::as_ptr(self));
        // A panicking handler ends its own informer, not the pool thread
        // every other informer pinned here depends on. The handle may be
        // the last one and is dropped inside the call: the task's `Drop`
        // may call `stop()`, which must still see this turn as its own.
        let progress = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.turn()));
        IN_TURN.set(std::ptr::null());
        drop(turn);
        match progress {
            Ok(progress) => {
                self.worker.shared.stats.events.add(progress.events);
                if progress.more {
                    self.wake();
                }
            }
            Err(_) => self.stop(),
        }
    }
}

impl std::task::Wake for Registration {
    fn wake(self: Arc<Self>) {
        Registration::wake(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Registration::wake(self);
    }
}

type Body = Box<dyn FnMut() -> Option<Timestamp> + Send>;

/// A body the pool runs at deadlines on a [`Clock`]: how periodic work — a
/// scanner, heartbeats, a garbage collector — runs without a thread of its
/// own.
///
/// A timer is a pool task. A deadline passing gives it a turn, and the
/// turn hands one run of the body to the pool's helper thread: bodies call
/// apiservers, so they may block. The body returns its next deadline, or
/// `None` to wait for the next [`Timer::wake_at`]. Runs never overlap; a
/// deadline that passes during a run queues one more. The clock holds the
/// registration, not the timer, so dropping the last handle ends it as
/// [`Timer::stop`] does.
pub struct Timer {
    clock: Arc<dyn Clock>,
    registration: Arc<Registration>,
    due: Mutex<Due>,
    /// Held for the length of a run; [`Timer::stop`] passes through it.
    body: Mutex<Body>,
}

#[derive(Default)]
struct Due {
    /// The earliest deadline armed on the clock and not yet run.
    at: Option<Timestamp>,
    /// A run is on the helper's queue and has not started.
    queued: bool,
}

impl Timer {
    /// A timer on `pool`; nothing runs until the first deadline is armed.
    pub fn new(
        pool: &Pool,
        clock: Arc<dyn Clock>,
        body: impl FnMut() -> Option<Timestamp> + Send + 'static,
    ) -> Arc<Timer> {
        Arc::new_cyclic(|timer: &Weak<Timer>| Timer {
            clock,
            registration: pool.register(timer.clone()),
            due: Mutex::new(Due::default()),
            body: Mutex::new(Box::new(body)),
        })
    }

    /// A timer on the process-wide pool that runs `body` every `interval`,
    /// the first time one interval from now.
    pub fn every(
        clock: Arc<dyn Clock>,
        interval: Duration,
        mut body: impl FnMut() + Send + 'static,
    ) -> Arc<Timer> {
        let next = Arc::clone(&clock);
        let timer = Timer::new(Pool::global(), clock, move || {
            body();
            Some(next.now().add(interval))
        });
        timer.wake_at(timer.clock.now().add(interval));
        timer
    }

    /// Runs the body once `at` has passed on the timer's clock. A deadline
    /// later than one already armed is left to the body to return.
    pub fn wake_at(&self, at: Timestamp) {
        let mut due = self.due.lock();
        if due.at.is_some_and(|armed| armed <= at) {
            return;
        }
        due.at = Some(at);
        drop(due);
        self.clock.wake_at(at, Waker::from(Arc::clone(&self.registration)));
    }

    /// De-registers the timer: no run starts after this returns, and a run
    /// in flight has finished. Idempotent; callable from any thread but the
    /// one running the body.
    pub fn stop(&self) {
        self.registration.stop();
        drop(self.body.lock());
    }

    /// One run, on the helper thread.
    fn run(&self) {
        let mut body = self.body.lock();
        // Cleared before the body runs: a deadline from here on queues
        // another run.
        self.due.lock().queued = false;
        if self.registration.is_stopped() {
            return;
        }
        self.registration.worker.shared.stats.timer_runs.inc();
        let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut *body));
        drop(body);
        match next {
            Ok(Some(at)) => self.wake_at(at),
            Ok(None) => {}
            // A panicking body ends its own timer, not the helper thread.
            Err(_) => self.registration.stop(),
        }
    }
}

impl Task for Timer {
    fn turn(self: Arc<Self>) -> Progress {
        let now = self.clock.now();
        let mut due = self.due.lock();
        // A deadline superseded by an earlier one fires late and stale.
        if due.at.is_none_or(|at| at > now) {
            return Progress::default();
        }
        due.at = None;
        let queue = !std::mem::replace(&mut due.queued, true);
        drop(due);
        if queue {
            let timer = Arc::clone(&self);
            self.registration.offload(move || timer.run());
        }
        Progress::default()
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.registration.stop();
    }
}

/// A set of [`Worker`]s, each with its own thread.
///
/// Production code uses [`Pool::global`]; tests that count wake-ups or
/// need two informers on the same thread build a private one.
pub struct Pool {
    workers: Vec<Arc<Worker>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    next: AtomicUsize,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers.len()).finish()
    }
}

impl Pool {
    /// The process-wide pool: one worker per available core, started by
    /// the first informer and never stopped.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::new(std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        })
    }

    /// Starts a pool of `threads` workers (at least one). Dropping it
    /// stops and joins them.
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared::default());
        let workers: Vec<_> =
            (0..threads.max(1)).map(|_| Worker::with_shared(Arc::clone(&shared))).collect();
        let threads = workers
            .iter()
            .enumerate()
            .map(|(index, worker)| {
                let worker = Arc::clone(worker);
                std::thread::Builder::new()
                    .name(format!("reflector-{index}"))
                    .spawn(move || {
                        worker.shared.stats.threads.inc();
                        worker.run();
                        worker.shared.stats.threads.dec();
                    })
                    .expect("spawn reflector pool thread")
            })
            .collect();
        Pool { workers, threads, next: AtomicUsize::new(0), shared }
    }

    /// Pins `task` to one of the pool's workers, round-robin.
    pub fn register(&self, task: Weak<dyn Task>) -> Arc<Registration> {
        let index = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        self.workers[index].register(task)
    }

    /// Times a pool thread came back from blocking (an event, a timer, or
    /// a shutdown). Events ÷ wake-ups is the batch size.
    pub fn wakeups(&self) -> u64 {
        self.shared.stats.wakeups.get()
    }

    /// Events handled by this pool's tasks.
    pub fn events(&self) -> u64 {
        self.shared.stats.events.get()
    }

    /// Tasks registered and not yet stopped.
    pub fn tasks(&self) -> i64 {
        self.shared.stats.tasks.get()
    }

    /// Timer bodies run by this pool's helper thread.
    pub fn timer_runs(&self) -> u64 {
        self.shared.stats.timer_runs.get()
    }

    /// Pool threads running, the helper included once it has started.
    pub fn threads(&self) -> i64 {
        self.shared.stats.threads.get()
    }

    /// Exposes the pool's counters in `registry` as
    /// `client_reflector_{threads,informers,wakeups_total,events_total,timer_runs_total}`.
    /// The registry holds the very cells the pool updates, so there is no
    /// publish step and any number of registries may share them.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        let stats = &self.shared.stats;
        registry
            .gauge("client_reflector_threads", "Reflector pool threads running.", &[])
            .bind(&[], Arc::clone(&stats.threads));
        registry
            .gauge(
                "client_reflector_informers",
                "Informers and timers registered with the pool.",
                &[],
            )
            .bind(&[], Arc::clone(&stats.tasks));
        registry
            .counter(
                "client_reflector_wakeups_total",
                "Times a reflector pool thread came back from blocking.",
                &[],
            )
            .bind(&[], Arc::clone(&stats.wakeups));
        registry
            .counter(
                "client_reflector_events_total",
                "Watch events applied by pooled informers (divide by wakeups for the batch size).",
                &[],
            )
            .bind(&[], Arc::clone(&stats.events));
        registry
            .counter(
                "client_reflector_timer_runs_total",
                "Timer bodies (scanners, heartbeats, GC passes) run on the pool's helper thread.",
                &[],
            )
            .bind(&[], Arc::clone(&stats.timer_runs));
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.shutdown();
        }
        for thread in self.threads.drain(..) {
            // A worker only panics if a task's turn did; that panic was
            // already reported on its own thread.
            let _ = thread.join();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Counts its turns; asks for `extra` follow-up turns after each wake.
    #[derive(Default)]
    struct Probe {
        turns: AtomicUsize,
        backlog: AtomicUsize,
    }

    impl Task for Probe {
        fn turn(self: Arc<Self>) -> Progress {
            self.turns.fetch_add(1, Ordering::SeqCst);
            let left = self.backlog.load(Ordering::SeqCst);
            if left > 0 {
                self.backlog.store(left - 1, Ordering::SeqCst);
            }
            Progress { events: 1, more: left > 1 }
        }
    }

    fn probe(pool: &Pool) -> (Arc<Probe>, Arc<Registration>) {
        let task = Arc::new(Probe::default());
        let weak = Arc::downgrade(&task);
        (task, pool.register(weak))
    }

    fn eventually(mut check: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if check() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        check()
    }

    #[test]
    fn wake_runs_one_turn_and_more_requeues() {
        let pool = Pool::new(1);
        let (task, registration) = probe(&pool);
        registration.wake();
        assert!(eventually(|| task.turns.load(Ordering::SeqCst) == 1));
        task.backlog.store(3, Ordering::SeqCst);
        registration.wake();
        assert!(eventually(|| task.turns.load(Ordering::SeqCst) == 4));
        assert_eq!(pool.events(), 4);
    }

    #[test]
    fn idle_pool_never_wakes() {
        let pool = Pool::new(2);
        let (_task, _registration) = probe(&pool);
        assert!(eventually(|| pool.threads() == 2));
        let before = pool.wakeups();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(pool.wakeups(), before);
    }

    #[test]
    fn a_stopped_periodic_timer_never_runs_again_and_its_pending_deadline_keeps_nothing_alive() {
        let clock = vc_api::time::SimClock::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let held = Arc::new(());
        let timer = {
            let (runs, held) = (Arc::clone(&runs), Arc::clone(&held));
            Timer::every(Arc::clone(&clock) as Arc<dyn Clock>, Duration::from_secs(10), move || {
                let _held = &held;
                runs.fetch_add(1, Ordering::SeqCst);
            })
        };
        clock.advance(Duration::from_secs(9));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "never early");
        clock.advance(Duration::from_secs(1));
        assert!(eventually(|| runs.load(Ordering::SeqCst) == 1));
        // The run re-armed the next period; stop with that deadline pending.
        assert!(eventually(|| timer.due.lock().at.is_some()));
        let weak = Arc::downgrade(&timer);
        timer.stop();
        drop(timer);
        // Only the finished run's job may still hold it, and only briefly.
        assert!(eventually(|| weak.upgrade().is_none()), "the pending deadline holds the timer");
        assert_eq!(Arc::strong_count(&held), 1, "the body went with it");
        clock.advance(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_deadline_passing_during_a_run_queues_exactly_one_more() {
        let pool = Pool::new(1);
        let clock = vc_api::time::SimClock::new();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let timer = Timer::new(&pool, Arc::clone(&clock) as Arc<dyn Clock>, move || {
            if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = started_tx.send(());
                let _ = gate.lock().unwrap().recv();
            }
            None
        });
        timer.wake_at(clock.now());
        started.recv_timeout(Duration::from_secs(5)).expect("first run started");
        for _ in 0..3 {
            timer.wake_at(clock.now());
        }
        drop(release);
        assert!(eventually(|| runs.load(Ordering::SeqCst) == 2));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(pool.timer_runs(), 2);
        timer.stop();
    }

    #[test]
    fn stop_is_idempotent_and_ends_turns() {
        let pool = Pool::new(1);
        let (task, registration) = probe(&pool);
        assert_eq!(pool.tasks(), 1);
        registration.stop();
        registration.stop();
        assert_eq!(pool.tasks(), 0);
        registration.wake();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(task.turns.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn dropping_the_task_lapses_its_registration() {
        let pool = Pool::new(1);
        let (task, registration) = probe(&pool);
        drop(task);
        registration.wake();
        assert!(eventually(|| registration.is_stopped()));
        assert_eq!(pool.tasks(), 0);
    }

    #[test]
    fn offload_runs_on_the_helper_not_the_worker() {
        let pool = Pool::new(1);
        let (_task, registration) = probe(&pool);
        let (tx, rx) = std::sync::mpsc::channel();
        registration.offload(move || {
            let _ = tx.send(std::thread::current().name().map(str::to_owned));
        });
        let name = rx.recv_timeout(Duration::from_secs(5)).expect("job ran");
        assert_eq!(name.as_deref(), Some("reflector-list"));
    }

    #[test]
    fn metrics_are_the_pools_own_cells() {
        let pool = Pool::new(1);
        let registry = MetricsRegistry::new();
        pool.publish_metrics(&registry);
        let (task, registration) = probe(&pool);
        registration.wake();
        assert!(eventually(|| task.turns.load(Ordering::SeqCst) == 1));
        let text = registry.render_text();
        assert!(text.contains("client_reflector_informers 1"), "{text}");
        assert!(text.contains("client_reflector_events_total 1"), "{text}");
        assert!(text.contains("client_reflector_threads 1"), "{text}");
        assert!(text.contains("client_reflector_wakeups_total"), "{text}");
    }
}
