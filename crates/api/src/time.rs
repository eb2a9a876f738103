//! Clock abstraction, timestamps and timers.
//!
//! Controllers never call [`std::time::Instant::now`] directly; they take an
//! `Arc<dyn Clock>` so that unit tests can drive time manually with
//! [`SimClock`] while benches and examples run on [`RealClock`].
//!
//! Waiting for a moment has one form: [`Clock::wake_at`] wakes a [`Waker`]
//! once the clock reaches a [`Timestamp`]. Periodic work is a task that
//! re-arms itself (`vc_client::reflector::Timer`), and a one-off deadline,
//! such as the WAL's `Async` flush, is one timer; no thread sleeps.

use parking_lot::{Condvar, Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Milliseconds since an arbitrary epoch (process start for [`RealClock`],
/// zero for [`SimClock`]).
///
/// # Examples
///
/// ```
/// use vc_api::time::Timestamp;
///
/// let a = Timestamp::from_millis(1_000);
/// let b = Timestamp::from_millis(2_500);
/// assert_eq!(b.duration_since(a), std::time::Duration::from_millis(1_500));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from absolute milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Returns the absolute milliseconds value.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn duration_since(self, earlier: Timestamp) -> Duration {
        Duration::from_millis(self.0.saturating_sub(earlier.0))
    }

    /// Returns this timestamp advanced by `d`.
    #[allow(clippy::should_implement_trait)] // inherent `add` keeps call sites import-free
    pub fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.as_millis() as u64)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

/// A source of time that controllers schedule against.
///
/// Implementations must be thread-safe; sleepers and timers on a
/// [`SimClock`] are released when the test advances the clock past their
/// deadline.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Returns the current time.
    fn now(&self) -> Timestamp;

    /// Blocks the calling thread for `d` (virtual time for [`SimClock`]).
    fn sleep(&self, d: Duration);

    /// Wakes `waker` once `now() >= at`. A timer cannot be cancelled: the
    /// task behind the waker holds its work weakly and checks its own
    /// deadline when woken, so a stale timer costs one no-op wake.
    ///
    /// [`RealClock`] fires on the process's one timer thread. [`SimClock`]
    /// fires from [`SimClock::advance`] on the caller's thread, and from
    /// this call on this thread if `at` has already passed: do not hold a
    /// lock the waker takes.
    fn wake_at(&self, at: Timestamp, waker: Waker);
}

/// A [`Waker`] that calls `wake`: how code that is not a pool task waits
/// on [`Clock::wake_at`].
pub fn waker_fn(wake: impl Fn() + Send + Sync + 'static) -> Waker {
    struct FnWaker<F>(F);
    impl<F: Fn() + Send + Sync + 'static> Wake for FnWaker<F> {
        fn wake(self: Arc<Self>) {
            (self.0)();
        }
    }
    Waker::from(Arc::new(FnWaker(wake)))
}

/// Armed wakers by deadline: earliest first, equal deadlines in arming
/// order.
#[derive(Debug)]
struct Timers<K> {
    armed: BTreeMap<(K, u64), Waker>,
    seq: u64,
}

impl<K: Ord + Copy> Timers<K> {
    fn new() -> Self {
        Timers { armed: BTreeMap::new(), seq: 0 }
    }

    /// Arms `waker` for `at`; `true` when it is now the earliest timer.
    fn push(&mut self, at: K, waker: Waker) -> bool {
        self.seq += 1;
        let earliest = self.armed.first_key_value().is_none_or(|(&(first, _), _)| at < first);
        self.armed.insert((at, self.seq), waker);
        earliest
    }

    /// Takes out every timer due at `now`, in deadline order.
    fn pop_due(&mut self, now: K) -> Vec<Waker> {
        let mut due = Vec::new();
        while let Some(timer) = self.armed.first_entry().filter(|timer| timer.key().0 <= now) {
            due.push(timer.remove());
        }
        due
    }
}

/// Wall-clock implementation of [`Clock`], measured from its construction.
#[derive(Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// Creates a real clock anchored at the moment of construction.
    pub fn new() -> Self {
        RealClock { origin: Instant::now() }
    }

    /// Convenience constructor returning an `Arc<dyn Clock>`.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(RealClock::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.origin.elapsed().as_millis() as u64)
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn wake_at(&self, at: Timestamp, waker: Waker) {
        TimerThread::get().arm(self.origin + Duration::from_millis(at.0), waker);
    }
}

/// The one thread that fires every [`RealClock`] timer in the process,
/// started by the first one. Keyed on [`Instant`], because each
/// `RealClock` has its own origin.
#[derive(Debug)]
struct TimerThread {
    timers: Mutex<Timers<Instant>>,
    earlier: Condvar,
}

impl TimerThread {
    fn get() -> &'static TimerThread {
        static THREAD: OnceLock<TimerThread> = OnceLock::new();
        let mut first = false;
        let thread = THREAD.get_or_init(|| {
            first = true;
            TimerThread { timers: Mutex::new(Timers::new()), earlier: Condvar::new() }
        });
        if first {
            std::thread::Builder::new()
                .name("vc-timer".into())
                .spawn(move || thread.run())
                .expect("spawn timer thread");
        }
        thread
    }

    fn arm(&self, at: Instant, waker: Waker) {
        if self.timers.lock().push(at, waker) {
            // The thread may be parked until a later deadline, or for good.
            self.earlier.notify_one();
        }
    }

    fn run(&self) {
        let mut timers = self.timers.lock();
        loop {
            let due = timers.pop_due(Instant::now());
            if !due.is_empty() {
                // Wakers take locks of their own (a pool worker's queue):
                // never call one under this lock.
                drop(timers);
                due.into_iter().for_each(Waker::wake);
                timers = self.timers.lock();
                continue;
            }
            match timers.armed.first_key_value().map(|(&(at, _), _)| at) {
                Some(at) => {
                    self.earlier.wait_until(&mut timers, at);
                }
                None => self.earlier.wait(&mut timers),
            }
        }
    }
}

/// Manually-driven clock for deterministic tests.
///
/// Threads that call [`Clock::sleep`] block until another thread advances
/// the clock past their deadline with [`SimClock::advance`], which also
/// fires every [`Clock::wake_at`] timer that came due.
///
/// # Examples
///
/// ```
/// use vc_api::time::{Clock, SimClock};
/// use std::time::Duration;
///
/// let clock = SimClock::new();
/// assert_eq!(clock.now().as_millis(), 0);
/// clock.advance(Duration::from_millis(250));
/// assert_eq!(clock.now().as_millis(), 250);
/// ```
#[derive(Debug)]
pub struct SimClock {
    state: Mutex<SimState>,
    /// Threads in [`Clock::sleep`].
    sleepers: Condvar,
}

#[derive(Debug)]
struct SimState {
    now: u64,
    timers: Timers<Timestamp>,
}

impl SimClock {
    /// Creates a simulated clock starting at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(SimClock {
            state: Mutex::new(SimState { now: 0, timers: Timers::new() }),
            sleepers: Condvar::new(),
        })
    }

    /// Advances the clock by `d`, waking the sleepers whose deadline passed
    /// and firing, on this thread and in deadline order, the timers that
    /// came due.
    pub fn advance(&self, d: Duration) {
        let state = self.state.lock();
        let to = state.now + d.as_millis() as u64;
        self.move_to(state, to);
    }

    /// Sets the clock to an absolute time; must not move backwards.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current simulated time.
    pub fn set(&self, t: Timestamp) {
        let state = self.state.lock();
        assert!(t.0 >= state.now, "SimClock cannot move backwards");
        self.move_to(state, t.0);
    }

    fn move_to(&self, mut state: MutexGuard<'_, SimState>, to: u64) {
        state.now = to;
        let due = state.timers.pop_due(Timestamp(to));
        drop(state);
        self.sleepers.notify_all();
        due.into_iter().for_each(Waker::wake);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.state.lock().now)
    }

    fn sleep(&self, d: Duration) {
        let mut state = self.state.lock();
        let deadline = state.now + d.as_millis() as u64;
        while state.now < deadline {
            self.sleepers.wait(&mut state);
        }
    }

    fn wake_at(&self, at: Timestamp, waker: Waker) {
        let mut state = self.state.lock();
        if at.0 > state.now {
            state.timers.push(at, waker);
            return;
        }
        drop(state);
        waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_millis(100);
        let b = a.add(Duration::from_millis(400));
        assert_eq!(b.as_millis(), 500);
        assert_eq!(b.duration_since(a), Duration::from_millis(400));
        // Saturating behavior when earlier is later.
        assert_eq!(a.duration_since(b), Duration::ZERO);
    }

    #[test]
    fn real_clock_monotonic() {
        let clock = RealClock::new();
        let a = clock.now();
        clock.sleep(Duration::from_millis(5));
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_advance_wakes_sleeper() {
        let clock = SimClock::new();
        let woke = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&clock);
        let w2 = Arc::clone(&woke);
        let handle = std::thread::spawn(move || {
            c2.sleep(Duration::from_millis(100));
            w2.store(true, Ordering::SeqCst);
        });
        // Give the sleeper a moment to block, then advance virtual time.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!woke.load(Ordering::SeqCst));
        clock.advance(Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!woke.load(Ordering::SeqCst), "must not wake before deadline");
        clock.advance(Duration::from_millis(50));
        handle.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn sim_clock_set_absolute() {
        let clock = SimClock::new();
        clock.set(Timestamp::from_millis(1000));
        assert_eq!(clock.now().as_millis(), 1000);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sim_clock_rejects_backwards() {
        let clock = SimClock::new();
        clock.set(Timestamp::from_millis(10));
        clock.set(Timestamp::from_millis(5));
    }

    #[test]
    fn timestamp_display() {
        assert_eq!(Timestamp::from_millis(42).to_string(), "t+42ms");
    }

    #[test]
    fn sim_timers_fire_in_deadline_order_and_never_early() {
        let clock = SimClock::new();
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let arm = |at: u64, tag: &'static str| {
            let fired = Arc::clone(&fired);
            let now = Arc::clone(&clock);
            let waker = waker_fn(move || fired.lock().unwrap().push((tag, now.now().as_millis())));
            clock.wake_at(Timestamp::from_millis(at), waker);
        };
        arm(30, "c");
        arm(10, "a");
        arm(20, "b1");
        arm(20, "b2");
        clock.advance(Duration::from_millis(9));
        assert!(fired.lock().unwrap().is_empty(), "nothing is due at 9");
        clock.set(Timestamp::from_millis(25));
        assert_eq!(*fired.lock().unwrap(), [("a", 25), ("b1", 25), ("b2", 25)]);
        clock.advance(Duration::from_millis(5));
        assert_eq!(fired.lock().unwrap().last(), Some(&("c", 30)));
        // A deadline already passed fires at once, on the arming thread.
        arm(7, "late");
        assert_eq!(fired.lock().unwrap().last(), Some(&("late", 30)));
    }

    #[test]
    fn real_timers_fire_on_the_timer_thread_and_an_earlier_one_cuts_the_wait() {
        let clock = RealClock::new();
        let (tx, rx) = std::sync::mpsc::channel();
        for after in [Duration::from_secs(60), Duration::from_millis(30)] {
            let tx = tx.clone();
            let waker = waker_fn(move || {
                let _ = tx.send(std::thread::current().name().map(str::to_owned));
            });
            clock.wake_at(clock.now().add(after), waker);
        }
        let start = Instant::now();
        let name = rx.recv_timeout(Duration::from_secs(5)).expect("the 30 ms timer fired");
        assert_eq!(name.as_deref(), Some("vc-timer"));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
