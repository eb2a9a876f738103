//! Clock abstraction and timestamps.
//!
//! Controllers never call [`std::time::Instant::now`] directly; they take an
//! `Arc<dyn Clock>` so that unit tests can drive time manually with
//! [`SimClock`] while benches and examples run on [`RealClock`].

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

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

/// A source of time that controllers can sleep against.
///
/// Implementations must be thread-safe; sleeping threads on a [`SimClock`]
/// are woken when the test advances the clock past their deadline.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Returns the current time.
    fn now(&self) -> Timestamp;

    /// Blocks the calling thread for `d` (virtual time for [`SimClock`]).
    fn sleep(&self, d: Duration);

    /// How long a deadline loop may park (on its own condvar or in a real
    /// sleep) before it must re-check `now()` against its deadline.
    ///
    /// [`RealClock`] returns `remaining` unchanged — real deadlines and
    /// real parks agree, so waiters park the full remainder and wake
    /// exactly once. A virtual clock returns a small real-time quantum
    /// instead, because its `now()` only moves when the test advances it:
    /// the waiter re-polls the (virtual) deadline every quantum and
    /// observes an `advance()` within bounded real time, with no wakeup
    /// race between the deadline check and the park.
    fn park_quantum(&self, remaining: Duration) -> Duration {
        remaining
    }
}

/// Sleeps for `d` on `clock`, polling `cancelled` so the wait can end
/// early. Returns `true` when the full duration elapsed, `false` when
/// cancelled.
///
/// Unlike [`Clock::sleep`], this never wedges on a frozen [`SimClock`]:
/// the thread parks in bounded *real-time* steps (at most 25ms, or the
/// clock's [`Clock::park_quantum`] if smaller) between checks, so
/// shutdown flags are honored even if virtual time never advances.
/// Controller loops use this for their tick sleeps.
pub fn sleep_cancellable(clock: &dyn Clock, d: Duration, cancelled: impl Fn() -> bool) -> bool {
    const MAX_STEP: Duration = Duration::from_millis(25);
    let deadline = clock.now().add(d);
    loop {
        if cancelled() {
            return false;
        }
        let now = clock.now();
        if now >= deadline {
            return true;
        }
        let remaining = deadline.duration_since(now);
        std::thread::sleep(clock.park_quantum(remaining).min(MAX_STEP));
    }
}

/// Wall-clock implementation of [`Clock`], measured from process start.
#[derive(Debug)]
pub struct RealClock {
    origin: std::time::Instant,
}

impl RealClock {
    /// Creates a real clock anchored at the moment of construction.
    pub fn new() -> Self {
        RealClock { origin: std::time::Instant::now() }
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
}

/// Manually-driven clock for deterministic tests.
///
/// Threads that call [`Clock::sleep`] block on a condvar until another
/// thread advances the clock past their deadline with [`SimClock::advance`].
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
    state: Mutex<u64>,
    cond: Condvar,
}

impl SimClock {
    /// Creates a simulated clock starting at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(SimClock { state: Mutex::new(0), cond: Condvar::new() })
    }

    /// Advances the clock by `d`, waking any sleepers whose deadline passed.
    pub fn advance(&self, d: Duration) {
        let mut now = self.state.lock();
        *now += d.as_millis() as u64;
        self.cond.notify_all();
    }

    /// Sets the clock to an absolute time; must not move backwards.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current simulated time.
    pub fn set(&self, t: Timestamp) {
        let mut now = self.state.lock();
        assert!(t.as_millis() >= *now, "SimClock cannot move backwards");
        *now = t.as_millis();
        self.cond.notify_all();
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp(*self.state.lock())
    }

    fn sleep(&self, d: Duration) {
        let deadline = {
            let now = self.state.lock();
            *now + d.as_millis() as u64
        };
        let mut now = self.state.lock();
        while *now < deadline {
            self.cond.wait(&mut now);
        }
    }

    /// Virtual deadlines can only move when the test advances the clock,
    /// so waiters re-poll every millisecond of real time rather than
    /// parking for the (virtual) remainder.
    fn park_quantum(&self, _remaining: Duration) -> Duration {
        Duration::from_millis(1)
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
    fn park_quantum_real_vs_sim() {
        let real = RealClock::new();
        let remaining = Duration::from_secs(5);
        assert_eq!(real.park_quantum(remaining), remaining, "real clocks park the remainder");
        let sim = SimClock::new();
        assert_eq!(sim.park_quantum(remaining), Duration::from_millis(1), "sim clocks re-poll");
    }

    #[test]
    fn sleep_cancellable_completes_on_advance() {
        let clock = SimClock::new();
        let c2 = Arc::clone(&clock);
        let handle =
            std::thread::spawn(move || sleep_cancellable(&*c2, Duration::from_secs(60), || false));
        // Virtual time satisfies the deadline; no 60s of real time pass.
        // The sleeper computes `now + 60s` whenever it gets scheduled, so
        // a single advance can land before that read and leave it parked
        // at 120 virtual seconds forever: keep advancing until it returns.
        while !handle.is_finished() {
            clock.advance(Duration::from_secs(60));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(handle.join().unwrap(), "completed, not cancelled");
    }

    #[test]
    fn sleep_cancellable_cancels_on_frozen_clock() {
        let clock = SimClock::new();
        let cancel = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&clock);
        let flag = Arc::clone(&cancel);
        let handle = std::thread::spawn(move || {
            sleep_cancellable(&*c2, Duration::from_secs(60), || flag.load(Ordering::SeqCst))
        });
        // The clock never advances; cancellation must still release the
        // sleeper within a few real polling quanta.
        std::thread::sleep(Duration::from_millis(10));
        cancel.store(true, Ordering::SeqCst);
        assert!(!handle.join().unwrap(), "cancelled before the deadline");
    }
}
