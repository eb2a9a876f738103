//! Loom model-checking tests for the timer protocol: a [`Clock::wake_at`]
//! timer on a `SimClock`, fired by `advance`, waking a pool registration
//! that is being stopped.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p vc-client --release -- loom_
//! ```
//!
//! `vc_client::reflector` compiles against the loom backend through
//! `vc-sync`, so these models drive the *production* `Worker::run`,
//! `Registration::wake` and `Registration::stop` under exhaustive
//! interleaving (bounded preemption), fed by the production
//! `SimClock::wake_at` and `advance`. The clock calls no loom operation
//! while it holds its own lock, so each of its calls is one step to the
//! model, and every order of arming, advancing, firing and stopping
//! around them is explored. What they prove:
//!
//! * **No lost wake-up**: a timer armed while another thread advances the
//!   clock past its deadline fires exactly once — inline if the advance
//!   came first, from the advance otherwise — and its task gets a turn. A
//!   timer lost between "not due yet" and "pushed on the heap" would leave
//!   the worker parked, which loom reports as a deadlock.
//! * **`stop()` is a barrier against a firing timer**: whatever the
//!   advance does, no turn is running, or starts, once `stop()` returned.

#![cfg(loom)]

use std::sync::{Arc, Weak};
use std::task::Waker;
use std::time::Duration;
use vc_api::time::{Clock, SimClock, Timestamp};
use vc_client::reflector::{Progress, Task, Worker};
use vc_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use vc_sync::{Condvar, Mutex};

/// A task that counts its turns and notes one that overlaps a returned
/// `stop()`.
struct Alarm {
    turns: AtomicUsize,
    turned: Mutex<()>,
    progressed: Condvar,
    stop_returned: AtomicBool,
    ran_after_stop: AtomicBool,
}

impl Alarm {
    fn new() -> Arc<Alarm> {
        Arc::new(Alarm {
            turns: AtomicUsize::new(0),
            turned: Mutex::new(()),
            progressed: Condvar::new(),
            stop_returned: AtomicBool::new(false),
            ran_after_stop: AtomicBool::new(false),
        })
    }

    fn task(self: &Arc<Self>) -> Weak<dyn Task> {
        let weak: Weak<Alarm> = Arc::downgrade(self);
        weak
    }
}

impl Task for Alarm {
    fn turn(self: Arc<Self>) -> Progress {
        let started_late = self.stop_returned.load(Ordering::SeqCst);
        let _turned = self.turned.lock();
        self.turns.fetch_add(1, Ordering::SeqCst);
        self.progressed.notify_all();
        if started_late || self.stop_returned.load(Ordering::SeqCst) {
            self.ran_after_stop.store(true, Ordering::SeqCst);
        }
        Progress::default()
    }
}

#[test]
fn loom_timer_armed_during_advance_is_never_lost() {
    loom::model(|| {
        let worker = Worker::new();
        let alarm = Alarm::new();
        let registration = worker.register(alarm.task());
        let clock = SimClock::new();
        let pool_thread = {
            let worker = Arc::clone(&worker);
            loom::thread::spawn(move || worker.run())
        };
        let arming = {
            let clock = Arc::clone(&clock);
            loom::thread::spawn(move || {
                clock.wake_at(Timestamp::from_millis(10), Waker::from(registration));
            })
        };
        let advancing = {
            let clock = Arc::clone(&clock);
            loom::thread::spawn(move || clock.advance(Duration::from_millis(10)))
        };
        arming.join().unwrap();
        advancing.join().unwrap();
        // Nothing else wakes the worker: a lost timer parks it for good,
        // this wait never ends, and loom reports the deadlock.
        let mut turned = alarm.turned.lock();
        while alarm.turns.load(Ordering::SeqCst) == 0 {
            alarm.progressed.wait(&mut turned);
        }
        drop(turned);
        worker.shutdown();
        pool_thread.join().unwrap();
        assert_eq!(alarm.turns.load(Ordering::SeqCst), 1, "one timer, one turn");
    });
}

#[test]
fn loom_timer_fire_vs_stop_is_a_barrier() {
    loom::model(|| {
        let worker = Worker::new();
        let alarm = Alarm::new();
        let registration = worker.register(alarm.task());
        let clock = SimClock::new();
        clock.wake_at(Timestamp::from_millis(10), Waker::from(Arc::clone(&registration)));
        let pool_thread = {
            let worker = Arc::clone(&worker);
            loom::thread::spawn(move || worker.run())
        };
        let advancing = {
            let clock = Arc::clone(&clock);
            loom::thread::spawn(move || clock.advance(Duration::from_millis(10)))
        };
        let stopper = {
            let alarm = Arc::clone(&alarm);
            loom::thread::spawn(move || {
                registration.stop();
                alarm.stop_returned.store(true, Ordering::SeqCst);
            })
        };
        advancing.join().unwrap();
        stopper.join().unwrap();
        worker.shutdown();
        pool_thread.join().unwrap();
        // The timer's turn ran before the stop returned or not at all.
        assert!(!alarm.ran_after_stop.load(Ordering::SeqCst), "a turn ran after stop()");
        assert!(alarm.turns.load(Ordering::SeqCst) <= 1);
    });
}
