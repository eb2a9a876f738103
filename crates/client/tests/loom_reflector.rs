//! Loom model-checking tests for the reflector pool's wake protocol.
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
//! interleaving (bounded preemption). A model thread stands in for the
//! pool thread; a mutex-guarded queue stands in for the watch channel. What
//! they prove:
//!
//! * **No lost wake-up**: an event delivered while the worker is between
//!   "the turn found the stream empty" and "park" still gets a turn — if
//!   the `scheduled` flag or the condvar hand-off could drop it, the worker
//!   would park with the event buffered and loom's deadlock detection
//!   fails the model.
//! * **`stop()` is a barrier**: whatever a racing event does, no handler
//!   is running, or starts, once `stop()` has returned.

#![cfg(loom)]

use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use vc_client::reflector::{Progress, Task, Worker};
use vc_sync::atomic::{AtomicBool, Ordering};
use vc_sync::{Condvar, Mutex};

/// An informer reduced to what the protocol sees: a buffer `deliver`
/// pushes into and a turn that handles one event — the smallest bound, so
/// every second event takes the re-queue-at-the-tail path.
struct Stream {
    buffered: Mutex<VecDeque<u32>>,
    handled: Mutex<Vec<u32>>,
    progressed: Condvar,
    /// Set by the model once `stop()` has returned.
    stop_returned: AtomicBool,
    /// A handler was running, or started, after that. Recorded rather
    /// than asserted in place: the worker contains a panicking turn.
    ran_after_stop: AtomicBool,
}

impl Stream {
    fn new() -> Arc<Stream> {
        Arc::new(Stream {
            buffered: Mutex::new(VecDeque::new()),
            handled: Mutex::new(Vec::new()),
            progressed: Condvar::new(),
            stop_returned: AtomicBool::new(false),
            ran_after_stop: AtomicBool::new(false),
        })
    }

    fn task(self: &Arc<Self>) -> Weak<dyn Task> {
        let weak: Weak<Stream> = Arc::downgrade(self);
        weak
    }
}

impl Task for Stream {
    fn turn(self: Arc<Self>) -> Progress {
        let Some(event) = self.buffered.lock().pop_front() else {
            return Progress::default();
        };
        let started_late = self.stop_returned.load(Ordering::SeqCst);
        self.handled.lock().push(event);
        self.progressed.notify_all();
        if started_late || self.stop_returned.load(Ordering::SeqCst) {
            self.ran_after_stop.store(true, Ordering::SeqCst);
        }
        Progress { events: 1, more: true }
    }
}

#[test]
fn loom_reflector_no_lost_wakeup() {
    loom::model(|| {
        let worker = Worker::new();
        let stream = Stream::new();
        let registration = worker.register(stream.task());
        let pool_thread = {
            let worker = Arc::clone(&worker);
            loom::thread::spawn(move || worker.run())
        };
        let store = {
            let stream = Arc::clone(&stream);
            loom::thread::spawn(move || {
                for event in [1, 2] {
                    // deliver, then wake — the order `WatcherHandle` keeps.
                    stream.buffered.lock().push_back(event);
                    registration.wake();
                }
            })
        };
        store.join().unwrap();
        // Nothing else will ever wake the worker: if either event's wake
        // was lost it stays parked, this wait never ends, and loom reports
        // the deadlock.
        let mut handled = stream.handled.lock();
        while handled.len() < 2 {
            stream.progressed.wait(&mut handled);
        }
        assert_eq!(*handled, [1, 2], "one pinned worker keeps the order");
        drop(handled);
        worker.shutdown();
        pool_thread.join().unwrap();
    });
}

#[test]
fn loom_reflector_stop_racing_an_event_is_a_barrier() {
    loom::model(|| {
        let worker = Worker::new();
        let stream = Stream::new();
        let registration = worker.register(stream.task());
        let pool_thread = {
            let worker = Arc::clone(&worker);
            loom::thread::spawn(move || worker.run())
        };
        let store = {
            let stream = Arc::clone(&stream);
            let registration = Arc::clone(&registration);
            loom::thread::spawn(move || {
                stream.buffered.lock().push_back(1);
                registration.wake();
            })
        };
        let stopper = {
            let stream = Arc::clone(&stream);
            loom::thread::spawn(move || {
                registration.stop();
                stream.stop_returned.store(true, Ordering::SeqCst);
            })
        };
        store.join().unwrap();
        stopper.join().unwrap();
        worker.shutdown();
        pool_thread.join().unwrap();
        // The event was handled before the stop returned or not at all.
        assert!(!stream.ran_after_stop.load(Ordering::SeqCst), "a handler ran after stop()");
    });
}
