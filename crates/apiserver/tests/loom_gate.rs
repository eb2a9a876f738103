//! Loom model-checking tests for the admission gate.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p vc-apiserver --release --test loom_gate -- loom_
//! ```
//!
//! `vc_apiserver::gate` takes its locks from `vc-sync` (re-exported as
//! `vc_store::sync`), so these models drive the *production*
//! `InflightGate::acquire` and permit release under exhaustive
//! interleaving (bounded preemption). The checker lets every
//! timed wait time out at any scheduling point where another thread could
//! run, and reports a state in which only timed waiters are left as a
//! stall: a permit that is not handed to a waiting ticket shows as one.
//! What they prove, with one permit:
//!
//! * **No lost grant**: a release while a ticket waits hands the permit to
//!   that ticket and wakes its waiter.
//! * **Timeout against release**: whichever of a waiter's timeout and a
//!   release wins, the waiter ends up holding the permit or the permit is
//!   back in the pool, never both and never neither.
//! * **Two keys, two releases**: each of two waiters of different keys
//!   gets the permit once, never both at the same time, and nothing is
//!   left queued.

#![cfg(loom)]

use std::time::Duration;
use vc_api::error::ApiError;
use vc_apiserver::gate::InflightGate;
use vc_store::sync::atomic::{AtomicUsize, Ordering};
use vc_store::sync::Arc;

/// Any timeout: the checker does not model durations.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Acquires under `key` until granted, asking again after a timeout (a
/// client retrying a `504`); `holders` counts the threads holding a
/// permit, which must never exceed the gate's one.
fn hold_once(gate: &Arc<InflightGate>, key: &str, holders: &AtomicUsize) {
    loop {
        match gate.acquire(key) {
            Ok(_permit) => {
                assert_eq!(holders.fetch_add(1, Ordering::SeqCst), 0, "one permit, two holders");
                holders.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            Err(err) => assert!(matches!(err, ApiError::Timeout { .. }), "{err}"),
        }
    }
}

#[test]
fn loom_gate_release_grants_the_waiting_ticket() {
    loom::model(|| {
        let gate = InflightGate::new(1, 4, TIMEOUT);
        let holders = Arc::new(AtomicUsize::new(0));
        let held = gate.acquire("holder").expect("free permit");
        let waiter = {
            let (gate, holders) = (Arc::clone(&gate), Arc::clone(&holders));
            loom::thread::spawn(move || hold_once(&gate, "waiter", &holders))
        };
        drop(held);
        waiter.join().unwrap();
        assert_eq!(gate.inflight(), 0, "the permit is back in the pool");
        assert_eq!(gate.queued(), 0);
    });
}

#[test]
fn loom_gate_timeout_against_release_leaks_no_permit() {
    loom::model(|| {
        let gate = InflightGate::new(1, 4, TIMEOUT);
        let held = gate.acquire("holder").expect("free permit");
        let waiter = {
            let gate = Arc::clone(&gate);
            loom::thread::spawn(move || gate.acquire("waiter"))
        };
        drop(held);
        let outcome = waiter.join().unwrap();
        // free + held == permits: the waiter holds the one permit, or it
        // is back in the pool.
        let held = usize::from(outcome.is_ok());
        assert_eq!(gate.inflight(), held, "a permit leaked or was granted twice");
        assert_eq!(gate.queued(), 0, "the ticket was withdrawn or granted");
        if let Err(err) = &outcome {
            assert!(matches!(err, ApiError::Timeout { .. }), "{err}");
        }
        drop(outcome);
        assert_eq!(gate.inflight(), 0);
    });
}

#[test]
fn loom_gate_two_keys_each_get_the_permit_once() {
    loom::model(|| {
        let gate = InflightGate::new(1, 4, TIMEOUT);
        let holders = Arc::new(AtomicUsize::new(0));
        let held = gate.acquire("holder").expect("free permit");
        let waiters: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|key| {
                let (gate, holders) = (Arc::clone(&gate), Arc::clone(&holders));
                loom::thread::spawn(move || hold_once(&gate, key, &holders))
            })
            .collect();
        drop(held);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(gate.inflight(), 0, "the permit is back in the pool");
        assert_eq!(gate.queued(), 0);
    });
}
