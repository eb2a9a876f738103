//! The admission gate: a fixed number of permits bounds how many requests
//! execute at once, the apiserver's `max-requests-inflight`.
//!
//! A request that finds a permit free takes it at once. Otherwise it
//! queues a ticket under its key, or fails fast with `TooManyRequests`
//! once `max_queued` tickets wait. A release never returns a permit to the
//! pool while a ticket waits: it hands it to the front ticket of the next
//! key in round-robin order and wakes that waiter alone, so a newcomer
//! cannot overtake a queued request. A ticket whose wait expires is
//! withdrawn with `Timeout`, unless a release granted it first, in which
//! case the waiter keeps the permit; either way no permit leaks.
//!
//! Both admission points build this one gate:
//!
//! - [`crate::ApiServer`] queues every request under one key, so its order
//!   is strict FIFO. That is the paper's baseline, `max-requests-inflight`
//!   without API Priority and Fairness: its §I "performance interference"
//!   problem, one tenant crowding out the others on a shared apiserver, is
//!   this gate saturating, and a per-user order would soften it.
//! - The wire server keys tickets by the authenticated user, so a flood
//!   from one user waits behind its own tickets.
//!
//! The locks come from the `vc-sync` facade (through `vc_store::sync`),
//! so `tests/loom_gate.rs` checks this protocol under `--cfg loom`.

use crate::auth::Verb;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::ResourceKind;
use vc_store::sync::atomic::{AtomicBool, Ordering};
use vc_store::sync::{Arc, Condvar, Mutex};

/// A fault hook interposed on every request against an apiserver.
///
/// Attached via [`crate::ApiServer::set_fault_hook`] and consulted by
/// `vc_client::Client` before each verb, this is the seam chaos tests use to
/// model apiserver brownouts and outages: the hook may fail the request
/// outright (`Err`), stall it (`Ok(Some(delay))`), or let it pass
/// (`Ok(None)`). Production paths never attach one, so the request path is
/// untouched by default.
pub trait RequestFault: Send + Sync {
    /// Decides the fate of one request identified by the requesting `user`,
    /// the `verb`, and the target resource `kind`.
    ///
    /// # Errors
    ///
    /// Whatever [`ApiError`] the hook chooses to inject; the request fails
    /// with it without reaching the server.
    fn intercept(&self, user: &str, verb: Verb, kind: ResourceKind) -> ApiResult<Option<Duration>>;
}

/// One waiting request.
#[derive(Debug, Default)]
struct Ticket {
    /// Set by the release that hands this ticket a permit. Read and
    /// written only under the gate's lock.
    granted: AtomicBool,
    /// Wakes this ticket's waiter alone.
    wake: Condvar,
}

#[derive(Debug, Default)]
struct State {
    free: usize,
    queued: usize,
    /// Requests that ever had to queue (monotone).
    waits: u64,
    /// Keys with waiting tickets, in round-robin order, each with its
    /// tickets in arrival order. No entry is empty.
    waiting: VecDeque<(String, VecDeque<Arc<Ticket>>)>,
}

impl State {
    /// Removes a ticket whose wait expired, and its key once it has none.
    fn withdraw(&mut self, key: &str, ticket: &Arc<Ticket>) {
        let at = self.waiting.iter().position(|(k, _)| k == key).expect("waiting key");
        let tickets = &mut self.waiting[at].1;
        tickets.retain(|t| !Arc::ptr_eq(t, ticket));
        if tickets.is_empty() {
            self.waiting.remove(at);
        }
        self.queued -= 1;
    }
}

/// A permit-counted admission gate with FIFO hand-off per key and
/// round-robin order across keys.
#[derive(Debug)]
pub struct InflightGate {
    state: Mutex<State>,
    permits: usize,
    max_queued: usize,
    timeout: Duration,
}

impl InflightGate {
    /// Creates a gate with `permits` concurrent permits, at most
    /// `max_queued` waiting tickets and a per-ticket wait of `timeout`.
    pub fn new(permits: usize, max_queued: usize, timeout: Duration) -> Arc<Self> {
        assert!(permits > 0, "permits must be positive");
        Arc::new(InflightGate {
            state: Mutex::new(State { free: permits, ..State::default() }),
            permits,
            max_queued,
            timeout,
        })
    }

    /// Takes a permit, waiting for one under `key` if none is free.
    ///
    /// # Errors
    ///
    /// [`ApiError::TooManyRequests`] when `max_queued` tickets already
    /// wait, [`ApiError::Timeout`] when the wait outlasts the timeout.
    pub fn acquire(self: &Arc<Self>, key: &str) -> ApiResult<Permit> {
        let mut state = self.state.lock();
        if state.free > 0 {
            state.free -= 1;
            return Ok(Permit { gate: Arc::clone(self), waited: false });
        }
        if state.queued >= self.max_queued {
            return Err(ApiError::too_many_requests(
                format!("overloaded ({} inflight, {} queued)", self.permits, state.queued),
                10,
            ));
        }
        let ticket = Arc::new(Ticket::default());
        match state.waiting.iter_mut().find(|(k, _)| k == key) {
            Some((_, tickets)) => tickets.push_back(Arc::clone(&ticket)),
            None => {
                state.waiting.push_back((key.to_string(), VecDeque::from([Arc::clone(&ticket)])))
            }
        }
        state.queued += 1;
        state.waits += 1;
        let deadline = Instant::now() + self.timeout;
        while !ticket.granted.load(Ordering::Relaxed) {
            if ticket.wake.wait_until(&mut state, deadline) {
                break;
            }
        }
        // A grant that raced the timeout stands: the release already took
        // the ticket off the queue.
        if ticket.granted.load(Ordering::Relaxed) {
            return Ok(Permit { gate: Arc::clone(self), waited: true });
        }
        state.withdraw(key, &ticket);
        Err(ApiError::timeout(format!("waited {:?} for a permit", self.timeout)))
    }

    /// Current number of executing requests.
    pub fn inflight(&self) -> usize {
        self.permits - self.state.lock().free
    }

    /// Current number of queued requests.
    pub fn queued(&self) -> usize {
        self.state.lock().queued
    }

    /// How many requests have had to queue for a permit since the gate was
    /// created, whether they got one or timed out. Requests rejected
    /// outright by a full queue are not counted.
    pub fn waits_total(&self) -> u64 {
        self.state.lock().waits
    }

    /// Hands the permit to the front ticket of the next waiting key, or
    /// returns it to the pool when no ticket waits.
    fn release(&self) {
        let mut state = self.state.lock();
        let Some((key, mut tickets)) = state.waiting.pop_front() else {
            state.free += 1;
            return;
        };
        let ticket = tickets.pop_front().expect("no waiting entry is empty");
        if !tickets.is_empty() {
            state.waiting.push_back((key, tickets));
        }
        state.queued -= 1;
        ticket.granted.store(true, Ordering::Relaxed);
        ticket.wake.notify_one();
    }
}

/// RAII permit; dropping it releases the slot.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<InflightGate>,
    waited: bool,
}

impl Permit {
    /// Whether the request queued for this permit rather than finding it
    /// free.
    pub fn waited(&self) -> bool {
        self.waited
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn permits_up_to_capacity() {
        let gate = InflightGate::new(2, 0, Duration::from_millis(50));
        let p1 = gate.acquire("").unwrap();
        let _p2 = gate.acquire("").unwrap();
        assert_eq!(gate.inflight(), 2);
        // Queue depth 0: immediate rejection.
        let err = gate.acquire("").unwrap_err();
        assert!(matches!(err, ApiError::TooManyRequests { .. }));
        assert_eq!(gate.waits_total(), 0, "a rejection is not a wait");
        drop(p1);
        let _p3 = gate.acquire("").unwrap();
    }

    #[test]
    fn queued_waiter_proceeds_on_release() {
        let gate = InflightGate::new(1, 4, Duration::from_secs(5));
        let permit = gate.acquire("").unwrap();
        let g2 = Arc::clone(&gate);
        let handle = thread::spawn(move || g2.acquire("").map(|_p| ()));
        // Let the waiter enqueue, then release.
        thread::sleep(Duration::from_millis(30));
        assert_eq!(gate.queued(), 1);
        drop(permit);
        handle.join().unwrap().unwrap();
        assert_eq!(gate.waits_total(), 1);
    }

    #[test]
    fn queue_timeout() {
        let gate = InflightGate::new(1, 4, Duration::from_millis(30));
        let _p = gate.acquire("").unwrap();
        let err = gate.acquire("").unwrap_err();
        assert!(matches!(err, ApiError::Timeout { .. }));
        assert_eq!(gate.waits_total(), 1, "a wait that timed out still counts");
    }

    /// A queued request is granted before a newcomer: the holder that
    /// releases and at once asks again queues behind the waiter.
    #[test]
    fn queued_waiter_is_not_overtaken() {
        let gate = InflightGate::new(1, 4, Duration::from_secs(5));
        let order = std::sync::Mutex::new(Vec::new());
        let permit = gate.acquire("").unwrap();
        thread::scope(|s| {
            let (gate, order) = (&gate, &order);
            s.spawn(move || {
                let _p = gate.acquire("").unwrap();
                order.lock().unwrap().push("waiter");
                // Hold the permit until the newcomer has queued behind, or
                // has overtaken and been served.
                while gate.queued() == 0 && order.lock().unwrap().len() < 2 {
                    thread::sleep(Duration::from_millis(1));
                }
            });
            while gate.queued() < 1 {
                thread::sleep(Duration::from_millis(1));
            }
            drop(permit);
            let again = gate.acquire("").unwrap();
            assert!(again.waited(), "the newcomer queued");
            order.lock().unwrap().push("newcomer");
        });
        assert_eq!(*order.lock().unwrap(), ["waiter", "newcomer"]);
        assert_eq!(gate.waits_total(), 2);
        assert_eq!(gate.inflight(), 0);
    }

    /// An expired ticket is withdrawn with its key; the next release goes
    /// back to the pool.
    #[test]
    fn timed_out_ticket_leaves_nothing_behind() {
        let gate = InflightGate::new(1, 4, Duration::from_millis(20));
        let permit = gate.acquire("").unwrap();
        assert!(!permit.waited());
        let err = gate.acquire("late").unwrap_err();
        assert!(matches!(err, ApiError::Timeout { .. }));
        assert!(gate.state.lock().waiting.is_empty());
        assert_eq!(gate.queued(), 0);
        drop(permit);
        assert_eq!(gate.inflight(), 0, "the permit went back to the pool");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = InflightGate::new(0, 0, Duration::from_millis(1));
    }

    #[test]
    fn stress_many_threads() {
        let gate = InflightGate::new(4, 64, Duration::from_secs(10));
        let mut handles = Vec::new();
        for _ in 0..32 {
            let g = Arc::clone(&gate);
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    let _p = g.acquire("").unwrap();
                    assert!(g.inflight() <= 4);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gate.inflight(), 0);
    }
}
