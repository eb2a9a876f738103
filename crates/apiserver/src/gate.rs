//! Inflight-request gate modeling the apiserver's `max-requests-inflight`
//! behavior.
//!
//! A fixed number of permits bounds concurrent request execution; excess
//! requests queue up to a configurable depth and fail fast with
//! `TooManyRequests` beyond it. The paper's §I "performance interference"
//! problem — one tenant crowding out others on a shared apiserver — is this
//! gate saturating; the shared-control-plane example demonstrates it.

use crate::auth::Verb;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::ResourceKind;

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

#[derive(Debug)]
struct State {
    inflight: usize,
    queued: usize,
    /// Requests that ever had to queue (monotone).
    waits: u64,
}

/// A permit-counted admission gate.
#[derive(Debug)]
pub struct InflightGate {
    state: Mutex<State>,
    cond: Condvar,
    max_inflight: usize,
    max_queued: usize,
    queue_timeout: Duration,
}

impl InflightGate {
    /// Creates a gate with `max_inflight` concurrent permits, at most
    /// `max_queued` waiters and a per-waiter `queue_timeout`.
    pub fn new(max_inflight: usize, max_queued: usize, queue_timeout: Duration) -> Arc<Self> {
        assert!(max_inflight > 0, "max_inflight must be positive");
        Arc::new(InflightGate {
            state: Mutex::new(State { inflight: 0, queued: 0, waits: 0 }),
            cond: Condvar::new(),
            max_inflight,
            max_queued,
            queue_timeout,
        })
    }

    /// Acquires a permit, blocking in the queue if necessary.
    ///
    /// # Errors
    ///
    /// [`ApiError::TooManyRequests`] when the queue is full,
    /// [`ApiError::Timeout`] when the queue wait exceeds the timeout.
    pub fn acquire(self: &Arc<Self>) -> ApiResult<Permit> {
        let mut state = self.state.lock();
        if state.inflight < self.max_inflight {
            state.inflight += 1;
            return Ok(Permit { gate: Arc::clone(self) });
        }
        if state.queued >= self.max_queued {
            return Err(ApiError::too_many_requests(
                format!(
                    "apiserver overloaded ({} inflight, {} queued)",
                    state.inflight, state.queued
                ),
                10,
            ));
        }
        state.queued += 1;
        state.waits += 1;
        let deadline = std::time::Instant::now() + self.queue_timeout;
        loop {
            let timed_out = self.cond.wait_until(&mut state, deadline).timed_out();
            if state.inflight < self.max_inflight {
                state.queued -= 1;
                state.inflight += 1;
                return Ok(Permit { gate: Arc::clone(self) });
            }
            if timed_out {
                state.queued -= 1;
                return Err(ApiError::timeout("timed out waiting for apiserver capacity"));
            }
        }
    }

    /// Current number of executing requests.
    pub fn inflight(&self) -> usize {
        self.state.lock().inflight
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

    fn release(&self) {
        let mut state = self.state.lock();
        state.inflight -= 1;
        self.cond.notify_one();
    }
}

/// RAII permit; dropping it releases the slot.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<InflightGate>,
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
        let p1 = gate.acquire().unwrap();
        let _p2 = gate.acquire().unwrap();
        assert_eq!(gate.inflight(), 2);
        // Queue depth 0: immediate rejection.
        let err = gate.acquire().unwrap_err();
        assert!(matches!(err, ApiError::TooManyRequests { .. }));
        assert_eq!(gate.waits_total(), 0, "a rejection is not a wait");
        drop(p1);
        let _p3 = gate.acquire().unwrap();
    }

    #[test]
    fn queued_waiter_proceeds_on_release() {
        let gate = InflightGate::new(1, 4, Duration::from_secs(5));
        let permit = gate.acquire().unwrap();
        let g2 = Arc::clone(&gate);
        let handle = thread::spawn(move || g2.acquire().map(|_p| ()));
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
        let _p = gate.acquire().unwrap();
        let err = gate.acquire().unwrap_err();
        assert!(matches!(err, ApiError::Timeout { .. }));
        assert_eq!(gate.waits_total(), 1, "a wait that timed out still counts");
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
                    let _p = g.acquire().unwrap();
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
