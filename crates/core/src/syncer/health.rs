//! Per-tenant health: the circuit breakers fed by tenant-apiserver
//! failures, the timer that probes them, the upward items parked while a
//! breaker is open, and the VC conditions that make all of it visible.

use super::{Syncer, WorkItem};
use crate::vc_object::COND_SYNCER_HEALTHY;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use vc_api::error::ApiError;
use vc_api::metrics::Counter;
use vc_api::object::ResourceKind;
use vc_api::time::{Clock, Timestamp};
use vc_client::reflector::{Pool, Timer};

/// Tenant health as seen by the syncer's per-tenant circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantHealth {
    /// Synchronization flowing normally.
    Healthy,
    /// Breaker open (or probing): the tenant's downward sub-queue is
    /// paused and upward items are parked until a half-open probe
    /// succeeds.
    Degraded,
}

/// Circuit-breaker state machine for one tenant control plane.
#[derive(Debug)]
enum BreakerPhase {
    /// Requests flowing; failures counted.
    Closed,
    /// Tripped: tenant paused until the deadline (measured on the
    /// syncer's clock), then a probe runs.
    Open { until: Timestamp },
    /// Probe in flight; success closes, failure re-opens.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    phase: BreakerPhase,
    consecutive_failures: u32,
}

/// The breakers, their probe timer and the parked upward items.
pub(super) struct Health {
    /// Per-tenant circuit breakers fed by tenant-apiserver failures.
    breakers: Mutex<HashMap<String, Breaker>>,
    /// Probes the breakers whose Open window has passed; armed at the
    /// earliest Open deadline, idle while every breaker is closed.
    probe: Arc<Timer>,
    /// Upward items parked while their tenant's breaker is open; replayed
    /// on recovery.
    parked: Mutex<HashSet<WorkItem>>,
}

impl Health {
    /// Creates the state and registers the probe timer, which calls back
    /// into `syncer`, with the reflector pool.
    pub(super) fn new(syncer: Weak<Syncer>, clock: Arc<dyn Clock>) -> Self {
        Health {
            breakers: Mutex::new(HashMap::new()),
            probe: Timer::new(Pool::global(), clock, move || {
                syncer.upgrade()?.probe_due_breakers()
            }),
            parked: Mutex::new(HashSet::new()),
        }
    }

    fn is_degraded(&self, tenant: &str) -> bool {
        let breakers = self.breakers.lock();
        breakers.get(tenant).is_some_and(|b| !matches!(b.phase, BreakerPhase::Closed))
    }

    /// Counts one outage failure. Returns whether it tripped a closed
    /// breaker; either way an opened breaker arms the probe at `until`.
    fn note_failure(
        &self,
        tenant: &str,
        until: Timestamp,
        threshold: u32,
        trips: &Counter,
    ) -> bool {
        let (opened, tripped) = {
            let mut breakers = self.breakers.lock();
            let breaker = breakers
                .entry(tenant.to_string())
                .or_insert(Breaker { phase: BreakerPhase::Closed, consecutive_failures: 0 });
            match breaker.phase {
                BreakerPhase::Closed => {
                    breaker.consecutive_failures += 1;
                    let tripped = breaker.consecutive_failures >= threshold;
                    if tripped {
                        breaker.phase = BreakerPhase::Open { until };
                        // Counted under the lock so observers never see the
                        // tripped phase before the counter reflects it.
                        trips.inc();
                    }
                    (tripped, tripped)
                }
                BreakerPhase::HalfOpen => {
                    // A straggler failed while probing: re-open.
                    breaker.phase = BreakerPhase::Open { until };
                    (true, false)
                }
                BreakerPhase::Open { .. } => (false, false),
            }
        };
        if opened {
            self.probe.wake_at(until);
        }
        tripped
    }

    /// Records the outcome of a half-open probe: success closes the
    /// breaker (counted on `recoveries`), failure re-opens it until
    /// `reopen_until`. Returns whether the breaker closed.
    fn finish_probe(
        &self,
        tenant: &str,
        healthy: bool,
        reopen_until: Timestamp,
        recoveries: &Counter,
    ) -> bool {
        let mut breakers = self.breakers.lock();
        let Some(breaker) = breakers.get_mut(tenant) else { return false };
        if !matches!(breaker.phase, BreakerPhase::HalfOpen) {
            return false;
        }
        breaker.phase = if healthy {
            // Counted under the lock so observers never see the closed
            // phase before the counter reflects the recovery.
            recoveries.inc();
            BreakerPhase::Closed
        } else {
            BreakerPhase::Open { until: reopen_until }
        };
        breaker.consecutive_failures = 0;
        healthy
    }

    /// Resets the failure streak of a closed breaker.
    fn note_ok(&self, tenant: &str) {
        if let Some(breaker) = self.breakers.lock().get_mut(tenant) {
            if matches!(breaker.phase, BreakerPhase::Closed) {
                breaker.consecutive_failures = 0;
            }
        }
    }

    /// Flips every breaker whose Open deadline is at or before `now` to
    /// HalfOpen and returns their tenants.
    fn half_open_due(&self, now: Timestamp) -> Vec<String> {
        let mut due = Vec::new();
        for (tenant, breaker) in self.breakers.lock().iter_mut() {
            if matches!(breaker.phase, BreakerPhase::Open { until } if until <= now) {
                breaker.phase = BreakerPhase::HalfOpen;
                due.push(tenant.clone());
            }
        }
        due
    }

    /// The earliest Open deadline, if any breaker is open.
    fn next_deadline(&self) -> Option<Timestamp> {
        let breakers = self.breakers.lock();
        breakers
            .values()
            .filter_map(|b| match b.phase {
                BreakerPhase::Open { until } => Some(until),
                _ => None,
            })
            .min()
    }

    fn park(&self, item: WorkItem) {
        self.parked.lock().insert(item);
    }

    /// Removes and returns the tenant's parked upward items.
    fn take_parked(&self, tenant: &str) -> Vec<WorkItem> {
        let mut parked = self.parked.lock();
        let (mine, rest): (HashSet<_>, HashSet<_>) =
            parked.drain().partition(|i| &*i.tenant == tenant);
        *parked = rest;
        mine.into_iter().collect()
    }

    /// Forgets the tenant's breaker.
    pub(super) fn forget_breaker(&self, tenant: &str) {
        self.breakers.lock().remove(tenant);
    }

    /// Drops the tenant's parked upward items.
    pub(super) fn forget_parked(&self, tenant: &str) {
        self.parked.lock().retain(|i| &*i.tenant != tenant);
    }

    /// Stops the probe timer.
    pub(super) fn stop(&self) {
        self.probe.stop();
    }
}

/// Errors that indicate the tenant control plane itself is unreachable
/// (brownout/outage), as opposed to object-level races like conflicts
/// or not-found, which say nothing about the apiserver's health.
fn is_tenant_outage(err: &ApiError) -> bool {
    matches!(
        err,
        ApiError::Unavailable { .. } | ApiError::Timeout { .. } | ApiError::TooManyRequests { .. }
    )
}

impl Syncer {
    /// Health of a registered tenant as seen by its circuit breaker;
    /// `None` for unknown (unregistered or hibernated) tenants.
    pub fn tenant_health(&self, tenant: &str) -> Option<TenantHealth> {
        if !self.tenants.read().contains_key(tenant) {
            return None;
        }
        let degraded = self.health.is_degraded(tenant);
        Some(if degraded { TenantHealth::Degraded } else { TenantHealth::Healthy })
    }

    /// Records a successful tenant-apiserver operation: resets the failure
    /// streak while the breaker is closed. Open/half-open recovery is
    /// driven exclusively by [`probe_tenant`](Self::probe_tenant) so that
    /// recovery always resumes dispatch and drains dead letters.
    pub(crate) fn note_tenant_ok(&self, tenant: &str) {
        self.health.note_ok(tenant);
    }

    /// Records a failed tenant-apiserver operation; trips the breaker when
    /// the consecutive-failure threshold is reached. Tripping pauses the
    /// tenant's downward sub-queue (healthy tenants keep their fair-queue
    /// shares) and publishes a `SyncerHealthy=false` condition on the VC
    /// object.
    pub(crate) fn note_tenant_error(&self, tenant: &str, err: &ApiError) {
        if !is_tenant_outage(err) {
            return;
        }
        let until = self.clock.now().add(self.config.breaker_open);
        let threshold = self.config.breaker_threshold;
        if self.health.note_failure(tenant, until, threshold, &self.metrics.breaker_trips) {
            self.mark_stats_dirty(tenant);
            self.downward.pause_tenant(tenant);
            let message = format!("tenant apiserver unreachable: {err}");
            self.publish_condition(COND_SYNCER_HEALTHY, tenant, false, "BreakerOpen", &message);
        }
    }

    /// The breaker timer's body: flips every breaker whose Open deadline
    /// has passed to HalfOpen, probes its tenant, and returns the earliest
    /// Open deadline left.
    fn probe_due_breakers(&self) -> Option<Timestamp> {
        for tenant in &self.health.half_open_due(self.clock.now()) {
            self.mark_stats_dirty(tenant);
            self.probe_tenant(tenant);
        }
        self.health.next_deadline()
    }

    /// Half-open probe: one cheap read against the tenant apiserver. On
    /// success the breaker closes — the sub-queue resumes, parked upward
    /// items replay, dead letters drain, and the VC condition flips back
    /// to healthy. On failure the breaker re-opens for another window.
    fn probe_tenant(&self, tenant: &str) {
        let Some(state) = self.tenant(tenant) else {
            // Tenant disappeared while tripped; drop its breaker.
            self.health.forget_breaker(tenant);
            return;
        };
        let healthy = state.client.list(ResourceKind::Namespace, None).is_ok();
        let reopen_until = self.clock.now().add(self.config.breaker_open);
        let recoveries = &self.metrics.breaker_recoveries;
        if !self.health.finish_probe(tenant, healthy, reopen_until, recoveries) {
            return;
        }
        self.mark_stats_dirty(tenant);
        self.downward.resume_tenant(tenant);
        for item in self.health.take_parked(tenant) {
            self.upward.add(item);
        }
        let message = "half-open probe succeeded";
        self.publish_condition(COND_SYNCER_HEALTHY, tenant, true, "Recovered", message);
        self.drain_dead_letters();
    }

    /// Parks an upward item while its tenant's breaker is open; replayed
    /// by [`probe_tenant`](Self::probe_tenant) on recovery.
    pub(crate) fn park_upward(&self, item: WorkItem) {
        self.health.park(item);
    }

    /// Publishes `condition` on the tenant's VC object. No-op when the
    /// condition already holds the given status.
    pub(super) fn publish_condition(
        &self,
        condition: &str,
        tenant: &str,
        status: bool,
        reason: &str,
        message: &str,
    ) {
        self.update_vc_status(tenant, |vc| {
            vc.status.set_condition(condition, status, reason, message)
        });
    }
}
