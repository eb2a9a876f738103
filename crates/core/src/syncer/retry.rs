//! Downward retries: per-item failure counts spent against the retry
//! budget under exponential backoff, the dead-letter set the scanner
//! drains, and the items an admission policy blocked for good.

use super::{Syncer, TenantHealth, WorkItem};
use crate::vc_object::COND_SYNCER_POLICY_BLOCKED;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::ApiError;
use vc_api::metrics::{Counter, Gauge};
use vc_api::time::waker_fn;
use vc_client::BackoffPolicy;

/// Failure counts, dead letters and policy blocks.
#[derive(Default)]
pub(super) struct Retry {
    /// Consecutive failures per downward item: the exponent of its next
    /// backoff, spent against the retry budget, cleared on success.
    failures: Mutex<HashMap<WorkItem, u32>>,
    /// Items that exhausted their retry budget; parked here until the
    /// periodic scanner re-validates and re-queues (or drops) them.
    dead_letter: Mutex<HashSet<WorkItem>>,
    /// Per-tenant items dead-lettered by an admission policy rejection.
    /// A tenant with a non-empty set carries the `SyncerPolicyBlocked` VC
    /// condition; the condition is lowered when its last blocked item
    /// reconciles cleanly (tenant fixed or deleted the object).
    policy_blocked: Mutex<HashMap<Arc<str>, HashSet<WorkItem>>>,
}

impl Retry {
    /// Spends one failure of `item` against `budget`: the delay before
    /// its next attempt, or `None` (and a cleared count) once the budget
    /// is spent.
    fn next_delay(
        &self,
        item: &WorkItem,
        budget: u32,
        backoff: &BackoffPolicy,
    ) -> Option<Duration> {
        let mut failures = self.failures.lock();
        let count = failures.entry(item.clone()).or_insert(0);
        if *count >= budget {
            failures.remove(item);
            return None;
        }
        let delay = backoff.delay(*count);
        *count += 1;
        Some(delay)
    }

    fn forget_failures(&self, item: &WorkItem) {
        self.failures.lock().remove(item);
    }

    /// Whether any item is waiting out a backoff.
    pub(super) fn has_pending(&self) -> bool {
        !self.failures.lock().is_empty()
    }

    /// Parks `item` in the dead-letter set, counting it on `reason` when
    /// it was not parked already.
    fn dead_letter(&self, item: WorkItem, reason: &Counter, len: &Gauge) {
        let mut dead = self.dead_letter.lock();
        if dead.insert(item) {
            reason.inc();
            len.set(dead.len() as i64);
        }
    }

    fn dead_letter_len(&self) -> usize {
        self.dead_letter.lock().len()
    }

    /// Records a policy-blocked item; returns whether it is its tenant's
    /// first.
    fn block(&self, item: WorkItem) -> bool {
        let mut blocked = self.policy_blocked.lock();
        let items = blocked.entry(item.tenant.clone()).or_default();
        let was_empty = items.is_empty();
        items.insert(item);
        was_empty
    }

    /// Clears a policy block; returns whether it was its tenant's last.
    fn unblock(&self, item: &WorkItem) -> bool {
        let mut blocked = self.policy_blocked.lock();
        if blocked.is_empty() {
            false
        } else if let Some(items) = blocked.get_mut(&item.tenant) {
            let removed = items.remove(item);
            let drained = items.is_empty();
            if drained {
                blocked.remove(&item.tenant);
            }
            removed && drained
        } else {
            false
        }
    }

    /// Empties the dead-letter set by `health`, the breaker view of each
    /// item's tenant: items of unknown tenants are dropped, those of
    /// degraded ones stay parked, and the rest are returned for requeue.
    fn drain(
        &self,
        len: &Gauge,
        health: impl Fn(&WorkItem) -> Option<TenantHealth>,
    ) -> Vec<WorkItem> {
        let mut dead = self.dead_letter.lock();
        let mut parked = HashSet::new();
        let mut ready = Vec::new();
        for item in dead.drain() {
            match health(&item) {
                None => {}
                Some(TenantHealth::Degraded) => {
                    parked.insert(item);
                }
                Some(TenantHealth::Healthy) => ready.push(item),
            }
        }
        *dead = parked;
        len.set(dead.len() as i64);
        ready
    }

    /// Drops the tenant's dead letters and policy blocks.
    pub(super) fn forget_tenant(&self, tenant: &str, len: &Gauge) {
        {
            let mut dead = self.dead_letter.lock();
            dead.retain(|i| &*i.tenant != tenant);
            len.set(dead.len() as i64);
        }
        self.policy_blocked.lock().remove(tenant);
    }
}

impl Syncer {
    /// Schedules a failed downward item for retry under its per-item
    /// exponential backoff: a timer on the syncer clock delivers it back
    /// into the downward queue. An item that has already consumed its
    /// retry budget is dead-lettered instead: parked until the periodic
    /// scanner re-validates it (so a persistently failing object cannot
    /// occupy the retry pipeline forever).
    pub(crate) fn requeue_downward(&self, item: WorkItem) {
        let budget = self.config.retry_budget;
        let Some(delay) = self.retry.next_delay(&item, budget, &self.config.retry_backoff) else {
            let metrics = &self.metrics;
            self.retry.dead_letter(item, &metrics.retry_exhausted, &metrics.dead_letter_len);
            return;
        };
        self.metrics.retries.inc();
        let syncer = self.this.clone();
        let item = Mutex::new(Some(item));
        let deliver = waker_fn(move || {
            if let (Some(syncer), Some(item)) = (syncer.upgrade(), item.lock().take()) {
                syncer.deliver_retry(item);
            }
        });
        self.clock.wake_at(self.clock.now().add(delay), deliver);
    }

    /// Re-queues a backed-off item once its delay has passed — unless its
    /// tenant was unregistered or hibernated since the failure, in which
    /// case the item and its failure count are dropped instead of leaking
    /// into the queue.
    fn deliver_retry(&self, item: WorkItem) {
        if !self.tenants.read().contains_key(&item.tenant) {
            self.retry.forget_failures(&item);
            return;
        }
        let tenant = item.tenant.clone();
        self.downward.add(&tenant, item);
    }

    /// Routes a downward item rejected by an admission policy straight to
    /// the dead-letter set. `Forbidden` is permanently fatal — retrying
    /// the identical object can never succeed — so unlike
    /// [`requeue_downward`](Self::requeue_downward) this spends no retry
    /// budget and occupies no backoff slot; the scanner re-validates the
    /// item only after the tenant changes it. The first blocked item per
    /// tenant raises the `SyncerPolicyBlocked` condition on the tenant's
    /// VC so the denial is visible on its dashboard.
    pub(crate) fn dead_letter_policy_blocked(&self, item: WorkItem, err: &ApiError) {
        let tenant = item.tenant.clone();
        self.retry.forget_failures(&item);
        let metrics = &self.metrics;
        self.retry.dead_letter(item.clone(), &metrics.policy_blocked, &metrics.dead_letter_len);
        if self.retry.block(item) {
            let rule = err.policy_rule().unwrap_or("forbidden");
            let message = err.to_string();
            self.publish_condition(COND_SYNCER_POLICY_BLOCKED, &tenant, true, rule, &message);
            self.mark_stats_dirty(&tenant);
        }
    }

    /// Clears an item's retry history after a successful reconcile so its
    /// next failure starts from the base backoff again. When the item was
    /// the tenant's last policy-blocked one, the `SyncerPolicyBlocked`
    /// condition is lowered — the tenant corrected (or deleted) the
    /// offending object.
    pub(crate) fn forget_retries(&self, item: &WorkItem) {
        self.retry.forget_failures(item);
        if self.retry.unblock(item) {
            self.publish_condition(
                COND_SYNCER_POLICY_BLOCKED,
                &item.tenant,
                false,
                "Recovered",
                "downward sync succeeded after policy rejection",
            );
            self.mark_stats_dirty(&item.tenant);
        }
    }

    /// Number of items currently parked in the dead-letter set.
    pub fn dead_letter_len(&self) -> usize {
        self.retry.dead_letter_len()
    }

    /// Re-validates dead-lettered items: items belonging to live, healthy
    /// tenants re-enter the downward queue with a fresh retry budget;
    /// items of unregistered/hibernated tenants are dropped; items of
    /// breaker-degraded tenants stay parked until recovery. Called by the
    /// periodic scanner and on breaker recovery.
    pub fn drain_dead_letters(&self) {
        let ready =
            self.retry.drain(&self.metrics.dead_letter_len, |i| self.tenant_health(&i.tenant));
        for item in ready {
            self.retry.forget_failures(&item);
            let tenant = item.tenant.clone();
            self.downward.add(&tenant, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Framework, FrameworkConfig};
    use vc_api::object::ResourceKind;
    use vc_api::time::SimClock;

    #[test]
    fn retries_back_off_within_budget_and_forget_resets() {
        let clock = SimClock::new();
        let mut config = FrameworkConfig::minimal();
        config.clock = Some(clock.clone() as _);
        config.syncer.scan_interval = None;
        config.syncer.retry_backoff =
            BackoffPolicy { base: Duration::from_millis(5), max: Duration::from_millis(40) };
        config.syncer.retry_budget = 3;
        let fw = Framework::start(config);
        fw.create_tenant("t").unwrap();
        let syncer = &fw.syncer;
        let item = |tenant: &str| WorkItem {
            tenant: tenant.into(),
            kind: ResourceKind::ConfigMap,
            key: "default/x".into(),
        };
        let failures = |item: &WorkItem| syncer.retry.failures.lock().get(item).copied();
        // Every delivery into the downward queue is an add or, while the
        // item is still pending, a dedup.
        let delivered = || syncer.downward.adds.get() + syncer.downward.deduped.get();

        // Three failures inside the budget arm 5, 10 and 20 ms timers.
        let x = item("t");
        for n in 1..=3 {
            syncer.requeue_downward(x.clone());
            assert_eq!(failures(&x), Some(n));
        }
        assert_eq!(syncer.metrics.retries.get(), 3);
        // A failure past the budget dead-letters and clears the count.
        syncer.requeue_downward(x.clone());
        assert_eq!(syncer.metrics.retries.get(), 3);
        assert_eq!(syncer.metrics.retry_exhausted.get(), 1);
        assert_eq!(syncer.dead_letter_len(), 1);
        assert_eq!(failures(&x), None);

        let before = delivered();
        clock.advance(Duration::from_millis(4));
        assert_eq!(delivered(), before, "no retry is delivered early");
        clock.advance(Duration::from_millis(1));
        assert_eq!(delivered(), before + 1, "the 5 ms retry is due");
        clock.advance(Duration::from_millis(5));
        assert_eq!(delivered(), before + 2, "the 10 ms retry is due");
        clock.advance(Duration::from_millis(9));
        assert_eq!(delivered(), before + 2, "the 20 ms retry is not");
        clock.advance(Duration::from_millis(1));
        assert_eq!(delivered(), before + 3);

        // Success forgets the failures: the next backoff starts at the base.
        let y = WorkItem { key: "default/y".into(), ..x };
        syncer.requeue_downward(y.clone());
        syncer.requeue_downward(y.clone());
        assert_eq!(failures(&y), Some(2));
        syncer.forget_retries(&y);
        assert_eq!(failures(&y), None);
        clock.advance(Duration::from_millis(40));

        // An item whose tenant went away is dropped, and forgotten, at delivery.
        let gone = item("gone");
        syncer.requeue_downward(gone.clone());
        let before = delivered();
        clock.advance(Duration::from_millis(5));
        assert_eq!(delivered(), before, "no delivery for an unregistered tenant");
        assert_eq!(failures(&gone), None);
        fw.shutdown();
    }
}
