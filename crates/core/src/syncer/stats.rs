//! The per-tenant dashboard: reconcile-duration histograms, queue-depth
//! gauges, and the [`TenantSyncStats`] row published onto each tenant's
//! VC status.

use super::{Syncer, TenantHealth};
use crate::vc_object::TenantSyncStats;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::time::Duration;
use vc_obs::{GaugeFamily, HistogramFamily, MetricsRegistry};

/// Upper bucket bounds (µs) for per-tenant sync-duration histograms:
/// 100µs to 5s, matching the paper's sub-ms fast path through multi-second
/// brownout tails.
const SYNC_DURATION_BUCKETS_US: &[u64] =
    &[100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000];

/// The dashboard's metric families and publish bookkeeping.
pub(super) struct Stats {
    /// Per-tenant reconcile duration (µs), labels `[tenant, direction]`.
    sync_duration: HistogramFamily,
    /// Per-tenant downward sub-queue depth, labels `[tenant]`.
    queue_depth: GaugeFamily,
    /// Last stats published onto each VC status, to skip no-op writes.
    last_published: Mutex<HashMap<String, TenantSyncStats>>,
    /// Tenants whose dashboard inputs changed since the last publish
    /// pass (reconciles, breaker transitions, registration). The scanner
    /// republishes exactly these instead of walking every tenant — the
    /// event-fed analogue of the scanner's dirty keys for stats.
    dirty: Mutex<HashSet<String>>,
}

impl Stats {
    /// Registers the per-tenant families in `registry`.
    pub(super) fn new(registry: &MetricsRegistry) -> Self {
        Stats {
            sync_duration: registry.histogram(
                "vc_syncer_tenant_sync_duration_us",
                "Per-tenant reconcile duration (microseconds) by direction.",
                &["tenant", "direction"],
                SYNC_DURATION_BUCKETS_US,
            ),
            queue_depth: registry.gauge(
                "vc_syncer_tenant_queue_depth",
                "Per-tenant downward sub-queue depth.",
                &["tenant"],
            ),
            last_published: Mutex::new(HashMap::new()),
            dirty: Mutex::new(HashSet::new()),
        }
    }

    /// Records one reconcile of `tenant`'s in `direction`.
    pub(super) fn observe(&self, tenant: &str, direction: &str, elapsed: Duration) {
        self.sync_duration.with(&[tenant, direction]).observe_ms(elapsed.as_micros() as u64);
    }

    /// Schedules the tenant for the next publish pass. The name is copied
    /// only when the tenant is not scheduled yet: once per pass, not once
    /// per reconcile.
    fn mark(&self, tenant: &str) {
        let mut dirty = self.dirty.lock();
        if !dirty.contains(tenant) {
            dirty.insert(tenant.to_string());
        }
    }

    fn dirty_len(&self) -> usize {
        self.dirty.lock().len()
    }

    /// Empties the publish schedule; returns its tenants in name order.
    fn take_dirty(&self) -> Vec<String> {
        let mut dirty: Vec<String> = std::mem::take(&mut *self.dirty.lock()).into_iter().collect();
        dirty.sort();
        dirty
    }

    /// The tenant's dashboard row, read from its downward histogram.
    fn row(
        &self,
        tenant: &str,
        queue_depth: u64,
        slow_ops: u64,
        health: TenantHealth,
    ) -> TenantSyncStats {
        let hist = self.sync_duration.with(&[tenant, "downward"]);
        TenantSyncStats {
            queue_depth,
            sync_p50_us: hist.percentile(0.5),
            sync_p99_us: hist.percentile(0.99),
            synced_objects: hist.count() as u64,
            slow_ops,
            breaker: format!("{health:?}"),
        }
    }

    fn set_queue_depth(&self, tenant: &str, depth: usize) {
        self.queue_depth.with(&[tenant]).set(depth as i64);
    }

    /// Takes the tenant off the next publish pass.
    pub(super) fn forget_dirty(&self, tenant: &str) {
        self.dirty.lock().remove(tenant);
    }

    /// Forgets what was last published for the tenant.
    pub(super) fn forget_published(&self, tenant: &str) {
        self.last_published.lock().remove(tenant);
    }

    /// Records `stats` as the tenant's published row; returns `false` when
    /// that row is already the last one published.
    fn note_published(&self, tenant: &str, stats: &TenantSyncStats) -> bool {
        let mut last = self.last_published.lock();
        if last.get(tenant) == Some(stats) {
            return false;
        }
        last.insert(tenant.to_string(), stats.clone());
        true
    }
}

impl Syncer {
    /// Point-in-time sync statistics for one registered tenant — the
    /// dashboard row the syncer publishes onto the tenant's VC status.
    /// `None` for unknown (unregistered or hibernated) tenants.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantSyncStats> {
        let slow_ops = self.obs.tracer.slow_op_counts().remove(tenant).unwrap_or(0);
        self.tenant_stats_with_slow(tenant, slow_ops)
    }

    /// [`Self::tenant_stats`] with the slow-op count supplied by the
    /// caller, so the dashboard can aggregate the slow-op ring once per
    /// pass instead of once per tenant.
    fn tenant_stats_with_slow(&self, tenant: &str, slow_ops: u64) -> Option<TenantSyncStats> {
        let health = self.tenant_health(tenant)?;
        let queue_depth = self.downward.tenant_len(tenant) as u64;
        Some(self.stats.row(tenant, queue_depth, slow_ops, health))
    }

    /// Marks a tenant's dashboard inputs changed, scheduling it for the
    /// next [`Self::publish_tenant_stats`] pass. Called from the reconcile
    /// workers, breaker transitions and registration — the event feed that
    /// lets the publish pass touch only tenants with news instead of
    /// walking every registered tenant (O(dirty), not O(tenants)).
    pub(crate) fn mark_stats_dirty(&self, tenant: &str) {
        self.stats.mark(tenant);
    }

    /// Tenants currently scheduled for a dashboard republish.
    pub fn stats_dirty_len(&self) -> usize {
        self.stats.dirty_len()
    }

    /// Refreshes the per-tenant queue-depth gauges and publishes each
    /// tenant's [`TenantSyncStats`] onto its VC object status — but only
    /// for tenants dirtied since the last pass (reconcile activity,
    /// breaker transitions, fresh registration). Under tenant-density
    /// load with mostly-idle tenants this pass is O(active tenants), not
    /// O(all tenants). Best-effort (registry-only tenants have no VC
    /// object) and write-avoiding: a tenant whose stats are unchanged
    /// since the last publish is skipped. Runs from the scanner timer
    /// after every scan pass.
    pub fn publish_tenant_stats(&self) {
        let dirty = self.stats.take_dirty();
        if dirty.is_empty() {
            return;
        }
        // One slow-op ring aggregation per pass, shared by every row.
        let slow = self.obs.tracer.slow_op_counts();
        for tenant in dirty {
            let slow_ops = slow.get(&tenant).copied().unwrap_or(0);
            let Some(stats) = self.tenant_stats_with_slow(&tenant, slow_ops) else {
                continue; // unregistered or hibernated since marked
            };
            // Kept behind the registration check: re-creating the cell for a
            // tenant that was just torn down would undo the label-space
            // reclamation unregister_tenant performs.
            self.stats.set_queue_depth(&tenant, self.downward.tenant_len(&tenant));
            if !self.stats.note_published(&tenant, &stats) {
                continue;
            }
            self.update_vc_status(&tenant, |vc| {
                let changed = vc.status.sync != stats;
                vc.status.sync = stats.clone();
                changed
            });
        }
    }
}
