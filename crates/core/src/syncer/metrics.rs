//! The syncer's counters, gauges and histograms (Figs 8–11, Table I).

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vc_api::metrics::{BusyTimer, Counter, Gauge, Histogram};
use vc_obs::MetricsRegistry;

/// Syncer metrics, feeding Figs 8–11 and Table I.
///
/// Every counter, gauge and histogram is a cell in the syncer's unified
/// [`MetricsRegistry`] (families `vc_syncer_ops_total`,
/// `vc_syncer_events_total`, `vc_syncer_dead_letter_len`,
/// `vc_syncer_scan_duration_ms`, `vc_syncer_wake_latency_ms`), so the
/// same values appear in the Prometheus exposition and the JSON snapshot.
/// The struct fields are direct handles for the hot paths: one atomic op
/// per update, no label lookup.
#[derive(Debug)]
pub struct SyncerMetrics {
    /// Busy time across downward workers (Fig 10 CPU accounting).
    pub downward_busy: BusyTimer,
    /// Busy time across upward workers.
    pub upward_busy: BusyTimer,
    /// Objects created in the super cluster.
    pub downward_creates: Arc<Counter>,
    /// Objects updated in the super cluster.
    pub downward_updates: Arc<Counter>,
    /// Objects deleted from the super cluster.
    pub downward_deletes: Arc<Counter>,
    /// Tenant statuses updated.
    pub upward_updates: Arc<Counter>,
    /// Tenant objects deleted due to super-side deletion.
    pub upward_deletes: Arc<Counter>,
    /// Mismatches repaired by the periodic scanner.
    pub scan_requeues: Arc<Counter>,
    /// Scan pass durations (ms).
    pub scan_duration: Arc<Histogram>,
    /// Completed scan passes.
    pub scans: Arc<Counter>,
    /// Write conflicts encountered (races).
    pub conflicts: Arc<Counter>,
    /// Tenants hibernated.
    pub hibernations: Arc<Counter>,
    /// Wake-from-hibernation latencies (ms) — the re-list cost.
    pub wake_latency: Arc<Histogram>,
    /// Failed downward items re-queued with exponential backoff.
    pub retries: Arc<Counter>,
    /// Items dead-lettered after exhausting their retry budget.
    pub retry_exhausted: Arc<Counter>,
    /// Items dead-lettered immediately because an admission policy
    /// rejected them (`Forbidden` is permanently fatal — no backoff).
    pub policy_blocked: Arc<Counter>,
    /// Current size of the dead-letter set (drained by the scanner).
    pub dead_letter_len: Arc<Gauge>,
    /// Per-tenant circuit-breaker trips (tenant marked Degraded).
    pub breaker_trips: Arc<Counter>,
    /// Circuit-breaker recoveries (half-open probe succeeded).
    pub breaker_recoveries: Arc<Counter>,
}

impl SyncerMetrics {
    /// Registers the syncer's metric families in `registry` and returns
    /// direct handles to the cells the hot paths update.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let ops = registry.counter(
            "vc_syncer_ops_total",
            "Reconcile operations applied, by direction (downward/upward) and op.",
            &["direction", "op"],
        );
        let events = registry.counter(
            "vc_syncer_events_total",
            "Syncer pipeline events: retries, scans, conflicts, breaker transitions.",
            &["event"],
        );
        let dead_letter = registry.gauge(
            "vc_syncer_dead_letter_len",
            "Items parked in the dead-letter set awaiting scanner re-validation.",
            &[],
        );
        let scan_duration = registry.histogram(
            "vc_syncer_scan_duration_ms",
            "Full mismatch scan pass duration (ms).",
            &[],
            &[1, 5, 10, 50, 100, 500, 1_000, 5_000],
        );
        let wake_latency = registry.histogram(
            "vc_syncer_wake_latency_ms",
            "Wake-from-hibernation re-list latency (ms).",
            &[],
            &[1, 5, 10, 50, 100, 500, 1_000, 5_000],
        );
        SyncerMetrics {
            downward_busy: BusyTimer::default(),
            upward_busy: BusyTimer::default(),
            downward_creates: ops.with(&["downward", "create"]),
            downward_updates: ops.with(&["downward", "update"]),
            downward_deletes: ops.with(&["downward", "delete"]),
            upward_updates: ops.with(&["upward", "update"]),
            upward_deletes: ops.with(&["upward", "delete"]),
            scan_requeues: events.with(&["scan_requeue"]),
            scan_duration: scan_duration.with(&[]),
            scans: events.with(&["scan"]),
            conflicts: events.with(&["conflict"]),
            hibernations: events.with(&["hibernation"]),
            wake_latency: wake_latency.with(&[]),
            retries: events.with(&["retry"]),
            retry_exhausted: events.with(&["retry_exhausted"]),
            policy_blocked: events.with(&["policy_blocked"]),
            dead_letter_len: dead_letter.with(&[]),
            breaker_trips: events.with(&["breaker_trip"]),
            breaker_recoveries: events.with(&["breaker_recovery"]),
        }
    }

    /// Copies every counter and gauge in one pass. Reports must use this
    /// instead of reading fields one by one: a field-by-field read of live
    /// atomics interleaves with concurrent updates, so derived rows (e.g.
    /// retries vs. retry_exhausted) can tear across fields.
    pub fn snapshot(&self) -> SyncerCounters {
        SyncerCounters {
            downward_creates: self.downward_creates.get(),
            downward_updates: self.downward_updates.get(),
            downward_deletes: self.downward_deletes.get(),
            upward_updates: self.upward_updates.get(),
            upward_deletes: self.upward_deletes.get(),
            scan_requeues: self.scan_requeues.get(),
            scans: self.scans.get(),
            conflicts: self.conflicts.get(),
            hibernations: self.hibernations.get(),
            retries: self.retries.get(),
            retry_exhausted: self.retry_exhausted.get(),
            policy_blocked: self.policy_blocked.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_recoveries: self.breaker_recoveries.get(),
            dead_letter_len: self.dead_letter_len.get(),
        }
    }
}

/// Point-in-time copy of the syncer's counters and gauges, taken in one
/// pass (see [`SyncerMetrics::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncerCounters {
    /// Objects created in the super cluster.
    pub downward_creates: u64,
    /// Objects updated in the super cluster.
    pub downward_updates: u64,
    /// Objects deleted from the super cluster.
    pub downward_deletes: u64,
    /// Tenant statuses updated.
    pub upward_updates: u64,
    /// Tenant objects deleted due to super-side deletion.
    pub upward_deletes: u64,
    /// Mismatches repaired by the periodic scanner.
    pub scan_requeues: u64,
    /// Completed scan passes.
    pub scans: u64,
    /// Write conflicts encountered (races).
    pub conflicts: u64,
    /// Tenants hibernated.
    pub hibernations: u64,
    /// Failed downward items re-queued with exponential backoff.
    pub retries: u64,
    /// Items dead-lettered after exhausting their retry budget.
    pub retry_exhausted: u64,
    /// Items dead-lettered immediately on an admission policy rejection.
    pub policy_blocked: u64,
    /// Per-tenant circuit-breaker trips.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries.
    pub breaker_recoveries: u64,
    /// Size of the dead-letter set at snapshot time.
    pub dead_letter_len: i64,
}
