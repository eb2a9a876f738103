//! The resource syncer (paper §III-C) — VirtualCluster's core controller.
//!
//! One **centralized** syncer serves all tenant control planes: it
//! populates tenant objects used in pod provision **downward** to the super
//! cluster and back-populates statuses **upward**, using per-resource
//! reconcilers that compare states against informer caches. Tenant events
//! flow through per-tenant sub-queues dispatched by weighted round-robin
//! ([`vc_client::WeightedFairQueue`]), so a bursty tenant cannot starve
//! others. A periodic scanner remediates any state mismatch left behind by
//! rare races by resending objects to the worker queues.

pub mod vnode;

mod downward;
mod upward;

use crate::mapping;
use crate::registry::TenantHandle;
use crate::vc_object::{
    TenantSyncStats, VirtualCluster, COND_SYNCER_HEALTHY, COND_SYNCER_POLICY_BLOCKED,
    VC_MANAGER_NAMESPACE,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::crd::CustomObject;
use vc_api::error::ApiError;
use vc_api::metrics::{BusyTimer, Counter, Gauge, Histogram};
use vc_api::object::ResourceKind;
use vc_api::pod::PodConditionType;
use vc_api::time::{sleep_cancellable, Clock, RealClock, Timestamp};
use vc_client::{
    BackoffPolicy, Client, InformerConfig, InformerEvent, RateLimitingQueue, SharedInformer,
    WeightedFairQueue, WorkQueue,
};
use vc_controllers::util::{retry_on_conflict, ControllerHandle};
use vc_obs::{
    stage, GaugeFamily, HistogramFamily, MetricsRegistry, ObsParams, Observability, TraceContext,
};
use vnode::VNodeManager;

/// One unit of synchronization work.
///
/// For downward items `key` is the tenant-side object key; for upward items
/// it is the super-cluster key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkItem {
    /// Owning tenant (VC name).
    pub tenant: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Object key.
    pub key: String,
}

/// Syncer configuration.
#[derive(Debug, Clone)]
pub struct SyncerConfig {
    /// Downward worker threads (paper default: 20 — more does not help
    /// because the super-cluster scheduler is the bottleneck).
    pub downward_workers: usize,
    /// Upward worker threads (paper default: 100 — the tenant control
    /// planes have no bottleneck in absorbing status updates).
    pub upward_workers: usize,
    /// Per-tenant fair queuing on the downward path (Fig 11 toggles this).
    pub fair_queuing: bool,
    /// Resource kinds synchronized downward.
    pub downward_kinds: Vec<ResourceKind>,
    /// Incremental mismatch scan tick interval (`None` disables the
    /// scanner). Each tick re-validates keys dirtied by informer events
    /// since the last tick plus one cold-sweep slice (see `scan_slice`).
    pub scan_interval: Option<Duration>,
    /// Keys the incremental scanner's cold sweep visits per tick (the
    /// dirty set is always drained in full), making a tick O(changed +
    /// scan_slice) instead of a full O(all objects) pass.
    pub scan_slice: usize,
    /// vNode heartbeat broadcast interval.
    pub vnode_heartbeat_interval: Duration,
    /// Simulated per-item downward reconcile cost under congestion (deep
    /// copies, serialization, contended locks, TLS round-trips to the
    /// super apiserver). The effective cost scales with queue depth —
    /// near zero when the queue is empty (the paper's 1–2 ms added delay
    /// under normal load), approaching this full value under bursts, where
    /// it caps downward capacity at `workers / cost` items per second.
    pub downward_process_cost: Duration,
    /// Simulated per-item upward reconcile cost under congestion.
    pub upward_process_cost: Duration,
    /// Per-item exponential backoff applied to failed downward items
    /// before they re-enter the queue.
    pub retry_backoff: BackoffPolicy,
    /// Retries an item may consume before being dead-lettered (and left to
    /// the periodic scanner to re-validate).
    pub retry_budget: u32,
    /// Consecutive tenant-apiserver failures that trip that tenant's
    /// circuit breaker to Degraded.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before a half-open probe.
    pub breaker_open: Duration,
    /// Observability tunables (trace ring capacity, slow-op threshold).
    pub obs: ObsParams,
}

impl Default for SyncerConfig {
    fn default() -> Self {
        SyncerConfig {
            downward_workers: 20,
            upward_workers: 100,
            fair_queuing: true,
            downward_kinds: vec![
                ResourceKind::Namespace,
                ResourceKind::Pod,
                ResourceKind::Service,
                ResourceKind::Endpoints,
                ResourceKind::Secret,
                ResourceKind::ConfigMap,
                ResourceKind::ServiceAccount,
                ResourceKind::PersistentVolumeClaim,
                ResourceKind::CustomObject,
            ],
            scan_interval: Some(Duration::from_secs(60)),
            scan_slice: 512,
            vnode_heartbeat_interval: Duration::from_secs(10),
            downward_process_cost: Duration::ZERO,
            upward_process_cost: Duration::ZERO,
            retry_backoff: BackoffPolicy {
                base: Duration::from_millis(100),
                max: Duration::from_secs(5),
            },
            retry_budget: 8,
            breaker_threshold: 5,
            breaker_open: Duration::from_secs(2),
            obs: ObsParams::default(),
        }
    }
}

impl SyncerConfig {
    /// A minimal configuration syncing only pods and namespaces — used by
    /// the large-scale benches (matches the paper's stress workload, which
    /// only creates pods).
    pub fn pods_only() -> Self {
        SyncerConfig {
            downward_kinds: vec![ResourceKind::Namespace, ResourceKind::Pod],
            ..Default::default()
        }
    }
}

/// Upper bucket bounds (µs) for per-tenant sync-duration histograms:
/// 100µs to 5s, matching the paper's sub-ms fast path through multi-second
/// brownout tails.
const SYNC_DURATION_BUCKETS_US: &[u64] =
    &[100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000];

/// Items a downward worker drains per wakeup. Batches never cross a
/// tenant's weighted-round-robin round (see
/// [`WeightedFairQueue::get_batch`]), so fair shares are unaffected.
const DOWNWARD_BATCH: usize = 32;

/// Items an upward worker drains per wakeup.
const UPWARD_BATCH: usize = 64;

/// Kinds synchronized upward (super → tenant).
pub const UPWARD_KINDS: [ResourceKind; 6] = [
    ResourceKind::Pod,
    ResourceKind::Service,
    ResourceKind::Event,
    ResourceKind::PersistentVolume,
    ResourceKind::PersistentVolumeClaim,
    ResourceKind::StorageClass,
];

/// Per-tenant syncer state.
pub struct TenantState {
    /// Registry handle (control plane, prefix, weight, cert).
    pub handle: Arc<TenantHandle>,
    /// Tenant-side informers per downward kind, plus the CRD informer
    /// backing custom-object sync-eligibility checks.
    pub informers: HashMap<ResourceKind, Arc<SharedInformer>>,
    /// Syncer's client to the tenant apiserver.
    pub client: Client,
}

impl TenantState {
    /// The tenant-side cache for `kind` (must be a configured downward
    /// kind).
    pub fn cache(&self, kind: ResourceKind) -> &Arc<vc_client::Cache> {
        self.informers.get(&kind).map(|i| i.cache()).expect("downward kind informer")
    }
}

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

/// Resume position of the incremental scanner's paginated cold sweep.
///
/// The sweep walks one cache segment at a time — tenant-side caches first
/// (divergence, missing super copies), then the super-side caches
/// (orphans whose tenant source is gone) — visiting at most `scan_slice`
/// keys per tick and wrapping around. Tenants are visited in name order
/// so the cursor survives registration churn between ticks.
#[derive(Debug, Clone, Default)]
struct ScanCursor {
    /// `false`: sweeping tenant caches; `true`: sweeping super caches.
    super_side: bool,
    /// Current tenant (tenant-side sweep only).
    tenant: Option<String>,
    /// Index into the downward kinds for the current segment.
    kind_idx: usize,
    /// Last key visited in the current segment (resume strictly after).
    last_key: Option<String>,
}

/// The centralized resource syncer.
pub struct Syncer {
    pub(crate) config: SyncerConfig,
    pub(crate) super_client: Client,
    pub(crate) super_informers: HashMap<ResourceKind, Arc<SharedInformer>>,
    pub(crate) tenants: RwLock<HashMap<String, Arc<TenantState>>>,
    /// Namespace prefix → tenant name, maintained alongside `tenants`.
    /// Super-cluster objects without an owner annotation (events,
    /// endpoints, PVs) resolve their tenant through this index in
    /// O(dashes-in-namespace) hash lookups instead of a scan over every
    /// registered tenant per super event.
    prefix_index: RwLock<HashMap<String, String>>,
    pub(crate) downward: Arc<WeightedFairQueue<WorkItem>>,
    pub(crate) upward: Arc<WorkQueue<WorkItem>>,
    /// Super-side pod deletions awaiting upward processing: key → the
    /// tenant uid the deleted copy mirrored (`None` if it carried none).
    /// The upward worker that propagates a deletion consumes its entry;
    /// without one an absent super pod is not a reason to delete anything.
    pub(crate) recent_super_deletions: Mutex<HashMap<String, Option<String>>>,
    /// Failed downward items awaiting retry: each item waits out its
    /// per-item exponential backoff, then lands on `retry_ready` for the
    /// pump to re-validate and re-queue.
    pub(crate) retry_queue: RateLimitingQueue<WorkItem>,
    /// Conveyor between the backoff queue and the retry pump.
    retry_ready: Arc<WorkQueue<WorkItem>>,
    /// Items that exhausted their retry budget; parked here until the
    /// periodic scanner re-validates and re-queues (or drops) them.
    dead_letter: Mutex<HashSet<WorkItem>>,
    /// Per-tenant items dead-lettered by an admission policy rejection.
    /// A tenant with a non-empty set carries the `SyncerPolicyBlocked` VC
    /// condition; the condition is lowered when its last blocked item
    /// reconciles cleanly (tenant fixed or deleted the object).
    policy_blocked_items: Mutex<HashMap<String, HashSet<WorkItem>>>,
    /// Per-tenant circuit breakers fed by tenant-apiserver failures.
    breakers: Mutex<HashMap<String, Breaker>>,
    /// Upward items parked while their tenant's breaker is open; replayed
    /// on recovery.
    parked_upward: Mutex<HashSet<WorkItem>>,
    /// Hibernated (idle) tenants: informers stopped, caches released
    /// (paper §V: "reducing the cost of running tenant control planes").
    pub(crate) hibernated: Mutex<HashMap<String, Arc<TenantHandle>>>,
    /// Tenant-side keys dirtied by informer events since the last scan
    /// tick; [`scan_tick`](Self::scan_tick) re-validates exactly these
    /// plus one cold-sweep slice.
    scan_dirty: Mutex<HashSet<WorkItem>>,
    /// Cold-sweep resume position.
    scan_cursor: Mutex<ScanCursor>,
    /// vNode bookkeeping.
    pub vnodes: VNodeManager,
    /// Counters and busy timers.
    pub metrics: SyncerMetrics,
    /// Observability plane: the request tracer plus the unified metrics
    /// registry every attached apiserver and the syncer's own families
    /// report into.
    pub obs: Arc<Observability>,
    /// Per-tenant reconcile duration (µs), labels `[tenant, direction]`.
    pub(crate) tenant_sync_duration: HistogramFamily,
    /// Per-tenant downward sub-queue depth, labels `[tenant]`.
    tenant_queue_depth: GaugeFamily,
    /// Last stats published onto each VC status, to skip no-op writes.
    last_published_stats: Mutex<HashMap<String, TenantSyncStats>>,
    /// Tenants whose dashboard inputs changed since the last publish
    /// pass (reconciles, breaker transitions, registration). The scanner
    /// republishes exactly these instead of walking every tenant — the
    /// event-fed analogue of [`Self::scan_dirty`] for stats.
    stats_dirty: Mutex<HashSet<String>>,
    /// The clock every syncer deadline is measured on: scanner ticks,
    /// vnode heartbeats, breaker-open windows and retry backoff. Tests
    /// inject a [`vc_api::time::SimClock`] and advance it instead of
    /// sleeping.
    pub(crate) clock: Arc<dyn Clock>,
    handle: Mutex<Option<ControllerHandle>>,
}

impl std::fmt::Debug for Syncer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Syncer")
            .field("tenants", &self.tenants.read().len())
            .field("downward_len", &self.downward.len())
            .field("upward_len", &self.upward.len())
            .finish()
    }
}

impl Syncer {
    /// Starts a syncer against the super cluster reachable via
    /// `super_client`, on the wall clock.
    pub fn start(super_client: Client, config: SyncerConfig) -> Arc<Syncer> {
        Self::start_with_clock(super_client, config, RealClock::shared())
    }

    /// Starts a syncer whose timers — scanner ticks, vnode heartbeats,
    /// breaker-open windows, retry backoff — are measured on `clock`.
    /// With a [`vc_api::time::SimClock`], tests script outage/recovery
    /// timelines by advancing virtual time instead of sleeping through
    /// real breaker windows.
    pub fn start_with_clock(
        super_client: Client,
        config: SyncerConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Syncer> {
        let mut super_kinds: Vec<ResourceKind> = config.downward_kinds.clone();
        for kind in UPWARD_KINDS.iter().chain([ResourceKind::Node].iter()) {
            if !super_kinds.contains(kind) {
                super_kinds.push(*kind);
            }
        }

        let mut super_informers = HashMap::new();
        for kind in &super_kinds {
            let informer = SharedInformer::new(super_client.clone(), InformerConfig::new(*kind));
            super_informers.insert(*kind, informer);
        }

        let obs = Observability::new(config.obs.clone());
        // Every informer in the process — the syncer's, the controllers',
        // the tenants' — runs on one pool; its counters are process-wide.
        vc_client::reflector::Pool::global().publish_metrics(&obs.registry);
        // The super apiserver reports into the shared registry under the
        // "super" scope; it never opens traces (tenant gates do that).
        super_client.server().attach_observability(&obs, "super", false);
        let tenant_sync_duration = obs.registry.histogram(
            "vc_syncer_tenant_sync_duration_us",
            "Per-tenant reconcile duration (microseconds) by direction.",
            &["tenant", "direction"],
            SYNC_DURATION_BUCKETS_US,
        );
        let tenant_queue_depth = obs.registry.gauge(
            "vc_syncer_tenant_queue_depth",
            "Per-tenant downward sub-queue depth.",
            &["tenant"],
        );

        let retry_ready: Arc<WorkQueue<WorkItem>> =
            Arc::new(WorkQueue::with_clock(Arc::clone(&clock)));
        let syncer = Arc::new(Syncer {
            downward: Arc::new(WeightedFairQueue::with_clock(
                config.fair_queuing,
                Arc::clone(&clock),
            )),
            upward: Arc::new(WorkQueue::with_clock(Arc::clone(&clock))),
            retry_queue: RateLimitingQueue::with_policy_and_clock(
                Arc::clone(&retry_ready),
                config.retry_backoff.clone(),
                Arc::clone(&clock),
            ),
            retry_ready,
            dead_letter: Mutex::new(HashSet::new()),
            policy_blocked_items: Mutex::new(HashMap::new()),
            breakers: Mutex::new(HashMap::new()),
            parked_upward: Mutex::new(HashSet::new()),
            config,
            super_client,
            super_informers,
            tenants: RwLock::new(HashMap::new()),
            prefix_index: RwLock::new(HashMap::new()),
            recent_super_deletions: Mutex::new(HashMap::new()),
            hibernated: Mutex::new(HashMap::new()),
            scan_dirty: Mutex::new(HashSet::new()),
            scan_cursor: Mutex::new(ScanCursor::default()),
            vnodes: VNodeManager::new(),
            metrics: SyncerMetrics::new(&obs.registry),
            obs,
            tenant_sync_duration,
            tenant_queue_depth,
            last_published_stats: Mutex::new(HashMap::new()),
            stats_dirty: Mutex::new(HashSet::new()),
            clock,
            handle: Mutex::new(None),
        });

        // Register super-side handlers (upward triggers), then start.
        for (kind, informer) in &syncer.super_informers {
            let weak = Arc::downgrade(&syncer);
            let kind = *kind;
            informer.add_handler(Box::new(move |event| {
                if let Some(syncer) = weak.upgrade() {
                    syncer.on_super_event(kind, event);
                }
            }));
        }
        let mut handle = ControllerHandle::new("vc-syncer");
        for informer in syncer.super_informers.values() {
            let started = SharedInformer::start(Arc::clone(informer));
            started.wait_for_sync(Duration::from_secs(30));
            handle.add_informer(started);
        }

        // Downward workers: each wakeup drains a small same-tenant batch
        // (one queue-lock round-trip per batch instead of per item; the
        // fair queue bounds batches to the tenant's WRR round, so batching
        // cannot distort fair shares).
        for worker_id in 0..syncer.config.downward_workers.max(1) {
            let syncer_ref = Arc::clone(&syncer);
            let stop = handle.stop_flag();
            handle.add_thread(
                std::thread::Builder::new()
                    .name(format!("syncer-dws-{worker_id}"))
                    .spawn(move || loop {
                        let batch = syncer_ref.downward.get_batch(DOWNWARD_BATCH);
                        if batch.is_empty() {
                            break; // shutdown
                        }
                        for (item, _generation) in batch {
                            if stop.is_set() {
                                syncer_ref.downward.done(&item);
                                continue;
                            }
                            // Close the queue-wait span and run the
                            // reconcile under the item's trace context so
                            // super-apiserver calls attach their spans.
                            let trace_id = syncer_ref.obs.tracer.lookup(&item.tenant, &item.key);
                            if let Some(id) = trace_id {
                                syncer_ref.obs.tracer.span_since_mark(
                                    id,
                                    stage::MARK_DWS_ENQUEUE,
                                    stage::DWS_QUEUE,
                                );
                            }
                            let started = Instant::now();
                            syncer_ref.metrics.downward_busy.record(|| {
                                let _ctx = trace_id.map(TraceContext::enter);
                                let cost = congestion_cost(
                                    syncer_ref.config.downward_process_cost,
                                    syncer_ref.downward.len(),
                                );
                                if !cost.is_zero() {
                                    std::thread::sleep(cost);
                                }
                                downward::reconcile(&syncer_ref, &item)
                            });
                            let elapsed = started.elapsed();
                            if let Some(id) = trace_id {
                                syncer_ref.obs.tracer.record_span(
                                    id,
                                    stage::DWS_PROCESS,
                                    elapsed,
                                    true,
                                );
                            }
                            syncer_ref
                                .tenant_sync_duration
                                .with(&[&item.tenant, "downward"])
                                .observe_ms(elapsed.as_micros() as u64);
                            syncer_ref.mark_stats_dirty(&item.tenant);
                            syncer_ref.downward.done(&item);
                        }
                    })
                    .expect("spawn downward worker"),
            );
        }
        // Upward workers: batched like the downward path (upward items
        // are independent status writes, so plain FIFO batches are safe).
        for worker_id in 0..syncer.config.upward_workers.max(1) {
            let syncer_ref = Arc::clone(&syncer);
            let stop = handle.stop_flag();
            handle.add_thread(
                std::thread::Builder::new()
                    .name(format!("syncer-uws-{worker_id}"))
                    .spawn(move || loop {
                        let batch = syncer_ref.upward.get_batch(UPWARD_BATCH);
                        if batch.is_empty() {
                            break; // shutdown
                        }
                        for (item, _generation) in batch {
                            if stop.is_set() {
                                syncer_ref.upward.done(&item);
                                continue;
                            }
                            // (Pod trace spans are recorded inside the
                            // upward reconciler, which knows whether the
                            // super pod is Ready and maps the super key
                            // back to the traced tenant key.)
                            let started = Instant::now();
                            syncer_ref.metrics.upward_busy.record(|| {
                                let cost = congestion_cost(
                                    syncer_ref.config.upward_process_cost,
                                    syncer_ref.upward.len(),
                                );
                                if !cost.is_zero() {
                                    std::thread::sleep(cost);
                                }
                                upward::reconcile(&syncer_ref, &item)
                            });
                            syncer_ref
                                .tenant_sync_duration
                                .with(&[&item.tenant, "upward"])
                                .observe_ms(started.elapsed().as_micros() as u64);
                            syncer_ref.mark_stats_dirty(&item.tenant);
                            syncer_ref.upward.done(&item);
                        }
                    })
                    .expect("spawn upward worker"),
            );
        }
        // Periodic incremental mismatch scanner. Ticks are measured on
        // the syncer clock: under a virtual clock a test advances
        // `scan_interval` and the next tick fires without real waiting.
        if let Some(interval) = syncer.config.scan_interval {
            let syncer_ref = Arc::clone(&syncer);
            let stop = handle.stop_flag();
            handle.add_thread(
                std::thread::Builder::new()
                    .name("syncer-scanner".into())
                    .spawn(move || loop {
                        if !sleep_cancellable(&*syncer_ref.clock, interval, || stop.is_set()) {
                            return;
                        }
                        syncer_ref.scan_tick();
                        syncer_ref.publish_tenant_stats();
                    })
                    .expect("spawn scanner"),
            );
        }
        // vNode heartbeat broadcaster.
        {
            let syncer_ref = Arc::clone(&syncer);
            let interval = syncer.config.vnode_heartbeat_interval;
            let stop = handle.stop_flag();
            handle.add_thread(
                std::thread::Builder::new()
                    .name("syncer-vnode-heartbeats".into())
                    .spawn(move || loop {
                        if !sleep_cancellable(&*syncer_ref.clock, interval, || stop.is_set()) {
                            return;
                        }
                        let tenants: Vec<Arc<TenantHandle>> = syncer_ref
                            .tenants
                            .read()
                            .values()
                            .map(|t| Arc::clone(&t.handle))
                            .collect();
                        if let Some(cache) = syncer_ref.super_cache(ResourceKind::Node) {
                            syncer_ref.vnodes.broadcast_heartbeats(&tenants, cache);
                        }
                    })
                    .expect("spawn vnode heartbeat thread"),
            );
        }
        // Retry pump: blocks on the backed-off conveyor (no polling) and
        // re-validates each due item before it re-enters the downward
        // queue — items whose tenant has been unregistered or hibernated
        // since the failure are dropped instead of leaking into the queue.
        {
            let syncer_ref = Arc::clone(&syncer);
            let retry_ready = Arc::clone(&syncer.retry_ready);
            handle.add_thread(
                std::thread::Builder::new()
                    .name("syncer-retry-pump".into())
                    .spawn(move || {
                        while let Some(item) = retry_ready.get() {
                            retry_ready.done(&item);
                            if !syncer_ref.tenants.read().contains_key(&item.tenant) {
                                syncer_ref.retry_queue.forget(&item);
                                continue;
                            }
                            let tenant = item.tenant.clone();
                            syncer_ref.downward.add(&tenant, item);
                        }
                    })
                    .expect("spawn retry pump"),
            );
        }
        // Circuit-breaker maintenance: expire Open deadlines into
        // half-open probes and recover tenants whose control plane
        // answers again.
        {
            let syncer_ref = Arc::clone(&syncer);
            let stop = handle.stop_flag();
            handle.add_thread(
                std::thread::Builder::new()
                    .name("syncer-breaker".into())
                    .spawn(move || {
                        while !stop.is_set() {
                            std::thread::sleep(Duration::from_millis(25));
                            for tenant in syncer_ref.breakers_due_for_probe() {
                                syncer_ref.probe_tenant(&tenant);
                            }
                        }
                    })
                    .expect("spawn breaker thread"),
            );
        }
        {
            let downward = Arc::clone(&syncer.downward);
            let upward = Arc::clone(&syncer.upward);
            let retry_ready = Arc::clone(&syncer.retry_ready);
            handle.on_stop(move || {
                downward.shutdown();
                upward.shutdown();
                retry_ready.shutdown();
            });
        }
        *syncer.handle.lock() = Some(handle);
        syncer
    }

    /// Hibernates an idle tenant (paper §V future work, implemented):
    /// stops its informers and releases their caches, freeing the
    /// syncer-side memory the tenant was costing. Already-synced super-
    /// cluster objects keep running; the tenant's own control plane stays
    /// up but unwatched. Returns `false` for unknown tenants.
    pub fn hibernate_tenant(&self, name: &str) -> bool {
        let Some(state) = self.detach_tenant(name) else { return false };
        self.hibernated.lock().insert(name.to_string(), Arc::clone(&state.handle));
        self.metrics.hibernations.inc();
        true
    }

    /// Wakes a hibernated tenant: re-lists its control plane into fresh
    /// informer caches (the wake cost) and resumes synchronization.
    /// Returns the wake latency, or `None` for tenants not hibernated.
    pub fn wake_tenant(self: &Arc<Self>, name: &str) -> Option<Duration> {
        let handle = self.hibernated.lock().remove(name)?;
        let start = std::time::Instant::now();
        self.register_tenant(handle);
        let elapsed = start.elapsed();
        self.metrics.wake_latency.observe(elapsed);
        Some(elapsed)
    }

    /// Names of currently hibernated tenants.
    pub fn hibernated_tenants(&self) -> Vec<String> {
        self.hibernated.lock().keys().cloned().collect()
    }

    /// Schedules a failed downward item for retry under its per-item
    /// exponential backoff. An item that has already consumed its retry
    /// budget is dead-lettered instead: parked until the periodic scanner
    /// re-validates it (so a persistently failing object cannot occupy the
    /// retry pipeline forever).
    pub(crate) fn requeue_downward(&self, item: WorkItem) {
        if self.retry_queue.num_requeues(&item) >= self.config.retry_budget {
            self.retry_queue.forget(&item);
            let mut dead = self.dead_letter.lock();
            if dead.insert(item) {
                self.metrics.retry_exhausted.inc();
                self.metrics.dead_letter_len.set(dead.len() as i64);
            }
            return;
        }
        self.metrics.retries.inc();
        self.retry_queue.add_rate_limited(item);
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
        self.retry_queue.forget(&item);
        {
            let mut dead = self.dead_letter.lock();
            if dead.insert(item.clone()) {
                self.metrics.policy_blocked.inc();
                self.metrics.dead_letter_len.set(dead.len() as i64);
            }
        }
        let newly_blocked = {
            let mut blocked = self.policy_blocked_items.lock();
            let items = blocked.entry(tenant.clone()).or_default();
            let was_empty = items.is_empty();
            items.insert(item);
            was_empty
        };
        if newly_blocked {
            let rule = err.policy_rule().unwrap_or("forbidden");
            self.publish_tenant_condition_type(
                COND_SYNCER_POLICY_BLOCKED,
                &tenant,
                true,
                rule,
                &err.to_string(),
            );
            self.mark_stats_dirty(&tenant);
        }
    }

    /// Clears an item's retry history after a successful reconcile so its
    /// next failure starts from the base backoff again. When the item was
    /// the tenant's last policy-blocked one, the `SyncerPolicyBlocked`
    /// condition is lowered — the tenant corrected (or deleted) the
    /// offending object.
    pub(crate) fn forget_retries(&self, item: &WorkItem) {
        self.retry_queue.forget(item);
        let unblocked = {
            let mut blocked = self.policy_blocked_items.lock();
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
        };
        if unblocked {
            self.publish_tenant_condition_type(
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
        self.dead_letter.lock().len()
    }

    /// Re-validates dead-lettered items: items belonging to live, healthy
    /// tenants re-enter the downward queue with a fresh retry budget;
    /// items of unregistered/hibernated tenants are dropped; items of
    /// breaker-degraded tenants stay parked until recovery. Called by the
    /// periodic scanner and on breaker recovery.
    pub fn drain_dead_letters(&self) {
        let drained: Vec<WorkItem> = {
            let mut dead = self.dead_letter.lock();
            let mut parked = HashSet::new();
            let mut ready = Vec::new();
            for item in dead.drain() {
                if !self.tenants.read().contains_key(&item.tenant) {
                    continue;
                }
                if self.tenant_health(&item.tenant) == Some(TenantHealth::Degraded) {
                    parked.insert(item);
                } else {
                    ready.push(item);
                }
            }
            *dead = parked;
            self.metrics.dead_letter_len.set(dead.len() as i64);
            ready
        };
        for item in drained {
            self.retry_queue.forget(&item);
            let tenant = item.tenant.clone();
            self.downward.add(&tenant, item);
        }
    }

    /// Health of a registered tenant as seen by its circuit breaker;
    /// `None` for unknown (unregistered or hibernated) tenants.
    pub fn tenant_health(&self, tenant: &str) -> Option<TenantHealth> {
        if !self.tenants.read().contains_key(tenant) {
            return None;
        }
        let breakers = self.breakers.lock();
        let degraded =
            breakers.get(tenant).is_some_and(|b| !matches!(b.phase, BreakerPhase::Closed));
        Some(if degraded { TenantHealth::Degraded } else { TenantHealth::Healthy })
    }

    /// Errors that indicate the tenant control plane itself is unreachable
    /// (brownout/outage), as opposed to object-level races like conflicts
    /// or not-found, which say nothing about the apiserver's health.
    fn is_tenant_outage(err: &ApiError) -> bool {
        matches!(
            err,
            ApiError::Unavailable { .. }
                | ApiError::Timeout { .. }
                | ApiError::TooManyRequests { .. }
        )
    }

    /// Records a successful tenant-apiserver operation: resets the failure
    /// streak while the breaker is closed. Open/half-open recovery is
    /// driven exclusively by [`probe_tenant`](Self::probe_tenant) so that
    /// recovery always resumes dispatch and drains dead letters.
    pub(crate) fn note_tenant_ok(&self, tenant: &str) {
        if let Some(breaker) = self.breakers.lock().get_mut(tenant) {
            if matches!(breaker.phase, BreakerPhase::Closed) {
                breaker.consecutive_failures = 0;
            }
        }
    }

    /// Records a failed tenant-apiserver operation; trips the breaker when
    /// the consecutive-failure threshold is reached. Tripping pauses the
    /// tenant's downward sub-queue (healthy tenants keep their fair-queue
    /// shares) and publishes a `SyncerHealthy=false` condition on the VC
    /// object.
    pub(crate) fn note_tenant_error(&self, tenant: &str, err: &ApiError) {
        if !Self::is_tenant_outage(err) {
            return;
        }
        let tripped = {
            let mut breakers = self.breakers.lock();
            let breaker = breakers
                .entry(tenant.to_string())
                .or_insert(Breaker { phase: BreakerPhase::Closed, consecutive_failures: 0 });
            match breaker.phase {
                BreakerPhase::Closed => {
                    breaker.consecutive_failures += 1;
                    if breaker.consecutive_failures >= self.config.breaker_threshold {
                        breaker.phase = BreakerPhase::Open {
                            until: self.clock.now().add(self.config.breaker_open),
                        };
                        // Counted under the lock so observers never see the
                        // tripped phase before the counter reflects it.
                        self.metrics.breaker_trips.inc();
                        true
                    } else {
                        false
                    }
                }
                BreakerPhase::HalfOpen => {
                    // A straggler failed while probing: re-open.
                    breaker.phase = BreakerPhase::Open {
                        until: self.clock.now().add(self.config.breaker_open),
                    };
                    false
                }
                BreakerPhase::Open { .. } => false,
            }
        };
        if tripped {
            self.mark_stats_dirty(tenant);
            self.downward.pause_tenant(tenant);
            self.publish_tenant_condition(
                tenant,
                false,
                "BreakerOpen",
                &format!("tenant apiserver unreachable: {err}"),
            );
        }
    }

    /// Tenants whose Open deadline has passed; each is flipped to HalfOpen
    /// and must be probed.
    fn breakers_due_for_probe(&self) -> Vec<String> {
        let now = self.clock.now();
        let mut due = Vec::new();
        for (tenant, breaker) in self.breakers.lock().iter_mut() {
            if matches!(breaker.phase, BreakerPhase::Open { until } if until <= now) {
                breaker.phase = BreakerPhase::HalfOpen;
                due.push(tenant.clone());
            }
        }
        for tenant in &due {
            self.mark_stats_dirty(tenant);
        }
        due
    }

    /// Half-open probe: one cheap read against the tenant apiserver. On
    /// success the breaker closes — the sub-queue resumes, parked upward
    /// items replay, dead letters drain, and the VC condition flips back
    /// to healthy. On failure the breaker re-opens for another window.
    fn probe_tenant(&self, tenant: &str) {
        let Some(state) = self.tenant(tenant) else {
            // Tenant disappeared while tripped; drop its breaker.
            self.breakers.lock().remove(tenant);
            return;
        };
        let healthy = state.client.list(ResourceKind::Namespace, None).is_ok();
        {
            let mut breakers = self.breakers.lock();
            let Some(breaker) = breakers.get_mut(tenant) else { return };
            if !matches!(breaker.phase, BreakerPhase::HalfOpen) {
                return;
            }
            breaker.phase = if healthy {
                // Counted under the lock so observers never see the closed
                // phase before the counter reflects the recovery.
                self.metrics.breaker_recoveries.inc();
                BreakerPhase::Closed
            } else {
                BreakerPhase::Open { until: self.clock.now().add(self.config.breaker_open) }
            };
            breaker.consecutive_failures = 0;
        }
        if !healthy {
            return;
        }
        self.mark_stats_dirty(tenant);
        self.downward.resume_tenant(tenant);
        let parked: Vec<WorkItem> = {
            let mut parked = self.parked_upward.lock();
            let (mine, rest): (HashSet<_>, HashSet<_>) =
                parked.drain().partition(|i| i.tenant == tenant);
            *parked = rest;
            mine.into_iter().collect()
        };
        for item in parked {
            self.upward.add(item);
        }
        self.metrics.breaker_recoveries.inc();
        self.publish_tenant_condition(tenant, true, "Recovered", "half-open probe succeeded");
        self.drain_dead_letters();
    }

    /// Parks an upward item while its tenant's breaker is open; replayed
    /// by [`probe_tenant`](Self::probe_tenant) on recovery.
    pub(crate) fn park_upward(&self, item: WorkItem) {
        self.parked_upward.lock().insert(item);
    }

    /// Publishes the [`COND_SYNCER_HEALTHY`] condition on the tenant's VC
    /// object.
    fn publish_tenant_condition(&self, tenant: &str, healthy: bool, reason: &str, message: &str) {
        self.publish_tenant_condition_type(COND_SYNCER_HEALTHY, tenant, healthy, reason, message);
    }

    /// Publishes an arbitrary condition type on the tenant's VC object.
    /// No-op when the condition already holds the given status.
    fn publish_tenant_condition_type(
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

    /// Applies `change` to the tenant's VC object in the super cluster and
    /// writes it back when `change` reports a difference. Best-effort (the
    /// VC object may not exist for registry-only tenants, e.g. in tests
    /// bypassing the operator) and conflict-retried.
    fn update_vc_status(&self, tenant: &str, change: impl Fn(&mut VirtualCluster) -> bool) {
        let _ = retry_on_conflict(3, || {
            let fresh =
                self.super_client.get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, tenant)?;
            let mut fresh: CustomObject = fresh.try_into()?;
            let mut vc = VirtualCluster::from_custom_object(&fresh)?;
            if !change(&mut vc) {
                return Ok(());
            }
            vc.write_into(&mut fresh);
            self.super_client.update(fresh.into()).map(|_| ())
        });
    }

    /// Attaches a tenant control plane: starts its informers and begins
    /// synchronizing. Safe to call for many tenants; one syncer serves all
    /// of them (§III-C's centralized design).
    pub fn register_tenant(self: &Arc<Self>, handle: Arc<TenantHandle>) {
        // The tenant apiserver reports into the shared registry under the
        // tenant's name and opens a trace for every pod admitted at its
        // gate.
        handle.cluster.apiserver.attach_observability(&self.obs, &handle.name, true);
        let client = handle.system_client("vc-syncer");
        let mut informers = HashMap::new();
        for kind in &self.config.downward_kinds {
            let informer = SharedInformer::new(client.clone(), InformerConfig::new(*kind));
            let weak = Arc::downgrade(self);
            let tenant_name = handle.name.clone();
            let kind = *kind;
            informer.add_handler(Box::new(move |event| {
                if let Some(syncer) = weak.upgrade() {
                    syncer.on_tenant_event(&tenant_name, kind, event);
                }
            }));
            let informer = SharedInformer::start(informer);
            informer.wait_for_sync(Duration::from_secs(30));
            informers.insert(kind, informer);
        }
        // Custom objects flow down only when a tenant CRD opts in; that
        // eligibility check is served from a CRD informer cache rather
        // than a LIST against the tenant apiserver per work item.
        if self.config.downward_kinds.contains(&ResourceKind::CustomObject)
            && !informers.contains_key(&ResourceKind::CustomResourceDefinition)
        {
            let informer = SharedInformer::new(
                client.clone(),
                InformerConfig::new(ResourceKind::CustomResourceDefinition),
            );
            let weak = Arc::downgrade(self);
            let tenant_name = handle.name.clone();
            informer.add_handler(Box::new(move |_event| {
                // A CRD change (e.g. `sync_to_super` flipped) changes the
                // eligibility of every custom object of the tenant:
                // re-evaluate them all.
                if let Some(syncer) = weak.upgrade() {
                    syncer.redirty_custom_objects(&tenant_name);
                }
            }));
            let informer = SharedInformer::start(informer);
            informer.wait_for_sync(Duration::from_secs(30));
            informers.insert(ResourceKind::CustomResourceDefinition, informer);
        }
        self.downward.set_weight(&handle.name, handle.weight.max(1));
        let state = Arc::new(TenantState { handle: Arc::clone(&handle), informers, client });
        self.prefix_index.write().insert(handle.prefix.clone(), handle.name.clone());
        self.tenants.write().insert(handle.name.clone(), state);
        // Seed the first dashboard publish for the new tenant.
        self.mark_stats_dirty(&handle.name);

        // Existing storage classes flow to the new tenant immediately.
        if let Some(cache) = self.super_cache(ResourceKind::StorageClass) {
            for sc in cache.list() {
                self.upward.add(WorkItem {
                    tenant: handle.name.clone(),
                    kind: ResourceKind::StorageClass,
                    key: sc.key(),
                });
            }
        }
    }

    /// Stops watching a tenant (the part hibernation and unregistration
    /// share): stops its informers, drops its sub-queue, and forgets the
    /// breaker, dirty-key and dashboard state that only make sense while
    /// the control plane is watched. Returns the state that was attached.
    fn detach_tenant(&self, name: &str) -> Option<Arc<TenantState>> {
        let state = self.tenants.write().remove(name);
        if let Some(state) = &state {
            for informer in state.informers.values() {
                informer.stop();
            }
            // Reclaims the tenant apiserver's `server=<name>` metric cells
            // as a side effect.
            state.handle.cluster.apiserver.detach_observability();
        }
        // By value, so a repeated detach can never leave the index stale;
        // re-registering (wake) re-inserts the prefix.
        self.prefix_index.write().retain(|_, tenant| tenant != name);
        // The sub-queue may still hold items; they become no-ops once the
        // tenant is gone, so force removal after drain attempts.
        let _ = self.downward.remove_tenant(name);
        self.breakers.lock().remove(name);
        self.scan_dirty.lock().retain(|i| i.tenant != name);
        self.stats_dirty.lock().remove(name);
        state
    }

    /// Detaches a tenant for good: stops its informers, drops its
    /// sub-queue and everything else the syncer holds in its name.
    pub fn unregister_tenant(&self, name: &str) {
        self.detach_tenant(name);
        // Parked upward items, dead letters, policy blocks and open traces
        // would otherwise leak.
        self.parked_upward.lock().retain(|i| i.tenant != name);
        {
            let mut dead = self.dead_letter.lock();
            dead.retain(|i| i.tenant != name);
            self.metrics.dead_letter_len.set(dead.len() as i64);
        }
        self.policy_blocked_items.lock().remove(name);
        // Pods still in flight will never report Ready to anyone.
        self.obs.tracer.abandon_tenant(name);
        // Reclaim the tenant's cells from every `tenant`-labeled metric
        // family (sync-duration histograms, queue-depth gauges) and the
        // stats-publish dedup map. Without this sweep the registry's
        // label space grows monotonically under onboarding/teardown
        // churn — each short-lived tenant would permanently leave its
        // cells (and their retained histogram windows) behind.
        self.obs.registry.remove_label_value("tenant", name);
        self.last_published_stats.lock().remove(name);
    }

    /// The registered tenants.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.read().keys().cloned().collect()
    }

    /// Looks a tenant state up.
    pub fn tenant(&self, name: &str) -> Option<Arc<TenantState>> {
        self.tenants.read().get(name).cloned()
    }

    /// The super-cluster informer cache for `kind`, if watched.
    pub fn super_cache(&self, kind: ResourceKind) -> Option<&Arc<vc_client::Cache>> {
        self.super_informers.get(&kind).map(|i| i.cache())
    }

    /// Pending items in the downward queue.
    pub fn downward_len(&self) -> usize {
        self.downward.len()
    }

    /// Pending items in the upward queue.
    pub fn upward_len(&self) -> usize {
        self.upward.len()
    }

    /// Total estimated bytes held in informer caches (super + all
    /// tenants) — the syncer's dominant memory consumer (Fig 10).
    pub fn cache_bytes(&self) -> usize {
        let mut total: i64 = 0;
        for informer in self.super_informers.values() {
            total += informer.cache().bytes.get();
        }
        for tenant in self.tenants.read().values() {
            for informer in tenant.informers.values() {
                total += informer.cache().bytes.get();
            }
        }
        total.max(0) as usize
    }

    /// Runs one full mismatch scan across all tenants (also called
    /// periodically when `scan_interval` is set). Super-cluster caches are
    /// indexed by owning tenant once per pass; per-tenant scan threads run
    /// in parallel, one per tenant, as in the paper's evaluation. Returns
    /// the wall-clock duration.
    pub fn scan_all(&self) -> Duration {
        let start = std::time::Instant::now();
        // Give dead-lettered items another chance before scanning: the
        // scan re-derives mismatches from caches, so a re-queued item that
        // is already in sync is a cheap no-op.
        self.drain_dead_letters();
        // A full pass subsumes any pending dirty keys.
        self.scan_dirty.lock().clear();
        let tenants: Vec<Arc<TenantState>> = self.tenants.read().values().cloned().collect();

        // Index super objects by owner once (kind -> tenant -> objects),
        // instead of every tenant thread rescanning the full caches.
        let mut by_owner: HashMap<ResourceKind, HashMap<String, Vec<Arc<vc_api::Object>>>> =
            HashMap::new();
        for kind in &self.config.downward_kinds {
            let Some(cache) = self.super_cache(*kind) else { continue };
            let per_tenant: &mut HashMap<String, Vec<Arc<vc_api::Object>>> =
                by_owner.entry(*kind).or_default();
            for obj in cache.list() {
                if let Some(owner) = mapping::owner_cluster(&obj) {
                    per_tenant.entry(owner.to_string()).or_default().push(obj);
                }
            }
        }

        std::thread::scope(|scope| {
            for tenant in &tenants {
                let by_owner = &by_owner;
                scope.spawn(move || self.scan_tenant(tenant, by_owner));
            }
        });
        let elapsed = start.elapsed();
        self.metrics.scans.inc();
        self.metrics.scan_duration.observe(elapsed);
        elapsed
    }

    /// One tenant's share of a full pass: every tenant-side key, then
    /// every super object the tenant owns whose tenant source is gone.
    /// [`check_key`](Self::check_key) decides what, if anything, to
    /// requeue.
    fn scan_tenant(
        &self,
        tenant: &TenantState,
        by_owner: &HashMap<ResourceKind, HashMap<String, Vec<Arc<vc_api::Object>>>>,
    ) {
        for kind in &self.config.downward_kinds {
            let tenant_cache = tenant.cache(*kind);
            for key in tenant_cache.keys() {
                self.check_key(tenant, *kind, &key);
            }
            let owned = by_owner.get(kind).and_then(|m| m.get(&tenant.handle.name));
            for obj in owned.into_iter().flatten() {
                let tenant_key =
                    mapping::super_key_to_tenant(&tenant.handle.prefix, *kind, &obj.key());
                if let Some(key) = tenant_key.filter(|k| tenant_cache.get(k).is_none()) {
                    self.check_key(tenant, *kind, &key);
                }
            }
        }
    }

    /// One incremental scan tick: re-validates the keys dirtied by
    /// informer events since the last tick, then advances the paginated
    /// cold sweep by up to `scan_slice` keys — O(changed + slice) per
    /// tick instead of [`scan_all`](Self::scan_all)'s O(all objects).
    /// The cold sweep guards against the dirty set itself losing entries
    /// (process restarts, missed watch events): every key is still
    /// visited eventually, just spread over many ticks. Returns the
    /// number of items requeued for repair.
    pub fn scan_tick(&self) -> usize {
        let start = std::time::Instant::now();
        self.drain_dead_letters();
        let mut requeues = 0;
        let dirty: Vec<WorkItem> = {
            let mut set = self.scan_dirty.lock();
            set.drain().collect()
        };
        for item in &dirty {
            if let Some(state) = self.tenant(&item.tenant) {
                requeues += usize::from(self.check_key(&state, item.kind, &item.key));
            }
        }
        requeues += self.cold_sweep(self.config.scan_slice);
        self.metrics.scans.inc();
        self.metrics.scan_duration.observe(start.elapsed());
        requeues
    }

    /// Keys currently waiting in the scanner's dirty set.
    pub fn scan_dirty_len(&self) -> usize {
        self.scan_dirty.lock().len()
    }

    /// Marks a tenant-side key for re-validation on the next scan tick.
    fn mark_dirty(&self, tenant: &str, kind: ResourceKind, tenant_key: &str) {
        if !self.config.downward_kinds.contains(&kind) {
            return;
        }
        self.scan_dirty.lock().insert(WorkItem {
            tenant: tenant.to_string(),
            kind,
            key: tenant_key.to_string(),
        });
    }

    /// Re-evaluates every custom object of `tenant` after a CRD change
    /// (sync eligibility may have flipped for all of them at once).
    fn redirty_custom_objects(&self, tenant: &str) {
        let Some(state) = self.tenant(tenant) else { return };
        let Some(informer) = state.informers.get(&ResourceKind::CustomObject) else { return };
        for obj in informer.cache().list() {
            let key = obj.key();
            self.mark_dirty(tenant, ResourceKind::CustomObject, &key);
            self.downward.add_coalescing(
                tenant,
                WorkItem { tenant: tenant.to_string(), kind: ResourceKind::CustomObject, key },
                obj.meta().resource_version,
            );
        }
    }

    /// Re-validates one tenant-side key against the caches: requeues
    /// downward when the super copy is missing, diverged or orphaned, and
    /// upward when the super pod carries a status the tenant has not
    /// seen. Returns whether anything was requeued.
    fn check_key(&self, tenant: &TenantState, kind: ResourceKind, tenant_key: &str) -> bool {
        if !self.config.downward_kinds.contains(&kind) {
            return false;
        }
        let Some(super_cache) = self.super_cache(kind) else { return false };
        let name = &tenant.handle.name;
        let tenant_obj = tenant.cache(kind).get(tenant_key);
        // Only a super copy this tenant owns is its business here.
        let super_obj = downward::super_key_for(tenant, kind, tenant_key)
            .and_then(|key| super_cache.get(&key))
            .filter(|o| mapping::owner_cluster(o) == Some(name.as_str()));
        let downward = match &tenant_obj {
            Some(obj) => !downward::in_sync(self, tenant, kind, obj),
            // Tenant source gone: the super copy is an orphan the downward
            // delete path must remove.
            None => super_obj.is_some(),
        };
        // Upward repair: super pod status the tenant has not seen.
        let stale_pod = tenant_obj.as_deref().zip(super_obj.as_deref()).filter(|(t, s)| {
            t.as_pod().zip(s.as_pod()).is_some_and(|(tp, sp)| {
                tp.status != sp.status || tp.spec.node_name != sp.spec.node_name
            })
        });
        if downward {
            self.metrics.scan_requeues.inc();
            self.downward
                .add(name, WorkItem { tenant: name.clone(), kind, key: tenant_key.to_string() });
        }
        if let Some((_, super_pod)) = stale_pod {
            self.metrics.scan_requeues.inc();
            self.upward.add(WorkItem { tenant: name.clone(), kind, key: super_pod.key() });
        }
        downward || stale_pod.is_some()
    }

    /// Advances the paginated cold sweep by up to `budget` keys. The
    /// sweep walks (tenant × downward kind) cache segments in name
    /// order, then the super-side caches (mapping each owned object back
    /// to its tenant key), wrapping around at the end. At most one full
    /// lap runs per call so empty caches cannot spin the scanner.
    fn cold_sweep(&self, budget: usize) -> usize {
        let kinds = &self.config.downward_kinds;
        if kinds.is_empty() || budget == 0 {
            return 0;
        }
        let mut tenants: Vec<Arc<TenantState>> = self.tenants.read().values().cloned().collect();
        tenants.sort_by(|a, b| a.handle.name.cmp(&b.handle.name));

        // Segment list for this tick: every (tenant, kind) pair, then one
        // super-side segment per kind.
        let mut segments: Vec<(Option<Arc<TenantState>>, ResourceKind)> = Vec::new();
        for tenant in &tenants {
            for kind in kinds {
                segments.push((Some(Arc::clone(tenant)), *kind));
            }
        }
        for kind in kinds {
            segments.push((None, *kind));
        }
        let total = segments.len();

        // Map the persisted cursor onto this tick's segment list. A
        // tenant unregistered since the last tick resolves to the next
        // tenant in name order (a one-time partial skip is harmless: the
        // sweep wraps around).
        let mut cursor = self.scan_cursor.lock().clone();
        let kind_idx = cursor.kind_idx.min(kinds.len() - 1);
        let mut idx = if cursor.super_side {
            tenants.len() * kinds.len() + kind_idx
        } else {
            match &cursor.tenant {
                Some(name) => match tenants.iter().position(|t| t.handle.name >= *name) {
                    Some(t_idx) => t_idx * kinds.len() + kind_idx,
                    None => tenants.len() * kinds.len(), // past the last tenant
                },
                None => 0,
            }
        };

        let mut checked = 0usize;
        let mut requeues = 0usize;
        let mut visited = 0usize;
        let mut resuming = true;
        while checked < budget && visited <= total {
            let (state, kind) = &segments[idx % total];
            let keys = match state {
                Some(tenant) => tenant.cache(*kind).sorted_keys(),
                None => self.super_cache(*kind).map(|c| c.sorted_keys()).unwrap_or_default(),
            };
            // Resume strictly after the last visited key (first segment
            // only; later segments start fresh).
            let start = match (&cursor.last_key, resuming) {
                (Some(last), true) => keys.partition_point(|k| k.as_str() <= last.as_str()),
                _ => 0,
            };
            resuming = false;
            let take = (budget - checked).min(keys.len().saturating_sub(start));
            for key in &keys[start..start + take] {
                checked += 1;
                match state {
                    Some(tenant) => {
                        requeues += usize::from(self.check_key(tenant, *kind, key));
                    }
                    None => {
                        // Map the super object back to its owner's view.
                        let Some(cache) = self.super_cache(*kind) else { continue };
                        let Some(obj) = cache.get(key) else { continue };
                        let Some(owner) = mapping::owner_cluster(&obj) else { continue };
                        let Some(tenant) = self.tenant(owner) else { continue };
                        let Some(tenant_key) =
                            mapping::super_key_to_tenant(&tenant.handle.prefix, *kind, key)
                        else {
                            continue;
                        };
                        requeues += usize::from(self.check_key(&tenant, *kind, &tenant_key));
                    }
                }
            }
            if start + take < keys.len() {
                // Budget exhausted mid-segment: remember where to resume.
                cursor = ScanCursor {
                    super_side: state.is_none(),
                    tenant: state.as_ref().map(|t| t.handle.name.clone()),
                    kind_idx: kinds.iter().position(|k| k == kind).unwrap_or(0),
                    last_key: keys.get(start + take - 1).cloned(),
                };
                *self.scan_cursor.lock() = cursor;
                return requeues;
            }
            idx += 1;
            visited += 1;
        }
        // Lap (or budget) complete at a segment boundary: resume at the
        // start of the segment the cursor now points at.
        let (state, kind) = &segments[idx % total];
        *self.scan_cursor.lock() = ScanCursor {
            super_side: state.is_none(),
            tenant: state.as_ref().map(|t| t.handle.name.clone()),
            kind_idx: kinds.iter().position(|k| k == kind).unwrap_or(0),
            last_key: None,
        };
        requeues
    }

    /// Stops workers, scanner, broadcaster and all informers.
    pub fn stop(&self) {
        // Stop tenant informers first so no new work arrives.
        let tenants: Vec<Arc<TenantState>> = self.tenants.read().values().cloned().collect();
        for tenant in tenants {
            for informer in tenant.informers.values() {
                informer.stop();
            }
        }
        if let Some(mut handle) = self.handle.lock().take() {
            handle.stop();
        }
    }

    fn on_tenant_event(&self, tenant: &str, kind: ResourceKind, event: &InformerEvent) {
        let obj = event.object();
        let key = obj.key();
        self.mark_dirty(tenant, kind, &key);
        // A status-only update is this syncer's own upward write coming
        // back: nothing the downward path reads has changed, so there is
        // nothing to reconcile. (The key stays dirty for the scanner,
        // whose job re-validating an unchanged object is.)
        if let InformerEvent::Updated { old, new } = event {
            if old.same_desired_state(new) {
                return;
            }
        }
        if kind == ResourceKind::Pod {
            self.trace_downward_enqueue(tenant, &key, event);
        }
        // Coalescing enqueue: a key re-added while still queued keeps one
        // slot and records only the latest generation, so an object
        // modified N times while waiting is reconciled once.
        self.downward.add_coalescing(
            tenant,
            WorkItem { tenant: tenant.to_string(), kind, key },
            obj.meta().resource_version,
        );
    }

    fn on_super_event(&self, kind: ResourceKind, event: &InformerEvent) {
        let obj = event.object();
        match kind {
            ResourceKind::Node => {} // heartbeat broadcaster reads the cache
            ResourceKind::StorageClass => {
                // Broadcast to every tenant.
                for tenant in self.tenants.read().keys() {
                    self.upward.add(WorkItem { tenant: tenant.clone(), kind, key: obj.key() });
                }
            }
            _ => {
                let Some(tenant) = self.tenant_for_super_object(kind, obj) else { return };
                if kind == ResourceKind::Pod {
                    if let InformerEvent::Deleted(deleted) = event {
                        self.recent_super_deletions.lock().insert(
                            deleted.key(),
                            mapping::tenant_uid(deleted).map(str::to_string),
                        );
                    }
                    // The Super-Sched phase ends when the super pod turns
                    // Ready.
                    if let Some(pod) = obj.as_pod() {
                        if pod.status.condition(PodConditionType::Ready).is_some_and(|c| c.status) {
                            if let Some(tenant_key) = self.tenant_key_for(&tenant, kind, &obj.key())
                            {
                                self.trace_super_ready(&tenant, &tenant_key);
                            }
                        }
                    }
                }
                // Super-side mutations of downward-synced kinds (crashes,
                // out-of-band writes, evictions) dirty the tenant-side key
                // so the next scan tick re-validates it.
                if self.config.downward_kinds.contains(&kind) {
                    if let Some(tenant_key) = self.tenant_key_for(&tenant, kind, &obj.key()) {
                        self.mark_dirty(&tenant, kind, &tenant_key);
                    }
                }
                // Only kinds with an upward reconciler are queued upward.
                if UPWARD_KINDS.contains(&kind) {
                    self.upward.add(WorkItem { tenant, kind, key: obj.key() });
                }
            }
        }
    }

    /// Finds which tenant a super-cluster object belongs to, via the
    /// cluster annotation or (for events) the namespace prefix.
    fn tenant_for_super_object(&self, _kind: ResourceKind, obj: &vc_api::Object) -> Option<String> {
        if let Some(owner) = mapping::owner_cluster(obj) {
            let owner = owner.to_string();
            return self.tenants.read().contains_key(&owner).then_some(owner);
        }
        // Objects created by super-cluster controllers (events, endpoints,
        // PVs) carry no annotation; match the namespace prefix.
        let ns = &obj.meta().namespace;
        if !ns.is_empty() {
            if let Some(tenant) = self.tenant_for_super_ns(ns) {
                return Some(tenant);
            }
        }
        // Cluster-scoped PVs: match via claim_ref prefix.
        if let vc_api::Object::PersistentVolume(pv) = obj {
            if let Some((claim_ns, _)) = pv.claim_ref.split_once('/') {
                return self.tenant_for_super_ns(claim_ns);
            }
        }
        None
    }

    /// Resolves the owning tenant of a super-cluster namespace through
    /// the prefix index. Super namespaces are `{prefix}-{tenant_ns}`, so
    /// the candidate prefixes are exactly the splits of `ns` at each `-`
    /// — O(dashes) hash lookups per event, independent of how many
    /// tenants are registered. (The previous implementation scanned every
    /// tenant per super event: O(tenants) on the informer hot path, which
    /// dominated at 1,000+ tenants.)
    fn tenant_for_super_ns(&self, ns: &str) -> Option<String> {
        let index = self.prefix_index.read();
        for (i, b) in ns.bytes().enumerate() {
            if b == b'-' {
                if let Some(tenant) = index.get(&ns[..i]) {
                    return Some(tenant.clone());
                }
            }
        }
        None
    }

    // ---- Trace plumbing -------------------------------------------------
    //
    // Pod traces are keyed `(tenant, tenant-side key)`. The tenant
    // apiserver gate opens the trace on pod Create; the helpers below
    // stamp queue marks and stage spans as the object moves through the
    // pipeline. The five spans are the paper's Fig 8 / Table I phases
    // (DWS-Queue, DWS-Process, Super-Sched, UWS-Queue, UWS-Process), which
    // the `fig8_breakdown` bench reads back per pod. Marks are set-once
    // and spans consume their mark, so duplicate events cannot inflate a
    // stage; a requeue records a second span, and readers that want the
    // creation path alone take the first one (`Trace::span`).

    /// Called for every tenant-side pod event entering the downward
    /// queue: marks the DWS-Queue wait start. Additions also open the
    /// trace — a no-op when the apiserver gate already did (begin is
    /// idempotent while the trace is open), but it covers pods written
    /// before observability attached or via paths that bypass the gate.
    /// A deletion drops a still-open trace: a pod deleted before Ready
    /// (or blocked by policy for good) would otherwise hold it forever.
    fn trace_downward_enqueue(&self, tenant: &str, key: &str, event: &InformerEvent) {
        let tracer = &self.obs.tracer;
        let id = match event {
            InformerEvent::Added(_) => Some(tracer.begin(tenant, key)),
            InformerEvent::Deleted(_) => {
                tracer.abandon(tenant, key);
                None
            }
            _ => tracer.lookup(tenant, key),
        };
        if let Some(id) = id {
            tracer.mark(id, stage::MARK_DWS_ENQUEUE);
        }
    }

    /// Downward reconcile reached the desired super-cluster state for a
    /// pod: marks the Super-Sched span start. The create path calls this
    /// *before* its write — the scheduler and kubelet can have the pod
    /// Ready, and [`Self::trace_super_ready`] can have come looking for
    /// the mark, before the worker is back from the call — and takes it
    /// back with [`Self::trace_dws_undone`] if the write fails.
    pub(crate) fn trace_dws_done(&self, tenant: &str, key: &str) {
        if let Some(id) = self.obs.tracer.lookup(tenant, key) {
            self.obs.tracer.mark(id, stage::MARK_SUPER_SCHED);
        }
    }

    /// The super-cluster create announced by [`Self::trace_dws_done`]
    /// failed: Super-Sched has not started after all.
    pub(crate) fn trace_dws_undone(&self, tenant: &str, key: &str) {
        if let Some(id) = self.obs.tracer.lookup(tenant, key) {
            self.obs.tracer.unmark(id, stage::MARK_SUPER_SCHED);
        }
    }

    /// The super pod turned Ready: closes the Super-Sched span and marks
    /// the UWS-Queue wait start.
    fn trace_super_ready(&self, tenant: &str, tenant_key: &str) {
        if let Some(id) = self.obs.tracer.lookup(tenant, tenant_key) {
            self.trace_super_ready_on(id);
        }
    }

    fn trace_super_ready_on(&self, id: vc_obs::TraceId) {
        let tracer = &self.obs.tracer;
        tracer.span_since_mark(id, stage::MARK_SUPER_SCHED, stage::SUPER_SCHED);
        tracer.mark(id, stage::MARK_UWS_ENQUEUE);
    }

    /// An upward worker picked up the ready pod: closes the UWS-Queue
    /// span and marks the UWS-Process start. The worker reads the informer
    /// cache, which shows the pod Ready a moment before the Ready event's
    /// handler runs — holding an item queued by an earlier event it can be
    /// here first, so it does the handler's bookkeeping itself (marks are
    /// set-once and spans consume theirs: when the handler was first, this
    /// changes nothing).
    pub(crate) fn trace_uws_dequeued(&self, tenant: &str, tenant_key: &str) {
        let tracer = &self.obs.tracer;
        if let Some(id) = tracer.lookup(tenant, tenant_key) {
            self.trace_super_ready_on(id);
            tracer.span_since_mark(id, stage::MARK_UWS_ENQUEUE, stage::UWS_QUEUE);
            tracer.mark(id, stage::MARK_UWS_PROCESS);
        }
    }

    /// The tenant pod status now reflects Ready: closes the UWS-Process
    /// span and finishes the trace (recording a slow-op log entry when
    /// over threshold).
    pub(crate) fn trace_uws_done(&self, tenant: &str, tenant_key: &str) {
        let tracer = &self.obs.tracer;
        if let Some(id) = tracer.lookup(tenant, tenant_key) {
            tracer.span_since_mark(id, stage::MARK_UWS_PROCESS, stage::UWS_PROCESS);
        }
        tracer.finish(tenant, tenant_key);
    }

    // ---- Per-tenant dashboard -------------------------------------------

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
        let hist = self.tenant_sync_duration.with(&[tenant, "downward"]);
        Some(TenantSyncStats {
            queue_depth: self.downward.tenant_len(tenant) as u64,
            sync_p50_us: hist.percentile(0.5),
            sync_p99_us: hist.percentile(0.99),
            synced_objects: hist.count() as u64,
            slow_ops,
            breaker: format!("{health:?}"),
        })
    }

    /// Dashboard rows for every registered tenant, sorted by name.
    pub fn tenant_dashboard(&self) -> Vec<(String, TenantSyncStats)> {
        let mut names = self.tenant_names();
        names.sort();
        let slow = self.obs.tracer.slow_op_counts();
        names
            .into_iter()
            .filter_map(|n| {
                let slow_ops = slow.get(&n).copied().unwrap_or(0);
                self.tenant_stats_with_slow(&n, slow_ops).map(|s| (n, s))
            })
            .collect()
    }

    /// Marks a tenant's dashboard inputs changed, scheduling it for the
    /// next [`Self::publish_tenant_stats`] pass. Called from the reconcile
    /// workers, breaker transitions and registration — the event feed that
    /// lets the publish pass touch only tenants with news instead of
    /// walking every registered tenant (O(dirty), not O(tenants)).
    pub(crate) fn mark_stats_dirty(&self, tenant: &str) {
        self.stats_dirty.lock().insert(tenant.to_string());
    }

    /// Tenants currently scheduled for a dashboard republish.
    pub fn stats_dirty_len(&self) -> usize {
        self.stats_dirty.lock().len()
    }

    /// Refreshes the per-tenant queue-depth gauges and publishes each
    /// tenant's [`TenantSyncStats`] onto its VC object status — but only
    /// for tenants dirtied since the last pass (reconcile activity,
    /// breaker transitions, fresh registration). Under tenant-density
    /// load with mostly-idle tenants this pass is O(active tenants), not
    /// O(all tenants). Best-effort (registry-only tenants have no VC
    /// object) and write-avoiding: a tenant whose stats are unchanged
    /// since the last publish is skipped. Runs from the scanner thread
    /// after every scan pass.
    pub fn publish_tenant_stats(&self) {
        let mut dirty: Vec<String> =
            std::mem::take(&mut *self.stats_dirty.lock()).into_iter().collect();
        if dirty.is_empty() {
            return;
        }
        dirty.sort();
        // One slow-op ring aggregation per pass, shared by every row.
        let slow = self.obs.tracer.slow_op_counts();
        for tenant in dirty {
            let slow_ops = slow.get(&tenant).copied().unwrap_or(0);
            let Some(stats) = self.tenant_stats_with_slow(&tenant, slow_ops) else {
                continue; // unregistered or hibernated since marked
            };
            // Per-tenant depth reads instead of a tenant_lens() walk. Kept
            // behind the registration check: re-creating the cell for a
            // tenant that was just torn down would undo the label-space
            // reclamation unregister_tenant performs.
            self.tenant_queue_depth.with(&[&tenant]).set(self.downward.tenant_len(&tenant) as i64);
            {
                let mut last = self.last_published_stats.lock();
                if last.get(&tenant) == Some(&stats) {
                    continue;
                }
                last.insert(tenant.clone(), stats.clone());
            }
            self.update_vc_status(&tenant, |vc| {
                let changed = vc.status.sync != stats;
                vc.status.sync = stats.clone();
                changed
            });
        }
    }

    /// Maps a super key back to a tenant key for the given tenant name.
    pub(crate) fn tenant_key_for(
        &self,
        tenant: &str,
        kind: ResourceKind,
        super_key: &str,
    ) -> Option<String> {
        let tenants = self.tenants.read();
        let state = tenants.get(tenant)?;
        mapping::super_key_to_tenant(&state.handle.prefix, kind, super_key)
    }
}

/// Congestion model for per-item processing cost: near zero on an idle
/// queue, saturating toward `full` as the backlog grows (lock contention
/// and allocator pressure only bite under load). `depth / (depth + 50)`
/// reaches 90% of the full cost at a backlog of 450 items.
fn congestion_cost(full: Duration, depth: usize) -> Duration {
    if full.is_zero() || depth == 0 {
        return Duration::ZERO;
    }
    full.mul_f64(depth as f64 / (depth as f64 + 50.0))
}

impl Drop for Syncer {
    fn drop(&mut self) {
        if let Some(mut handle) = self.handle.lock().take() {
            handle.stop();
        }
    }
}
