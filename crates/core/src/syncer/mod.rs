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
//!
//! This file holds the configuration, start/stop, the per-item `process`
//! step, tenant attach/detach/hibernate and event routing. Each policy owns
//! its state in its own file: `health` (breakers), `retry` (backoff, dead
//! letters), `scanner`, `stats` (dashboard), `metrics` and `trace`.

pub mod vnode;

mod downward;
mod health;
mod metrics;
mod retry;
mod scanner;
mod stats;
mod trace;
mod upward;

use crate::mapping;
use crate::registry::TenantHandle;
use crate::vc_object::{VirtualCluster, VC_MANAGER_NAMESPACE};
use health::Health;
use parking_lot::{Mutex, RwLock};
use retry::Retry;
use scanner::Scanner;
use stats::Stats;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use vc_api::crd::CustomObject;
use vc_api::object::ResourceKind;
use vc_api::pod::PodConditionType;
use vc_api::time::{Clock, RealClock};
use vc_client::reflector::Pool;
use vc_client::{
    BackoffPolicy, Client, InformerConfig, InformerEvent, SharedInformer, WeightedFairQueue,
    WorkQueue,
};
use vc_controllers::util::{retry_on_conflict, ControllerHandle};
use vc_obs::{stage, ObsParams, Observability, TraceContext};
use vnode::VNodeManager;

pub use health::TenantHealth;
pub use metrics::{SyncerCounters, SyncerMetrics};

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
    /// since the last tick plus one cold-sweep slice (see
    /// [`Syncer::scan_tick`]).
    pub scan_interval: Option<Duration>,
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
    /// This syncer, for the retry timers that deliver into it.
    this: Weak<Syncer>,
    /// Failure counts, dead letters and policy blocks.
    retry: Retry,
    /// Circuit breakers, their probe timer and parked upward items.
    health: Health,
    /// Hibernated (idle) tenants: informers stopped, caches released
    /// (paper §V: "reducing the cost of running tenant control planes").
    pub(crate) hibernated: Mutex<HashMap<String, Arc<TenantHandle>>>,
    /// The scanner's dirty set and cold-sweep cursor.
    scanner: Scanner,
    /// vNode bookkeeping.
    pub vnodes: VNodeManager,
    /// Counters and busy timers.
    pub metrics: SyncerMetrics,
    /// Observability plane: the request tracer plus the unified metrics
    /// registry every attached apiserver and the syncer's own families
    /// report into.
    pub obs: Arc<Observability>,
    /// Per-tenant dashboard families and publish bookkeeping.
    stats: Stats,
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
        let mut super_informers = HashMap::new();
        for kind in UPWARD_KINDS.iter().chain(&[ResourceKind::Node]).chain(&config.downward_kinds) {
            super_informers.entry(*kind).or_insert_with(|| {
                SharedInformer::new(super_client.clone(), InformerConfig::new(*kind))
            });
        }

        let obs = Observability::new(config.obs.clone());
        // Every informer in the process — the syncer's, the controllers',
        // the tenants' — runs on one pool; its counters are process-wide.
        Pool::global().publish_metrics(&obs.registry);
        // The super apiserver reports into the shared registry under the
        // "super" scope; it never opens traces (tenant gates do that).
        super_client.server().attach_observability(&obs, "super", false);
        let stats = Stats::new(&obs.registry);

        let syncer = Arc::new_cyclic(|syncer: &Weak<Syncer>| Syncer {
            downward: Arc::new(WeightedFairQueue::new(config.fair_queuing)),
            upward: Arc::new(WorkQueue::with_clock(Arc::clone(&clock))),
            this: syncer.clone(),
            retry: Retry::default(),
            health: Health::new(syncer.clone(), Arc::clone(&clock)),
            config,
            super_client,
            super_informers,
            tenants: RwLock::new(HashMap::new()),
            prefix_index: RwLock::new(HashMap::new()),
            recent_super_deletions: Mutex::new(HashMap::new()),
            hibernated: Mutex::new(HashMap::new()),
            scanner: Scanner::default(),
            vnodes: VNodeManager::new(),
            metrics: SyncerMetrics::new(&obs.registry),
            obs,
            stats,
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
        // cannot distort fair shares). Upward workers batch the same way
        // (upward items are independent status writes, so plain FIFO
        // batches are safe).
        {
            let syncer_ref = Arc::clone(&syncer);
            let count = syncer.config.downward_workers;
            handle.workers("syncer-dws", count, DOWNWARD_BATCH, &syncer.downward, move |item| {
                syncer_ref.process(item, true)
            });
            let syncer_ref = Arc::clone(&syncer);
            let count = syncer.config.upward_workers;
            handle.workers("syncer-uws", count, UPWARD_BATCH, &syncer.upward, move |item| {
                syncer_ref.process(item, false)
            });
        }
        // Periodic incremental mismatch scanner. Ticks are measured on
        // the syncer clock: under a virtual clock a test advances
        // `scan_interval` and the next tick fires without real waiting.
        if let Some(interval) = syncer.config.scan_interval {
            let syncer_ref = Arc::clone(&syncer);
            handle.every(&syncer.clock, interval, move || {
                syncer_ref.scan_tick();
                syncer_ref.publish_tenant_stats();
            });
        }
        // vNode heartbeat broadcaster.
        {
            let syncer_ref = Arc::clone(&syncer);
            handle.every(&syncer.clock, syncer.config.vnode_heartbeat_interval, move || {
                let tenants: Vec<Arc<TenantHandle>> =
                    syncer_ref.tenants.read().values().map(|t| Arc::clone(&t.handle)).collect();
                if let Some(cache) = syncer_ref.super_cache(ResourceKind::Node) {
                    syncer_ref.vnodes.broadcast_heartbeats(&tenants, cache);
                }
            });
        }
        *syncer.handle.lock() = Some(handle);
        syncer
    }

    /// Runs one item of the downward (`down`) or upward queue as a worker
    /// does: the modelled `congestion_cost` and the reconcile under the
    /// direction's busy timer, then the tenant's duration histogram and
    /// stats mark. A downward item also closes its queue-wait span, opens
    /// DWS-Process and reconciles under its trace. The create path closes
    /// DWS-Process before its super write (`trace_dws_done`); on any other
    /// path it is closed here, after the reconcile. Upward pod spans are
    /// recorded inside the upward reconciler, which knows whether the super
    /// pod is Ready and maps the super key back to the traced tenant key.
    fn process(&self, item: &WorkItem, down: bool) {
        let (busy, full_cost, direction) = if down {
            (&self.metrics.downward_busy, self.config.downward_process_cost, "downward")
        } else {
            (&self.metrics.upward_busy, self.config.upward_process_cost, "upward")
        };
        let trace_id = down.then(|| self.obs.tracer.lookup(&item.tenant, &item.key)).flatten();
        if let Some(id) = trace_id {
            self.obs.tracer.span_since_mark(id, stage::MARK_DWS_ENQUEUE, stage::DWS_QUEUE);
            self.obs.tracer.mark(id, stage::MARK_DWS_PROCESS);
        }
        let started = Instant::now();
        busy.record(|| {
            let _ctx = trace_id.map(TraceContext::enter);
            if !full_cost.is_zero() {
                let depth = if down { self.downward.len() } else { self.upward.len() };
                self.clock.sleep(congestion_cost(full_cost, depth));
            }
            if down {
                downward::reconcile(self, item)
            } else {
                upward::reconcile(self, item)
            }
        });
        let elapsed = started.elapsed();
        if let Some(id) = trace_id {
            self.obs.tracer.span_since_mark(id, stage::MARK_DWS_PROCESS, stage::DWS_PROCESS);
        }
        // `detach_tenant` takes the write lock before the tenant's cells are
        // reclaimed, so under the read lock this either records before the
        // reclaim or finds the tenant gone and records nothing.
        let tenants = self.tenants.read();
        if tenants.contains_key(&item.tenant) {
            self.stats.observe(&item.tenant, direction, elapsed);
            self.mark_stats_dirty(&item.tenant);
        }
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
        self.health.forget_breaker(name);
        self.scanner.forget_tenant(name);
        self.stats.forget_dirty(name);
        state
    }

    /// Detaches a tenant for good: stops its informers, drops its
    /// sub-queue and everything else the syncer holds in its name.
    pub fn unregister_tenant(&self, name: &str) {
        self.detach_tenant(name);
        // Parked upward items, dead letters, policy blocks and open traces
        // would otherwise leak.
        self.health.forget_parked(name);
        self.retry.forget_tenant(name, &self.metrics.dead_letter_len);
        // Pods still in flight will never report Ready to anyone.
        self.obs.tracer.abandon_tenant(name);
        // Reclaim the tenant's cells from every `tenant`-labeled metric
        // family (sync-duration histograms, queue-depth gauges) and the
        // stats-publish dedup map. Without this sweep the registry's
        // label space grows monotonically under onboarding/teardown
        // churn — each short-lived tenant would permanently leave its
        // cells (and their retained histogram windows) behind.
        self.obs.registry.remove_label_value("tenant", name);
        self.stats.forget_published(name);
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

    /// Returns `true` while the syncer has no work of its own left: both
    /// queues empty, no item in processing and no retry pending. Only an
    /// informer event or a scanner tick starts new work then.
    pub fn is_quiet(&self) -> bool {
        self.downward.is_empty()
            && self.downward.processing_count() == 0
            && self.upward.is_empty()
            && self.upward.processing_count() == 0
            && !self.retry.has_pending()
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
        self.health.stop();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Framework, FrameworkConfig};

    /// A worker still in `process` when its tenant is torn down must not
    /// bring back the `tenant` cells the teardown reclaimed.
    #[test]
    fn processing_a_removed_tenants_item_records_nothing() {
        let fw = Framework::start(FrameworkConfig::minimal());
        fw.create_tenant("gone").unwrap();
        fw.delete_tenant("gone").unwrap();
        let item =
            WorkItem { tenant: "gone".into(), kind: ResourceKind::Pod, key: "default/p".into() };
        fw.syncer.process(&item, true);
        fw.syncer.process(&item, false);
        for family in fw.obs().registry.snapshot().families {
            let Some(i) = family.labels.iter().position(|label| label == "tenant") else {
                continue;
            };
            for cell in &family.cells {
                assert_ne!(cell.labels[i], "gone", "{} cell outlived the tenant", family.name);
            }
        }
        fw.shutdown();
    }
}
