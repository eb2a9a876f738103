//! # vc-apiserver — the Kubernetes apiserver analog
//!
//! Wraps a [`vc_store::Store`] with the request-path behavior controllers
//! depend on:
//!
//! * authorization ([`auth::Authorizer`], RBAC-lite),
//! * an admission chain ([`admission::AdmissionPlugin`]),
//! * object-metadata management (UID assignment, creation timestamps,
//!   generation bumps on spec changes, resource-version CAS on update),
//! * graceful deletion with finalizers and `deletion_timestamp`,
//! * an inflight gate + configurable per-request service times, which is
//!   what makes a *shared* apiserver a contention point (paper §I) and a
//!   dedicated tenant apiserver cheap (paper §III-D).
//!
//! Every control plane in the simulation — the super cluster and each
//! tenant — is one [`ApiServer`] instance.

#![warn(missing_docs)]

pub mod admission;
pub mod auth;
pub mod gate;

use admission::{AdmissionOp, AdmissionPlugin};
use auth::{Authorizer, Verb};
use gate::{InflightGate, RequestFault};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::{ApiError, ApiResult};
use vc_api::meta::{validate_name, Uid};
use vc_api::metrics::Counter;
use vc_api::namespace::{Namespace, NamespacePhase};
use vc_api::object::{Object, ResourceKind};
use vc_api::time::{Clock, RealClock};
use vc_obs::{
    current_trace, stage, CounterFamily, HistogramFamily, MetricsRegistry, Observability, Tracer,
};
use vc_store::{DurabilityConfig, RecoveryReport, Store, StoreConfig, StoreError, WatchStream};

/// Finalizer the apiserver puts on every namespace so contents are
/// garbage-collected before the namespace disappears.
pub const NAMESPACE_FINALIZER: &str = "kubernetes";

/// Maximum queued requests beyond the inflight cap.
const MAX_QUEUED: usize = 10_000;

/// How long a queued request waits before timing out.
const QUEUE_TIMEOUT: Duration = Duration::from_secs(30);

/// The one key every request queues under: the gate's order is FIFO.
const FIFO: &str = "";

/// Tuning knobs for an [`ApiServer`].
#[derive(Debug, Clone)]
pub struct ApiServerConfig {
    /// Human-readable server name (used in errors and metrics dumps).
    pub name: String,
    /// Simulated service time for reads (get/list base cost).
    pub read_latency: Duration,
    /// Simulated service time for writes.
    pub write_latency: Duration,
    /// Maximum concurrently executing requests.
    pub max_inflight: usize,
    /// Store (event log / watch buffer) configuration.
    pub store: StoreConfig,
    /// When set, the backing store is durable: writes go through a
    /// write-ahead log in the given directory and the server recovers its
    /// state from snapshot + WAL replay on restart (the etcd-survives-a-
    /// restart property). `None` keeps the store purely in-memory.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ApiServerConfig {
    fn default() -> Self {
        ApiServerConfig {
            name: "apiserver".into(),
            read_latency: Duration::from_micros(100),
            write_latency: Duration::from_micros(300),
            max_inflight: 400,
            store: StoreConfig::default(),
            durability: None,
        }
    }
}

/// Per-verb request counters.
#[derive(Debug, Default)]
pub struct ApiServerMetrics {
    /// Successful create requests.
    pub creates: Counter,
    /// Successful get requests.
    pub gets: Counter,
    /// Successful list requests.
    pub lists: Counter,
    /// Successful update requests.
    pub updates: Counter,
    /// Successful delete requests.
    pub deletes: Counter,
    /// Watches opened.
    pub watches: Counter,
    /// Requests rejected by authorization.
    pub denied: Counter,
    /// Requests rejected by admission.
    pub admission_rejected: Counter,
}

/// Upper bucket bounds (µs) for apiserver request-duration histograms.
const REQUEST_DURATION_BUCKETS_US: &[u64] =
    &[100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000];

/// Observability wiring for one apiserver: where its request metrics and
/// trace spans go once [`ApiServer::attach_observability`] is called.
struct ObsHook {
    tracer: Arc<Tracer>,
    registry: Arc<MetricsRegistry>,
    /// Label value identifying this server in metrics and trace stages
    /// (the tenant name for tenant apiservers, the server name otherwise).
    scope: String,
    /// When set, a successful pod create that is not already inside a
    /// trace context begins a new trace for the pod — this is the "gate"
    /// stamp on tenant apiservers.
    begin_pod_traces: bool,
    requests: CounterFamily,
    duration: HistogramFamily,
}

/// Binds `store`'s counters and levels into `registry` as the `vc_store_*`
/// families, labeled `server`. The registry holds the very cells the store
/// updates, so nothing is copied at scrape time.
pub fn publish_store_metrics(store: &Store, registry: &MetricsRegistry, server: &str) {
    let mut counters = vec![
        ("vc_store_writes_total", "Writes (insert/update/delete).", &store.writes),
        ("vc_store_events_delivered_total", "Watch events fanned out.", &store.events_delivered),
    ];
    if let Some(wal) = store.wal_stats() {
        counters.push(("vc_store_wal_bytes_appended_total", "WAL bytes.", &wal.bytes_appended));
        let ops = registry.counter("vc_store_wal_ops_total", "WAL operations.", &["server", "op"]);
        for (op, cell) in [
            ("append", &wal.appends),
            ("fsync", &wal.fsyncs),
            ("snapshot", &wal.snapshots),
            ("flush_failure", &wal.flush_failures),
            ("snapshot_failure", &wal.snapshot_failures),
        ] {
            ops.bind(&[server, op], Arc::clone(cell));
        }
    }
    for (name, help, cell) in counters {
        registry.counter(name, help, &["server"]).bind(&[server], Arc::clone(cell));
    }
    for (name, help, cell) in [
        ("vc_store_objects", "Objects stored (all kinds).", &store.objects),
        ("vc_store_bytes", "Estimated serialized bytes stored.", &store.bytes),
    ] {
        registry.gauge(name, help, &["server"]).bind(&[server], Arc::clone(cell));
    }
    // overflow = fell behind (buffer full); swept = consumer dropped the stream.
    let evicted = registry.counter(
        "vc_store_watchers_evicted_total",
        "Watchers removed, by reason.",
        &["server", "reason"],
    );
    evicted.bind(&[server, "overflow"], Arc::clone(&store.watchers_evicted));
    evicted.bind(&[server, "swept"], Arc::clone(&store.watchers_swept));
}

/// Maps an [`ApiError`] to the short `code` label used on request counters.
fn error_code(err: &ApiError) -> &'static str {
    match err {
        ApiError::NotFound { .. } => "not_found",
        ApiError::AlreadyExists { .. } => "already_exists",
        ApiError::Conflict { .. } => "conflict",
        ApiError::Invalid { .. } => "invalid",
        ApiError::Forbidden { .. } => "forbidden",
        ApiError::TooManyRequests { .. } => "too_many_requests",
        ApiError::Expired { .. } => "expired",
        ApiError::Timeout { .. } => "timeout",
        ApiError::Unavailable { .. } => "unavailable",
        ApiError::Internal { .. } => "internal",
    }
}

/// The apiserver.
///
/// # Examples
///
/// ```
/// use vc_apiserver::ApiServer;
/// use vc_api::namespace::Namespace;
/// use vc_api::object::ResourceKind;
/// use vc_api::pod::Pod;
///
/// let server = ApiServer::new_default("demo");
/// server.create("admin", Namespace::new("web").into())?;
/// let stored = server.create("admin", Pod::new("web", "p0").into())?;
/// assert!(!stored.meta().uid.is_empty());
/// let (pods, _rev) = server.list("admin", ResourceKind::Pod, Some("web"))?;
/// assert_eq!(pods.len(), 1);
/// # Ok::<(), vc_api::ApiError>(())
/// ```
pub struct ApiServer {
    config: ApiServerConfig,
    store: Arc<Store>,
    clock: Arc<dyn Clock>,
    gate: Arc<InflightGate>,
    fault_hook: RwLock<Option<Arc<dyn RequestFault>>>,
    obs: RwLock<Option<Arc<ObsHook>>>,
    admission: RwLock<Vec<Box<dyn AdmissionPlugin>>>,
    /// Authorization policy (disabled/allow-all by default).
    pub authorizer: Authorizer,
    /// Request counters.
    pub metrics: ApiServerMetrics,
    /// What recovery found when a durable store was opened (`None` for
    /// in-memory servers and fresh directories report zero records).
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for ApiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiServer")
            .field("name", &self.config.name)
            .field("objects", &self.store.len())
            .finish()
    }
}

impl ApiServer {
    /// Creates an apiserver with default config, a real clock and the
    /// standard admission chain, bootstrapped with the `default` and
    /// `kube-system` namespaces.
    pub fn new_default(name: impl Into<String>) -> Arc<Self> {
        let config = ApiServerConfig { name: name.into(), ..Default::default() };
        Self::new(config, RealClock::shared())
    }

    /// Creates an apiserver with explicit config and clock.
    pub fn new(config: ApiServerConfig, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::try_new(config, clock).expect("open apiserver store")
    }

    /// Like [`ApiServer::new`], surfacing durable-store open/recovery
    /// failures instead of panicking. With `config.durability` set, the
    /// backing store is recovered from (or created in) the configured WAL
    /// directory; restarting a server on the same directory resumes the
    /// previous state in place.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from opening or recovering the durable
    /// store (never fails for in-memory configurations).
    pub fn try_new(
        config: ApiServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Arc<Self>, StoreError> {
        let (store, recovery) = match &config.durability {
            Some(durability) => {
                let (store, report) = Store::open_durable(
                    config.store.clone(),
                    durability.clone(),
                    Arc::clone(&clock),
                )?;
                (store, Some(report))
            }
            None => (Store::with_config(config.store.clone()), None),
        };
        let gate = InflightGate::new(config.max_inflight, MAX_QUEUED, QUEUE_TIMEOUT);
        let server = Arc::new(ApiServer {
            store: Arc::new(store),
            gate,
            fault_hook: RwLock::new(None),
            obs: RwLock::new(None),
            config,
            clock,
            admission: RwLock::new(vec![
                Box::new(admission::NamespaceLifecycle),
                Box::new(admission::ServiceAccountDefaulter),
                Box::new(admission::PodValidator::default()),
            ]),
            authorizer: Authorizer::new(),
            metrics: ApiServerMetrics::default(),
            recovery,
        });
        for ns in ["default", "kube-system"] {
            // A recovered store already holds the bootstrap namespaces;
            // creating them again is the expected AlreadyExists.
            match server.create("system:bootstrap", Namespace::new(ns).into()) {
                Ok(_) => {}
                Err(e) if e.is_already_exists() => {}
                Err(e) => panic!("bootstrap namespace {ns}: {e}"),
            }
        }
        Ok(server)
    }

    /// The recovery report from opening a durable store, if this server
    /// was configured with durability.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The inflight-request gate every request passes (its queue depth and
    /// wait count show whether requests contended for this server).
    pub fn gate(&self) -> &InflightGate {
        &self.gate
    }

    /// Server name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The clock this server stamps timestamps with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Direct access to the backing store (tests and metrics only; real
    /// clients go through the verbs).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Appends an admission plugin to the chain.
    pub fn add_admission_plugin(&self, plugin: Box<dyn AdmissionPlugin>) {
        self.admission.write().push(plugin);
    }

    /// Attaches a [`RequestFault`] hook; clients consult it before every
    /// request against this server. Replaces any previous hook.
    pub fn set_fault_hook(&self, hook: Arc<dyn RequestFault>) {
        *self.fault_hook.write() = Some(hook);
    }

    /// Detaches the fault hook, restoring fault-free operation.
    pub fn clear_fault_hook(&self) {
        *self.fault_hook.write() = None;
    }

    /// The currently attached fault hook, if any.
    pub fn fault_hook(&self) -> Option<Arc<dyn RequestFault>> {
        self.fault_hook.read().clone()
    }

    /// Routes this server's request metrics and trace spans to `obs`.
    ///
    /// `scope` labels this server in metrics (`server` label) and in
    /// trace stage names (`apiserver:{scope}:{verb}`). With
    /// `begin_pod_traces` set — the tenant-apiserver configuration — a
    /// successful pod create arriving from outside any trace context
    /// *begins* a trace for that pod and records the [`stage::GATE`]
    /// span; this is where an object's end-to-end trace starts.
    ///
    /// The store's own counters and levels (`vc_store_*`) are bound into
    /// the registry under the same `server` label.
    pub fn attach_observability(
        &self,
        obs: &Arc<Observability>,
        scope: impl Into<String>,
        begin_pod_traces: bool,
    ) {
        let requests = obs.registry.counter(
            "vc_apiserver_requests_total",
            "Apiserver requests by server, verb, kind and result code.",
            &["server", "verb", "kind", "code"],
        );
        let duration = obs.registry.histogram(
            "vc_apiserver_request_duration_us",
            "Apiserver request service time in microseconds.",
            &["server", "verb", "kind"],
            REQUEST_DURATION_BUCKETS_US,
        );
        let scope = scope.into();
        publish_store_metrics(&self.store, &obs.registry, &scope);
        *self.obs.write() = Some(Arc::new(ObsHook {
            tracer: obs.tracer.clone(),
            registry: Arc::clone(&obs.registry),
            scope,
            begin_pod_traces,
            requests,
            duration,
        }));
    }

    /// Detaches the observability hook attached by
    /// [`ApiServer::attach_observability`] and reclaims every
    /// `server="<scope>"` cell from the registry: request counters, store
    /// cells, and those of a wire front end serving this apiserver.
    /// Without the reclaim, every tenant control plane ever attached would
    /// leave its cells behind — a label-space leak that grows without
    /// bound under tenant onboarding/teardown churn.
    pub fn detach_observability(&self) {
        if let Some(hook) = self.obs.write().take() {
            hook.registry.remove_label_value("server", &hook.scope);
        }
    }

    /// The registry and `server` label this apiserver reports under, while
    /// attached. A front end serving this apiserver binds its own cells
    /// there, so one scrape covers both.
    pub fn metrics_registry(&self) -> Option<(Arc<MetricsRegistry>, String)> {
        let hook = self.obs.read().clone()?;
        Some((Arc::clone(&hook.registry), hook.scope.clone()))
    }

    /// Records a client-side wait (e.g. rate-limiter throttling before a
    /// request to this server) as a span on the calling thread's current
    /// trace. No-op without an attached observability hook or an active
    /// trace context.
    pub fn record_client_wait(&self, stage_name: &str, waited: Duration) {
        if waited.is_zero() {
            return;
        }
        if let Some(hook) = self.obs.read().clone() {
            if let Some(id) = current_trace() {
                hook.tracer.record_span(id, stage_name, waited, true);
            }
        }
    }

    /// Runs one verb under the observability hook (when attached):
    /// counts the request, records its service time, and stamps a span
    /// onto the calling thread's current trace — or begins a new trace
    /// at the gate for tenant pod creates.
    fn observed<T>(
        &self,
        verb: Verb,
        kind: ResourceKind,
        trace_key: Option<&str>,
        f: impl FnOnce() -> ApiResult<T>,
    ) -> ApiResult<T> {
        let Some(hook) = self.obs.read().clone() else {
            return f();
        };
        // The gate: a pod create from outside any trace opens the pod's
        // trace — before the write, because the write makes the pod visible
        // and the pipeline it sets off may finish before this request
        // returns; a trace opened afterwards would never be finished.
        let gate = (hook.begin_pod_traces
            && verb == Verb::Create
            && kind == ResourceKind::Pod
            && current_trace().is_none())
        .then_some(trace_key)
        .flatten()
        .map(|key| (key, hook.tracer.begin_or_join(&hook.scope, key)));
        let start = std::time::Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        let code = match &result {
            Ok(_) => "ok",
            Err(err) => error_code(err),
        };
        hook.requests.with(&[&hook.scope, verb.as_str(), kind.as_str(), code]).inc();
        hook.duration
            .with(&[&hook.scope, verb.as_str(), kind.as_str()])
            .observe_ms(elapsed.as_micros() as u64);
        if let Some(id) = current_trace() {
            // A syncer worker (or other traced caller) made this request:
            // attach the request span to its trace.
            hook.tracer.record_span(
                id,
                &stage::apiserver(&hook.scope, verb.as_str()),
                elapsed,
                result.is_ok(),
            );
        } else if let Some((key, (id, opened))) = gate {
            if result.is_ok() {
                hook.tracer.record_span(id, stage::GATE, elapsed, true);
            } else if opened {
                // Nothing was created, so nothing will finish the trace.
                hook.tracer.abandon(&hook.scope, key);
            }
        }
        result
    }

    /// Creates `obj`.
    ///
    /// Assigns UID, creation timestamp and generation 1; namespaces get the
    /// [`NAMESPACE_FINALIZER`].
    ///
    /// The response shares the store's `Arc` — callers that need to mutate
    /// the result convert it to a typed object (`try_into()`), which clones
    /// exactly once at that point.
    ///
    /// # Errors
    ///
    /// [`ApiError::Forbidden`] (authz), [`ApiError::Invalid`] (validation /
    /// admission), [`ApiError::AlreadyExists`].
    pub fn create(&self, user: &str, obj: Object) -> ApiResult<Arc<Object>> {
        let kind = obj.kind();
        let key = obj.key();
        self.observed(Verb::Create, kind, Some(&key), move || self.create_inner(user, obj))
    }

    fn create_inner(&self, user: &str, mut obj: Object) -> ApiResult<Arc<Object>> {
        let _permit = self.gate.acquire(FIFO)?;
        self.authorize(user, Verb::Create, &obj)?;
        self.validate_identity(&obj)?;
        self.clock.sleep(self.config.write_latency);

        {
            let meta = obj.meta_mut();
            meta.uid = Uid::generate();
            meta.resource_version = 0;
            meta.generation = 1;
            meta.creation_timestamp = self.clock.now();
            meta.deletion_timestamp = None;
        }
        if let Object::Namespace(ns) = &mut obj {
            ns.meta.add_finalizer(NAMESPACE_FINALIZER);
            ns.phase = NamespacePhase::Active;
        }
        self.run_admission(AdmissionOp::Create, &mut obj)?;
        let stored = self.store.insert(obj)?;
        self.metrics.creates.inc();
        Ok(stored)
    }

    /// Fetches one object. The response shares the store's `Arc` — a
    /// zero-copy read.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`] or [`ApiError::Forbidden`].
    pub fn get(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
    ) -> ApiResult<Arc<Object>> {
        self.observed(Verb::Get, kind, None, || self.get_inner(user, kind, namespace, name))
    }

    fn get_inner(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
    ) -> ApiResult<Arc<Object>> {
        let _permit = self.gate.acquire(FIFO)?;
        if !self.authorizer.authorize(user, Verb::Get, kind, namespace) {
            self.metrics.denied.inc();
            return Err(ApiError::forbidden(user, "get", kind.as_str(), "RBAC denied"));
        }
        self.clock.sleep(self.config.read_latency);
        let key = object_key(kind, namespace, name);
        let obj =
            self.store.get(kind, &key).ok_or_else(|| ApiError::not_found(kind.as_str(), key))?;
        self.metrics.gets.inc();
        Ok(obj)
    }

    /// Lists objects of `kind`, optionally namespace-filtered, returning the
    /// items (shared `Arc`s straight out of the store — no per-item copy)
    /// and the snapshot revision to start a watch from.
    ///
    /// Note the multi-tenant caveat the paper highlights: for cluster-scoped
    /// kinds there is no per-tenant filtering — an authorized `list` sees
    /// everything.
    ///
    /// # Errors
    ///
    /// [`ApiError::Forbidden`].
    pub fn list(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: Option<&str>,
    ) -> ApiResult<(Vec<Arc<Object>>, u64)> {
        self.observed(Verb::List, kind, None, || self.list_inner(user, kind, namespace))
    }

    fn list_inner(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: Option<&str>,
    ) -> ApiResult<(Vec<Arc<Object>>, u64)> {
        let _permit = self.gate.acquire(FIFO)?;
        if !self.authorizer.authorize(user, Verb::List, kind, namespace.unwrap_or("")) {
            self.metrics.denied.inc();
            return Err(ApiError::forbidden(user, "list", kind.as_str(), "RBAC denied"));
        }
        let (items, rev) = self.store.list(kind, namespace);
        // List cost scales with result size (capped so huge lists do not
        // stall the simulation).
        let cost =
            self.config.read_latency + Duration::from_micros((items.len() as u64).min(10_000) / 10);
        self.clock.sleep(cost);
        self.metrics.lists.inc();
        Ok((items, rev))
    }

    /// Replaces an object.
    ///
    /// If the submitted object carries a non-zero `resource_version` the
    /// update is compare-and-swap on it. Server-managed identity fields
    /// (UID, creation timestamp) are preserved from the stored object, and
    /// `generation` is bumped when the desired state changed. Removing the
    /// last finalizer from a terminating object completes its deletion.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`], [`ApiError::Conflict`],
    /// [`ApiError::Forbidden`], [`ApiError::Invalid`].
    pub fn update(&self, user: &str, obj: Object) -> ApiResult<Arc<Object>> {
        let kind = obj.kind();
        self.observed(Verb::Update, kind, None, move || self.update_inner(user, obj))
    }

    fn update_inner(&self, user: &str, mut obj: Object) -> ApiResult<Arc<Object>> {
        let _permit = self.gate.acquire(FIFO)?;
        self.authorize(user, Verb::Update, &obj)?;
        self.clock.sleep(self.config.write_latency);

        let kind = obj.kind();
        let key = obj.key();
        let current = self
            .store
            .get(kind, &key)
            .ok_or_else(|| ApiError::not_found(kind.as_str(), key.clone()))?;

        let expected = match obj.meta().resource_version {
            0 => None,
            rv => Some(rv),
        };
        {
            let cur_meta = current.meta();
            let meta = obj.meta_mut();
            meta.uid = cur_meta.uid.clone();
            meta.creation_timestamp = cur_meta.creation_timestamp;
            // Deletion is one-way: a set deletion_timestamp sticks.
            if cur_meta.deletion_timestamp.is_some() {
                meta.deletion_timestamp = cur_meta.deletion_timestamp;
            }
        }
        let new_generation = if obj_desired_changed(&current, &obj) {
            current.meta().generation + 1
        } else {
            current.meta().generation
        };
        obj.meta_mut().generation = new_generation;
        self.run_admission(AdmissionOp::Update, &mut obj)?;

        // Removing the last finalizer from a terminating object deletes it.
        if obj.meta().is_terminating() && obj.meta().finalizers.is_empty() {
            let removed = self.store.delete(kind, &key)?;
            self.metrics.deletes.inc();
            return Ok(removed);
        }

        let stored = self.store.update(obj, expected)?;
        self.metrics.updates.inc();
        Ok(stored)
    }

    /// Deletes an object.
    ///
    /// With finalizers present this is graceful: the object gets a
    /// `deletion_timestamp` (namespaces also flip to `Terminating`) and
    /// remains visible until controllers strip the finalizers. Without
    /// finalizers the object is removed immediately.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`] or [`ApiError::Forbidden`].
    pub fn delete(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
    ) -> ApiResult<Arc<Object>> {
        self.observed(Verb::Delete, kind, None, || self.delete_inner(user, kind, namespace, name))
    }

    fn delete_inner(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: &str,
        name: &str,
    ) -> ApiResult<Arc<Object>> {
        let _permit = self.gate.acquire(FIFO)?;
        if !self.authorizer.authorize(user, Verb::Delete, kind, namespace) {
            self.metrics.denied.inc();
            return Err(ApiError::forbidden(user, "delete", kind.as_str(), "RBAC denied"));
        }
        self.clock.sleep(self.config.write_latency);
        let key = object_key(kind, namespace, name);
        let current = self
            .store
            .get(kind, &key)
            .ok_or_else(|| ApiError::not_found(kind.as_str(), key.clone()))?;

        if !current.meta().finalizers.is_empty() {
            if current.meta().is_terminating() {
                // Graceful deletion already in progress.
                return Ok(current);
            }
            let mut pending = (*current).clone();
            pending.meta_mut().deletion_timestamp = Some(self.clock.now());
            if let Object::Namespace(ns) = &mut pending {
                ns.phase = NamespacePhase::Terminating;
            }
            let stored = self.store.update(pending, None)?;
            self.metrics.deletes.inc();
            return Ok(stored);
        }

        let removed = self.store.delete(kind, &key)?;
        self.metrics.deletes.inc();
        Ok(removed)
    }

    /// Opens a watch on `kind`, delivering events after `from_revision`.
    ///
    /// # Errors
    ///
    /// [`ApiError::Forbidden`] or [`ApiError::Expired`] (compacted start
    /// revision — re-list required).
    pub fn watch(
        &self,
        user: &str,
        kind: ResourceKind,
        namespace: Option<&str>,
        from_revision: u64,
    ) -> ApiResult<WatchStream> {
        if !self.authorizer.authorize(user, Verb::Watch, kind, namespace.unwrap_or("")) {
            self.metrics.denied.inc();
            return Err(ApiError::forbidden(user, "watch", kind.as_str(), "RBAC denied"));
        }
        let stream = self.store.watch(kind, namespace.map(str::to_string), from_revision)?;
        self.metrics.watches.inc();
        Ok(stream)
    }

    fn authorize(&self, user: &str, verb: Verb, obj: &Object) -> ApiResult<()> {
        if self.authorizer.authorize(user, verb, obj.kind(), &obj.meta().namespace) {
            Ok(())
        } else {
            self.metrics.denied.inc();
            Err(ApiError::forbidden(user, verb.as_str(), obj.kind().as_str(), "RBAC denied"))
        }
    }

    fn validate_identity(&self, obj: &Object) -> ApiResult<()> {
        let kind = obj.kind();
        let meta = obj.meta();
        validate_name(&meta.name)
            .map_err(|msg| ApiError::invalid(kind.as_str(), meta.full_name(), msg))?;
        if kind.is_cluster_scoped() {
            if !meta.namespace.is_empty() {
                return Err(ApiError::invalid(
                    kind.as_str(),
                    meta.full_name(),
                    "cluster-scoped object must not set a namespace",
                ));
            }
        } else if meta.namespace.is_empty() {
            return Err(ApiError::invalid(
                kind.as_str(),
                meta.full_name(),
                "namespaced object must set a namespace",
            ));
        }
        Ok(())
    }

    fn run_admission(&self, op: AdmissionOp, obj: &mut Object) -> ApiResult<()> {
        for plugin in self.admission.read().iter() {
            if let Err(err) = plugin.admit(op, obj, &self.store) {
                self.metrics.admission_rejected.inc();
                return Err(err);
            }
        }
        Ok(())
    }
}

/// Builds the store key for `(kind, namespace, name)`.
pub fn object_key(kind: ResourceKind, namespace: &str, name: &str) -> String {
    if kind.is_cluster_scoped() || namespace.is_empty() {
        name.to_string()
    } else {
        format!("{namespace}/{name}")
    }
}

fn obj_desired_changed(old: &Object, new: &Object) -> bool {
    !old.same_desired_state(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::pod::{Pod, PodPhase};

    fn server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, RealClock::shared())
    }

    #[test]
    fn bootstrap_namespaces_exist() {
        let s = server();
        let (namespaces, _) = s.list("admin", ResourceKind::Namespace, None).unwrap();
        let names: Vec<&str> = namespaces.iter().map(|n| n.meta().name.as_str()).collect();
        assert!(names.contains(&"default"));
        assert!(names.contains(&"kube-system"));
    }

    #[test]
    fn create_assigns_identity() {
        let s = server();
        let stored = s.create("u", Pod::new("default", "p").into()).unwrap();
        assert!(!stored.meta().uid.is_empty());
        assert!(stored.meta().resource_version > 0);
        assert_eq!(stored.meta().generation, 1);
        // Defaulted by admission.
        assert_eq!(stored.as_pod().unwrap().spec.service_account_name, "default");
    }

    #[test]
    fn create_rejects_bad_names_and_scopes() {
        let s = server();
        assert!(s.create("u", Pod::new("default", "BadName").into()).is_err());
        // Namespaced object without a namespace.
        let mut pod = Pod::new("", "p");
        pod.meta.namespace.clear();
        assert!(s.create("u", pod.into()).is_err());
        // Cluster-scoped object with a namespace.
        let mut ns = Namespace::new("x");
        ns.meta.namespace = "default".into();
        assert!(s.create("u", ns.into()).is_err());
    }

    #[test]
    fn create_in_missing_namespace_rejected() {
        let s = server();
        let err = s.create("u", Pod::new("nope", "p").into()).unwrap_err();
        assert!(matches!(err, ApiError::Invalid { .. }), "{err}");
    }

    #[test]
    fn update_cas_and_generation() {
        let s = server();
        let created = s.create("u", Pod::new("default", "p").into()).unwrap();

        // Status-only change: generation unchanged.
        let mut status_change: Pod = created.clone().try_into().unwrap();
        status_change.status.phase = PodPhase::Running;
        let updated = s.update("u", status_change.into()).unwrap();
        assert_eq!(updated.meta().generation, 1);

        // Spec change: generation bumped.
        let mut spec_change: Pod = updated.try_into().unwrap();
        spec_change.spec.node_name = "n1".into();
        let updated2 = s.update("u", spec_change.into()).unwrap();
        assert_eq!(updated2.meta().generation, 2);

        // Stale rv conflicts.
        let mut stale: Pod = created.try_into().unwrap();
        stale.spec.node_name = "n2".into();
        assert!(s.update("u", stale.into()).unwrap_err().is_conflict());

        // rv=0 is unconditional.
        let mut unconditional: Pod = updated2.try_into().unwrap();
        unconditional.meta.resource_version = 0;
        unconditional.spec.node_name = "n3".into();
        s.update("u", unconditional.into()).unwrap();
    }

    #[test]
    fn update_preserves_server_identity() {
        let s = server();
        let created = s.create("u", Pod::new("default", "p").into()).unwrap();
        let mut tampered: Pod = created.clone().try_into().unwrap();
        tampered.meta.uid = Uid::from_string("forged");
        tampered.meta.resource_version = 0;
        let updated = s.update("u", tampered.into()).unwrap();
        assert_eq!(updated.meta().uid, created.meta().uid, "uid cannot be forged");
    }

    #[test]
    fn delete_without_finalizers_is_immediate() {
        let s = server();
        s.create("u", Pod::new("default", "p").into()).unwrap();
        s.delete("u", ResourceKind::Pod, "default", "p").unwrap();
        assert!(s.get("u", ResourceKind::Pod, "default", "p").unwrap_err().is_not_found());
    }

    #[test]
    fn namespace_deletion_is_graceful() {
        let s = server();
        s.create("u", Namespace::new("team").into()).unwrap();
        let pending = s.delete("u", ResourceKind::Namespace, "", "team").unwrap();
        assert!(pending.meta().is_terminating());
        // Still visible while terminating.
        let got = s.get("u", ResourceKind::Namespace, "", "team").unwrap();
        assert!(matches!(&*got, Object::Namespace(n) if n.phase == NamespacePhase::Terminating));
        // Creating a pod in it is now forbidden.
        assert!(s.create("u", Pod::new("team", "p").into()).is_err());
        // Second delete is a no-op returning the pending object.
        assert!(s.delete("u", ResourceKind::Namespace, "", "team").is_ok());
        // Removing the finalizer completes deletion.
        let mut ns: Namespace = got.try_into().unwrap();
        ns.meta.remove_finalizer(NAMESPACE_FINALIZER);
        s.update("u", ns.into()).unwrap();
        assert!(s.get("u", ResourceKind::Namespace, "", "team").unwrap_err().is_not_found());
    }

    #[test]
    fn watch_list_handoff() {
        let s = server();
        s.create("u", Pod::new("default", "a").into()).unwrap();
        let (items, rev) = s.list("u", ResourceKind::Pod, Some("default")).unwrap();
        assert_eq!(items.len(), 1);
        let stream = s.watch("u", ResourceKind::Pod, Some("default"), rev).unwrap();
        s.create("u", Pod::new("default", "b").into()).unwrap();
        let ev = stream.recv_timeout_ms(1000).unwrap();
        assert_eq!(ev.object.meta().name, "b");
    }

    #[test]
    fn rbac_denies_across_namespaces() {
        let s = server();
        s.create("admin", Namespace::new("team-a").into()).unwrap();
        s.create("admin", Namespace::new("team-b").into()).unwrap();
        s.authorizer.enable();
        s.authorizer.bind("admin", auth::PolicyRule::allow_all());
        s.authorizer.bind("alice", auth::PolicyRule::namespace_admin(&["team-a"]));

        assert!(s.create("alice", Pod::new("team-a", "p").into()).is_ok());
        let err = s.create("alice", Pod::new("team-b", "p").into()).unwrap_err();
        assert!(err.is_forbidden());
        assert!(s.metrics.denied.get() >= 1);
        // Tenant cannot create cluster-scoped objects.
        assert!(s.create("alice", Namespace::new("alice-ns").into()).unwrap_err().is_forbidden());
    }

    #[test]
    fn namespace_list_leak_on_shared_cluster() {
        // The paper's motivating leak: granting list-namespaces shows ALL
        // namespaces, including other tenants' (names may be sensitive).
        let s = server();
        s.create("admin", Namespace::new("tenant-a-secret-project").into()).unwrap();
        s.create("admin", Namespace::new("tenant-b-payments").into()).unwrap();
        s.authorizer.enable();
        s.authorizer.bind(
            "alice",
            auth::PolicyRule::cluster_rule(&[Verb::List], &[ResourceKind::Namespace]),
        );
        let (all, _) = s.list("alice", ResourceKind::Namespace, None).unwrap();
        let names: Vec<&str> = all.iter().map(|n| n.meta().name.as_str()).collect();
        assert!(names.contains(&"tenant-b-payments"), "leak is faithful: {names:?}");
    }

    #[test]
    fn metrics_count_verbs() {
        let s = server();
        s.create("u", Pod::new("default", "p").into()).unwrap();
        s.get("u", ResourceKind::Pod, "default", "p").unwrap();
        s.list("u", ResourceKind::Pod, None).unwrap();
        s.delete("u", ResourceKind::Pod, "default", "p").unwrap();
        assert_eq!(s.metrics.creates.get(), 3); // 2 bootstrap namespaces + pod
        assert_eq!(s.metrics.gets.get(), 1);
        assert_eq!(s.metrics.lists.get(), 1);
        assert_eq!(s.metrics.deletes.get(), 1);
    }

    #[test]
    fn observability_hook_counts_and_begins_gate_traces() {
        let s = server();
        let obs = vc_obs::Observability::with_defaults();
        s.attach_observability(&obs, "tenant-1", true);

        // A pod create from outside any trace context begins the trace.
        s.create("u", Pod::new("default", "p").into()).unwrap();
        let trace = obs.tracer.find("tenant-1", "default/p").expect("gate began a trace");
        let gate = trace.span(stage::GATE).expect("gate span recorded");
        assert!(gate.duration > Duration::ZERO);
        assert!(trace.total.is_none(), "trace stays open past the gate");

        // A failed verb is counted under its error code, not traced.
        assert!(s.get("u", ResourceKind::Pod, "default", "nope").unwrap_err().is_not_found());
        let text = obs.registry.render_text();
        assert!(
            text.contains(
                r#"vc_apiserver_requests_total{server="tenant-1",verb="create",kind="Pod",code="ok"} 1"#
            ),
            "{text}"
        );
        assert!(
            text.contains(
                r#"vc_apiserver_requests_total{server="tenant-1",verb="get",kind="Pod",code="not_found"} 1"#
            ),
            "{text}"
        );
        assert!(text.contains("vc_apiserver_request_duration_us_bucket"), "{text}");

        // Inside a trace context the request span lands on that trace.
        let id = obs.tracer.begin("syncer", "default/ctx");
        {
            let _guard = vc_obs::TraceContext::enter(id);
            s.get("u", ResourceKind::Pod, "default", "p").unwrap();
        }
        let ctx_trace = obs.tracer.get(id).unwrap();
        assert!(ctx_trace.span("apiserver:tenant-1:get").is_some());
        // And no new per-pod trace was begun for that get.
        assert_eq!(obs.tracer.open_count(), 2);

        // A create that fails leaves no trace of its own behind, and does
        // not take the live pod's trace with it when it merely joined it.
        assert!(s.create("u", Pod::new("default", "p").into()).unwrap_err().is_already_exists());
        assert!(obs.tracer.lookup("tenant-1", "default/p").is_some(), "p's own trace survives");
        assert!(s.create("u", Pod::new("no-such-namespace", "q").into()).is_err());
        assert!(obs.tracer.find("tenant-1", "no-such-namespace/q").is_none());
        assert_eq!(obs.tracer.open_count(), 2);

        // The pipeline a create sets off can finish the trace before the
        // create returns; the gate span still lands on that trace.
        struct FinishOnAdd(Arc<vc_obs::Tracer>);
        impl std::task::Wake for FinishOnAdd {
            fn wake(self: Arc<Self>) {
                self.0.finish("tenant-1", "default/fast");
            }
        }
        let watch = s.watch("u", ResourceKind::Pod, Some("default"), s.store().revision()).unwrap();
        watch.set_waker(Arc::new(FinishOnAdd(Arc::clone(&obs.tracer))).into());
        s.create("u", Pod::new("default", "fast").into()).unwrap();
        let fast = obs.tracer.find("tenant-1", "default/fast").unwrap();
        assert!(fast.total.is_some(), "finished from inside the write");
        assert!(fast.span(stage::GATE).is_some());
        assert_eq!(obs.tracer.open_count(), 2, "no second, never-finished trace for it");

        s.detach_observability();
        s.create("u", Pod::new("default", "p2").into()).unwrap();
        assert!(obs.tracer.find("tenant-1", "default/p2").is_none(), "detached");
    }

    #[test]
    fn object_key_forms() {
        assert_eq!(object_key(ResourceKind::Pod, "ns", "p"), "ns/p");
        assert_eq!(object_key(ResourceKind::Node, "", "n"), "n");
    }
}
