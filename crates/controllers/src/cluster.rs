//! Cluster assembly: compose an apiserver with the controller set of a
//! **super cluster** (scheduler + kubelets + controllers) or a **tenant
//! control plane** (controllers only — "a tenant control plane does not
//! need a scheduler since the Pod scheduling is done in the super cluster",
//! paper §III-B(1)).

use crate::kubelet::{Kubelet, KubeletConfig, KubeletMode};
use crate::scheduler::{SchedulerConfig, SchedulerMetrics};
use crate::util::{ControllerHandle, Informers};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Once};
use std::time::Duration;
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::{Object, ResourceKind};
use vc_api::time::{Clock, RealClock};
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::{Client, InformerEvent};

/// Which control-plane components a [`Cluster`] runs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cluster name (used for apiserver naming).
    pub name: String,
    /// Apiserver tuning.
    pub apiserver: ApiServerConfig,
    /// Scheduler config; `None` for tenant control planes.
    pub scheduler: Option<SchedulerConfig>,
    /// Run the deployment/replicaset controllers.
    pub workload_controllers: bool,
    /// Run the service (IP + endpoints) controller.
    pub service_controller: bool,
    /// Run the namespace drain controller.
    pub namespace_controller: bool,
    /// Run the owner-reference garbage collector.
    pub garbage_collector: bool,
    /// Run the persistent-volume binder.
    pub volume_binder: bool,
    /// Run the node lifecycle controller (heartbeat monitoring +
    /// stranded-pod eviction).
    pub node_lifecycle: bool,
    /// Interval between kubelet node heartbeats.
    pub heartbeat_interval: Duration,
}

impl ClusterConfig {
    /// Config for a super cluster: full controller set + scheduler.
    pub fn super_cluster(name: impl Into<String>) -> Self {
        ClusterConfig {
            name: name.into(),
            apiserver: ApiServerConfig::default(),
            scheduler: Some(SchedulerConfig::default()),
            workload_controllers: true,
            service_controller: true,
            namespace_controller: true,
            garbage_collector: true,
            volume_binder: true,
            node_lifecycle: true,
            heartbeat_interval: Duration::from_secs(10),
        }
    }

    /// Config for a tenant control plane: no scheduler, no nodes (vNodes
    /// are managed by the syncer, so no node lifecycle either), and no
    /// volume binder — storage binding is super-cluster-owned and
    /// back-populated by the syncer; a tenant-side binder would race it
    /// for the claim and release the synced volume as a stray double
    /// bind.
    pub fn tenant(name: impl Into<String>) -> Self {
        ClusterConfig {
            scheduler: None,
            node_lifecycle: false,
            volume_binder: false,
            ..Self::super_cluster(name)
        }
    }

    /// Zeroes the apiserver service times (unit-test speed).
    pub fn with_zero_latency(mut self) -> Self {
        self.apiserver.read_latency = Duration::ZERO;
        self.apiserver.write_latency = Duration::ZERO;
        if let Some(s) = &mut self.scheduler {
            s.service_time = Duration::ZERO;
        }
        self
    }
}

/// A running control plane (apiserver + controllers, optionally nodes).
pub struct Cluster {
    /// Cluster name.
    pub name: String,
    /// The apiserver.
    pub apiserver: Arc<ApiServer>,
    /// Scheduler metrics when a scheduler runs.
    pub scheduler_metrics: Option<Arc<SchedulerMetrics>>,
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    /// One informer per kind, shared by every component below.
    informers: Informers,
    handles: Mutex<Vec<ControllerHandle>>,
    /// Shared with the pod informer's kubelet router, and with the
    /// heartbeat timer through a weak ref.
    kubelets: Arc<RwLock<Kubelets>>,
    /// Registers the kubelet router with the first node.
    kubelet_router: Once,
    heartbeat: Mutex<Option<ControllerHandle>>,
}

/// The registered kubelets, in registration order and by node name.
#[derive(Default)]
struct Kubelets {
    ordered: Vec<Arc<Kubelet>>,
    by_node: HashMap<String, Arc<Kubelet>>,
}

impl Kubelets {
    /// Hands a pod event to the kubelets of the nodes it names: the pod's
    /// node and, for an update that moved it, the node it was on. Two hash
    /// lookups, whatever the number of nodes.
    fn route(&self, event: &InformerEvent) {
        fn node_of(obj: &Object) -> &str {
            obj.as_pod().map_or("", |pod| pod.spec.node_name.as_str())
        }
        let node = node_of(event.object());
        if let Some(kubelet) = self.by_node.get(node) {
            kubelet.observe(event);
        }
        if let InformerEvent::Updated { old, .. } = event {
            let old_node = node_of(old);
            if old_node != node {
                if let Some(kubelet) = self.by_node.get(old_node) {
                    kubelet.observe(event);
                }
            }
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("name", &self.name)
            .field("kubelets", &self.kubelets.read().ordered.len())
            .finish()
    }
}

impl Cluster {
    /// Starts a cluster per `config` on a real clock.
    pub fn start(config: ClusterConfig) -> Cluster {
        Self::start_with_clock(config, RealClock::shared())
    }

    /// Starts a cluster per `config` with an explicit clock.
    pub fn start_with_clock(mut config: ClusterConfig, clock: Arc<dyn Clock>) -> Cluster {
        config.apiserver.name = config.name.clone();
        let apiserver = ApiServer::new(config.apiserver.clone(), Arc::clone(&clock));
        let informers = Informers::new(Client::system(Arc::clone(&apiserver), "system:informers"));
        let mut handles = Vec::new();
        let mut scheduler_metrics = None;

        if let Some(scheduler_config) = config.scheduler.clone() {
            let (handle, metrics) = crate::scheduler::start(
                Client::system(Arc::clone(&apiserver), "system:scheduler"),
                &informers,
                scheduler_config,
            );
            handles.push(handle);
            scheduler_metrics = Some(metrics);
        }
        if config.workload_controllers {
            let (handle, _metrics) = crate::workload::start(
                Client::system(Arc::clone(&apiserver), "system:workload-controller"),
                &informers,
            );
            handles.push(handle);
        }
        if config.service_controller {
            let service_config = crate::service::ServiceControllerConfig {
                // Only clusters fronting real infrastructure (i.e. with a
                // scheduler + nodes) provision cloud load balancers.
                provision_load_balancers: config.scheduler.is_some(),
            };
            let (handle, _metrics) = crate::service::start(
                Client::system(Arc::clone(&apiserver), "system:service-controller"),
                &informers,
                service_config,
            );
            handles.push(handle);
        }
        if config.namespace_controller {
            let (handle, _metrics) = crate::namespace_gc::start(
                Client::system(Arc::clone(&apiserver), "system:namespace-controller"),
                &informers,
            );
            handles.push(handle);
        }
        if config.garbage_collector {
            let (handle, _metrics) = crate::garbage::start(
                Client::system(Arc::clone(&apiserver), "system:gc"),
                &informers,
                Default::default(),
            );
            handles.push(handle);
        }
        if config.volume_binder {
            let (handle, _metrics) = crate::volume::start(
                Client::system(Arc::clone(&apiserver), "system:volume-binder"),
                &informers,
            );
            handles.push(handle);
        }
        if config.node_lifecycle {
            let (handle, _metrics) = crate::node_lifecycle::start(
                Client::system(Arc::clone(&apiserver), "system:node-lifecycle"),
                &informers,
                Default::default(),
            );
            handles.push(handle);
        }

        Cluster {
            name: config.name.clone(),
            apiserver,
            scheduler_metrics,
            config,
            clock,
            informers,
            handles: Mutex::new(handles),
            kubelets: Arc::default(),
            kubelet_router: Once::new(),
            heartbeat: Mutex::new(None),
        }
    }

    /// A client to this cluster's apiserver acting as `user`, with the
    /// standard (tenant-grade) client-side rate limits.
    pub fn client(&self, user: impl Into<String>) -> Client {
        Client::new(Arc::clone(&self.apiserver), user)
    }

    /// An unthrottled client for system components (see
    /// [`Client::system`]).
    pub fn system_client(&self, user: impl Into<String>) -> Client {
        Client::system(Arc::clone(&self.apiserver), user)
    }

    /// The clock this cluster runs on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Adds `count` mock-instant kubelet nodes (the paper's 100 virtual
    /// kubelets), indices starting at the current node count.
    ///
    /// # Errors
    ///
    /// Propagates node-registration failures.
    pub fn add_mock_nodes(&self, count: u32) -> ApiResult<()> {
        for _ in 0..count {
            let index = self.kubelets.read().ordered.len() as u32 + 1;
            self.add_node(KubeletConfig::for_node(index), KubeletMode::MockInstant)?;
        }
        Ok(())
    }

    /// Adds one node with an explicit kubelet configuration and mode.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if a kubelet already runs this node; otherwise
    /// propagates node-registration failures.
    pub fn add_node(&self, config: KubeletConfig, mode: KubeletMode) -> ApiResult<Arc<Kubelet>> {
        let informer = self.informers.get(ResourceKind::Pod);
        // One handler for all kubelets, routing by node name.
        self.kubelet_router.call_once(|| {
            let kubelets = Arc::clone(&self.kubelets);
            informer.add_handler(Box::new(move |event| kubelets.read().route(event)));
        });
        let mut handle = ControllerHandle::new(format!("kubelet-{}", config.node_name));
        let kubelet = Kubelet::start(
            self.system_client(format!("system:kubelet:{}", config.node_name)),
            Arc::clone(informer.cache()),
            config,
            mode,
            &mut handle,
        )?;
        {
            let mut kubelets = self.kubelets.write();
            match kubelets.by_node.entry(kubelet.node_name().to_string()) {
                // Two kubelets would both start the node's pods. Dropping
                // `handle` stops this one; it was never routed an event.
                Entry::Occupied(_) => {
                    return Err(ApiError::already_exists("Node", kubelet.node_name()));
                }
                Entry::Vacant(slot) => slot.insert(Arc::clone(&kubelet)),
            };
            kubelets.ordered.push(Arc::clone(&kubelet));
        }
        // A pod bound to the node before the insert above (replayed to the
        // router, or bound as soon as the node registered) was routed to no
        // kubelet.
        for key in informer.cache().keys() {
            let Some(object) = informer.cache().get(&key) else { continue };
            if object.as_pod().is_some_and(|pod| pod.spec.node_name == kubelet.node_name()) {
                kubelet.observe(&InformerEvent::Added { key, object });
            }
        }
        self.handles.lock().push(handle);
        self.ensure_heartbeats();
        Ok(kubelet)
    }

    /// The kubelets currently registered.
    pub fn kubelets(&self) -> Vec<Arc<Kubelet>> {
        self.kubelets.read().ordered.clone()
    }

    /// Blocks until every informer of the cluster reports sync.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        self.informers.wait_for_sync(timeout)
    }

    /// Stops all controllers, kubelets and informers.
    pub fn shutdown(&self) {
        if let Some(mut hb) = self.heartbeat.lock().take() {
            hb.stop();
        }
        self.informers.stop();
        for handle in self.handles.lock().iter_mut() {
            handle.stop();
        }
    }

    fn ensure_heartbeats(&self) {
        let mut slot = self.heartbeat.lock();
        if slot.is_some() {
            return;
        }
        let mut handle = ControllerHandle::new("node-heartbeats");
        let list = Arc::downgrade(&self.kubelets);
        // The heartbeat cadence runs on the cluster clock — the same clock
        // the node-lifecycle controller judges staleness with. On a
        // SimClock every `advance` past the interval fires this timer and
        // re-stamps heartbeats, so virtual jumps do not make a live node
        // look dead.
        handle.every(&self.clock, self.config.heartbeat_interval, move || {
            let Some(kubelets) = list.upgrade() else { return };
            let snapshot: Vec<Arc<Kubelet>> = kubelets.read().ordered.clone();
            for kubelet in snapshot {
                kubelet.heartbeat();
            }
        });
        *slot = Some(handle);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use vc_api::pod::{Container, Pod};
    use vc_api::quantity::resource_list;

    fn fast_super() -> Cluster {
        let cluster = Cluster::start(ClusterConfig::super_cluster("super").with_zero_latency());
        cluster.add_mock_nodes(2).unwrap();
        cluster.wait_ready(Duration::from_secs(10));
        cluster
    }

    #[test]
    fn super_cluster_runs_pod_end_to_end() {
        let cluster = fast_super();
        let user = cluster.client("u");
        user.create(
            Pod::new("default", "e2e")
                .with_container(
                    Container::new("app", "img").with_requests(resource_list(&[("cpu", "100m")])),
                )
                .into(),
        )
        .unwrap();
        // Scheduler binds, mock kubelet marks Ready.
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            user.get(ResourceKind::Pod, "default", "e2e")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
        let pod = user.get(ResourceKind::Pod, "default", "e2e").unwrap();
        assert!(pod.as_pod().unwrap().spec.node_name.starts_with("node-"));
        assert_count_reaches(&cluster.scheduler_metrics.as_ref().unwrap().scheduled, 1);
        cluster.shutdown();
    }

    #[test]
    fn tenant_control_plane_has_no_scheduler() {
        let tenant = Cluster::start(ClusterConfig::tenant("tenant-a").with_zero_latency());
        tenant.wait_ready(Duration::from_secs(10));
        assert!(tenant.scheduler_metrics.is_none());
        let user = tenant.client("tenant-admin");
        user.create(Pod::new("default", "waits").into()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // Nothing binds the pod in a tenant control plane.
        let pod = user.get(ResourceKind::Pod, "default", "waits").unwrap();
        assert!(!pod.as_pod().unwrap().spec.is_bound());
        tenant.shutdown();
    }

    #[test]
    fn tenant_deployment_stamps_pods_locally() {
        let tenant = Cluster::start(ClusterConfig::tenant("tenant-b").with_zero_latency());
        tenant.wait_ready(Duration::from_secs(10));
        let user = tenant.client("tenant-admin");
        let template = vc_api::workload::PodTemplate {
            labels: vc_api::labels::labels(&[("app", "web")]),
            spec: Default::default(),
        };
        user.create(
            vc_api::workload::Deployment::new(
                "default",
                "web",
                3,
                vc_api::labels::Selector::from_pairs(&[("app", "web")]),
                template,
            )
            .into(),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            user.list(ResourceKind::Pod, Some("default")).unwrap().0.len() == 3
        }));
        tenant.shutdown();
    }

    #[test]
    fn replica_set_survives_a_durable_restart_without_over_creation() {
        // Workers start only once their caches have synced: a ReplicaSet
        // worker that counted pods in an empty cache after the restart
        // would create three more.
        let dir = std::env::temp_dir().join(format!("vc-cluster-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let start = || {
            let mut config = ClusterConfig::tenant("restart").with_zero_latency();
            config.apiserver.durability = Some(vc_store::DurabilityConfig::new(&dir));
            Cluster::start(config)
        };
        let pods = |cluster: &Cluster| {
            let (pods, _) = cluster.client("u").list(ResourceKind::Pod, Some("default")).unwrap();
            let mut pods: Vec<_> = pods.iter().map(|p| (p.key(), p.meta().uid.clone())).collect();
            pods.sort();
            pods
        };

        let cluster = start();
        let template = vc_api::workload::PodTemplate {
            labels: vc_api::labels::labels(&[("app", "web")]),
            spec: Default::default(),
        };
        let selector = vc_api::labels::Selector::from_pairs(&[("app", "web")]);
        let rs = vc_api::workload::ReplicaSet::new("default", "web", 3, selector, template);
        cluster.client("u").create(rs.into()).unwrap();
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(5), || {
            pods(&cluster).len() == 3
        }));
        // Expectations are met once the creations are observed; give the
        // worker time to settle before the snapshot.
        std::thread::sleep(Duration::from_millis(100));
        let before = pods(&cluster);
        cluster.shutdown();
        drop(cluster);

        let cluster = start();
        std::thread::sleep(Duration::from_millis(500));
        let after = pods(&cluster);
        cluster.shutdown();
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(before.len(), 3);
        assert_eq!(after, before, "the restarted controllers created or replaced pods");
    }

    #[test]
    fn one_informer_per_kind_serves_every_component() {
        // Scheduler, ReplicaSet, service, GC and kubelet router all read
        // pods; node lifecycle and scheduler both read nodes.
        let cluster = fast_super();
        let kinds = [
            ResourceKind::Pod,
            ResourceKind::Node,
            ResourceKind::ReplicaSet,
            ResourceKind::Deployment,
            ResourceKind::Service,
            ResourceKind::Namespace,
            ResourceKind::PersistentVolumeClaim,
            ResourceKind::PersistentVolume,
            ResourceKind::StorageClass,
        ];
        assert_eq!(cluster.apiserver.store().watcher_count(), kinds.len());
        cluster.shutdown();
        assert!(
            wait_until(Duration::from_secs(5), Duration::from_millis(5), || {
                cluster.apiserver.store().watcher_count() == 0
            }),
            "shutdown releases every watch"
        );
    }

    #[test]
    fn mock_nodes_register_and_heartbeat() {
        let mut config = ClusterConfig::super_cluster("hb").with_zero_latency();
        config.heartbeat_interval = Duration::from_millis(50);
        let cluster = Cluster::start(config);
        cluster.add_mock_nodes(3).unwrap();
        let user = cluster.client("u");
        let (nodes, _) = user.list(ResourceKind::Node, None).unwrap();
        assert_eq!(nodes.len(), 3);
        let before = nodes[0].as_node().unwrap().status.last_heartbeat;
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            user.get(ResourceKind::Node, "", &nodes[0].meta().name)
                .is_ok_and(|o| o.as_node().unwrap().status.last_heartbeat > before)
        }));
        cluster.shutdown();
    }

    #[test]
    fn a_second_kubelet_for_a_node_is_refused() {
        let cluster = fast_super();
        let err =
            cluster.add_node(KubeletConfig::for_node(1), KubeletMode::MockInstant).unwrap_err();
        assert!(err.is_already_exists(), "{err}");
        assert_eq!(cluster.kubelets().len(), 2);
        cluster.shutdown();
    }

    #[test]
    fn pod_bound_before_its_kubelet_joins_still_runs() {
        let cluster = Cluster::start(ClusterConfig::super_cluster("late").with_zero_latency());
        let user = cluster.client("u");
        let mut pod = Pod::new("default", "pinned");
        pod.spec.node_name = "node-1".into();
        user.create(pod.into()).unwrap();
        // The kubelet informer lists the pod before node-1 is routed.
        cluster.add_mock_nodes(1).unwrap();
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            user.get(ResourceKind::Pod, "default", "pinned")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
        cluster.shutdown();
    }

    #[test]
    fn kubelets_handle_only_their_own_nodes_pods() {
        let cluster = Cluster::start(ClusterConfig::super_cluster("routed").with_zero_latency());
        cluster.add_mock_nodes(30).unwrap();
        cluster.wait_ready(Duration::from_secs(10));
        let user = cluster.client("u");
        let names: Vec<String> = (0..30).map(|i| format!("p{i}")).collect();
        for name in &names {
            let container =
                Container::new("app", "img").with_requests(resource_list(&[("cpu", "1")]));
            user.create(Pod::new("default", name.as_str()).with_container(container).into())
                .unwrap();
        }
        let ready = |name: &str| {
            user.get(ResourceKind::Pod, "default", name)
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        };
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            names.iter().all(|name| ready(name))
        }));
        let mut bound: HashMap<String, u64> = HashMap::new();
        for name in &names {
            let obj = user.get(ResourceKind::Pod, "default", name).unwrap();
            *bound.entry(obj.as_pod().unwrap().spec.node_name.clone()).or_default() += 1;
        }
        for name in &names {
            user.delete(ResourceKind::Pod, "default", name).unwrap();
        }

        for kubelet in cluster.kubelets() {
            let hosted = bound.get(kubelet.node_name()).copied().unwrap_or(0);
            assert_count_reaches(&kubelet.pods_started, hosted);
            assert_count_reaches(&kubelet.pods_stopped, hosted);
            // Each pod has at least three events (bind, Ready, delete), so
            // a kubelet handed every pod's events would see 90 or more.
            let events = kubelet.pod_events.get();
            assert!(events < 30, "{} saw {events} pod events", kubelet.node_name());
        }
        assert_eq!(bound.values().sum::<u64>(), 30);
        cluster.shutdown();
    }
}
