//! Cluster assembly: compose an apiserver with the controller set of a
//! **super cluster** (scheduler + kubelets + controllers) or a **tenant
//! control plane** (controllers only — "a tenant control plane does not
//! need a scheduler since the Pod scheduling is done in the super cluster",
//! paper §III-B(1)).

use crate::kubelet::{Kubelet, KubeletConfig, KubeletMode};
use crate::scheduler::{SchedulerConfig, SchedulerMetrics};
use crate::util::ControllerHandle;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::ApiResult;
use vc_api::object::ResourceKind;
use vc_api::time::{sleep_cancellable, Clock, RealClock};
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::{Client, InformerConfig, SharedInformer};

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
    handles: Mutex<Vec<ControllerHandle>>,
    /// Shared list so the heartbeat thread can snapshot it via a weak ref.
    kubelets: Arc<Mutex<Vec<Arc<Kubelet>>>>,
    /// Shared pod informer feeding all kubelets (created lazily).
    kubelet_pod_informer: Mutex<Option<Arc<SharedInformer>>>,
    heartbeat: Mutex<Option<ControllerHandle>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("name", &self.name)
            .field("kubelets", &self.kubelets.lock().len())
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
        let mut handles = Vec::new();
        let mut scheduler_metrics = None;

        if let Some(scheduler_config) = config.scheduler.clone() {
            let (handle, metrics) = crate::scheduler::start(
                Client::system(Arc::clone(&apiserver), "system:scheduler"),
                scheduler_config,
            );
            handles.push(handle);
            scheduler_metrics = Some(metrics);
        }
        if config.workload_controllers {
            let (handle, _metrics) = crate::workload::start(Client::system(
                Arc::clone(&apiserver),
                "system:workload-controller",
            ));
            handles.push(handle);
        }
        if config.service_controller {
            let service_config = crate::service::ServiceControllerConfig {
                // Only clusters fronting real infrastructure (i.e. with a
                // scheduler + nodes) provision cloud load balancers.
                provision_load_balancers: config.scheduler.is_some(),
                ..Default::default()
            };
            let (handle, _metrics) = crate::service::start(
                Client::system(Arc::clone(&apiserver), "system:service-controller"),
                service_config,
            );
            handles.push(handle);
        }
        if config.namespace_controller {
            let (handle, _metrics) = crate::namespace_gc::start(Client::system(
                Arc::clone(&apiserver),
                "system:namespace-controller",
            ));
            handles.push(handle);
        }
        if config.garbage_collector {
            let (handle, _metrics) = crate::garbage::start(
                Client::system(Arc::clone(&apiserver), "system:gc"),
                Default::default(),
            );
            handles.push(handle);
        }
        if config.volume_binder {
            let (handle, _metrics) = crate::volume::start(Client::system(
                Arc::clone(&apiserver),
                "system:volume-binder",
            ));
            handles.push(handle);
        }
        if config.node_lifecycle {
            let (handle, _metrics) = crate::node_lifecycle::start(
                Client::system(Arc::clone(&apiserver), "system:node-lifecycle"),
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
            handles: Mutex::new(handles),
            kubelets: Arc::new(Mutex::new(Vec::new())),
            kubelet_pod_informer: Mutex::new(None),
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
            let index = self.kubelets.lock().len() as u32 + 1;
            self.add_node(KubeletConfig::for_node(index), KubeletMode::MockInstant)?;
        }
        Ok(())
    }

    /// Adds one node with an explicit kubelet configuration and mode.
    ///
    /// # Errors
    ///
    /// Propagates node-registration failures.
    pub fn add_node(&self, config: KubeletConfig, mode: KubeletMode) -> ApiResult<Arc<Kubelet>> {
        let informer = self.ensure_kubelet_informer();
        let mut handle = ControllerHandle::new(format!("kubelet-{}", config.node_name));
        let kubelet = Kubelet::start(
            self.system_client(format!("system:kubelet:{}", config.node_name)),
            Arc::clone(informer.cache()),
            config,
            mode,
            &mut handle,
        )?;
        let observer = Arc::clone(&kubelet);
        informer.add_handler(Box::new(move |event| observer.observe(event)));
        self.kubelets.lock().push(Arc::clone(&kubelet));
        self.handles.lock().push(handle);
        self.ensure_heartbeat_thread();
        Ok(kubelet)
    }

    /// The kubelets currently registered.
    pub fn kubelets(&self) -> Vec<Arc<Kubelet>> {
        self.kubelets.lock().clone()
    }

    /// Blocks until every controller informer reports sync.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        self.handles.lock().iter().all(|h| h.wait_for_informers(timeout))
    }

    /// Stops all controllers, kubelets and informers.
    pub fn shutdown(&self) {
        if let Some(mut hb) = self.heartbeat.lock().take() {
            hb.stop();
        }
        if let Some(informer) = self.kubelet_pod_informer.lock().take() {
            informer.stop();
        }
        for handle in self.handles.lock().iter_mut() {
            handle.stop();
        }
    }

    fn ensure_kubelet_informer(&self) -> Arc<SharedInformer> {
        let mut slot = self.kubelet_pod_informer.lock();
        if let Some(informer) = &*slot {
            return Arc::clone(informer);
        }
        let informer = SharedInformer::start(SharedInformer::new(
            self.system_client("system:kubelet-informer"),
            InformerConfig::new(ResourceKind::Pod),
        ));
        informer.wait_for_sync(Duration::from_secs(10));
        *slot = Some(Arc::clone(&informer));
        informer
    }

    fn ensure_heartbeat_thread(&self) {
        let mut slot = self.heartbeat.lock();
        if slot.is_some() {
            return;
        }
        let mut handle = ControllerHandle::new("node-heartbeats");
        let stop = handle.stop_flag();
        let interval = self.config.heartbeat_interval;
        let list = Arc::downgrade(&self.kubelets);
        // The heartbeat cadence runs on the cluster clock — the same clock
        // the node-lifecycle controller judges staleness with. On a
        // SimClock every `advance` past the interval wakes this loop and
        // re-stamps heartbeats immediately, so virtual jumps can never
        // make a live node look dead.
        let clock = Arc::clone(&self.clock);
        handle.add_thread(
            std::thread::Builder::new()
                .name("node-heartbeats".into())
                .spawn(move || {
                    while !stop.is_set() {
                        let snapshot: Vec<Arc<Kubelet>> = match list.upgrade() {
                            Some(kubelets) => kubelets.lock().clone(),
                            None => return,
                        };
                        for kubelet in snapshot {
                            if stop.is_set() {
                                return;
                            }
                            kubelet.heartbeat();
                        }
                        if !sleep_cancellable(&*clock, interval, || stop.is_set()) {
                            return;
                        }
                    }
                })
                .expect("spawn heartbeat thread"),
        );
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
}
