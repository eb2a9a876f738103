//! The kubelet: node agent that runs pods bound to its node.
//!
//! Two modes, matching the paper's evaluation setup:
//!
//! * [`KubeletMode::MockInstant`] — the virtual-kubelet mock pod provider
//!   used in the paper's experiments: "each virtual kubelet runs a mock Pod
//!   provider, which marks all Pods scheduled to the virtual kubelet ready
//!   and running instantaneously" (§IV). Image pull and container
//!   construction time are excluded, as in the paper.
//! * [`KubeletMode::Cri`] — a realistic mode that drives a
//!   [`ContainerRuntime`] through the CRI: pull images, boot the sandbox
//!   (Kata VM for `RuntimeClass::Kata`), run init containers, honor the
//!   enhanced kubeproxy's route-injection gate, start workload containers.

use crate::util::{retry_on_conflict, ControllerHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::ApiResult;
use vc_api::metrics::Counter;
use vc_api::node::{Node, NodeCondition};
use vc_api::object::ResourceKind;
use vc_api::pod::{Pod, PodConditionType, PodPhase, RuntimeClass};
use vc_api::quantity::ResourceList;
use vc_client::{Cache, Client, InformerEvent, WorkQueue};
use vc_runtime::cri::{ContainerConfig, ContainerRuntime, SandboxConfig, SandboxId};
use vc_runtime::image::ImageStore;

/// Annotation set by the enhanced kubeproxy: the kubelet must not start
/// workload containers until the pod's `RoutesInjected` condition is true
/// (the init-container coordination of §III-B(4)).
pub const WAIT_FOR_ROUTES_ANNOTATION: &str = "virtualcluster.io/wait-for-routes";

/// How the kubelet realizes pods.
#[derive(Clone)]
pub enum KubeletMode {
    /// Mark pods Running+Ready instantly (virtual-kubelet mock provider).
    MockInstant,
    /// Drive real (simulated) runtimes through the CRI.
    Cri {
        /// Runtime for `RuntimeClass::Runc` pods.
        runc: Arc<dyn ContainerRuntime>,
        /// Runtime for `RuntimeClass::Kata` pods.
        kata: Arc<dyn ContainerRuntime>,
        /// Node-local image store.
        images: Arc<ImageStore>,
    },
}

impl std::fmt::Debug for KubeletMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KubeletMode::MockInstant => f.write_str("MockInstant"),
            KubeletMode::Cri { .. } => f.write_str("Cri"),
        }
    }
}

/// Kubelet configuration.
#[derive(Debug, Clone)]
pub struct KubeletConfig {
    /// Node this kubelet manages.
    pub node_name: String,
    /// Node labels advertised at registration.
    pub node_labels: vc_api::labels::Labels,
    /// Node capacity advertised at registration.
    pub capacity: ResourceList,
    /// Third octet used for this node's pod IP range (`10.P.x.y`).
    pub pod_cidr_index: u32,
    /// How long to wait on the route-injection gate before starting
    /// workload containers anyway.
    pub route_gate_timeout: Duration,
}

impl KubeletConfig {
    /// Standard config for node `index`.
    pub fn for_node(index: u32) -> Self {
        KubeletConfig {
            node_name: format!("node-{index}"),
            node_labels: Default::default(),
            capacity: vc_api::quantity::resource_list(&[
                ("cpu", "96"),
                ("memory", "328Gi"),
                ("pods", "500"),
            ]),
            pod_cidr_index: index,
            route_gate_timeout: Duration::from_secs(30),
        }
    }
}

/// A running pod's runtime handle: the container runtime that booted it
/// plus its sandbox id.
type PodSandbox = (Arc<dyn ContainerRuntime>, SandboxId);

/// The kubelet.
pub struct Kubelet {
    config: KubeletConfig,
    client: Client,
    mode: KubeletMode,
    queue: Arc<WorkQueue<String>>,
    pod_cache: Arc<Cache>,
    /// pod key -> (runtime used, sandbox).
    sandboxes: Mutex<HashMap<String, PodSandbox>>,
    ip_counter: AtomicU32,
    /// Pods this kubelet brought to Ready.
    pub pods_started: Counter,
    /// Pods torn down.
    pub pods_stopped: Counter,
}

impl std::fmt::Debug for Kubelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kubelet")
            .field("node", &self.config.node_name)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Kubelet {
    /// Creates a kubelet, registers its Node object, and spawns its worker
    /// thread into `handle`. The caller wires [`Kubelet::observe`] into a
    /// shared pod informer.
    pub fn start(
        client: Client,
        pod_cache: Arc<Cache>,
        config: KubeletConfig,
        mode: KubeletMode,
        handle: &mut ControllerHandle,
    ) -> ApiResult<Arc<Kubelet>> {
        let kubelet = Arc::new(Kubelet {
            client,
            mode,
            queue: Arc::new(WorkQueue::new()),
            pod_cache,
            sandboxes: Mutex::new(HashMap::new()),
            ip_counter: AtomicU32::new(1),
            pods_started: Counter::new(),
            pods_stopped: Counter::new(),
            config,
        });
        kubelet.register_node()?;

        let worker = Arc::clone(&kubelet);
        let stop = handle.stop_flag();
        handle.add_thread(
            std::thread::Builder::new()
                .name(format!("kubelet-{}", kubelet.config.node_name))
                .spawn(move || {
                    while let Some(key) = worker.queue.get() {
                        if stop.is_set() {
                            worker.queue.done(&key);
                            break;
                        }
                        worker.reconcile(&key);
                        worker.queue.done(&key);
                    }
                })
                .expect("spawn kubelet worker"),
        );
        let queue = Arc::clone(&kubelet.queue);
        handle.on_stop(move || queue.shutdown());
        Ok(kubelet)
    }

    /// The node this kubelet manages.
    pub fn node_name(&self) -> &str {
        &self.config.node_name
    }

    /// Routes a pod informer event to this kubelet's queue when relevant.
    pub fn observe(&self, event: &InformerEvent) {
        let obj = event.object();
        let Some(pod) = obj.as_pod() else { return };
        let mine = pod.spec.node_name == self.config.node_name;
        // Also react to deletions of pods we hosted.
        let hosted = self.sandboxes.lock().contains_key(&obj.key());
        if mine || hosted {
            self.queue.add(obj.key());
        }
    }

    /// Posts a node heartbeat (status timestamp + Ready condition).
    pub fn heartbeat(&self) {
        let _ = retry_on_conflict(3, || {
            let obj = self.client.get(ResourceKind::Node, "", &self.config.node_name)?;
            let mut node: Node = obj.try_into()?;
            node.status.last_heartbeat = self.client.server().clock().now();
            node.status.condition = NodeCondition::Ready;
            self.client.update(node.into()).map(|_| ())
        });
    }

    /// Looks up the runtime + sandbox hosting `pod_key` (vn-agent path).
    pub fn lookup_sandbox(&self, pod_key: &str) -> Option<(Arc<dyn ContainerRuntime>, SandboxId)> {
        self.sandboxes.lock().get(pod_key).cloned()
    }

    fn register_node(&self) -> ApiResult<()> {
        let mut node = Node::new(self.config.node_name.clone(), self.config.capacity.clone());
        node.meta.labels = self.config.node_labels.clone();
        node.status.address = format!("10.{}.0.1", self.config.pod_cidr_index);
        node.status.kubelet_version = "v1.18-sim".into();
        node.status.last_heartbeat = self.client.server().clock().now();
        match self.client.create(node.into()) {
            Ok(_) => Ok(()),
            Err(e) if e.is_already_exists() => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn allocate_pod_ip(&self) -> String {
        let n = self.ip_counter.fetch_add(1, Ordering::Relaxed);
        format!("10.{}.{}.{}", self.config.pod_cidr_index, (n >> 8) & 0xff, n & 0xff)
    }

    fn reconcile(&self, key: &str) {
        match self.pod_cache.get(key) {
            None => self.teardown(key),
            Some(obj) => {
                let Some(pod) = obj.as_pod() else { return };
                if pod.meta.is_terminating() {
                    self.teardown(key);
                    return;
                }
                if pod.spec.node_name != self.config.node_name {
                    return;
                }
                if pod.status.phase == PodPhase::Pending {
                    self.start_pod(key, pod);
                }
            }
        }
    }

    fn start_pod(&self, key: &str, pod: &Pod) {
        let pod_ip = if pod.status.pod_ip.is_empty() {
            self.allocate_pod_ip()
        } else {
            pod.status.pod_ip.clone()
        };

        if let KubeletMode::Cri { runc, kata, images } = &self.mode {
            let runtime: Arc<dyn ContainerRuntime> = match pod.spec.runtime_class {
                RuntimeClass::Runc => Arc::clone(runc),
                RuntimeClass::Kata => Arc::clone(kata),
            };
            if self.run_pod_on_runtime(key, pod, &pod_ip, &runtime, images).is_err() {
                return;
            }
        }

        // Publish Running + Ready status.
        let clock = Arc::clone(self.client.server().clock());
        let result = retry_on_conflict(5, || {
            let fresh = self.client.get(ResourceKind::Pod, &pod.meta.namespace, &pod.meta.name)?;
            let mut fresh: Pod = fresh.try_into()?;
            if fresh.status.phase != PodPhase::Pending {
                return Ok(());
            }
            let now = clock.now();
            fresh.status.phase = PodPhase::Running;
            fresh.status.pod_ip = pod_ip.clone();
            fresh.status.host_ip = format!("10.{}.0.1", self.config.pod_cidr_index);
            fresh.status.started_at = Some(now);
            fresh.status.set_condition(PodConditionType::Initialized, true, "PodCompleted", now);
            fresh.status.set_condition(
                PodConditionType::ContainersReady,
                true,
                "ContainersReady",
                now,
            );
            fresh.status.set_condition(PodConditionType::Ready, true, "PodReady", now);
            self.client.update(fresh.into()).map(|_| ())
        });
        if result.is_ok() {
            self.pods_started.inc();
        }
    }

    fn run_pod_on_runtime(
        &self,
        key: &str,
        pod: &Pod,
        pod_ip: &str,
        runtime: &Arc<dyn ContainerRuntime>,
        images: &Arc<ImageStore>,
    ) -> ApiResult<()> {
        let clock = self.client.server().clock();
        // Pull all images first (cache-aware).
        for container in pod.spec.init_containers.iter().chain(&pod.spec.containers) {
            images.pull(&container.image, clock.as_ref());
        }
        let sandbox = runtime.run_pod_sandbox(SandboxConfig::new(
            pod.meta.namespace.clone(),
            pod.meta.name.clone(),
            pod.meta.uid.as_str().to_string(),
            pod_ip.to_string(),
        ))?;
        self.sandboxes.lock().insert(key.to_string(), (Arc::clone(runtime), sandbox.clone()));

        // Init containers run sequentially to completion.
        for init in &pod.spec.init_containers {
            let mut cc = ContainerConfig::new(init.name.clone(), init.image.clone());
            cc.command = init.command.clone();
            cc.env = init.env.clone();
            let cid = runtime.create_container(&sandbox, cc)?;
            runtime.start_container(&cid)?;
            runtime.stop_container(&cid)?; // completes immediately
        }

        // Route-injection gate: wait for the enhanced kubeproxy before
        // starting workload containers (paper's init-container protocol).
        if pod.meta.annotations.contains_key(WAIT_FOR_ROUTES_ANNOTATION) {
            let deadline = std::time::Instant::now() + self.config.route_gate_timeout;
            loop {
                let gated = self.pod_cache.get(key).is_some_and(|o| {
                    o.as_pod().is_some_and(|p| {
                        p.status
                            .condition(PodConditionType::RoutesInjected)
                            .is_some_and(|c| c.status)
                    })
                });
                if gated || std::time::Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        for container in &pod.spec.containers {
            let mut cc = ContainerConfig::new(container.name.clone(), container.image.clone());
            cc.command = container.command.clone();
            cc.env = container.env.clone();
            let cid = runtime.create_container(&sandbox, cc)?;
            runtime.start_container(&cid)?;
        }
        Ok(())
    }

    fn teardown(&self, key: &str) {
        let entry = self.sandboxes.lock().remove(key);
        if let Some((runtime, sandbox)) = entry {
            let _ = runtime.stop_pod_sandbox(&sandbox);
            let _ = runtime.remove_pod_sandbox(&sandbox);
            self.pods_stopped.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use vc_api::pod::Container;
    use vc_apiserver::{ApiServer, ApiServerConfig};
    use vc_client::{InformerConfig, SharedInformer};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    struct Env {
        server: Arc<ApiServer>,
        handle: ControllerHandle,
        kubelet: Arc<Kubelet>,
        informer: Arc<SharedInformer>,
    }

    fn setup(mode: KubeletMode) -> Env {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "kubelet");
        let informer = SharedInformer::new(
            Client::new(Arc::clone(&server), "kubelet-informer"),
            InformerConfig::new(ResourceKind::Pod),
        );
        let mut handle = ControllerHandle::new("kubelet-test");
        let kubelet = Kubelet::start(
            client,
            Arc::clone(informer.cache()),
            KubeletConfig::for_node(1),
            mode,
            &mut handle,
        )
        .unwrap();
        let k2 = Arc::clone(&kubelet);
        informer.add_handler(Box::new(move |ev| k2.observe(ev)));
        let informer = SharedInformer::start(informer);
        informer.wait_for_sync(Duration::from_secs(5));
        Env { server, handle, kubelet, informer }
    }

    fn bound_pod(ns: &str, name: &str, node: &str) -> Pod {
        let mut pod = Pod::new(ns, name).with_container(Container::new("app", "img:1"));
        pod.spec.node_name = node.into();
        pod
    }

    #[test]
    fn registers_node() {
        let env = setup(KubeletMode::MockInstant);
        let user = Client::new(Arc::clone(&env.server), "u");
        let node = user.get(ResourceKind::Node, "", "node-1").unwrap();
        assert!(node.as_node().unwrap().is_ready());
        drop(env.handle);
        env.informer.stop();
    }

    #[test]
    fn mock_instant_marks_pod_ready() {
        let mut env = setup(KubeletMode::MockInstant);
        let user = Client::new(Arc::clone(&env.server), "u");
        user.create(bound_pod("default", "p", "node-1").into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Pod, "default", "p")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
        let pod = user.get(ResourceKind::Pod, "default", "p").unwrap();
        let pod = pod.as_pod().unwrap();
        assert_eq!(pod.status.phase, PodPhase::Running);
        assert!(pod.status.pod_ip.starts_with("10.1."));
        assert_count_reaches(&env.kubelet.pods_started, 1);
        env.handle.stop();
        env.informer.stop();
    }

    #[test]
    fn ignores_pods_for_other_nodes() {
        let mut env = setup(KubeletMode::MockInstant);
        let user = Client::new(Arc::clone(&env.server), "u");
        user.create(bound_pod("default", "other", "node-99").into()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let pod = user.get(ResourceKind::Pod, "default", "other").unwrap();
        assert_eq!(pod.as_pod().unwrap().status.phase, PodPhase::Pending);
        env.handle.stop();
        env.informer.stop();
    }

    #[test]
    fn cri_mode_runs_containers_and_tears_down() {
        let clock = vc_api::time::RealClock::shared();
        let runc = vc_runtime::RuncRuntime::new(
            vc_runtime::runc::RuncConfig { sandbox_setup_latency: Duration::ZERO },
            Arc::clone(&clock),
        );
        let kata = vc_runtime::KataRuntime::new(
            vc_runtime::KataConfig { vm_boot_latency: Duration::ZERO, ..Default::default() },
            Arc::clone(&clock),
        );
        let images = Arc::new(ImageStore::new(Duration::ZERO));
        let mut env = setup(KubeletMode::Cri { runc, kata: kata.clone(), images });
        let user = Client::new(Arc::clone(&env.server), "u");

        // A kata pod gets a sandbox on the kata runtime.
        let mut pod = bound_pod("default", "kp", "node-1").with_kata_runtime();
        pod.spec.init_containers.push(Container::new("init", "init-img"));
        user.create(pod.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Pod, "default", "kp")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
        let (runtime, sandbox) = env.kubelet.lookup_sandbox("default/kp").unwrap();
        assert_eq!(runtime.name(), "kata");
        // init (exited) + workload (running).
        let containers = runtime.list_containers(Some(&sandbox));
        assert_eq!(containers.len(), 2);

        // Deleting the pod tears the sandbox down.
        user.delete(ResourceKind::Pod, "default", "kp").unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            env.kubelet.lookup_sandbox("default/kp").is_none()
        }));
        assert!(kata.list_pod_sandboxes().is_empty());
        env.handle.stop();
        env.informer.stop();
    }

    #[test]
    fn route_gate_blocks_workload_until_condition() {
        let clock = vc_api::time::RealClock::shared();
        let kata = vc_runtime::KataRuntime::new(
            vc_runtime::KataConfig { vm_boot_latency: Duration::ZERO, ..Default::default() },
            Arc::clone(&clock),
        );
        let runc = vc_runtime::RuncRuntime::new(
            vc_runtime::runc::RuncConfig { sandbox_setup_latency: Duration::ZERO },
            Arc::clone(&clock),
        );
        let images = Arc::new(ImageStore::new(Duration::ZERO));
        let mut env = setup(KubeletMode::Cri { runc, kata: kata.clone(), images });
        let user = Client::new(Arc::clone(&env.server), "u");

        let mut pod = bound_pod("default", "gated", "node-1").with_kata_runtime();
        pod.meta.annotations.insert(WAIT_FOR_ROUTES_ANNOTATION.into(), "true".into());
        user.create(pod.into()).unwrap();

        // Workload container must not start while the gate is closed.
        std::thread::sleep(Duration::from_millis(200));
        let running = kata
            .list_containers(None)
            .iter()
            .filter(|c| matches!(c.state, vc_runtime::cri::ContainerState::Running))
            .count();
        assert_eq!(running, 0, "gate closed: no workload containers yet");

        // Open the gate (what the enhanced kubeproxy does).
        retry_on_conflict(5, || {
            let fresh = user.get(ResourceKind::Pod, "default", "gated")?;
            let mut fresh: Pod = fresh.try_into()?;
            let now = env.server.clock().now();
            fresh.status.set_condition(PodConditionType::RoutesInjected, true, "Injected", now);
            user.update(fresh.into()).map(|_| ())
        })
        .unwrap();

        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Pod, "default", "gated")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
        env.handle.stop();
        env.informer.stop();
    }

    #[test]
    fn heartbeat_updates_node() {
        let mut env = setup(KubeletMode::MockInstant);
        let user = Client::new(Arc::clone(&env.server), "u");
        let before = user.get(ResourceKind::Node, "", "node-1").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        env.kubelet.heartbeat();
        let after = user.get(ResourceKind::Node, "", "node-1").unwrap();
        assert!(
            after.as_node().unwrap().status.last_heartbeat
                >= before.as_node().unwrap().status.last_heartbeat
        );
        env.handle.stop();
        env.informer.stop();
    }
}
