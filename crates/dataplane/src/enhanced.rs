//! The VirtualCluster **enhanced kubeproxy** (paper §III-B(4)).
//!
//! Runs per node. Instead of programming the host iptables (which VPC/ENI
//! traffic bypasses), it opens a channel to the Kata agent inside each
//! sandbox on its node and injects the cluster-IP routing rules into the
//! **guest OS** NAT table. It:
//!
//! * watches pod creation events and injects the current rule set into each
//!   new Kata sandbox's guest before the workload containers start,
//!   signalling completion through the pod's `RoutesInjected` condition
//!   (the init-container coordination protocol);
//! * watches services/endpoints and propagates rule changes to every
//!   tracked guest;
//! * runs a periodic reconciliation scan that reads each guest's rules back
//!   and repairs drift — the scan whose cost §IV-E reports (~300 ms for 30
//!   pods).
//!
//! Rules are scoped to the pod's namespace: under VirtualCluster each
//! tenant's objects live in uniquely-prefixed namespaces, so this is the
//! tenant-correct rule set.

use crate::kubeproxy::desired_rules;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vc_api::metrics::{Counter, Histogram};
use vc_api::object::ResourceKind;
use vc_api::pod::{Pod, PodConditionType, RuntimeClass};
use vc_client::{Client, WorkQueue};
use vc_controllers::util::{retry_on_conflict, ControllerHandle, Informers};
use vc_runtime::cri::ContainerRuntime;
use vc_runtime::kata::KataAgent;
use vc_runtime::KataRuntime;

/// Retry delay while waiting for a pod's sandbox to appear.
const SANDBOX_POLL: Duration = Duration::from_millis(20);

/// Enhanced kubeproxy configuration.
#[derive(Debug, Clone)]
pub struct EnhancedKubeProxyConfig {
    /// The node this instance runs on.
    pub node_name: String,
    /// Interval of the periodic reconciliation scan.
    pub sync_interval: Duration,
}

impl EnhancedKubeProxyConfig {
    /// Creates a config for `node_name` with a 30s scan interval.
    pub fn for_node(node_name: impl Into<String>) -> Self {
        EnhancedKubeProxyConfig {
            node_name: node_name.into(),
            sync_interval: Duration::from_secs(30),
        }
    }
}

/// Enhanced kubeproxy metrics (the quantities of §IV-E).
#[derive(Debug, Default)]
pub struct EnhancedKubeProxyMetrics {
    /// Initial per-pod rule injection latency (ms) — paper: ~1s for 100
    /// rules.
    pub inject_latency: Histogram,
    /// Periodic scan duration (ms) — paper: ~300ms for 30 pods.
    pub scan_duration: Histogram,
    /// Total rules injected (including updates).
    pub rules_injected: Counter,
    /// Pods whose route gate was opened.
    pub pods_gated: Counter,
    /// Scans completed.
    pub scans: Counter,
}

/// A guest the proxy is maintaining rules in (opaque outside this module).
pub struct Tracked {
    agent: Arc<KataAgent>,
    namespace: String,
}

/// Starts one enhanced kubeproxy instance.
pub fn start(
    client: Client,
    kata: Arc<KataRuntime>,
    config: EnhancedKubeProxyConfig,
) -> (ControllerHandle, Arc<EnhancedKubeProxyMetrics>) {
    let mut handle = ControllerHandle::new(format!("enhanced-kubeproxy-{}", config.node_name));
    let metrics = Arc::new(EnhancedKubeProxyMetrics::default());
    let tracked: Arc<Mutex<HashMap<String, Tracked>>> = Arc::new(Mutex::new(HashMap::new()));
    let pod_queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());
    let rules_queue: Arc<WorkQueue<()>> = Arc::new(WorkQueue::new());

    let informers = Arc::new(Informers::new(client.clone()));
    let pod_informer = informers.get(ResourceKind::Pod);
    {
        let pod_queue = Arc::clone(&pod_queue);
        let node = config.node_name.clone();
        pod_informer.add_handler(Box::new(move |event| {
            let obj = event.object();
            if let Some(pod) = obj.as_pod() {
                if pod.spec.node_name == node && pod.spec.runtime_class == RuntimeClass::Kata {
                    pod_queue.add(obj.key());
                }
            }
        }));
    }
    let service_informer = informers.get(ResourceKind::Service);
    let endpoints_informer = informers.get(ResourceKind::Endpoints);
    for informer in [&service_informer, &endpoints_informer] {
        let rules_queue = Arc::clone(&rules_queue);
        informer.add_handler(Box::new(move |_event| rules_queue.add(())));
    }
    let pod_cache = Arc::clone(pod_informer.cache());
    let service_cache = Arc::clone(service_informer.cache());
    let endpoints_cache = Arc::clone(endpoints_informer.cache());

    // Periodic reconciliation scan, on the apiserver's clock.
    {
        let tracked = Arc::clone(&tracked);
        let metrics = Arc::clone(&metrics);
        let service_cache = Arc::clone(&service_cache);
        let endpoints_cache = Arc::clone(&endpoints_cache);
        handle.every(client.server().clock(), config.sync_interval, move || {
            scan_once(&service_cache, &endpoints_cache, &tracked, &metrics)
        });
    }

    // Pod worker: attach to new sandboxes, inject initial rules, open gate.
    {
        let requeue = Arc::clone(&pod_queue);
        let tracked = Arc::clone(&tracked);
        let metrics = Arc::clone(&metrics);
        let service_cache = Arc::clone(&service_cache);
        let endpoints_cache = Arc::clone(&endpoints_cache);
        handle.workers("ekp-pods", 1, 1, &pod_queue, move |key| {
            if handle_pod(
                key,
                &client,
                &kata,
                &pod_cache,
                &service_cache,
                &endpoints_cache,
                &tracked,
                &metrics,
            ) {
                requeue.add_after(key.clone(), SANDBOX_POLL);
            }
        });
    }

    // Rules worker: propagate service/endpoint changes to tracked guests.
    {
        let metrics = Arc::clone(&metrics);
        handle.workers("ekp-rules", 1, 1, &rules_queue, move |()| {
            propagate_rules(&service_cache, &endpoints_cache, &tracked, &metrics)
        });
    }

    handle.on_stop(move || informers.stop());
    (handle, metrics)
}

/// Runs one scan pass over all tracked guests (also used by benches to
/// measure scan cost directly).
pub fn scan_once(
    service_cache: &vc_client::Cache,
    endpoints_cache: &vc_client::Cache,
    tracked: &Mutex<HashMap<String, Tracked>>,
    metrics: &EnhancedKubeProxyMetrics,
) {
    let start = std::time::Instant::now();
    let snapshot: Vec<(String, Arc<KataAgent>, String)> = tracked
        .lock()
        .iter()
        .map(|(k, t)| (k.clone(), Arc::clone(&t.agent), t.namespace.clone()))
        .collect();
    for (_key, agent, namespace) in snapshot {
        let desired = desired_rules(service_cache, endpoints_cache, Some(&namespace));
        let current = agent.list_rules();
        let current_map: HashMap<(String, u16), &vc_runtime::NatRule> =
            current.iter().map(|r| (r.key(), r)).collect();
        let missing: Vec<vc_runtime::NatRule> = desired
            .iter()
            .filter(|want| current_map.get(&want.key()).is_none_or(|have| *have != *want))
            .cloned()
            .collect();
        if !missing.is_empty() {
            agent.inject_rules(&missing);
            metrics.rules_injected.add(missing.len() as u64);
        }
        // Remove rules for services that no longer exist.
        let desired_keys: std::collections::HashSet<(String, u16)> =
            desired.iter().map(|r| r.key()).collect();
        for have in &current {
            if !desired_keys.contains(&have.key()) {
                agent.remove_rule(&have.service_ip, have.port);
            }
        }
    }
    metrics.scans.inc();
    metrics.scan_duration.observe(start.elapsed());
}

#[allow(clippy::too_many_arguments)]
fn handle_pod(
    key: &str,
    client: &Client,
    kata: &Arc<KataRuntime>,
    pod_cache: &vc_client::Cache,
    service_cache: &vc_client::Cache,
    endpoints_cache: &vc_client::Cache,
    tracked: &Mutex<HashMap<String, Tracked>>,
    metrics: &EnhancedKubeProxyMetrics,
) -> bool {
    let Some(obj) = pod_cache.get(key) else {
        tracked.lock().remove(key);
        return false;
    };
    let Some(pod) = obj.as_pod() else { return false };
    if pod.meta.is_terminating() {
        tracked.lock().remove(key);
        return false;
    }
    if tracked.lock().contains_key(key) {
        return false; // already attached
    }

    // Find the pod's sandbox (kubelet may not have created it yet).
    let sandbox =
        kata.list_pod_sandboxes().into_iter().find(|s| s.config.pod_uid == pod.meta.uid.as_str());
    let Some(sandbox) = sandbox else {
        return true; // requeue until the sandbox appears
    };
    let Some(agent) = kata.agent(&sandbox.id) else {
        return true;
    };

    // Inject the namespace's current rule set into the fresh guest.
    let start = std::time::Instant::now();
    let rules = desired_rules(service_cache, endpoints_cache, Some(&pod.meta.namespace));
    if !rules.is_empty() {
        agent.inject_rules(&rules);
        metrics.rules_injected.add(rules.len() as u64);
    }
    metrics.inject_latency.observe(start.elapsed());

    tracked
        .lock()
        .insert(key.to_string(), Tracked { agent, namespace: pod.meta.namespace.clone() });

    // Open the init-container gate.
    let gated = retry_on_conflict(5, || {
        let fresh = client.get(ResourceKind::Pod, &pod.meta.namespace, &pod.meta.name)?;
        let mut fresh: Pod = fresh.try_into()?;
        let now = client.server().clock().now();
        fresh.status.set_condition(PodConditionType::RoutesInjected, true, "RoutesInjected", now);
        client.update(fresh.into()).map(|_| ())
    });
    if gated.is_ok() {
        metrics.pods_gated.inc();
    }
    false
}

fn propagate_rules(
    service_cache: &vc_client::Cache,
    endpoints_cache: &vc_client::Cache,
    tracked: &Mutex<HashMap<String, Tracked>>,
    metrics: &EnhancedKubeProxyMetrics,
) {
    let snapshot: Vec<(Arc<KataAgent>, String)> =
        tracked.lock().values().map(|t| (Arc::clone(&t.agent), t.namespace.clone())).collect();
    for (agent, namespace) in snapshot {
        let desired = desired_rules(service_cache, endpoints_cache, Some(&namespace));
        if !desired.is_empty() {
            agent.inject_rules(&desired);
            metrics.rules_injected.add(desired.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::labels::labels;
    use vc_api::pod::{Container, PodPhase};
    use vc_api::service::{Service, ServicePort};
    use vc_apiserver::{ApiServer, ApiServerConfig};
    use vc_controllers::util::wait_until;
    use vc_runtime::cri::SandboxConfig;
    use vc_runtime::KataConfig;

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn fast_kata() -> Arc<KataRuntime> {
        KataRuntime::new(
            KataConfig {
                vm_boot_latency: Duration::ZERO,
                agent_latency: vc_runtime::kata::AgentLatency {
                    rpc_base: Duration::ZERO,
                    per_rule_inject: Duration::ZERO,
                    per_rule_scan: Duration::ZERO,
                },
            },
            vc_api::time::RealClock::shared(),
        )
    }

    /// Create a bound kata pod object + its sandbox, as the kubelet would.
    fn kata_pod_with_sandbox(
        user: &Client,
        kata: &Arc<KataRuntime>,
        ns: &str,
        name: &str,
        node: &str,
        ip: &str,
    ) -> Pod {
        let mut pod =
            Pod::new(ns, name).with_container(Container::new("app", "img")).with_kata_runtime();
        pod.spec.node_name = node.into();
        pod.status.phase = PodPhase::Running;
        pod.status.pod_ip = ip.into();
        let created = user.create(pod.into()).unwrap();
        let pod: Pod = created.try_into().unwrap();
        kata.run_pod_sandbox(SandboxConfig::new(ns, name, pod.meta.uid.as_str().to_string(), ip))
            .unwrap();
        pod
    }

    #[test]
    fn injects_rules_into_new_pod_guest_and_opens_gate() {
        let server = fast_server();
        let kata = fast_kata();
        let user = Client::new(Arc::clone(&server), "u");

        // A service with a preassigned cluster IP and manual endpoints.
        let mut svc = Service::new("default", "db")
            .with_selector(labels(&[("app", "db")]))
            .with_port(ServicePort::tcp(5432, 5432));
        svc.spec.cluster_ip = "10.96.0.50".into();
        user.create(svc.into()).unwrap();
        let mut eps = vc_api::service::Endpoints::new("default", "db");
        eps.ports = vec![ServicePort::tcp(5432, 5432)];
        eps.addresses.push(vc_api::service::EndpointAddress {
            ip: "172.20.0.9".into(),
            target_pod: "db-0".into(),
            node_name: "n1".into(),
        });
        user.create(eps.into()).unwrap();

        let (mut handle, metrics) = start(
            Client::new(Arc::clone(&server), "ekp"),
            Arc::clone(&kata),
            EnhancedKubeProxyConfig::for_node("n1"),
        );

        let pod = kata_pod_with_sandbox(&user, &kata, "default", "client", "n1", "172.20.0.1");
        // The proxy finds the sandbox, injects the rule and opens the gate.
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            metrics.pods_gated.get() == 1
        }));
        let sandbox = kata
            .list_pod_sandboxes()
            .into_iter()
            .find(|s| s.config.pod_uid == pod.meta.uid.as_str())
            .unwrap();
        let guest = kata.guest(&sandbox.id).unwrap();
        assert_eq!(
            guest.netfilter.resolve("10.96.0.50", 5432, 0),
            Some(("172.20.0.9".to_string(), 5432))
        );
        let fresh = user.get(ResourceKind::Pod, "default", "client").unwrap();
        assert!(
            fresh
                .as_pod()
                .unwrap()
                .status
                .condition(PodConditionType::RoutesInjected)
                .unwrap()
                .status
        );
        assert!(metrics.inject_latency.count() >= 1);
        handle.stop();
    }

    #[test]
    fn service_changes_propagate_to_tracked_guests() {
        let server = fast_server();
        let kata = fast_kata();
        let user = Client::new(Arc::clone(&server), "u");
        let (mut handle, metrics) = start(
            Client::new(Arc::clone(&server), "ekp"),
            Arc::clone(&kata),
            EnhancedKubeProxyConfig::for_node("n1"),
        );

        let pod = kata_pod_with_sandbox(&user, &kata, "default", "client", "n1", "172.20.0.1");
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            metrics.pods_gated.get() == 1
        }));

        // NOW create a service: the change must reach the existing guest.
        let mut svc = Service::new("default", "late").with_port(ServicePort::tcp(80, 8080));
        svc.spec.cluster_ip = "10.96.0.77".into();
        user.create(svc.into()).unwrap();

        let sandbox = kata
            .list_pod_sandboxes()
            .into_iter()
            .find(|s| s.config.pod_uid == pod.meta.uid.as_str())
            .unwrap();
        let guest = kata.guest(&sandbox.id).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            guest.netfilter.len() == 1
        }));
        handle.stop();
    }

    #[test]
    fn scan_repairs_drift() {
        let server = fast_server();
        let kata = fast_kata();
        let user = Client::new(Arc::clone(&server), "u");
        let mut svc = Service::new("default", "db").with_port(ServicePort::tcp(5432, 5432));
        svc.spec.cluster_ip = "10.96.0.50".into();
        user.create(svc.into()).unwrap();

        let mut config = EnhancedKubeProxyConfig::for_node("n1");
        config.sync_interval = Duration::from_millis(100);
        let (mut handle, metrics) =
            start(Client::new(Arc::clone(&server), "ekp"), Arc::clone(&kata), config);

        let pod = kata_pod_with_sandbox(&user, &kata, "default", "client", "n1", "172.20.0.1");
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            metrics.pods_gated.get() == 1
        }));
        let sandbox = kata
            .list_pod_sandboxes()
            .into_iter()
            .find(|s| s.config.pod_uid == pod.meta.uid.as_str())
            .unwrap();
        let guest = kata.guest(&sandbox.id).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            guest.netfilter.len() == 1
        }));

        // Sabotage the guest table; the periodic scan must repair it.
        guest.netfilter.flush();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            guest.netfilter.len() == 1
        }));
        assert!(metrics.scans.get() >= 1);
        assert!(metrics.scan_duration.count() >= 1);
        handle.stop();
    }

    #[test]
    fn rules_scoped_to_pod_namespace() {
        let server = fast_server();
        let kata = fast_kata();
        let user = Client::new(Arc::clone(&server), "u");
        user.create(vc_api::namespace::Namespace::new("other").into()).unwrap();
        // Service in a DIFFERENT namespace must not leak into this guest.
        let mut foreign = Service::new("other", "foreign").with_port(ServicePort::tcp(80, 80));
        foreign.spec.cluster_ip = "10.96.0.99".into();
        user.create(foreign.into()).unwrap();

        let (mut handle, metrics) = start(
            Client::new(Arc::clone(&server), "ekp"),
            Arc::clone(&kata),
            EnhancedKubeProxyConfig::for_node("n1"),
        );
        let pod = kata_pod_with_sandbox(&user, &kata, "default", "client", "n1", "172.20.0.1");
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            metrics.pods_gated.get() == 1
        }));
        let sandbox = kata
            .list_pod_sandboxes()
            .into_iter()
            .find(|s| s.config.pod_uid == pod.meta.uid.as_str())
            .unwrap();
        let guest = kata.guest(&sandbox.id).unwrap();
        assert_eq!(guest.netfilter.len(), 0, "foreign-namespace rules must not leak");
        handle.stop();
    }
}
