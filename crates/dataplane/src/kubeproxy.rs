//! The standard kubeproxy: programs cluster-IP DNAT rules into node host
//! tables.
//!
//! This is the component whose "mechanism is broken when containers are
//! connected to a virtual private cloud (VPC), because the network traffics
//! might completely bypass the host network stack" (paper §III-B(4)). It
//! works for host-network pods and is kept as the baseline the enhanced
//! kubeproxy is compared against.

use crate::network::PodNetwork;
use std::collections::HashMap;
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::ResourceKind;
use vc_client::{Cache, Client, WorkQueue};
use vc_controllers::util::{ControllerHandle, Informers};
use vc_runtime::netfilter::NatRule;

/// Computes the DNAT rules realizing every cluster-IP service in
/// `namespace` (or all namespaces when `None`), joining services with their
/// endpoints objects.
pub fn desired_rules(
    service_cache: &Cache,
    endpoints_cache: &Cache,
    namespace: Option<&str>,
) -> Vec<NatRule> {
    let services = match namespace {
        Some(ns) => service_cache.list_namespace(ns),
        None => service_cache.list(),
    };
    let mut rules = Vec::new();
    for obj in services {
        let Some(service) = obj.as_service() else { continue };
        if service.spec.cluster_ip.is_empty() {
            continue;
        }
        let endpoints_key = obj.key();
        let backends: HashMap<u16, Vec<(String, u16)>> = match endpoints_cache.get(&endpoints_key) {
            Some(eps_obj) => {
                let Some(eps) = eps_obj.as_endpoints() else { continue };
                let mut by_port: HashMap<u16, Vec<(String, u16)>> = HashMap::new();
                for port in &eps.ports {
                    let list = by_port.entry(port.port).or_default();
                    for addr in &eps.addresses {
                        list.push((addr.ip.clone(), port.target_port));
                    }
                }
                by_port
            }
            None => HashMap::new(),
        };
        for port in &service.spec.ports {
            let endpoints = backends.get(&port.port).cloned().unwrap_or_default();
            rules.push(NatRule::new(service.spec.cluster_ip.clone(), port.port, endpoints));
        }
    }
    rules.sort_by_key(|r| r.key());
    rules
}

/// Standard kubeproxy metrics.
#[derive(Debug, Default)]
pub struct KubeProxyMetrics {
    /// Rule syncs applied to host tables.
    pub syncs: Counter,
}

/// Starts the standard kubeproxy: every service/endpoints change reprograms
/// the host NAT tables of all nodes in `network`.
pub fn start_standard(
    client: Client,
    network: Arc<PodNetwork>,
) -> (ControllerHandle, Arc<KubeProxyMetrics>) {
    let mut handle = ControllerHandle::new("kubeproxy");
    let metrics = Arc::new(KubeProxyMetrics::default());
    let queue: Arc<WorkQueue<()>> = Arc::new(WorkQueue::new());

    let informers = Arc::new(Informers::new(client));
    let service_informer = informers.get(ResourceKind::Service);
    let endpoints_informer = informers.get(ResourceKind::Endpoints);
    for informer in [&service_informer, &endpoints_informer] {
        let queue = Arc::clone(&queue);
        informer.add_handler(Box::new(move |_event| queue.add(())));
    }
    let service_cache = Arc::clone(service_informer.cache());
    let endpoints_cache = Arc::clone(endpoints_informer.cache());
    // Initial programming even before any event.
    queue.add(());
    {
        let metrics = Arc::clone(&metrics);
        handle.workers("kubeproxy", 1, 1, &queue, move |()| {
            sync_host_tables(&service_cache, &endpoints_cache, &network, &metrics)
        });
    }
    handle.on_stop(move || informers.stop());
    (handle, metrics)
}

fn sync_host_tables(
    service_cache: &Cache,
    endpoints_cache: &Cache,
    network: &PodNetwork,
    metrics: &KubeProxyMetrics,
) {
    let rules = desired_rules(service_cache, endpoints_cache, None);
    let desired_keys: std::collections::HashSet<(String, u16)> =
        rules.iter().map(|r| r.key()).collect();
    for node in network.nodes() {
        let table = network.host_table(&node);
        // Remove rules for deleted services.
        for existing in table.list() {
            if !desired_keys.contains(&existing.key()) {
                table.remove(&existing.service_ip, existing.port);
            }
        }
        table.apply(&rules);
    }
    metrics.syncs.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vc_api::labels::labels;
    use vc_api::pod::{Pod, PodConditionType, PodPhase};
    use vc_api::service::{Service, ServicePort};
    use vc_apiserver::{ApiServer, ApiServerConfig};
    use vc_controllers::util::{assert_count_reaches, wait_until};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn ready_pod(ns: &str, name: &str, app: &str, ip: &str, node: &str) -> Pod {
        let mut pod = Pod::new(ns, name).with_labels(labels(&[("app", app)]));
        pod.spec.node_name = node.into();
        pod.status.phase = PodPhase::Running;
        pod.status.pod_ip = ip.into();
        pod.status.set_condition(
            PodConditionType::Ready,
            true,
            "ready",
            vc_api::time::Timestamp::from_millis(1),
        );
        pod
    }

    #[test]
    fn programs_host_tables_from_services() {
        let server = fast_server();
        // Service controller computes endpoints; kubeproxy programs nodes.
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut svc_handle, _m) = vc_controllers::service::start(
            Client::new(Arc::clone(&server), "svc-ctrl"),
            &informers,
            Default::default(),
        );
        let network = PodNetwork::new();
        // Two nodes with host tables.
        network.host_table("n1");
        network.host_table("n2");
        let (mut kp_handle, metrics) =
            start_standard(Client::new(Arc::clone(&server), "kubeproxy"), Arc::clone(&network));
        // No services and no endpoints yet: the tables are programmed once
        // at start, before any event.
        assert_count_reaches(&metrics.syncs, 1);

        let user = Client::new(server, "u");
        user.create(ready_pod("default", "backend", "web", "10.1.0.7", "n1").into()).unwrap();
        user.create(
            Service::new("default", "web")
                .with_selector(labels(&[("app", "web")]))
                .with_port(ServicePort::tcp(80, 8080))
                .into(),
        )
        .unwrap();

        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            network
                .host_table("n2")
                .resolve("10.96.0.1", 80, 0)
                .is_some_and(|(ip, port)| ip == "10.1.0.7" && port == 8080)
                || {
                    // Cluster IP may differ; check via any installed rule.
                    let rules = network.host_table("n2").list();
                    rules
                        .iter()
                        .any(|r| r.endpoints.iter().any(|(ip, p)| ip == "10.1.0.7" && *p == 8080))
                }
        }));
        assert!(metrics.syncs.get() >= 1);

        // Deleting the service clears the rule.
        user.delete(ResourceKind::Service, "default", "web").unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            network.host_table("n1").is_empty() && network.host_table("n2").is_empty()
        }));
        kp_handle.stop();
        svc_handle.stop();
    }

    #[test]
    fn desired_rules_join_services_and_endpoints() {
        let service_cache = Cache::new();
        let endpoints_cache = Cache::new();
        let mut svc = Service::new("ns", "db").with_port(ServicePort::tcp(5432, 5432));
        svc.spec.cluster_ip = "10.96.0.9".into();
        insert(&service_cache, svc.into());
        let mut eps = vc_api::service::Endpoints::new("ns", "db");
        eps.ports = vec![ServicePort::tcp(5432, 5432)];
        eps.addresses.push(vc_api::service::EndpointAddress {
            ip: "10.1.0.3".into(),
            target_pod: "db-0".into(),
            node_name: "n1".into(),
        });
        insert(&endpoints_cache, eps.into());

        let rules = desired_rules(&service_cache, &endpoints_cache, Some("ns"));
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].service_ip, "10.96.0.9");
        assert_eq!(rules[0].endpoints, vec![("10.1.0.3".to_string(), 5432)]);

        // Service without cluster IP produces no rule.
        insert(&service_cache, Service::new("ns", "headless").into());
        assert_eq!(desired_rules(&service_cache, &endpoints_cache, Some("ns")).len(), 1);

        // Service without endpoints yields an empty-backend rule.
        let mut lonely = Service::new("ns", "lonely").with_port(ServicePort::tcp(80, 80));
        lonely.spec.cluster_ip = "10.96.0.10".into();
        insert(&service_cache, lonely.into());
        let rules = desired_rules(&service_cache, &endpoints_cache, Some("ns"));
        assert_eq!(rules.len(), 2);
        assert!(rules.iter().any(|r| r.service_ip == "10.96.0.10" && r.endpoints.is_empty()));
    }

    fn insert(cache: &Cache, obj: vc_api::Object) {
        cache.insert(obj);
    }
}
