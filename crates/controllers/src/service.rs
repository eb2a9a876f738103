//! Service controller: cluster-IP allocation + endpoints maintenance.
//!
//! "A service controller running on the control plane maintains the service
//! virtual IP and its endpoints" (paper §II). Endpoints are only computed
//! for services **with a selector** — selector-less services carry custom
//! endpoints (possibly synchronized by the VirtualCluster syncer), matching
//! upstream semantics.

use crate::util::{retry_on_conflict, ControllerHandle, Informers};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::{Object, ResourceKind};
use vc_api::service::{EndpointAddress, Endpoints, Service, ServiceType};
use vc_client::{Client, WorkQueue};

/// Worker threads draining the service queue.
const WORKERS: usize = 2;

/// Second octet of the service CIDR (`10.S.x.y`).
const SERVICE_CIDR_OCTET: u8 = 96;

/// Service controller configuration.
#[derive(Debug, Clone)]
pub struct ServiceControllerConfig {
    /// Provision ingress IPs for LoadBalancer services (a capability of
    /// the cluster that fronts real infrastructure — the super cluster).
    pub provision_load_balancers: bool,
}

impl Default for ServiceControllerConfig {
    fn default() -> Self {
        ServiceControllerConfig { provision_load_balancers: true }
    }
}

/// Service controller metrics.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Cluster IPs allocated.
    pub ips_allocated: Counter,
    /// Endpoints writes (create/update/delete).
    pub endpoints_writes: Counter,
}

/// Starts the service controller, reading the cluster through `informers`.
pub fn start(
    client: Client,
    informers: &Informers,
    config: ServiceControllerConfig,
) -> (ControllerHandle, Arc<ServiceMetrics>) {
    let mut handle = ControllerHandle::new("service-controller");
    let metrics = Arc::new(ServiceMetrics::default());
    let queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());
    let ip_counter = Arc::new(AtomicU32::new(1));

    let service_informer = informers.get(ResourceKind::Service);
    {
        let queue = Arc::clone(&queue);
        service_informer.add_handler(Box::new(move |event| {
            queue.add(event.object().key());
        }));
    }

    let pod_informer = informers.get(ResourceKind::Pod);
    let service_cache = Arc::clone(service_informer.cache());
    {
        let queue = Arc::clone(&queue);
        let service_cache = Arc::clone(&service_cache);
        pod_informer.add_handler(Box::new(move |event| {
            // A pod change may affect any selector service in its
            // namespace.
            for svc in service_cache.list_namespace(&event.object().meta().namespace) {
                if let Some(service) = svc.as_service() {
                    if !service.spec.selector.is_empty() {
                        queue.add(svc.key());
                    }
                }
            }
        }));
    }

    let pod_cache = Arc::clone(pod_informer.cache());
    {
        let metrics = Arc::clone(&metrics);
        handle.workers("service-controller", WORKERS, 1, &queue, move |key| {
            reconcile(key, &client, &service_cache, &pod_cache, &ip_counter, &config, &metrics)
        });
    }
    (handle, metrics)
}

fn reconcile(
    key: &str,
    client: &Client,
    service_cache: &vc_client::Cache,
    pod_cache: &vc_client::Cache,
    ip_counter: &AtomicU32,
    config: &ServiceControllerConfig,
    metrics: &ServiceMetrics,
) {
    let Some((namespace, name)) = key.split_once('/') else { return };
    let Some(obj) = service_cache.get(key) else {
        // Service gone: remove its endpoints.
        if client.delete(ResourceKind::Endpoints, namespace, name).is_ok() {
            metrics.endpoints_writes.inc();
        }
        return;
    };
    let Some(service) = obj.as_service() else { return };

    // 1. Cluster IP allocation.
    if service.spec.cluster_ip.is_empty()
        && matches!(service.spec.service_type, ServiceType::ClusterIp | ServiceType::LoadBalancer)
    {
        let n = ip_counter.fetch_add(1, Ordering::Relaxed);
        let ip = format!("10.{SERVICE_CIDR_OCTET}.{}.{}", (n >> 8) & 0xff, n & 0xff);
        let ok = retry_on_conflict(5, || {
            let fresh = client.get(ResourceKind::Service, namespace, name)?;
            let mut fresh: Service = fresh.try_into()?;
            if fresh.spec.cluster_ip.is_empty() {
                fresh.spec.cluster_ip = ip.clone();
                client.update(fresh.into()).map(|_| ())
            } else {
                Ok(())
            }
        });
        if ok.is_ok() {
            metrics.ips_allocated.inc();
        }
        // The update re-triggers reconcile through the informer; endpoints
        // are still computed below with the data we have.
    }

    // 1b. Load-balancer ingress provisioning (independent of cluster-IP
    // allocation: synced tenant services arrive with a cluster IP, and
    // only the cluster fronting real nodes can provision their LB).
    if config.provision_load_balancers
        && service.spec.service_type == ServiceType::LoadBalancer
        && service.status.load_balancer_ip.is_empty()
    {
        let n = ip_counter.fetch_add(1, Ordering::Relaxed);
        let _ = retry_on_conflict(5, || {
            let fresh = client.get(ResourceKind::Service, namespace, name)?;
            let mut fresh: Service = fresh.try_into()?;
            if fresh.status.load_balancer_ip.is_empty() {
                fresh.status.load_balancer_ip = format!("203.0.113.{}", n % 250 + 1);
                client.update(fresh.into()).map(|_| ())
            } else {
                Ok(())
            }
        });
    }

    // 2. Endpoints for selector services.
    if service.spec.selector.is_empty() {
        return; // custom endpoints (or headless without selector)
    }
    let selector = service.selector();
    let mut addresses: Vec<EndpointAddress> = pod_cache
        .list_selected(Some(namespace), &selector)
        .iter()
        .filter_map(|o| o.as_pod())
        .filter(|p| p.status.is_ready() && !p.status.pod_ip.is_empty() && !p.meta.is_terminating())
        .map(|p| EndpointAddress {
            ip: p.status.pod_ip.clone(),
            target_pod: p.meta.name.clone(),
            node_name: p.spec.node_name.clone(),
        })
        .collect();
    addresses.sort_by(|a, b| a.ip.cmp(&b.ip));

    let desired_ports = service.spec.ports.clone();
    match client.get(ResourceKind::Endpoints, namespace, name) {
        Ok(existing_obj) => {
            let existing: Endpoints = match existing_obj.try_into() {
                Ok(e) => e,
                Err(_) => return,
            };
            if existing.addresses != addresses || existing.ports != desired_ports {
                let mut updated = existing;
                updated.addresses = addresses;
                updated.ports = desired_ports;
                if client.update(updated.into()).is_ok() {
                    metrics.endpoints_writes.inc();
                }
            }
        }
        Err(e) if e.is_not_found() => {
            let mut endpoints = Endpoints::new(namespace, name);
            endpoints.addresses = addresses;
            endpoints.ports = desired_ports;
            let obj: Object = endpoints.into();
            if client.create(obj).is_ok() {
                metrics.endpoints_writes.inc();
            }
        }
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use std::time::Duration;
    use vc_api::labels::labels;
    use vc_api::pod::{Pod, PodConditionType, PodPhase};
    use vc_api::service::ServicePort;
    use vc_apiserver::{ApiServer, ApiServerConfig};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn ready_pod(ns: &str, name: &str, app: &str, ip: &str) -> Pod {
        let mut pod = Pod::new(ns, name).with_labels(labels(&[("app", app)]));
        pod.spec.node_name = "n1".into();
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
    fn allocates_cluster_ip() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::new(Arc::clone(&server), "svc-ctrl"), &informers, Default::default());
        let user = Client::new(server, "u");
        user.create(Service::new("default", "web").with_port(ServicePort::tcp(80, 8080)).into())
            .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Service, "default", "web")
                .is_ok_and(|o| !o.as_service().unwrap().spec.cluster_ip.is_empty())
        }));
        let svc = user.get(ResourceKind::Service, "default", "web").unwrap();
        assert!(svc.as_service().unwrap().spec.cluster_ip.starts_with("10.96."));
        assert_count_reaches(&metrics.ips_allocated, 1);
        handle.stop();
    }

    #[test]
    fn preallocated_ip_respected() {
        // Synced tenant services arrive with an IP; the controller must not
        // reallocate it.
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::new(Arc::clone(&server), "svc-ctrl"), &informers, Default::default());
        let user = Client::new(server, "u");
        let mut svc = Service::new("default", "synced");
        svc.spec.cluster_ip = "10.200.0.5".into();
        user.create(svc.into()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let got = user.get(ResourceKind::Service, "default", "synced").unwrap();
        assert_eq!(got.as_service().unwrap().spec.cluster_ip, "10.200.0.5");
        assert_eq!(metrics.ips_allocated.get(), 0);
        handle.stop();
    }

    #[test]
    fn endpoints_track_ready_pods() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) =
            start(Client::new(Arc::clone(&server), "svc-ctrl"), &informers, Default::default());
        let user = Client::new(Arc::clone(&server), "u");
        user.create(ready_pod("default", "p1", "web", "10.1.0.1").into()).unwrap();
        user.create(ready_pod("default", "p2", "web", "10.1.0.2").into()).unwrap();
        user.create(ready_pod("default", "other", "db", "10.1.0.3").into()).unwrap();
        // An unready pod must not appear.
        let mut unready = ready_pod("default", "p3", "web", "10.1.0.4");
        unready.status.set_condition(
            PodConditionType::Ready,
            false,
            "not yet",
            vc_api::time::Timestamp::from_millis(2),
        );
        user.create(unready.into()).unwrap();

        user.create(
            Service::new("default", "web")
                .with_selector(labels(&[("app", "web")]))
                .with_port(ServicePort::tcp(80, 8080))
                .into(),
        )
        .unwrap();

        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Endpoints, "default", "web")
                .is_ok_and(|o| o.as_endpoints().unwrap().addresses.len() == 2)
        }));
        let eps = user.get(ResourceKind::Endpoints, "default", "web").unwrap();
        let ips: Vec<&str> =
            eps.as_endpoints().unwrap().addresses.iter().map(|a| a.ip.as_str()).collect();
        assert_eq!(ips, vec!["10.1.0.1", "10.1.0.2"]);

        // Deleting a pod shrinks the endpoints.
        user.delete(ResourceKind::Pod, "default", "p1").unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Endpoints, "default", "web")
                .is_ok_and(|o| o.as_endpoints().unwrap().addresses.len() == 1)
        }));
        handle.stop();
    }

    #[test]
    fn selectorless_service_endpoints_untouched() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) =
            start(Client::new(Arc::clone(&server), "svc-ctrl"), &informers, Default::default());
        let user = Client::new(Arc::clone(&server), "u");
        user.create(Service::new("default", "external").into()).unwrap();
        // Custom endpoints created by hand (or by the VC syncer).
        let mut eps = Endpoints::new("default", "external");
        eps.addresses.push(EndpointAddress {
            ip: "192.0.2.1".into(),
            target_pod: String::new(),
            node_name: String::new(),
        });
        user.create(eps.into()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let got = user.get(ResourceKind::Endpoints, "default", "external").unwrap();
        assert_eq!(got.as_endpoints().unwrap().addresses.len(), 1, "left alone");
        handle.stop();
    }

    #[test]
    fn deleting_service_removes_endpoints() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) =
            start(Client::new(Arc::clone(&server), "svc-ctrl"), &informers, Default::default());
        let user = Client::new(Arc::clone(&server), "u");
        user.create(ready_pod("default", "p1", "web", "10.1.0.1").into()).unwrap();
        user.create(Service::new("default", "web").with_selector(labels(&[("app", "web")])).into())
            .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Endpoints, "default", "web").is_ok()
        }));
        user.delete(ResourceKind::Service, "default", "web").unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Endpoints, "default", "web").is_err()
        }));
        handle.stop();
    }
}
