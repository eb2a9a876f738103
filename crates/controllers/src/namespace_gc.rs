//! Namespace controller: drains terminating namespaces, then releases the
//! `kubernetes` finalizer so the apiserver can remove them.

use crate::util::{retry_on_conflict, ControllerHandle, Informers};
use std::sync::Arc;
use std::time::Duration;
use vc_api::metrics::Counter;
use vc_api::namespace::Namespace;
use vc_api::object::ResourceKind;
use vc_client::{Client, InformerEvent, WorkQueue};

/// Namespaced kinds drained during namespace deletion, in a dependency-
/// friendly order.
const DRAIN_ORDER: [ResourceKind; 9] = [
    ResourceKind::Deployment,
    ResourceKind::ReplicaSet,
    ResourceKind::Pod,
    ResourceKind::Service,
    ResourceKind::Endpoints,
    ResourceKind::Secret,
    ResourceKind::ConfigMap,
    ResourceKind::ServiceAccount,
    ResourceKind::PersistentVolumeClaim,
];

/// Namespace controller metrics.
#[derive(Debug, Default)]
pub struct NamespaceGcMetrics {
    /// Namespaces fully removed.
    pub namespaces_deleted: Counter,
    /// Objects deleted during drains.
    pub objects_drained: Counter,
}

/// Starts the namespace controller, reading namespaces through `informers`.
pub fn start(client: Client, informers: &Informers) -> (ControllerHandle, Arc<NamespaceGcMetrics>) {
    let mut handle = ControllerHandle::new("namespace-controller");
    let metrics = Arc::new(NamespaceGcMetrics::default());
    let queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());

    {
        let queue = Arc::clone(&queue);
        informers.get(ResourceKind::Namespace).add_handler(Box::new(move |event| {
            if let InformerEvent::Added { object: obj, .. }
            | InformerEvent::Updated { new: obj, .. } = event
            {
                if obj.meta().is_terminating() {
                    queue.add(obj.meta().name.clone());
                }
            }
        }));
    }
    {
        let worker_queue = Arc::clone(&queue);
        let metrics = Arc::clone(&metrics);
        handle.workers("namespace-controller", 1, 1, &queue, move |name| {
            if !drain_namespace(name, &client, &metrics) {
                // Requeue until the namespace is empty.
                worker_queue.add_after(name.clone(), Duration::from_millis(50));
            }
        });
    }
    (handle, metrics)
}

/// Drains one terminating namespace; returns `true` when done (or gone).
fn drain_namespace(name: &str, client: &Client, metrics: &NamespaceGcMetrics) -> bool {
    let ns = match client.get(ResourceKind::Namespace, "", name) {
        Ok(obj) => obj,
        Err(_) => return true, // already gone
    };
    if !ns.meta().is_terminating() {
        return true;
    }

    let mut remaining = 0usize;
    for kind in DRAIN_ORDER {
        let Ok((items, _)) = client.list(kind, Some(name)) else { continue };
        for item in items {
            remaining += 1;
            if client.delete(kind, name, &item.meta().name).is_ok() {
                metrics.objects_drained.inc();
            }
        }
    }
    if remaining > 0 {
        return false;
    }

    // Empty: release the finalizer, completing deletion.
    let result = retry_on_conflict(5, || {
        let fresh = client.get(ResourceKind::Namespace, "", name)?;
        let mut fresh: Namespace = fresh.try_into()?;
        fresh.meta.remove_finalizer(vc_apiserver::NAMESPACE_FINALIZER);
        client.update(fresh.into()).map(|_| ())
    });
    match result {
        Ok(()) => {
            metrics.namespaces_deleted.inc();
            true
        }
        Err(e) if e.is_not_found() => true,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use vc_api::pod::Pod;
    use vc_apiserver::{ApiServer, ApiServerConfig};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    #[test]
    fn deleting_namespace_drains_contents() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(Client::new(Arc::clone(&server), "ns-ctrl"), &informers);
        let user = Client::new(server, "u");
        user.create(vc_api::namespace::Namespace::new("team").into()).unwrap();
        user.create(Pod::new("team", "p1").into()).unwrap();
        user.create(Pod::new("team", "p2").into()).unwrap();
        user.create(vc_api::config::Secret::new("team", "s1").into()).unwrap();

        user.delete(ResourceKind::Namespace, "", "team").unwrap();
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            user.get(ResourceKind::Namespace, "", "team").is_err()
        }));
        assert!(user.get(ResourceKind::Pod, "team", "p1").unwrap_err().is_not_found());
        assert!(metrics.objects_drained.get() >= 3);
        assert_count_reaches(&metrics.namespaces_deleted, 1);
        handle.stop();
    }

    #[test]
    fn active_namespaces_untouched() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(Client::new(Arc::clone(&server), "ns-ctrl"), &informers);
        let user = Client::new(server, "u");
        user.create(Pod::new("default", "keep").into()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert!(user.get(ResourceKind::Pod, "default", "keep").is_ok());
        handle.stop();
    }
}
