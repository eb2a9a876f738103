//! Node lifecycle controller: marks nodes NotReady when heartbeats stop
//! and, after an eviction grace period, deletes the pods stranded on them
//! so workload controllers can reschedule elsewhere.

use crate::util::{retry_on_conflict, ControllerHandle, Informers};
use std::sync::Arc;
use std::time::Duration;
use vc_api::metrics::Counter;
use vc_api::node::{Node, NodeCondition};
use vc_api::object::ResourceKind;
use vc_api::time::Timestamp;
use vc_client::Client;

/// Node lifecycle configuration.
#[derive(Debug, Clone)]
pub struct NodeLifecycleConfig {
    /// A node is NotReady when its heartbeat is older than this.
    pub heartbeat_grace: Duration,
    /// Check interval.
    pub interval: Duration,
    /// Pods on a node NotReady for longer than this are evicted
    /// (deleted); `None` disables eviction.
    pub eviction_grace: Option<Duration>,
}

impl Default for NodeLifecycleConfig {
    fn default() -> Self {
        NodeLifecycleConfig {
            heartbeat_grace: Duration::from_secs(40),
            interval: Duration::from_secs(5),
            eviction_grace: Some(Duration::from_secs(120)),
        }
    }
}

/// Node lifecycle metrics.
#[derive(Debug, Default)]
pub struct NodeLifecycleMetrics {
    /// Ready→NotReady transitions recorded.
    pub nodes_marked_not_ready: Counter,
    /// Pods evicted from dead nodes.
    pub pods_evicted: Counter,
}

/// Starts the node lifecycle controller, reading nodes through `informers`.
pub fn start(
    client: Client,
    informers: &Informers,
    config: NodeLifecycleConfig,
) -> (ControllerHandle, Arc<NodeLifecycleMetrics>) {
    let mut handle = ControllerHandle::new("node-lifecycle");
    let metrics = Arc::new(NodeLifecycleMetrics::default());

    let cache = Arc::clone(informers.get(ResourceKind::Node).cache());

    {
        let metrics = Arc::clone(&metrics);
        // Check cadence and NotReady dwell both run on the server's clock,
        // so tests drive heartbeat staleness and eviction grace by
        // advancing a virtual clock.
        let clock = Arc::clone(client.server().clock());
        let now = Arc::clone(&clock);
        // node -> clock time it was first seen NotReady.
        let mut not_ready_since: std::collections::HashMap<String, Timestamp> = Default::default();
        handle.every(&clock, config.interval, move || {
            let now = now.now();
            for obj in cache.list() {
                let Some(node) = obj.as_node() else { continue };
                let name = node.meta.name.clone();
                let stale = now.duration_since(node.status.last_heartbeat) > config.heartbeat_grace;
                if stale && node.status.condition == NodeCondition::Ready {
                    let ok = retry_on_conflict(3, || {
                        let fresh = client.get(ResourceKind::Node, "", &name)?;
                        let mut fresh: Node = fresh.try_into()?;
                        fresh.status.condition = NodeCondition::NotReady;
                        client.update(fresh.into()).map(|_| ())
                    });
                    if ok.is_ok() {
                        metrics.nodes_marked_not_ready.inc();
                    }
                }
                // Track NotReady dwell time and evict stranded pods past
                // the grace period.
                if node.status.condition == NodeCondition::NotReady || stale {
                    let since = *not_ready_since.entry(name.clone()).or_insert(now);
                    if let Some(grace) = config.eviction_grace {
                        if now.duration_since(since) > grace {
                            evict_node_pods(&client, &name, &metrics);
                        }
                    }
                } else {
                    not_ready_since.remove(&name);
                }
            }
        });
    }
    (handle, metrics)
}

/// Deletes every pod bound to `node` (best effort).
fn evict_node_pods(client: &Client, node: &str, metrics: &NodeLifecycleMetrics) {
    let Ok((pods, _)) = client.list(ResourceKind::Pod, None) else { return };
    for obj in pods {
        let Some(pod) = obj.as_pod() else { continue };
        if pod.spec.node_name == node
            && !pod.meta.is_terminating()
            && client.delete(ResourceKind::Pod, &pod.meta.namespace, &pod.meta.name).is_ok()
        {
            metrics.pods_evicted.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use vc_api::quantity::resource_list;
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
    fn stale_node_marked_not_ready() {
        let server = fast_server();
        let user = Client::new(Arc::clone(&server), "u");
        let mut node = Node::new("n1", resource_list(&[("cpu", "4")]));
        node.status.last_heartbeat = server.clock().now();
        user.create(node.into()).unwrap();

        let config = NodeLifecycleConfig {
            heartbeat_grace: Duration::from_millis(80),
            interval: Duration::from_millis(20),
            eviction_grace: None,
        };
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::new(Arc::clone(&server), "nlc"), &informers, config);
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            user.get(ResourceKind::Node, "", "n1")
                .is_ok_and(|o| o.as_node().unwrap().status.condition == NodeCondition::NotReady)
        }));
        assert_count_reaches(&metrics.nodes_marked_not_ready, 1);
        handle.stop();
    }

    #[test]
    fn heartbeating_node_stays_ready() {
        let server = fast_server();
        let user = Client::new(Arc::clone(&server), "u");
        let mut node = Node::new("n1", resource_list(&[("cpu", "4")]));
        node.status.last_heartbeat = server.clock().now();
        user.create(node.into()).unwrap();

        let config = NodeLifecycleConfig {
            heartbeat_grace: Duration::from_secs(10),
            interval: Duration::from_millis(20),
            eviction_grace: None,
        };
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::new(Arc::clone(&server), "nlc"), &informers, config);
        std::thread::sleep(Duration::from_millis(200));
        let node = user.get(ResourceKind::Node, "", "n1").unwrap();
        assert_eq!(node.as_node().unwrap().status.condition, NodeCondition::Ready);
        assert_eq!(metrics.nodes_marked_not_ready.get(), 0);
        handle.stop();
    }

    #[test]
    fn dead_node_pods_evicted_after_grace() {
        // Heartbeat staleness, the check cadence and the eviction grace
        // all run on the server clock: production-scale durations (60 s
        // grace, 120 s eviction) are crossed by advancing a virtual
        // clock, not by shrinking the timings to sleep through them.
        let clock = vc_api::time::SimClock::new();
        let server = {
            let config = ApiServerConfig {
                read_latency: Duration::ZERO,
                write_latency: Duration::ZERO,
                ..Default::default()
            };
            ApiServer::new(config, clock.clone() as Arc<dyn vc_api::time::Clock>)
        };
        let user = Client::new(Arc::clone(&server), "u");
        let mut node = Node::new("dead", resource_list(&[("cpu", "4")]));
        node.status.last_heartbeat = server.clock().now();
        user.create(node.into()).unwrap();
        let mut healthy = Node::new("healthy", resource_list(&[("cpu", "4")]));
        // Far enough ahead that the test's virtual advances never make it
        // stale.
        healthy.status.last_heartbeat = server.clock().now().add(Duration::from_secs(1_000_000));
        user.create(healthy.into()).unwrap();

        let mut stranded = vc_api::pod::Pod::new("default", "stranded");
        stranded.spec.node_name = "dead".into();
        user.create(stranded.into()).unwrap();
        let mut safe = vc_api::pod::Pod::new("default", "safe");
        safe.spec.node_name = "healthy".into();
        user.create(safe.into()).unwrap();

        let interval = Duration::from_secs(10);
        let config = NodeLifecycleConfig {
            heartbeat_grace: Duration::from_secs(60),
            interval,
            eviction_grace: Some(Duration::from_secs(120)),
        };
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::system(Arc::clone(&server), "nlc"), &informers, config);
        assert!(crate::util::wait_until(
            Duration::from_secs(10),
            Duration::from_millis(30),
            || {
                clock.advance(interval);
                user.get(ResourceKind::Pod, "default", "stranded").is_err()
            }
        ));
        assert!(user.get(ResourceKind::Pod, "default", "safe").is_ok());
        // Ticks after the delete the poll above saw land.
        assert!(wait_until(Duration::from_secs(2), Duration::from_millis(10), || {
            metrics.pods_evicted.get() >= 1
        }));
        handle.stop();
    }
}
