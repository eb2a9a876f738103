//! Virtual node (vNode) management (paper §III-C).
//!
//! "The syncer controller manages all virtual node objects in the tenant
//! control planes. The physical node heartbeats will be broadcasted to all
//! virtual nodes periodically. The binding associations between the tenant
//! Pods and the virtual nodes are tracked in the syncer as well. Once a
//! virtual node has no binding Pods, it will be removed from the tenant
//! control plane."
//!
//! Each vNode mirrors one real super-cluster node 1:1, which is what makes
//! inter-pod anti-affinity visible to tenants (Fig 6) — unlike a virtual
//! kubelet's single synthetic node.

use crate::registry::TenantHandle;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::node::Node;
use vc_api::object::ResourceKind;
use vc_client::Cache;
use vc_controllers::util::retry_on_conflict;

/// Tracks pod→vNode bindings and materializes vNodes in tenant control
/// planes.
///
/// Both maps nest by tenant, so a lookup borrows the tenant name and key
/// instead of building an owned pair; names are copied only when a binding
/// is new.
#[derive(Debug, Default)]
pub struct VNodeManager {
    /// tenant -> node -> super-side pod keys bound there.
    bindings: Mutex<HashMap<String, HashMap<String, HashSet<String>>>>,
    /// tenant -> super pod key -> node, for release.
    pod_nodes: Mutex<HashMap<String, HashMap<String, String>>>,
    /// vNodes created.
    pub vnodes_created: Counter,
    /// vNodes removed after their last pod unbound.
    pub vnodes_removed: Counter,
    /// Heartbeat broadcasts performed (vnode-updates, not rounds).
    pub heartbeats_sent: Counter,
}

/// `map[key]`, inserted empty first when absent (the key is copied then
/// only).
fn entry<'a, V: Default>(map: &'a mut HashMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

impl VNodeManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        VNodeManager::default()
    }

    /// Ensures a vNode mirroring `node_name` exists in the tenant control
    /// plane and records the binding of `super_pod_key` to it. A binding
    /// already recorded — every later status item of a bound pod — is a
    /// lookup and nothing more.
    pub fn bind(
        &self,
        tenant: &Arc<TenantHandle>,
        super_node_cache: &Cache,
        node_name: &str,
        super_pod_key: &str,
    ) {
        let known = self
            .pod_nodes
            .lock()
            .get(&tenant.name)
            .and_then(|pods| pods.get(super_pod_key).map(|node| node == node_name));
        if known == Some(true) {
            return;
        }
        let is_new_node = {
            let mut bindings = self.bindings.lock();
            let set = entry(entry(&mut bindings, &tenant.name), node_name);
            let was_empty = set.is_empty();
            set.insert(super_pod_key.to_string());
            was_empty
        };
        entry(&mut self.pod_nodes.lock(), &tenant.name)
            .insert(super_pod_key.to_string(), node_name.to_string());

        if is_new_node {
            self.ensure_vnode(tenant, super_node_cache, node_name);
        }
    }

    /// Releases `super_pod_key`'s binding; removes the vNode when it was
    /// the last pod.
    pub fn release(&self, tenant: &Arc<TenantHandle>, super_pod_key: &str) {
        let node = {
            let mut pod_nodes = self.pod_nodes.lock();
            let Some(pods) = pod_nodes.get_mut(&tenant.name) else { return };
            let Some(node) = pods.remove(super_pod_key) else { return };
            if pods.is_empty() {
                pod_nodes.remove(&tenant.name);
            }
            node
        };
        let now_empty = {
            let mut bindings = self.bindings.lock();
            let Some(nodes) = bindings.get_mut(&tenant.name) else { return };
            let Some(set) = nodes.get_mut(&node) else { return };
            set.remove(super_pod_key);
            let now_empty = set.is_empty();
            if now_empty {
                nodes.remove(&node);
                if nodes.is_empty() {
                    bindings.remove(&tenant.name);
                }
            }
            now_empty
        };
        if now_empty {
            let client = tenant.system_client("vc-syncer");
            if client.delete(ResourceKind::Node, "", &node).is_ok() {
                self.vnodes_removed.inc();
            }
        }
    }

    /// Number of pods bound to `(tenant, node)`.
    pub fn binding_count(&self, tenant: &str, node: &str) -> usize {
        let bindings = self.bindings.lock();
        bindings.get(tenant).and_then(|nodes| nodes.get(node)).map_or(0, HashSet::len)
    }

    /// Broadcasts physical-node heartbeats to every tenant vNode.
    ///
    /// Tenants are indexed by name up front, so a round costs
    /// O(bindings + tenants) instead of the O(bindings × tenants) a
    /// per-pair scan over the tenant list would — at 1,000+ registered
    /// tenants the scan dominated every heartbeat round.
    pub fn broadcast_heartbeats(&self, tenants: &[Arc<TenantHandle>], super_node_cache: &Cache) {
        let by_name: HashMap<&str, &Arc<TenantHandle>> =
            tenants.iter().map(|t| (t.name.as_str(), t)).collect();
        let pairs: Vec<(String, String)> = self
            .bindings
            .lock()
            .iter()
            .flat_map(|(tenant, nodes)| nodes.keys().map(|node| (tenant.clone(), node.clone())))
            .collect();
        for (tenant_name, node_name) in pairs {
            let Some(&tenant) = by_name.get(tenant_name.as_str()) else { continue };
            let Some(super_obj) = super_node_cache.get(&node_name) else { continue };
            let Some(super_node) = super_obj.as_node() else { continue };
            let client = tenant.system_client("vc-syncer");
            let ok = retry_on_conflict(3, || {
                let fresh = client.get(ResourceKind::Node, "", &node_name)?;
                let mut vnode: Node = fresh.try_into()?;
                vnode.status.last_heartbeat = super_node.status.last_heartbeat;
                vnode.status.condition = super_node.status.condition;
                vnode.status.capacity = super_node.status.capacity.clone();
                vnode.status.allocatable = super_node.status.allocatable.clone();
                client.update(vnode.into()).map(|_| ())
            });
            if ok.is_ok() {
                self.heartbeats_sent.inc();
            }
        }
    }

    fn ensure_vnode(&self, tenant: &Arc<TenantHandle>, super_node_cache: &Cache, node_name: &str) {
        let client = tenant.system_client("vc-syncer");
        if client.get(ResourceKind::Node, "", node_name).is_ok() {
            return;
        }
        // Mirror the real node's shape 1:1.
        let vnode = match super_node_cache.get(node_name).and_then(|o| Node::try_from(o).ok()) {
            Some(mut node) => {
                node.meta.resource_version = 0;
                node.meta.uid = Default::default();
                node.meta.owner_references.clear();
                node.as_vnode_of(node_name)
            }
            None => Node::new(
                node_name,
                vc_api::quantity::resource_list(&[
                    ("cpu", "96"),
                    ("memory", "328Gi"),
                    ("pods", "500"),
                ]),
            )
            .as_vnode_of(node_name),
        };
        match client.create(vnode.into()) {
            Ok(_) => self.vnodes_created.inc(),
            Err(e) if e.is_already_exists() => {}
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::generate_cert;
    use vc_controllers::{Cluster, ClusterConfig};

    fn tenant(name: &str) -> Arc<TenantHandle> {
        let (cert, cert_hash) = generate_cert(name);
        let mut config = ClusterConfig::tenant(name).with_zero_latency();
        config.workload_controllers = false;
        config.service_controller = false;
        config.namespace_controller = false;
        config.garbage_collector = false;
        Arc::new(TenantHandle {
            name: name.into(),
            prefix: format!("{name}-h"),
            cluster: Arc::new(Cluster::start(config)),
            cert,
            cert_hash,
            weight: 1,
            sync_crds: false,
        })
    }

    fn super_node_cache(nodes: &[&str]) -> Cache {
        let cache = Cache::new();
        for name in nodes {
            let mut node = Node::new(
                *name,
                vc_api::quantity::resource_list(&[("cpu", "96"), ("pods", "500")]),
            );
            node.status.last_heartbeat = vc_api::time::Timestamp::from_millis(123);
            cache.insert(node.into());
        }
        cache
    }

    #[test]
    fn bind_creates_vnode_once() {
        let manager = VNodeManager::new();
        let t = tenant("t1");
        let cache = super_node_cache(&["node-1"]);
        manager.bind(&t, &cache, "node-1", "pfx-default/p1");
        manager.bind(&t, &cache, "node-1", "pfx-default/p2");
        assert_eq!(manager.binding_count("t1", "node-1"), 2);
        assert_eq!(manager.vnodes_created.get(), 1);
        let client = t.client("test");
        let vnode = client.get(ResourceKind::Node, "", "node-1").unwrap();
        let vnode = vnode.as_node().unwrap();
        assert!(vnode.is_vnode());
        assert_eq!(vnode.vnode_source(), Some("node-1"));
        t.cluster.shutdown();
    }

    #[test]
    fn last_release_removes_vnode() {
        let manager = VNodeManager::new();
        let t = tenant("t2");
        let cache = super_node_cache(&["node-1"]);
        manager.bind(&t, &cache, "node-1", "a/p1");
        manager.bind(&t, &cache, "node-1", "a/p2");
        manager.release(&t, "a/p1");
        assert_eq!(manager.binding_count("t2", "node-1"), 1);
        assert!(t.client("test").get(ResourceKind::Node, "", "node-1").is_ok());
        manager.release(&t, "a/p2");
        assert_eq!(manager.binding_count("t2", "node-1"), 0);
        assert!(t.client("test").get(ResourceKind::Node, "", "node-1").is_err());
        assert_eq!(manager.vnodes_removed.get(), 1);
        // Releasing an unknown pod is a no-op.
        manager.release(&t, "a/ghost");
        t.cluster.shutdown();
    }

    #[test]
    fn one_to_one_mapping_preserves_node_identity() {
        // The Fig 6 property: two distinct physical nodes appear as two
        // distinct vNodes.
        let manager = VNodeManager::new();
        let t = tenant("t3");
        let cache = super_node_cache(&["node-1", "node-2"]);
        manager.bind(&t, &cache, "node-1", "a/p1");
        manager.bind(&t, &cache, "node-2", "a/p2");
        let client = t.client("test");
        let (nodes, _) = client.list(ResourceKind::Node, None).unwrap();
        assert_eq!(nodes.len(), 2);
        t.cluster.shutdown();
    }

    #[test]
    fn heartbeats_broadcast_to_vnodes() {
        let manager = VNodeManager::new();
        let t = tenant("t4");
        let cache = super_node_cache(&["node-1"]);
        manager.bind(&t, &cache, "node-1", "a/p1");

        // Advance the super node's heartbeat and broadcast.
        let mut node = Node::try_from(cache.get("node-1").unwrap()).unwrap();
        node.status.last_heartbeat = vc_api::time::Timestamp::from_millis(999);
        cache.insert(node.into());
        manager.broadcast_heartbeats(&[Arc::clone(&t)], &cache);

        let vnode = t.client("test").get(ResourceKind::Node, "", "node-1").unwrap();
        assert_eq!(
            vnode.as_node().unwrap().status.last_heartbeat,
            vc_api::time::Timestamp::from_millis(999)
        );
        assert_eq!(manager.heartbeats_sent.get(), 1);
        t.cluster.shutdown();
    }
}
