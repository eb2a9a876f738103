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

use super::TenantState;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::node::Node;
use vc_api::object::ResourceKind;
use vc_client::Cache;
use vc_controllers::util::retry_on_conflict;

/// A shared name: a tenant's, a node's or a super pod key.
type Name = Arc<str>;

/// Tracks pod→vNode bindings and materializes vNodes in tenant control
/// planes, through each tenant's syncer client ([`TenantState::client`]).
///
/// Both maps nest by tenant and hold shared names: the tenant's minted
/// name, the super pod key of the work item, and a node name copied once,
/// when the tenant's first pod binds there. A lookup borrows; a snapshot
/// bumps reference counts.
#[derive(Debug, Default)]
pub struct VNodeManager {
    /// tenant -> node -> super-side pod keys bound there.
    bindings: Mutex<HashMap<Name, HashMap<Name, HashSet<Name>>>>,
    /// tenant -> super pod key -> node, for release.
    pod_nodes: Mutex<HashMap<Name, HashMap<Name, Name>>>,
    /// vNodes created.
    pub vnodes_created: Counter,
    /// vNodes removed after their last pod unbound.
    pub vnodes_removed: Counter,
    /// Heartbeat broadcasts performed (vnode-updates, not rounds).
    pub heartbeats_sent: Counter,
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
        tenant: &TenantState,
        super_node_cache: &Cache,
        node_name: &str,
        super_pod_key: &Arc<str>,
    ) {
        let known = self
            .pod_nodes
            .lock()
            .get(&tenant.name)
            .and_then(|pods| pods.get(super_pod_key).map(|node| &**node == node_name));
        if known == Some(true) {
            return;
        }
        let (node, is_new_node) = {
            let mut bindings = self.bindings.lock();
            let nodes = bindings.entry(Arc::clone(&tenant.name)).or_default();
            let node = nodes
                .get_key_value(node_name)
                .map_or_else(|| Arc::from(node_name), |(node, _)| Arc::clone(node));
            let set = nodes.entry(Arc::clone(&node)).or_default();
            let was_empty = set.is_empty();
            set.insert(Arc::clone(super_pod_key));
            (node, was_empty)
        };
        self.pod_nodes
            .lock()
            .entry(Arc::clone(&tenant.name))
            .or_default()
            .insert(Arc::clone(super_pod_key), node);

        if is_new_node {
            self.ensure_vnode(tenant, super_node_cache, node_name);
        }
    }

    /// Releases `super_pod_key`'s binding; removes the vNode when it was
    /// the last pod.
    pub fn release(&self, tenant: &TenantState, super_pod_key: &str) {
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
        if now_empty && tenant.client.delete(ResourceKind::Node, "", &node).is_ok() {
            self.vnodes_removed.inc();
        }
    }

    /// Number of pods bound to `(tenant, node)`.
    pub fn binding_count(&self, tenant: &str, node: &str) -> usize {
        let bindings = self.bindings.lock();
        bindings.get(tenant).and_then(|nodes| nodes.get(node)).map_or(0, HashSet::len)
    }

    /// Broadcasts physical-node heartbeats to every tenant vNode: each
    /// vNode's status becomes its node's, shared, not copied. A vNode that
    /// already mirrors its node's status is not written.
    ///
    /// Tenants are indexed by name up front, so a round costs
    /// O(bindings + tenants) instead of the O(bindings × tenants) a
    /// per-pair scan over the tenant list would — at 1,000+ registered
    /// tenants the scan dominated every heartbeat round. The bindings are
    /// snapshotted as shared names, so no apiserver call runs under their
    /// lock.
    pub fn broadcast_heartbeats(&self, tenants: &[Arc<TenantState>], super_node_cache: &Cache) {
        let by_name: HashMap<&str, &TenantState> =
            tenants.iter().map(|t| (&*t.name, &**t)).collect();
        let pairs: Vec<(Arc<str>, Arc<str>)> = self
            .bindings
            .lock()
            .iter()
            .flat_map(|(tenant, nodes)| {
                nodes.keys().map(move |node| (Arc::clone(tenant), Arc::clone(node)))
            })
            .collect();
        for (tenant_name, node_name) in &pairs {
            let Some(tenant) = by_name.get(&**tenant_name) else { continue };
            let Some(super_obj) = super_node_cache.get(node_name) else { continue };
            let Some(super_node) = super_obj.as_node() else { continue };
            let (client, source) = (&tenant.client, &super_node.status);
            let written = retry_on_conflict(3, || {
                let fresh = client.get(ResourceKind::Node, "", node_name)?;
                // Compare through the shared pointer (a vNode written here
                // shares its node's status): only a write needs a copy.
                if fresh.as_node().is_some_and(|current| current.status == *source) {
                    return Ok(false);
                }
                let mut vnode: Node = fresh.try_into()?;
                vnode.status = source.clone();
                client.update(vnode.into()).map(|_| true)
            });
            if matches!(written, Ok(true)) {
                self.heartbeats_sent.inc();
            }
        }
    }

    /// Creates the vNode mirroring `node_name`, sharing the super node's
    /// status. Reached only when this manager had no pod of the tenant
    /// bound there, so no GET asks first: a vNode that exists anyway (left
    /// by an earlier syncer) answers the create with `AlreadyExists`, which
    /// is success.
    fn ensure_vnode(&self, tenant: &TenantState, super_node_cache: &Cache, node_name: &str) {
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
        if tenant.client.create(vnode.into()).is_ok() {
            self.vnodes_created.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{generate_cert, TenantHandle};
    use vc_controllers::{Cluster, ClusterConfig};

    /// A tenant as the syncer holds it: the handle and the syncer's client.
    fn tenant(name: &str) -> Arc<TenantState> {
        let (cert, cert_hash) = generate_cert(name);
        let mut config = ClusterConfig::tenant(name).with_zero_latency();
        config.workload_controllers = false;
        config.service_controller = false;
        config.namespace_controller = false;
        config.garbage_collector = false;
        let handle = Arc::new(TenantHandle {
            name: name.into(),
            prefix: format!("{name}-h"),
            cluster: Arc::new(Cluster::start(config)),
            cert,
            cert_hash,
            weight: 1,
            sync_crds: false,
        });
        Arc::new(TenantState {
            name: name.into(),
            client: handle.system_client("vc-syncer"),
            handle,
            informers: HashMap::new(),
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
        manager.bind(&t, &cache, "node-1", &"pfx-default/p1".into());
        manager.bind(&t, &cache, "node-1", &"pfx-default/p2".into());
        assert_eq!(manager.binding_count("t1", "node-1"), 2);
        assert_eq!(manager.vnodes_created.get(), 1);
        let client = t.handle.client("test");
        let vnode = client.get(ResourceKind::Node, "", "node-1").unwrap();
        let vnode = vnode.as_node().unwrap();
        assert!(vnode.is_vnode());
        assert_eq!(vnode.vnode_source(), Some("node-1"));
        t.handle.cluster.shutdown();
    }

    #[test]
    fn last_release_removes_vnode() {
        let manager = VNodeManager::new();
        let t = tenant("t2");
        let cache = super_node_cache(&["node-1"]);
        manager.bind(&t, &cache, "node-1", &"a/p1".into());
        manager.bind(&t, &cache, "node-1", &"a/p2".into());
        manager.release(&t, "a/p1");
        assert_eq!(manager.binding_count("t2", "node-1"), 1);
        assert!(t.handle.client("test").get(ResourceKind::Node, "", "node-1").is_ok());
        manager.release(&t, "a/p2");
        assert_eq!(manager.binding_count("t2", "node-1"), 0);
        assert!(t.handle.client("test").get(ResourceKind::Node, "", "node-1").is_err());
        assert_eq!(manager.vnodes_removed.get(), 1);
        // Releasing an unknown pod is a no-op.
        manager.release(&t, "a/ghost");
        t.handle.cluster.shutdown();
    }

    #[test]
    fn one_to_one_mapping_preserves_node_identity() {
        // The Fig 6 property: two distinct physical nodes appear as two
        // distinct vNodes.
        let manager = VNodeManager::new();
        let t = tenant("t3");
        let cache = super_node_cache(&["node-1", "node-2"]);
        manager.bind(&t, &cache, "node-1", &"a/p1".into());
        manager.bind(&t, &cache, "node-2", &"a/p2".into());
        let client = t.handle.client("test");
        let (nodes, _) = client.list(ResourceKind::Node, None).unwrap();
        assert_eq!(nodes.len(), 2);
        t.handle.cluster.shutdown();
    }

    #[test]
    fn heartbeats_broadcast_to_vnodes() {
        let manager = VNodeManager::new();
        let t = tenant("t4");
        let cache = super_node_cache(&["node-1"]);
        manager.bind(&t, &cache, "node-1", &"a/p1".into());

        // Advance the super node's heartbeat and broadcast.
        let mut node = Node::try_from(cache.get("node-1").unwrap()).unwrap();
        node.status.last_heartbeat = vc_api::time::Timestamp::from_millis(999);
        cache.insert(node.into());
        manager.broadcast_heartbeats(&[Arc::clone(&t)], &cache);

        let vnode = t.handle.client("test").get(ResourceKind::Node, "", "node-1").unwrap();
        assert_eq!(
            vnode.as_node().unwrap().status.last_heartbeat,
            vc_api::time::Timestamp::from_millis(999)
        );
        assert_eq!(manager.heartbeats_sent.get(), 1);

        // A round with the super node unchanged writes nothing.
        manager.broadcast_heartbeats(&[Arc::clone(&t)], &cache);
        let again = t.handle.client("test").get(ResourceKind::Node, "", "node-1").unwrap();
        assert_eq!(again.meta().resource_version, vnode.meta().resource_version);
        assert_eq!(manager.heartbeats_sent.get(), 1);
        t.handle.cluster.shutdown();
    }
}
