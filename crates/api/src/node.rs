//! The Node object: capacity, taints, heartbeat conditions.
//!
//! In VirtualCluster the syncer mirrors super-cluster nodes into tenant
//! control planes as **virtual nodes (vNodes)** with a strict 1:1 mapping;
//! the `vnode` annotations on a mirrored node identify its origin.

use crate::meta::ObjectMeta;
use crate::pod::TaintEffect;
use crate::quantity::ResourceList;
use crate::shared::Shared;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};

/// A taint repelling pods that do not tolerate it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Taint {
    /// Taint key.
    pub key: String,
    /// Taint value.
    pub value: String,
    /// Effect on non-tolerating pods.
    pub effect: TaintEffect,
}

/// Node desired state.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Taints applied to the node.
    pub taints: Vec<Taint>,
    /// If `true`, the scheduler ignores this node.
    pub unschedulable: bool,
    /// Provider identifier (e.g. the vn-agent endpoint on this node).
    pub provider_id: String,
}

/// Node readiness condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NodeCondition {
    /// Kubelet is posting heartbeats.
    #[default]
    Ready,
    /// Heartbeats missed; pods may be evicted.
    NotReady,
}

/// Node observed state.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeStatus {
    /// Total resources on the node.
    pub capacity: ResourceList,
    /// Resources available to pods (capacity minus system reserve).
    pub allocatable: ResourceList,
    /// Readiness condition.
    pub condition: NodeCondition,
    /// Last kubelet heartbeat time; the syncer broadcasts this to all
    /// vNodes.
    pub last_heartbeat: Timestamp,
    /// Node IP address.
    pub address: String,
    /// Kubelet version string.
    pub kubelet_version: String,
}

/// A complete Node object.
///
/// # Examples
///
/// ```
/// use vc_api::node::Node;
/// use vc_api::quantity::resource_list;
///
/// let node = Node::new("node-1", resource_list(&[("cpu", "96"), ("memory", "328Gi"), ("pods", "110")]));
/// assert!(node.is_ready());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Node {
    /// Standard metadata (cluster-scoped).
    pub meta: ObjectMeta,
    /// Desired state.
    pub spec: NodeSpec,
    /// Observed state, shared with the stored object until written (a
    /// vNode shares its super node's).
    pub status: Shared<NodeStatus>,
}

/// Annotation key marking a tenant-side node as a vNode mirror.
pub const VNODE_ANNOTATION: &str = "virtualcluster.io/vnode";
/// Annotation key carrying the super-cluster node name a vNode mirrors.
pub const VNODE_SOURCE_ANNOTATION: &str = "virtualcluster.io/vnode-source";

impl Node {
    /// Creates a ready node with the given capacity (allocatable = capacity).
    pub fn new(name: impl Into<String>, capacity: ResourceList) -> Self {
        Node {
            meta: ObjectMeta::cluster_scoped(name),
            spec: NodeSpec::default(),
            status: Shared::Owned(NodeStatus {
                allocatable: capacity.clone(),
                capacity,
                condition: NodeCondition::Ready,
                ..Default::default()
            }),
        }
    }

    /// Returns `true` if the node is schedulable and ready.
    pub fn is_ready(&self) -> bool {
        self.status.condition == NodeCondition::Ready && !self.spec.unschedulable
    }

    /// Returns `true` if this object is a vNode mirror in a tenant control
    /// plane.
    pub fn is_vnode(&self) -> bool {
        self.meta.annotations.contains_key(VNODE_ANNOTATION)
    }

    /// Marks this node as a vNode mirroring `source` (builder style).
    pub fn as_vnode_of(mut self, source: impl Into<String>) -> Self {
        self.meta.annotations.insert(VNODE_ANNOTATION.into(), "true".into());
        self.meta.annotations.insert(VNODE_SOURCE_ANNOTATION.into(), source.into());
        self
    }

    /// Returns the mirrored super-cluster node name for a vNode.
    pub fn vnode_source(&self) -> Option<&str> {
        self.meta.annotations.get(VNODE_SOURCE_ANNOTATION).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::resource_list;

    #[test]
    fn new_node_is_ready_with_allocatable() {
        let node = Node::new("n1", resource_list(&[("cpu", "4")]));
        assert!(node.is_ready());
        assert_eq!(node.status.allocatable, node.status.capacity);
    }

    #[test]
    fn unschedulable_or_notready_is_not_ready() {
        let mut node = Node::new("n1", resource_list(&[("cpu", "4")]));
        node.spec.unschedulable = true;
        assert!(!node.is_ready());
        node.spec.unschedulable = false;
        node.status.condition = NodeCondition::NotReady;
        assert!(!node.is_ready());
    }

    #[test]
    fn vnode_annotations() {
        let vnode = Node::new("n1", resource_list(&[("cpu", "4")])).as_vnode_of("super-n1");
        assert!(vnode.is_vnode());
        assert_eq!(vnode.vnode_source(), Some("super-n1"));
        let plain = Node::new("n2", resource_list(&[("cpu", "4")]));
        assert!(!plain.is_vnode());
        assert_eq!(plain.vnode_source(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let node = Node::new("n1", resource_list(&[("cpu", "96"), ("pods", "110")]));
        let json = serde_json::to_string(&node).unwrap();
        assert_eq!(node, serde_json::from_str::<Node>(&json).unwrap());
    }
}
