//! The dynamic object layer: [`ResourceKind`] and the [`Object`] enum.
//!
//! The store, apiserver, informers and the syncer's per-resource reconcilers
//! are all generic over object kinds; [`Object`] is the uniform
//! representation they exchange, with typed accessors for the concrete
//! kinds.

use crate::config::{ConfigMap, Secret, ServiceAccount};
use crate::crd::{CustomObject, CustomResourceDefinition};
use crate::event::Event;
use crate::meta::ObjectMeta;
use crate::namespace::Namespace;
use crate::node::Node;
use crate::pod::Pod;
use crate::service::{Endpoints, Service};
use crate::storage::{PersistentVolume, PersistentVolumeClaim, StorageClass};
use crate::workload::{Deployment, ReplicaSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Enumeration of every resource kind the apiserver can store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Namespaces (cluster-scoped).
    Namespace,
    /// Pods.
    Pod,
    /// Nodes (cluster-scoped).
    Node,
    /// Services.
    Service,
    /// Endpoints.
    Endpoints,
    /// Secrets.
    Secret,
    /// ConfigMaps.
    ConfigMap,
    /// ServiceAccounts.
    ServiceAccount,
    /// Events.
    Event,
    /// PersistentVolumeClaims.
    PersistentVolumeClaim,
    /// PersistentVolumes (cluster-scoped).
    PersistentVolume,
    /// StorageClasses (cluster-scoped).
    StorageClass,
    /// ReplicaSets.
    ReplicaSet,
    /// Deployments.
    Deployment,
    /// CustomResourceDefinitions (cluster-scoped).
    CustomResourceDefinition,
    /// Instances of custom resources.
    CustomObject,
}

impl ResourceKind {
    /// All kinds, in a stable order.
    pub const ALL: [ResourceKind; 16] = [
        ResourceKind::Namespace,
        ResourceKind::Pod,
        ResourceKind::Node,
        ResourceKind::Service,
        ResourceKind::Endpoints,
        ResourceKind::Secret,
        ResourceKind::ConfigMap,
        ResourceKind::ServiceAccount,
        ResourceKind::Event,
        ResourceKind::PersistentVolumeClaim,
        ResourceKind::PersistentVolume,
        ResourceKind::StorageClass,
        ResourceKind::ReplicaSet,
        ResourceKind::Deployment,
        ResourceKind::CustomResourceDefinition,
        ResourceKind::CustomObject,
    ];

    /// Returns `true` for kinds that do not live inside a namespace.
    pub fn is_cluster_scoped(self) -> bool {
        matches!(
            self,
            ResourceKind::Namespace
                | ResourceKind::Node
                | ResourceKind::PersistentVolume
                | ResourceKind::StorageClass
                | ResourceKind::CustomResourceDefinition
        )
    }

    /// Returns the kind name as used in API paths and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            ResourceKind::Namespace => "Namespace",
            ResourceKind::Pod => "Pod",
            ResourceKind::Node => "Node",
            ResourceKind::Service => "Service",
            ResourceKind::Endpoints => "Endpoints",
            ResourceKind::Secret => "Secret",
            ResourceKind::ConfigMap => "ConfigMap",
            ResourceKind::ServiceAccount => "ServiceAccount",
            ResourceKind::Event => "Event",
            ResourceKind::PersistentVolumeClaim => "PersistentVolumeClaim",
            ResourceKind::PersistentVolume => "PersistentVolume",
            ResourceKind::StorageClass => "StorageClass",
            ResourceKind::ReplicaSet => "ReplicaSet",
            ResourceKind::Deployment => "Deployment",
            ResourceKind::CustomResourceDefinition => "CustomResourceDefinition",
            ResourceKind::CustomObject => "CustomObject",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A dynamically-typed API object.
///
/// # Examples
///
/// ```
/// use vc_api::object::{Object, ResourceKind};
/// use vc_api::pod::Pod;
///
/// let obj: Object = Pod::new("default", "web-0").into();
/// assert_eq!(obj.kind(), ResourceKind::Pod);
/// assert_eq!(obj.key(), "default/web-0");
/// let pod = obj.as_pod().unwrap();
/// assert_eq!(pod.meta.name, "web-0");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Object {
    /// A Namespace.
    Namespace(Namespace),
    /// A Pod.
    Pod(Pod),
    /// A Node.
    Node(Node),
    /// A Service.
    Service(Service),
    /// An Endpoints.
    Endpoints(Endpoints),
    /// A Secret.
    Secret(Secret),
    /// A ConfigMap.
    ConfigMap(ConfigMap),
    /// A ServiceAccount.
    ServiceAccount(ServiceAccount),
    /// An Event.
    Event(Event),
    /// A PersistentVolumeClaim.
    PersistentVolumeClaim(PersistentVolumeClaim),
    /// A PersistentVolume.
    PersistentVolume(PersistentVolume),
    /// A StorageClass.
    StorageClass(StorageClass),
    /// A ReplicaSet.
    ReplicaSet(ReplicaSet),
    /// A Deployment.
    Deployment(Deployment),
    /// A CustomResourceDefinition.
    CustomResourceDefinition(CustomResourceDefinition),
    /// A custom resource instance.
    CustomObject(CustomObject),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            Object::Namespace($inner) => $body,
            Object::Pod($inner) => $body,
            Object::Node($inner) => $body,
            Object::Service($inner) => $body,
            Object::Endpoints($inner) => $body,
            Object::Secret($inner) => $body,
            Object::ConfigMap($inner) => $body,
            Object::ServiceAccount($inner) => $body,
            Object::Event($inner) => $body,
            Object::PersistentVolumeClaim($inner) => $body,
            Object::PersistentVolume($inner) => $body,
            Object::StorageClass($inner) => $body,
            Object::ReplicaSet($inner) => $body,
            Object::Deployment($inner) => $body,
            Object::CustomResourceDefinition($inner) => $body,
            Object::CustomObject($inner) => $body,
        }
    };
}

impl Object {
    /// Returns the object's kind.
    pub fn kind(&self) -> ResourceKind {
        match self {
            Object::Namespace(_) => ResourceKind::Namespace,
            Object::Pod(_) => ResourceKind::Pod,
            Object::Node(_) => ResourceKind::Node,
            Object::Service(_) => ResourceKind::Service,
            Object::Endpoints(_) => ResourceKind::Endpoints,
            Object::Secret(_) => ResourceKind::Secret,
            Object::ConfigMap(_) => ResourceKind::ConfigMap,
            Object::ServiceAccount(_) => ResourceKind::ServiceAccount,
            Object::Event(_) => ResourceKind::Event,
            Object::PersistentVolumeClaim(_) => ResourceKind::PersistentVolumeClaim,
            Object::PersistentVolume(_) => ResourceKind::PersistentVolume,
            Object::StorageClass(_) => ResourceKind::StorageClass,
            Object::ReplicaSet(_) => ResourceKind::ReplicaSet,
            Object::Deployment(_) => ResourceKind::Deployment,
            Object::CustomResourceDefinition(_) => ResourceKind::CustomResourceDefinition,
            Object::CustomObject(_) => ResourceKind::CustomObject,
        }
    }

    /// Returns the shared metadata.
    pub fn meta(&self) -> &ObjectMeta {
        dispatch!(self, o => &o.meta)
    }

    /// Returns the shared metadata mutably.
    pub fn meta_mut(&mut self) -> &mut ObjectMeta {
        dispatch!(self, o => &mut o.meta)
    }

    /// Freezes the parts a write may leave unchanged (every kind's
    /// annotations, a pod's spec and status, a node's status) behind
    /// `Arc`s, so that copies of this object share them (see
    /// [`crate::shared`]), and empties its [`Encodings`] slots: an owned
    /// object taken out of a uniquely held `Arc` keeps the encodings of
    /// the state it was read at. The store calls this once per stored
    /// object, where it assigns the revision, just before it shares the
    /// object itself.
    ///
    /// [`Encodings`]: crate::meta::Encodings
    pub fn freeze(&mut self) {
        match self {
            Object::Pod(pod) => {
                pod.spec.freeze();
                pod.status.freeze();
            }
            Object::Node(node) => node.status.freeze(),
            _ => {}
        }
        let meta = self.meta_mut();
        meta.annotations.freeze();
        meta.encodings.clear();
    }

    /// Returns `namespace/name` (or `name` for cluster-scoped kinds).
    pub fn key(&self) -> String {
        self.meta().full_name()
    }

    /// Returns a clone stripped of server-managed fields (resource version,
    /// uid, creation timestamp) and of status, suitable for "did the user
    /// intent change?" comparisons in the syncer.
    pub fn desired_state(&self) -> Object {
        let mut copy = self.clone();
        {
            let meta = copy.meta_mut();
            meta.resource_version = 0;
            meta.uid = crate::meta::Uid::default();
            meta.creation_timestamp = crate::time::Timestamp::ZERO;
            meta.generation = 0;
        }
        match &mut copy {
            Object::Pod(p) => p.status = Default::default(),
            Object::Service(s) => s.status = Default::default(),
            Object::ReplicaSet(rs) => rs.status = Default::default(),
            Object::Deployment(d) => d.status = Default::default(),
            Object::Node(n) => n.status = Default::default(),
            _ => {}
        }
        copy
    }

    /// Returns `true` if `other` carries the same desired state (spec and
    /// user-controlled metadata), ignoring status and server-managed fields.
    pub fn same_desired_state(&self, other: &Object) -> bool {
        // Pods are compared in place: the syncer asks this on every pod
        // event and every no-op reconcile, and two deep copies of a pod to
        // answer "did only the status change?" cost more than the answer.
        if let (Object::Pod(a), Object::Pod(b)) = (self, other) {
            let crate::pod::Pod { meta: _, spec, status: _ } = a;
            return *spec == b.spec && a.meta.same_desired_state(&b.meta);
        }
        self.desired_state() == other.desired_state()
    }

    /// The exact length in bytes of this object's JSON text (used for the
    /// Fig 10 informer-cache memory accounting and the admission size cap).
    /// Counted by walking the fields; nothing is serialized or allocated.
    pub fn estimated_size(&self) -> usize {
        serde::json_len(self)
    }

    /// Returns the inner pod, if this is a Pod.
    pub fn as_pod(&self) -> Option<&Pod> {
        if let Object::Pod(p) = self {
            Some(p)
        } else {
            None
        }
    }

    /// Returns the inner pod mutably, if this is a Pod.
    pub fn as_pod_mut(&mut self) -> Option<&mut Pod> {
        if let Object::Pod(p) = self {
            Some(p)
        } else {
            None
        }
    }

    /// Returns the inner node, if this is a Node.
    pub fn as_node(&self) -> Option<&Node> {
        if let Object::Node(n) = self {
            Some(n)
        } else {
            None
        }
    }

    /// Returns the inner service, if this is a Service.
    pub fn as_service(&self) -> Option<&Service> {
        if let Object::Service(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// Returns the inner endpoints, if this is an Endpoints.
    pub fn as_endpoints(&self) -> Option<&Endpoints> {
        if let Object::Endpoints(e) = self {
            Some(e)
        } else {
            None
        }
    }

    /// Returns the inner namespace, if this is a Namespace.
    pub fn as_namespace(&self) -> Option<&Namespace> {
        if let Object::Namespace(n) = self {
            Some(n)
        } else {
            None
        }
    }
}

macro_rules! object_from {
    ($($variant:ident => $ty:ty),+ $(,)?) => {
        $(
            impl From<$ty> for Object {
                fn from(value: $ty) -> Object {
                    Object::$variant(value)
                }
            }

            impl TryFrom<Object> for $ty {
                type Error = crate::error::ApiError;

                fn try_from(obj: Object) -> Result<$ty, Self::Error> {
                    match obj {
                        Object::$variant(inner) => Ok(inner),
                        other => Err(crate::error::ApiError::internal(format!(
                            "expected {} got {}",
                            stringify!($variant),
                            other.kind()
                        ))),
                    }
                }
            }

            impl TryFrom<std::sync::Arc<Object>> for $ty {
                type Error = crate::error::ApiError;

                /// Converts a shared object into an owned typed value. This is
                /// the sanctioned mutation-site copy of the zero-copy read
                /// path: reads stay on the `Arc`, and the clone happens here,
                /// once, only when a caller needs an owned value to mutate
                /// (free when the `Arc` is uniquely held).
                fn try_from(obj: std::sync::Arc<Object>) -> Result<$ty, Self::Error> {
                    match std::sync::Arc::try_unwrap(obj) {
                        Ok(owned) => owned.try_into(),
                        Err(shared) => match &*shared {
                            Object::$variant(inner) => Ok(inner.clone()),
                            other => Err(crate::error::ApiError::internal(format!(
                                "expected {} got {}",
                                stringify!($variant),
                                other.kind()
                            ))),
                        },
                    }
                }
            }
        )+
    };
}

object_from! {
    Namespace => Namespace,
    Pod => Pod,
    Node => Node,
    Service => Service,
    Endpoints => Endpoints,
    Secret => Secret,
    ConfigMap => ConfigMap,
    ServiceAccount => ServiceAccount,
    Event => Event,
    PersistentVolumeClaim => PersistentVolumeClaim,
    PersistentVolume => PersistentVolume,
    StorageClass => StorageClass,
    ReplicaSet => ReplicaSet,
    Deployment => Deployment,
    CustomResourceDefinition => CustomResourceDefinition,
    CustomObject => CustomObject,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::Container;
    use crate::quantity::resource_list;

    #[test]
    fn kind_and_key() {
        let obj: Object = Pod::new("ns", "p").into();
        assert_eq!(obj.kind(), ResourceKind::Pod);
        assert_eq!(obj.key(), "ns/p");
        let obj: Object = Node::new("n1", resource_list(&[("cpu", "1")])).into();
        assert_eq!(obj.key(), "n1");
        assert!(obj.kind().is_cluster_scoped());
    }

    #[test]
    fn cluster_scoped_classification() {
        assert!(ResourceKind::Namespace.is_cluster_scoped());
        assert!(ResourceKind::PersistentVolume.is_cluster_scoped());
        assert!(!ResourceKind::Pod.is_cluster_scoped());
        assert!(!ResourceKind::Endpoints.is_cluster_scoped());
    }

    #[test]
    fn all_kinds_have_unique_names() {
        let mut names: Vec<&str> = ResourceKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ResourceKind::ALL.len());
    }

    #[test]
    fn typed_conversion_roundtrip() {
        let pod = Pod::new("ns", "p");
        let obj: Object = pod.clone().into();
        let back: Pod = obj.try_into().unwrap();
        assert_eq!(pod, back);
    }

    #[test]
    fn typed_conversion_from_shared_arc() {
        let pod = Pod::new("ns", "p");
        let obj = std::sync::Arc::new(Object::from(pod.clone()));
        let alias = obj.clone();
        let back: Pod = obj.try_into().unwrap();
        assert_eq!(pod, back);
        // The alias is untouched by the conversion.
        assert_eq!(alias.key(), "ns/p");
        let res: Result<Node, _> = alias.try_into();
        assert!(res.is_err());
    }

    #[test]
    fn typed_conversion_wrong_kind_errors() {
        let obj: Object = Namespace::new("ns").into();
        let res: Result<Pod, _> = obj.try_into();
        assert!(res.is_err());
    }

    #[test]
    fn desired_state_ignores_status_and_server_fields() {
        let mut a = Pod::new("ns", "p").with_container(Container::new("c", "img"));
        let mut b = a.clone();
        a.meta.resource_version = 5;
        a.meta.uid = crate::meta::Uid::generate();
        a.status.phase = crate::pod::PodPhase::Running;
        b.meta.resource_version = 9;
        let (a, b): (Object, Object) = (a.into(), b.into());
        assert!(a.same_desired_state(&b));

        // A spec change is detected.
        let mut c: Pod = b.clone().try_into().unwrap();
        c.spec.node_name = "node-1".into();
        let c: Object = c.into();
        assert!(!b.same_desired_state(&c));
    }

    #[test]
    fn in_place_pod_comparison_agrees_with_the_cloning_definition() {
        let base = Pod::new("ns", "p").with_container(Container::new("c", "img"));
        type Edit = fn(&mut Pod);
        let edits: Vec<(&str, Edit)> = vec![
            ("nothing", |_| {}),
            ("status", |p| p.status.phase = crate::pod::PodPhase::Running),
            ("resource_version", |p| p.meta.resource_version = 7),
            ("generation", |p| p.meta.generation = 3),
            ("uid", |p| p.meta.uid = crate::meta::Uid::generate()),
            ("creation", |p| p.meta.creation_timestamp = crate::time::Timestamp::from_millis(5)),
            ("name", |p| p.meta.name = "q".into()),
            ("namespace", |p| p.meta.namespace = "other".into()),
            ("label", |p| drop(p.meta.labels.insert("a".into(), "b".into()))),
            ("annotation", |p| drop(p.meta.annotations.insert("a".into(), "b".into()))),
            ("finalizer", |p| p.meta.finalizers.push("f".into())),
            ("owner", |p| {
                let owner = crate::meta::OwnerReference::controller_of(
                    "ReplicaSet",
                    "rs",
                    crate::meta::Uid::generate(),
                );
                p.meta.owner_references.push(owner);
            }),
            ("deletion", |p| p.meta.deletion_timestamp = Some(crate::time::Timestamp::ZERO)),
            ("spec", |p| p.spec.node_name = "n1".into()),
        ];
        let original: Object = base.clone().into();
        for (what, edit) in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            let edited: Object = edited.into();
            assert_eq!(
                original.same_desired_state(&edited),
                original.desired_state() == edited.desired_state(),
                "{what}"
            );
        }
    }

    #[test]
    fn estimated_size_positive_and_monotonic() {
        let small: Object = Pod::new("ns", "p").into();
        let big: Object = Pod::new("ns", "p")
            .with_container(Container::new("c", "registry.example.com/some/long/image:v1.2.3"))
            .into();
        assert!(small.estimated_size() > 0);
        assert!(big.estimated_size() > small.estimated_size());
    }

    #[test]
    fn as_accessors() {
        let mut obj: Object = Pod::new("ns", "p").into();
        assert!(obj.as_pod().is_some());
        assert!(obj.as_node().is_none());
        obj.as_pod_mut().unwrap().spec.node_name = "n1".into();
        assert_eq!(obj.as_pod().unwrap().spec.node_name, "n1");
    }
}
