//! Tenant ↔ super-cluster object mapping.
//!
//! "In Kubernetes, any namespace scoped object's full name … has to be
//! unique. The syncer adds a prefix for each synchronized tenant namespace
//! to avoid name conflicts. The prefix is the concatenation of the owner
//! VC's object name and a short hash of the object's UID." (paper
//! §III-B(2)).

use vc_api::meta::{KeyBuf, Uid};
use vc_api::object::Object;
use vc_api::sha256::sha256_hex;

/// Annotation on super-cluster objects naming the owning VirtualCluster.
pub const CLUSTER_ANNOTATION: &str = "virtualcluster.io/cluster";
/// Annotation carrying the tenant-side namespace of a synced object.
pub const TENANT_NAMESPACE_ANNOTATION: &str = "virtualcluster.io/tenant-namespace";
/// Annotation carrying the tenant-side UID of a synced object (used to
/// detect delete-and-recreate races).
pub const TENANT_UID_ANNOTATION: &str = "virtualcluster.io/tenant-uid";

/// Computes the per-tenant namespace prefix: `<vc-name>-<uid-hash6>`.
pub fn namespace_prefix(vc_name: &str, vc_uid: &Uid) -> String {
    let hash = sha256_hex(vc_uid.as_str().as_bytes());
    format!("{vc_name}-{}", &hash[..6])
}

/// Maps a tenant namespace to its super-cluster namespace.
pub fn tenant_ns_to_super(prefix: &str, tenant_ns: &str) -> String {
    format!("{prefix}-{tenant_ns}")
}

/// Maps a super-cluster namespace back to the tenant namespace, if it
/// carries this tenant's prefix.
pub fn super_ns_to_tenant(prefix: &str, super_ns: &str) -> Option<String> {
    strip_prefix(prefix, super_ns).map(str::to_string)
}

/// [`super_ns_to_tenant`], borrowed from `super_ns`.
fn strip_prefix<'a>(prefix: &str, super_ns: &'a str) -> Option<&'a str> {
    super_ns.strip_prefix(prefix)?.strip_prefix('-')
}

/// Converts a tenant object into its super-cluster representation:
/// prefixed namespace, cleared server-managed identity, stripped owner
/// references (tenant-side owners do not exist in the super cluster) and
/// provenance annotations.
pub fn to_super(obj: &Object, vc_name: &str, prefix: &str) -> Object {
    let tenant_uid = obj.meta().uid.clone();
    let tenant_ns = obj.meta().namespace.clone();
    let mut converted = obj.clone();
    {
        let meta = converted.meta_mut();
        if !meta.namespace.is_empty() {
            meta.namespace = tenant_ns_to_super(prefix, &meta.namespace);
        } else if converted_is_namespace(obj) {
            // handled below (namespaces rename, not re-namespace)
        }
        meta.uid = Uid::default();
        meta.resource_version = 0;
        meta.generation = 0;
        meta.deletion_timestamp = None;
        meta.owner_references.clear();
        meta.finalizers.retain(|f| f != vc_apiserver::NAMESPACE_FINALIZER);
        meta.annotations.insert(CLUSTER_ANNOTATION.into(), vc_name.to_string());
        meta.annotations.insert(TENANT_UID_ANNOTATION.into(), tenant_uid.as_str().to_string());
        if !tenant_ns.is_empty() {
            meta.annotations.insert(TENANT_NAMESPACE_ANNOTATION.into(), tenant_ns);
        }
    }
    // Cluster-scoped namespaces are renamed with the prefix.
    if let Object::Namespace(ns) = &mut converted {
        ns.meta.annotations.insert(TENANT_NAMESPACE_ANNOTATION.into(), ns.meta.name.clone());
        ns.meta.name = tenant_ns_to_super(prefix, &ns.meta.name);
        ns.phase = vc_api::namespace::NamespacePhase::Active;
    }
    // Namespace references *inside* a pod spec — affinity-term namespace
    // lists and namespace-qualified (`ns/name`) secret/config-map/claim
    // refs — are tenant-side names too. Rewriting them into the tenant's
    // prefix domain keeps multi-namespace affinity working after the
    // rename and neutralizes forgery: a tenant that writes another
    // tenant's super namespace verbatim just gets it re-prefixed into its
    // own domain.
    if let Object::Pod(pod) = &mut converted {
        let affinity = &mut pod.spec.affinity;
        for term in affinity.pod_affinity.iter_mut().chain(affinity.pod_anti_affinity.iter_mut()) {
            for ns in &mut term.namespaces {
                *ns = tenant_ns_to_super(prefix, ns);
            }
        }
        for name in pod
            .spec
            .secret_names
            .iter_mut()
            .chain(&mut pod.spec.config_map_names)
            .chain(&mut pod.spec.volume_claim_names)
        {
            if let Some((ns, rest)) = name.split_once('/') {
                *name = format!("{}/{rest}", tenant_ns_to_super(prefix, ns));
            }
        }
    }
    converted
}

fn converted_is_namespace(obj: &Object) -> bool {
    matches!(obj, Object::Namespace(_))
}

/// Returns the owning VC name recorded on a super-cluster object, if any.
pub fn owner_cluster(obj: &Object) -> Option<&str> {
    obj.meta().annotations.get(CLUSTER_ANNOTATION).map(String::as_str)
}

/// Returns the tenant-side UID recorded on a super-cluster object.
pub fn tenant_uid(obj: &Object) -> Option<&str> {
    obj.meta().annotations.get(TENANT_UID_ANNOTATION).map(String::as_str)
}

/// Maps a super-cluster object key (`ns/name` or `name`) back to the
/// tenant-side key for this prefix. Returns `None` for keys outside the
/// prefix.
pub fn super_key_to_tenant(
    prefix: &str,
    kind: vc_api::ResourceKind,
    super_key: &str,
) -> Option<String> {
    tenant_key_buf(prefix, kind, super_key).map(|key| key.to_string())
}

/// [`super_key_to_tenant`] built on the stack: the lookup form, at no
/// allocation.
pub(crate) fn tenant_key_buf(
    prefix: &str,
    kind: vc_api::ResourceKind,
    super_key: &str,
) -> Option<KeyBuf> {
    if kind.is_cluster_scoped() {
        // Namespaces were renamed; other cluster-scoped kinds keep names.
        if kind == vc_api::ResourceKind::Namespace {
            return strip_prefix(prefix, super_key).map(|ns| KeyBuf::join(&[ns]));
        }
        return Some(KeyBuf::join(&[super_key]));
    }
    let (ns, name) = super_key.split_once('/')?;
    Some(KeyBuf::join(&[strip_prefix(prefix, ns)?, "/", name]))
}

/// The super-cluster key of the tenant-side `tenant_key` (the inverse of
/// [`tenant_key_buf`]), built on the stack.
pub(crate) fn super_key_buf(
    prefix: &str,
    kind: vc_api::ResourceKind,
    tenant_key: &str,
) -> Option<KeyBuf> {
    if kind.is_cluster_scoped() {
        if kind == vc_api::ResourceKind::Namespace {
            return Some(KeyBuf::join(&[prefix, "-", tenant_key]));
        }
        return Some(KeyBuf::join(&[tenant_key]));
    }
    let (ns, name) = tenant_key.split_once('/')?;
    Some(KeyBuf::join(&[prefix, "-", ns, "/", name]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::pod::Pod;
    use vc_api::ResourceKind;

    fn prefix() -> String {
        namespace_prefix("tenant-a", &Uid::from_string("uid-123"))
    }

    #[test]
    fn prefix_is_name_plus_short_hash() {
        let p = prefix();
        assert!(p.starts_with("tenant-a-"));
        assert_eq!(p.len(), "tenant-a-".len() + 6);
        // Deterministic.
        assert_eq!(p, namespace_prefix("tenant-a", &Uid::from_string("uid-123")));
        // Different UIDs give different prefixes (same VC name reused).
        assert_ne!(p, namespace_prefix("tenant-a", &Uid::from_string("uid-456")));
    }

    #[test]
    fn namespace_roundtrip() {
        let p = prefix();
        let sup = tenant_ns_to_super(&p, "default");
        assert_eq!(super_ns_to_tenant(&p, &sup), Some("default".to_string()));
        assert_eq!(super_ns_to_tenant(&p, "unrelated-ns"), None);
        assert_eq!(super_ns_to_tenant("other-prefix", &sup), None);
    }

    #[test]
    fn two_tenants_same_namespace_no_conflict() {
        let p1 = namespace_prefix("tenant-a", &Uid::from_string("u1"));
        let p2 = namespace_prefix("tenant-b", &Uid::from_string("u2"));
        assert_ne!(tenant_ns_to_super(&p1, "default"), tenant_ns_to_super(&p2, "default"));
    }

    #[test]
    fn to_super_converts_pod() {
        let p = prefix();
        let mut pod = Pod::new("default", "web-0");
        pod.meta.uid = Uid::from_string("pod-uid");
        pod.meta.resource_version = 42;
        pod.meta.owner_references.push(vc_api::meta::OwnerReference::controller_of(
            "ReplicaSet",
            "rs",
            Uid::from_string("rs-uid"),
        ));
        let converted = to_super(&pod.into(), "tenant-a", &p);
        let meta = converted.meta();
        assert_eq!(meta.namespace, format!("{p}-default"));
        assert_eq!(meta.name, "web-0");
        assert_eq!(meta.resource_version, 0);
        assert!(meta.uid.is_empty());
        assert!(meta.owner_references.is_empty(), "tenant owners stripped");
        assert_eq!(meta.annotations[CLUSTER_ANNOTATION], "tenant-a");
        assert_eq!(meta.annotations[TENANT_UID_ANNOTATION], "pod-uid");
        assert_eq!(meta.annotations[TENANT_NAMESPACE_ANNOTATION], "default");
    }

    #[test]
    fn to_super_renames_namespace() {
        let p = prefix();
        let ns = vc_api::namespace::Namespace::new("team");
        let converted = to_super(&ns.into(), "tenant-a", &p);
        assert_eq!(converted.meta().name, format!("{p}-team"));
        assert_eq!(converted.meta().annotations[TENANT_NAMESPACE_ANNOTATION], "team");
        assert_eq!(owner_cluster(&converted), Some("tenant-a"));
    }

    #[test]
    fn super_key_mapping() {
        let p = prefix();
        let super_key = format!("{p}-default/web-0");
        assert_eq!(
            super_key_to_tenant(&p, ResourceKind::Pod, &super_key),
            Some("default/web-0".to_string())
        );
        assert_eq!(super_key_to_tenant(&p, ResourceKind::Pod, "other/web-0"), None);
        // Namespace keys are renamed names.
        assert_eq!(
            super_key_to_tenant(&p, ResourceKind::Namespace, &format!("{p}-team")),
            Some("team".to_string())
        );
        // Other cluster-scoped kinds keep their names.
        assert_eq!(
            super_key_to_tenant(&p, ResourceKind::PersistentVolume, "pv-1"),
            Some("pv-1".to_string())
        );
    }

    #[test]
    fn tenant_uid_helper() {
        let p = prefix();
        let mut pod = Pod::new("default", "x");
        pod.meta.uid = Uid::from_string("u-9");
        let converted = to_super(&pod.into(), "t", &p);
        assert_eq!(tenant_uid(&converted), Some("u-9"));
        let plain: Object = Pod::new("ns", "y").into();
        assert_eq!(tenant_uid(&plain), None);
        assert_eq!(owner_cluster(&plain), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vc_api::pod::Pod;
    use vc_api::ResourceKind;

    fn dns_name() -> impl Strategy<Value = String> {
        "[a-z0-9]([a-z0-9-]{0,15}[a-z0-9])?"
    }

    proptest! {
        /// Namespace mapping is a bijection for any valid names: mapping a
        /// tenant namespace into the super cluster and back is the
        /// identity, and foreign prefixes never reverse-map.
        #[test]
        fn prop_namespace_mapping_roundtrip(
            vc in dns_name(),
            uid in "[a-f0-9]{8,32}",
            ns in dns_name(),
        ) {
            let prefix = namespace_prefix(&vc, &Uid::from_string(uid));
            let super_ns = tenant_ns_to_super(&prefix, &ns);
            prop_assert_eq!(super_ns_to_tenant(&prefix, &super_ns), Some(ns.clone()));
            // A different VC's prefix cannot claim this namespace.
            let other = namespace_prefix(&format!("{vc}x"), &Uid::from_string("other-uid"));
            prop_assert_ne!(tenant_ns_to_super(&other, &ns), super_ns);
        }

        /// Super-key mapping inverts the namespaced key construction.
        #[test]
        fn prop_pod_key_roundtrip(
            vc in dns_name(),
            ns in dns_name(),
            name in dns_name(),
        ) {
            let prefix = namespace_prefix(&vc, &Uid::from_string("uid"));
            let super_key = format!("{}/{}", tenant_ns_to_super(&prefix, &ns), name);
            prop_assert_eq!(
                super_key_to_tenant(&prefix, ResourceKind::Pod, &super_key),
                Some(format!("{ns}/{name}"))
            );
        }

        /// Conversion always strips server identity and records
        /// provenance, for arbitrary label sets.
        #[test]
        fn prop_to_super_invariants(
            ns in dns_name(),
            name in dns_name(),
            labels in proptest::collection::btree_map("[a-z]{1,8}", "[a-z0-9]{0,8}", 0..5),
        ) {
            let mut pod = Pod::new(ns, name);
            pod.meta.labels = labels.clone();
            pod.meta.uid = Uid::from_string("tenant-uid-x");
            pod.meta.resource_version = 99;
            let converted = to_super(&pod.clone().into(), "vc", "vc-abcdef");
            let meta = converted.meta();
            prop_assert_eq!(meta.resource_version, 0);
            prop_assert!(meta.uid.is_empty());
            prop_assert_eq!(meta.annotations.get(CLUSTER_ANNOTATION).map(String::as_str), Some("vc"));
            prop_assert_eq!(meta.annotations.get(TENANT_UID_ANNOTATION).map(String::as_str), Some("tenant-uid-x"));
            // User labels survive untouched.
            prop_assert_eq!(&meta.labels, &labels);
            // Converting twice is deterministic.
            prop_assert_eq!(to_super(&pod.into(), "vc", "vc-abcdef"), converted);
        }
    }
}
