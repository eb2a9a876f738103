//! Tenant ↔ super-cluster object mapping.
//!
//! "In Kubernetes, any namespace scoped object's full name … has to be
//! unique. The syncer adds a prefix for each synchronized tenant namespace
//! to avoid name conflicts. The prefix is the concatenation of the owner
//! VC's object name and a short hash of the object's UID." (paper
//! §III-B(2)).

use std::collections::BTreeMap;
use vc_api::meta::{KeyBuf, ObjectMeta, Uid};
use vc_api::object::Object;
use vc_api::pod::{Affinity, PodAffinityTerm, PodSpec};
use vc_api::service::ServiceSpec;
use vc_api::sha256::sha256_hex;
use vc_api::storage::PersistentVolumeClaim;

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
    // own domain. The spec is borrowed mutably (un-shared from the tenant
    // object) only when it holds such a reference; most pods hold none.
    if let Object::Pod(pod) = &mut converted {
        if has_namespace_refs(&pod.spec) {
            let spec = &mut *pod.spec;
            let affinity = &mut spec.affinity;
            for term in affinity.pod_affinity.iter_mut().chain(&mut affinity.pod_anti_affinity) {
                for ns in &mut term.namespaces {
                    *ns = tenant_ns_to_super(prefix, ns);
                }
            }
            for name in spec
                .secret_names
                .iter_mut()
                .chain(&mut spec.config_map_names)
                .chain(&mut spec.volume_claim_names)
            {
                if let Some((ns, rest)) = name.split_once('/') {
                    *name = format!("{}/{rest}", tenant_ns_to_super(prefix, ns));
                }
            }
        }
    }
    converted
}

/// Whether [`to_super`] rewrites anything in `spec`: an affinity term that
/// names namespaces, or an `ns/name` reference.
fn has_namespace_refs(spec: &PodSpec) -> bool {
    let affinity = &spec.affinity;
    affinity
        .pod_affinity
        .iter()
        .chain(&affinity.pod_anti_affinity)
        .any(|t| !t.namespaces.is_empty())
        || spec
            .secret_names
            .iter()
            .chain(&spec.config_map_names)
            .chain(&spec.volume_claim_names)
            .any(|name| name.contains('/'))
}

/// Whether `existing` already is the super copy of `tenant_obj`: exactly
/// what `downward::equivalent(&to_super(tenant_obj, vc_name, prefix),
/// existing)` answers, read through the mapping rules in place instead of
/// from a built copy. Most downward reconciles find the super copy right,
/// so [`to_super`] runs only where a super object is written.
///
/// Pods, services, namespaces and claims are compared field by field (the
/// destructuring makes a new field a compile error here). Every other kind
/// is compared as a whole desired state through the copy: none of them is
/// on a workload's per-op path.
pub fn matches_super(tenant_obj: &Object, existing: &Object, vc_name: &str, prefix: &str) -> bool {
    let meta = |t: &ObjectMeta, e: &ObjectMeta| meta_matches(t, e, vc_name, prefix, false);
    match (tenant_obj, existing) {
        (Object::Pod(t), Object::Pod(e)) => {
            // `node_name` (the binding) and the status are the super
            // cluster's.
            let PodSpec {
                init_containers,
                containers,
                node_name: _,
                node_selector,
                affinity,
                tolerations,
                service_account_name,
                runtime_class,
                secret_names,
                config_map_names,
                volume_claim_names,
                host_paths,
                host_network,
                host_pid,
            } = &*t.spec;
            let s = &e.spec;
            meta(&t.meta, &e.meta)
                && *init_containers == s.init_containers
                && *containers == s.containers
                && *node_selector == s.node_selector
                && affinity_matches(prefix, affinity, &s.affinity)
                && *tolerations == s.tolerations
                && *service_account_name == s.service_account_name
                && *runtime_class == s.runtime_class
                && refs_match(prefix, secret_names, &s.secret_names)
                && refs_match(prefix, config_map_names, &s.config_map_names)
                && refs_match(prefix, volume_claim_names, &s.volume_claim_names)
                && *host_paths == s.host_paths
                && *host_network == s.host_network
                && *host_pid == s.host_pid
        }
        (Object::Service(t), Object::Service(e)) => {
            // The status is the super cluster's, and so is the cluster IP
            // unless the tenant asked for one.
            let ServiceSpec { service_type, selector, cluster_ip, ports } = &t.spec;
            meta(&t.meta, &e.meta)
                && *service_type == e.spec.service_type
                && *selector == e.spec.selector
                && (cluster_ip.is_empty() || *cluster_ip == e.spec.cluster_ip)
                && *ports == e.spec.ports
        }
        // Renamed into the prefix; finalizers and phase are the super
        // cluster's.
        (Object::Namespace(t), Object::Namespace(e)) => {
            meta_matches(&t.meta, &e.meta, vc_name, prefix, true)
        }
        (Object::PersistentVolumeClaim(t), Object::PersistentVolumeClaim(e)) => {
            // Claim binding is the super cluster's volume binder's.
            let PersistentVolumeClaim {
                meta: t_meta,
                requested,
                access_mode,
                storage_class,
                phase: _,
                volume_name: _,
            } = t;
            meta(t_meta, &e.meta)
                && *requested == e.requested
                && *access_mode == e.access_mode
                && *storage_class == e.storage_class
        }
        _ => crate::syncer::downward::equivalent(&to_super(tenant_obj, vc_name, prefix), existing),
    }
}

/// Whether `super_name` is `tenant_name` mapped into `prefix`
/// (`<prefix>-<tenant_name>`).
fn is_mapped(prefix: &str, tenant_name: &str, super_name: &str) -> bool {
    strip_prefix(prefix, super_name) == Some(tenant_name)
}

/// [`matches_super`] for the metadata: `e` against what [`to_super`] makes
/// of `t`. A namespace (`renamed`) gets a prefixed name and keeps the super
/// cluster's finalizers.
fn meta_matches(
    t: &ObjectMeta,
    e: &ObjectMeta,
    vc_name: &str,
    prefix: &str,
    renamed: bool,
) -> bool {
    // The server-managed identity, the deletion timestamp and the owner
    // references are cleared by the mapping.
    let ObjectMeta {
        name,
        namespace,
        uid,
        resource_version: _,
        generation: _,
        creation_timestamp: _,
        deletion_timestamp: _,
        labels,
        annotations,
        owner_references: _,
        finalizers,
        encodings: _,
    } = t;
    let tenant_namespace =
        if renamed { Some(name) } else { (!namespace.is_empty()).then_some(namespace) };
    let provenance = [
        (CLUSTER_ANNOTATION, Some(vc_name)),
        (TENANT_UID_ANNOTATION, Some(uid.as_str())),
        (TENANT_NAMESPACE_ANNOTATION, tenant_namespace.map(String::as_str)),
    ];
    (if renamed { is_mapped(prefix, name, &e.name) } else { *name == e.name })
        && (if namespace.is_empty() {
            e.namespace.is_empty()
        } else {
            is_mapped(prefix, namespace, &e.namespace)
        })
        && e.deletion_timestamp.is_none()
        && e.owner_references.is_empty()
        && *labels == e.labels
        && (renamed
            || finalizers
                .iter()
                .filter(|f| *f != vc_apiserver::NAMESPACE_FINALIZER)
                .eq(&e.finalizers))
        && annotations_match(annotations, &provenance, &e.annotations)
}

/// Whether `existing` equals `tenant` with each `Some` value of
/// `provenance` set over its key (a tenant-set value under that key is
/// overwritten, as [`to_super`] does).
fn annotations_match(
    tenant: &BTreeMap<String, String>,
    provenance: &[(&str, Option<&str>)],
    existing: &BTreeMap<String, String>,
) -> bool {
    let set = || provenance.iter().filter_map(|&(key, value)| Some((key, value?)));
    let added = set().filter(|(key, _)| !tenant.contains_key(*key)).count();
    // Same size, and every existing entry is one of the mapped ones.
    existing.len() == tenant.len() + added
        && existing.iter().all(|(key, value)| match set().find(|(k, _)| k == key) {
            Some((_, mapped)) => mapped == value,
            None => tenant.get(key) == Some(value),
        })
}

/// The affinity terms of `t` with their namespaces mapped, against `e`.
fn affinity_matches(prefix: &str, t: &Affinity, e: &Affinity) -> bool {
    let terms = |t: &[PodAffinityTerm], e: &[PodAffinityTerm]| {
        t.len() == e.len()
            && t.iter().zip(e).all(|(t, e)| {
                let PodAffinityTerm { selector, namespaces } = t;
                *selector == e.selector
                    && namespaces.len() == e.namespaces.len()
                    && namespaces.iter().zip(&e.namespaces).all(|(t, s)| is_mapped(prefix, t, s))
            })
    };
    let Affinity { pod_affinity, pod_anti_affinity } = t;
    terms(pod_affinity, &e.pod_affinity) && terms(pod_anti_affinity, &e.pod_anti_affinity)
}

/// Secret, config-map or claim references of `t`, the `ns/name` ones with
/// their namespace mapped, against `e`.
fn refs_match(prefix: &str, t: &[String], e: &[String]) -> bool {
    t.len() == e.len()
        && t.iter().zip(e).all(|(t, e)| match t.split_once('/') {
            Some((ns, rest)) => strip_prefix(prefix, e)
                .and_then(|e| e.strip_prefix(ns))
                .and_then(|e| e.strip_prefix('/'))
                .is_some_and(|e| e == rest),
            None => t == e,
        })
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
    use crate::syncer::downward::equivalent;
    use proptest::prelude::*;
    use vc_api::labels::Selector;
    use vc_api::meta::OwnerReference;
    use vc_api::namespace::{Namespace, NamespacePhase};
    use vc_api::pod::{Container, Pod, PodPhase};
    use vc_api::service::Service;
    use vc_api::time::Timestamp;
    use vc_api::ResourceKind;

    fn dns_name() -> impl Strategy<Value = String> {
        "[a-z0-9]([a-z0-9-]{0,15}[a-z0-9])?"
    }

    /// A tenant pod, namespace or service over every input the mapping
    /// rewrites or `equivalent` leaves out: tenant-set provenance
    /// annotations, plain and `ns/name` references, affinity namespaces,
    /// the namespace finalizer, owner references and a deletion timestamp.
    /// Names come from a two-letter alphabet so that tenant values collide
    /// with mapped ones.
    struct TenantObject;

    const VC: &str = "vc";
    const PREFIX: &str = "vc-abcdef";

    impl Strategy for TenantObject {
        type Value = Object;

        fn sample(&self, rng: &mut TestRng) -> Object {
            let short = "[ab]{1,2}";
            let namespace = prop_oneof![Just(String::new()), short.prop_map(|s| s)].sample(rng);
            let mut meta = ObjectMeta::namespaced(namespace, short.sample(rng));
            meta.uid = Uid::from_string(short.sample(rng));
            meta.resource_version = (0u64..3).sample(rng);
            meta.labels = collection::btree_map("[ab]", "[ab]?", 0..3).sample(rng);
            let annotation_key = prop_oneof![
                Just(CLUSTER_ANNOTATION.to_string()),
                Just(TENANT_UID_ANNOTATION.to_string()),
                Just(TENANT_NAMESPACE_ANNOTATION.to_string()),
                Just("virtualcluster.io/other".to_string()),
                "[ab]",
            ];
            let annotation_value = prop_oneof![Just(VC.to_string()), "[ab]{0,2}"];
            meta.annotations =
                collection::btree_map(annotation_key, annotation_value, 0..4).sample(rng).into();
            let finalizer = prop_oneof![
                Just(vc_apiserver::NAMESPACE_FINALIZER.to_string()),
                Just("example.io/keep".to_string()),
            ];
            meta.finalizers = collection::vec(finalizer, 0..3).sample(rng);
            for _ in 0..(0usize..2).sample(rng) {
                meta.owner_references.push(OwnerReference::controller_of(
                    "ReplicaSet",
                    "rs",
                    Uid::from_string("rs-uid"),
                ));
            }
            if bool::ANY.sample(rng) {
                meta.deletion_timestamp = Some(Timestamp::from_millis(5));
            }
            match (0u8..3).sample(rng) {
                0 => {
                    let mut pod = Pod::new("", "").with_container(Container::new("c", "nginx"));
                    pod.meta = meta;
                    let reference = prop_oneof!["[ab]{1,2}", "[ab]{1,2}/[ab]{1,2}", "a/b/a"];
                    pod.spec.secret_names = collection::vec(reference, 0..3).sample(rng);
                    let reference = prop_oneof!["[ab]{1,2}", "[ab]{1,2}/[ab]{1,2}"];
                    pod.spec.config_map_names = collection::vec(reference, 0..3).sample(rng);
                    let reference = prop_oneof!["[ab]{1,2}", "[ab]/[ab]"];
                    pod.spec.volume_claim_names = collection::vec(reference, 0..2).sample(rng);
                    let terms =
                        collection::vec(collection::vec(short, 0..3), 0..2).prop_map(|terms| {
                            let term = |namespaces| PodAffinityTerm {
                                selector: Selector::everything(),
                                namespaces,
                            };
                            terms.into_iter().map(term).collect::<Vec<_>>()
                        });
                    pod.spec.affinity.pod_affinity = terms.sample(rng);
                    pod.spec.affinity.pod_anti_affinity = terms.sample(rng);
                    pod.spec.host_network = bool::ANY.sample(rng);
                    pod.into()
                }
                1 => {
                    let mut ns = Namespace::new("");
                    ns.meta = meta;
                    ns.into()
                }
                _ => {
                    let mut service = Service::new("", "");
                    service.meta = meta;
                    service.spec.cluster_ip =
                        prop_oneof![Just(String::new()), Just("10.0.0.1".to_string())].sample(rng);
                    service.spec.selector = collection::btree_map("[ab]", "[ab]", 0..2).sample(rng);
                    service.into()
                }
            }
        }
    }

    /// Number of [`perturb`] cases.
    const PERTURBATIONS: usize = 23;

    /// Changes one field of `e`, a super copy of `t`: a mapped one, one the
    /// super cluster owns, one the tenant owns, or (case 0) none.
    fn perturb(e: &mut Object, t: &Object, which: usize) {
        let meta = e.meta_mut();
        match which {
            1 => meta.namespace.push('a'),
            2 => meta.name.push('a'),
            3 => drop(meta.annotations.insert(CLUSTER_ANNOTATION.into(), "other".into())),
            4 => drop(meta.annotations.remove(TENANT_UID_ANNOTATION)),
            5 => drop(meta.annotations.insert(TENANT_NAMESPACE_ANNOTATION.into(), "a".into())),
            6 => drop(meta.annotations.insert("a".into(), "z".into())),
            7 => drop(meta.annotations.pop_last()),
            8 => drop(meta.labels.insert("a".into(), "z".into())),
            9 => meta.finalizers.push(vc_apiserver::NAMESPACE_FINALIZER.into()),
            10 => meta.finalizers.clear(),
            11 => {
                meta.owner_references.push(OwnerReference::controller_of("X", "x", Uid::generate()))
            }
            12 => meta.deletion_timestamp = Some(Timestamp::from_millis(9)),
            13 => {
                meta.uid = Uid::generate();
                meta.resource_version = 7;
                meta.generation = 3;
            }
            14 => meta.namespace = t.meta().namespace.clone(),
            15 => meta.name = t.meta().name.clone(),
            _ => {}
        }
        match (&mut *e, t) {
            (Object::Pod(e), Object::Pod(t)) => match which {
                16 => {
                    e.spec.node_name = "node-9".into();
                    e.status.phase = PodPhase::Running;
                }
                17 => e.spec.secret_names = t.spec.secret_names.clone(),
                18 => e.spec.config_map_names = t.spec.config_map_names.clone(),
                19 => e.spec.volume_claim_names = t.spec.volume_claim_names.clone(),
                20 => e.spec.affinity = t.spec.affinity.clone(),
                21 => e.spec.containers[0].image = "nginx:2".into(),
                _ => {}
            },
            (Object::Service(e), _) => match which {
                16 => e.status.load_balancer_ip = "1.2.3.4".into(),
                17 => e.spec.cluster_ip = "10.9.9.9".into(),
                _ => {}
            },
            (Object::Namespace(e), _) if which == 16 => e.phase = NamespacePhase::Terminating,
            _ => {}
        }
        // Another kind under the same key.
        if which == 22 {
            *e = match t {
                Object::Pod(_) => Namespace::new(PREFIX).into(),
                _ => Pod::new(PREFIX, "a").into(),
            };
        }
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

        /// `matches_super` answers what comparing against the built copy
        /// answers, for every perturbation of the super copy (and none).
        #[test]
        fn prop_matches_super_agrees_with_the_built_copy(t in TenantObject) {
            let mapped = to_super(&t, VC, PREFIX);
            prop_assert!(matches_super(&t, &mapped, VC, PREFIX), "a copy matches its source");
            for which in 0..PERTURBATIONS {
                let mut e = mapped.clone();
                perturb(&mut e, &t, which);
                prop_assert_eq!(
                    matches_super(&t, &e, VC, PREFIX),
                    equivalent(&mapped, &e),
                    "perturbation {which}: super copy {e:?}"
                );
            }
        }
    }
}
