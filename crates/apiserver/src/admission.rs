//! Admission plugins: mutate/validate objects between authorization and
//! persistence.

use std::fmt;
use vc_api::error::{ApiError, ApiResult};
use vc_api::namespace::NamespacePhase;
use vc_api::object::{Object, ResourceKind};
use vc_store::Store;

/// The operation being admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOp {
    /// Object creation.
    Create,
    /// Object replacement.
    Update,
}

/// A chain-of-responsibility admission plugin.
///
/// Plugins may mutate the object in place and/or reject the request. They
/// run in registration order; the first rejection wins.
pub trait AdmissionPlugin: Send + Sync + fmt::Debug {
    /// Plugin name for diagnostics.
    fn name(&self) -> &str;

    /// Admits (and possibly mutates) `obj`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Invalid`] or [`ApiError::Forbidden`] to reject.
    fn admit(&self, op: AdmissionOp, obj: &mut Object, store: &Store) -> ApiResult<()>;
}

/// Rejects creation of namespaced objects whose namespace is absent or
/// terminating, mirroring the `NamespaceLifecycle` plugin.
#[derive(Debug, Default)]
pub struct NamespaceLifecycle;

impl AdmissionPlugin for NamespaceLifecycle {
    fn name(&self) -> &str {
        "NamespaceLifecycle"
    }

    fn admit(&self, op: AdmissionOp, obj: &mut Object, store: &Store) -> ApiResult<()> {
        if op != AdmissionOp::Create || obj.kind().is_cluster_scoped() {
            return Ok(());
        }
        let ns = obj.meta().namespace.clone();
        let stored = store
            .get(ResourceKind::Namespace, &ns)
            .ok_or_else(|| ApiError::namespace_missing(obj.kind().as_str(), obj.key(), &ns))?;
        let namespace = stored.as_namespace().expect("namespace kind");
        if namespace.phase == NamespacePhase::Terminating || namespace.meta.is_terminating() {
            return Err(ApiError::forbidden(
                "",
                "create",
                obj.kind().as_str(),
                format!("namespace {ns:?} is terminating"),
            ));
        }
        Ok(())
    }
}

/// Defaults `spec.service_account_name` on pods to `default`, mirroring the
/// `ServiceAccount` admission plugin.
#[derive(Debug, Default)]
pub struct ServiceAccountDefaulter;

impl AdmissionPlugin for ServiceAccountDefaulter {
    fn name(&self) -> &str {
        "ServiceAccountDefaulter"
    }

    fn admit(&self, op: AdmissionOp, obj: &mut Object, _store: &Store) -> ApiResult<()> {
        if op != AdmissionOp::Create {
            return Ok(());
        }
        if let Object::Pod(pod) = obj {
            if pod.spec.service_account_name.is_empty() {
                pod.spec.service_account_name = vc_api::config::DEFAULT_SERVICE_ACCOUNT.into();
            }
        }
        Ok(())
    }
}

/// Caps the number of pods per namespace (a minimal `ResourceQuota`).
#[derive(Debug)]
pub struct PodQuota {
    /// Maximum pods allowed per namespace.
    pub max_pods_per_namespace: usize,
}

impl AdmissionPlugin for PodQuota {
    fn name(&self) -> &str {
        "PodQuota"
    }

    fn admit(&self, op: AdmissionOp, obj: &mut Object, store: &Store) -> ApiResult<()> {
        if op != AdmissionOp::Create || obj.kind() != ResourceKind::Pod {
            return Ok(());
        }
        let ns = obj.meta().namespace.clone();
        let (pods, _) = store.list(ResourceKind::Pod, Some(&ns));
        if pods.len() >= self.max_pods_per_namespace {
            return Err(ApiError::forbidden(
                "",
                "create",
                "Pod",
                format!(
                    "pod quota exceeded in namespace {ns:?}: limit {}",
                    self.max_pods_per_namespace
                ),
            ));
        }
        Ok(())
    }
}

/// Rejects pods that name more than `max_containers` containers — a
/// stand-in for schema-size validation.
#[derive(Debug)]
pub struct PodValidator {
    /// Maximum total containers (init + workload).
    pub max_containers: usize,
}

impl Default for PodValidator {
    fn default() -> Self {
        PodValidator { max_containers: 64 }
    }
}

impl AdmissionPlugin for PodValidator {
    fn name(&self) -> &str {
        "PodValidator"
    }

    fn admit(&self, _op: AdmissionOp, obj: &mut Object, _store: &Store) -> ApiResult<()> {
        if let Object::Pod(pod) = obj {
            let total = pod.spec.containers.len() + pod.spec.init_containers.len();
            if total > self.max_containers {
                return Err(ApiError::invalid(
                    "Pod",
                    pod.meta.full_name(),
                    format!("too many containers: {total} > {}", self.max_containers),
                ));
            }
            let mut names: Vec<&str> = pod
                .spec
                .containers
                .iter()
                .chain(&pod.spec.init_containers)
                .map(|c| c.name.as_str())
                .collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            if names.len() != before {
                return Err(ApiError::invalid(
                    "Pod",
                    pod.meta.full_name(),
                    "duplicate container names",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::namespace::Namespace;
    use vc_api::pod::{Container, Pod};

    fn store_with_ns(name: &str) -> Store {
        let store = Store::new();
        store.insert(Namespace::new(name).into()).unwrap();
        store
    }

    #[test]
    fn namespace_lifecycle_requires_existing_namespace() {
        let store = store_with_ns("ok");
        let plugin = NamespaceLifecycle;
        let mut pod: Object = Pod::new("ok", "p").into();
        assert!(plugin.admit(AdmissionOp::Create, &mut pod, &store).is_ok());
        let mut orphan: Object = Pod::new("missing", "p").into();
        let err = plugin.admit(AdmissionOp::Create, &mut orphan, &store).unwrap_err();
        assert!(matches!(err, ApiError::Invalid { .. }));
        assert!(err.is_namespace_missing());
    }

    #[test]
    fn namespace_lifecycle_blocks_terminating() {
        let store = Store::new();
        let mut ns = Namespace::new("dying");
        ns.phase = NamespacePhase::Terminating;
        store.insert(ns.into()).unwrap();
        let plugin = NamespaceLifecycle;
        let mut pod: Object = Pod::new("dying", "p").into();
        let err = plugin.admit(AdmissionOp::Create, &mut pod, &store).unwrap_err();
        assert!(err.is_forbidden());
    }

    #[test]
    fn namespace_lifecycle_skips_updates_and_cluster_scoped() {
        let store = Store::new();
        let plugin = NamespaceLifecycle;
        let mut pod: Object = Pod::new("missing", "p").into();
        assert!(plugin.admit(AdmissionOp::Update, &mut pod, &store).is_ok());
        let mut ns: Object = Namespace::new("new").into();
        assert!(plugin.admit(AdmissionOp::Create, &mut ns, &store).is_ok());
    }

    #[test]
    fn service_account_defaulted() {
        let store = Store::new();
        let plugin = ServiceAccountDefaulter;
        let mut pod: Object = Pod::new("ns", "p").into();
        plugin.admit(AdmissionOp::Create, &mut pod, &store).unwrap();
        assert_eq!(pod.as_pod().unwrap().spec.service_account_name, "default");

        // Explicit account preserved.
        let mut p = Pod::new("ns", "q");
        p.spec.service_account_name = "builder".into();
        let mut obj: Object = p.into();
        plugin.admit(AdmissionOp::Create, &mut obj, &store).unwrap();
        assert_eq!(obj.as_pod().unwrap().spec.service_account_name, "builder");
    }

    #[test]
    fn pod_quota_enforced() {
        let store = store_with_ns("ns");
        store.insert(Pod::new("ns", "existing").into()).unwrap();
        let plugin = PodQuota { max_pods_per_namespace: 1 };
        let mut pod: Object = Pod::new("ns", "new").into();
        let err = plugin.admit(AdmissionOp::Create, &mut pod, &store).unwrap_err();
        assert!(err.is_forbidden());
        // Other namespaces unaffected.
        let mut other: Object = Pod::new("other", "new").into();
        assert!(plugin.admit(AdmissionOp::Create, &mut other, &store).is_ok());
    }

    #[test]
    fn pod_validator_rejects_duplicates_and_excess() {
        let store = Store::new();
        let plugin = PodValidator { max_containers: 2 };
        let mut dup: Object = Pod::new("ns", "p")
            .with_container(Container::new("c", "img"))
            .with_container(Container::new("c", "img"))
            .into();
        assert!(plugin.admit(AdmissionOp::Create, &mut dup, &store).is_err());

        let mut excess: Object = Pod::new("ns", "p")
            .with_container(Container::new("a", "img"))
            .with_container(Container::new("b", "img"))
            .with_container(Container::new("c", "img"))
            .into();
        assert!(plugin.admit(AdmissionOp::Create, &mut excess, &store).is_err());

        let mut ok: Object = Pod::new("ns", "p").with_container(Container::new("a", "img")).into();
        assert!(plugin.admit(AdmissionOp::Create, &mut ok, &store).is_ok());
    }
}

/// Mutates pods carrying a marker annotation to use the Kata sandbox
/// runtime — the paper's threat model: "containers are not safe. To
/// prevent the containers from obtaining the node root privileges, the
/// service provider needs to run them using sandbox runtime." Installed on
/// the super cluster keyed on the syncer's ownership annotation, it forces
/// every synced tenant pod into a sandbox regardless of what the tenant
/// requested.
#[derive(Debug)]
pub struct SandboxEnforcer {
    /// Pods carrying this annotation key are forced to the Kata runtime.
    pub marker_annotation: String,
}

impl AdmissionPlugin for SandboxEnforcer {
    fn name(&self) -> &str {
        "SandboxEnforcer"
    }

    fn admit(&self, _op: AdmissionOp, obj: &mut Object, _store: &Store) -> ApiResult<()> {
        if let Object::Pod(pod) = obj {
            if pod.meta.annotations.contains_key(&self.marker_annotation) {
                pod.spec.runtime_class = vc_api::pod::RuntimeClass::Kata;
            }
        }
        Ok(())
    }
}

/// Rejects privilege escalation on the tenant→super sync path — the
/// adversarial-tenant policy engine.
///
/// Installed on the **super** apiserver and keyed on the syncer's
/// ownership annotation (like [`SandboxEnforcer`]): objects without the
/// marker are system/provider objects and pass untouched. For marked
/// objects it enforces, in order:
///
/// 1. **oversized-object** — serialized size above `max_object_bytes`
///    (0 disables), protecting the store's byte accounting from spam;
/// 2. **host-path-mount / host-namespace / privileged-container** — the
///    context-free [`vc_api::policy::review_pod_spec`] rules;
/// 3. **node-forgery** — a pod pinning `node_name` at create time
///    (bypassing the super scheduler onto possibly-dedicated capacity),
///    or node-selector/toleration keys under the reserved
///    `virtualcluster.io/` domain, or a wildcard (empty-key) toleration
///    that would tolerate other tenants' reservation taints;
/// 4. **cross-tenant-ref** — affinity terms or namespace-qualified
///    secret/config-map/claim references naming namespaces outside the
///    tenant's own prefix (derived from the object's super namespace and
///    its tenant-namespace annotation; fails closed when underivable).
///
/// Every rejection is a typed [`ApiError::policy_denied`] carrying the
/// rule label, and increments `vc_admission_rejections_total{rule,tenant}`
/// when metrics are attached.
#[derive(Debug)]
pub struct TenantIsolation {
    /// Objects carrying this annotation key are subject to the policy
    /// (the syncer's cluster-ownership annotation).
    pub marker_annotation: String,
    /// Annotation key carrying the object's tenant-side namespace, used
    /// to derive the tenant's namespace prefix.
    pub tenant_namespace_annotation: String,
    /// Label/taint key domain reserved for the framework; tenant pods may
    /// not select or tolerate against it.
    pub reserved_domain: String,
    /// Per-object serialized-size cap in bytes; 0 disables the check.
    pub max_object_bytes: usize,
    /// `vc_admission_rejections_total{rule,tenant}` family, when attached
    /// via [`TenantIsolation::with_metrics`].
    rejections: Option<vc_obs::CounterFamily>,
}

impl TenantIsolation {
    /// Creates the policy engine keyed on the given ownership and
    /// tenant-namespace annotation keys, with the default reserved
    /// domain (`virtualcluster.io/`) and a 256 KiB object cap.
    pub fn new(
        marker_annotation: impl Into<String>,
        tenant_namespace_annotation: impl Into<String>,
    ) -> Self {
        TenantIsolation {
            marker_annotation: marker_annotation.into(),
            tenant_namespace_annotation: tenant_namespace_annotation.into(),
            reserved_domain: "virtualcluster.io/".into(),
            max_object_bytes: 256 * 1024,
            rejections: None,
        }
    }

    /// Registers (or adopts) the `vc_admission_rejections_total` family in
    /// `registry` and counts every rejection under its `{rule, tenant}`
    /// labels.
    pub fn with_metrics(mut self, registry: &vc_obs::MetricsRegistry) -> Self {
        self.rejections = Some(registry.counter(
            "vc_admission_rejections_total",
            "Tenant-isolation admission rejections by policy rule and tenant.",
            &["rule", "tenant"],
        ));
        self
    }

    fn reject(
        &self,
        tenant: &str,
        op: AdmissionOp,
        kind: &str,
        rule: &'static str,
        detail: String,
    ) -> ApiResult<()> {
        if let Some(family) = &self.rejections {
            family.with(&[rule, tenant]).inc();
        }
        let verb = match op {
            AdmissionOp::Create => "create",
            AdmissionOp::Update => "update",
        };
        Err(ApiError::policy_denied("", verb, kind, rule, detail))
    }

    /// The tenant namespace prefix this object belongs to:
    /// `super_ns = <prefix>-<tenant_ns>`.
    fn own_prefix(&self, obj: &Object) -> Option<String> {
        let tenant_ns = obj.meta().annotations.get(&self.tenant_namespace_annotation)?;
        let super_ns = &obj.meta().namespace;
        super_ns.strip_suffix(tenant_ns.as_str())?.strip_suffix('-').map(str::to_string)
    }
}

/// Returns `true` if `namespace` is the prefix namespace itself or lives
/// under `<prefix>-…` (same separator rule as the authorizer's scopes).
fn in_prefix(namespace: &str, prefix: &str) -> bool {
    namespace == prefix || namespace.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('-'))
}

impl AdmissionPlugin for TenantIsolation {
    fn name(&self) -> &str {
        "TenantIsolation"
    }

    fn admit(&self, op: AdmissionOp, obj: &mut Object, _store: &Store) -> ApiResult<()> {
        let Some(tenant) = obj.meta().annotations.get(&self.marker_annotation).cloned() else {
            return Ok(());
        };
        let kind = obj.kind().as_str();
        if self.max_object_bytes > 0 {
            let size = obj.estimated_size();
            if size > self.max_object_bytes {
                return self.reject(
                    &tenant,
                    op,
                    kind,
                    vc_api::policy::RULE_OVERSIZED_OBJECT,
                    format!("object is {size} bytes, cap is {} bytes", self.max_object_bytes),
                );
            }
        }
        let Object::Pod(pod) = &*obj else { return Ok(()) };

        if let Some(v) = vc_api::policy::review_pod_spec(&pod.spec).into_iter().next() {
            return self.reject(&tenant, op, kind, v.rule, v.detail);
        }

        // Node forgery: direct binding at create time bypasses the super
        // scheduler (updates legitimately carry the super-assigned node).
        if op == AdmissionOp::Create && pod.spec.is_bound() {
            return self.reject(
                &tenant,
                op,
                kind,
                vc_api::policy::RULE_NODE_FORGERY,
                format!("tenant pod pre-bound to node {:?}", pod.spec.node_name),
            );
        }
        for key in pod.spec.node_selector.keys() {
            if key.starts_with(&self.reserved_domain) {
                return self.reject(
                    &tenant,
                    op,
                    kind,
                    vc_api::policy::RULE_NODE_FORGERY,
                    format!("node selector {key:?} targets the reserved label domain"),
                );
            }
        }
        for tol in &pod.spec.tolerations {
            if tol.key.is_empty() {
                return self.reject(
                    &tenant,
                    op,
                    kind,
                    vc_api::policy::RULE_NODE_FORGERY,
                    "wildcard toleration would tolerate other tenants' reservation taints"
                        .to_string(),
                );
            }
            if tol.key.starts_with(&self.reserved_domain) {
                return self.reject(
                    &tenant,
                    op,
                    kind,
                    vc_api::policy::RULE_NODE_FORGERY,
                    format!(
                        "toleration key {key:?} targets the reserved taint domain",
                        key = tol.key
                    ),
                );
            }
        }

        let referenced = vc_api::policy::referenced_namespaces(&pod.spec);
        if !referenced.is_empty() {
            // Fail closed: without a derivable prefix every reference is
            // foreign.
            let prefix = self.own_prefix(obj).unwrap_or_default();
            for ns in referenced {
                if prefix.is_empty() || !in_prefix(&ns, &prefix) {
                    return self.reject(
                        &tenant,
                        op,
                        kind,
                        vc_api::policy::RULE_CROSS_TENANT_REF,
                        format!("references namespace {ns:?} outside tenant prefix {prefix:?}"),
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod sandbox_tests {
    use super::*;
    use vc_api::pod::{Pod, RuntimeClass};

    #[test]
    fn tenant_pods_forced_into_sandbox() {
        let store = Store::new();
        let plugin = SandboxEnforcer { marker_annotation: "virtualcluster.io/cluster".into() };
        // A synced tenant pod that asked for runc is overridden…
        let mut tenant_pod = Pod::new("t-ns", "p");
        tenant_pod.meta.annotations.insert("virtualcluster.io/cluster".into(), "t".into());
        tenant_pod.spec.runtime_class = RuntimeClass::Runc;
        let mut obj: Object = tenant_pod.into();
        plugin.admit(AdmissionOp::Create, &mut obj, &store).unwrap();
        assert_eq!(obj.as_pod().unwrap().spec.runtime_class, RuntimeClass::Kata);

        // …while unmarked (system) pods keep their runtime.
        let mut system_pod: Object = Pod::new("kube-system", "infra").into();
        plugin.admit(AdmissionOp::Create, &mut system_pod, &store).unwrap();
        assert_eq!(system_pod.as_pod().unwrap().spec.runtime_class, RuntimeClass::Runc);
    }
}

#[cfg(test)]
mod tenant_isolation_tests {
    use super::*;
    use vc_api::pod::{Container, Pod, Toleration};
    use vc_api::policy;

    const CLUSTER: &str = "virtualcluster.io/cluster";
    const TENANT_NS: &str = "virtualcluster.io/tenant-namespace";

    fn plugin() -> TenantIsolation {
        TenantIsolation::new(CLUSTER, TENANT_NS)
    }

    /// A synced tenant pod as `to_super` would shape it: prefixed
    /// namespace plus provenance annotations.
    fn synced_pod(name: &str) -> Pod {
        let mut pod = Pod::new("t1-abc123-default", name).with_container(Container::new("c", "i"));
        pod.meta.annotations.insert(CLUSTER.into(), "t1".into());
        pod.meta.annotations.insert(TENANT_NS.into(), "default".into());
        pod
    }

    fn rule_of(err: &ApiError) -> &str {
        err.policy_rule().expect("policy-denied error")
    }

    #[test]
    fn unmarked_objects_pass() {
        let store = Store::new();
        let mut direct: Object = Pod::new("kube-system", "infra")
            .with_container(Container::new("c", "i").privileged())
            .with_host_network()
            .into();
        assert!(plugin().admit(AdmissionOp::Create, &mut direct, &store).is_ok());
    }

    #[test]
    fn clean_synced_pod_passes() {
        let store = Store::new();
        let mut pod: Object = synced_pod("ok").into();
        assert!(plugin().admit(AdmissionOp::Create, &mut pod, &store).is_ok());
    }

    #[test]
    fn privilege_escalation_rejected_with_rule_labels() {
        let store = Store::new();
        let cases: Vec<(Pod, &str)> = vec![
            (synced_pod("a").with_host_path("/var/run/docker.sock"), policy::RULE_HOST_PATH),
            (synced_pod("b").with_host_network(), policy::RULE_HOST_NAMESPACE),
            (synced_pod("c").with_host_pid(), policy::RULE_HOST_NAMESPACE),
            (
                {
                    let mut p = synced_pod("d");
                    p.spec.containers[0].privileged = true;
                    p
                },
                policy::RULE_PRIVILEGED,
            ),
        ];
        for (pod, want) in cases {
            let mut obj: Object = pod.into();
            let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
            assert!(err.is_forbidden());
            assert_eq!(rule_of(&err), want, "{err}");
        }
    }

    #[test]
    fn node_forgery_rejected() {
        let store = Store::new();
        let mut bound = synced_pod("bound");
        bound.spec.node_name = "node-7".into();
        let mut obj: Object = bound.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_NODE_FORGERY);
        // The same pod on Update passes: the super scheduler legitimately
        // wrote the binding.
        assert!(plugin().admit(AdmissionOp::Update, &mut obj, &store).is_ok());

        let mut selector = synced_pod("sel");
        selector.spec.node_selector.insert("virtualcluster.io/tenant".into(), "t2".into());
        let mut obj: Object = selector.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_NODE_FORGERY);

        let mut wildcard = synced_pod("tol");
        wildcard.spec.tolerations.push(Toleration {
            key: String::new(),
            value: String::new(),
            effect: None,
        });
        let mut obj: Object = wildcard.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_NODE_FORGERY);

        let mut reserved_tol = synced_pod("tol2");
        reserved_tol.spec.tolerations.push(Toleration {
            key: "virtualcluster.io/dedicated".into(),
            value: "t2".into(),
            effect: None,
        });
        let mut obj: Object = reserved_tol.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_NODE_FORGERY);

        // An ordinary toleration is fine.
        let mut benign = synced_pod("tol3");
        benign.spec.tolerations.push(Toleration {
            key: "dedicated".into(),
            value: "batch".into(),
            effect: None,
        });
        let mut obj: Object = benign.into();
        assert!(plugin().admit(AdmissionOp::Create, &mut obj, &store).is_ok());
    }

    #[test]
    fn cross_tenant_references_rejected() {
        let store = Store::new();
        // Affinity into a foreign tenant's super namespace.
        let mut foreign = synced_pod("aff");
        foreign.spec.affinity.pod_affinity.push(vc_api::pod::PodAffinityTerm {
            selector: vc_api::labels::Selector::everything(),
            namespaces: vec!["t2-def456-default".into()],
        });
        let mut obj: Object = foreign.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_CROSS_TENANT_REF);

        // Qualified secret ref into a foreign namespace.
        let mut secret = synced_pod("sec");
        secret.spec.secret_names.push("t2-def456-default/db-creds".into());
        let mut obj: Object = secret.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_CROSS_TENANT_REF);

        // Own-prefix references pass.
        let mut own = synced_pod("own");
        own.spec.affinity.pod_anti_affinity.push(vc_api::pod::PodAffinityTerm {
            selector: vc_api::labels::Selector::everything(),
            namespaces: vec!["t1-abc123-frontend".into()],
        });
        own.spec.secret_names.push("local-secret".into());
        let mut obj: Object = own.into();
        assert!(plugin().admit(AdmissionOp::Create, &mut obj, &store).is_ok());

        // Fail closed: marked pod without a tenant-namespace annotation
        // cannot prove ownership of any reference.
        let mut opaque = synced_pod("opaque");
        opaque.meta.annotations.remove(TENANT_NS);
        opaque.spec.secret_names.push("t1-abc123-frontend/s".into());
        let mut obj: Object = opaque.into();
        let err = plugin().admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_CROSS_TENANT_REF);
    }

    #[test]
    fn oversized_object_rejected_and_counted() {
        let store = Store::new();
        let registry = vc_obs::MetricsRegistry::new();
        let mut plugin = plugin().with_metrics(&registry);
        plugin.max_object_bytes = 1024;
        let mut huge = synced_pod("huge");
        for i in 0..200 {
            huge.meta.annotations.insert(format!("spam-{i}"), "x".repeat(64));
        }
        let mut obj: Object = huge.into();
        let err = plugin.admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_OVERSIZED_OBJECT);
        let text = registry.render_text();
        assert!(
            text.contains(
                "vc_admission_rejections_total{rule=\"oversized-object\",tenant=\"t1\"} 1"
            ),
            "{text}"
        );
        // Cap of 0 disables the check.
        plugin.max_object_bytes = 0;
        assert!(plugin.admit(AdmissionOp::Create, &mut obj, &store).is_ok());
    }

    #[test]
    fn size_cap_is_exact_to_the_byte() {
        let store = Store::new();
        let mut plugin = plugin();
        let mut pod = synced_pod("edge");
        // Escapes count as the two bytes they occupy in the JSON text.
        pod.meta.annotations.insert("note".into(), "tab\there \"quoted\" é".into());
        let mut obj: Object = pod.into();
        let json_bytes = serde_json::to_string(&obj).unwrap().len();

        plugin.max_object_bytes = json_bytes;
        assert!(plugin.admit(AdmissionOp::Create, &mut obj, &store).is_ok());

        obj.meta_mut().annotations.get_mut("note").unwrap().push('x');
        let err = plugin.admit(AdmissionOp::Create, &mut obj, &store).unwrap_err();
        assert_eq!(rule_of(&err), policy::RULE_OVERSIZED_OBJECT);
        assert!(err.to_string().contains(&format!("object is {} bytes", json_bytes + 1)), "{err}");
    }
}
