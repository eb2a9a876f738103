//! RBAC-lite authorization.
//!
//! A deliberately faithful miniature of Kubernetes RBAC, including its
//! multi-tenant shortcoming the paper highlights (§I "lack of API
//! supports"): authorization is per-verb/kind/namespace, so a tenant that is
//! granted `list` on the cluster-scoped `Namespace` kind sees **every**
//! namespace in the cluster — the List API cannot filter by tenant identity.
//! The isolation integration tests demonstrate exactly this leak on a
//! shared control plane, and its absence under VirtualCluster.

use parking_lot::RwLock;
use std::collections::HashMap;
use vc_api::object::ResourceKind;

/// API verbs subject to authorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Read one object.
    Get,
    /// Read a collection.
    List,
    /// Open a watch.
    Watch,
    /// Create an object.
    Create,
    /// Replace an object.
    Update,
    /// Remove an object.
    Delete,
}

impl Verb {
    /// Every verb, in declaration order (`Verb::ALL[verb as usize] == verb`).
    pub const ALL: [Verb; 6] =
        [Verb::Get, Verb::List, Verb::Watch, Verb::Create, Verb::Update, Verb::Delete];

    /// Returns the lowercase verb name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Get => "get",
            Verb::List => "list",
            Verb::Watch => "watch",
            Verb::Create => "create",
            Verb::Update => "update",
            Verb::Delete => "delete",
        }
    }
}

/// One authorization rule: the cartesian product of verbs × kinds, limited
/// to `namespaces` (empty = all namespaces, which is also how cluster-scoped
/// kinds are granted).
#[derive(Debug, Clone)]
pub struct PolicyRule {
    /// Allowed verbs; empty means every verb.
    pub verbs: Vec<Verb>,
    /// Allowed kinds; empty means every kind.
    pub kinds: Vec<ResourceKind>,
    /// Namespaces the rule applies to; empty means all (and cluster scope).
    pub namespaces: Vec<String>,
}

impl PolicyRule {
    /// Allows every operation (cluster-admin).
    pub fn allow_all() -> Self {
        PolicyRule { verbs: Vec::new(), kinds: Vec::new(), namespaces: Vec::new() }
    }

    /// Allows all verbs on all kinds within the given namespaces.
    pub fn namespace_admin(namespaces: &[&str]) -> Self {
        PolicyRule {
            verbs: Vec::new(),
            kinds: Vec::new(),
            namespaces: namespaces.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Allows specific verbs on specific kinds cluster-wide.
    pub fn cluster_rule(verbs: &[Verb], kinds: &[ResourceKind]) -> Self {
        PolicyRule { verbs: verbs.to_vec(), kinds: kinds.to_vec(), namespaces: Vec::new() }
    }

    fn permits(&self, verb: Verb, kind: ResourceKind, namespace: &str) -> bool {
        let verb_ok = self.verbs.is_empty() || self.verbs.contains(&verb);
        let kind_ok = self.kinds.is_empty() || self.kinds.contains(&kind);
        let ns_ok = if self.namespaces.is_empty() {
            true
        } else if kind.is_cluster_scoped() {
            // Namespace-limited rules never grant cluster-scoped kinds
            // (paper: tenants cannot freely create namespaces/CRDs on a
            // shared cluster).
            false
        } else {
            self.namespaces.iter().any(|n| n == namespace)
        };
        verb_ok && kind_ok && ns_ok
    }
}

/// User → rules authorizer.
///
/// Disabled by default (everything allowed) so substrate tests and the
/// dedicated tenant control planes — where the tenant *is* cluster-admin —
/// stay permissive; the shared-cluster scenarios enable it.
///
/// Orthogonal to the rule bindings, a user may carry a **tenant scope**:
/// a namespace prefix it is confined to. Scopes close the
/// trust-the-header hole in the wire tier — whatever `x-vc-user` a
/// connection claims, a scoped identity can only ever touch namespaces
/// under its own tenant's prefix, and never cluster-scoped kinds. Scope
/// enforcement is active even while rule enforcement is disabled, so the
/// super apiserver can confine tenant identities without having to spell
/// out rules for every system component.
#[derive(Debug, Default)]
pub struct Authorizer {
    enabled: RwLock<bool>,
    bindings: RwLock<HashMap<String, Vec<PolicyRule>>>,
    scopes: RwLock<HashMap<String, String>>,
}

impl Authorizer {
    /// Creates a disabled (allow-all) authorizer.
    pub fn new() -> Self {
        Authorizer::default()
    }

    /// Enables enforcement.
    pub fn enable(&self) {
        *self.enabled.write() = true;
    }

    /// Returns `true` if enforcement is on.
    pub fn is_enabled(&self) -> bool {
        *self.enabled.read()
    }

    /// Grants `rule` to `user`.
    pub fn bind(&self, user: impl Into<String>, rule: PolicyRule) {
        self.bindings.write().entry(user.into()).or_default().push(rule);
    }

    /// Removes all of `user`'s rules.
    pub fn unbind_all(&self, user: &str) {
        self.bindings.write().remove(user);
    }

    /// Confines `user` to namespaces under the tenant namespace `prefix`
    /// (the syncer's `<vc>-<hash6>` prefix). Scoped users are granted all
    /// verbs within the prefix and denied everything else — including all
    /// cluster-scoped kinds — regardless of rule bindings or whether rule
    /// enforcement is enabled.
    pub fn bind_tenant_scope(&self, user: impl Into<String>, prefix: impl Into<String>) {
        self.scopes.write().insert(user.into(), prefix.into());
    }

    /// Removes `user`'s tenant scope (used at tenant teardown).
    pub fn unbind_tenant_scope(&self, user: &str) {
        self.scopes.write().remove(user);
    }

    /// Returns the tenant namespace prefix `user` is confined to, if any.
    pub fn tenant_scope(&self, user: &str) -> Option<String> {
        self.scopes.read().get(user).cloned()
    }

    /// Checks whether `user` may perform `verb` on `kind` in `namespace`
    /// (empty namespace for cluster-scoped objects).
    pub fn authorize(&self, user: &str, verb: Verb, kind: ResourceKind, namespace: &str) -> bool {
        if let Some(prefix) = self.scopes.read().get(user) {
            return !kind.is_cluster_scoped() && namespace_in_scope(namespace, prefix);
        }
        if !self.is_enabled() {
            return true;
        }
        self.bindings
            .read()
            .get(user)
            .is_some_and(|rules| rules.iter().any(|r| r.permits(verb, kind, namespace)))
    }
}

/// Returns `true` if `namespace` lives under the tenant prefix: either the
/// prefix namespace itself or `<prefix>-<tenant-ns>`. The explicit `-`
/// separator check keeps prefix `t1-aaaaaa` from matching a hostile
/// `t1-aaaaaab-ns`.
fn namespace_in_scope(namespace: &str, prefix: &str) -> bool {
    namespace == prefix || namespace.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_allows_everything() {
        let auth = Authorizer::new();
        assert!(auth.authorize("anyone", Verb::Delete, ResourceKind::Node, ""));
    }

    #[test]
    fn enabled_denies_unknown_user() {
        let auth = Authorizer::new();
        auth.enable();
        assert!(!auth.authorize("stranger", Verb::Get, ResourceKind::Pod, "ns"));
    }

    #[test]
    fn namespace_admin_scoped() {
        let auth = Authorizer::new();
        auth.enable();
        auth.bind("tenant-a", PolicyRule::namespace_admin(&["team-a"]));
        assert!(auth.authorize("tenant-a", Verb::Create, ResourceKind::Pod, "team-a"));
        assert!(!auth.authorize("tenant-a", Verb::Create, ResourceKind::Pod, "team-b"));
        // Cluster-scoped kinds are NOT granted by namespace rules.
        assert!(!auth.authorize("tenant-a", Verb::Create, ResourceKind::Namespace, ""));
        assert!(!auth.authorize("tenant-a", Verb::List, ResourceKind::Namespace, ""));
    }

    #[test]
    fn cluster_rule_grants_cluster_scope() {
        let auth = Authorizer::new();
        auth.enable();
        auth.bind("tenant-a", PolicyRule::cluster_rule(&[Verb::List], &[ResourceKind::Namespace]));
        // The paper's leak: list on namespaces is all-or-nothing.
        assert!(auth.authorize("tenant-a", Verb::List, ResourceKind::Namespace, ""));
        assert!(!auth.authorize("tenant-a", Verb::Create, ResourceKind::Namespace, ""));
    }

    #[test]
    fn allow_all_is_cluster_admin() {
        let auth = Authorizer::new();
        auth.enable();
        auth.bind("admin", PolicyRule::allow_all());
        assert!(auth.authorize("admin", Verb::Delete, ResourceKind::Node, ""));
        assert!(auth.authorize("admin", Verb::Create, ResourceKind::Pod, "any"));
    }

    #[test]
    fn unbind_revokes() {
        let auth = Authorizer::new();
        auth.enable();
        auth.bind("u", PolicyRule::allow_all());
        assert!(auth.authorize("u", Verb::Get, ResourceKind::Pod, "ns"));
        auth.unbind_all("u");
        assert!(!auth.authorize("u", Verb::Get, ResourceKind::Pod, "ns"));
    }

    #[test]
    fn verb_names() {
        assert_eq!(Verb::List.as_str(), "list");
        assert_eq!(Verb::Create.as_str(), "create");
        for (i, verb) in Verb::ALL.into_iter().enumerate() {
            assert_eq!(verb as usize, i, "{verb:?} indexes per-verb tables");
        }
    }

    #[test]
    fn tenant_scope_confines_even_when_disabled() {
        let auth = Authorizer::new();
        // Rule enforcement off: unscoped users unrestricted…
        assert!(auth.authorize("vc-syncer", Verb::Delete, ResourceKind::Node, ""));
        // …but a scoped identity is confined to its prefix.
        auth.bind_tenant_scope("tenant:t1", "t1-abc123");
        assert!(auth.authorize("tenant:t1", Verb::Create, ResourceKind::Pod, "t1-abc123-default"));
        assert!(auth.authorize("tenant:t1", Verb::List, ResourceKind::Pod, "t1-abc123"));
        assert!(!auth.authorize("tenant:t1", Verb::Get, ResourceKind::Pod, "t2-def456-default"));
        assert!(!auth.authorize("tenant:t1", Verb::List, ResourceKind::Namespace, ""));
        assert!(!auth.authorize("tenant:t1", Verb::Watch, ResourceKind::Node, ""));
        assert_eq!(auth.tenant_scope("tenant:t1").as_deref(), Some("t1-abc123"));
    }

    #[test]
    fn tenant_scope_prefix_needs_separator() {
        let auth = Authorizer::new();
        auth.bind_tenant_scope("t", "t1-aaaaaa");
        // A hostile prefix sharing the scope's leading bytes is foreign.
        assert!(!auth.authorize("t", Verb::Get, ResourceKind::Pod, "t1-aaaaaab-ns"));
        assert!(auth.authorize("t", Verb::Get, ResourceKind::Pod, "t1-aaaaaa-ns"));
    }

    #[test]
    fn tenant_scope_unbind_restores_default() {
        let auth = Authorizer::new();
        auth.bind_tenant_scope("u", "t1-abc123");
        assert!(!auth.authorize("u", Verb::Get, ResourceKind::Pod, "other"));
        auth.unbind_tenant_scope("u");
        assert!(auth.authorize("u", Verb::Get, ResourceKind::Pod, "other"));
        assert_eq!(auth.tenant_scope("u"), None);
    }

    #[test]
    fn tenant_scope_overrides_bindings() {
        let auth = Authorizer::new();
        auth.enable();
        auth.bind("u", PolicyRule::allow_all());
        auth.bind_tenant_scope("u", "t1-abc123");
        // Scope wins over an allow-all binding: identity confinement is
        // not escapable via rule grants.
        assert!(!auth.authorize("u", Verb::Get, ResourceKind::Pod, "other"));
        assert!(auth.authorize("u", Verb::Get, ResourceKind::Pod, "t1-abc123-ns"));
    }
}
