//! Multiple super clusters (paper §V, future work — implemented).
//!
//! "In cases where worker nodes cannot be automatically added to or removed
//! from a super cluster, supporting multiple super clusters is an option to
//! break through the capacity limitation of a single super cluster. …
//! In VirtualCluster, the users would not be aware of multiple super
//! clusters" — unlike Kubernetes federation, where users explicitly manage
//! all member clusters.
//!
//! [`MultiSuperFramework`] is N complete [`Framework`]s (each its own super
//! cluster, scheduler, nodes, tenant operator and syncer) on one shared
//! clock, plus a placement decision: a tenant is assigned to one member at
//! creation and from then on every operation is that member's. Tenants keep
//! using their own control plane; the placement is invisible to them.

use crate::framework::{Framework, FrameworkConfig};
use crate::registry::TenantHandle;
use crate::vc_object::VirtualClusterSpec;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vc_api::error::{ApiError, ApiResult};
use vc_api::time::{Clock, RealClock};
use vc_client::Client;

/// How tenants are placed onto super clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The super cluster currently hosting the fewest tenants.
    #[default]
    LeastTenants,
    /// Strict rotation.
    RoundRobin,
}

/// Configuration for a multi-super deployment.
#[derive(Debug, Clone)]
pub struct MultiSuperConfig {
    /// Number of super clusters (shards).
    pub shards: usize,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// What every member is started from. Member `i`'s super cluster is
    /// named `super-{i}`, all members share one clock (`framework.clock`,
    /// or the wall clock), and a durable store gets the subdirectory
    /// `super-{i}` of `framework.durability`'s directory.
    pub framework: FrameworkConfig,
}

impl Default for MultiSuperConfig {
    fn default() -> Self {
        MultiSuperConfig {
            shards: 2,
            placement: PlacementPolicy::LeastTenants,
            framework: FrameworkConfig::minimal(),
        }
    }
}

/// A deployment spanning several super clusters.
pub struct MultiSuperFramework {
    members: Vec<Framework>,
    /// Tenant name → member index (tenant names are unique across members).
    assignments: Mutex<HashMap<String, usize>>,
    next_round_robin: Mutex<usize>,
    placement: PlacementPolicy,
}

impl std::fmt::Debug for MultiSuperFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSuperFramework")
            .field("shards", &self.members.len())
            .field("tenants", &self.assignments.lock().len())
            .finish()
    }
}

impl MultiSuperFramework {
    /// Starts `config.shards` member frameworks.
    pub fn start(config: MultiSuperConfig) -> MultiSuperFramework {
        assert!(config.shards >= 1, "at least one super cluster");
        let clock: Arc<dyn Clock> =
            config.framework.clock.clone().unwrap_or_else(RealClock::shared);
        let members = (0..config.shards)
            .map(|index| {
                let mut member = config.framework.clone();
                member.super_cluster.name = format!("super-{index}");
                member.clock = Some(Arc::clone(&clock));
                if let Some(durability) = &mut member.durability {
                    durability.dir.push(format!("super-{index}"));
                }
                Framework::start(member)
            })
            .collect();
        MultiSuperFramework {
            members,
            assignments: Mutex::new(HashMap::new()),
            next_round_robin: Mutex::new(0),
            placement: config.placement,
        }
    }

    /// The member frameworks, indexed by shard.
    pub fn members(&self) -> &[Framework] {
        &self.members
    }

    /// Which shard hosts `tenant` (provisioned tenants only).
    pub fn shard_of(&self, tenant: &str) -> Option<usize> {
        self.assignments.lock().get(tenant).copied()
    }

    /// The member hosting `tenant`.
    fn member_of(&self, tenant: &str) -> Option<&Framework> {
        self.shard_of(tenant).map(|index| &self.members[index])
    }

    /// Provisions a tenant on a shard chosen by the placement policy and
    /// waits for it, exactly as [`Framework::create_tenant_with_spec`]
    /// does. The tenant's API experience is identical regardless of the
    /// shard — the placement is invisible.
    ///
    /// # Errors
    ///
    /// [`ApiError::AlreadyExists`] when the tenant name is taken on any
    /// shard; otherwise whatever the member's provisioning returns. After
    /// a [`ApiError::Timeout`] the VC object exists on the member, so the
    /// tenant stays assigned and [`Self::delete_tenant`] cleans it up.
    pub fn create_tenant(
        &self,
        name: &str,
        spec: VirtualClusterSpec,
    ) -> ApiResult<Arc<TenantHandle>> {
        let index = {
            let mut assignments = self.assignments.lock();
            if assignments.contains_key(name) {
                return Err(ApiError::already_exists("VirtualCluster", name));
            }
            let index = self.place(&assignments);
            assignments.insert(name.to_string(), index);
            index
        };
        self.members[index].create_tenant_with_spec(name, spec).inspect_err(|e| {
            if !matches!(e, ApiError::Timeout { .. }) {
                self.assignments.lock().remove(name);
            }
        })
    }

    /// Deletes a tenant from its shard and waits for the teardown.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`] for unknown tenants; otherwise whatever the
    /// member's teardown returns (the tenant then stays assigned).
    pub fn delete_tenant(&self, name: &str) -> ApiResult<()> {
        let member =
            self.member_of(name).ok_or_else(|| ApiError::not_found("VirtualCluster", name))?;
        member.delete_tenant(name)?;
        self.assignments.lock().remove(name);
        Ok(())
    }

    /// A client to a tenant's control plane.
    ///
    /// # Panics
    ///
    /// Panics for unknown tenants.
    pub fn tenant_client(&self, tenant: &str, user: impl Into<String>) -> Client {
        self.member_of(tenant).expect("tenant provisioned").tenant_client(tenant, user)
    }

    /// Number of tenants per shard, indexed by shard.
    pub fn tenants_per_shard(&self) -> Vec<usize> {
        self.counts(&self.assignments.lock())
    }

    /// Stops every member (and with it every tenant).
    pub fn shutdown(&self) {
        for member in &self.members {
            member.shutdown();
        }
    }

    fn counts(&self, assignments: &HashMap<String, usize>) -> Vec<usize> {
        let mut counts = vec![0usize; self.members.len()];
        for shard in assignments.values() {
            counts[*shard] += 1;
        }
        counts
    }

    fn place(&self, assignments: &HashMap<String, usize>) -> usize {
        match self.placement {
            PlacementPolicy::LeastTenants => {
                let counts = self.counts(assignments);
                counts.iter().enumerate().min_by_key(|(_, c)| **c).map(|(i, _)| i).unwrap_or(0)
            }
            PlacementPolicy::RoundRobin => {
                let mut next = self.next_round_robin.lock();
                let index = *next % self.members.len();
                *next += 1;
                index
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc_object::{VcPhase, VC_MANAGER_NAMESPACE};
    use std::time::Duration;
    use vc_api::pod::{Container, Pod};
    use vc_api::ResourceKind;
    use vc_controllers::util::wait_until;

    fn fast_multi(shards: usize, placement: PlacementPolicy) -> MultiSuperFramework {
        let mut config = MultiSuperConfig { shards, placement, ..Default::default() };
        // Bare tenant apiservers keep the test light.
        config.framework.operator.tenant_template = crate::framework::minimal_tenant_template();
        MultiSuperFramework::start(config)
    }

    fn ready(client: &Client, name: &str) -> bool {
        client
            .get(ResourceKind::Pod, "default", name)
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }

    fn create_ready_pod(client: &Client, name: &str) {
        client
            .create(Pod::new("default", name).with_container(Container::new("c", "i")).into())
            .unwrap();
        assert!(
            wait_until(Duration::from_secs(30), Duration::from_millis(50), || ready(client, name)),
            "pod {name} never became ready"
        );
    }

    fn super_count(member: &Framework, kind: ResourceKind) -> usize {
        member.super_cluster.system_client("observer").list(kind, None).unwrap().0.len()
    }

    #[test]
    fn tenants_spread_across_shards() {
        let multi = fast_multi(3, PlacementPolicy::LeastTenants);
        for i in 0..6 {
            multi.create_tenant(&format!("t{i}"), VirtualClusterSpec::default()).unwrap();
        }
        assert_eq!(multi.tenants_per_shard(), vec![2, 2, 2]);
        multi.shutdown();
    }

    #[test]
    fn round_robin_placement() {
        let multi = fast_multi(2, PlacementPolicy::RoundRobin);
        for i in 0..4 {
            multi.create_tenant(&format!("t{i}"), VirtualClusterSpec::default()).unwrap();
        }
        assert_eq!(multi.shard_of("t0"), Some(0));
        assert_eq!(multi.shard_of("t1"), Some(1));
        assert_eq!(multi.shard_of("t2"), Some(0));
        assert_eq!(multi.shard_of("t3"), Some(1));
        multi.shutdown();
    }

    #[test]
    fn pods_run_end_to_end_on_each_shard() {
        let multi = fast_multi(2, PlacementPolicy::RoundRobin);
        multi.create_tenant("even", VirtualClusterSpec::default()).unwrap();
        multi.create_tenant("odd", VirtualClusterSpec::default()).unwrap();
        assert_ne!(multi.shard_of("even"), multi.shard_of("odd"));

        // The tenant experience is identical on both shards.
        for tenant in ["even", "odd"] {
            create_ready_pod(&multi.tenant_client(tenant, "user"), "probe");
        }
        // Each pod landed in ITS shard's super cluster only.
        assert_eq!(super_count(&multi.members()[0], ResourceKind::Pod), 1);
        assert_eq!(super_count(&multi.members()[1], ResourceKind::Pod), 1);
        multi.shutdown();
    }

    #[test]
    fn duplicate_tenant_rejected_and_delete_cleans_shard() {
        let multi = fast_multi(2, PlacementPolicy::LeastTenants);
        multi.create_tenant("dup", VirtualClusterSpec::default()).unwrap();
        assert!(multi
            .create_tenant("dup", VirtualClusterSpec::default())
            .unwrap_err()
            .is_already_exists());
        assert_eq!(multi.tenants_per_shard().iter().sum::<usize>(), 1, "no second placement");

        create_ready_pod(&multi.tenant_client("dup", "user"), "p");
        let shard = multi.shard_of("dup").unwrap();
        multi.delete_tenant("dup").unwrap();
        assert!(multi.shard_of("dup").is_none());
        assert!(multi.members()[shard].registry.get("dup").is_none());
        assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
            super_count(&multi.members()[shard], ResourceKind::Pod) == 0
        }));
        assert!(multi.delete_tenant("dup").unwrap_err().is_not_found());
        multi.shutdown();
    }

    #[test]
    fn capacity_scales_with_shards() {
        // The point of multi-super: total capacity grows with shards while
        // tenants stay oblivious.
        let multi = fast_multi(2, PlacementPolicy::RoundRobin);
        let total_nodes: usize =
            multi.members().iter().map(|m| super_count(m, ResourceKind::Node)).sum();
        assert_eq!(total_nodes, 4, "2 shards x 2 nodes");
        multi.shutdown();
    }

    #[test]
    fn tenants_get_the_full_operator_lifecycle() {
        // Only the shared provisioning path can pass this: the VC object,
        // its Running status and the kubeconfig secret are the tenant
        // operator's work, and so is their removal.
        let multi = fast_multi(2, PlacementPolicy::RoundRobin);
        multi.create_tenant("first", VirtualClusterSpec::default()).unwrap();
        let handle = multi.create_tenant("second", VirtualClusterSpec::default()).unwrap();
        let member = &multi.members()[multi.shard_of("second").unwrap()];
        let other = &multi.members()[multi.shard_of("first").unwrap()];
        let admin = member.super_client("admin");

        assert_eq!(member.tenant_phase("second"), Some(VcPhase::Running));
        assert!(admin.get(ResourceKind::Secret, VC_MANAGER_NAMESPACE, "second-kubeconfig").is_ok());
        assert_eq!(other.tenant_phase("second"), None, "placed on exactly one member");

        create_ready_pod(&multi.tenant_client("second", "user"), "p");
        let prefixed = |client: &Client| {
            let (namespaces, _) = client.list(ResourceKind::Namespace, None).unwrap();
            namespaces.iter().filter(|ns| ns.meta().name.starts_with(&handle.prefix)).count()
        };
        assert!(prefixed(&admin) >= 1, "the pod's namespace was synced under the prefix");

        multi.delete_tenant("second").unwrap();
        assert_eq!(member.tenant_phase("second"), None, "VC object removed");
        assert!(admin
            .get(ResourceKind::Secret, VC_MANAGER_NAMESPACE, "second-kubeconfig")
            .is_err());
        let drained = || prefixed(&admin) == 0;
        assert!(
            wait_until(Duration::from_secs(20), Duration::from_millis(50), drained),
            "prefixed namespaces must be removed"
        );
        assert_eq!(multi.tenants_per_shard().iter().sum::<usize>(), 1);
        multi.shutdown();
    }
}
