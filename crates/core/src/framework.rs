//! Top-level assembly: one super cluster + tenant operator + syncer +
//! vn-agents — the complete VirtualCluster deployment of the paper's
//! Fig 4. This is the entry point the examples, integration tests and
//! benches build on.

use crate::operator::{OperatorMetrics, TenantOperatorConfig};
use crate::registry::{TenantHandle, TenantRegistry};
use crate::syncer::{Syncer, SyncerConfig};
use crate::vc_object::{VcPhase, VirtualCluster, VirtualClusterSpec, VC_MANAGER_NAMESPACE};
use crate::vn_agent::VnAgent;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::ResourceKind;
use vc_api::time::{Clock, RealClock};
use vc_client::{Client, FaultInjector, FaultPolicy};
use vc_controllers::util::{wait_until, ControllerHandle};
use vc_controllers::{Cluster, ClusterConfig};
use vc_store::DurabilityConfig;

/// Framework configuration.
#[derive(Clone)]
pub struct FrameworkConfig {
    /// Super-cluster composition.
    pub super_cluster: ClusterConfig,
    /// Number of mock-instant virtual-kubelet nodes to register (the paper
    /// uses 100).
    pub mock_nodes: u32,
    /// Syncer configuration.
    pub syncer: SyncerConfig,
    /// Tenant operator configuration.
    pub operator: TenantOperatorConfig,
    /// Fault policy armed against the super apiserver at start (chaos
    /// tests); `None` disables injection.
    pub super_faults: Option<FaultPolicy>,
    /// Clock the whole deployment runs on — apiserver timestamps, syncer
    /// timers, breaker windows, fault-rule windows. `None` means the wall
    /// clock; tests inject a [`vc_api::time::SimClock`] to script
    /// timelines deterministically.
    pub clock: Option<Arc<dyn Clock>>,
    /// Durability for the super cluster's store: when set, super-cluster
    /// state is written through a WAL in the given directory and a
    /// framework started later on the same directory resumes it in place
    /// (crash-restart chaos tests exercise this). `None` keeps the store
    /// in-memory, matching the paper's simulation default.
    pub durability: Option<DurabilityConfig>,
}

impl std::fmt::Debug for FrameworkConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameworkConfig").field("mock_nodes", &self.mock_nodes).finish()
    }
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            super_cluster: ClusterConfig::super_cluster("super"),
            mock_nodes: 4,
            syncer: SyncerConfig::default(),
            operator: TenantOperatorConfig::default(),
            super_faults: None,
            clock: None,
            durability: None,
        }
    }
}

impl FrameworkConfig {
    /// A small fast configuration for tests and examples.
    pub fn minimal() -> Self {
        let mut config = FrameworkConfig {
            super_cluster: ClusterConfig::super_cluster("super").with_zero_latency(),
            mock_nodes: 2,
            ..Default::default()
        };
        config.syncer.downward_workers = 4;
        config.syncer.upward_workers = 4;
        config.syncer.scan_interval = Some(Duration::from_millis(500));
        config.syncer.vnode_heartbeat_interval = Duration::from_millis(200);
        config.operator.cloud_provision_latency = Duration::ZERO;
        config.operator.tenant_template =
            ClusterConfig::tenant("tenant-template").with_zero_latency();
        config
    }
}

/// Tenant control plane template with no controllers (bare apiserver) —
/// what the stress benches use for speed, mirroring the paper's load
/// generator which talks straight to tenant apiservers.
pub fn minimal_tenant_template() -> ClusterConfig {
    let mut template = ClusterConfig::tenant("tenant-template").with_zero_latency();
    template.workload_controllers = false;
    template.service_controller = false;
    template.namespace_controller = false;
    template.garbage_collector = false;
    template
}

/// A running VirtualCluster deployment.
pub struct Framework {
    /// Shared clock (super cluster and all tenants stamp with it, so
    /// timestamps are comparable).
    pub clock: Arc<dyn Clock>,
    /// The super cluster.
    pub super_cluster: Arc<Cluster>,
    /// Registry of provisioned tenants.
    pub registry: Arc<TenantRegistry>,
    /// The centralized syncer.
    pub syncer: Arc<Syncer>,
    /// Operator metrics.
    pub operator_metrics: Arc<OperatorMetrics>,
    operator_handle: Mutex<Option<ControllerHandle>>,
    admin: Client,
}

impl std::fmt::Debug for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Framework").field("tenants", &self.registry.len()).finish()
    }
}

impl Framework {
    /// Starts the full deployment.
    pub fn start(config: FrameworkConfig) -> Framework {
        let clock: Arc<dyn Clock> = config.clock.clone().unwrap_or_else(RealClock::shared);
        let mut super_config = config.super_cluster.clone();
        super_config.apiserver.durability = config.durability.clone();
        let super_cluster = Arc::new(Cluster::start_with_clock(super_config, Arc::clone(&clock)));
        super_cluster.add_mock_nodes(config.mock_nodes).expect("register mock nodes");
        if let Some(policy) = &config.super_faults {
            let injector = FaultInjector::from_policy_with_clock(policy, Arc::clone(&clock));
            injector.arm();
            super_cluster.apiserver.set_fault_hook(injector);
        }

        let registry = TenantRegistry::new();
        let syncer = Syncer::start_with_clock(
            super_cluster.system_client("vc-syncer"),
            config.syncer.clone(),
            Arc::clone(&clock),
        );
        let (operator_handle, operator_metrics) = crate::operator::start(
            super_cluster.system_client("vc-operator"),
            Arc::clone(&registry),
            Arc::clone(&syncer),
            Arc::clone(&clock),
            config.operator,
        );
        let admin = super_cluster.client("vc-admin");
        Framework {
            clock,
            super_cluster,
            registry,
            syncer,
            operator_metrics,
            operator_handle: Mutex::new(Some(operator_handle)),
            admin,
        }
    }

    /// Creates a tenant with the default spec and waits for it to be
    /// provisioned.
    ///
    /// # Errors
    ///
    /// [`ApiError::Timeout`] when provisioning does not finish in time.
    pub fn create_tenant(&self, name: &str) -> ApiResult<Arc<TenantHandle>> {
        self.create_tenant_with_spec(name, VirtualClusterSpec::default())
    }

    /// Creates a tenant with an explicit spec and waits for provisioning.
    ///
    /// # Errors
    ///
    /// [`ApiError::Timeout`] when provisioning does not finish in time.
    pub fn create_tenant_with_spec(
        &self,
        name: &str,
        spec: VirtualClusterSpec,
    ) -> ApiResult<Arc<TenantHandle>> {
        let vc = VirtualCluster::new(spec);
        self.admin.create(vc.into_custom_object(name).into())?;
        // Provisioning takes a millisecond or two now that a control
        // plane's informers start without a thread each; a coarser poll
        // would be most of what onboarding a tenant costs.
        let poll = Duration::from_millis(1);
        let provisioned =
            wait_until(Duration::from_secs(30), poll, || self.registry.get(name).is_some());
        if !provisioned {
            return Err(ApiError::timeout(format!("tenant {name} was not provisioned")));
        }
        // Wait for the Running status to be published too.
        wait_until(Duration::from_secs(10), poll, || {
            self.tenant_phase(name) == Some(VcPhase::Running)
        });
        self.registry
            .get(name)
            .ok_or_else(|| ApiError::internal("tenant vanished after provisioning"))
    }

    /// Reads a tenant's current VC phase.
    pub fn tenant_phase(&self, name: &str) -> Option<VcPhase> {
        let obj = self.admin.get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, name).ok()?;
        let custom: vc_api::crd::CustomObject = obj.try_into().ok()?;
        VirtualCluster::from_custom_object(&custom).ok().map(|vc| vc.status.phase)
    }

    /// Deletes a tenant and waits for teardown.
    ///
    /// # Errors
    ///
    /// Propagates apiserver errors; [`ApiError::Timeout`] when teardown
    /// stalls.
    pub fn delete_tenant(&self, name: &str) -> ApiResult<()> {
        self.admin.delete(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, name)?;
        // The operator releases the protection finalizer only after
        // teardown (registry removal, syncer unregistration, metric-cell
        // reclamation) has completed, so waiting for the VC object to
        // disappear waits for the whole teardown — not just the registry
        // removal that happens first. With several reconcile workers the
        // two can otherwise be hundreds of milliseconds apart.
        let gone = wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
            self.registry.get(name).is_none()
                && self.admin.get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, name).is_err()
        });
        if gone {
            Ok(())
        } else {
            Err(ApiError::timeout(format!("tenant {name} teardown stalled")))
        }
    }

    /// A client to a tenant's control plane.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not provisioned.
    pub fn tenant_client(&self, tenant: &str, user: impl Into<String>) -> Client {
        self.registry.get(tenant).expect("tenant provisioned").client(user)
    }

    /// A client to the super cluster (administrator only — tenants are
    /// disallowed from accessing it).
    pub fn super_client(&self, user: impl Into<String>) -> Client {
        self.super_cluster.client(user)
    }

    /// The deployment's observability plane (request tracer + unified
    /// metrics registry), shared by the syncer and every attached
    /// apiserver.
    pub fn obs(&self) -> &Arc<vc_obs::Observability> {
        &self.syncer.obs
    }

    /// Arms a fault policy against the super apiserver, replacing any
    /// previous one. Returns the injector for inspecting fault counters.
    pub fn inject_super_faults(&self, policy: &FaultPolicy) -> Arc<FaultInjector> {
        let injector = FaultInjector::from_policy_with_clock(policy, Arc::clone(&self.clock));
        injector.arm();
        self.super_cluster.apiserver.set_fault_hook(Arc::clone(&injector) as _);
        injector
    }

    /// Removes any fault policy from the super apiserver.
    pub fn clear_super_faults(&self) {
        self.super_cluster.apiserver.clear_fault_hook();
    }

    /// Arms a fault policy against one tenant's apiserver (a scripted
    /// tenant-control-plane outage), replacing any previous one. Returns
    /// the injector for inspecting fault counters.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not provisioned.
    pub fn inject_tenant_faults(&self, tenant: &str, policy: &FaultPolicy) -> Arc<FaultInjector> {
        let handle = self.registry.get(tenant).expect("tenant provisioned");
        let injector = FaultInjector::from_policy_with_clock(policy, Arc::clone(&self.clock));
        injector.arm();
        handle.cluster.apiserver.set_fault_hook(Arc::clone(&injector) as _);
        injector
    }

    /// Removes any fault policy from a tenant's apiserver.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not provisioned.
    pub fn clear_tenant_faults(&self, tenant: &str) {
        let handle = self.registry.get(tenant).expect("tenant provisioned");
        handle.cluster.apiserver.clear_fault_hook();
    }

    /// Installs the paper's threat-model enforcement on the super cluster:
    /// every synced tenant pod is forced to run under the Kata sandbox
    /// runtime ("containers are not safe … the service provider needs to
    /// run them using sandbox runtime", §III-A), regardless of the runtime
    /// class the tenant requested.
    pub fn enforce_sandbox_runtime(&self) {
        self.super_cluster.apiserver.add_admission_plugin(Box::new(
            vc_apiserver::admission::SandboxEnforcer {
                marker_annotation: crate::mapping::CLUSTER_ANNOTATION.into(),
            },
        ));
    }

    /// Installs the adversarial-tenant isolation policy on the super
    /// cluster apiserver: synced tenant objects requesting host access,
    /// privileged containers, scheduling forgery against reserved vNode
    /// labels, cross-tenant references, or oversized payloads are rejected
    /// with a typed policy rule ([`vc_api::error::ApiError::policy_rule`])
    /// and counted in `vc_admission_rejections_total{rule,tenant}`.
    pub fn enforce_tenant_isolation(&self) {
        self.super_cluster.apiserver.add_admission_plugin(Box::new(
            vc_apiserver::admission::TenantIsolation::new(
                crate::mapping::CLUSTER_ANNOTATION,
                crate::mapping::TENANT_NAMESPACE_ANNOTATION,
            )
            .with_metrics(&self.obs().registry),
        ));
    }

    /// Builds the vn-agent for `node_name`.
    ///
    /// # Panics
    ///
    /// Panics when no kubelet manages that node.
    pub fn vn_agent(&self, node_name: &str) -> VnAgent {
        let kubelet = self
            .super_cluster
            .kubelets()
            .into_iter()
            .find(|k| k.node_name() == node_name)
            .expect("node exists");
        VnAgent::new(kubelet, Arc::clone(&self.registry))
    }

    /// Stops everything: operator, syncer, tenants, super cluster.
    pub fn shutdown(&self) {
        if let Some(mut handle) = self.operator_handle.lock().take() {
            handle.stop();
        }
        self.syncer.stop();
        for tenant in self.registry.list() {
            tenant.cluster.shutdown();
        }
        self.super_cluster.shutdown();
    }
}

impl Drop for Framework {
    fn drop(&mut self) {
        self.shutdown();
    }
}
