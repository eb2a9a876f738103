//! The tenant operator (paper §III-B(1)).
//!
//! Reconciles `VirtualCluster` objects in the super cluster: provisions a
//! dedicated tenant control plane (local in-process mode, or a simulated
//! managed-cloud mode with provisioning latency), generates the tenant's
//! client certificate, stores the kubeconfig credential as a secret in the
//! super cluster so the syncer can reach every tenant control plane, and
//! tears everything down when the VC object is deleted.

use crate::mapping;
use crate::registry::{generate_cert, TenantHandle, TenantRegistry};
use crate::syncer::Syncer;
use crate::vc_object::{ProvisionMode, VcPhase, VirtualCluster, VC_KIND, VC_MANAGER_NAMESPACE};
use std::sync::Arc;
use std::time::Duration;
use vc_api::config::{Secret, SecretType};
use vc_api::crd::CustomObject;
use vc_api::error::ApiError;
use vc_api::metrics::Counter;
use vc_api::object::{Object, ResourceKind};
use vc_api::time::Clock;
use vc_client::{Client, InformerConfig, SharedInformer, WorkQueue};
use vc_controllers::util::{retry_on_conflict, ControllerHandle};
use vc_controllers::{Cluster, ClusterConfig};

/// Finalizer ensuring tenant teardown happens before the VC object
/// disappears.
pub const VC_FINALIZER: &str = "virtualcluster.io/vc-protection";

/// Tenant operator configuration.
#[derive(Clone)]
pub struct TenantOperatorConfig {
    /// Extra provisioning latency for [`ProvisionMode::Cloud`] tenants
    /// (managed control planes like ACK/EKS take time to come up).
    pub cloud_provision_latency: Duration,
    /// Template for tenant control planes; the operator sets the name.
    pub tenant_template: ClusterConfig,
    /// Reconcile workers pulling from the shared work queue. The queue's
    /// dirty/processing protocol guarantees a VC name is never reconciled
    /// by two workers at once, so onboarding waves provision up to this
    /// many tenant control planes concurrently (cloud provisioning
    /// latency overlaps instead of serializing).
    pub onboard_workers: usize,
}

impl std::fmt::Debug for TenantOperatorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantOperatorConfig")
            .field("cloud_provision_latency", &self.cloud_provision_latency)
            .field("onboard_workers", &self.onboard_workers)
            .finish()
    }
}

impl Default for TenantOperatorConfig {
    fn default() -> Self {
        TenantOperatorConfig {
            cloud_provision_latency: Duration::from_millis(500),
            tenant_template: ClusterConfig::tenant("tenant-template"),
            onboard_workers: 4,
        }
    }
}

/// Operator metrics.
#[derive(Debug, Default)]
pub struct OperatorMetrics {
    /// Tenant control planes provisioned.
    pub provisioned: Counter,
    /// Tenant control planes torn down.
    pub torn_down: Counter,
}

/// Starts the tenant operator.
pub fn start(
    super_client: Client,
    registry: Arc<TenantRegistry>,
    syncer: Arc<Syncer>,
    clock: Arc<dyn Clock>,
    config: TenantOperatorConfig,
) -> (ControllerHandle, Arc<OperatorMetrics>) {
    let mut handle = ControllerHandle::new("tenant-operator");
    let metrics = Arc::new(OperatorMetrics::default());
    let queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());

    // Ensure the manager namespace exists.
    match super_client.create(vc_api::namespace::Namespace::new(VC_MANAGER_NAMESPACE).into()) {
        Ok(_) | Err(ApiError::AlreadyExists { .. }) => {}
        Err(e) => panic!("cannot bootstrap {VC_MANAGER_NAMESPACE}: {e}"),
    }

    let informer =
        SharedInformer::new(super_client.clone(), InformerConfig::new(ResourceKind::CustomObject));
    {
        let queue = Arc::clone(&queue);
        informer.add_handler(Box::new(move |event| {
            let obj = event.object();
            if let Object::CustomObject(custom) = &**obj {
                if custom.kind == VC_KIND && custom.meta.namespace == VC_MANAGER_NAMESPACE {
                    queue.add(custom.meta.name.clone());
                }
            }
        }));
    }
    let informer = SharedInformer::start(informer);
    informer.wait_for_sync(Duration::from_secs(10));
    let cache = Arc::clone(informer.cache());
    handle.on_stop(move || informer.stop());

    {
        let metrics = Arc::clone(&metrics);
        let workers = config.onboard_workers;
        handle.workers("tenant-operator", workers, 1, &queue, move |name| {
            reconcile(name, &super_client, &cache, &registry, &syncer, &clock, &config, &metrics)
        });
    }
    (handle, metrics)
}

#[allow(clippy::too_many_arguments)]
fn reconcile(
    name: &str,
    super_client: &Client,
    cache: &vc_client::Cache,
    registry: &Arc<TenantRegistry>,
    syncer: &Arc<Syncer>,
    clock: &Arc<dyn Clock>,
    config: &TenantOperatorConfig,
    metrics: &OperatorMetrics,
) {
    let key = format!("{VC_MANAGER_NAMESPACE}/{name}");
    let Some(obj) = cache.get(&key) else {
        // Deleted without a finalizer (legacy path): best-effort cleanup.
        teardown(name, super_client, registry, syncer, metrics);
        return;
    };
    let Object::CustomObject(custom) = &*obj else { return };
    let Ok(vc) = VirtualCluster::from_custom_object(custom) else { return };

    if custom.meta.is_terminating() {
        teardown(name, super_client, registry, syncer, metrics);
        // Release the finalizer so the apiserver can remove the object.
        let _ = retry_on_conflict(5, || {
            let fresh = super_client.get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, name)?;
            let mut fresh: CustomObject = fresh.try_into()?;
            fresh.meta.remove_finalizer(VC_FINALIZER);
            super_client.update(fresh.into()).map(|_| ())
        });
        return;
    }

    if registry.get(name).is_some() {
        return; // already provisioned
    }
    if vc.status.phase == VcPhase::Failed {
        return;
    }

    // Provision.
    if vc.spec.mode == ProvisionMode::Cloud {
        clock.sleep(config.cloud_provision_latency);
    }
    let mut cluster_config = config.tenant_template.clone();
    cluster_config.name = name.to_string();
    let cluster = Arc::new(Cluster::start_with_clock(cluster_config, Arc::clone(clock)));

    let (cert, cert_hash) = generate_cert(name);
    let prefix = mapping::namespace_prefix(name, &custom.meta.uid);

    // Store the kubeconfig credential in the super cluster (paper: "it
    // also stores the kubeconfig … of each tenant control plane in the
    // super cluster so that the syncer controller can access all tenant
    // control planes").
    let kubeconfig_secret_name = format!("{name}-kubeconfig");
    let kubeconfig = serde_json::json!({
        "cluster": name,
        "server": format!("https://{name}.tenants.local:6443"),
        "user": format!("{name}-admin"),
        "client-certificate-data": vc_api::sha256::to_hex(&cert),
    });
    let secret = Secret::new(VC_MANAGER_NAMESPACE, kubeconfig_secret_name.clone())
        .with_type(SecretType::Kubeconfig)
        .with_entry("kubeconfig", kubeconfig.to_string().into_bytes());
    match super_client.create(secret.into()) {
        Ok(_) | Err(ApiError::AlreadyExists { .. }) => {}
        Err(_) => {}
    }

    let tenant_handle = Arc::new(TenantHandle {
        name: name.to_string(),
        prefix: prefix.clone(),
        cluster,
        cert,
        cert_hash: cert_hash.clone(),
        weight: vc.spec.weight.max(1),
        sync_crds: vc.spec.sync_crds,
    });
    registry.insert(Arc::clone(&tenant_handle));
    syncer.register_tenant(tenant_handle);
    metrics.provisioned.inc();

    // Publish Running status + protection finalizer.
    let _ = retry_on_conflict(5, || {
        let fresh = super_client.get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, name)?;
        let mut fresh: CustomObject = fresh.try_into()?;
        let mut vc = VirtualCluster::from_custom_object(&fresh)?;
        vc.status.phase = VcPhase::Running;
        vc.status.message = "tenant control plane provisioned".into();
        vc.status.cert_hash = cert_hash.clone();
        vc.status.kubeconfig_secret = kubeconfig_secret_name.clone();
        vc.status.namespace_prefix = prefix.clone();
        vc.write_into(&mut fresh);
        fresh.meta.add_finalizer(VC_FINALIZER);
        super_client.update(fresh.into()).map(|_| ())
    });
}

fn teardown(
    name: &str,
    super_client: &Client,
    registry: &Arc<TenantRegistry>,
    syncer: &Arc<Syncer>,
    metrics: &OperatorMetrics,
) {
    let Some(handle) = registry.remove(name) else { return };
    syncer.unregister_tenant(name);
    handle.cluster.shutdown();

    // Remove this tenant's prefixed namespaces from the super cluster; the
    // namespace controller drains their contents.
    if let Ok((namespaces, _)) = super_client.list(ResourceKind::Namespace, None) {
        for ns in namespaces {
            if mapping::owner_cluster(&ns) == Some(name) {
                let _ = super_client.delete(ResourceKind::Namespace, "", &ns.meta().name);
            }
        }
    }
    let _ = super_client.delete(
        ResourceKind::Secret,
        VC_MANAGER_NAMESPACE,
        &format!("{name}-kubeconfig"),
    );
    metrics.torn_down.inc();
}
