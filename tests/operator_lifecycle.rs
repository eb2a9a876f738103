//! Tenant operator lifecycle tests (paper §III-B(1)): VC object
//! reconciliation, kubeconfig secrets, provisioning modes, weights, and
//! teardown.

use std::time::Duration;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{minimal_tenant_template, Framework, FrameworkConfig};
use virtualcluster::core::vc_object::{
    ProvisionMode, VcPhase, VirtualClusterSpec, VC_MANAGER_NAMESPACE,
};

#[test]
fn provisioning_publishes_status_and_kubeconfig() {
    let fw = Framework::start(FrameworkConfig::minimal());
    let handle = fw.create_tenant("op-a").unwrap();
    assert_eq!(fw.tenant_phase("op-a"), Some(VcPhase::Running));
    assert!(!handle.cert_hash.is_empty());

    // The kubeconfig credential is stored as a secret in the super
    // cluster's manager namespace so the syncer can reach the tenant.
    let secret = fw
        .super_client("admin")
        .get(ResourceKind::Secret, VC_MANAGER_NAMESPACE, "op-a-kubeconfig")
        .unwrap();
    let secret: virtualcluster::api::config::Secret = secret.try_into().unwrap();
    assert_eq!(secret.secret_type, virtualcluster::api::config::SecretType::Kubeconfig);
    let payload = String::from_utf8(secret.data["kubeconfig"].clone()).unwrap();
    assert!(payload.contains("op-a"), "{payload}");
    fw.shutdown();
}

#[test]
fn cloud_mode_pays_provisioning_latency() {
    let mut config = FrameworkConfig::minimal();
    config.operator.cloud_provision_latency = Duration::from_millis(300);
    let fw = Framework::start(config);

    let local_start = std::time::Instant::now();
    fw.create_tenant_with_spec(
        "local-t",
        VirtualClusterSpec { mode: ProvisionMode::Local, ..Default::default() },
    )
    .unwrap();
    let local_elapsed = local_start.elapsed();

    let cloud_start = std::time::Instant::now();
    fw.create_tenant_with_spec(
        "cloud-t",
        VirtualClusterSpec { mode: ProvisionMode::Cloud, ..Default::default() },
    )
    .unwrap();
    let cloud_elapsed = cloud_start.elapsed();

    assert!(
        cloud_elapsed >= local_elapsed + Duration::from_millis(200),
        "cloud provisioning must pay the managed-control-plane latency: local={local_elapsed:?} cloud={cloud_elapsed:?}"
    );
    fw.shutdown();
}

#[test]
fn cloud_onboarding_overlaps_across_workers() {
    // Eight Cloud-mode tenants each pay 1s of simulated provisioning
    // latency. With four reconcile workers those sleeps overlap: each
    // virtual-time tick releases a whole parked batch, so the wave
    // finishes in strictly fewer ticks than the serial path, which pays
    // one tick per tenant (8 total).
    let clock = virtualcluster::api::time::SimClock::new();
    let mut config = FrameworkConfig::minimal();
    config.clock = Some(clock.clone() as _);
    config.operator.cloud_provision_latency = Duration::from_secs(1);
    config.operator.onboard_workers = 4;
    let fw = Framework::start(config);

    let admin = fw.super_client("vc-admin");
    for i in 0..8 {
        admin
            .create(
                virtualcluster::core::vc_object::VirtualCluster::new(VirtualClusterSpec {
                    mode: ProvisionMode::Cloud,
                    ..Default::default()
                })
                .into_custom_object(format!("cloud-{i}"))
                .into(),
            )
            .unwrap();
    }

    // Give the workers real time to dequeue and park on the virtual
    // clock, then release them tick by tick.
    let mut ticks = 0;
    while fw.registry.len() < 8 {
        std::thread::sleep(Duration::from_millis(150));
        clock.advance(Duration::from_secs(1));
        ticks += 1;
        assert!(ticks <= 7, "parallel onboarding must beat the 8-tick serial bound");
    }
    assert_eq!(fw.registry.len(), 8);
    fw.shutdown();
}

#[test]
fn custom_weight_reaches_the_fair_queue() {
    let fw = Framework::start(FrameworkConfig::minimal());
    let handle = fw
        .create_tenant_with_spec("heavy", VirtualClusterSpec { weight: 5, ..Default::default() })
        .unwrap();
    assert_eq!(handle.weight, 5);
    fw.shutdown();
}

#[test]
fn teardown_cleans_everything() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("doomed").unwrap();
    let tenant = fw.tenant_client("doomed", "user");
    tenant
        .create(Pod::new("default", "w").with_container(Container::new("c", "i")).into())
        .unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        tenant
            .get(ResourceKind::Pod, "default", "w")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));
    let prefix = fw.registry.get("doomed").unwrap().prefix.clone();

    fw.delete_tenant("doomed").unwrap();
    assert!(fw.registry.get("doomed").is_none());
    let super_client = fw.super_client("admin");
    // Prefixed namespaces drained and removed; kubeconfig secret gone; VC
    // object gone.
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(100), || {
        super_client.get(ResourceKind::Namespace, "", &format!("{prefix}-default")).is_err()
    }));
    assert!(super_client
        .get(ResourceKind::Secret, VC_MANAGER_NAMESPACE, "doomed-kubeconfig")
        .is_err());
    assert!(super_client.get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, "doomed").is_err());
    fw.shutdown();
}

#[test]
fn many_tenants_one_syncer() {
    // The centralized design: one syncer instance serves all control
    // planes.
    let fw = Framework::start(FrameworkConfig::minimal());
    for i in 0..8 {
        fw.create_tenant(&format!("multi-{i}")).unwrap();
    }
    assert_eq!(fw.registry.len(), 8);
    assert_eq!(fw.syncer.tenant_names().len(), 8);
    // Every tenant works through the same syncer.
    for i in 0..8 {
        let tenant = fw.tenant_client(&format!("multi-{i}"), "u");
        tenant
            .create(Pod::new("default", "probe").with_container(Container::new("c", "i")).into())
            .unwrap();
    }
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        (0..8).all(|i| {
            fw.tenant_client(&format!("multi-{i}"), "u")
                .get(ResourceKind::Pod, "default", "probe")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        })
    }));
    fw.shutdown();
}

#[test]
fn crd_instances_sync_when_enabled() {
    // Paper future work (§V "Synchronizing CRDs"), implemented: a tenant
    // CRD marked sync_to_super + a VC with sync_crds flows instances to
    // the super cluster.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant_with_spec(
        "crd-sync",
        VirtualClusterSpec { sync_crds: true, ..Default::default() },
    )
    .unwrap();
    let tenant = fw.tenant_client("crd-sync", "user");
    tenant
        .create(
            virtualcluster::api::crd::CustomResourceDefinition::new(
                "tensorjobs.ai.example.com",
                "TensorJob",
            )
            .with_sync_to_super()
            .into(),
        )
        .unwrap();
    tenant
        .create(
            virtualcluster::api::crd::CustomObject::new(
                "default",
                "train-1",
                "TensorJob",
                r#"{"gpus":8}"#,
            )
            .into(),
        )
        .unwrap();

    let prefix = fw.registry.get("crd-sync").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
        super_client
            .get(ResourceKind::CustomObject, &format!("{prefix}-default"), "train-1")
            .is_ok()
    }));

    // A CRD without the sync flag stays tenant-local.
    tenant
        .create(
            virtualcluster::api::crd::CustomResourceDefinition::new(
                "privatethings.example.com",
                "PrivateThing",
            )
            .into(),
        )
        .unwrap();
    tenant
        .create(
            virtualcluster::api::crd::CustomObject::new("default", "mine", "PrivateThing", "{}")
                .into(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_secs(1));
    assert!(super_client
        .get(ResourceKind::CustomObject, &format!("{prefix}-default"), "mine")
        .is_err());
    fw.shutdown();
}

#[test]
fn each_cluster_watches_a_kind_once_per_informer_owner() {
    // One list/watch per (cluster, kind) for the cluster's own components,
    // plus the syncer's and the operator's, which run apart from the
    // cluster they watch. Super: 9 kinds for the scheduler, controllers
    // and kubelets, 13 for the syncer, 1 for the operator. Default tenant:
    // 5 kinds for its controllers, 10 for the syncer. Bare tenant: the
    // syncer's 10.
    let watches = |fw: &Framework, tenant: &str| {
        let handle = fw.create_tenant(tenant).unwrap();
        let super_watches = fw.super_cluster.apiserver.store().watcher_count();
        (super_watches, handle.cluster.apiserver.store().watcher_count())
    };
    let fw = Framework::start(FrameworkConfig::minimal());
    assert_eq!(watches(&fw, "watched"), (23, 15));
    fw.shutdown();

    let mut config = FrameworkConfig::minimal();
    config.operator.tenant_template = minimal_tenant_template();
    let fw = Framework::start(config);
    assert_eq!(watches(&fw, "bare"), (23, 10));
    fw.shutdown();
}
