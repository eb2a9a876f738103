//! End-to-end tests of the full VirtualCluster pipeline: tenant control
//! plane → syncer (downward) → super-cluster scheduler + kubelet → syncer
//! (upward) → tenant status.

use std::time::Duration;
use vc_api::object::ResourceKind;
use vc_api::pod::{Container, Pod};
use vc_controllers::util::wait_until;
use vc_core::framework::{Framework, FrameworkConfig};
use vc_obs::stage;

fn framework() -> Framework {
    Framework::start(FrameworkConfig::minimal())
}

fn simple_pod(ns: &str, name: &str) -> Pod {
    Pod::new(ns, name).with_container(
        Container::new("app", "nginx:1.19")
            .with_requests(vc_api::quantity::resource_list(&[("cpu", "100m")])),
    )
}

#[test]
fn tenant_pod_runs_end_to_end() {
    let fw = framework();
    fw.create_tenant("tenant-a").unwrap();
    let tenant = fw.tenant_client("tenant-a", "alice");

    tenant.create(simple_pod("default", "web-0").into()).unwrap();

    // The pod becomes Ready in the TENANT control plane.
    assert!(
        wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
            tenant
                .get(ResourceKind::Pod, "default", "web-0")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }),
        "tenant pod never became ready; downward={} upward={}",
        fw.syncer.downward_len(),
        fw.syncer.upward_len()
    );

    let pod = tenant.get(ResourceKind::Pod, "default", "web-0").unwrap();
    let pod = pod.as_pod().unwrap().clone();
    // Bound to a vNode that exists in the tenant control plane.
    assert!(pod.spec.is_bound());
    let vnode = tenant.get(ResourceKind::Node, "", &pod.spec.node_name).unwrap();
    assert!(vnode.as_node().unwrap().is_vnode());
    assert_eq!(vnode.as_node().unwrap().vnode_source(), Some(pod.spec.node_name.as_str()));
    assert!(!pod.status.pod_ip.is_empty());

    // The super-cluster copy lives in a prefixed namespace.
    let prefix = &fw.registry.get("tenant-a").unwrap().prefix;
    let super_client = fw.super_client("admin");
    let super_ns = format!("{prefix}-default");
    let super_pod = super_client.get(ResourceKind::Pod, &super_ns, "web-0").unwrap();
    assert_eq!(super_pod.meta().annotations["virtualcluster.io/cluster"], "tenant-a");

    fw.shutdown();
}

#[test]
fn pod_ahead_of_its_namespace_creates_the_namespace() {
    // With namespaces not synced, every pod reaches the super cluster
    // before its namespace does, and the downward create makes it.
    let mut config = FrameworkConfig::minimal();
    config.syncer.downward_kinds = vec![ResourceKind::Pod];
    let fw = Framework::start(config);
    fw.create_tenant("tenant-ns").unwrap();
    let tenant = fw.tenant_client("tenant-ns", "nina");
    tenant.create(simple_pod("default", "early").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "early")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));

    let prefix = &fw.registry.get("tenant-ns").unwrap().prefix;
    let super_client = fw.super_client("admin");
    let super_ns = format!("{prefix}-default");
    let ns = super_client.get(ResourceKind::Namespace, "", &super_ns).unwrap();
    assert_eq!(ns.meta().annotations["virtualcluster.io/cluster"], "tenant-ns");
    let super_pod = super_client.get(ResourceKind::Pod, &super_ns, "early").unwrap();
    assert_eq!(super_pod.meta().annotations["virtualcluster.io/cluster"], "tenant-ns");
    fw.shutdown();
}

#[test]
fn tenant_deletion_cleans_super_cluster() {
    let fw = framework();
    fw.create_tenant("tenant-b").unwrap();
    let tenant = fw.tenant_client("tenant-b", "bob");
    tenant.create(simple_pod("default", "doomed").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "doomed")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));

    // Delete the pod in the tenant: the super copy must follow.
    let prefix = fw.registry.get("tenant-b").unwrap().prefix.clone();
    let super_ns = format!("{prefix}-default");
    let super_client = fw.super_client("admin");
    tenant.delete(ResourceKind::Pod, "default", "doomed").unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        super_client.get(ResourceKind::Pod, &super_ns, "doomed").is_err()
    }));

    // Delete the whole tenant: prefixed namespaces disappear.
    fw.delete_tenant("tenant-b").unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(50), || {
        super_client.get(ResourceKind::Namespace, "", &super_ns).is_err()
    }));
    fw.shutdown();
}

#[test]
fn two_tenants_same_namespace_no_collision() {
    let fw = framework();
    fw.create_tenant("red").unwrap();
    fw.create_tenant("blue").unwrap();
    let red = fw.tenant_client("red", "r");
    let blue = fw.tenant_client("blue", "b");

    // Both tenants use default/app — full API compatibility, no
    // negotiation needed.
    red.create(simple_pod("default", "app").into()).unwrap();
    blue.create(simple_pod("default", "app").into()).unwrap();

    for client in [&red, &blue] {
        assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
            client
                .get(ResourceKind::Pod, "default", "app")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }));
    }

    // Isolation: red cannot see blue's pod in its own control plane.
    let (red_pods, _) = red.list(ResourceKind::Pod, None).unwrap();
    assert_eq!(red_pods.len(), 1);

    // In the super cluster both exist, in different prefixed namespaces.
    let super_client = fw.super_client("admin");
    let (super_pods, _) = super_client.list(ResourceKind::Pod, None).unwrap();
    assert_eq!(super_pods.len(), 2);
    let namespaces: std::collections::HashSet<String> =
        super_pods.iter().map(|p| p.meta().namespace.clone()).collect();
    assert_eq!(namespaces.len(), 2);
    fw.shutdown();
}

#[test]
fn tenant_namespace_and_secret_sync() {
    let fw = framework();
    fw.create_tenant("tenant-c").unwrap();
    let tenant = fw.tenant_client("tenant-c", "carol");

    tenant.create(vc_api::namespace::Namespace::new("team").into()).unwrap();
    tenant
        .create(vc_api::config::Secret::new("team", "creds").with_entry("k", vec![1]).into())
        .unwrap();
    let mut pod = simple_pod("team", "worker");
    pod.spec.secret_names.push("creds".into());
    tenant.create(pod.into()).unwrap();

    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "team", "worker")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));

    // Secret and namespace exist in the super cluster under the prefix.
    let prefix = fw.registry.get("tenant-c").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    let super_ns = format!("{prefix}-team");
    assert!(super_client.get(ResourceKind::Namespace, "", &super_ns).is_ok());
    assert!(super_client.get(ResourceKind::Secret, &super_ns, "creds").is_ok());
    fw.shutdown();
}

#[test]
fn pod_update_propagates_downward() {
    let fw = framework();
    fw.create_tenant("tenant-d").unwrap();
    let tenant = fw.tenant_client("tenant-d", "dave");
    let created = tenant.create(simple_pod("default", "mutable").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "mutable")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));

    // Tenant adds a label; the super copy follows.
    let mut pod: Pod = created.try_into().unwrap();
    pod.meta.resource_version = 0;
    pod.meta.labels.insert("tier".into(), "gold".into());
    tenant.update(pod.into()).unwrap();

    let prefix = fw.registry.get("tenant-d").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    let super_ns = format!("{prefix}-default");
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        super_client
            .get(ResourceKind::Pod, &super_ns, "mutable")
            .is_ok_and(|o| o.meta().labels.get("tier").map(String::as_str) == Some("gold"))
    }));
    fw.shutdown();
}

#[test]
fn scanner_repairs_manual_drift() {
    let fw = framework();
    fw.create_tenant("tenant-e").unwrap();
    let tenant = fw.tenant_client("tenant-e", "eve");
    tenant.create(simple_pod("default", "healme").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "healme")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));
    // Until the syncer's tenant informer has seen the pod's last write and
    // the syncer is quiet, an echo of its own status write may still run a
    // downward reconcile that repairs the sabotage before the scanner can.
    let cache = fw.syncer.tenant("tenant-e").unwrap().cache(ResourceKind::Pod).clone();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(5), || {
        let latest = tenant.get(ResourceKind::Pod, "default", "healme").unwrap();
        cache
            .get("default/healme")
            .is_some_and(|o| o.meta().resource_version == latest.meta().resource_version)
            && fw.syncer.is_quiet()
    }));

    // Sabotage: mutate the super copy's labels behind the syncer's back
    // (no watch event reaches a downward reconciler for super-side edits;
    // only the periodic scanner can catch this).
    let prefix = fw.registry.get("tenant-e").unwrap().prefix.clone();
    let super_ns = format!("{prefix}-default");
    let super_client = fw.super_client("admin");
    let mut rogue: Pod =
        super_client.get(ResourceKind::Pod, &super_ns, "healme").unwrap().try_into().unwrap();
    rogue.meta.labels.insert("rogue".into(), "edit".into());
    super_client.update(rogue.into()).unwrap();

    // The periodic scanner (500ms in the minimal config) restores the
    // tenant's intent.
    assert!(
        wait_until(Duration::from_secs(20), Duration::from_millis(50), || {
            super_client
                .get(ResourceKind::Pod, &super_ns, "healme")
                .is_ok_and(|o| !o.meta().labels.contains_key("rogue"))
        }),
        "scanner did not remediate the drifted super pod (scans={})",
        fw.syncer.metrics.scans.get()
    );
    assert!(fw.syncer.metrics.scan_requeues.get() >= 1);
    fw.shutdown();
}

#[test]
fn super_side_eviction_propagates_to_tenant() {
    // Deleting the super copy is an eviction: the tenant pod and its vNode
    // binding follow (pod specs' source of truth is the tenant, but a
    // super-side deletion must not leave a ghost tenant pod running).
    let fw = framework();
    fw.create_tenant("tenant-evict").unwrap();
    let tenant = fw.tenant_client("tenant-evict", "eve");
    tenant.create(simple_pod("default", "victim").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "victim")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));
    let prefix = fw.registry.get("tenant-evict").unwrap().prefix.clone();
    let super_ns = format!("{prefix}-default");
    fw.super_client("admin").delete(ResourceKind::Pod, &super_ns, "victim").unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        tenant.get(ResourceKind::Pod, "default", "victim").is_err()
    }));
    fw.shutdown();
}

#[test]
fn vnode_removed_when_last_pod_gone() {
    let fw = framework();
    fw.create_tenant("tenant-f").unwrap();
    let tenant = fw.tenant_client("tenant-f", "frank");
    tenant.create(simple_pod("default", "solo").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "solo")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));
    let node = tenant
        .get(ResourceKind::Pod, "default", "solo")
        .unwrap()
        .as_pod()
        .unwrap()
        .spec
        .node_name
        .clone();
    assert!(tenant.get(ResourceKind::Node, "", &node).is_ok());

    tenant.delete(ResourceKind::Pod, "default", "solo").unwrap();
    assert!(
        wait_until(Duration::from_secs(20), Duration::from_millis(50), || {
            tenant.get(ResourceKind::Node, "", &node).is_err()
        }),
        "vNode should be removed once no tenant pod binds to it"
    );
    fw.shutdown();
}

#[test]
fn pod_traces_carry_all_five_phases() {
    let fw = framework();
    fw.create_tenant("tenant-g").unwrap();
    let tenant = fw.tenant_client("tenant-g", "gail");
    for i in 0..5 {
        tenant.create(simple_pod("default", &format!("p{i}")).into()).unwrap();
    }
    let tracer = &fw.obs().tracer;
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
        tracer.completed.get() == 5
    }));
    for i in 0..5 {
        let trace = tracer.find("tenant-g", &format!("default/p{i}")).expect("retained trace");
        let total = trace.total.expect("finished trace");
        // The paper's five phases, first span each (the creation path):
        // all present, and together no longer than the end-to-end time.
        let phases: Duration = [
            stage::DWS_QUEUE,
            stage::DWS_PROCESS,
            stage::SUPER_SCHED,
            stage::UWS_QUEUE,
            stage::UWS_PROCESS,
        ]
        .iter()
        .map(|s| trace.span(s).unwrap_or_else(|| panic!("p{i}: no {s} span")).duration)
        .sum();
        assert!(phases <= total + Duration::from_millis(5), "phases {phases:?} vs {total:?}");
    }
    assert_eq!(tracer.open_count(), 0);
    fw.shutdown();
}

#[test]
fn cache_bytes_accounting_grows_with_pods() {
    let fw = framework();
    fw.create_tenant("tenant-h").unwrap();
    let tenant = fw.tenant_client("tenant-h", "hank");
    let before = fw.syncer.cache_bytes();
    for i in 0..10 {
        tenant.create(simple_pod("default", &format!("p{i}")).into()).unwrap();
    }
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
        fw.obs().tracer.completed.get() == 10
    }));
    let after = fw.syncer.cache_bytes();
    assert!(after > before, "informer caches must grow: {before} -> {after}");
    fw.shutdown();
}

#[test]
fn scheduler_events_flow_up_to_tenant() {
    // Events written in the super cluster about a synced pod are
    // back-populated so the tenant can `describe` its pod.
    let fw = framework();
    fw.create_tenant("tenant-events").unwrap();
    let tenant = fw.tenant_client("tenant-events", "user");
    tenant.create(simple_pod("default", "described").into()).unwrap();
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(20), || {
        tenant
            .get(ResourceKind::Pod, "default", "described")
            .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
    }));

    // A super-cluster component (e.g. the scheduler) records an event in
    // the prefixed namespace.
    let prefix = fw.registry.get("tenant-events").unwrap().prefix.clone();
    let super_ns = format!("{prefix}-default");
    let event = vc_api::event::Event::about(
        super_ns.clone(),
        "described.scheduled",
        vc_api::event::ObjectReference {
            kind: "Pod".into(),
            namespace: super_ns,
            name: "described".into(),
        },
        "Scheduled",
        "assigned described to node-1",
        fw.clock.now(),
    );
    fw.super_client("admin").create(event.into()).unwrap();

    // The tenant sees it, with the namespace mapped back.
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(50), || {
        tenant.get(ResourceKind::Event, "default", "described.scheduled").is_ok()
    }));
    let ev: vc_api::event::Event = tenant
        .get(ResourceKind::Event, "default", "described.scheduled")
        .unwrap()
        .try_into()
        .unwrap();
    assert_eq!(ev.involved_object.namespace, "default");
    assert_eq!(ev.reason, "Scheduled");
    fw.shutdown();
}

#[test]
fn load_balancer_status_flows_up() {
    // A LoadBalancer service synced downward gets its ingress IP from the
    // super cluster's service controller; the status flows back.
    let fw = framework();
    fw.create_tenant("tenant-lb").unwrap();
    let tenant = fw.tenant_client("tenant-lb", "user");
    let mut svc = vc_api::service::Service::new("default", "edge")
        .with_port(vc_api::service::ServicePort::tcp(443, 8443));
    svc.spec.service_type = vc_api::service::ServiceType::LoadBalancer;
    tenant.create(svc.into()).unwrap();

    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            tenant
                .get(ResourceKind::Service, "default", "edge")
                .ok()
                .and_then(|o| o.as_service().cloned())
                .is_some_and(|s| !s.status.load_balancer_ip.is_empty())
        }),
        "LB ingress IP should be provisioned in the super cluster and synced up"
    );
    fw.shutdown();
}

#[test]
fn fifty_idle_tenants_shut_down_at_once() {
    // Stopping an informer is de-registration from the reflector pool, not
    // a join that waits out a poll interval — so tearing down 500 tenant
    // informers is not half a minute of serial joins.
    let mut config = FrameworkConfig::minimal();
    config.operator.tenant_template = vc_core::framework::minimal_tenant_template();
    let fw = Framework::start(config);
    for i in 0..50 {
        fw.create_tenant(&format!("idle-{i}")).unwrap();
    }
    let informers: usize = fw
        .syncer
        .tenant_names()
        .iter()
        .filter_map(|name| fw.syncer.tenant(name))
        .map(|tenant| tenant.informers.len())
        .sum();
    assert_eq!(informers, 500, "nine downward kinds plus CRDs per tenant");

    // One place to see what those informers cost: the pool's own cells,
    // bound into the syncer's registry. The counts are process-wide (other
    // tests' frameworks share the pool), hence lower bounds.
    let metrics = fw.syncer.obs.registry.snapshot();
    let cell = |family: &str| metrics.family(family).expect(family).cells[0].value;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as i64);
    assert!(cell("client_reflector_informers") >= 500);
    // Threads follow cores, not tenants: the workers, plus at most the
    // one helper re-lists start.
    assert!((cores..=cores + 1).contains(&cell("client_reflector_threads")));
    assert!(cell("client_reflector_events_total") > 0, "the super informers saw 50 VC objects");
    assert!(cell("client_reflector_wakeups_total") > 0);

    let started = std::time::Instant::now();
    fw.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "shutdown of 50 idle tenants took {took:?}");
    // Shutting down twice, as `Drop` will, is legal and just as quick.
    fw.shutdown();
}
