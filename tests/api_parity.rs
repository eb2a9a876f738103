//! API parity harness: the same battery of Kubernetes API behaviors is run
//! against (a) a plain standalone cluster and (b) a VirtualCluster tenant
//! control plane, asserting identical outcomes — the spirit of the paper's
//! conformance-test result ("VirtualCluster can pass all Kubernetes
//! conformance tests except one").

use std::time::Duration;
use virtualcluster::api::error::ApiError;
use virtualcluster::api::labels::{labels, Selector};
use virtualcluster::api::namespace::Namespace;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::client::Client;
use virtualcluster::controllers::util::{retry_on_conflict, wait_until};
use virtualcluster::controllers::{Cluster, ClusterConfig};
use virtualcluster::core::framework::{Framework, FrameworkConfig};
use virtualcluster::store::EventType;

/// Runs every parity check against the given "cluster-admin" client.
fn run_api_battery(client: &Client, flavor: &str) {
    // -- create assigns identity --
    let created = client
        .create(Pod::new("default", "parity-a").with_container(Container::new("c", "img")).into())
        .unwrap();
    assert!(!created.meta().uid.is_empty(), "{flavor}: uid");
    assert!(created.meta().resource_version > 0, "{flavor}: rv");

    // -- duplicate create conflicts --
    let err = client.create(Pod::new("default", "parity-a").into()).unwrap_err();
    assert!(err.is_already_exists(), "{flavor}: duplicate");

    // -- optimistic concurrency --
    // Controllers (scheduler/kubelet) may bump the pod's revision
    // concurrently, so update from a fresh read and tolerate benign races.
    let updated = retry_on_conflict(5, || {
        let mut first: Pod =
            client.get(ResourceKind::Pod, "default", "parity-a").unwrap().try_into().unwrap();
        first.meta.labels.insert("v".into(), "1".into());
        client.update(first.into())
    })
    .unwrap();
    let mut stale: Pod = created.try_into().unwrap();
    stale.meta.labels.insert("v".into(), "2".into());
    assert!(client.update(stale.into()).unwrap_err().is_conflict(), "{flavor}: stale rv");
    let _ = updated;

    // -- name validation --
    assert!(matches!(
        client.create(Pod::new("default", "Bad_Name").into()).unwrap_err(),
        ApiError::Invalid { .. }
    ));

    // -- namespace lifecycle: create, use, graceful delete --
    client.create(Namespace::new("parity-ns").into()).unwrap();
    client.create(Pod::new("parity-ns", "inner").into()).unwrap();
    client.delete(ResourceKind::Namespace, "", "parity-ns").unwrap();
    // Terminating namespaces refuse new objects.
    let err = client.create(Pod::new("parity-ns", "late").into()).unwrap_err();
    assert!(
        matches!(err, ApiError::Forbidden { .. } | ApiError::Invalid { .. }),
        "{flavor}: terminating ns, got {err}"
    );
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(100), || {
            client.get(ResourceKind::Namespace, "", "parity-ns").is_err()
        }),
        "{flavor}: namespace drain"
    );

    // -- label-selector semantics via listing --
    let mut tagged = Pod::new("default", "parity-tagged");
    tagged.meta.labels = labels(&[("app", "parity")]);
    client.create(tagged.into()).unwrap();
    let (all, _) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    let selector = Selector::from_pairs(&[("app", "parity")]);
    let matched: Vec<_> = all.iter().filter(|o| selector.matches(&o.meta().labels)).collect();
    assert_eq!(matched.len(), 1, "{flavor}: selector");

    // -- list/watch handoff --
    let (_, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    let stream = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();
    client.create(Pod::new("default", "parity-watched").into()).unwrap();
    // The scheduler and kubelet may still be writing status to the pods
    // created above, so their events can precede the new pod's. The handoff
    // promises that nothing after `rev` is missed and nothing at or below it
    // is replayed: every event up to the create is strictly newer than the
    // list, and they arrive in revision order.
    let mut last = rev;
    loop {
        let event = stream.recv_timeout_ms(2_000).expect("watch event");
        assert!(
            event.revision > last,
            "{flavor}: watch replayed revision {} after {last} (list at {rev})",
            event.revision
        );
        last = event.revision;
        if event.object.meta().name == "parity-watched" {
            assert_eq!(event.event_type, EventType::Added, "{flavor}: watch");
            break;
        }
    }

    // -- deletion is immediate for finalizer-free objects --
    client.delete(ResourceKind::Pod, "default", "parity-watched").unwrap();
    assert!(
        client.get(ResourceKind::Pod, "default", "parity-watched").unwrap_err().is_not_found(),
        "{flavor}: delete"
    );

    // -- service account defaulting (admission parity) --
    let pod = client.get(ResourceKind::Pod, "default", "parity-a").unwrap();
    assert_eq!(
        pod.as_pod().unwrap().spec.service_account_name,
        "default",
        "{flavor}: admission defaulting"
    );
}

#[test]
fn plain_cluster_passes_battery() {
    let cluster = Cluster::start(ClusterConfig::super_cluster("plain").with_zero_latency());
    cluster.add_mock_nodes(2).unwrap();
    run_api_battery(&cluster.client("admin"), "plain");
    cluster.shutdown();
}

#[test]
fn tenant_control_plane_passes_same_battery() {
    // The identical battery, against a tenant — the tenant is cluster-
    // admin of a full Kubernetes API surface.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("parity").unwrap();
    run_api_battery(&fw.tenant_client("parity", "tenant-admin"), "tenant");
    fw.shutdown();
}
