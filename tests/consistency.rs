//! Syncer consistency under races and failures (paper §III-C): eventual
//! consistency, delete/recreate races, scanner remediation.

use std::sync::Arc;
use std::time::Duration;
use virtualcluster::api::config::ConfigMap;
use virtualcluster::api::object::{Object, ResourceKind};
use virtualcluster::api::pod::{Container, Pod, PodPhase};
use virtualcluster::api::shared::Shared;
use virtualcluster::client::Client;
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{Framework, FrameworkConfig};
use virtualcluster::core::mapping;

fn pod(ns: &str, name: &str) -> Pod {
    Pod::new(ns, name).with_container(Container::new("c", "img"))
}

fn ready(client: &Client, ns: &str, name: &str) -> bool {
    client.get(ResourceKind::Pod, ns, name).is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
}

/// Waits until the syncer can no longer repair the tenant pod `ns/name` by
/// itself: its tenant informer has seen the pod's latest write, so no echo
/// of an upward write is still on its way down, and the syncer is quiet,
/// with no queued, processing or retrying item. A tamper with the super pod
/// made after this stays until the scanner finds it.
fn wait_until_quiet(fw: &Framework, tenant: &str, ns: &str, name: &str) {
    let client = fw.tenant_client(tenant, "user");
    let cache = Arc::clone(fw.syncer.tenant(tenant).expect("registered").cache(ResourceKind::Pod));
    let key = format!("{ns}/{name}");
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(5), || {
            let latest = client.get(ResourceKind::Pod, ns, name).unwrap().meta().resource_version;
            cache.get(&key).is_some_and(|o| o.meta().resource_version == latest)
                && fw.syncer.is_quiet()
        }),
        "the syncer must go quiet for {key}"
    );
}

#[test]
fn rapid_create_delete_create_converges() {
    // The classic race: an object is deleted and recreated under the same
    // name while the syncer is mid-flight. The tenant-uid annotation keys
    // the incarnation; the final state must reflect the SECOND pod.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("race").unwrap();
    let tenant = fw.tenant_client("race", "user");

    tenant.create(pod("default", "flappy").into()).unwrap();
    // Delete immediately — possibly before the downward sync happens.
    let _ = tenant.delete(ResourceKind::Pod, "default", "flappy");
    // Recreate with a different spec marker.
    let mut second = pod("default", "flappy");
    second.meta.labels.insert("incarnation".into(), "two".into());
    tenant.create(second.into()).unwrap();

    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "flappy")
    }));
    // The super copy must be the second incarnation.
    let prefix = fw.registry.get("race").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
        super_client
            .get(ResourceKind::Pod, &format!("{prefix}-default"), "flappy")
            .is_ok_and(|o| o.meta().labels.get("incarnation").map(String::as_str) == Some("two"))
    }));
    fw.shutdown();
}

#[test]
fn burst_create_delete_storm_settles_clean() {
    // Interleave creations and deletions; afterwards the super cluster
    // must contain exactly the surviving pods, nothing more.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("storm").unwrap();
    let tenant = fw.tenant_client("storm", "user");

    for i in 0..30 {
        tenant.create(pod("default", &format!("s{i}")).into()).unwrap();
    }
    // Delete the even ones while syncing is in progress.
    for i in (0..30).step_by(2) {
        let _ = tenant.delete(ResourceKind::Pod, "default", &format!("s{i}"));
    }
    // Survivors become ready.
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        (1..30).step_by(2).all(|i| ready(&tenant, "default", &format!("s{i}")))
    }));
    // And the super cluster settles to exactly 15 pods in the prefixed ns.
    let prefix = fw.registry.get("storm").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(200), || {
        super_client
            .list(ResourceKind::Pod, Some(&format!("{prefix}-default")))
            .is_ok_and(|(pods, _)| pods.len() == 15)
    }));
    fw.shutdown();
}

#[test]
fn scanner_heals_out_of_band_label_drift() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("heal").unwrap();
    let tenant = fw.tenant_client("heal", "user");
    tenant.create(pod("default", "target").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "target")
    }));
    wait_until_quiet(&fw, "heal", "default", "target");

    let prefix = fw.registry.get("heal").unwrap().prefix.clone();
    let super_ns = format!("{prefix}-default");
    let super_client = fw.super_client("admin");
    let mut rogue: Pod =
        super_client.get(ResourceKind::Pod, &super_ns, "target").unwrap().try_into().unwrap();
    rogue.meta.labels.insert("tampered".into(), "yes".into());
    super_client.update(rogue.into()).unwrap();

    // The minimal config scans every 500ms; the tenant's intent wins.
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
        super_client
            .get(ResourceKind::Pod, &super_ns, "target")
            .is_ok_and(|o| !o.meta().labels.contains_key("tampered"))
    }));
    assert!(fw.syncer.metrics.scan_requeues.get() >= 1);
    fw.shutdown();
}

#[test]
fn manual_scan_reports_duration_and_is_idempotent() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("scan").unwrap();
    let tenant = fw.tenant_client("scan", "user");
    for i in 0..20 {
        tenant.create(pod("default", &format!("p{i}")).into()).unwrap();
    }
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        (0..20).all(|i| ready(&tenant, "default", &format!("p{i}")))
    }));
    // Let in-flight upward writes (node bindings echoing back down)
    // settle before sampling the baseline.
    std::thread::sleep(Duration::from_millis(500));
    let updates_before = fw.syncer.metrics.downward_updates.get();
    let deletes_before = fw.syncer.metrics.downward_deletes.get();
    let duration = fw.syncer.scan_all();
    assert!(duration < Duration::from_secs(2), "scan of 20 pods took {duration:?}");
    // A clean state produces no destructive repairs (a stray echo update
    // racing the sample is tolerated; deletions never happen).
    std::thread::sleep(Duration::from_millis(300));
    assert!(fw.syncer.metrics.downward_updates.get() <= updates_before + 2);
    assert_eq!(fw.syncer.metrics.downward_deletes.get(), deletes_before);
    fw.shutdown();
}

#[test]
fn full_scan_requeues_orphans_for_delete_and_status_drift_upward() {
    // No scanner timer: only the explicit scan_all() below can repair.
    let mut config = FrameworkConfig::minimal();
    config.syncer.scan_interval = None;
    let fw = Framework::start(config);
    let prefix = fw.create_tenant("full").unwrap().prefix.clone();
    let tenant = fw.tenant_client("full", "user");
    tenant.create(pod("default", "target").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "target")
    }));
    let super_ns = format!("{prefix}-default");
    let super_client = fw.super_client("admin");
    // Let the pipeline drain first: an upward item still in flight would
    // carry the super status up once more and undo the drift below before
    // the scan gets to see it.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        fw.syncer.upward_len() == 0 && fw.syncer.downward_len() == 0
    }));
    std::thread::sleep(Duration::from_millis(300));

    // An orphan: a super object the tenant owns with no tenant source.
    let mut orphan = ConfigMap::new(&super_ns, "orphan");
    orphan.meta.annotations.insert(mapping::CLUSTER_ANNOTATION.into(), "full".into());
    super_client.create(orphan.into()).unwrap();
    // Status drift: the tenant's copy of the pod status is overwritten, so
    // the super pod carries a status the tenant does not show. (Tampering
    // on the tenant side because a super-side status write is carried up
    // by its own watch event, leaving nothing for the scan to find; the
    // downward path ignores status, so this drift stays put.)
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        let Ok(obj) = tenant.get(ResourceKind::Pod, "default", "target") else { return false };
        let mut fresh: Pod = obj.try_into().unwrap();
        fresh.status.message = "tampered".into();
        tenant.update(fresh.into()).is_ok()
    }));

    // Both divergences must be in the syncer's caches before the pass.
    let message = |o: Arc<Object>| o.as_pod().map(|p| p.status.message.clone());
    let state = fw.syncer.tenant("full").unwrap();
    let super_configmaps = fw.syncer.super_cache(ResourceKind::ConfigMap).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
        let cached = state.cache(ResourceKind::Pod).get("default/target").and_then(message);
        super_configmaps.get(&format!("{super_ns}/orphan")).is_some()
            && cached.as_deref() == Some("tampered")
    }));
    std::thread::sleep(Duration::from_millis(300));
    assert!(super_client.get(ResourceKind::ConfigMap, &super_ns, "orphan").is_ok());
    let served = tenant.get(ResourceKind::Pod, "default", "target").ok().and_then(message);
    assert_eq!(served.as_deref(), Some("tampered"), "nothing repairs without a scan");

    let requeues = fw.syncer.metrics.scan_requeues.get();
    let deletes = fw.syncer.metrics.downward_deletes.get();
    fw.syncer.scan_all();
    assert!(fw.syncer.metrics.scan_requeues.get() >= requeues + 2, "one requeue per divergence");
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            super_client.get(ResourceKind::ConfigMap, &super_ns, "orphan").is_err()
                && fw.syncer.metrics.downward_deletes.get() == deletes + 1
        }),
        "the orphan is requeued downward and deleted by the syncer"
    );
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            tenant.get(ResourceKind::Pod, "default", "target").ok().and_then(message)
                == Some(String::new())
        }),
        "the super pod's status is requeued upward and written back"
    );
    assert!(ready(&tenant, "default", "target"));
    fw.shutdown();
}

#[test]
fn super_eviction_and_vnode_release() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("evict").unwrap();
    let tenant = fw.tenant_client("evict", "user");
    tenant.create(pod("default", "victim").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "victim")
    }));
    let node = tenant
        .get(ResourceKind::Pod, "default", "victim")
        .unwrap()
        .as_pod()
        .unwrap()
        .spec
        .node_name
        .clone();

    // Evict from the super side.
    let prefix = fw.registry.get("evict").unwrap().prefix.clone();
    fw.super_client("admin")
        .delete(ResourceKind::Pod, &format!("{prefix}-default"), "victim")
        .unwrap();

    // The tenant pod disappears and its vNode (last binding) goes too.
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
        tenant.get(ResourceKind::Pod, "default", "victim").is_err()
    }));
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
        tenant.get(ResourceKind::Node, "", &node).is_err()
    }));
    fw.shutdown();
}

#[test]
fn shared_cache_arcs_are_immutable_snapshots() {
    // The zero-copy read path hands out aliases of the stored objects.
    // Mutating through the API must REPLACE the stored Arc, never write
    // through it: a pointer taken before the update keeps observing the
    // state it was read at.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("iso").unwrap();
    let tenant = fw.tenant_client("iso", "user");
    tenant.create(pod("default", "snap").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "snap")
    }));

    let snapshot = tenant.get(ResourceKind::Pod, "default", "snap").unwrap();
    let snapshot_rv = snapshot.meta().resource_version;

    // Mutate through the sanctioned path (clone -> edit -> update),
    // retrying around upward status writes racing the same object.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        let Ok(obj) = tenant.get(ResourceKind::Pod, "default", "snap") else { return false };
        let mut fresh: Pod = obj.try_into().unwrap();
        fresh.meta.labels.insert("mutated".into(), "yes".into());
        tenant.update(fresh.into()).is_ok()
    }));
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
        tenant
            .get(ResourceKind::Pod, "default", "snap")
            .is_ok_and(|o| o.meta().labels.contains_key("mutated"))
    }));

    // The Arc taken before the update is an isolated snapshot.
    assert!(!snapshot.meta().labels.contains_key("mutated"));
    assert_eq!(snapshot.meta().resource_version, snapshot_rv);

    // A copy out of a cache Arc shares the spec, status and annotations the
    // store froze; writing them un-shares that copy's parts alone. The
    // super pod is bound, Ready and annotated, so all three are frozen.
    // Wait for the label's downward write, the last one, to reach the cache.
    let cache = fw.syncer.super_cache(ResourceKind::Pod).unwrap();
    let super_client = fw.super_client("reader");
    let find = || cache.list().into_iter().find(|o| o.meta().name == "snap");
    let mut entry = find().unwrap();
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
        entry = find().unwrap();
        let stored = super_client.get(ResourceKind::Pod, &entry.meta().namespace, "snap");
        entry.meta().labels.contains_key("mutated")
            && stored.is_ok_and(|s| s.meta().resource_version == entry.meta().resource_version)
    }));
    let before = (*entry).clone();
    let other: Pod = Arc::clone(&entry).try_into().unwrap();
    let mut edited: Pod = Arc::clone(&entry).try_into().unwrap();
    let cached = entry.as_pod().unwrap();
    assert!(Shared::ptr_eq(&edited.spec, &cached.spec));
    assert!(Shared::ptr_eq(&edited.status, &cached.status));
    assert!(Shared::ptr_eq(&edited.meta.annotations, &cached.meta.annotations));
    edited.spec.node_name = "elsewhere".into();
    edited.spec.containers[0].image = "other:2".into();
    edited.status.phase = PodPhase::Failed;
    edited.status.conditions.clear();
    edited.meta.annotations.insert("edited".into(), "yes".into());
    assert_ne!(edited.spec, other.spec);
    assert_ne!(edited.status, other.status);
    assert_ne!(edited.meta.annotations, other.meta.annotations);
    let stored = super_client.get(ResourceKind::Pod, &entry.meta().namespace, "snap").unwrap();
    let current = cache.get(&entry.key()).unwrap();
    for untouched in [&*entry, &*current, &*stored, &Object::from(other)] {
        assert_eq!(*untouched, before);
    }
    fw.shutdown();
}

#[test]
fn coalesced_reenqueue_delivers_latest_generation() {
    use virtualcluster::client::WeightedFairQueue;

    // Queue-level: re-adds while an item is dirty coalesce, and the one
    // delivery carries the newest generation — never a stale one.
    let q: WeightedFairQueue<&str> = WeightedFairQueue::new(true);
    q.add_coalescing("t", "pod-a", 1);
    q.add_coalescing("t", "pod-a", 7);
    q.add_coalescing("t", "pod-a", 4); // stale echo: must not regress
    assert_eq!(q.get_batch(8), vec![("pod-a", 7)]);
    assert_eq!(q.coalesced.get(), 2);

    // Re-add while processing: the item re-queues on done() and again
    // delivers exactly the latest generation.
    q.add_coalescing("t", "pod-a", 9);
    q.add_coalescing("t", "pod-a", 12);
    q.done(&"pod-a");
    assert_eq!(q.get_batch(8), vec![("pod-a", 12)]);
    q.done(&"pod-a");
    assert!(q.is_empty());

    // End-to-end: a burst of updates against one pod may collapse in the
    // syncer's queue, but the super copy must converge to the LAST one.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("coal").unwrap();
    let tenant = fw.tenant_client("coal", "user");
    tenant.create(pod("default", "burst").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "burst")
    }));
    for gen in 1..=10 {
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
            let Ok(obj) = tenant.get(ResourceKind::Pod, "default", "burst") else { return false };
            let mut fresh: Pod = obj.try_into().unwrap();
            fresh.meta.labels.insert("gen".into(), gen.to_string());
            tenant.update(fresh.into()).is_ok()
        }));
    }
    let prefix = fw.registry.get("coal").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    assert!(wait_until(Duration::from_secs(20), Duration::from_millis(100), || {
        super_client
            .get(ResourceKind::Pod, &format!("{prefix}-default"), "burst")
            .is_ok_and(|o| o.meta().labels.get("gen").map(String::as_str) == Some("10"))
    }));
    fw.shutdown();
}

#[test]
fn incremental_scanner_converges_within_two_ticks() {
    // No scanner timer: ticks are driven manually so convergence within
    // two ticks is checked deterministically.
    let mut config = FrameworkConfig::minimal();
    config.syncer.scan_interval = None;
    let fw = Framework::start(config);
    fw.create_tenant("inc").unwrap();
    let tenant = fw.tenant_client("inc", "user");
    tenant.create(pod("default", "target").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        ready(&tenant, "default", "target")
    }));
    wait_until_quiet(&fw, "inc", "default", "target");

    // Tamper with the super copy out of band. Nothing repairs it until a
    // tick runs: a tick compares informer caches, and super-side events
    // only dirty the key for the next tick, they never enqueue a repair.
    let prefix = fw.registry.get("inc").unwrap().prefix.clone();
    let super_ns = format!("{prefix}-default");
    let super_client = fw.super_client("admin");
    let mut rogue: Pod =
        super_client.get(ResourceKind::Pod, &super_ns, "target").unwrap().try_into().unwrap();
    rogue.meta.labels.insert("tampered".into(), "yes".into());
    super_client.update(rogue.into()).unwrap();
    // Tick only once the syncer's own super informer has seen the tamper.
    // (The dirty set is no gate: with no scanner timer it still holds the
    // key from the pod's creation events, and two ticks against a cache
    // that predates the tamper find nothing to repair.)
    let super_key = format!("{super_ns}/target");
    let super_pods = fw.syncer.super_cache(ResourceKind::Pod).expect("super pod informer");
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(20), || {
            super_pods.get(&super_key).is_some_and(|o| o.meta().labels.contains_key("tampered"))
        }),
        "the tamper must reach the syncer's super informer cache"
    );

    fw.syncer.scan_tick();
    fw.syncer.scan_tick();

    // The ticks only REQUEUE the divergent key; give the downward worker
    // a moment to apply the repair. Generous deadline: `cargo test` runs
    // test binaries in parallel, and on small machines a concurrent heavy
    // suite (e.g. the density smoke) can starve this worker for seconds.
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
        super_client
            .get(ResourceKind::Pod, &super_ns, "target")
            .is_ok_and(|o| !o.meta().labels.contains_key("tampered"))
    }));
    assert!(fw.syncer.metrics.scan_requeues.get() >= 1);

    // The repair write itself re-dirties the key (its super-side event
    // comes back around); once the system settles, one more tick drains
    // the dirty set as a no-op — nothing left to repair.
    std::thread::sleep(Duration::from_millis(300));
    let deletes = fw.syncer.metrics.downward_deletes.get();
    fw.syncer.scan_tick();
    assert_eq!(fw.syncer.scan_dirty_len(), 0, "settled tick must drain the dirty set");
    assert_eq!(fw.syncer.metrics.downward_deletes.get(), deletes, "no destructive repairs");
    fw.shutdown();
}

#[test]
fn syncer_restart_resumes_with_no_duplicates() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("restart").unwrap();
    let tenant = fw.tenant_client("restart", "user");
    for i in 0..10 {
        tenant.create(pod("default", &format!("p{i}")).into()).unwrap();
    }
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        (0..10).all(|i| ready(&tenant, "default", &format!("p{i}")))
    }));

    // Fresh syncer over the same clusters (the restart path): it re-lists
    // everything; nothing must be duplicated or deleted.
    let fresh = virtualcluster::core::Syncer::start(
        fw.super_cluster.system_client("vc-syncer-2"),
        virtualcluster::core::SyncerConfig {
            scan_interval: Some(Duration::from_millis(300)),
            ..virtualcluster::core::SyncerConfig::default()
        },
    );
    fresh.register_tenant(fw.registry.get("restart").unwrap());
    std::thread::sleep(Duration::from_secs(1));

    let prefix = fw.registry.get("restart").unwrap().prefix.clone();
    let (super_pods, _) = fw
        .super_client("admin")
        .list(ResourceKind::Pod, Some(&format!("{prefix}-default")))
        .unwrap();
    assert_eq!(super_pods.len(), 10, "restart must not duplicate or drop pods");
    assert_eq!(fresh.metrics.downward_deletes.get(), 0);
    fresh.stop();
    fw.shutdown();
}
