//! Hostile-tenant chaos suite: one adversarial tenant mounts an attack on
//! the shared control plane (watch storm, list flood, queue poisoning via
//! policy-rejected objects, oversized-object spam) while well-behaved
//! tenants keep deploying pods. Each test asserts *containment* as a
//! property of where the attack landed: the storm's streams and the flood's
//! LISTs on the hostile tenant's own apiserver, the poisoned and oversized
//! objects dead-lettered and absent from the super cluster. The co-tenants'
//! pods must all still sync; their downward-sync p99, quiet and under
//! attack, is printed as a diagnostic rather than asserted, since on a
//! shared machine it measures the machine as much as the code. The
//! calibrated containment ratios live in the `vc_abuse` bench and are
//! enforced by `bench_gate`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::api::policy;
use virtualcluster::client::Client;
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{Framework, FrameworkConfig};
use virtualcluster::core::mapping;
use virtualcluster::core::vc_object::{
    VirtualCluster, COND_SYNCER_POLICY_BLOCKED, VC_MANAGER_NAMESPACE,
};

/// One victim tenant: its client plus where its pods land in the super
/// cluster.
struct Victim {
    name: String,
    client: Client,
    super_ns: String,
}

fn setup(victims: usize) -> (Framework, Vec<Victim>) {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.enforce_tenant_isolation();
    let victims = (0..victims)
        .map(|i| {
            let name = format!("victim-{i}");
            let handle = fw.create_tenant(&name).unwrap();
            Victim {
                client: fw.tenant_client(&name, "good-user"),
                super_ns: mapping::tenant_ns_to_super(&handle.prefix, "default"),
                name,
            }
        })
        .collect();
    (fw, victims)
}

/// Creates `count` pods on each victim and returns the p99 of per-pod
/// create→synced-to-super latency across all of them. Pods are created
/// sequentially per victim (the victims are patient); the latency clock
/// stops when the pod is visible in the super cluster.
fn victim_sync_p99(fw: &Framework, victims: &[Victim], count: usize, tag: &str) -> Duration {
    let admin = fw.super_client("admin");
    let mut latencies: Vec<u64> = Vec::with_capacity(victims.len() * count);
    for v in victims {
        for i in 0..count {
            let name = format!("{tag}-{i}");
            let start = Instant::now();
            v.client
                .create(
                    Pod::new("default", &name).with_container(Container::new("c", "img")).into(),
                )
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(60);
            while admin.get(ResourceKind::Pod, &v.super_ns, &name).is_err() {
                assert!(
                    Instant::now() < deadline,
                    "victim {} pod {name} never reached the super cluster",
                    v.name
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            latencies.push(start.elapsed().as_micros() as u64);
        }
    }
    latencies.sort_unstable();
    let rank = ((0.99 * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
    Duration::from_micros(latencies[rank - 1])
}

fn report_sync_p99(baseline: Duration, under_attack: Duration, attack: &str) {
    eprintln!("{attack}: co-tenant sync p99 quiet {baseline:?}, under attack {under_attack:?}");
}

/// Reads the `SyncerPolicyBlocked` condition from a tenant's VC object.
fn policy_blocked_condition(fw: &Framework, tenant: &str) -> Option<(bool, String)> {
    let obj = fw
        .super_client("admin")
        .get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, tenant)
        .ok()?;
    let custom: virtualcluster::api::crd::CustomObject = obj.try_into().ok()?;
    let vc = VirtualCluster::from_custom_object(&custom).ok()?;
    vc.status.condition(COND_SYNCER_POLICY_BLOCKED).map(|c| (c.status, c.reason.clone()))
}

/// A hostile tenant holds dozens of watch streams open on its control
/// plane and churns its own objects to keep every stream busy. The storm
/// is confined to the hostile tenant's dedicated apiserver + its fair
/// share of the syncer; co-tenants' sync latency holds.
#[test]
fn watch_storm_is_contained() {
    let (fw, victims) = setup(2);
    let hostile_store = fw.create_tenant("hostile").unwrap().cluster.apiserver.store().clone();
    let super_store = fw.super_cluster.apiserver.store();
    let hostile = fw.tenant_client("hostile", "mallory");

    let baseline = victim_sync_p99(&fw, &victims, 8, "quiet");

    // 48 watch streams over the hostile tenant's pods, all registered on
    // the hostile tenant's own store; the super cluster's (which every
    // co-tenant's pods go through) gains none of them.
    let (hostile_before, super_before) =
        (hostile_store.watcher_count(), super_store.watcher_count());
    let streams: Vec<_> =
        (0..48).map(|_| hostile.watch(ResourceKind::Pod, Some("default"), 0).unwrap()).collect();
    assert!(hostile_store.watcher_count() >= hostile_before + 48);
    assert!(super_store.watcher_count() < super_before + 48, "the storm reached the super store");
    // Churn generator: every annotation bump fans out to every stream.
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for i in 0..20 {
                let _ = hostile.create(
                    Pod::new("default", format!("noisy-{i}"))
                        .with_container(Container::new("c", "img"))
                        .into(),
                );
            }
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                round += 1;
                for i in 0..20 {
                    if let Ok(obj) =
                        hostile.get(ResourceKind::Pod, "default", &format!("noisy-{i}"))
                    {
                        let mut pod = (*obj).clone();
                        pod.meta_mut().annotations.insert("storm".into(), round.to_string());
                        let _ = hostile.update(pod);
                    }
                }
            }
        })
    };

    let under_attack = victim_sync_p99(&fw, &victims, 8, "stormed");
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    drop(streams);

    report_sync_p99(baseline, under_attack, "watch storm");
    fw.shutdown();
}

/// A hostile tenant floods LIST from many threads. The flood lands on its
/// own control plane (the paper's core isolation argument: per-tenant
/// apiservers); co-tenants' sync pipeline keeps its latency.
#[test]
fn list_flood_is_contained() {
    let (fw, victims) = setup(2);
    let hostile_server = Arc::clone(&fw.create_tenant("hostile").unwrap().cluster.apiserver);
    let hostile = fw.tenant_client("hostile", "mallory");

    // Enough objects that each LIST does real work.
    for i in 0..150 {
        hostile
            .create(
                Pod::new("default", format!("bulk-{i}"))
                    .with_container(Container::new("c", "img"))
                    .into(),
            )
            .unwrap();
    }

    let baseline = victim_sync_p99(&fw, &victims, 8, "quiet");

    let served_before = hostile_server.metrics.lists.get();
    let stop = Arc::new(AtomicBool::new(false));
    let lists = Arc::new(AtomicU64::new(0));
    let flooders: Vec<_> = (0..8)
        .map(|_| {
            let hostile = hostile.clone();
            let stop = Arc::clone(&stop);
            let lists = Arc::clone(&lists);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if hostile.list(ResourceKind::Pod, Some("default")).is_ok() {
                        lists.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    let under_attack = victim_sync_p99(&fw, &victims, 8, "flooded");
    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }

    let flood = lists.load(Ordering::Relaxed);
    assert!(flood > 0, "the flood actually ran");
    // Every LIST of the flood was served by the hostile tenant's own
    // apiserver, not by one its co-tenants share.
    assert!(hostile_server.metrics.lists.get() - served_before >= flood);
    report_sync_p99(baseline, under_attack, "list flood");
    fw.shutdown();
}

/// A hostile tenant submits objects the admission policy can never accept
/// (host-path mounts, privileged containers). Forbidden is permanently
/// fatal: the items go straight to the dead-letter set instead of burning
/// retry backoff forever, the `SyncerPolicyBlocked` condition names the
/// violated rule, and none of the objects reach the super cluster. The
/// condition lowers once the tenant deletes the offending objects.
#[test]
fn queue_poisoning_dead_letters_instead_of_retrying() {
    let (fw, victims) = setup(2);
    let handle = fw.create_tenant("hostile").unwrap();
    let hostile = fw.tenant_client("hostile", "mallory");
    let hostile_super_ns = mapping::tenant_ns_to_super(&handle.prefix, "default");

    let baseline = victim_sync_p99(&fw, &victims, 6, "quiet");

    let poison = 24;
    for i in 0..poison {
        let pod = if i % 2 == 0 {
            Pod::new("default", format!("poison-{i}"))
                .with_container(Container::new("c", "img"))
                .with_host_path("/var/run/docker.sock")
        } else {
            Pod::new("default", format!("poison-{i}"))
                .with_container(Container::new("c", "img").privileged())
        };
        hostile.create(pod.into()).unwrap();
    }

    // Every poisoned item lands in the dead-letter set via the policy
    // fast path (no retry budget spent on Forbidden).
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(25), || {
            fw.syncer.metrics.snapshot().policy_blocked >= poison
        }),
        "poisoned items should dead-letter: {:?}",
        fw.syncer.metrics.snapshot()
    );

    // The rejection is visible on the hostile tenant's dashboard, naming
    // a policy rule.
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            policy_blocked_condition(&fw, "hostile").is_some_and(|(status, _)| status)
        }),
        "SyncerPolicyBlocked should be raised"
    );
    let (_, reason) = policy_blocked_condition(&fw, "hostile").unwrap();
    assert!(
        reason == policy::RULE_HOST_PATH || reason == policy::RULE_PRIVILEGED,
        "condition reason carries the violated rule, got {reason:?}"
    );

    // Nothing hostile reached the super cluster.
    let admin = fw.super_client("admin");
    let leaked = admin
        .list(ResourceKind::Pod, Some(&hostile_super_ns))
        .map(|(pods, _)| pods.iter().filter(|p| p.meta().name.starts_with("poison-")).count())
        .unwrap_or(0);
    assert_eq!(leaked, 0, "policy-rejected pods must not exist in the super cluster");

    // Co-tenants kept syncing while the poison sat in the pipeline.
    let under_attack = victim_sync_p99(&fw, &victims, 6, "poisoned");
    report_sync_p99(baseline, under_attack, "queue poisoning");

    // The admission rejections are exported per rule and tenant.
    let text = fw.obs().registry.render_text();
    assert!(
        text.contains("vc_admission_rejections_total{"),
        "admission rejections exported: {text}"
    );

    // Deleting the offending objects resolves the condition.
    for i in 0..poison {
        hostile.delete(ResourceKind::Pod, "default", &format!("poison-{i}")).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(50), || {
            policy_blocked_condition(&fw, "hostile").is_some_and(|(status, _)| !status)
        }),
        "SyncerPolicyBlocked should lower after the tenant deletes the objects"
    );
    fw.shutdown();
}

/// A hostile tenant spams megabyte-scale objects. Admission rejects them
/// at the super gate under the `oversized-object` rule, so the super
/// store's byte accounting barely moves while co-tenants keep syncing.
#[test]
fn oversized_object_spam_is_contained() {
    let (fw, victims) = setup(2);
    let handle = fw.create_tenant("hostile").unwrap();
    let hostile = fw.tenant_client("hostile", "mallory");
    let hostile_super_ns = mapping::tenant_ns_to_super(&handle.prefix, "default");

    let baseline = victim_sync_p99(&fw, &victims, 6, "quiet");
    let bytes_before = fw.super_cluster.apiserver.store().estimated_bytes();

    let spam = 12;
    let blob = "x".repeat(512 * 1024); // double the 256 KiB admission cap
    for i in 0..spam {
        let mut pod =
            Pod::new("default", format!("blob-{i}")).with_container(Container::new("c", "img"));
        pod.meta.annotations.insert("payload".into(), blob.clone());
        hostile.create(pod.into()).unwrap();
    }

    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(25), || {
            fw.syncer.metrics.snapshot().policy_blocked >= spam
        }),
        "oversized spam should dead-letter: {:?}",
        fw.syncer.metrics.snapshot()
    );
    let (raised, reason) = policy_blocked_condition(&fw, "hostile").unwrap();
    assert!(raised);
    assert_eq!(reason, policy::RULE_OVERSIZED_OBJECT);

    // None of the blobs landed in the super store; its growth during the
    // attack stays far below the ~6 MiB the spam asked to park there.
    let admin = fw.super_client("admin");
    let leaked = admin
        .list(ResourceKind::Pod, Some(&hostile_super_ns))
        .map(|(pods, _)| pods.iter().filter(|p| p.meta().name.starts_with("blob-")).count())
        .unwrap_or(0);
    assert_eq!(leaked, 0, "oversized objects must not exist in the super cluster");

    let under_attack = victim_sync_p99(&fw, &victims, 6, "spammed");
    let grown = fw.super_cluster.apiserver.store().estimated_bytes().saturating_sub(bytes_before);
    assert!(
        grown < spam as usize * 64 * 1024,
        "super store grew {grown} bytes during the spam — blobs leaked past admission"
    );
    report_sync_p99(baseline, under_attack, "oversized-object spam");
    fw.shutdown();
}
