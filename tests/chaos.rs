//! Failure injection: the syncer must converge despite watch evictions,
//! informer re-lists, concurrent tenant churn, seeded apiserver brownouts
//! and scripted tenant-control-plane outages.

use std::time::Duration;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::client::{FaultPolicy, FaultRule};
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{Framework, FrameworkConfig};
use virtualcluster::core::syncer::TenantHealth;
use virtualcluster::core::vc_object::{VirtualCluster, COND_SYNCER_HEALTHY, VC_MANAGER_NAMESPACE};

/// Counts Ready pods in `default` for a tenant client.
fn ready_pods(client: &virtualcluster::client::Client) -> usize {
    client
        .list(ResourceKind::Pod, Some("default"))
        .map(|(pods, _)| {
            pods.iter().filter(|p| p.as_pod().is_some_and(|p| p.status.is_ready())).count()
        })
        .unwrap_or(0)
}

/// Reads the `SyncerHealthy` condition status from a tenant's VC object.
fn syncer_healthy_condition(fw: &Framework, tenant: &str) -> Option<bool> {
    let obj = fw
        .super_client("admin")
        .get(ResourceKind::CustomObject, VC_MANAGER_NAMESPACE, tenant)
        .ok()?;
    let custom: virtualcluster::api::crd::CustomObject = obj.try_into().ok()?;
    let vc = VirtualCluster::from_custom_object(&custom).ok()?;
    vc.status.condition(COND_SYNCER_HEALTHY).map(|c| c.status)
}

#[test]
fn survives_watch_evictions_under_burst() {
    // Tiny watch buffers on the super apiserver force watcher evictions
    // mid-burst; reflectors must re-list and the pipeline must still
    // converge (paper §III-C: the syncer "ensures data consistency under
    // the conditions of failures or races").
    let mut config = FrameworkConfig::minimal();
    config.super_cluster.apiserver.store.watcher_buffer = 16;
    config.super_cluster.apiserver.store.event_log_capacity = 64;
    let fw = Framework::start(config);
    fw.create_tenant("chaos").unwrap();
    let tenant = fw.tenant_client("chaos", "user");

    for i in 0..80 {
        tenant
            .create(
                Pod::new("default", format!("c{i}"))
                    .with_container(Container::new("c", "i"))
                    .into(),
            )
            .unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(120), Duration::from_millis(100), || {
            tenant.list(ResourceKind::Pod, Some("default")).is_ok_and(|(pods, _)| {
                pods.iter().filter(|p| p.as_pod().is_some_and(|p| p.status.is_ready())).count()
                    == 80
            })
        }),
        "burst must converge despite evictions"
    );
    // At least one store eviction actually happened, or the test proved
    // nothing.
    assert!(
        fw.super_cluster.apiserver.store().watchers_evicted.get() > 0,
        "expected watcher evictions with a 16-event buffer"
    );
    fw.shutdown();
}

#[test]
fn tenant_churn_during_load() {
    // Tenants come and go while others are under load; the syncer and the
    // super cluster must not leak objects of deleted tenants.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("steady").unwrap();
    let steady = fw.tenant_client("steady", "user");

    for round in 0..3 {
        let name = format!("churn-{round}");
        fw.create_tenant(&name).unwrap();
        let churner = fw.tenant_client(&name, "user");
        for i in 0..5 {
            churner
                .create(
                    Pod::new("default", format!("p{i}"))
                        .with_container(Container::new("c", "i"))
                        .into(),
                )
                .unwrap();
            steady
                .create(
                    Pod::new("default", format!("r{round}-{i}"))
                        .with_container(Container::new("c", "i"))
                        .into(),
                )
                .unwrap();
        }
        // Delete the churner mid-flight.
        fw.delete_tenant(&name).unwrap();
    }
    // The steady tenant's 15 pods all become ready.
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        steady.list(ResourceKind::Pod, Some("default")).is_ok_and(|(pods, _)| {
            pods.iter().filter(|p| p.as_pod().is_some_and(|p| p.status.is_ready())).count() == 15
        })
    }));
    // No super-cluster object belongs to any deleted tenant.
    let super_client = fw.super_client("admin");
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(200), || {
        let (namespaces, _) = super_client.list(ResourceKind::Namespace, None).unwrap();
        namespaces.iter().all(|ns| {
            ns.meta()
                .annotations
                .get("virtualcluster.io/cluster")
                .is_none_or(|owner| !owner.starts_with("churn-"))
        })
    }));
    fw.shutdown();
}

#[test]
fn syncer_scan_disabled_still_converges_normally() {
    // The scanner only covers rare races; the hot path must not depend on
    // it.
    let mut config = FrameworkConfig::minimal();
    config.syncer.scan_interval = None;
    let fw = Framework::start(config);
    fw.create_tenant("noscan").unwrap();
    let tenant = fw.tenant_client("noscan", "user");
    for i in 0..10 {
        tenant
            .create(
                Pod::new("default", format!("p{i}"))
                    .with_container(Container::new("c", "i"))
                    .into(),
            )
            .unwrap();
    }
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        tenant.list(ResourceKind::Pod, Some("default")).is_ok_and(|(pods, _)| {
            pods.iter().filter(|p| p.as_pod().is_some_and(|p| p.status.is_ready())).count() == 10
        })
    }));
    assert_eq!(fw.syncer.metrics.scans.get(), 0);
    fw.shutdown();
}

#[test]
fn converges_under_seeded_super_write_brownout() {
    // A seeded 10% write-failure brownout on the super apiserver, scoped to
    // the syncer's identity: every injected failure lands in the retry
    // pipeline, and the backoff/budget machinery must still converge an
    // 80-pod burst with zero dead letters.
    let mut config = FrameworkConfig::minimal();
    config.super_faults =
        Some(FaultPolicy::new(42).with_rule(FaultRule::fail_writes(0.10).for_user("vc-syncer")));
    let fw = Framework::start(config);
    fw.create_tenant("brownout").unwrap();
    let tenant = fw.tenant_client("brownout", "user");

    for i in 0..80 {
        tenant
            .create(
                Pod::new("default", format!("b{i}"))
                    .with_container(Container::new("c", "i"))
                    .into(),
            )
            .unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(120), Duration::from_millis(100), || {
            ready_pods(&tenant) == 80
        }),
        "burst must converge despite a 10% super-apiserver write brownout"
    );
    assert!(
        fw.syncer.metrics.retries.get() > 0,
        "injected write failures must flow through the backoff retry pipeline"
    );
    assert_eq!(fw.syncer.dead_letter_len(), 0, "no item may exhaust its retry budget");
    fw.shutdown();
}

#[test]
fn tenant_blackout_trips_breaker_and_spares_healthy_tenant() {
    // A full outage of one tenant's control plane (scoped to the syncer's
    // identity) must trip that tenant's circuit breaker, while a second,
    // healthy tenant keeps converging within its usual bounds. Clearing the
    // faults must auto-recover the dark tenant via the half-open probe.
    let mut config = FrameworkConfig::minimal();
    config.syncer.breaker_open = Duration::from_millis(200);
    let fw = Framework::start(config);
    fw.create_tenant("dark").unwrap();
    fw.create_tenant("bright").unwrap();
    let dark = fw.tenant_client("dark", "user");
    let bright = fw.tenant_client("bright", "user");

    fw.inject_tenant_faults(
        "dark",
        &FaultPolicy::new(7).with_rule(FaultRule::fail_all().for_user("vc-syncer")),
    );
    for i in 0..10 {
        dark.create(
            Pod::new("default", format!("d{i}")).with_container(Container::new("c", "i")).into(),
        )
        .unwrap();
        bright
            .create(
                Pod::new("default", format!("h{i}"))
                    .with_container(Container::new("c", "i"))
                    .into(),
            )
            .unwrap();
    }

    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            fw.syncer.tenant_health("dark") == Some(TenantHealth::Degraded)
        }),
        "upward failures against the dark tenant must trip its breaker"
    );
    assert!(fw.syncer.metrics.breaker_trips.get() >= 1);
    // The degraded tenant's VC object reports SyncerHealthy=false.
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
            syncer_healthy_condition(&fw, "dark") == Some(false)
        }),
        "breaker trip must surface as a SyncerHealthy=false condition"
    );
    // The healthy tenant keeps its fair-queue share: its pods still reach
    // Ready while the dark tenant is paused.
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(100), || {
            ready_pods(&bright) == 10
        }),
        "a blacked-out tenant must not stall healthy tenants"
    );

    // End the outage: the half-open probe must close the breaker, replay
    // parked work and drain dead letters without manual intervention.
    fw.clear_tenant_faults("dark");
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            fw.syncer.tenant_health("dark") == Some(TenantHealth::Healthy)
        }),
        "breaker must auto-recover once the tenant apiserver is reachable"
    );
    // One recovery per trip: both are counted under the breaker lock.
    let metrics = &fw.syncer.metrics;
    assert_eq!(metrics.breaker_recoveries.get(), metrics.breaker_trips.get());
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
            ready_pods(&dark) == 10 && fw.syncer.dead_letter_len() == 0
        }),
        "the recovered tenant must converge and the dead-letter set must drain"
    );
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
            syncer_healthy_condition(&fw, "dark") == Some(true)
        }),
        "recovery must flip the SyncerHealthy condition back to true"
    );
    fw.shutdown();
}

#[test]
fn breaker_recovers_after_scripted_fault_window() {
    // A scripted outage window (rather than an explicit clear): the breaker
    // trips inside the window and must recover on its own once the window
    // expires, purely through half-open probing.
    //
    // The whole deployment runs on a virtual clock, so the outage window,
    // the breaker-open deadline, the retry backoff and the scanner cadence
    // are production-scale durations crossed by `advance` — the test never
    // sleeps through them and cannot flake on wall-clock jitter.
    let clock = virtualcluster::api::time::SimClock::new();
    let mut config = FrameworkConfig::minimal();
    config.clock = Some(clock.clone() as _);
    config.syncer.breaker_threshold = 3;
    config.syncer.breaker_open = Duration::from_secs(30);
    let fw = Framework::start(config);
    fw.create_tenant("windowed").unwrap();
    let tenant = fw.tenant_client("windowed", "user");

    let window = Duration::from_secs(120);
    fw.inject_tenant_faults(
        "windowed",
        &FaultPolicy::new(11)
            .with_rule(FaultRule::fail_all().for_user("vc-syncer").during(Duration::ZERO, window)),
    );
    for i in 0..8 {
        tenant
            .create(
                Pod::new("default", format!("w{i}"))
                    .with_container(Container::new("c", "i"))
                    .into(),
            )
            .unwrap();
    }
    // Virtual time is frozen inside the window, so the outage cannot end
    // before the breaker has tripped.
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(25), || {
            fw.syncer.tenant_health("windowed") == Some(TenantHealth::Degraded)
        }),
        "the outage window must trip the breaker"
    );
    // No clear_tenant_faults: the window simply runs out as the test
    // advances virtual time past it (and past the breaker-open deadline).
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(50), || {
            clock.advance(Duration::from_secs(5));
            fw.syncer.tenant_health("windowed") == Some(TenantHealth::Healthy)
        }),
        "the breaker must auto-recover after the fault window expires"
    );
    // One recovery per trip: both are counted under the breaker lock.
    let metrics = &fw.syncer.metrics;
    assert_eq!(metrics.breaker_recoveries.get(), metrics.breaker_trips.get());
    // Keep virtual time flowing so backed-off retries come due and the
    // scanner keeps ticking until every pod converges. The real-time
    // budget is generous because the deployment's data-flow threads
    // (scheduler, kubelets, informers) run on wall time and share the
    // machine with the other chaos deployments.
    let converged = wait_until(Duration::from_secs(120), Duration::from_millis(100), || {
        clock.advance(Duration::from_secs(5));
        ready_pods(&tenant) == 8
    });
    if !converged {
        let snap = fw.syncer.metrics.snapshot();
        eprintln!(
            "DIAG ready={} dead_letter={} health={:?} metrics={snap:?}",
            ready_pods(&tenant),
            fw.syncer.dead_letter_len(),
            fw.syncer.tenant_health("windowed"),
        );
        if let Ok((pods, _)) = tenant.list(ResourceKind::Pod, Some("default")) {
            for p in &pods {
                if let Some(p) = p.as_pod() {
                    eprintln!("DIAG tenant pod {} phase={:?}", p.meta.name, p.status.phase);
                }
            }
        }
        if let Ok((pods, _)) = fw.super_client("admin").list(ResourceKind::Pod, None) {
            for p in &pods {
                if let Some(p) = p.as_pod() {
                    eprintln!(
                        "DIAG super pod {}/{} phase={:?} node={}",
                        p.meta.namespace, p.meta.name, p.status.phase, p.spec.node_name
                    );
                }
            }
        }
    }
    assert!(converged, "all pods must reach Ready after the window");
    fw.shutdown();
}

#[test]
fn exhausted_retry_budget_dead_letters_then_scanner_drains() {
    // With a zero retry budget and writes failing unconditionally, the
    // first downward failure dead-letters the item and bumps
    // retry_exhausted. Once the faults clear, the periodic scanner drains
    // the dead-letter set and the pod still converges.
    let mut config = FrameworkConfig::minimal();
    config.syncer.retry_budget = 0;
    let fw = Framework::start(config);
    fw.create_tenant("dlq").unwrap();
    let tenant = fw.tenant_client("dlq", "user");

    fw.inject_super_faults(
        &FaultPolicy::new(5).with_rule(FaultRule::fail_writes(1.0).for_user("vc-syncer")),
    );
    tenant
        .create(Pod::new("default", "p0").with_container(Container::new("c", "i")).into())
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(50), || {
            fw.syncer.dead_letter_len() > 0
        }),
        "a budget-exhausted item must land in the dead-letter set"
    );
    assert!(fw.syncer.metrics.retry_exhausted.get() > 0);

    fw.clear_super_faults();
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
            ready_pods(&tenant) == 1 && fw.syncer.dead_letter_len() == 0
        }),
        "the scanner must drain dead letters and converge once faults clear"
    );
    fw.shutdown();
}

#[test]
fn durable_super_store_survives_framework_restart() {
    // With durability enabled the super cluster's store recovers in place:
    // a second Framework started on the same WAL directory sees every
    // object the first one committed, with identical UIDs and resource
    // versions, and bootstrap creates tolerate the already-present
    // namespaces.
    use virtualcluster::store::DurabilityConfig;

    let dir = std::env::temp_dir().join(format!(
        "vc-chaos-restart-{}-{:x}",
        std::process::id(),
        std::ptr::null::<u8>() as usize
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = Some(DurabilityConfig::new(&dir));

    let mut config = FrameworkConfig::minimal();
    config.durability = durability.clone();
    let fw = Framework::start(config);
    let admin = fw.super_client("admin");
    for i in 0..5 {
        admin
            .create(
                Pod::new("default", format!("durable-{i}"))
                    .with_container(Container::new("c", "i"))
                    .into(),
            )
            .unwrap();
    }
    // Let the scheduler and kubelets finish with every pod first: a pod
    // left half-started is finished by the restarted cluster, which bumps
    // its resource version. Capture the survivor set only after shutdown.
    assert!(wait_until(Duration::from_secs(10), Duration::from_millis(5), || {
        ready_pods(&admin) == 5
    }));
    fw.shutdown();
    let survivors: Vec<_> = {
        let (pods, _) = admin.list(ResourceKind::Pod, Some("default")).unwrap();
        pods.iter().map(|p| (p.key(), p.meta().uid.clone(), p.meta().resource_version)).collect()
    };
    assert_eq!(survivors.len(), 5);
    drop(admin);
    drop(fw);

    let mut config = FrameworkConfig::minimal();
    config.durability = durability;
    let fw = Framework::start(config);
    let report = fw
        .super_cluster
        .apiserver
        .recovery_report()
        .expect("durable apiserver must expose a recovery report")
        .clone();
    assert!(
        report.recovered_revision > 0,
        "recovery must replay the previous run's writes: {report:?}"
    );
    let admin = fw.super_client("admin");
    let (pods, _) = admin.list(ResourceKind::Pod, Some("default")).unwrap();
    let recovered: Vec<_> =
        pods.iter().map(|p| (p.key(), p.meta().uid.clone(), p.meta().resource_version)).collect();
    assert_eq!(recovered, survivors, "objects must survive a restart byte-for-byte");
    // The restarted cluster keeps working: new writes land on the
    // recovered revision line.
    admin
        .create(Pod::new("default", "post-restart").with_container(Container::new("c", "i")).into())
        .unwrap();
    let (pods, _) = admin.list(ResourceKind::Pod, Some("default")).unwrap();
    assert_eq!(pods.len(), 6);
    fw.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
