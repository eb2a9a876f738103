//! End-to-end observability: a synced pod leaves a multi-stage trace, the
//! unified registry renders valid Prometheus exposition, and brownout-slowed
//! syncs land in the slow-op log.

use std::time::Duration;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::client::{FaultPolicy, FaultRule};
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{Framework, FrameworkConfig};
use virtualcluster::obs::{exposition, stage};

/// Creates one pod in the tenant and waits for it to become Ready there.
fn sync_one_pod(fw: &Framework, tenant: &str, name: &str) {
    let client = fw.tenant_client(tenant, "user");
    client
        .create(Pod::new("default", name).with_container(Container::new("c", "i")).into())
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(50), || {
            client
                .get(ResourceKind::Pod, "default", name)
                .is_ok_and(|p| p.as_pod().is_some_and(|p| p.status.is_ready()))
        }),
        "pod {name} must reach Ready in the tenant"
    );
}

#[test]
fn synced_pod_trace_covers_the_whole_pipeline() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("tenant-1").unwrap();
    sync_one_pod(&fw, "tenant-1", "traced");

    // The trace finishes when the upward status write completes; the Ready
    // status seen above travels through the same informer machinery, so
    // poll briefly for the finish stamp.
    let tracer = &fw.obs().tracer;
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(25), || {
            tracer.find("tenant-1", "default/traced").is_some_and(|t| t.total.is_some())
        }),
        "the synced pod's trace must finish"
    );
    let trace = tracer.find("tenant-1", "default/traced").unwrap();

    // Every pipeline stage left a span: the tenant apiserver gate, the
    // downward queue wait, the super-cluster write (recorded by the super
    // apiserver under the worker's trace context), and the upward status
    // path.
    let stages = trace.distinct_stages();
    for expected in [
        stage::GATE,
        stage::DWS_QUEUE,
        stage::DWS_PROCESS,
        "apiserver:super:create",
        stage::SUPER_SCHED,
        stage::UWS_QUEUE,
        stage::UWS_PROCESS,
    ] {
        assert!(stages.contains(&expected), "missing stage {expected:?} in {stages:?}");
    }
    assert!(stages.len() >= 4, "expected at least 4 distinct stages, got {stages:?}");
    for span in &trace.spans {
        assert!(span.duration > Duration::ZERO, "span {} must have a duration", span.stage);
    }
    assert!(trace.total.unwrap() > Duration::ZERO);
    fw.shutdown();
}

#[test]
fn abandoned_pods_leave_no_open_trace() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.enforce_tenant_isolation();
    fw.create_tenant("hostile").unwrap();
    let hostile = fw.tenant_client("hostile", "mallory");
    let tracer = &fw.obs().tracer;
    let blocked = |name: &str| {
        Pod::new("default", name).with_container(Container::new("c", "i").privileged())
    };

    // Admission rejects the pod for good: its trace opened at the tenant
    // gate and nothing will ever finish it.
    hostile.create(blocked("poison").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(25), || {
        fw.syncer.metrics.policy_blocked.get() >= 1
    }));
    assert_eq!(tracer.open_count(), 1);
    // Deleting the pod drops the trace...
    hostile.delete(ResourceKind::Pod, "default", "poison").unwrap();
    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(25), || tracer.open_count() == 0),
        "the deleted pod's open trace must be dropped"
    );

    // ...and so does tearing the whole tenant down around one.
    hostile.create(blocked("poison-2").into()).unwrap();
    assert!(wait_until(Duration::from_secs(30), Duration::from_millis(25), || {
        fw.syncer.metrics.policy_blocked.get() >= 2
    }));
    assert_eq!(tracer.open_count(), 1);
    fw.delete_tenant("hostile").unwrap();
    assert_eq!(tracer.open_count(), 0, "teardown must drop the tenant's open traces");
    fw.shutdown();
}

#[test]
fn registry_exposition_parses_and_covers_the_stack() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("tenant-1").unwrap();
    sync_one_pod(&fw, "tenant-1", "exposed");
    fw.syncer.publish_tenant_stats();

    let text = fw.obs().registry.render_text();
    let families = exposition::parse(&text).expect("exposition must parse");

    let family = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("family {name} missing from exposition"))
    };

    // Apiserver families carry per-server request accounting: the tenant
    // gate admitted the pod create, the syncer wrote it to the super
    // cluster.
    let requests = family("vc_apiserver_requests_total");
    assert_eq!(requests.kind, "counter");
    let tenant_create = requests
        .sample(
            "vc_apiserver_requests_total",
            &[("server", "tenant-1"), ("verb", "create"), ("kind", "Pod"), ("code", "ok")],
        )
        .expect("tenant pod create counted");
    assert!(tenant_create.value >= 1.0);
    assert!(requests
        .sample(
            "vc_apiserver_requests_total",
            &[("server", "super"), ("verb", "create"), ("kind", "Pod"), ("code", "ok")],
        )
        .is_some());

    // Syncer families absorbed the old SyncerMetrics counters.
    let ops = family("vc_syncer_ops_total");
    let downward_create = ops
        .sample("vc_syncer_ops_total", &[("direction", "downward"), ("op", "create")])
        .expect("downward create counted");
    assert!(downward_create.value >= 1.0);

    // The per-tenant histogram renders cumulative buckets (validated by
    // the parser) and counted this tenant's downward sync.
    let sync = family("vc_syncer_tenant_sync_duration_us");
    assert_eq!(sync.kind, "histogram");
    let count = sync
        .sample(
            "vc_syncer_tenant_sync_duration_us_count",
            &[("tenant", "tenant-1"), ("direction", "downward")],
        )
        .expect("per-tenant sync count present");
    assert!(count.value >= 1.0);

    // The queue-depth gauge exists once stats have been published.
    assert!(family("vc_syncer_tenant_queue_depth")
        .sample("vc_syncer_tenant_queue_depth", &[("tenant", "tenant-1")])
        .is_some());
    fw.shutdown();
}

#[test]
fn admission_rejections_are_exported_per_rule_and_tenant() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.enforce_tenant_isolation();
    fw.create_tenant("tenant-1").unwrap();

    // A hostile pod passes the tenant apiserver but is rejected by the
    // super cluster's TenantIsolation plugin when the syncer pushes it
    // down; the rejection lands in the unified registry.
    fw.tenant_client("tenant-1", "mallory")
        .create(
            Pod::new("default", "escape")
                .with_container(Container::new("c", "i"))
                .with_host_path("/etc")
                .into(),
        )
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(25), || {
            fw.syncer.metrics.snapshot().policy_blocked >= 1
        }),
        "the hostile pod must be dead-lettered as policy-blocked"
    );

    let text = fw.obs().registry.render_text();
    let families = exposition::parse(&text).expect("exposition must parse");
    let rejections = families
        .iter()
        .find(|f| f.name == "vc_admission_rejections_total")
        .expect("admission rejection family exported");
    assert_eq!(rejections.kind, "counter");
    let sample = rejections
        .sample(
            "vc_admission_rejections_total",
            &[("rule", "host-path-mount"), ("tenant", "tenant-1")],
        )
        .expect("rejection attributed to the rule and tenant");
    assert!(sample.value >= 1.0);
    fw.shutdown();
}

#[test]
fn tenant_dashboard_lands_on_the_vc_status() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("tenant-1").unwrap();
    sync_one_pod(&fw, "tenant-1", "dashboard");

    let stats = fw.syncer.tenant_stats("tenant-1").expect("registered tenant has stats");
    assert!(stats.synced_objects >= 1, "downward sync recorded");
    assert!(stats.sync_p99_us >= stats.sync_p50_us);
    assert_eq!(stats.breaker, "Healthy");

    // publish_tenant_stats (normally run by the scanner) writes the row
    // onto the VC object's status.
    fw.syncer.publish_tenant_stats();
    let obj = fw
        .super_client("admin")
        .get(
            ResourceKind::CustomObject,
            virtualcluster::core::vc_object::VC_MANAGER_NAMESPACE,
            "tenant-1",
        )
        .unwrap();
    let custom: virtualcluster::api::crd::CustomObject = obj.try_into().unwrap();
    let vc = virtualcluster::core::vc_object::VirtualCluster::from_custom_object(&custom).unwrap();
    assert!(vc.status.sync.synced_objects >= 1);
    assert_eq!(vc.status.sync.breaker, "Healthy");
    fw.shutdown();
}

#[test]
fn stats_publish_is_event_fed() {
    // Disable the scanner so this test owns every publish pass (the
    // scanner would otherwise race the dirty-set assertions).
    let mut config = FrameworkConfig::minimal();
    config.syncer.scan_interval = None;
    let fw = Framework::start(config);
    fw.create_tenant("tenant-1").unwrap();
    sync_one_pod(&fw, "tenant-1", "dirtying");

    // The reconcile workers dirtied the tenant; the publish pass drains
    // exactly the dirty set. A worker marks the tenant *after* the write
    // this test has just seen land (its bookkeeping follows its
    // reconcile), so the worker that wrote Ready may still add its mark
    // behind the first pass: publish until a pass leaves nothing behind.
    assert!(fw.syncer.stats_dirty_len() >= 1, "sync activity marks the tenant dirty");
    assert!(
        wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            fw.syncer.publish_tenant_stats();
            fw.syncer.stats_dirty_len() == 0
        }),
        "publish drains the dirty set"
    );
    let published = fw
        .super_client("admin")
        .get(
            ResourceKind::CustomObject,
            virtualcluster::core::vc_object::VC_MANAGER_NAMESPACE,
            "tenant-1",
        )
        .unwrap();
    let rv_after_publish = published.meta().resource_version;

    // An idle pass is a no-op: nothing dirty, no VC status write.
    fw.syncer.publish_tenant_stats();
    let obj = fw
        .super_client("admin")
        .get(
            ResourceKind::CustomObject,
            virtualcluster::core::vc_object::VC_MANAGER_NAMESPACE,
            "tenant-1",
        )
        .unwrap();
    assert_eq!(
        obj.meta().resource_version,
        rv_after_publish,
        "idle publish passes must not rewrite the VC status"
    );

    // New activity re-dirties and republishes.
    sync_one_pod(&fw, "tenant-1", "dirtying-again");
    assert!(fw.syncer.stats_dirty_len() >= 1, "fresh activity re-dirties the tenant");
    fw.shutdown();
}

#[test]
fn brownout_slowed_syncs_land_in_the_slow_op_log() {
    // A 400ms injected delay on the syncer's super-cluster writes pushes
    // every end-to-end sync past the 250ms slow-op threshold.
    let mut config = FrameworkConfig::minimal();
    config.syncer.obs.slow_threshold = Duration::from_millis(250);
    config.super_faults = Some(
        FaultPolicy::new(3)
            .with_rule(FaultRule::delay_all(Duration::from_millis(400)).for_user("vc-syncer")),
    );
    let fw = Framework::start(config);
    fw.create_tenant("slow").unwrap();
    sync_one_pod(&fw, "slow", "molasses");

    assert!(
        wait_until(Duration::from_secs(10), Duration::from_millis(50), || {
            !fw.obs().tracer.slow_ops().is_empty()
        }),
        "brownout-slowed syncs must be captured in the slow-op log"
    );
    let slow = fw.obs().tracer.slow_ops();
    let entry = slow.iter().find(|s| s.tenant == "slow").expect("slow tenant attributed");
    assert!(entry.total >= Duration::from_millis(250));
    assert!(entry.log_line().starts_with("SLOW "), "log line: {}", entry.log_line());
    assert!(!entry.breakdown.is_empty(), "slow-op entries carry a stage breakdown");
    fw.shutdown();
}
