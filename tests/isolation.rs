//! Control-plane isolation tests: the paper's §I problems on a shared
//! apiserver, and their absence under VirtualCluster.

use std::sync::Arc;
use std::time::{Duration, Instant};
use virtualcluster::api::namespace::Namespace;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::api::time::{Clock, SimClock};
use virtualcluster::apiserver::auth::{PolicyRule, Verb};
use virtualcluster::apiserver::{ApiServer, ApiServerConfig};
use virtualcluster::client::Client;
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{Framework, FrameworkConfig};

#[test]
fn tenants_cannot_see_each_other() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("iso-a").unwrap();
    fw.create_tenant("iso-b").unwrap();
    let a = fw.tenant_client("iso-a", "alice");
    let b = fw.tenant_client("iso-b", "bob");

    a.create(Namespace::new("alpha-secret-project").into()).unwrap();
    a.create(Pod::new("default", "a-pod").with_container(Container::new("c", "i")).into()).unwrap();

    // B's control plane shows none of A's objects — no RBAC gymnastics
    // required, the apiservers are simply different.
    let (b_namespaces, _) = b.list(ResourceKind::Namespace, None).unwrap();
    assert!(b_namespaces.iter().all(|n| n.meta().name != "alpha-secret-project"));
    let (b_pods, _) = b.list(ResourceKind::Pod, None).unwrap();
    assert!(b_pods.is_empty());
    fw.shutdown();
}

/// A tenant-capacity apiserver whose service time runs on `clock`: a read
/// holds its gate permit until the test advances the clock past it.
fn sim_apiserver(clock: &Arc<SimClock>) -> Arc<ApiServer> {
    ApiServer::new(
        ApiServerConfig {
            max_inflight: 4,
            read_latency: Duration::from_millis(2),
            write_latency: Duration::ZERO,
            ..Default::default()
        },
        Arc::clone(clock) as Arc<dyn Clock>,
    )
}

/// Advances `clock` a millisecond at a time until `done`.
fn run_clock_until(clock: &SimClock, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "requests never drained");
        clock.advance(Duration::from_millis(1));
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn shared_apiserver_interference_vs_virtualcluster() {
    // §I "performance interference": on a shared apiserver, tenant A's LIST
    // flood (the paper's "frequently query all Pods") fills the inflight
    // gate, and tenant B's request queues behind it. Under VirtualCluster B
    // has an apiserver of its own, where nothing queues. Service time runs
    // on a simulated clock, so the flood holds the gate until the test lets
    // it go, and the property is read from the gates' wait counters rather
    // than from how busy the machine happens to be.
    let clock = SimClock::new();
    let shared = sim_apiserver(&clock);
    let attacker = Client::system(Arc::clone(&shared), "tenant-a");
    for i in 0..200 {
        attacker.create(Pod::new("default", format!("junk-{i}")).into()).unwrap();
    }
    // Sixteen LISTs: four hold the gate's permits, twelve queue behind them.
    let floods: Vec<_> = (0..16)
        .map(|_| {
            let attacker = attacker.clone();
            std::thread::spawn(move || attacker.list(ResourceKind::Pod, None).map(|_| ()))
        })
        .collect();
    let gate = shared.gate();
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(1), || gate.queued() == 12),
        "the flood never filled the gate"
    );
    let flood_waits = gate.waits_total();

    // B's request arrives while the flood holds every permit.
    let victim = Client::new(Arc::clone(&shared), "tenant-b");
    let sim = Arc::clone(&clock);
    let victim = std::thread::spawn(move || {
        let start = sim.now();
        victim.get(ResourceKind::Namespace, "", "default").map(|_| sim.now().duration_since(start))
    });
    assert!(
        wait_until(Duration::from_secs(30), Duration::from_millis(1), || {
            gate.waits_total() > flood_waits
        }),
        "tenant B's request should queue behind the flood"
    );
    run_clock_until(&clock, || victim.is_finished() && floods.iter().all(|f| f.is_finished()));
    // Nothing but B's request arrived after the flood, so the one new wait
    // is B's.
    assert_eq!(gate.waits_total(), flood_waits + 1);
    let shared_latency = victim.join().unwrap().expect("served after the flood");
    for flood in floods {
        flood.join().unwrap().unwrap();
    }

    // VirtualCluster case: the same request on B's dedicated apiserver,
    // which A's flood never reaches.
    let dedicated = sim_apiserver(&clock);
    let victim_vc = Client::new(Arc::clone(&dedicated), "tenant-b");
    let sim = Arc::clone(&clock);
    let served = std::thread::spawn(move || {
        let start = sim.now();
        victim_vc
            .get(ResourceKind::Namespace, "", "default")
            .map(|_| sim.now().duration_since(start))
    });
    run_clock_until(&clock, || served.is_finished());
    let vc_latency = served.join().unwrap().expect("served");
    assert_eq!(dedicated.gate().waits_total(), 0, "nothing queues on a dedicated apiserver");
    eprintln!("simulated GET latency: shared={shared_latency:?} dedicated={vc_latency:?}");
}

#[test]
fn namespace_list_leak_fixed_by_dedicated_control_planes() {
    // Shared cluster: granting list-namespaces exposes every tenant's
    // namespace names (the List API cannot filter by tenant identity).
    let shared = ApiServer::new_default("shared");
    let admin = Client::new(Arc::clone(&shared), "admin");
    admin.create(Namespace::new("tenant-a-ns").into()).unwrap();
    admin.create(Namespace::new("tenant-b-acquisition-plans").into()).unwrap();
    shared.authorizer.enable();
    shared.authorizer.bind("admin", PolicyRule::allow_all());
    shared.authorizer.bind("a-user", PolicyRule::namespace_admin(&["tenant-a-ns"]));
    shared
        .authorizer
        .bind("a-user", PolicyRule::cluster_rule(&[Verb::List], &[ResourceKind::Namespace]));
    let a_user = Client::new(shared, "a-user");
    let (leaked, _) = a_user.list(ResourceKind::Namespace, None).unwrap();
    assert!(
        leaked.iter().any(|n| n.meta().name == "tenant-b-acquisition-plans"),
        "the shared-cluster leak is real"
    );

    // VirtualCluster: the same list in A's own control plane shows only
    // A's namespaces.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("leak-a").unwrap();
    fw.create_tenant("leak-b").unwrap();
    fw.tenant_client("leak-b", "b").create(Namespace::new("b-sensitive").into()).unwrap();
    let (visible, _) = fw.tenant_client("leak-a", "a").list(ResourceKind::Namespace, None).unwrap();
    assert!(visible.iter().all(|n| n.meta().name != "b-sensitive"));
    fw.shutdown();
}

#[test]
fn tenants_cannot_reach_the_super_cluster() {
    // "Tenants are disallowed to access the super cluster" — enforce RBAC
    // on the super apiserver: only system identities operate there.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("locked").unwrap();
    let super_server = &fw.super_cluster.apiserver;
    super_server.authorizer.enable();
    // System components get cluster-admin.
    for system_user in
        ["system:scheduler", "system:informers", "vc-syncer", "vc-operator", "vc-admin", "admin"]
    {
        super_server.authorizer.bind(system_user, PolicyRule::allow_all());
    }
    for i in 1..=10 {
        super_server.authorizer.bind(format!("system:kubelet:node-{i}"), PolicyRule::allow_all());
    }
    // A tenant identity has no super-cluster bindings at all.
    let intruder = fw.super_client("locked-tenant-user");
    assert!(intruder.list(ResourceKind::Pod, None).unwrap_err().is_forbidden());
    assert!(intruder.create(Pod::new("default", "backdoor").into()).unwrap_err().is_forbidden());
    fw.shutdown();
}

#[test]
fn blast_radius_contained_to_one_tenant() {
    // "If a tenant triggers a control plane security issue, only that
    // tenant is the victim": crash (shut down) tenant A's control plane
    // and verify tenant B continues operating end to end.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("blast-a").unwrap();
    fw.create_tenant("blast-b").unwrap();

    // Simulate A's apiserver meltdown.
    fw.registry.get("blast-a").unwrap().cluster.shutdown();

    let b = fw.tenant_client("blast-b", "bob");
    b.create(Pod::new("default", "survivor").with_container(Container::new("c", "i")).into())
        .unwrap();
    assert!(virtualcluster::controllers::util::wait_until(
        Duration::from_secs(30),
        Duration::from_millis(50),
        || {
            b.get(ResourceKind::Pod, "default", "survivor")
                .is_ok_and(|o| o.as_pod().unwrap().status.is_ready())
        }
    ));
    fw.shutdown();
}

#[test]
fn sandbox_runtime_enforced_for_tenant_pods() {
    // Threat model (§III-A): tenant containers must run sandboxed. The
    // super cluster's admission forces Kata on synced pods even when the
    // tenant asked for runc.
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.enforce_sandbox_runtime();
    fw.create_tenant("sandboxed").unwrap();
    let tenant = fw.tenant_client("sandboxed", "user");
    // Tenant explicitly requests the shared-kernel runtime.
    let mut pod = Pod::new("default", "escape-attempt").with_container(Container::new("c", "i"));
    pod.spec.runtime_class = virtualcluster::api::pod::RuntimeClass::Runc;
    tenant.create(pod.into()).unwrap();

    let prefix = fw.registry.get("sandboxed").unwrap().prefix.clone();
    let super_client = fw.super_client("admin");
    assert!(virtualcluster::controllers::util::wait_until(
        Duration::from_secs(30),
        Duration::from_millis(50),
        || {
            super_client
                .get(ResourceKind::Pod, &format!("{prefix}-default"), "escape-attempt")
                .is_ok_and(|o| {
                    o.as_pod().unwrap().spec.runtime_class
                        == virtualcluster::api::pod::RuntimeClass::Kata
                })
        }
    ));
    fw.shutdown();
}
