//! Allocation budgets of the per-event sync path: what a work item, a trip
//! through the downward fair queue, a trace lookup, a no-op downward
//! comparison and a vNode binding cost in heap allocations, and what a copy
//! of a stored pod, the two Ready writes of each pod (the kubelet's in
//! the super cluster, the syncer's upward one in the tenant's) and the
//! upward bind write cost. The
//! syncer pays these once per informer event of every tenant, so each is
//! pinned; the count before the change that brought it down is noted
//! beside each budget.
//!
//! The allocator counts only the calling thread's allocations, so tests
//! running in parallel on other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use vc_api::meta::Uid;
use vc_api::namespace::Namespace;
use vc_api::node::Node;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::{Container, Pod, PodConditionType, PodPhase};
use vc_api::shared::Shared;
use vc_api::time::RealClock;
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::{Cache, Client, WeightedFairQueue};
use vc_controllers::{Cluster, ClusterConfig};
use vc_core::mapping;
use vc_core::registry::generate_cert;
use vc_core::syncer::vnode::VNodeManager;
use vc_core::syncer::{TenantState, WorkItem};
use vc_core::TenantHandle;
use vc_obs::{ObsParams, Tracer};

struct ThreadCountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter is a side effect only.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// Heap allocations `work` makes on this thread.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn item(key: &str) -> WorkItem {
    WorkItem { tenant: "tenant-a".into(), kind: ResourceKind::Pod, key: key.into() }
}

#[test]
fn cloning_a_work_item_allocates_nothing() {
    let original = item("default/web-0");
    let (n, copy) = allocations_during(|| original.clone());
    assert_eq!(copy, original);
    // Before: 2 (the tenant and key strings).
    assert_eq!(n, 0, "a work item clone is two reference-count bumps");
}

#[test]
fn a_coalescing_round_trip_through_the_fair_queue_allocates_once() {
    let queue: WeightedFairQueue<WorkItem> = WeightedFairQueue::new(true);
    queue.set_weight("tenant-a", 1);
    let round_trip = |item: WorkItem, generation: u64| {
        queue.add_coalescing("tenant-a", item, generation);
        let batch = queue.get_batch(32);
        for (item, _) in &batch {
            queue.done(item);
        }
        batch.len()
    };
    // Warm the queue's maps and deques to their working capacity.
    for generation in 0..4 {
        assert_eq!(round_trip(item("default/web-0"), generation), 1);
    }
    let next = item("default/web-0");
    let (n, delivered) = allocations_during(|| round_trip(next, 9));
    assert_eq!(delivered, 1);
    // Before: 13 (item copies into the dedup, generation and tenant maps,
    // and a tenant-name copy per map entry, ring slot and batch).
    assert_eq!(n, 1, "only the returned batch vector allocates");
}

#[test]
fn a_trace_lookup_allocates_nothing_on_a_hit_or_a_miss() {
    let tracer = Tracer::new(&ObsParams::default());
    let id = tracer.begin("tenant-a", "default/web-0");
    let (hit_allocs, hit) = allocations_during(|| tracer.lookup("tenant-a", "default/web-0"));
    assert_eq!(hit, Some(id));
    let (miss_allocs, miss) = allocations_during(|| tracer.lookup("tenant-a", "default/web-1"));
    assert_eq!(miss, None);
    let (other_allocs, other) = allocations_during(|| tracer.lookup("tenant-b", "default/web-0"));
    assert_eq!(other, None);
    // Before: 2 each (an owned `(tenant, key)` pair built per lookup).
    assert_eq!((hit_allocs, miss_allocs, other_allocs), (0, 0, 0));
    black_box(tracer);
}

#[test]
fn a_downward_comparison_that_finds_the_super_copy_right_allocates_nothing() {
    let (vc, prefix) = ("tenant-a", "tenant-a-abc123");
    let mut pod = Pod::new("default", "web-0").with_container(Container::new("c", "nginx"));
    pod.meta.uid = Uid::from_string("pod-uid");
    pod.meta.resource_version = 7;
    pod.meta.labels.insert("app".into(), "web".into());
    pod.spec.secret_names.push("default/token".into());
    let tenant: Object = pod.into();
    // The super copy as the scheduler and kubelet leave it: bound and
    // running, with its own identity.
    let Object::Pod(mut bound) = mapping::to_super(&tenant, vc, prefix) else { unreachable!() };
    bound.spec.node_name = "node-1".into();
    bound.status.phase = PodPhase::Running;
    bound.meta.uid = Uid::from_string("super-uid");
    bound.meta.resource_version = 12;
    let existing: Object = bound.into();
    let (n, matches) =
        allocations_during(|| mapping::matches_super(&tenant, &existing, vc, prefix));
    assert!(matches);
    // Before: 25 (`equivalent(&to_super(..), ..)`: the mapped copy of the
    // pod with its strings and maps, its prefixed namespace and reference,
    // and three annotations).
    assert_eq!(n, 0, "the comparison reads through the mapping");
}

#[test]
fn binding_a_second_pod_to_a_node_with_a_vnode_allocates_nothing() {
    let (cert, cert_hash) = generate_cert("t1");
    let mut config = ClusterConfig::tenant("t1").with_zero_latency();
    config.workload_controllers = false;
    config.service_controller = false;
    config.namespace_controller = false;
    config.garbage_collector = false;
    let handle = Arc::new(TenantHandle {
        name: "t1".into(),
        prefix: "t1-h".into(),
        cluster: Arc::new(Cluster::start(config)),
        cert,
        cert_hash,
        weight: 1,
        sync_crds: false,
    });
    let tenant = TenantState {
        name: "t1".into(),
        client: handle.system_client("vc-syncer"),
        handle,
        informers: HashMap::new(),
    };
    let nodes = Cache::new();
    nodes.insert(
        Node::new("node-1", vc_api::quantity::resource_list(&[("cpu", "96"), ("pods", "500")]))
            .into(),
    );
    let manager = VNodeManager::new();
    manager.bind(&tenant, &nodes, "node-1", &"t1-h-default/p1".into());
    assert_eq!(manager.vnodes_created.get(), 1);
    let second: Arc<str> = "t1-h-default/p2".into();
    let (n, ()) = allocations_during(|| manager.bind(&tenant, &nodes, "node-1", &second));
    assert_eq!(manager.binding_count("t1", "node-1"), 2);
    // Before: 3 (owned copies of the pod key, twice, and of the node name).
    assert_eq!(n, 0, "the binding shares the names it was handed");
    tenant.handle.cluster.shutdown();
}

/// A tenant's stress pod as the super cluster stores it: mapped (prefixed
/// namespace, three provenance annotations), bound, and marked Ready the
/// way the kubelet marks it.
fn running_super_pod() -> Pod {
    let mut tenant = tenant_stress_pod();
    tenant.meta.uid = Uid::from_string("tenant-uid");
    let Object::Pod(mut pod) = mapping::to_super(&tenant.into(), "tenant-a", "tenant-a-abc123")
    else {
        unreachable!()
    };
    pod.spec.node_name = "node-1".into();
    let now = vc_api::time::Timestamp::from_millis(5);
    pod.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now);
    mark_running(&mut pod, "10.1.0.7", now);
    pod
}

/// A tenant's stress pod as its user creates it.
fn tenant_stress_pod() -> Pod {
    Pod::new("default", "web-0").with_container(
        Container::new("app", "stress:1")
            .with_requests(vc_api::quantity::resource_list(&[("cpu", "50m")])),
    )
}

/// The status edits of the kubelet's Ready write (`Kubelet::start_pod`).
fn mark_running(pod: &mut Pod, pod_ip: &str, now: vc_api::time::Timestamp) {
    pod.status.phase = PodPhase::Running;
    pod.status.pod_ip = pod_ip.to_string();
    pod.status.host_ip = "10.1.0.1".to_string();
    pod.status.started_at = Some(now);
    pod.status.set_condition(PodConditionType::Initialized, true, "PodCompleted", now);
    pod.status.set_condition(PodConditionType::ContainersReady, true, "ContainersReady", now);
    pod.status.set_condition(PodConditionType::Ready, true, "PodReady", now);
}

/// A system client of a zero-latency apiserver that holds namespace `ns`.
fn apiserver(ns: &str) -> Client {
    let config = ApiServerConfig {
        read_latency: std::time::Duration::ZERO,
        write_latency: std::time::Duration::ZERO,
        ..Default::default()
    };
    let client = Client::system(ApiServer::new(config, RealClock::shared()), "writer");
    let _ = client.create(Namespace::new(ns).into()); // `default` exists already
    client
}

const SUPER_NS: &str = "tenant-a-abc123-default";

#[test]
fn copying_a_stored_bound_pod_copies_only_its_identity() {
    let stored = apiserver(SUPER_NS).create(running_super_pod().into()).unwrap();
    let (n, copy) = allocations_during(|| Pod::try_from(Arc::clone(&stored)).unwrap());
    assert_eq!(Object::from(copy), *stored);
    // Before: 24 (the spec with its container, the status with its four
    // conditions and the three annotations, each copied).
    assert_eq!(n, 3, "the name, namespace and uid; the rest is shared");
}

#[test]
fn the_kubelets_ready_write_copies_only_the_status() {
    let client = apiserver(SUPER_NS);
    let mut pending = running_super_pod();
    pending.status = Default::default();
    let now = vc_api::time::Timestamp::from_millis(5);
    pending.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now);
    let created = client.create(pending.into()).unwrap();
    let (ns, name) = (&created.meta().namespace, &created.meta().name);
    // The write as `Kubelet::start_pod` makes it.
    let (n, written) = allocations_during(|| {
        let fresh = client.get(ResourceKind::Pod, ns, name).unwrap();
        let mut fresh: Pod = fresh.try_into().unwrap();
        mark_running(&mut fresh, "10.1.0.7", now);
        client.update(fresh.into()).unwrap()
    });
    assert!(written.as_pod().unwrap().status.is_ready());
    // Before: 27 (the spec and the annotations copied as well).
    assert_eq!(n, 14, "the identity, the status and its new strings, the stored object");
}

#[test]
fn the_upward_ready_write_shares_the_super_status() {
    let super_client = apiserver(SUPER_NS);
    let super_obj = super_client.create(running_super_pod().into()).unwrap();
    let super_pod = super_obj.as_pod().unwrap();
    // The tenant pod after the upward bind: bound, status still Pending.
    let tenant = apiserver("default");
    let mut bound = Pod::new("default", "web-0").with_container(
        Container::new("app", "stress:1")
            .with_requests(vc_api::quantity::resource_list(&[("cpu", "50m")])),
    );
    bound.spec.node_name = "node-1".into();
    let now = vc_api::time::Timestamp::from_millis(5);
    bound.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now);
    tenant.create(bound.into()).unwrap();
    // The write as `upward::pod` makes it.
    let (n, written) = allocations_during(|| {
        let fresh = tenant.get(ResourceKind::Pod, "default", "web-0").unwrap();
        let mut fresh: Pod = fresh.try_into().unwrap();
        if fresh.spec.node_name != super_pod.spec.node_name {
            fresh.spec.node_name.clone_from(&super_pod.spec.node_name);
        }
        fresh.status = super_pod.status.clone();
        tenant.update(fresh.into()).unwrap()
    });
    assert_eq!(written.as_pod().unwrap().status, super_pod.status);
    // Before: 21 (the tenant pod's spec and status copied, then the super
    // status copied over the latter).
    assert_eq!(n, 5, "the identity and the stored object; the status is the super pod's");
}

#[test]
fn the_upward_bind_write_shares_the_super_spec() {
    // The super pod as the scheduler leaves it: bound, status Pending.
    let super_client = apiserver(SUPER_NS);
    let mut scheduled = running_super_pod();
    scheduled.status = Default::default();
    let now = vc_api::time::Timestamp::from_millis(5);
    scheduled.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now);
    let super_obj = super_client.create(scheduled.into()).unwrap();
    let super_pod = super_obj.as_pod().unwrap();
    let tenant = apiserver("default");
    tenant.create(tenant_stress_pod().into()).unwrap();
    // The write as `upward::pod` makes it.
    let (n, written) = allocations_during(|| {
        let fresh = tenant.get(ResourceKind::Pod, "default", "web-0").unwrap();
        let mut fresh: Pod = fresh.try_into().unwrap();
        fresh.adopt_binding(super_pod);
        fresh.status = super_pod.status.clone();
        tenant.update(fresh.into()).unwrap()
    });
    let written = written.as_pod().unwrap();
    assert_eq!(written.spec.node_name, "node-1");
    assert!(Shared::ptr_eq(&written.spec, &super_pod.spec), "the tenant pod shares the super spec");
    // Before: 13 (setting `node_name` un-shared and copied the tenant
    // spec, its container and requests).
    assert_eq!(n, 5, "the identity and the stored object; spec and status are the super pod's");
}
