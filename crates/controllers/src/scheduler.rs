//! The super-cluster Pod scheduler.
//!
//! Faithful to the property the paper's evaluation hinges on: "the default
//! Kubernetes scheduler has a single queue, and it schedules Pods
//! sequentially … we have seen the scheduler throughput peaked at a few
//! hundred Pods per second" (§IV-A). It therefore runs **one worker**, with
//! a per-pod service time of ~2.2 ms by default (~450 pods/s) that the
//! benches can vary.
//!
//! Predicates: node readiness/schedulability, node selector, taints vs.
//! tolerations, resource fit, inter-pod affinity and anti-affinity (node
//! topology). Scoring: least-allocated.
//!
//! Resource fit compares each requested resource with what the node has
//! left, `allocatable − allocated`, read in place. Every pod also takes one
//! of the node's `pods` slots: the pods already bound there count against
//! `allocatable["pods"]`, so a node with `pods: "110"` refuses pod 111, and
//! a node that advertises no `pods` capacity takes none. Filtering and
//! scoring allocate nothing per node; one decision clones one node name,
//! the winner's.

use crate::util::{retry_on_conflict, ControllerHandle, Informers};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vc_api::labels::Labels;
use vc_api::metrics::Counter;
use vc_api::node::Node;
use vc_api::object::ResourceKind;
use vc_api::pod::{Pod, PodConditionType, PodPhase};
use vc_api::quantity::{add_resources, resource_names, sub_resources, Quantity, ResourceList};
use vc_client::{Client, InformerEvent, WorkQueue};

/// Backoff before retrying an unschedulable pod.
const UNSCHEDULABLE_BACKOFF: Duration = Duration::from_millis(500);

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Simulated cost of one scheduling decision. The one sequential
    /// worker caps throughput at `1 / service_time` pods per second.
    pub service_time: Duration,
    /// Additional service time per 1000 pods already bound in the
    /// cluster: the real scheduler's scoring cost grows with cluster
    /// occupancy, which is what makes baseline throughput decline with
    /// pod count in the paper's Fig 9(b). Zero disables the effect.
    pub service_time_per_kpod: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            service_time: Duration::from_micros(2200),
            service_time_per_kpod: Duration::ZERO,
        }
    }
}

#[derive(Debug, Default)]
struct NodeAlloc {
    node: Option<Node>,
    allocated: ResourceList,
    /// Pods bound here: key -> labels (for (anti-)affinity matching).
    pods: HashMap<String, Labels>,
}

#[derive(Debug, Default)]
struct SchedulerState {
    nodes: HashMap<String, NodeAlloc>,
    /// pod key -> (node, effective requests) for release on delete.
    assignments: HashMap<String, (String, ResourceList)>,
}

/// Scheduler metrics.
#[derive(Debug, Default)]
pub struct SchedulerMetrics {
    /// Pods successfully bound.
    pub scheduled: Counter,
    /// Scheduling attempts that found no feasible node.
    pub unschedulable: Counter,
    /// Binding writes that failed and were requeued.
    pub bind_errors: Counter,
}

/// Starts the scheduler against `client`'s cluster, reading it through
/// `informers`. Returns the handle and shared metrics.
pub fn start(
    client: Client,
    informers: &Informers,
    config: SchedulerConfig,
) -> (ControllerHandle, Arc<SchedulerMetrics>) {
    let mut handle = ControllerHandle::new("scheduler");
    let metrics = Arc::new(SchedulerMetrics::default());
    let state = Arc::new(Mutex::new(SchedulerState::default()));
    let queue: Arc<WorkQueue<Arc<str>>> = Arc::new(WorkQueue::new());

    // The node informer maintains the allocatable map. New capacity
    // requeues nothing: unschedulable pods retry on their backoff.
    {
        let state = Arc::clone(&state);
        informers.get(ResourceKind::Node).add_handler(Box::new(move |event| {
            let mut state = state.lock();
            match event {
                InformerEvent::Added { object: obj, .. }
                | InformerEvent::Updated { new: obj, .. } => {
                    if let Some(node) = obj.as_node() {
                        state.nodes.entry(node.meta.name.clone()).or_default().node =
                            Some(node.clone());
                    }
                }
                InformerEvent::Deleted { object: obj, .. } => {
                    state.nodes.remove(&obj.meta().name);
                }
            }
        }));
    }

    // Pod informer feeds the scheduling queue and tracks assignments.
    let pod_informer = informers.get(ResourceKind::Pod);
    {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        pod_informer.add_handler(Box::new(move |event| match event {
            InformerEvent::Added { key, object: obj }
            | InformerEvent::Updated { key, new: obj, .. } => {
                let Some(pod) = obj.as_pod() else { return };
                if pod.spec.is_bound() {
                    record_assignment(&mut state.lock(), key, pod);
                } else if needs_scheduling(pod) {
                    queue.add(Arc::clone(key));
                }
            }
            InformerEvent::Deleted { key, object: obj } => {
                if obj.as_pod().is_some() {
                    release_assignment(&mut state.lock(), key);
                }
            }
        }));
    }

    let pod_cache = Arc::clone(pod_informer.cache());
    {
        let metrics = Arc::clone(&metrics);
        let worker_queue = Arc::clone(&queue);
        handle.workers("scheduler", 1, 1, &queue, move |key| {
            schedule_one(key, &client, &pod_cache, &state, &config, &metrics, &worker_queue)
        });
    }
    (handle, metrics)
}

fn needs_scheduling(pod: &Pod) -> bool {
    !pod.spec.is_bound() && pod.status.phase == PodPhase::Pending && !pod.meta.is_terminating()
}

fn record_assignment(state: &mut SchedulerState, key: &str, pod: &Pod) {
    if state.assignments.contains_key(key) {
        return;
    }
    assign(state, key, pod, pod.spec.node_name.clone(), pod.spec.effective_requests());
}

/// Charges `pod`'s `requests` and one pod slot to `node`.
fn assign(state: &mut SchedulerState, key: &str, pod: &Pod, node: String, requests: ResourceList) {
    // Look up before inserting: the name is cloned only for a node the
    // node informer has not delivered yet.
    if !state.nodes.contains_key(&node) {
        state.nodes.insert(node.clone(), NodeAlloc::default());
    }
    let alloc = state.nodes.get_mut(&node).expect("inserted above");
    add_resources(&mut alloc.allocated, &requests);
    alloc.pods.insert(key.to_string(), pod.meta.labels.clone());
    state.assignments.insert(key.to_string(), (node, requests));
}

fn release_assignment(state: &mut SchedulerState, key: &str) {
    if let Some((node, requests)) = state.assignments.remove(key) {
        if let Some(alloc) = state.nodes.get_mut(&node) {
            sub_resources(&mut alloc.allocated, &requests);
            alloc.pods.remove(key);
        }
    }
}

fn schedule_one(
    key: &Arc<str>,
    client: &Client,
    pod_cache: &vc_client::Cache,
    state: &Arc<Mutex<SchedulerState>>,
    config: &SchedulerConfig,
    metrics: &SchedulerMetrics,
    queue: &Arc<WorkQueue<Arc<str>>>,
) {
    let Some(obj) = pod_cache.get(key) else { return };
    let Some(pod) = obj.as_pod() else { return };
    if !needs_scheduling(pod) {
        return;
    }

    // The scheduling algorithm cost — the sequential bottleneck — paid on
    // the cluster's clock. The per-kpod term models scoring cost growth
    // with cluster occupancy.
    let bound = state.lock().assignments.len() as u32;
    let cost = config.service_time + config.service_time_per_kpod * bound / 1000;
    client.server().clock().sleep(cost);

    // Choose and reserve a node atomically.
    let requests = pod.spec.effective_requests();
    let chosen = {
        let mut state = state.lock();
        let chosen = choose_node(&state, pod, &requests);
        if let Some(node) = &chosen {
            assign(&mut state, key, pod, node.clone(), requests);
        }
        chosen
    };

    let Some(node_name) = chosen else {
        // Record the condition once, then retry with backoff. Counted after
        // the write, so whoever sees the count can read the condition.
        let mut updated = pod.clone();
        updated.status.set_condition(
            PodConditionType::PodScheduled,
            false,
            "Unschedulable",
            now(client),
        );
        let _ = client.update(updated.into());
        metrics.unschedulable.inc();
        queue.add_after(Arc::clone(key), UNSCHEDULABLE_BACKOFF);
        return;
    };

    // Bind: write spec.node_name + PodScheduled condition.
    let bind = retry_on_conflict(5, || {
        let fresh = client.get(ResourceKind::Pod, &pod.meta.namespace, &pod.meta.name)?;
        if fresh.as_pod().is_some_and(|fresh| fresh.spec.is_bound()) {
            return Ok(()); // someone else bound it
        }
        // The copy shares the stored annotations; the spec and the status
        // are un-shared by the two writes below, and nothing else is.
        let mut fresh: Pod = fresh.try_into()?;
        fresh.spec.node_name = node_name.clone();
        fresh.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now(client));
        client.update(fresh.into()).map(|_| ())
    });

    match bind {
        Ok(()) => {
            metrics.scheduled.inc();
        }
        Err(err) => {
            // Pod vanished or write failed: release the reservation.
            release_assignment(&mut state.lock(), key);
            if !err.is_not_found() {
                metrics.bind_errors.inc();
                queue.add(Arc::clone(key));
            }
        }
    }
}

fn now(client: &Client) -> vc_api::time::Timestamp {
    client.server().clock().now()
}

/// Returns the best feasible node for a pod that needs `requests`, or
/// `None`. Ties go to the first best node in map order.
fn choose_node(state: &SchedulerState, pod: &Pod, requests: &ResourceList) -> Option<String> {
    let mut best: Option<(&str, f64)> = None;
    for (name, alloc) in &state.nodes {
        let Some(node) = &alloc.node else { continue };
        if !feasible(node, alloc, pod, requests) {
            continue;
        }
        let score = least_allocated_score(node, alloc, requests);
        match best {
            Some((_, best_score)) if best_score >= score => {}
            _ => best = Some((name, score)),
        }
    }
    best.map(|(name, _)| name.to_string())
}

fn feasible(node: &Node, alloc: &NodeAlloc, pod: &Pod, requests: &ResourceList) -> bool {
    if !node.is_ready() {
        return false;
    }
    // Node selector: every required label must match.
    for (k, v) in &pod.spec.node_selector {
        if node.meta.labels.get(k) != Some(v) {
            return false;
        }
    }
    // Taints: every NoSchedule/NoExecute taint must be tolerated.
    for taint in &node.spec.taints {
        if matches!(
            taint.effect,
            vc_api::pod::TaintEffect::NoSchedule | vc_api::pod::TaintEffect::NoExecute
        ) && !pod.spec.tolerations.iter().any(|t| tolerates(t, taint))
        {
            return false;
        }
    }
    if !has_room(node, alloc, requests) {
        return false;
    }
    // Anti-affinity: no matching pod may share this node.
    for term in &pod.spec.affinity.pod_anti_affinity {
        let namespaces = effective_namespaces(term, pod);
        if alloc.pods.iter().any(|(peer_key, labels)| {
            peer_in_namespaces(peer_key, namespaces) && term.selector.matches(labels)
        }) {
            return false;
        }
    }
    // Affinity: each term needs a matching pod on this node.
    for term in &pod.spec.affinity.pod_affinity {
        let namespaces = effective_namespaces(term, pod);
        let satisfied = alloc.pods.iter().any(|(peer_key, labels)| {
            peer_in_namespaces(peer_key, namespaces) && term.selector.matches(labels)
        });
        if !satisfied {
            return false;
        }
    }
    true
}

/// Resource fit: every requested resource, plus one pod slot, within
/// `allocatable − allocated`. A resource the node does not advertise has
/// nothing left.
fn has_room(node: &Node, alloc: &NodeAlloc, requests: &ResourceList) -> bool {
    use resource_names::PODS;
    let one_pod = Quantity::from_whole(1);
    let left = |resource: &str| {
        let mut held = alloc.allocated.get(resource).copied().unwrap_or_default();
        if resource == PODS {
            held += Quantity::from_whole(alloc.pods.len() as i64);
        }
        let allocatable = node.status.allocatable.get(resource).copied().unwrap_or_default();
        allocatable.saturating_sub(held)
    };
    requests.iter().all(|(k, v)| left(k) >= if k == PODS { *v + one_pod } else { *v })
        && (requests.contains_key(PODS) || left(PODS) >= one_pod)
}

fn effective_namespaces<'a>(term: &'a vc_api::pod::PodAffinityTerm, pod: &'a Pod) -> &'a [String] {
    if term.namespaces.is_empty() {
        std::slice::from_ref(&pod.meta.namespace)
    } else {
        &term.namespaces
    }
}

fn peer_in_namespaces(peer_key: &str, namespaces: &[String]) -> bool {
    let ns = peer_key.split('/').next().unwrap_or("");
    namespaces.iter().any(|n| n == ns)
}

fn tolerates(toleration: &vc_api::pod::Toleration, taint: &vc_api::node::Taint) -> bool {
    if !toleration.key.is_empty() && toleration.key != taint.key {
        return false;
    }
    if !toleration.value.is_empty() && toleration.value != taint.value {
        return false;
    }
    if let Some(effect) = &toleration.effect {
        if *effect != taint.effect {
            return false;
        }
    }
    true
}

/// Least-allocated scoring: average free fraction of cpu and memory after
/// placing the pod. Higher is better.
fn least_allocated_score(node: &Node, alloc: &NodeAlloc, requests: &ResourceList) -> f64 {
    use vc_api::quantity::resource_names::{CPU, MEMORY};
    let mut total = 0.0;
    let mut dims = 0.0;
    for dim in [CPU, MEMORY] {
        let capacity = node.status.allocatable.get(dim).map_or(0, |q| q.millis());
        if capacity == 0 {
            continue;
        }
        let used = alloc.allocated.get(dim).map_or(0, |q| q.millis())
            + requests.get(dim).map_or(0, |q| q.millis());
        total += (capacity - used).max(0) as f64 / capacity as f64;
        dims += 1.0;
    }
    if dims == 0.0 {
        // Nodes without cpu/mem capacity (pure virtual kubelets): prefer
        // fewer pods.
        return 1.0 / (1.0 + alloc.pods.len() as f64);
    }
    total / dims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use std::time::Duration;
    use vc_api::labels::{labels, Selector};
    use vc_api::pod::{Container, Toleration};
    use vc_api::quantity::resource_list;
    use vc_apiserver::{ApiServer, ApiServerConfig};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn fast_scheduler_config() -> SchedulerConfig {
        SchedulerConfig { service_time: Duration::ZERO, ..Default::default() }
    }

    fn add_node(client: &Client, name: &str, cpu: &str) -> Node {
        let node =
            Node::new(name, resource_list(&[("cpu", cpu), ("memory", "16Gi"), ("pods", "110")]));
        client.create(node.clone().into()).unwrap();
        node
    }

    fn pod_with_cpu(ns: &str, name: &str, cpu: &str) -> Pod {
        Pod::new(ns, name).with_container(
            Container::new("c", "img").with_requests(resource_list(&[("cpu", cpu)])),
        )
    }

    fn bound_node(client: &Client, ns: &str, name: &str) -> String {
        let obj = client.get(ResourceKind::Pod, ns, name).unwrap();
        obj.as_pod().unwrap().spec.node_name.clone()
    }

    #[test]
    fn schedules_pod_to_feasible_node() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "4");
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        user.create(pod_with_cpu("default", "p", "500m").into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            bound_node(&user, "default", "p") == "n1"
        }));
        assert_count_reaches(&metrics.scheduled, 1);
        let pod = user.get(ResourceKind::Pod, "default", "p").unwrap();
        assert!(
            pod.as_pod().unwrap().status.condition(PodConditionType::PodScheduled).unwrap().status
        );
        handle.stop();
    }

    #[test]
    fn least_allocated_spreads_load() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "4");
        add_node(&client, "n2", "4");
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        for i in 0..4 {
            user.create(pod_with_cpu("default", &format!("p{i}"), "1").into()).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            (0..4).all(|i| !bound_node(&user, "default", &format!("p{i}")).is_empty())
        }));
        let nodes: Vec<String> =
            (0..4).map(|i| bound_node(&user, "default", &format!("p{i}"))).collect();
        let n1 = nodes.iter().filter(|n| *n == "n1").count();
        assert_eq!(n1, 2, "least-allocated spreads 4 pods 2/2: {nodes:?}");
        handle.stop();
    }

    #[test]
    fn respects_resource_capacity() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "small", "1");
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        user.create(pod_with_cpu("default", "big", "2").into()).unwrap();
        assert!(wait_until(Duration::from_secs(3), Duration::from_millis(10), || {
            metrics.unschedulable.get() >= 1
        }));
        assert!(bound_node(&user, "default", "big").is_empty());
        let pod = user.get(ResourceKind::Pod, "default", "big").unwrap();
        let cond = pod.as_pod().unwrap().status.condition(PodConditionType::PodScheduled).unwrap();
        assert!(!cond.status);
        assert_eq!(cond.reason, "Unschedulable");
        handle.stop();
    }

    #[test]
    fn node_selector_restricts_placement() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "plain", "4");
        let mut gpu_node = Node::new(
            "gpu-node",
            resource_list(&[("cpu", "4"), ("memory", "16Gi"), ("pods", "110")]),
        );
        gpu_node.meta.labels.insert("accelerator".into(), "gpu".into());
        client.create(gpu_node.into()).unwrap();

        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        let mut pod = pod_with_cpu("default", "needs-gpu", "100m");
        pod.spec.node_selector = labels(&[("accelerator", "gpu")]);
        user.create(pod.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            bound_node(&user, "default", "needs-gpu") == "gpu-node"
        }));
        handle.stop();
    }

    #[test]
    fn taints_require_tolerations() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        let mut tainted = Node::new(
            "tainted",
            resource_list(&[("cpu", "4"), ("memory", "16Gi"), ("pods", "110")]),
        );
        tainted.spec.taints.push(vc_api::node::Taint {
            key: "dedicated".into(),
            value: "db".into(),
            effect: vc_api::pod::TaintEffect::NoSchedule,
        });
        client.create(tainted.into()).unwrap();

        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        user.create(pod_with_cpu("default", "intolerant", "100m").into()).unwrap();
        assert!(wait_until(Duration::from_secs(3), Duration::from_millis(10), || {
            metrics.unschedulable.get() >= 1
        }));

        let mut tolerant = pod_with_cpu("default", "tolerant", "100m");
        tolerant.spec.tolerations.push(Toleration {
            key: "dedicated".into(),
            value: "db".into(),
            effect: None,
        });
        user.create(tolerant.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            bound_node(&user, "default", "tolerant") == "tainted"
        }));
        handle.stop();
    }

    #[test]
    fn anti_affinity_separates_pods() {
        // The paper's Fig 6 scenario: Pod A and Pod B must not share a
        // host.
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "8");
        add_node(&client, "n2", "8");
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");

        let a = pod_with_cpu("default", "pod-a", "100m")
            .with_labels(labels(&[("app", "ha")]))
            .with_anti_affinity(Selector::from_pairs(&[("app", "ha")]));
        let b = pod_with_cpu("default", "pod-b", "100m")
            .with_labels(labels(&[("app", "ha")]))
            .with_anti_affinity(Selector::from_pairs(&[("app", "ha")]));
        user.create(a.into()).unwrap();
        user.create(b.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            !bound_node(&user, "default", "pod-a").is_empty()
                && !bound_node(&user, "default", "pod-b").is_empty()
        }));
        assert_ne!(
            bound_node(&user, "default", "pod-a"),
            bound_node(&user, "default", "pod-b"),
            "anti-affinity must separate the pods"
        );
        handle.stop();
    }

    #[test]
    fn affinity_collocates_pods() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "8");
        add_node(&client, "n2", "8");
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");

        user.create(
            pod_with_cpu("default", "leader", "100m")
                .with_labels(labels(&[("app", "cache")]))
                .into(),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            !bound_node(&user, "default", "leader").is_empty()
        }));
        let mut follower = pod_with_cpu("default", "follower", "100m");
        follower.spec.affinity.pod_affinity.push(vc_api::pod::PodAffinityTerm {
            selector: Selector::from_pairs(&[("app", "cache")]),
            namespaces: Vec::new(),
        });
        user.create(follower.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            !bound_node(&user, "default", "follower").is_empty()
        }));
        assert_eq!(
            bound_node(&user, "default", "leader"),
            bound_node(&user, "default", "follower")
        );
        handle.stop();
    }

    #[test]
    fn deleting_pod_releases_capacity() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "1");
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        user.create(pod_with_cpu("default", "first", "1").into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            bound_node(&user, "default", "first") == "n1"
        }));
        // Node is full now.
        user.create(pod_with_cpu("default", "second", "1").into()).unwrap();
        assert!(wait_until(Duration::from_secs(3), Duration::from_millis(10), || {
            metrics.unschedulable.get() >= 1
        }));
        // Freeing the node lets the retry succeed.
        user.delete(ResourceKind::Pod, "default", "first").unwrap();
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(20), || {
            bound_node(&user, "default", "second") == "n1"
        }));
        handle.stop();
    }

    #[test]
    fn pod_capacity_is_enforced() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        client
            .create(Node::new("n1", resource_list(&[("cpu", "96"), ("pods", "2")])).into())
            .unwrap();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, fast_scheduler_config());
        let user = Client::new(server, "u");
        for name in ["p0", "p1"] {
            user.create(pod_with_cpu("default", name, "100m").into()).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            ["p0", "p1"].iter().all(|name| bound_node(&user, "default", name) == "n1")
        }));
        // Plenty of cpu left, but both pod slots are taken.
        user.create(pod_with_cpu("default", "p2", "100m").into()).unwrap();
        assert!(wait_until(Duration::from_secs(3), Duration::from_millis(10), || {
            metrics.unschedulable.get() >= 1
        }));
        assert!(bound_node(&user, "default", "p2").is_empty());
        let pod = user.get(ResourceKind::Pod, "default", "p2").unwrap();
        let cond = pod.as_pod().unwrap().status.condition(PodConditionType::PodScheduled).unwrap();
        assert_eq!(cond.reason, "Unschedulable");
        handle.stop();
    }

    #[test]
    fn sequential_service_time_caps_throughput() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "96");
        let config =
            SchedulerConfig { service_time: Duration::from_millis(5), ..Default::default() };
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, config);
        let user = Client::new(server, "u");
        let n = 20;
        let start_time = std::time::Instant::now();
        for i in 0..n {
            user.create(pod_with_cpu("default", &format!("p{i}"), "10m").into()).unwrap();
        }
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
            metrics.scheduled.get() == n
        }));
        let elapsed = start_time.elapsed();
        assert!(
            elapsed >= Duration::from_millis(5 * n),
            "sequential scheduling must take at least n * service_time, took {elapsed:?}"
        );
        handle.stop();
    }

    /// The service time is paid on the cluster's clock: on a `SimClock`,
    /// no pod binds before the clock has advanced one service time.
    #[test]
    fn service_time_passes_on_the_cluster_clock() {
        let clock = vc_api::time::SimClock::new();
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        let server = ApiServer::new(config, Arc::clone(&clock) as _);
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "4");
        let config = SchedulerConfig { service_time: Duration::from_secs(1), ..Default::default() };
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(client, &informers, config);
        let user = Client::new(server, "u");
        user.create(pod_with_cpu("default", "p", "500m").into()).unwrap();
        // More than one service time of real time passes: the scheduler
        // has taken the pod and parked on the clock, not on the wall.
        std::thread::sleep(Duration::from_millis(1200));
        assert_eq!(bound_node(&user, "default", "p"), "", "service time paid in real time");
        clock.advance(Duration::from_millis(999));
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(bound_node(&user, "default", "p"), "", "bound before the service time");
        assert_eq!(metrics.scheduled.get(), 0);
        clock.advance(Duration::from_millis(1));
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            bound_node(&user, "default", "p") == "n1"
        }));
        handle.stop();
    }

    /// The filter as it stood when it cloned `allocatable` and `requests`
    /// and parsed a `pods=1` list for every node, kept verbatim as the
    /// oracle for the in-place one. (`effective_namespaces` now returns a
    /// slice, which makes two of its borrows needless.)
    #[allow(clippy::needless_borrow)]
    mod reference {
        use super::super::*;

        /// Returns the best feasible node for `pod`, or `None`.
        pub(super) fn choose_node(state: &SchedulerState, pod: &Pod) -> Option<String> {
            let requests = pod.spec.effective_requests();
            let mut best: Option<(String, f64)> = None;
            for (name, alloc) in &state.nodes {
                let Some(node) = &alloc.node else { continue };
                if !feasible(state, node, alloc, pod, &requests) {
                    continue;
                }
                let score = least_allocated_score(node, alloc, &requests);
                match &best {
                    Some((_, best_score)) if *best_score >= score => {}
                    _ => best = Some((name.clone(), score)),
                }
            }
            best.map(|(name, _)| name)
        }

        fn feasible(
            state: &SchedulerState,
            node: &Node,
            alloc: &NodeAlloc,
            pod: &Pod,
            requests: &ResourceList,
        ) -> bool {
            if !node.is_ready() {
                return false;
            }
            // Node selector: every required label must match.
            for (k, v) in &pod.spec.node_selector {
                if node.meta.labels.get(k) != Some(v) {
                    return false;
                }
            }
            // Taints: every NoSchedule/NoExecute taint must be tolerated.
            for taint in &node.spec.taints {
                if matches!(
                    taint.effect,
                    vc_api::pod::TaintEffect::NoSchedule | vc_api::pod::TaintEffect::NoExecute
                ) && !pod.spec.tolerations.iter().any(|t| tolerates(t, taint))
                {
                    return false;
                }
            }
            // Resource fit against allocatable - allocated.
            let mut free = node.status.allocatable.clone();
            sub_resources(&mut free, &alloc.allocated);
            // Implicit pods=1 request.
            let mut want = requests.clone();
            add_resources(
                &mut want,
                &vc_api::quantity::resource_list(&[(vc_api::quantity::resource_names::PODS, "1")]),
            );
            if !fits(&want, &free) {
                return false;
            }
            // Anti-affinity: no matching pod may share this node.
            for term in &pod.spec.affinity.pod_anti_affinity {
                let namespaces = effective_namespaces(term, pod);
                if alloc.pods.iter().any(|(peer_key, labels)| {
                    peer_in_namespaces(peer_key, &namespaces) && term.selector.matches(labels)
                }) {
                    return false;
                }
            }
            // Affinity: each term needs a matching pod on this node.
            for term in &pod.spec.affinity.pod_affinity {
                let namespaces = effective_namespaces(term, pod);
                let satisfied = alloc.pods.iter().any(|(peer_key, labels)| {
                    peer_in_namespaces(peer_key, &namespaces) && term.selector.matches(labels)
                });
                if !satisfied {
                    return false;
                }
            }
            let _ = state;
            true
        }

        /// Returns `true` if `want` fits within `available` for every resource
        /// present in `want`.
        fn fits(want: &ResourceList, available: &ResourceList) -> bool {
            want.iter().all(|(k, v)| available.get(k).copied().unwrap_or(Quantity::ZERO) >= *v)
        }
    }

    /// splitmix64: a seeded, dependency-free source for the random tables.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn percent(&mut self, p: u64) -> bool {
            self.below(100) < p
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Up to `cpu` millicores, `gib` GiB of memory and two gpus, each key
    /// present with probability `percent`, plus `pods` when given.
    fn random_resources(
        rng: &mut Rng,
        percent: u64,
        cpu: u64,
        gib: u64,
        pods: Option<i64>,
    ) -> ResourceList {
        let mut list = ResourceList::new();
        if rng.percent(percent) {
            list.insert("cpu".into(), Quantity::from_millis(rng.below(cpu + 1) as i64));
        }
        if rng.percent(percent) {
            list.insert("memory".into(), Quantity::from_whole((rng.below(gib + 1) << 30) as i64));
        }
        if rng.percent(percent / 4) {
            list.insert("gpu".into(), Quantity::from_whole(rng.below(3) as i64));
        }
        if let Some(pods) = pods {
            list.insert("pods".into(), Quantity::from_whole(pods));
        }
        list
    }

    fn random_term(rng: &mut Rng) -> vc_api::pod::PodAffinityTerm {
        let namespaces = match rng.below(3) {
            0 => Vec::new(),
            1 => vec!["ns-a".to_string()],
            _ => vec!["ns-a".to_string(), "ns-b".to_string()],
        };
        let app = rng.pick(&["web", "db"]);
        vc_api::pod::PodAffinityTerm { selector: Selector::from_pairs(&[("app", app)]), namespaces }
    }

    fn random_effect(rng: &mut Rng) -> vc_api::pod::TaintEffect {
        use vc_api::pod::TaintEffect::*;
        [NoSchedule, PreferNoSchedule, NoExecute][rng.below(3) as usize]
    }

    /// A random node table. Pod slots are either absent, zero, already
    /// used up by explicit `pods` requests, or far above what the table
    /// places, so the pods counted in use never decide a case.
    fn random_state(rng: &mut Rng) -> SchedulerState {
        let mut state = SchedulerState::default();
        for i in 0..1 + rng.below(6) {
            let name = format!("n{i}");
            let pod_slots = match rng.below(10) {
                0 | 1 => None,
                2 => Some(0),
                _ => Some(100 + rng.below(101) as i64),
            };
            let mut node = Node::new(name.clone(), random_resources(rng, 90, 8_000, 16, pod_slots));
            if rng.percent(70) {
                node.meta.labels.insert("zone".into(), rng.pick(&["a", "b"]).into());
            }
            for _ in 0..rng.below(4) / 2 {
                node.spec.taints.push(vc_api::node::Taint {
                    key: rng.pick(&["dedicated", "gpu"]).into(),
                    value: rng.pick(&["a", "b"]).into(),
                    effect: random_effect(rng),
                });
            }
            if rng.percent(10) {
                node.status.condition = vc_api::node::NodeCondition::NotReady;
            }
            node.spec.unschedulable = rng.percent(10);
            let used_pods = match rng.below(10) {
                0..=6 => None,
                7 | 8 => Some(rng.below(4) as i64),
                _ => Some(pod_slots.unwrap_or(0) + rng.below(5) as i64),
            };
            // Allocated is drawn independently, so it may exceed allocatable.
            let allocated = random_resources(rng, 60, 10_000, 20, used_pods);
            let mut pods = HashMap::new();
            for j in 0..rng.below(4) {
                let ns = rng.pick(&["ns-a", "ns-b"]);
                pods.insert(format!("{ns}/peer-{j}"), labels(&[("app", rng.pick(&["web", "db"]))]));
            }
            let node = if rng.percent(90) { Some(node) } else { None };
            state.nodes.insert(name, NodeAlloc { node, allocated, pods });
        }
        state
    }

    fn random_pod(rng: &mut Rng) -> Pod {
        let mut pod = Pod::new(rng.pick(&["ns-a", "ns-b"]), "candidate");
        for c in 0..1 + rng.below(2) {
            let pods = rng.percent(15).then(|| rng.below(3) as i64);
            let requests = random_resources(rng, 50, 2_000, 4, pods);
            let container = Container::new(format!("c{c}"), "img").with_requests(requests);
            if rng.percent(20) {
                pod.spec.init_containers.push(container);
            } else {
                pod.spec.containers.push(container);
            }
        }
        if rng.percent(30) {
            pod.spec.node_selector = labels(&[("zone", rng.pick(&["a", "b"]))]);
        }
        for _ in 0..rng.below(3) {
            pod.spec.tolerations.push(Toleration {
                key: rng.pick(&["", "dedicated", "gpu"]).into(),
                value: rng.pick(&["", "a", "b"]).into(),
                effect: rng.percent(50).then(|| random_effect(rng)),
            });
        }
        if rng.percent(30) {
            pod.spec.affinity.pod_anti_affinity.push(random_term(rng));
        }
        if rng.percent(20) {
            pod.spec.affinity.pod_affinity.push(random_term(rng));
        }
        pod
    }

    #[test]
    fn in_place_filter_matches_the_allocating_one() {
        let mut rng = Rng(0x5eed_0029);
        let (mut placed, mut refused) = (0, 0);
        for case in 0..3_000 {
            let state = random_state(&mut rng);
            let pod = random_pod(&mut rng);
            let chosen = choose_node(&state, &pod, &pod.spec.effective_requests());
            assert_eq!(
                chosen,
                reference::choose_node(&state, &pod),
                "case {case}: pod {pod:?} on {state:?}"
            );
            if chosen.is_some() {
                placed += 1;
            } else {
                refused += 1;
            }
        }
        // The table must exercise both outcomes, not just one.
        assert!(placed > 300 && refused > 300, "placed {placed}, refused {refused}");

        // Fixed cases: what fits within capacity, and a resource the node
        // does not advertise.
        let mut state = SchedulerState::default();
        let node =
            Node::new("n", resource_list(&[("cpu", "4"), ("memory", "8Gi"), ("pods", "110")]));
        state.nodes.insert("n".into(), NodeAlloc { node: Some(node), ..Default::default() });
        for (requests, fits) in [
            (resource_list(&[("cpu", "500m"), ("memory", "1Gi")]), true),
            (resource_list(&[("cpu", "8")]), false),
            (resource_list(&[("gpu", "1")]), false),
        ] {
            let pod = Pod::new("ns-a", "p")
                .with_container(Container::new("c", "img").with_requests(requests));
            let chosen = choose_node(&state, &pod, &pod.spec.effective_requests());
            assert_eq!(chosen, reference::choose_node(&state, &pod));
            assert_eq!(chosen.is_some(), fits, "{pod:?}");
        }
    }

    /// Counts the allocations of the calling thread only, so tests running
    /// in parallel do not disturb a measurement.
    mod per_thread {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            // Const-initialised and without a destructor, so the allocator
            // can touch it without allocating.
            static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        }

        fn count() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }

        struct Counting;

        // SAFETY: every call is forwarded unchanged to `System`, which upholds
        // the `GlobalAlloc` contract; the counter is a side effect only.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                count();
                // SAFETY: same layout the caller vouched for.
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                count();
                // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;

        pub(super) fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
            let before = ALLOCATIONS.with(Cell::get);
            let out = work();
            (ALLOCATIONS.with(Cell::get) - before, out)
        }
    }

    #[test]
    fn choosing_among_200_nodes_allocates_no_more_than_among_2() {
        let table = |nodes: usize| {
            let mut state = SchedulerState::default();
            for i in 0..nodes {
                let capacity =
                    resource_list(&[("cpu", "96"), ("memory", "328Gi"), ("pods", "500")]);
                let mut alloc = NodeAlloc {
                    node: Some(Node::new(format!("n{i}"), capacity)),
                    ..Default::default()
                };
                alloc.allocated = resource_list(&[("cpu", "1")]);
                alloc.pods.insert(format!("default/peer-{i}"), labels(&[("app", "db")]));
                state.nodes.insert(format!("n{i}"), alloc);
            }
            state
        };
        // Every predicate runs: selector-free, tolerations, both affinity
        // kinds against the peer on each node.
        let mut pod = pod_with_cpu("default", "p", "100m")
            .with_anti_affinity(Selector::from_pairs(&[("app", "web")]));
        pod.spec.affinity.pod_affinity.push(vc_api::pod::PodAffinityTerm {
            selector: Selector::from_pairs(&[("app", "db")]),
            namespaces: Vec::new(),
        });
        pod.spec.tolerations.push(Toleration {
            key: "gpu".into(),
            value: String::new(),
            effect: None,
        });
        let requests = pod.spec.effective_requests();
        let (small, large) = (table(2), table(200));
        let (among_2, chosen) =
            per_thread::allocations_during(|| choose_node(&small, &pod, &requests));
        assert!(chosen.is_some());
        let (among_200, chosen) =
            per_thread::allocations_during(|| choose_node(&large, &pod, &requests));
        assert!(chosen.is_some());
        assert!(among_2 <= 1, "choosing among 2 nodes made {among_2} allocations");
        assert!(among_200 <= among_2, "200 nodes: {among_200} allocations, 2 nodes: {among_2}");
    }
}
