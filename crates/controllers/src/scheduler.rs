//! The super-cluster Pod scheduler.
//!
//! Faithful to the property the paper's evaluation hinges on: "the default
//! Kubernetes scheduler has a single queue, and it schedules Pods
//! sequentially … we have seen the scheduler throughput peaked at a few
//! hundred Pods per second" (§IV-A). The default configuration therefore
//! uses **one worker** and a per-pod service time of ~2.2 ms (~450 pods/s);
//! both are configurable so the ablation benches can vary them.
//!
//! Predicates: node readiness/schedulability, node selector, taints vs.
//! tolerations, resource fit, inter-pod affinity and anti-affinity (node
//! topology). Scoring: least-allocated.

use crate::util::{retry_on_conflict, ControllerHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vc_api::event::{Event, ObjectReference};
use vc_api::labels::Labels;
use vc_api::metrics::Counter;
use vc_api::node::Node;
use vc_api::object::ResourceKind;
use vc_api::pod::{Pod, PodConditionType, PodPhase};
use vc_api::quantity::{add_resources, fits, sub_resources, ResourceList};
use vc_client::{Client, InformerConfig, InformerEvent, SharedInformer, WorkQueue};

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Simulated cost of one scheduling decision. The sequential default
    /// caps throughput at `1 / service_time` pods per second.
    pub service_time: Duration,
    /// Additional service time per 1000 pods already bound in the
    /// cluster: the real scheduler's scoring cost grows with cluster
    /// occupancy, which is what makes baseline throughput decline with
    /// pod count in the paper's Fig 9(b). Zero disables the effect.
    pub service_time_per_kpod: Duration,
    /// Number of scheduling workers. Kubernetes' scheduler is sequential;
    /// keep 1 for fidelity (the ablation bench raises it).
    pub workers: usize,
    /// Whether to write `Scheduled` / `FailedScheduling` Event objects.
    pub emit_events: bool,
    /// Backoff before retrying an unschedulable pod.
    pub unschedulable_backoff: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            service_time: Duration::from_micros(2200),
            service_time_per_kpod: Duration::ZERO,
            workers: 1,
            emit_events: false,
            unschedulable_backoff: Duration::from_millis(500),
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

/// Starts the scheduler against `client`'s cluster. Returns the handle and
/// shared metrics.
pub fn start(client: Client, config: SchedulerConfig) -> (ControllerHandle, Arc<SchedulerMetrics>) {
    let mut handle = ControllerHandle::new("scheduler");
    let metrics = Arc::new(SchedulerMetrics::default());
    let state = Arc::new(Mutex::new(SchedulerState::default()));
    let queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());

    // Node informer maintains the allocatable map.
    let node_informer =
        SharedInformer::new(client.clone(), InformerConfig::new(ResourceKind::Node));
    {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        node_informer.add_handler(Box::new(move |event| {
            let mut state = state.lock();
            match event {
                InformerEvent::Added(obj)
                | InformerEvent::Updated { new: obj, .. }
                | InformerEvent::Resync(obj) => {
                    if let Some(node) = obj.as_node() {
                        state.nodes.entry(node.meta.name.clone()).or_default().node =
                            Some(node.clone());
                    }
                }
                InformerEvent::Deleted(obj) => {
                    state.nodes.remove(&obj.meta().name);
                }
            }
            drop(state);
            // New capacity may unblock pending pods — nothing to requeue
            // directly; unschedulable pods retry via backoff through the
            // queue, so nothing else to do here.
            let _ = &queue;
        }));
    }

    // Pod informer feeds the scheduling queue and tracks assignments.
    let pod_informer = SharedInformer::new(client.clone(), InformerConfig::new(ResourceKind::Pod));
    {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        pod_informer.add_handler(Box::new(move |event| match event {
            InformerEvent::Added(obj)
            | InformerEvent::Updated { new: obj, .. }
            | InformerEvent::Resync(obj) => {
                let Some(pod) = obj.as_pod() else { return };
                let key = obj.key();
                if pod.spec.is_bound() {
                    record_assignment(&mut state.lock(), &key, pod);
                } else if needs_scheduling(pod) {
                    queue.add(key);
                }
            }
            InformerEvent::Deleted(obj) => {
                if obj.as_pod().is_some() {
                    release_assignment(&mut state.lock(), &obj.key());
                }
            }
        }));
    }

    let node_informer = SharedInformer::start(node_informer);
    let pod_informer = SharedInformer::start(pod_informer);
    node_informer.wait_for_sync(Duration::from_secs(10));
    pod_informer.wait_for_sync(Duration::from_secs(10));

    let pod_cache = Arc::clone(pod_informer.cache());
    let retry_queue = Arc::new(vc_client::delaying::DelayingQueue::new(Arc::clone(&queue)));
    for worker_id in 0..config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let retry_queue = Arc::clone(&retry_queue);
        let state = Arc::clone(&state);
        let metrics = Arc::clone(&metrics);
        let client = client.clone();
        let config = config.clone();
        let pod_cache = Arc::clone(&pod_cache);
        let stop = handle.stop_flag();
        handle.add_thread(
            std::thread::Builder::new()
                .name(format!("scheduler-{worker_id}"))
                .spawn(move || {
                    while let Some(key) = queue.get() {
                        if stop.is_set() {
                            queue.done(&key);
                            break;
                        }
                        schedule_one(
                            &key,
                            &client,
                            &pod_cache,
                            &state,
                            &config,
                            &metrics,
                            &queue,
                            &retry_queue,
                        );
                        queue.done(&key);
                    }
                })
                .expect("spawn scheduler worker"),
        );
    }

    {
        let queue = Arc::clone(&queue);
        handle.on_stop(move || queue.shutdown());
    }
    handle.add_informer(node_informer);
    handle.add_informer(pod_informer);
    (handle, metrics)
}

fn needs_scheduling(pod: &Pod) -> bool {
    !pod.spec.is_bound() && pod.status.phase == PodPhase::Pending && !pod.meta.is_terminating()
}

fn record_assignment(state: &mut SchedulerState, key: &str, pod: &Pod) {
    if state.assignments.contains_key(key) {
        return;
    }
    let requests = pod.spec.effective_requests();
    let node = pod.spec.node_name.clone();
    let alloc = state.nodes.entry(node.clone()).or_default();
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

#[allow(clippy::too_many_arguments)]
fn schedule_one(
    key: &str,
    client: &Client,
    pod_cache: &vc_client::Cache,
    state: &Arc<Mutex<SchedulerState>>,
    config: &SchedulerConfig,
    metrics: &SchedulerMetrics,
    queue: &Arc<WorkQueue<String>>,
    retry_queue: &vc_client::delaying::DelayingQueue<String>,
) {
    let Some(obj) = pod_cache.get(key) else { return };
    let Some(pod) = obj.as_pod() else { return };
    if !needs_scheduling(pod) {
        return;
    }

    // The scheduling algorithm cost — the sequential bottleneck. The
    // per-kpod term models scoring cost growth with cluster occupancy.
    let bound = state.lock().assignments.len() as u32;
    std::thread::sleep(config.service_time + config.service_time_per_kpod * bound / 1000);

    // Choose and reserve a node atomically.
    let chosen = {
        let mut state = state.lock();
        match choose_node(&state, pod) {
            Some(node) => {
                let requests = pod.spec.effective_requests();
                let alloc = state.nodes.entry(node.clone()).or_default();
                add_resources(&mut alloc.allocated, &requests);
                alloc.pods.insert(key.to_string(), pod.meta.labels.clone());
                state.assignments.insert(key.to_string(), (node.clone(), requests));
                Some(node)
            }
            None => None,
        }
    };

    let Some(node_name) = chosen else {
        metrics.unschedulable.inc();
        if config.emit_events {
            emit_event(client, pod, "FailedScheduling", "no nodes available");
        }
        // Record the condition once, then retry with backoff.
        let mut updated = pod.clone();
        updated.status.set_condition(
            PodConditionType::PodScheduled,
            false,
            "Unschedulable",
            now(client),
        );
        let _ = client.update(updated.into());
        retry_queue.add_after(key.to_string(), config.unschedulable_backoff);
        return;
    };

    // Bind: write spec.node_name + PodScheduled condition.
    let bind = retry_on_conflict(5, || {
        let fresh = client.get(ResourceKind::Pod, &pod.meta.namespace, &pod.meta.name)?;
        let mut fresh: Pod = fresh.try_into()?;
        if fresh.spec.is_bound() {
            return Ok(()); // someone else bound it
        }
        fresh.spec.node_name = node_name.clone();
        fresh.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now(client));
        client.update(fresh.into()).map(|_| ())
    });

    match bind {
        Ok(()) => {
            metrics.scheduled.inc();
            if config.emit_events {
                emit_event(client, pod, "Scheduled", &format!("assigned {key} to {node_name}"));
            }
        }
        Err(err) => {
            // Pod vanished or write failed: release the reservation.
            release_assignment(&mut state.lock(), key);
            if !err.is_not_found() {
                metrics.bind_errors.inc();
                queue.add(key.to_string());
            }
        }
    }
}

fn now(client: &Client) -> vc_api::time::Timestamp {
    client.server().clock().now()
}

fn emit_event(client: &Client, pod: &Pod, reason: &str, message: &str) {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let event = Event::about(
        pod.meta.namespace.clone(),
        format!("{}.{:x}", pod.meta.name, seq),
        ObjectReference {
            kind: "Pod".into(),
            namespace: pod.meta.namespace.clone(),
            name: pod.meta.name.clone(),
        },
        reason,
        message,
        now(client),
    );
    let _ = client.create(event.into());
}

/// Returns the best feasible node for `pod`, or `None`.
fn choose_node(state: &SchedulerState, pod: &Pod) -> Option<String> {
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

fn effective_namespaces(term: &vc_api::pod::PodAffinityTerm, pod: &Pod) -> Vec<String> {
    if term.namespaces.is_empty() {
        vec![pod.meta.namespace.clone()]
    } else {
        term.namespaces.clone()
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
        let (mut handle, metrics) = start(client, fast_scheduler_config());
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
        let (mut handle, _metrics) = start(client, fast_scheduler_config());
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
        let (mut handle, metrics) = start(client, fast_scheduler_config());
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

        let (mut handle, _metrics) = start(client, fast_scheduler_config());
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

        let (mut handle, metrics) = start(client, fast_scheduler_config());
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
        let (mut handle, _metrics) = start(client, fast_scheduler_config());
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
        let (mut handle, _metrics) = start(client, fast_scheduler_config());
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
        let (mut handle, metrics) = start(client, fast_scheduler_config());
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
    fn sequential_service_time_caps_throughput() {
        let server = fast_server();
        let client = Client::new(Arc::clone(&server), "scheduler");
        add_node(&client, "n1", "96");
        let config =
            SchedulerConfig { service_time: Duration::from_millis(5), ..Default::default() };
        let (mut handle, metrics) = start(client, config);
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
}
