//! The Pod object: containers, scheduling constraints, phases and
//! conditions.
//!
//! The paper uses end-to-end Pod creation time as its primary metric because
//! the Pod "has arguably the most complicated schema"; this module carries
//! the parts of that schema the evaluation exercises: resource requests,
//! node selectors, tolerations, inter-pod (anti-)affinity, init containers
//! (used by the enhanced kubeproxy's readiness gating) and the
//! `PodScheduled` / `Ready` condition machinery whose timestamps define the
//! measured latency phases.

use crate::labels::{Labels, Selector};
use crate::meta::ObjectMeta;
use crate::quantity::ResourceList;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single container in a pod.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Container {
    /// Container name, unique within the pod.
    pub name: String,
    /// Image reference (`repo/name:tag`).
    pub image: String,
    /// Entry-point arguments.
    pub command: Vec<String>,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Resource requests used by the scheduler.
    pub requests: ResourceList,
    /// Resource limits enforced by the runtime.
    pub limits: ResourceList,
    /// Exposed ports.
    pub ports: Vec<ContainerPort>,
    /// Whether the container runs with full host privileges. Tenant
    /// workloads are never allowed to set this on the sync path; the
    /// field exists so the admission policy engine has something typed
    /// to reject (missing-field defaulting keeps old WAL/wire payloads
    /// parseable).
    pub privileged: bool,
}

impl Container {
    /// Creates a container with a name and image.
    pub fn new(name: impl Into<String>, image: impl Into<String>) -> Self {
        Container { name: name.into(), image: image.into(), ..Default::default() }
    }

    /// Sets resource requests (builder style).
    pub fn with_requests(mut self, requests: ResourceList) -> Self {
        self.requests = requests;
        self
    }

    /// Adds a TCP port (builder style).
    pub fn with_port(mut self, port: u16) -> Self {
        self.ports.push(ContainerPort { container_port: port, protocol: Protocol::Tcp });
        self
    }

    /// Requests full host privileges (builder style). Rejected by the
    /// tenant-isolation admission policy on the sync path.
    pub fn privileged(mut self) -> Self {
        self.privileged = true;
        self
    }
}

/// A network port exposed by a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerPort {
    /// Port number inside the pod network namespace.
    pub container_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

/// Transport protocol of a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Protocol {
    /// Transmission Control Protocol.
    #[default]
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

/// Toleration of a node taint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Toleration {
    /// Taint key tolerated; empty tolerates all keys.
    pub key: String,
    /// Taint value that must match when non-empty; empty tolerates any
    /// value.
    pub value: String,
    /// Which taint effect is tolerated; `None` tolerates all effects.
    pub effect: Option<TaintEffect>,
}

/// Effect of a node taint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaintEffect {
    /// New pods are not scheduled unless they tolerate the taint.
    NoSchedule,
    /// Scheduler avoids the node but may still use it.
    PreferNoSchedule,
    /// Running pods without the toleration are evicted.
    NoExecute,
}

/// An inter-pod affinity or anti-affinity term.
///
/// The term selects a set of pods via `selector`; the (anti-)affinity
/// constrains the scheduled pod to share (or not share) a topology domain —
/// here always the node — with the selected pods. Fig 6 of the paper shows
/// why vNodes represent these constraints faithfully while virtual-kubelet
/// cloud nodes cannot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodAffinityTerm {
    /// Selects the peer pods the constraint refers to.
    pub selector: Selector,
    /// Namespaces searched for peers; empty means "the pod's own namespace".
    pub namespaces: Vec<String>,
}

/// Scheduling affinity constraints.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Affinity {
    /// Pod must land on a node hosting a matching pod.
    pub pod_affinity: Vec<PodAffinityTerm>,
    /// Pod must NOT land on a node hosting a matching pod.
    pub pod_anti_affinity: Vec<PodAffinityTerm>,
}

impl Affinity {
    /// Returns `true` if no constraints are present.
    pub fn is_empty(&self) -> bool {
        self.pod_affinity.is_empty() && self.pod_anti_affinity.is_empty()
    }
}

/// Pod specification (desired state).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PodSpec {
    /// Containers run before the workload containers, sequentially, to
    /// completion. The enhanced kubeproxy inserts a routing-gate init
    /// container here.
    pub init_containers: Vec<Container>,
    /// Workload containers.
    pub containers: Vec<Container>,
    /// Target node; empty until the scheduler binds the pod.
    pub node_name: String,
    /// Node label equality requirements.
    pub node_selector: Labels,
    /// Inter-pod (anti-)affinity.
    pub affinity: Affinity,
    /// Tolerated node taints.
    pub tolerations: Vec<Toleration>,
    /// Service account used by the pod.
    pub service_account_name: String,
    /// Runtime class: `runc` or `kata` in this simulation.
    pub runtime_class: RuntimeClass,
    /// Names of secrets mounted by the pod (tracked so the syncer knows the
    /// dependency set).
    pub secret_names: Vec<String>,
    /// Names of config maps mounted by the pod.
    pub config_map_names: Vec<String>,
    /// Names of persistent volume claims used by the pod.
    pub volume_claim_names: Vec<String>,
    /// Host filesystem paths the pod asks to bind-mount. Always empty
    /// for tenant workloads — the admission policy engine rejects any
    /// synced pod that sets it.
    pub host_paths: Vec<String>,
    /// Whether the pod shares the host network namespace.
    pub host_network: bool,
    /// Whether the pod shares the host PID namespace.
    pub host_pid: bool,
}

/// Which container runtime sandbox the pod requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RuntimeClass {
    /// Shared-kernel runtime.
    #[default]
    Runc,
    /// Kata sandbox (VM-isolated, private guest OS).
    Kata,
}

impl PodSpec {
    /// Sums resource requests across all workload containers, and takes the
    /// max against each init container (Kubernetes effective-request rule).
    pub fn effective_requests(&self) -> ResourceList {
        let mut total = ResourceList::new();
        for c in &self.containers {
            crate::quantity::add_resources(&mut total, &c.requests);
        }
        for ic in &self.init_containers {
            for (k, v) in &ic.requests {
                let entry = total.entry(k.clone()).or_insert(crate::quantity::Quantity::ZERO);
                if *v > *entry {
                    *entry = *v;
                }
            }
        }
        total
    }

    /// Returns `true` once the scheduler has assigned a node.
    pub fn is_bound(&self) -> bool {
        !self.node_name.is_empty()
    }

    /// Returns `true` if any workload or init container requests full
    /// host privileges.
    pub fn any_privileged(&self) -> bool {
        self.containers.iter().chain(&self.init_containers).any(|c| c.privileged)
    }

    /// Returns `true` if the pod asks for any host-level access: a host
    /// path mount, the host network namespace, or the host PID
    /// namespace.
    pub fn requests_host_access(&self) -> bool {
        !self.host_paths.is_empty() || self.host_network || self.host_pid
    }
}

/// Pod lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PodPhase {
    /// Accepted but not all containers started (includes unscheduled).
    #[default]
    Pending,
    /// Bound to a node with all containers started.
    Running,
    /// All containers terminated successfully.
    Succeeded,
    /// At least one container terminated in failure.
    Failed,
}

/// Type of a pod condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodConditionType {
    /// Scheduler bound the pod to a node.
    PodScheduled,
    /// All init containers completed.
    Initialized,
    /// All containers are ready.
    ContainersReady,
    /// Pod is ready to serve (the timestamp the paper's latency metric
    /// ends at).
    Ready,
    /// Custom readiness gate used by the enhanced kubeproxy to signal that
    /// guest routing rules are injected.
    RoutesInjected,
}

/// One entry in `PodStatus::conditions`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodCondition {
    /// Condition type.
    pub condition_type: PodConditionType,
    /// Whether the condition currently holds.
    pub status: bool,
    /// Last transition time (drives the latency measurements).
    pub last_transition: Timestamp,
    /// Machine-readable reason.
    pub reason: String,
}

/// Pod status (observed state).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PodStatus {
    /// Lifecycle phase.
    pub phase: PodPhase,
    /// Conditions with transition timestamps.
    pub conditions: Vec<PodCondition>,
    /// Pod IP assigned by the network plugin.
    pub pod_ip: String,
    /// IP of the hosting node.
    pub host_ip: String,
    /// Time the kubelet reported all containers started.
    pub started_at: Option<Timestamp>,
    /// Human-readable scheduling/eviction message.
    pub message: String,
}

impl PodStatus {
    /// Returns the condition of the given type, if present.
    pub fn condition(&self, t: PodConditionType) -> Option<&PodCondition> {
        self.conditions.iter().find(|c| c.condition_type == t)
    }

    /// Sets (or transitions) a condition, recording `now` only when the
    /// status flips, mirroring Kubernetes `lastTransitionTime` semantics.
    pub fn set_condition(
        &mut self,
        t: PodConditionType,
        status: bool,
        reason: impl Into<String>,
        now: Timestamp,
    ) {
        match self.conditions.iter_mut().find(|c| c.condition_type == t) {
            Some(existing) => {
                if existing.status != status {
                    existing.status = status;
                    existing.last_transition = now;
                }
                existing.reason = reason.into();
            }
            None => self.conditions.push(PodCondition {
                condition_type: t,
                status,
                last_transition: now,
                reason: reason.into(),
            }),
        }
    }

    /// Returns `true` if the `Ready` condition is true.
    pub fn is_ready(&self) -> bool {
        self.condition(PodConditionType::Ready).is_some_and(|c| c.status)
    }
}

/// A complete Pod object.
///
/// # Examples
///
/// ```
/// use vc_api::pod::{Container, Pod};
/// use vc_api::quantity::resource_list;
///
/// let pod = Pod::new("default", "web-0")
///     .with_container(
///         Container::new("app", "nginx:1.19")
///             .with_requests(resource_list(&[("cpu", "100m"), ("memory", "64Mi")])),
///     );
/// assert_eq!(pod.meta.full_name(), "default/web-0");
/// assert!(!pod.status.is_ready());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Pod {
    /// Standard metadata.
    pub meta: ObjectMeta,
    /// Desired state.
    pub spec: PodSpec,
    /// Observed state.
    pub status: PodStatus,
}

impl Pod {
    /// Creates a pending pod with no containers.
    pub fn new(namespace: impl Into<String>, name: impl Into<String>) -> Self {
        Pod { meta: ObjectMeta::namespaced(namespace, name), ..Default::default() }
    }

    /// Adds a workload container (builder style).
    pub fn with_container(mut self, container: Container) -> Self {
        self.spec.containers.push(container);
        self
    }

    /// Adds labels (builder style).
    pub fn with_labels(mut self, labels: Labels) -> Self {
        self.meta.labels.extend(labels);
        self
    }

    /// Requires the pod to avoid nodes running pods matched by `selector`
    /// (builder style).
    pub fn with_anti_affinity(mut self, selector: Selector) -> Self {
        self.spec
            .affinity
            .pod_anti_affinity
            .push(PodAffinityTerm { selector, namespaces: Vec::new() });
        self
    }

    /// Uses the Kata sandbox runtime (builder style).
    pub fn with_kata_runtime(mut self) -> Self {
        self.spec.runtime_class = RuntimeClass::Kata;
        self
    }

    /// Bind-mounts a host filesystem path (builder style). Tenant pods
    /// carrying this are rejected at the sync boundary.
    pub fn with_host_path(mut self, path: impl Into<String>) -> Self {
        self.spec.host_paths.push(path.into());
        self
    }

    /// Shares the host network namespace (builder style).
    pub fn with_host_network(mut self) -> Self {
        self.spec.host_network = true;
        self
    }

    /// Shares the host PID namespace (builder style).
    pub fn with_host_pid(mut self) -> Self {
        self.spec.host_pid = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantity::{resource_list, Quantity};

    #[test]
    fn effective_requests_sum_workload_max_init() {
        let mut spec = PodSpec::default();
        spec.containers
            .push(Container::new("a", "img").with_requests(resource_list(&[("cpu", "100m")])));
        spec.containers
            .push(Container::new("b", "img").with_requests(resource_list(&[("cpu", "200m")])));
        // Init container with a large transient request dominates.
        spec.init_containers
            .push(Container::new("init", "img").with_requests(resource_list(&[("cpu", "500m")])));
        let eff = spec.effective_requests();
        assert_eq!(eff["cpu"], Quantity::from_millis(500));

        // Without the big init container, requests sum.
        spec.init_containers.clear();
        assert_eq!(spec.effective_requests()["cpu"], Quantity::from_millis(300));
    }

    #[test]
    fn condition_transition_time_only_changes_on_flip() {
        let mut status = PodStatus::default();
        status.set_condition(
            PodConditionType::Ready,
            false,
            "starting",
            Timestamp::from_millis(10),
        );
        status.set_condition(PodConditionType::Ready, false, "still", Timestamp::from_millis(20));
        assert_eq!(
            status.condition(PodConditionType::Ready).unwrap().last_transition,
            Timestamp::from_millis(10),
            "no flip, no transition-time update"
        );
        status.set_condition(PodConditionType::Ready, true, "ok", Timestamp::from_millis(30));
        let cond = status.condition(PodConditionType::Ready).unwrap();
        assert_eq!(cond.last_transition, Timestamp::from_millis(30));
        assert!(status.is_ready());
    }

    #[test]
    fn pod_builder() {
        let pod = Pod::new("ns", "p")
            .with_container(Container::new("c", "img").with_port(8080))
            .with_anti_affinity(Selector::from_pairs(&[("app", "db")]))
            .with_kata_runtime();
        assert_eq!(pod.spec.containers[0].ports[0].container_port, 8080);
        assert_eq!(pod.spec.affinity.pod_anti_affinity.len(), 1);
        assert_eq!(pod.spec.runtime_class, RuntimeClass::Kata);
        assert!(!pod.spec.is_bound());
    }

    #[test]
    fn bound_after_node_assignment() {
        let mut pod = Pod::new("ns", "p");
        assert!(!pod.spec.is_bound());
        pod.spec.node_name = "node-1".into();
        assert!(pod.spec.is_bound());
    }

    #[test]
    fn serde_roundtrip() {
        let pod = Pod::new("ns", "p").with_container(Container::new("c", "img"));
        let json = serde_json::to_string(&pod).unwrap();
        let back: Pod = serde_json::from_str(&json).unwrap();
        assert_eq!(pod, back);
    }

    #[test]
    fn host_access_flags() {
        let plain = Pod::new("ns", "p").with_container(Container::new("c", "img"));
        assert!(!plain.spec.requests_host_access());
        assert!(!plain.spec.any_privileged());

        let hostile = Pod::new("ns", "p")
            .with_container(Container::new("c", "img").privileged())
            .with_host_path("/var/run/docker.sock")
            .with_host_network()
            .with_host_pid();
        assert!(hostile.spec.requests_host_access());
        assert!(hostile.spec.any_privileged());
    }

    #[test]
    fn security_fields_default_when_absent() {
        // Payloads serialized before the security fields existed (old WAL
        // records, old wire peers) must still deserialize to safe defaults.
        use serde::Value;
        fn fields(v: &mut Value) -> &mut BTreeMap<String, Value> {
            match v {
                Value::Object(m) => m,
                _ => panic!("expected object"),
            }
        }
        let mut v =
            serde::to_value(&Pod::new("ns", "p").with_container(Container::new("c", "img")));
        let spec = fields(fields(&mut v).get_mut("spec").unwrap());
        spec.remove("host_paths");
        spec.remove("host_network");
        spec.remove("host_pid");
        let Some(Value::Array(containers)) = spec.get_mut("containers") else {
            panic!("expected containers array")
        };
        fields(&mut containers[0]).remove("privileged");
        let pod: Pod = serde::from_value(&v).unwrap();
        assert!(!pod.spec.requests_host_access());
        assert!(!pod.spec.any_privileged());
        assert!(pod.spec.host_paths.is_empty());
    }

    #[test]
    fn affinity_is_empty() {
        let mut a = Affinity::default();
        assert!(a.is_empty());
        a.pod_affinity
            .push(PodAffinityTerm { selector: Selector::everything(), namespaces: Vec::new() });
        assert!(!a.is_empty());
    }
}
