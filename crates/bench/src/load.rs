//! Burst load generation and latency collection.
//!
//! Mirrors the paper's load generator: "created a large number of Pods
//! simultaneously in all tenant control planes to stress the system",
//! measuring each pod's creation time "as the difference between the
//! tenant Pod creation timestamp and the timestamp that the Pod's condition
//! is updated as ready in the tenant". Baseline runs send the same load to
//! the super cluster directly with one generator thread per tenant.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_api::pod::{Container, Pod, PodConditionType};
use vc_api::quantity::resource_list;
use vc_client::Client;
use vc_controllers::util::wait_until;
use vc_controllers::Cluster;
use vc_core::framework::Framework;

/// Outcome of one burst run.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Per-pod end-to-end creation time in milliseconds.
    pub latencies_ms: Vec<u64>,
    /// Wall time from first submission to last pod ready.
    pub wall: Duration,
    /// Pods created.
    pub pods: usize,
}

impl LoadResult {
    /// Pods per second over the whole burst.
    pub fn throughput(&self) -> f64 {
        self.pods as f64 / self.wall.as_secs_f64()
    }
}

/// The pod every burst creates (matches the paper: small pods, image pull
/// excluded by the mock kubelet).
pub fn stress_pod(ns: &str, name: &str) -> Pod {
    Pod::new(ns, name).with_container(
        Container::new("app", "stress:1").with_requests(resource_list(&[("cpu", "50m")])),
    )
}

/// Computes a pod's creation→ready latency from its object timestamps.
fn pod_latency_ms(pod: &Pod) -> Option<u64> {
    let ready = pod.status.condition(PodConditionType::Ready)?;
    if !ready.status {
        return None;
    }
    Some(ready.last_transition.duration_since(pod.meta.creation_timestamp).as_millis() as u64)
}

/// Deadline for a burst: generous but bounded.
fn deadline_for(pods: usize) -> Duration {
    Duration::from_secs(120) + Duration::from_millis(pods as u64 * 20)
}

/// The pods tenant `index` of `tenants` creates in a burst of `total`:
/// an even share, plus one for each of the first `total % tenants`.
pub fn burst_share(total: usize, tenants: usize, index: usize) -> usize {
    total / tenants + usize::from(index < total % tenants)
}

/// Runs a VirtualCluster burst of `total` pods spread over the tenants by
/// [`burst_share`]: every tenant concurrently creates its share in its own
/// control plane, as `default/stress-{i}`. Returns once all pods are Ready
/// **in the tenants**.
///
/// # Panics
///
/// Panics when the burst does not complete before the deadline (the
/// harness treats that as an experiment failure).
pub fn run_vc_burst(fw: &Framework, tenants: &[String], total: usize) -> LoadResult {
    // Traces (Fig 8 / Table I read them back) cover this burst only.
    fw.obs().tracer.reset();
    let start = Instant::now();

    std::thread::scope(|scope| {
        for (t, tenant) in tenants.iter().enumerate() {
            let client = fw.tenant_client(tenant, "load-generator");
            let count = burst_share(total, tenants.len(), t);
            scope.spawn(move || {
                for i in 0..count {
                    client
                        .create(stress_pod("default", &format!("stress-{i}")).into())
                        .expect("create tenant pod");
                }
            });
        }
    });

    let clients: Vec<Client> =
        tenants.iter().map(|t| fw.tenant_client(t, "load-observer")).collect();
    let done = wait_until(deadline_for(total), Duration::from_millis(200), || {
        ready_pods(&clients) >= total
    });
    let wall = start.elapsed();
    assert!(
        done,
        "VC burst did not finish: {}/{} ready, downward={}, upward={}",
        ready_pods(&clients),
        total,
        fw.syncer.downward_len(),
        fw.syncer.upward_len()
    );
    let latencies_ms = clients.iter().flat_map(ready_latencies_ms).collect();
    LoadResult { latencies_ms, wall, pods: total }
}

/// Pods Ready in the `default` namespace across `clients`.
pub fn ready_pods(clients: &[Client]) -> usize {
    clients
        .iter()
        .map(|c| {
            c.list(ResourceKind::Pod, Some("default"))
                .map(|(pods, _)| {
                    pods.iter().filter(|p| p.as_pod().is_some_and(|p| p.status.is_ready())).count()
                })
                .unwrap_or(0)
        })
        .sum()
}

/// The creation→Ready time in milliseconds of every Ready pod in the
/// `default` namespace of `client`.
///
/// # Panics
///
/// Panics when the list fails.
pub fn ready_latencies_ms(client: &Client) -> Vec<u64> {
    let (pods, _) = client.list(ResourceKind::Pod, Some("default")).expect("list pods");
    pods.iter().filter_map(|obj| obj.as_pod().and_then(pod_latency_ms)).collect()
}

/// Runs a baseline burst: `threads` generator threads create `total_pods`
/// directly in the super cluster (the paper's baseline configuration).
///
/// # Panics
///
/// Panics when the burst does not complete before the deadline.
pub fn run_baseline_burst(cluster: &Arc<Cluster>, total_pods: usize, threads: usize) -> LoadResult {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let client = cluster.client(format!("load-generator-{t}"));
            let count = burst_share(total_pods, threads, t);
            scope.spawn(move || {
                for i in 0..count {
                    client
                        .create(stress_pod("default", &format!("stress-{t}-{i}")).into())
                        .expect("create baseline pod");
                }
            });
        }
    });

    let observer = [cluster.client("load-observer")];
    let done = wait_until(deadline_for(total_pods), Duration::from_millis(200), || {
        ready_pods(&observer) >= total_pods
    });
    let wall = start.elapsed();
    assert!(done, "baseline burst did not finish: {}/{} ready", ready_pods(&observer), total_pods);
    LoadResult { latencies_ms: ready_latencies_ms(&observer[0]), wall, pods: total_pods }
}

/// Prints the syncer's robustness counters after a run (retry pipeline,
/// dead letters, per-tenant circuit breakers), read from one coherent
/// [`SyncerMetrics::snapshot`](vc_core::syncer::SyncerMetrics::snapshot)
/// so the row cannot tear across concurrently updating counters.
pub fn print_robustness(fw: &Framework) {
    let snap = fw.syncer.metrics.snapshot();
    println!(
        "  robustness: retries={} exhausted={} dead_letters={} breaker_trips={} \
         breaker_recoveries={}",
        snap.retries,
        snap.retry_exhausted,
        snap.dead_letter_len.max(0),
        snap.breaker_trips,
        snap.breaker_recoveries,
    );
}

/// Provisions `count` tenants named `tenant-1..count` and returns their
/// names.
///
/// # Panics
///
/// Panics when provisioning fails.
pub fn provision_tenants(fw: &Framework, count: usize) -> Vec<String> {
    let names: Vec<String> = (1..=count).map(|i| format!("tenant-{i}")).collect();
    for name in &names {
        fw.create_tenant(name).expect("provision tenant");
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;
    use vc_core::framework::{Framework, FrameworkConfig};

    #[test]
    fn small_vc_burst_completes_and_measures() {
        let mut config = FrameworkConfig::minimal();
        config.syncer.downward_workers = 8;
        let fw = Framework::start(config);
        let tenants = provision_tenants(&fw, 2);
        let result = run_vc_burst(&fw, &tenants, 10);
        assert_eq!(result.pods, 10);
        assert_eq!(result.latencies_ms.len(), 10);
        assert!(result.throughput() > 0.0);
        fw.shutdown();
    }

    #[test]
    fn small_baseline_burst_completes() {
        let cluster = Arc::new(vc_controllers::Cluster::start(calibration::paper_super_cluster(
            "baseline-test",
        )));
        cluster.add_mock_nodes(2).unwrap();
        let cluster = cluster;
        let result = run_baseline_burst(&cluster, 20, 4);
        assert_eq!(result.pods, 20);
        assert_eq!(result.latencies_ms.len(), 20);
        cluster.shutdown();
    }
}
