//! ReplicaSet and Deployment controllers — the tenant control plane's
//! controller-manager half.
//!
//! Tenants use the full Kubernetes workload API against their dedicated
//! control plane: a Deployment stamps a ReplicaSet, the ReplicaSet stamps
//! Pods, and only the Pods are synchronized to the super cluster. This is
//! what "most of the existing Kubernetes plugins and operators can be
//! ported to VirtualCluster with almost zero integration efforts" rests on.

use crate::util::{retry_on_conflict, ControllerHandle, Informers};
use std::sync::Arc;
use vc_api::meta::OwnerReference;
use vc_api::metrics::Counter;
use vc_api::object::ResourceKind;
use vc_api::pod::Pod;
use vc_api::sha256::sha256_hex;
use vc_api::workload::{Deployment, ReplicaSet};
use vc_client::{Client, InformerEvent, WorkQueue};

/// Metrics for the workload controllers.
#[derive(Debug, Default)]
pub struct WorkloadMetrics {
    /// Pods created by replica sets.
    pub pods_created: Counter,
    /// Pods deleted by replica sets (scale-down).
    pub pods_deleted: Counter,
    /// ReplicaSets created by deployments.
    pub replicasets_created: Counter,
}

/// Starts the ReplicaSet + Deployment controllers, reading the cluster
/// through `informers`.
pub fn start(client: Client, informers: &Informers) -> (ControllerHandle, Arc<WorkloadMetrics>) {
    let mut handle = ControllerHandle::new("workload-controllers");
    let metrics = Arc::new(WorkloadMetrics::default());
    let rs_queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());
    let deploy_queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());
    // Creation expectations, the client-go `ControllerExpectations` analog:
    // reconciles that created pods wait until those creations are observed
    // through the informer before counting again, preventing over-creation
    // from cache lag.
    let expectations: Arc<parking_lot::Mutex<std::collections::HashMap<String, i64>>> =
        Arc::new(parking_lot::Mutex::new(std::collections::HashMap::new()));

    let rs_informer = informers.get(ResourceKind::ReplicaSet);
    let deploy_informer = informers.get(ResourceKind::Deployment);
    let pod_informer = informers.get(ResourceKind::Pod);

    {
        let rs_queue = Arc::clone(&rs_queue);
        rs_informer.add_handler(Box::new(move |event| {
            rs_queue.add(event.object().key());
        }));
    }
    {
        let deploy_queue = Arc::clone(&deploy_queue);
        deploy_informer.add_handler(Box::new(move |event| {
            deploy_queue.add(event.object().key());
        }));
    }
    {
        // Pod changes wake their owning ReplicaSet; observed creations
        // satisfy that replica set's expectations.
        let rs_queue = Arc::clone(&rs_queue);
        let expectations = Arc::clone(&expectations);
        pod_informer.add_handler(Box::new(move |event| {
            let obj = event.object();
            if let Some(owner) = obj.meta().controller_owner() {
                if owner.kind == "ReplicaSet" {
                    let rs_key = format!("{}/{}", obj.meta().namespace, owner.name);
                    if matches!(event, InformerEvent::Added { .. }) {
                        let mut exp = expectations.lock();
                        if let Some(pending) = exp.get_mut(&rs_key) {
                            *pending = (*pending - 1).max(0);
                        }
                    }
                    rs_queue.add(rs_key);
                }
            }
        }));
    }
    {
        // ReplicaSet changes wake their owning Deployment.
        let deploy_queue = Arc::clone(&deploy_queue);
        rs_informer.add_handler(Box::new(move |event| {
            let obj = event.object();
            if let Some(owner) = obj.meta().controller_owner() {
                if owner.kind == "Deployment" {
                    deploy_queue.add(format!("{}/{}", obj.meta().namespace, owner.name));
                }
            }
        }));
    }

    // ReplicaSet workers.
    let rs_cache = Arc::clone(rs_informer.cache());
    let pod_cache = Arc::clone(pod_informer.cache());
    {
        let client = client.clone();
        let metrics = Arc::clone(&metrics);
        handle.workers("replicaset-controller", 2, 1, &rs_queue, move |key| {
            reconcile_replicaset(key, &client, &rs_cache, &pod_cache, &expectations, &metrics)
        });
    }

    // Deployment worker.
    {
        let deploy_cache = Arc::clone(deploy_informer.cache());
        let rs_cache = Arc::clone(rs_informer.cache());
        let metrics = Arc::clone(&metrics);
        handle.workers("deployment-controller", 1, 1, &deploy_queue, move |key| {
            reconcile_deployment(key, &client, &deploy_cache, &rs_cache, &metrics)
        });
    }
    (handle, metrics)
}

fn reconcile_replicaset(
    key: &str,
    client: &Client,
    rs_cache: &vc_client::Cache,
    pod_cache: &vc_client::Cache,
    expectations: &parking_lot::Mutex<std::collections::HashMap<String, i64>>,
    metrics: &WorkloadMetrics,
) {
    let Some(obj) = rs_cache.get(key) else {
        expectations.lock().remove(key);
        return;
    };
    let Ok(rs) = ReplicaSet::try_from(obj) else { return };
    if rs.meta.is_terminating() {
        return;
    }
    // Read before the cache: the pod informer adds a created pod to the
    // cache and *then* settles its expectation, so in this order a pod in
    // flight is counted at least once (twice at worst, which the next pass
    // corrects) and never zero times, which would create one too many.
    let pending = expectations.lock().get(key).copied().unwrap_or(0).max(0) as u32;
    let owned: Vec<Pod> = pod_cache
        .list_namespace(&rs.meta.namespace)
        .into_iter()
        .filter_map(|o| Pod::try_from(o).ok())
        .filter(|p| {
            !p.meta.is_terminating()
                && p.meta.controller_owner().is_some_and(|o| o.uid == rs.meta.uid)
        })
        .collect();

    let current = owned.len() as u32 + pending;
    if current < rs.replicas {
        let missing = rs.replicas - current;
        *expectations.lock().entry(key.to_string()).or_insert(0) += missing as i64;
        for _ in 0..missing {
            let suffix: String = (0..5)
                .map(|_| {
                    let c = rand::random::<u8>() % 36;
                    if c < 10 {
                        (b'0' + c) as char
                    } else {
                        (b'a' + c - 10) as char
                    }
                })
                .collect();
            let mut pod = Pod::new(rs.meta.namespace.clone(), format!("{}-{suffix}", rs.meta.name));
            pod.meta.labels = rs.template.labels.clone();
            pod.meta.owner_references.push(OwnerReference::controller_of(
                "ReplicaSet",
                rs.meta.name.clone(),
                rs.meta.uid.clone(),
            ));
            pod.spec = rs.template.spec.clone().into();
            if client.create(pod.into()).is_ok() {
                metrics.pods_created.inc();
            } else {
                // Creation failed: release the expectation we charged.
                let mut exp = expectations.lock();
                if let Some(p) = exp.get_mut(key) {
                    *p = (*p - 1).max(0);
                }
            }
        }
    } else if owned.len() as u32 > rs.replicas {
        // Delete the youngest pods first.
        let mut sorted = owned.clone();
        sorted.sort_by_key(|p| std::cmp::Reverse(p.meta.creation_timestamp));
        for pod in sorted.iter().take((current - rs.replicas) as usize) {
            if client.delete(ResourceKind::Pod, &pod.meta.namespace, &pod.meta.name).is_ok() {
                metrics.pods_deleted.inc();
            }
        }
    }

    // Status update.
    let ready = owned.iter().filter(|p| p.status.is_ready()).count() as u32;
    if rs.status.replicas != current.min(rs.replicas) || rs.status.ready_replicas != ready {
        let _ = retry_on_conflict(3, || {
            let fresh = client.get(ResourceKind::ReplicaSet, &rs.meta.namespace, &rs.meta.name)?;
            let mut fresh: ReplicaSet = fresh.try_into()?;
            fresh.status.replicas = current.min(fresh.replicas);
            fresh.status.ready_replicas = ready;
            client.update(fresh.into()).map(|_| ())
        });
    }
}

/// Stable hash of a pod template, used to name a deployment's replica set
/// (the analog of Kubernetes' `pod-template-hash`).
fn template_hash(deploy: &Deployment) -> String {
    let json = serde_json::to_string(&deploy.template).expect("pod template serializes");
    sha256_hex(json.as_bytes())[..8].to_string()
}

fn reconcile_deployment(
    key: &str,
    client: &Client,
    deploy_cache: &vc_client::Cache,
    rs_cache: &vc_client::Cache,
    metrics: &WorkloadMetrics,
) {
    let Some(obj) = deploy_cache.get(key) else { return };
    let Ok(deploy) = Deployment::try_from(obj) else { return };
    if deploy.meta.is_terminating() {
        return;
    }
    let hash = template_hash(&deploy);
    let desired_rs_name = format!("{}-{hash}", deploy.meta.name);

    let owned: Vec<ReplicaSet> = rs_cache
        .list_namespace(&deploy.meta.namespace)
        .into_iter()
        .filter_map(|o| ReplicaSet::try_from(o).ok())
        .filter(|rs| rs.meta.controller_owner().is_some_and(|o| o.uid == deploy.meta.uid))
        .collect();

    // Ensure the desired replica set exists at the right scale.
    match owned.iter().find(|rs| rs.meta.name == desired_rs_name) {
        None => {
            let mut rs = ReplicaSet::new(
                deploy.meta.namespace.clone(),
                desired_rs_name.clone(),
                deploy.replicas,
                deploy.selector.clone(),
                deploy.template.clone(),
            );
            rs.meta.owner_references.push(OwnerReference::controller_of(
                "Deployment",
                deploy.meta.name.clone(),
                deploy.meta.uid.clone(),
            ));
            if client.create(rs.into()).is_ok() {
                metrics.replicasets_created.inc();
            }
        }
        Some(existing) if existing.replicas != deploy.replicas => {
            let name = existing.meta.name.clone();
            let _ = retry_on_conflict(3, || {
                let fresh = client.get(ResourceKind::ReplicaSet, &deploy.meta.namespace, &name)?;
                let mut fresh: ReplicaSet = fresh.try_into()?;
                fresh.replicas = deploy.replicas;
                client.update(fresh.into()).map(|_| ())
            });
        }
        Some(_) => {}
    }

    // Old template revisions are deleted (pods are garbage-collected by
    // owner reference).
    for rs in owned.iter().filter(|rs| rs.meta.name != desired_rs_name) {
        let _ = client.delete(ResourceKind::ReplicaSet, &rs.meta.namespace, &rs.meta.name);
    }

    // Status aggregation from the live replica set.
    if let Some(rs) = owned.iter().find(|rs| rs.meta.name == desired_rs_name) {
        if deploy.status.replicas != rs.status.replicas
            || deploy.status.ready_replicas != rs.status.ready_replicas
            || deploy.status.observed_generation != deploy.meta.generation
        {
            let (replicas, ready) = (rs.status.replicas, rs.status.ready_replicas);
            let _ = retry_on_conflict(3, || {
                let fresh = client.get(
                    ResourceKind::Deployment,
                    &deploy.meta.namespace,
                    &deploy.meta.name,
                )?;
                let mut fresh: Deployment = fresh.try_into()?;
                fresh.status.replicas = replicas;
                fresh.status.ready_replicas = ready;
                fresh.status.observed_generation = fresh.meta.generation;
                client.update(fresh.into()).map(|_| ())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_count_reaches, wait_until};
    use std::time::Duration;
    use vc_api::labels::{labels, Selector};
    use vc_api::pod::{Container, PodSpec};
    use vc_api::workload::PodTemplate;
    use vc_apiserver::{ApiServer, ApiServerConfig};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn template(app: &str) -> PodTemplate {
        let mut spec = PodSpec::default();
        spec.containers.push(Container::new("app", "img:1"));
        PodTemplate { labels: labels(&[("app", app)]), spec }
    }

    fn pod_count(client: &Client, ns: &str) -> usize {
        client.list(ResourceKind::Pod, Some(ns)).unwrap().0.len()
    }

    #[test]
    fn replicaset_creates_pods() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(Client::new(Arc::clone(&server), "ctrl"), &informers);
        let user = Client::new(server, "u");
        user.create(
            ReplicaSet::new(
                "default",
                "web-rs",
                3,
                Selector::from_pairs(&[("app", "web")]),
                template("web"),
            )
            .into(),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 3
        }));
        assert_count_reaches(&metrics.pods_created, 3);
        // Created pods carry the owner reference.
        let (pods, _) = user.list(ResourceKind::Pod, Some("default")).unwrap();
        for pod in &pods {
            assert_eq!(pod.meta().controller_owner().unwrap().kind, "ReplicaSet");
        }
        handle.stop();
    }

    #[test]
    fn replicaset_replaces_deleted_pod() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(Client::new(Arc::clone(&server), "ctrl"), &informers);
        let user = Client::new(server, "u");
        user.create(
            ReplicaSet::new("default", "web-rs", 2, Selector::everything(), template("web")).into(),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 2
        }));
        let (pods, _) = user.list(ResourceKind::Pod, Some("default")).unwrap();
        let victim = pods[0].meta().name.clone();
        user.delete(ResourceKind::Pod, "default", &victim).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 2
        }));
        handle.stop();
    }

    #[test]
    fn replicaset_scales_down() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(Client::new(Arc::clone(&server), "ctrl"), &informers);
        let user = Client::new(server, "u");
        let created = user
            .create(
                ReplicaSet::new("default", "web-rs", 4, Selector::everything(), template("web"))
                    .into(),
            )
            .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 4
        }));
        let mut rs: ReplicaSet = created.try_into().unwrap();
        rs.replicas = 1;
        rs.meta.resource_version = 0;
        user.update(rs.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 1
        }));
        handle.stop();
    }

    #[test]
    fn deployment_creates_replicaset_and_pods() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) = start(Client::new(Arc::clone(&server), "ctrl"), &informers);
        let user = Client::new(server, "u");
        user.create(
            Deployment::new(
                "default",
                "web",
                2,
                Selector::from_pairs(&[("app", "web")]),
                template("web"),
            )
            .into(),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 2
        }));
        assert_count_reaches(&metrics.replicasets_created, 1);
        let (rss, _) = user.list(ResourceKind::ReplicaSet, Some("default")).unwrap();
        assert_eq!(rss.len(), 1);
        assert!(rss[0].meta().name.starts_with("web-"));
        handle.stop();
    }

    #[test]
    fn deployment_status_aggregates() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) = start(Client::new(Arc::clone(&server), "ctrl"), &informers);
        let user = Client::new(Arc::clone(&server), "u");
        user.create(
            Deployment::new("default", "web", 2, Selector::everything(), template("web")).into(),
        )
        .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            pod_count(&user, "default") == 2
        }));
        // Mark the pods ready (what the kubelet would do).
        let (pods, _) = user.list(ResourceKind::Pod, Some("default")).unwrap();
        for obj in pods {
            let mut pod: Pod = obj.try_into().unwrap();
            pod.status.set_condition(
                vc_api::pod::PodConditionType::Ready,
                true,
                "ready",
                server.clock().now(),
            );
            user.update(pod.into()).unwrap();
        }
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(10), || {
            user.get(ResourceKind::Deployment, "default", "web")
                .is_ok_and(|o| Deployment::try_from(o).unwrap().status.ready_replicas == 2)
        }));
        handle.stop();
    }
}
