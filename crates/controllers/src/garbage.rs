//! Owner-reference garbage collector.
//!
//! Periodically scans dependent kinds (Pods, ReplicaSets) and deletes any
//! object whose controller owner no longer exists — the cascade half of
//! Kubernetes' garbage collection (deleting a Deployment reaps its
//! ReplicaSets, whose deletion reaps their Pods).

use crate::util::ControllerHandle;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use vc_api::meta::Uid;
use vc_api::metrics::Counter;
use vc_api::object::ResourceKind;
use vc_client::{Client, InformerConfig, SharedInformer};

/// Garbage collector configuration.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Scan interval.
    pub interval: Duration,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig { interval: Duration::from_millis(200) }
    }
}

/// GC metrics.
#[derive(Debug, Default)]
pub struct GcMetrics {
    /// Orphaned dependents deleted.
    pub orphans_deleted: Counter,
    /// Scan passes completed.
    pub scans: Counter,
}

/// (dependent kind, owner kind) pairs the collector enforces.
const EDGES: [(ResourceKind, &str, ResourceKind); 2] = [
    (ResourceKind::Pod, "ReplicaSet", ResourceKind::ReplicaSet),
    (ResourceKind::ReplicaSet, "Deployment", ResourceKind::Deployment),
];

/// Starts the garbage collector.
pub fn start(client: Client, config: GcConfig) -> (ControllerHandle, Arc<GcMetrics>) {
    let mut handle = ControllerHandle::new("garbage-collector");
    let metrics = Arc::new(GcMetrics::default());

    // Informers over every kind involved, for cheap uid-existence lookups.
    let mut informers = Vec::new();
    for kind in [ResourceKind::Pod, ResourceKind::ReplicaSet, ResourceKind::Deployment] {
        let informer =
            SharedInformer::start(SharedInformer::new(client.clone(), InformerConfig::new(kind)));
        informer.wait_for_sync(Duration::from_secs(10));
        informers.push(informer);
    }
    let caches: Vec<_> = informers.iter().map(|i| (i.kind(), Arc::clone(i.cache()))).collect();

    // Scan cadence runs on the server's clock: with a virtual clock, tests
    // advance `interval` to trigger the next pass instead of sleeping
    // through it.
    let clock = Arc::clone(client.server().clock());
    let scanned = Arc::clone(&metrics);
    handle.every(&clock, config.interval, move || scan(&client, &caches, &scanned));
    for informer in informers {
        handle.add_informer(informer);
    }
    (handle, metrics)
}

fn cache_for(
    caches: &[(ResourceKind, Arc<vc_client::Cache>)],
    kind: ResourceKind,
) -> &vc_client::Cache {
    &caches.iter().find(|(k, _)| *k == kind).expect("cache registered").1
}

fn scan(client: &Client, caches: &[(ResourceKind, Arc<vc_client::Cache>)], metrics: &GcMetrics) {
    for (dependent_kind, owner_kind_name, owner_kind) in EDGES {
        let owners: HashSet<Uid> =
            cache_for(caches, owner_kind).list().iter().map(|o| o.meta().uid.clone()).collect();
        for obj in cache_for(caches, dependent_kind).list() {
            let meta = obj.meta();
            if meta.is_terminating() {
                continue;
            }
            let Some(owner) = meta.controller_owner() else { continue };
            if owner.kind == owner_kind_name
                && !owners.contains(&owner.uid)
                && client.delete(dependent_kind, &meta.namespace, &meta.name).is_ok()
            {
                metrics.orphans_deleted.inc();
            }
        }
    }
    metrics.scans.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::wait_until;
    use vc_api::meta::OwnerReference;
    use vc_api::pod::Pod;
    use vc_api::workload::ReplicaSet;
    use vc_apiserver::{ApiServer, ApiServerConfig};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    #[test]
    fn orphaned_pod_collected() {
        // The GC scan cadence runs on the server clock: a virtual hour
        // per scan, driven by `advance`, proves the controller acts on
        // clock time rather than wall time.
        let clock = vc_api::time::SimClock::new();
        let server = {
            let config = ApiServerConfig {
                read_latency: Duration::ZERO,
                write_latency: Duration::ZERO,
                ..Default::default()
            };
            ApiServer::new(config, clock.clone() as Arc<dyn vc_api::time::Clock>)
        };
        let interval = Duration::from_secs(3600);
        let user = Client::new(Arc::clone(&server), "u");
        // A replica set and its pod.
        let rs = user
            .create(
                ReplicaSet::new(
                    "default",
                    "rs",
                    1,
                    vc_api::labels::Selector::everything(),
                    Default::default(),
                )
                .into(),
            )
            .unwrap();
        let mut pod = Pod::new("default", "owned");
        pod.meta.owner_references.push(OwnerReference::controller_of(
            "ReplicaSet",
            "rs",
            rs.meta().uid.clone(),
        ));
        user.create(pod.into()).unwrap();
        // A free pod without owners must survive.
        user.create(Pod::new("default", "free").into()).unwrap();

        let (mut handle, metrics) =
            start(Client::new(Arc::clone(&server), "gc"), GcConfig { interval });

        // While the owner exists, nothing is collected. Each predicate
        // poll advances one virtual scan interval to release the sleeping
        // scan loop.
        assert!(wait_until(Duration::from_secs(2), Duration::from_millis(10), || {
            clock.advance(interval);
            metrics.scans.get() >= 2
        }));
        assert!(user.get(ResourceKind::Pod, "default", "owned").is_ok());

        // Delete the owner: the dependent goes too.
        user.delete(ResourceKind::ReplicaSet, "default", "rs").unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            clock.advance(interval);
            user.get(ResourceKind::Pod, "default", "owned").is_err()
        }));
        assert!(user.get(ResourceKind::Pod, "default", "free").is_ok());
        // The counter ticks after the delete takes effect; poll rather than
        // assert immediately.
        assert!(wait_until(Duration::from_secs(2), Duration::from_millis(10), || {
            metrics.orphans_deleted.get() == 1
        }));
        handle.stop();
    }

    #[test]
    fn uid_mismatch_counts_as_orphan() {
        // An owner with the same name but different UID is NOT the owner.
        let server = fast_server();
        let user = Client::new(Arc::clone(&server), "u");
        user.create(
            ReplicaSet::new(
                "default",
                "rs",
                1,
                vc_api::labels::Selector::everything(),
                Default::default(),
            )
            .into(),
        )
        .unwrap();
        let mut pod = Pod::new("default", "stale-owner");
        pod.meta.owner_references.push(OwnerReference::controller_of(
            "ReplicaSet",
            "rs",
            vc_api::meta::Uid::from_string("old-uid"),
        ));
        user.create(pod.into()).unwrap();

        let (mut handle, _metrics) = start(
            Client::new(Arc::clone(&server), "gc"),
            GcConfig { interval: Duration::from_millis(30) },
        );
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            user.get(ResourceKind::Pod, "default", "stale-owner").is_err()
        }));
        handle.stop();
    }
}
