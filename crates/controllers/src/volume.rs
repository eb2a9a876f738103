//! Persistent-volume binder: matches pending claims to volumes and
//! dynamically provisions volumes from storage classes.
//!
//! Completes the storage path of the syncer's twelve resource kinds:
//! tenant PVCs flow downward, this controller binds (or provisions) PVs in
//! the super cluster, and the bound volumes + claim statuses flow back up.

use crate::util::{retry_on_conflict, ControllerHandle, Informers};
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::{Object, ResourceKind};
use vc_api::storage::{PersistentVolume, PersistentVolumeClaim, StorageClass, VolumePhase};
use vc_client::{Client, WorkQueue};

/// Volume binder metrics.
#[derive(Debug, Default)]
pub struct VolumeBinderMetrics {
    /// Claims bound to pre-existing volumes.
    pub bound: Counter,
    /// Volumes provisioned dynamically.
    pub provisioned: Counter,
    /// Volumes marked Released after their claim vanished.
    pub released: Counter,
}

/// Starts the volume binder, reading the cluster through `informers`.
pub fn start(
    client: Client,
    informers: &Informers,
) -> (ControllerHandle, Arc<VolumeBinderMetrics>) {
    let mut handle = ControllerHandle::new("volume-binder");
    let metrics = Arc::new(VolumeBinderMetrics::default());
    let queue: Arc<WorkQueue<String>> = Arc::new(WorkQueue::new());

    let pvc_informer = informers.get(ResourceKind::PersistentVolumeClaim);
    let pv_informer = informers.get(ResourceKind::PersistentVolume);
    let sc_informer = informers.get(ResourceKind::StorageClass);
    {
        let queue = Arc::clone(&queue);
        pvc_informer.add_handler(Box::new(move |event| {
            queue.add(format!("pvc:{}", event.object().key()));
        }));
    }
    {
        let queue = Arc::clone(&queue);
        pv_informer.add_handler(Box::new(move |event| {
            queue.add(format!("pv:{}", event.object().key()));
        }));
    }
    {
        // New storage classes can unblock pending claims.
        let queue = Arc::clone(&queue);
        sc_informer.add_handler(Box::new(move |_event| {
            queue.add("requeue-pending".to_string());
        }));
    }
    {
        let worker_queue = Arc::clone(&queue);
        let metrics = Arc::clone(&metrics);
        let pvc_cache = Arc::clone(pvc_informer.cache());
        let pv_cache = Arc::clone(pv_informer.cache());
        let sc_cache = Arc::clone(sc_informer.cache());
        handle.workers("volume-binder", 1, 1, &queue, move |key| {
            if let Some(pvc_key) = key.strip_prefix("pvc:") {
                reconcile_claim(pvc_key, &client, &pvc_cache, &pv_cache, &sc_cache, &metrics);
                if pvc_cache.get(pvc_key).is_none() {
                    // Deleted claim: release any volume still bound to it.
                    for obj in pv_cache.list() {
                        if let Ok(pv) = PersistentVolume::try_from(obj) {
                            if pv.claim_ref == pvc_key {
                                reconcile_volume(
                                    &pv.meta.name,
                                    &client,
                                    &pvc_cache,
                                    &pv_cache,
                                    &metrics,
                                );
                            }
                        }
                    }
                }
            } else if let Some(pv_key) = key.strip_prefix("pv:") {
                reconcile_volume(pv_key, &client, &pvc_cache, &pv_cache, &metrics);
                // An unbound volume may satisfy a waiting claim.
                requeue_pending_claims(&worker_queue, &pvc_cache);
            } else if key == "requeue-pending" {
                requeue_pending_claims(&worker_queue, &pvc_cache);
            }
        });
    }
    (handle, metrics)
}

/// Requeues every pending claim (a new volume or storage class appeared).
fn requeue_pending_claims(queue: &WorkQueue<String>, pvc_cache: &vc_client::Cache) {
    for obj in pvc_cache.list() {
        if let Ok(claim) = PersistentVolumeClaim::try_from(obj) {
            if claim.phase != VolumePhase::Bound && !claim.meta.is_terminating() {
                queue.add(format!("pvc:{}", claim.meta.full_name()));
            }
        }
    }
}

fn reconcile_claim(
    key: &str,
    client: &Client,
    pvc_cache: &vc_client::Cache,
    pv_cache: &vc_client::Cache,
    sc_cache: &vc_client::Cache,
    metrics: &VolumeBinderMetrics,
) {
    let Some(obj) = pvc_cache.get(key) else { return };
    let Ok(claim) = PersistentVolumeClaim::try_from(obj) else { return };
    if claim.phase == VolumePhase::Bound || claim.meta.is_terminating() {
        return;
    }
    let claim_ref = claim.meta.full_name();

    // 0. Idempotency across requeues: if some volume already carries this
    //    claim's reference (a previous reconcile bound it but the claim
    //    status write hasn't landed in our cache yet), adopt it instead of
    //    binding a second volume.
    if let Some(existing) = pv_cache
        .list()
        .into_iter()
        .filter_map(|o| PersistentVolume::try_from(o).ok())
        .find(|pv| pv.claim_ref == claim_ref)
    {
        publish_binding(client, &claim, &existing.meta.name);
        return;
    }

    // 1. An existing compatible volume?
    let candidate = pv_cache
        .list()
        .into_iter()
        .filter_map(|o| PersistentVolume::try_from(o).ok())
        .filter(|pv| {
            pv.phase == VolumePhase::Pending
                && pv.claim_ref.is_empty()
                && pv.access_mode == claim.access_mode
                && pv.storage_class == claim.storage_class
                && pv.capacity >= claim.requested
        })
        // Smallest fitting volume first.
        .min_by_key(|pv| pv.capacity);

    let volume_name = match candidate {
        Some(pv) => {
            let name = pv.meta.name;
            let ok = retry_on_conflict(3, || {
                let fresh = client.get(ResourceKind::PersistentVolume, "", &name)?;
                let mut fresh: PersistentVolume = fresh.try_into()?;
                if !fresh.claim_ref.is_empty() && fresh.claim_ref != claim_ref {
                    return Ok(false); // raced: someone else bound it
                }
                fresh.claim_ref = claim_ref.clone();
                fresh.phase = VolumePhase::Bound;
                client.update(fresh.into()).map(|_| true)
            });
            match ok {
                Ok(true) => {
                    metrics.bound.inc();
                    name
                }
                _ => return, // retry via the PV/PVC events that follow
            }
        }
        None => {
            // 2. Dynamic provisioning when the storage class exists.
            let has_class = sc_cache
                .get(&claim.storage_class)
                .and_then(|o| StorageClass::try_from(o).ok())
                .is_some();
            if !has_class {
                return; // stays Pending until a volume or class appears
            }
            let name = format!("pvc-{}", claim.meta.uid.as_str());
            let mut pv = PersistentVolume::new(name.clone(), claim.requested);
            pv.access_mode = claim.access_mode;
            pv.storage_class = claim.storage_class.clone();
            pv.claim_ref = claim_ref;
            pv.phase = VolumePhase::Bound;
            let created: Object = pv.into();
            match client.create(created) {
                Ok(_) => {
                    metrics.provisioned.inc();
                    name
                }
                Err(e) if e.is_already_exists() => name,
                Err(_) => return,
            }
        }
    };

    // 3. Publish the binding on the claim.
    publish_binding(client, &claim, &volume_name);
}

/// Writes `volume_name` + Bound phase onto the claim.
fn publish_binding(client: &Client, claim: &PersistentVolumeClaim, volume_name: &str) {
    let _ = retry_on_conflict(3, || {
        let fresh = client.get(
            ResourceKind::PersistentVolumeClaim,
            &claim.meta.namespace,
            &claim.meta.name,
        )?;
        let mut fresh: PersistentVolumeClaim = fresh.try_into()?;
        if fresh.phase == VolumePhase::Bound && fresh.volume_name == volume_name {
            return Ok(());
        }
        fresh.phase = VolumePhase::Bound;
        fresh.volume_name = volume_name.to_string();
        client.update(fresh.into()).map(|_| ())
    });
}

fn reconcile_volume(
    key: &str,
    client: &Client,
    pvc_cache: &vc_client::Cache,
    pv_cache: &vc_client::Cache,
    metrics: &VolumeBinderMetrics,
) {
    let Some(obj) = pv_cache.get(key) else { return };
    let Ok(pv) = PersistentVolume::try_from(obj) else { return };
    if pv.phase != VolumePhase::Bound || pv.claim_ref.is_empty() {
        return;
    }
    // Claim bound to a DIFFERENT volume -> this one was a stray double
    // bind; return it to the pool.
    if let Some(claim_obj) = pvc_cache.get(&pv.claim_ref) {
        if let Ok(claim) = PersistentVolumeClaim::try_from(claim_obj) {
            if claim.phase == VolumePhase::Bound
                && !claim.volume_name.is_empty()
                && claim.volume_name != pv.meta.name
            {
                let name = pv.meta.name.clone();
                let _ = retry_on_conflict(3, || {
                    let fresh = client.get(ResourceKind::PersistentVolume, "", &name)?;
                    let mut fresh: PersistentVolume = fresh.try_into()?;
                    fresh.claim_ref.clear();
                    fresh.phase = VolumePhase::Pending;
                    client.update(fresh.into()).map(|_| ())
                });
                return;
            }
        }
    }
    // Claim gone -> Released.
    if pvc_cache.get(&pv.claim_ref).is_none() {
        let name = pv.meta.name;
        let ok = retry_on_conflict(3, || {
            let fresh = client.get(ResourceKind::PersistentVolume, "", &name)?;
            let mut fresh: PersistentVolume = fresh.try_into()?;
            if fresh.phase == VolumePhase::Bound {
                fresh.phase = VolumePhase::Released;
                client.update(fresh.into()).map(|_| true)
            } else {
                Ok(false)
            }
        });
        if matches!(ok, Ok(true)) {
            metrics.released.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::wait_until;
    use std::time::Duration;
    use vc_api::quantity::Quantity;
    use vc_apiserver::{ApiServer, ApiServerConfig};

    fn fast_server() -> Arc<ApiServer> {
        let config = ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn bound(client: &Client, ns: &str, name: &str) -> Option<String> {
        let claim: PersistentVolumeClaim =
            client.get(ResourceKind::PersistentVolumeClaim, ns, name).ok()?.try_into().ok()?;
        (claim.phase == VolumePhase::Bound).then_some(claim.volume_name)
    }

    #[test]
    fn binds_to_smallest_fitting_volume() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::system(Arc::clone(&server), "binder"), &informers);
        let user = Client::new(server, "u");
        for (name, gib) in [("pv-small", 5i64), ("pv-right", 10), ("pv-big", 100)] {
            user.create(PersistentVolume::new(name, Quantity::from_whole(gib)).into()).unwrap();
        }
        // Let the binder's PV cache observe all three volumes, so best-fit
        // selection is deterministic.
        std::thread::sleep(Duration::from_millis(300));
        user.create(PersistentVolumeClaim::new("default", "data", Quantity::from_whole(10)).into())
            .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            bound(&user, "default", "data").is_some()
        }));
        assert_eq!(bound(&user, "default", "data").unwrap(), "pv-right");
        let pv: PersistentVolume =
            user.get(ResourceKind::PersistentVolume, "", "pv-right").unwrap().try_into().unwrap();
        assert_eq!(pv.phase, VolumePhase::Bound);
        assert_eq!(pv.claim_ref, "default/data");
        assert_eq!(metrics.bound.get(), 1);
        handle.stop();
    }

    #[test]
    fn provisions_dynamically_from_storage_class() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::system(Arc::clone(&server), "binder"), &informers);
        let user = Client::new(server, "u");
        user.create(StorageClass::new("fast", "csi.sim/disk").into()).unwrap();
        let mut claim = PersistentVolumeClaim::new("default", "dyn", Quantity::from_whole(20));
        claim.storage_class = "fast".into();
        user.create(claim.into()).unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            bound(&user, "default", "dyn").is_some()
        }));
        let pv_name = bound(&user, "default", "dyn").unwrap();
        assert!(pv_name.starts_with("pvc-"));
        let pv: PersistentVolume =
            user.get(ResourceKind::PersistentVolume, "", &pv_name).unwrap().try_into().unwrap();
        assert_eq!(pv.capacity, Quantity::from_whole(20));
        assert_eq!(pv.storage_class, "fast");
        assert_eq!(metrics.provisioned.get(), 1);
        handle.stop();
    }

    #[test]
    fn pending_without_class_or_volume() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, _metrics) =
            start(Client::system(Arc::clone(&server), "binder"), &informers);
        let user = Client::new(server, "u");
        let mut claim = PersistentVolumeClaim::new("default", "stuck", Quantity::from_whole(5));
        claim.storage_class = "nonexistent".into();
        user.create(claim.into()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert!(bound(&user, "default", "stuck").is_none());
        handle.stop();
    }

    #[test]
    fn deleted_claim_releases_volume() {
        let server = fast_server();
        let informers = Informers::new(Client::system(Arc::clone(&server), "informers"));
        let (mut handle, metrics) =
            start(Client::system(Arc::clone(&server), "binder"), &informers);
        let user = Client::new(server, "u");
        user.create(PersistentVolume::new("pv-1", Quantity::from_whole(10)).into()).unwrap();
        user.create(PersistentVolumeClaim::new("default", "temp", Quantity::from_whole(10)).into())
            .unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            bound(&user, "default", "temp").is_some()
        }));
        user.delete(ResourceKind::PersistentVolumeClaim, "default", "temp").unwrap();
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            user.get(ResourceKind::PersistentVolume, "", "pv-1")
                .ok()
                .and_then(|o| PersistentVolume::try_from(o).ok())
                .is_some_and(|pv| pv.phase == VolumePhase::Released)
        }));
        // The counter is bumped after the phase update lands, so poll it
        // too rather than racing the reconciler's last instruction.
        assert!(wait_until(Duration::from_secs(5), Duration::from_millis(20), || {
            metrics.released.get() == 1
        }));
        handle.stop();
    }
}
