//! Upward synchronization: super-cluster state → tenant control planes.
//!
//! Back-populates "the object statuses" (paper §III-C): pod bindings and
//! statuses (creating vNodes as needed), service statuses, events,
//! persistent volumes and storage classes.

use super::{Syncer, TenantHealth, TenantState, WorkItem};
use crate::mapping;
use std::sync::Arc;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::Pod;
use vc_controllers::util::retry_on_conflict;

/// Reconciles one upward work item.
pub(crate) fn reconcile(syncer: &Syncer, item: &WorkItem) {
    let Some(tenant) = syncer.tenant(&item.tenant) else { return };
    // A tripped breaker means the tenant apiserver is unreachable: park
    // the item instead of burning the worker on doomed requests. The
    // half-open probe replays parked items on recovery.
    if syncer.tenant_health(&item.tenant) == Some(TenantHealth::Degraded) {
        syncer.park_upward(item.clone());
        return;
    }
    match item.kind {
        ResourceKind::Pod => pod(syncer, &tenant, item),
        ResourceKind::Service => service(syncer, &tenant, item),
        ResourceKind::Event => event(syncer, &tenant, item),
        ResourceKind::PersistentVolume => persistent_volume(syncer, &tenant, item),
        ResourceKind::PersistentVolumeClaim => claim_status(syncer, &tenant, item),
        ResourceKind::StorageClass => storage_class(syncer, &tenant, item),
        _ => {}
    }
}

fn pod(syncer: &Syncer, tenant: &Arc<TenantState>, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(ResourceKind::Pod) else { return };
    let Some(tenant_key) = syncer.tenant_key_for(&item.tenant, ResourceKind::Pod, &item.key) else {
        return;
    };
    let Some((tenant_ns, tenant_name)) = split_key(&tenant_key) else { return };

    match super_cache.get(&item.key) {
        None => {
            // Deleted in the super cluster (eviction, namespace drain, …):
            // propagate to the tenant — but only if the tenant pod is still
            // the same incarnation the super copy mirrored. The `Deleted`
            // event left a record of which that was, and this consumes it.
            // An item that finds none is a second delivery of one already
            // handled (re-added by the `Deleted` handler while a worker
            // had it in flight): the tenant may have recreated the pod
            // since, and nothing says the new one should go.
            let deletion = syncer.recent_super_deletions.lock().remove(&item.key);
            if let Some(expected_uid) = deletion {
                if let Ok(existing) = tenant.client.get(ResourceKind::Pod, tenant_ns, tenant_name) {
                    let same_incarnation = expected_uid
                        .as_deref()
                        .is_none_or(|uid| uid == existing.meta().uid.as_str());
                    if same_incarnation
                        && !existing.meta().is_terminating()
                        && tenant.client.delete(ResourceKind::Pod, tenant_ns, tenant_name).is_ok()
                    {
                        syncer.metrics.upward_deletes.inc();
                    }
                }
            }
            syncer.vnodes.release(&tenant.handle, &item.key);
        }
        Some(super_obj) => {
            let Some(super_pod) = super_obj.as_pod() else { return };
            // The UWS-Queue span ends when a worker picks up the *ready*
            // pod (pre-ready status items don't count).
            if super_pod.status.is_ready() {
                syncer.trace_uws_dequeued(&item.tenant, &tenant_key);
            }
            // Binding: materialize the vNode before exposing the binding.
            if super_pod.spec.is_bound() {
                if let Some(node_cache) = syncer.super_cache(ResourceKind::Node) {
                    syncer.vnodes.bind(
                        &tenant.handle,
                        node_cache,
                        &super_pod.spec.node_name,
                        &item.key,
                    );
                }
            }
            let expected_tenant_uid = mapping::tenant_uid(&super_obj);
            // Run the status write under the pod's trace context so the
            // tenant apiserver attaches its update span to this trace.
            let _ctx = syncer
                .obs
                .tracer
                .lookup(&item.tenant, &tenant_key)
                .map(vc_obs::TraceContext::enter);
            let result = retry_on_conflict(5, || {
                let fresh = match tenant.client.get(ResourceKind::Pod, tenant_ns, tenant_name) {
                    Ok(obj) => obj,
                    Err(e) if e.is_not_found() => return Ok(false),
                    Err(e) => return Err(e),
                };
                // Compare through the shared pointer: most items find the
                // tenant pod already in sync (one is queued per super-side
                // event), and only a write needs an owned copy.
                if let Some(current) = fresh.as_pod() {
                    if expected_tenant_uid.is_some_and(|uid| uid != current.meta.uid.as_str()) {
                        return Ok(false); // different incarnation
                    }
                    if current.spec.node_name == super_pod.spec.node_name
                        && current.status == super_pod.status
                    {
                        return Ok(false); // already in sync
                    }
                }
                let mut fresh: Pod = fresh.try_into()?;
                fresh.spec.node_name = super_pod.spec.node_name.clone();
                fresh.status = super_pod.status.clone();
                tenant.client.update(fresh.into()).map(|_| true)
            });
            match result {
                Ok(true) => {
                    syncer.metrics.upward_updates.inc();
                    syncer.note_tenant_ok(&item.tenant);
                    if super_pod.status.is_ready() {
                        syncer.trace_uws_done(&item.tenant, &tenant_key);
                    }
                }
                Ok(false) => {
                    syncer.note_tenant_ok(&item.tenant);
                    if super_pod.status.is_ready() {
                        // Someone already wrote it; still complete the
                        // timeline.
                        syncer.trace_uws_done(&item.tenant, &tenant_key);
                    }
                }
                Err(e) => {
                    if e.is_conflict() {
                        syncer.metrics.conflicts.inc();
                    }
                    syncer.note_tenant_error(&item.tenant, &e);
                    syncer.upward.add(item.clone());
                }
            }
        }
    }
}

fn service(syncer: &Syncer, tenant: &Arc<TenantState>, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(ResourceKind::Service) else { return };
    let Some(super_obj) = super_cache.get(&item.key) else { return };
    let Some(super_svc) = super_obj.as_service() else { return };
    if super_svc.status.load_balancer_ip.is_empty() {
        return;
    }
    let Some(tenant_key) = syncer.tenant_key_for(&item.tenant, ResourceKind::Service, &item.key)
    else {
        return;
    };
    let Some((ns, name)) = split_key(&tenant_key) else { return };
    let status = super_svc.status.clone();
    let result = retry_on_conflict(3, || {
        let fresh = match tenant.client.get(ResourceKind::Service, ns, name) {
            Ok(obj) => obj,
            Err(e) if e.is_not_found() => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut fresh: vc_api::service::Service = fresh.try_into()?;
        if fresh.status == status {
            return Ok(false);
        }
        fresh.status = status.clone();
        tenant.client.update(fresh.into()).map(|_| true)
    });
    match result {
        Ok(true) => {
            syncer.metrics.upward_updates.inc();
            syncer.note_tenant_ok(&item.tenant);
        }
        Ok(false) => syncer.note_tenant_ok(&item.tenant),
        Err(e) => {
            syncer.note_tenant_error(&item.tenant, &e);
            if e.is_retriable() {
                syncer.upward.add(item.clone());
            }
        }
    }
}

fn event(syncer: &Syncer, tenant: &Arc<TenantState>, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(ResourceKind::Event) else { return };
    let Some(super_obj) = super_cache.get(&item.key) else { return };
    let Object::Event(super_event) = &*super_obj else { return };
    let Some(tenant_ns) =
        mapping::super_ns_to_tenant(&tenant.handle.prefix, &super_event.meta.namespace)
    else {
        return;
    };
    let mut copy = super_event.clone();
    copy.meta.namespace = tenant_ns.clone();
    copy.meta.resource_version = 0;
    copy.meta.uid = Default::default();
    copy.involved_object.namespace = tenant_ns;
    match tenant.client.create(copy.into()) {
        Ok(_) => {
            syncer.metrics.upward_updates.inc();
            syncer.note_tenant_ok(&item.tenant);
        }
        Err(e) if e.is_already_exists() => syncer.note_tenant_ok(&item.tenant),
        // Events are best-effort: record the outage but drop the item.
        Err(e) => syncer.note_tenant_error(&item.tenant, &e),
    }
}

fn persistent_volume(syncer: &Syncer, tenant: &Arc<TenantState>, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(ResourceKind::PersistentVolume) else { return };
    let Some(super_obj) = super_cache.get(&item.key) else { return };
    let Object::PersistentVolume(super_pv) = &*super_obj else { return };
    // Only volumes bound to this tenant's claims flow upward.
    let Some((claim_ns, claim_name)) = super_pv.claim_ref.split_once('/') else { return };
    let Some(tenant_ns) = mapping::super_ns_to_tenant(&tenant.handle.prefix, claim_ns) else {
        return;
    };
    let mut copy = super_pv.clone();
    copy.meta.resource_version = 0;
    copy.meta.uid = Default::default();
    copy.claim_ref = format!("{tenant_ns}/{claim_name}");
    upsert(syncer, tenant, copy.into());
}

/// Back-populates claim binding status (phase + bound volume name) set by
/// the super cluster's volume binder.
fn claim_status(syncer: &Syncer, tenant: &Arc<TenantState>, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(ResourceKind::PersistentVolumeClaim) else {
        return;
    };
    let Some(super_obj) = super_cache.get(&item.key) else { return };
    let Object::PersistentVolumeClaim(super_claim) = &*super_obj else { return };
    let Some(tenant_key) =
        syncer.tenant_key_for(&item.tenant, ResourceKind::PersistentVolumeClaim, &item.key)
    else {
        return;
    };
    let Some((ns, name)) = split_key(&tenant_key) else { return };
    let (phase, volume_name) = (super_claim.phase, super_claim.volume_name.clone());
    let result = retry_on_conflict(3, || {
        let fresh = match tenant.client.get(ResourceKind::PersistentVolumeClaim, ns, name) {
            Ok(obj) => obj,
            Err(e) if e.is_not_found() => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut fresh: vc_api::storage::PersistentVolumeClaim = fresh.try_into()?;
        if fresh.phase == phase && fresh.volume_name == volume_name {
            return Ok(false);
        }
        fresh.phase = phase;
        fresh.volume_name = volume_name.clone();
        tenant.client.update(fresh.into()).map(|_| true)
    });
    match result {
        Ok(true) => {
            syncer.metrics.upward_updates.inc();
            syncer.note_tenant_ok(&item.tenant);
        }
        Ok(false) => syncer.note_tenant_ok(&item.tenant),
        Err(e) => {
            syncer.note_tenant_error(&item.tenant, &e);
            if e.is_retriable() {
                syncer.upward.add(item.clone());
            }
        }
    }
}

fn storage_class(syncer: &Syncer, tenant: &Arc<TenantState>, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(ResourceKind::StorageClass) else { return };
    match super_cache.get(&item.key) {
        Some(super_obj) => {
            // Mutation site: the shared cache Arc is cloned exactly here.
            let mut copy = (*super_obj).clone();
            copy.meta_mut().resource_version = 0;
            copy.meta_mut().uid = Default::default();
            upsert(syncer, tenant, copy);
        }
        None => {
            // Deleted in super: remove the tenant copy.
            let _ = tenant.client.delete(ResourceKind::StorageClass, "", &item.key);
        }
    }
}

fn upsert(syncer: &Syncer, tenant: &Arc<TenantState>, obj: Object) {
    let kind = obj.kind();
    let meta = obj.meta().clone();
    match tenant.client.create(obj.clone()) {
        Ok(_) => {
            syncer.metrics.upward_updates.inc();
            syncer.note_tenant_ok(&tenant.handle.name);
        }
        Err(e) if e.is_already_exists() => {
            let result = retry_on_conflict(3, || {
                let fresh = tenant.client.get(kind, &meta.namespace, &meta.name)?;
                if fresh.same_desired_state(&obj) {
                    return Ok(false);
                }
                let mut updated = obj.clone();
                updated.meta_mut().resource_version = fresh.meta().resource_version;
                tenant.client.update(updated).map(|_| true)
            });
            match result {
                Ok(true) => {
                    syncer.metrics.upward_updates.inc();
                    syncer.note_tenant_ok(&tenant.handle.name);
                }
                Ok(false) => syncer.note_tenant_ok(&tenant.handle.name),
                Err(e) => syncer.note_tenant_error(&tenant.handle.name, &e),
            }
        }
        Err(e) => syncer.note_tenant_error(&tenant.handle.name, &e),
    }
}

fn split_key(key: &str) -> Option<(&str, &str)> {
    key.split_once('/')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Framework, FrameworkConfig};
    use std::time::Duration;
    use vc_api::pod::Container;
    use vc_controllers::util::wait_until;

    /// `rapid_create_delete_create_converges`, made deterministic. The
    /// `Deleted` handler records the deletion and re-adds the upward item;
    /// a worker that already had the item in flight (queued by the bind
    /// event a moment earlier) consumes the record, and the re-added copy
    /// runs with the super pod absent and no record. It used to read that
    /// as "same incarnation" and delete whatever pod the tenant had under
    /// the name by then — the recreated one.
    #[test]
    fn second_delivery_of_a_handled_deletion_spares_the_recreated_pod() {
        let fw = Framework::start(FrameworkConfig::minimal());
        fw.enforce_tenant_isolation();
        fw.create_tenant("race").unwrap();
        let tenant = fw.tenant_client("race", "user");
        // Admission keeps this pod out of the super cluster, so the super
        // cache has nothing under its key: the state after the deletion.
        let recreated =
            Pod::new("default", "flappy").with_container(Container::new("c", "img").privileged());
        tenant.create(recreated.into()).unwrap();
        assert!(wait_until(Duration::from_secs(10), Duration::from_millis(10), || {
            fw.syncer.dead_letter_len() == 1
        }));
        let prefix = fw.registry.get("race").unwrap().prefix.clone();
        let item = WorkItem {
            tenant: "race".into(),
            kind: ResourceKind::Pod,
            key: format!("{prefix}-default/flappy"),
        };
        assert!(fw.syncer.super_cache(ResourceKind::Pod).unwrap().get(&item.key).is_none());

        reconcile(&fw.syncer, &item);
        assert!(tenant.get(ResourceKind::Pod, "default", "flappy").is_ok(), "no record, no delete");

        // With the record of a *previous* incarnation's deletion: spared.
        let record = |uid: Option<&str>| {
            let uid = uid.map(str::to_string);
            fw.syncer.recent_super_deletions.lock().insert(item.key.clone(), uid);
        };
        record(Some("some-earlier-incarnation"));
        reconcile(&fw.syncer, &item);
        assert!(tenant.get(ResourceKind::Pod, "default", "flappy").is_ok());
        assert!(fw.syncer.recent_super_deletions.lock().is_empty(), "consumed");

        // With the record of its own super copy's deletion: propagated.
        let uid = tenant.get(ResourceKind::Pod, "default", "flappy").unwrap().meta().uid.clone();
        record(Some(uid.as_str()));
        reconcile(&fw.syncer, &item);
        assert!(tenant.get(ResourceKind::Pod, "default", "flappy").unwrap_err().is_not_found());
        fw.shutdown();
    }
}
