//! Downward synchronization: tenant objects → super cluster.
//!
//! "The syncer only populates the tenant objects used in Pod provision,
//! such as namespaces, Pods, services, secrets, etc., to the super cluster,
//! excluding all other control or extension objects." State comparisons run
//! against informer caches; races with concurrent deletions surface as
//! apiserver errors and are absorbed by requeue + the periodic scanner.

use super::{Syncer, TenantState, WorkItem};
use crate::mapping;
use vc_api::error::ApiError;
use vc_api::object::{Object, ResourceKind};
use vc_api::ApiResult;

/// Reconciles one downward work item.
pub(crate) fn reconcile(syncer: &Syncer, item: &WorkItem) {
    let Some(tenant) = syncer.tenant(&item.tenant) else { return };
    if !syncer.config.downward_kinds.contains(&item.kind) {
        return;
    }
    let tenant_obj = tenant.cache(item.kind).get(&item.key);

    match tenant_obj {
        Some(obj) if !obj.meta().is_terminating() => {
            // CustomObjects flow down only when a tenant CRD opts in.
            if item.kind == ResourceKind::CustomObject && !custom_object_synced(&tenant, &obj) {
                return;
            }
            ensure_in_super(syncer, &tenant, item, &obj);
        }
        _ => delete_from_super(syncer, &tenant, item),
    }
}

/// Returns `true` if the tenant object's super-cluster copy exists and
/// matches the desired state (used by the scanner).
pub(crate) fn in_sync(
    syncer: &Syncer,
    tenant: &TenantState,
    kind: ResourceKind,
    tenant_obj: &Object,
) -> bool {
    if kind == ResourceKind::CustomObject && !custom_object_synced(tenant, tenant_obj) {
        return true; // not subject to sync
    }
    let Some(super_cache) = syncer.super_cache(kind) else { return true };
    let desired = mapping::to_super(tenant_obj, &tenant.handle.name, &tenant.handle.prefix);
    match super_cache.get(&desired.key()) {
        None => tenant_obj.meta().is_terminating(),
        Some(existing) => equivalent(&desired, &existing),
    }
}

fn custom_object_synced(tenant: &TenantState, obj: &Object) -> bool {
    if !tenant.handle.sync_crds {
        return false;
    }
    let Object::CustomObject(custom) = obj else { return false };
    let crd_opted_in = |c: &Object| {
        matches!(c, Object::CustomResourceDefinition(crd)
            if crd.kind == custom.kind && crd.sync_to_super)
    };
    // The tenant must have a CRD of this kind marked for sync. Served
    // from the tenant's CRD informer cache; the LIST against the tenant
    // apiserver is a fallback for tenants registered without one.
    if let Some(informer) = tenant.informers.get(&ResourceKind::CustomResourceDefinition) {
        return informer.cache().list().iter().any(|c| crd_opted_in(c));
    }
    match tenant.client.list(ResourceKind::CustomResourceDefinition, None) {
        Ok((crds, _)) => crds.iter().any(|c| crd_opted_in(c)),
        Err(_) => false,
    }
}

fn ensure_in_super(syncer: &Syncer, tenant: &TenantState, item: &WorkItem, tenant_obj: &Object) {
    let desired = mapping::to_super(tenant_obj, &tenant.handle.name, &tenant.handle.prefix);
    let super_cache = match syncer.super_cache(item.kind) {
        Some(cache) => cache,
        None => return,
    };

    match super_cache.get(&desired.key()) {
        None => {
            // Create path. The super copy might exist but not yet be in
            // our cache; AlreadyExists then routes to the update path via
            // requeue.
            let traced = item.kind == ResourceKind::Pod;
            if traced {
                syncer.trace_dws_done(&item.tenant, &item.key);
            }
            let created = create_with_namespace(syncer, tenant, desired);
            if traced && created.is_err() {
                syncer.trace_dws_undone(&item.tenant, &item.key);
            }
            match created {
                Ok(()) => {
                    syncer.metrics.downward_creates.inc();
                    syncer.forget_retries(item);
                }
                Err(e) if e.is_already_exists() => {
                    // Cache lag: treat as update next round.
                    syncer.requeue_downward(item.clone());
                }
                Err(e) if e.is_conflict() => {
                    syncer.metrics.conflicts.inc();
                    syncer.requeue_downward(item.clone());
                }
                Err(e) if e.is_forbidden() => {
                    // Admission policy rejection: permanently fatal for
                    // this object — retrying verbatim burns backoff
                    // budget for nothing. Straight to the dead-letter
                    // set, visible via the SyncerPolicyBlocked condition.
                    syncer.dead_letter_policy_blocked(item.clone(), &e);
                }
                Err(_) => {
                    // Namespace still missing / terminating / transient:
                    // retry after a short delay; the namespace downward
                    // sync or the scanner will unblock it.
                    syncer.requeue_downward(item.clone());
                }
            }
        }
        Some(existing) => {
            if mapping::owner_cluster(&existing) != Some(tenant.handle.name.as_str()) {
                // A foreign object occupies our key — cannot happen with
                // healthy prefixes; leave it alone.
                return;
            }
            // Tenant object was deleted and recreated: replace the stale
            // copy. An existing object WITHOUT a recorded tenant uid (e.g.
            // a placeholder namespace created on demand) is adopted by the
            // update path instead.
            let existing_uid = mapping::tenant_uid(&existing);
            if existing_uid.is_some() && existing_uid != Some(tenant_obj.meta().uid.as_str()) {
                let meta = existing.meta();
                let _ = syncer.super_client.delete(item.kind, &meta.namespace, &meta.name);
                syncer.metrics.downward_deletes.inc();
                syncer.requeue_downward(item.clone());
                return;
            }
            if equivalent(&desired, &existing) {
                syncer.forget_retries(item);
                if item.kind == ResourceKind::Pod {
                    // Create already happened (e.g. before a syncer
                    // restart).
                    syncer.trace_dws_done(&item.tenant, &item.key);
                }
                return;
            }
            match update_super(syncer, item.kind, &desired, &existing) {
                Ok(()) => {
                    syncer.metrics.downward_updates.inc();
                    syncer.forget_retries(item);
                    if item.kind == ResourceKind::Pod {
                        syncer.trace_dws_done(&item.tenant, &item.key);
                    }
                }
                Err(e) if e.is_not_found() => {
                    // Deleted under us (the classic race): requeue; the
                    // create path will handle it.
                    syncer.requeue_downward(item.clone());
                }
                Err(e) if e.is_forbidden() => {
                    // Policy rejection on update: as on create, dead-letter
                    // immediately instead of retrying forever.
                    syncer.dead_letter_policy_blocked(item.clone(), &e);
                }
                Err(e) => {
                    if e.is_conflict() {
                        syncer.metrics.conflicts.inc();
                    }
                    syncer.requeue_downward(item.clone());
                }
            }
        }
    }
}

/// Creates `desired` in the super cluster, creating the prefixed namespace
/// on demand when the object beat its namespace through the queue.
fn create_with_namespace(syncer: &Syncer, tenant: &TenantState, desired: Object) -> ApiResult<()> {
    match syncer.super_client.create(desired.clone()) {
        Ok(_) => Ok(()),
        Err(e) if e.is_namespace_missing() => {
            let ns_name = desired.meta().namespace.clone();
            let mut ns = vc_api::namespace::Namespace::new(ns_name);
            ns.meta
                .annotations
                .insert(mapping::CLUSTER_ANNOTATION.into(), tenant.handle.name.clone());
            match syncer.super_client.create(ns.into()) {
                Ok(_) | Err(ApiError::AlreadyExists { .. }) => {}
                Err(e) => return Err(e),
            }
            syncer.super_client.create(desired).map(|_| ())
        }
        Err(e) => Err(e),
    }
}

fn update_super(
    syncer: &Syncer,
    kind: ResourceKind,
    desired: &Object,
    cached_existing: &Object,
) -> ApiResult<()> {
    let meta = cached_existing.meta();
    let (ns, name) = (meta.namespace.clone(), meta.name.clone());
    vc_controllers::util::retry_on_conflict(3, || {
        let fresh = syncer.super_client.get(kind, &ns, &name)?;
        let mut updated = desired.clone();
        merge_super_managed(&mut updated, &fresh);
        updated.meta_mut().resource_version = fresh.meta().resource_version;
        syncer.super_client.update(updated).map(|_| ())
    })
}

/// Fields owned by the super cluster survive a downward overwrite: pod
/// binding + status (written by scheduler/kubelet), service status,
/// namespace finalizers.
fn merge_super_managed(desired: &mut Object, existing: &Object) {
    match (desired, existing) {
        (Object::Pod(d), Object::Pod(e)) => {
            d.spec.node_name = e.spec.node_name.clone();
            d.status = e.status.clone();
        }
        (Object::Service(d), Object::Service(e)) => {
            d.status = e.status.clone();
            // The super copy keeps whichever cluster IP it has (tenant IP
            // honored at create time).
            if d.spec.cluster_ip.is_empty() {
                d.spec.cluster_ip = e.spec.cluster_ip.clone();
            }
        }
        (Object::Namespace(d), Object::Namespace(e)) => {
            d.meta.finalizers = e.meta.finalizers.clone();
            d.phase = e.phase;
        }
        // The super cluster's volume binder owns claim binding state.
        (Object::PersistentVolumeClaim(d), Object::PersistentVolumeClaim(e)) => {
            d.phase = e.phase;
            d.volume_name = e.volume_name.clone();
        }
        _ => {}
    }
}

/// Equivalence for "does the super copy match the tenant intent":
/// desired-state equality with super-managed fields normalized.
pub(crate) fn equivalent(desired: &Object, existing: &Object) -> bool {
    let mut d = desired.clone();
    merge_super_managed(&mut d, existing);
    d.same_desired_state(existing)
}

fn delete_from_super(syncer: &Syncer, tenant: &TenantState, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(item.kind) else { return };
    // Map the tenant key to the super key by converting a shell object.
    let super_key = match super_key_for(tenant, item.kind, &item.key) {
        Some(key) => key,
        None => return,
    };
    let Some(existing) = super_cache.get(&super_key) else {
        // Nothing to delete: the reconcile succeeded vacuously. This also
        // clears retry history and the policy-blocked marker for objects
        // admission rejected at create time — the tenant deleting the
        // offending object is how a `SyncerPolicyBlocked` condition is
        // resolved.
        syncer.forget_retries(item);
        return;
    };
    if mapping::owner_cluster(&existing) != Some(tenant.handle.name.as_str()) {
        return; // never delete objects we do not own
    }
    let meta = existing.meta();
    match syncer.super_client.delete(item.kind, &meta.namespace, &meta.name) {
        Ok(_) => {
            syncer.metrics.downward_deletes.inc();
            syncer.forget_retries(item);
        }
        Err(e) if e.is_not_found() => syncer.forget_retries(item),
        Err(e) if e.is_forbidden() => syncer.dead_letter_policy_blocked(item.clone(), &e),
        Err(_) => syncer.requeue_downward(item.clone()),
    }
}

/// Computes the super-cluster key for a tenant-side key.
pub(crate) fn super_key_for(
    tenant: &TenantState,
    kind: ResourceKind,
    tenant_key: &str,
) -> Option<String> {
    let prefix = &tenant.handle.prefix;
    if kind.is_cluster_scoped() {
        if kind == ResourceKind::Namespace {
            return Some(mapping::tenant_ns_to_super(prefix, tenant_key));
        }
        return Some(tenant_key.to_string());
    }
    let (ns, name) = tenant_key.split_once('/')?;
    Some(format!("{}/{}", mapping::tenant_ns_to_super(prefix, ns), name))
}
