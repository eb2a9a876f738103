//! Downward synchronization: tenant objects → super cluster.
//!
//! "The syncer only populates the tenant objects used in Pod provision,
//! such as namespaces, Pods, services, secrets, etc., to the super cluster,
//! excluding all other control or extension objects." State comparisons run
//! against informer caches; races with concurrent deletions surface as
//! apiserver errors and are absorbed by requeue + the periodic scanner.

use super::{Syncer, TenantState, WorkItem};
use crate::mapping;
use std::sync::Arc;
use vc_api::error::ApiError;
use vc_api::meta::ObjectMeta;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::PodSpec;
use vc_api::service::ServiceSpec;
use vc_api::storage::PersistentVolumeClaim;
use vc_api::ApiResult;
use vc_client::Cache;

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
/// matches the desired state (used by the scanner, once per cached object
/// every lap).
pub(crate) fn in_sync(
    syncer: &Syncer,
    tenant: &TenantState,
    kind: ResourceKind,
    tenant_key: &str,
    tenant_obj: &Object,
) -> bool {
    if kind == ResourceKind::CustomObject && !custom_object_synced(tenant, tenant_obj) {
        return true; // not subject to sync
    }
    let Some(super_cache) = syncer.super_cache(kind) else { return true };
    match super_copy(super_cache, tenant, kind, tenant_key) {
        None => tenant_obj.meta().is_terminating(),
        Some(existing) => mapping::matches_super(
            tenant_obj,
            &existing,
            &tenant.handle.name,
            &tenant.handle.prefix,
        ),
    }
}

/// The cached super copy of the tenant object at `tenant_key`, looked up by
/// a key built on the stack.
fn super_copy(
    super_cache: &Cache,
    tenant: &TenantState,
    kind: ResourceKind,
    tenant_key: &str,
) -> Option<Arc<Object>> {
    let key = mapping::super_key_buf(&tenant.handle.prefix, kind, tenant_key)?;
    super_cache.get(&key)
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
    // from the tenant's CRD informer cache, which `register_tenant` starts
    // whenever custom objects are a downward kind.
    tenant.cache(ResourceKind::CustomResourceDefinition).list().iter().any(|c| crd_opted_in(c))
}

fn ensure_in_super(syncer: &Syncer, tenant: &TenantState, item: &WorkItem, tenant_obj: &Object) {
    let Some(super_cache) = syncer.super_cache(item.kind) else { return };
    let (vc_name, prefix) = (&tenant.handle.name, &tenant.handle.prefix);

    match super_copy(super_cache, tenant, item.kind, &item.key) {
        None => {
            // Create path. The super copy might exist but not yet be in
            // our cache; AlreadyExists then routes to the update path via
            // requeue.
            let traced = item.kind == ResourceKind::Pod;
            if traced {
                syncer.trace_dws_done(&item.tenant, &item.key);
            }
            let desired = mapping::to_super(tenant_obj, vc_name, prefix);
            let created = create_with_namespace(syncer, tenant, tenant_obj, desired);
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
            if mapping::owner_cluster(&existing) != Some(&*tenant.name) {
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
            if mapping::matches_super(tenant_obj, &existing, vc_name, prefix) {
                syncer.forget_retries(item);
                if item.kind == ResourceKind::Pod {
                    // Create already happened (e.g. before a syncer
                    // restart).
                    syncer.trace_dws_done(&item.tenant, &item.key);
                }
                return;
            }
            let desired = mapping::to_super(tenant_obj, vc_name, prefix);
            match update_super(syncer, tenant, tenant_obj, desired, &existing) {
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

/// Creates `desired`, the super copy of `tenant_obj`, in the super cluster,
/// creating the prefixed namespace on demand when the object beat its
/// namespace through the queue.
fn create_with_namespace(
    syncer: &Syncer,
    tenant: &TenantState,
    tenant_obj: &Object,
    desired: Object,
) -> ApiResult<()> {
    match syncer.super_client.create(desired) {
        Ok(_) => Ok(()),
        Err(e) if e.is_namespace_missing() => {
            // The create consumed `desired`; the rare retry maps it again
            // rather than every create keeping a copy.
            let desired = mapping::to_super(tenant_obj, &tenant.handle.name, &tenant.handle.prefix);
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

/// Overwrites `cached_existing` with `desired`, the super copy of
/// `tenant_obj`, keeping the fields the super cluster owns.
fn update_super(
    syncer: &Syncer,
    tenant: &TenantState,
    tenant_obj: &Object,
    desired: Object,
    cached_existing: &Object,
) -> ApiResult<()> {
    let meta = cached_existing.meta();
    let (kind, ns, name) = (desired.kind(), meta.namespace.as_str(), meta.name.as_str());
    let mut desired = Some(desired);
    vc_controllers::util::retry_on_conflict(3, || {
        let fresh = syncer.super_client.get(kind, ns, name)?;
        // The first write consumes `desired`; the rare conflict retry maps
        // the tenant object again rather than every update keeping a copy.
        let mut updated = desired.take().unwrap_or_else(|| {
            mapping::to_super(tenant_obj, &tenant.handle.name, &tenant.handle.prefix)
        });
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
/// desired-state equality with the super-managed fields of
/// [`merge_super_managed`] taken from `existing`. Compared in place, field
/// by field, instead of merging into a copy of `desired`: it runs on every
/// downward reconcile that finds the super copy. The destructuring makes a
/// new field a compile error here rather than a silently ignored one.
pub(crate) fn equivalent(desired: &Object, existing: &Object) -> bool {
    match (desired, existing) {
        (Object::Pod(d), Object::Pod(e)) => {
            // Binding and status are the super cluster's.
            let PodSpec {
                init_containers,
                containers,
                node_name: _,
                node_selector,
                affinity,
                tolerations,
                service_account_name,
                runtime_class,
                secret_names,
                config_map_names,
                volume_claim_names,
                host_paths,
                host_network,
                host_pid,
            } = &*d.spec;
            let s = &e.spec;
            d.meta.same_desired_state(&e.meta)
                && *init_containers == s.init_containers
                && *containers == s.containers
                && *node_selector == s.node_selector
                && *affinity == s.affinity
                && *tolerations == s.tolerations
                && *service_account_name == s.service_account_name
                && *runtime_class == s.runtime_class
                && *secret_names == s.secret_names
                && *config_map_names == s.config_map_names
                && *volume_claim_names == s.volume_claim_names
                && *host_paths == s.host_paths
                && *host_network == s.host_network
                && *host_pid == s.host_pid
        }
        (Object::Service(d), Object::Service(e)) => {
            // Status is the super cluster's, and so is the cluster IP
            // unless the tenant asked for one.
            let ServiceSpec { service_type, selector, cluster_ip, ports } = &d.spec;
            d.meta.same_desired_state(&e.meta)
                && *service_type == e.spec.service_type
                && *selector == e.spec.selector
                && (cluster_ip.is_empty() || *cluster_ip == e.spec.cluster_ip)
                && *ports == e.spec.ports
        }
        (Object::Namespace(d), Object::Namespace(e)) => {
            // Finalizers and phase are the super cluster's.
            let ObjectMeta {
                name,
                namespace,
                uid: _,
                resource_version: _,
                generation: _,
                creation_timestamp: _,
                deletion_timestamp,
                labels,
                annotations,
                owner_references,
                finalizers: _,
                encodings: _,
            } = &d.meta;
            *name == e.meta.name
                && *namespace == e.meta.namespace
                && *deletion_timestamp == e.meta.deletion_timestamp
                && *labels == e.meta.labels
                && *annotations == e.meta.annotations
                && *owner_references == e.meta.owner_references
        }
        (Object::PersistentVolumeClaim(d), Object::PersistentVolumeClaim(e)) => {
            // Claim binding is the super cluster's volume binder's.
            let PersistentVolumeClaim {
                meta,
                requested,
                access_mode,
                storage_class,
                phase: _,
                volume_name: _,
            } = d;
            meta.same_desired_state(&e.meta)
                && *requested == e.requested
                && *access_mode == e.access_mode
                && *storage_class == e.storage_class
        }
        _ => desired.same_desired_state(existing),
    }
}

fn delete_from_super(syncer: &Syncer, tenant: &TenantState, item: &WorkItem) {
    let Some(super_cache) = syncer.super_cache(item.kind) else { return };
    let Some(super_key) = mapping::super_key_buf(&tenant.handle.prefix, item.kind, &item.key)
    else {
        return;
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
    if mapping::owner_cluster(&existing) != Some(&*tenant.name) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::namespace::{Namespace, NamespacePhase};
    use vc_api::pod::{Container, Pod, PodPhase};
    use vc_api::quantity::Quantity;
    use vc_api::service::Service;
    use vc_api::storage::VolumePhase;

    /// The definition `equivalent` replaced: merge the super-managed
    /// fields into a copy of `desired`, then compare desired states.
    fn equivalent_by_copy(desired: &Object, existing: &Object) -> bool {
        let mut d = desired.clone();
        merge_super_managed(&mut d, existing);
        d.same_desired_state(existing)
    }

    type Edit = fn(&mut Object);

    fn pod(o: &mut Object) -> &mut Pod {
        match o {
            Object::Pod(p) => p,
            _ => unreachable!(),
        }
    }

    fn service(o: &mut Object) -> &mut Service {
        match o {
            Object::Service(s) => s,
            _ => unreachable!(),
        }
    }

    fn namespace(o: &mut Object) -> &mut Namespace {
        match o {
            Object::Namespace(n) => n,
            _ => unreachable!(),
        }
    }

    fn claim(o: &mut Object) -> &mut PersistentVolumeClaim {
        match o {
            Object::PersistentVolumeClaim(c) => c,
            _ => unreachable!(),
        }
    }

    /// For each kind with super-managed fields, each of those fields and a
    /// few the tenant owns, perturbed in the desired copy, the existing
    /// copy or both (and not at all): the in-place comparison agrees with
    /// the merged-copy one.
    #[test]
    fn equivalent_agrees_with_the_merged_copy_comparison() {
        let base_pod: Object =
            Pod::new("t-abc-default", "web").with_container(Container::new("c", "nginx")).into();
        let mut base_service = Service::new("t-abc-default", "svc");
        base_service.spec.cluster_ip = "10.0.0.7".into();
        let base_claim: Object =
            PersistentVolumeClaim::new("t-abc-default", "data", Quantity::from_whole(1)).into();
        let cases: Vec<(Object, Vec<Edit>)> = vec![
            (
                base_pod,
                vec![
                    |o| pod(o).spec.node_name = "node-1".into(),
                    |o| pod(o).spec.node_name = "node-2".into(),
                    |o| pod(o).status.phase = PodPhase::Running,
                    |o| pod(o).status.pod_ip = "10.1.0.9".into(),
                    |o| pod(o).spec.containers[0].image = "nginx:2".into(),
                    |o| pod(o).spec.host_network = true,
                    |o| pod(o).meta.resource_version = 42,
                    |o| {
                        pod(o).meta.labels.insert("app".into(), "web".into());
                    },
                ],
            ),
            (
                base_service.into(),
                vec![
                    |o| service(o).status.load_balancer_ip = "1.2.3.4".into(),
                    |o| service(o).spec.cluster_ip = String::new(),
                    |o| service(o).spec.cluster_ip = "10.0.0.8".into(),
                    |o| {
                        service(o).spec.selector.insert("app".into(), "web".into());
                    },
                    |o| {
                        service(o).meta.annotations.insert("a".into(), "b".into());
                    },
                ],
            ),
            (
                Namespace::new("t-abc-default").into(),
                vec![
                    |o| namespace(o).meta.finalizers.push("kubernetes".into()),
                    |o| namespace(o).phase = NamespacePhase::Terminating,
                    |o| namespace(o).meta.uid = vc_api::meta::Uid::generate(),
                    |o| {
                        namespace(o).meta.labels.insert("team".into(), "a".into());
                    },
                ],
            ),
            (
                base_claim,
                vec![
                    |o| claim(o).phase = VolumePhase::Bound,
                    |o| claim(o).volume_name = "pv-1".into(),
                    |o| claim(o).storage_class = "fast".into(),
                    |o| claim(o).requested = Quantity::from_whole(2),
                ],
            ),
        ];
        let (mut equal, mut unequal) = (0, 0);
        for (base, edits) in &cases {
            let mut variants = vec![(base.clone(), base.clone())];
            for edit in edits {
                for (on_desired, on_existing) in [(true, false), (false, true), (true, true)] {
                    let (mut desired, mut existing) = (base.clone(), base.clone());
                    if on_desired {
                        edit(&mut desired);
                    }
                    if on_existing {
                        edit(&mut existing);
                    }
                    variants.push((desired, existing));
                }
            }
            // Every pair of single edits, one on each side.
            for first in edits {
                for second in edits {
                    let (mut desired, mut existing) = (base.clone(), base.clone());
                    first(&mut desired);
                    second(&mut existing);
                    variants.push((desired, existing));
                }
            }
            for (desired, existing) in &variants {
                let expected = equivalent_by_copy(desired, existing);
                assert_eq!(
                    equivalent(desired, existing),
                    expected,
                    "desired {desired:?}\nexisting {existing:?}"
                );
                if expected {
                    equal += 1;
                } else {
                    unequal += 1;
                }
            }
        }
        assert!(equal > 0 && unequal > 0, "the table covers both outcomes");
        // A pair of different kinds is never equivalent.
        let (a, b) = (&cases[0].0, &cases[2].0);
        assert_eq!(equivalent(a, b), equivalent_by_copy(a, b));
    }
}
