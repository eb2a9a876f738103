//! The periodic mismatch scanner (paper §III-C, §IV-C): re-derives
//! divergences between tenant and super-cluster caches and resends the
//! affected keys to the worker queues.
//!
//! There is one scan body. A tick re-validates the keys dirtied by
//! informer events since the last tick, then advances a paginated cold
//! sweep by [`SCAN_SLICE`] keys. A full pass ([`Syncer::scan_all`]) runs
//! the same body with the budget lifted: one whole lap of the cold sweep,
//! which visits every key once and so subsumes the dirty set.

use super::{downward, Syncer, TenantState, WorkItem};
use crate::mapping;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;

/// Keys the cold sweep visits per scan tick (the dirty set is drained in
/// full): a tick is O(changed + slice), not O(all objects).
const SCAN_SLICE: usize = 512;

/// Resume position of the cold sweep.
///
/// The sweep walks one cache segment at a time — tenant-side caches first
/// (divergence, missing super copies), then the super-side caches
/// (orphans whose tenant source is gone) — and wraps around. Tenants are
/// visited in name order so the cursor survives registration churn
/// between ticks.
#[derive(Debug, Clone, Default)]
struct ScanCursor {
    /// `false`: sweeping tenant caches; `true`: sweeping super caches.
    super_side: bool,
    /// Current tenant (tenant-side sweep only).
    tenant: Option<Arc<str>>,
    /// Index into the downward kinds for the current segment.
    kind_idx: usize,
    /// Last key visited in the current segment (resume strictly after).
    last_key: Option<Arc<str>>,
}

/// The dirty set and the cold-sweep cursor.
#[derive(Default)]
pub(super) struct Scanner {
    /// Tenant-side keys dirtied by informer events since the last tick.
    dirty: Mutex<HashSet<WorkItem>>,
    /// Cold-sweep resume position.
    cursor: Mutex<ScanCursor>,
}

impl Scanner {
    fn mark(&self, item: WorkItem) {
        self.dirty.lock().insert(item);
    }

    fn take_dirty(&self) -> Vec<WorkItem> {
        self.dirty.lock().drain().collect()
    }

    fn dirty_len(&self) -> usize {
        self.dirty.lock().len()
    }

    /// Drops the tenant's dirty keys.
    pub(super) fn forget_tenant(&self, tenant: &str) {
        self.dirty.lock().retain(|i| &*i.tenant != tenant);
    }

    fn cursor(&self) -> ScanCursor {
        self.cursor.lock().clone()
    }

    fn set_cursor(&self, cursor: ScanCursor) {
        *self.cursor.lock() = cursor;
    }
}

impl Syncer {
    /// Runs one full mismatch pass across all tenants on the caller's
    /// thread: one lap of the cold sweep. Returns the wall-clock duration.
    pub fn scan_all(&self) -> Duration {
        self.scan(true).1
    }

    /// One incremental scan tick: re-validates the keys dirtied by
    /// informer events since the last tick, then advances the cold sweep
    /// by up to `SCAN_SLICE` (512) keys. The cold sweep guards against the
    /// dirty set itself losing entries (process restarts, missed watch
    /// events): every key is still visited eventually, just spread over
    /// many ticks. Returns the number of items requeued for repair.
    pub fn scan_tick(&self) -> usize {
        self.scan(false).0
    }

    /// The scan body. Dead letters get another chance first: the scan
    /// re-derives mismatches from caches, so a re-queued item that is
    /// already in sync is a cheap no-op. A `full` pass drops the dirty
    /// keys unchecked, since its lap visits them anyway.
    fn scan(&self, full: bool) -> (usize, Duration) {
        let start = Instant::now();
        self.drain_dead_letters();
        let mut requeues = 0;
        let dirty = self.scanner.take_dirty();
        if !full {
            for item in &dirty {
                if let Some(state) = self.tenant(&item.tenant) {
                    requeues += usize::from(self.check_key(&state, item.kind, &item.key));
                }
            }
        }
        requeues += self.cold_sweep(if full { usize::MAX } else { SCAN_SLICE });
        let elapsed = start.elapsed();
        self.metrics.scans.inc();
        self.metrics.scan_duration.observe(elapsed);
        (requeues, elapsed)
    }

    /// Keys currently waiting in the scanner's dirty set.
    pub fn scan_dirty_len(&self) -> usize {
        self.scanner.dirty_len()
    }

    /// Marks a tenant-side key for re-validation on the next scan tick.
    pub(super) fn mark_dirty(&self, tenant: &Arc<str>, kind: ResourceKind, tenant_key: &Arc<str>) {
        if !self.config.downward_kinds.contains(&kind) {
            return;
        }
        self.scanner.mark(WorkItem {
            tenant: Arc::clone(tenant),
            kind,
            key: Arc::clone(tenant_key),
        });
    }

    /// Re-validates one tenant-side key against the caches: requeues
    /// downward when the super copy is missing, diverged or orphaned, and
    /// upward when the super pod carries a status the tenant has not
    /// seen. Returns whether anything was requeued.
    fn check_key(&self, tenant: &TenantState, kind: ResourceKind, tenant_key: &Arc<str>) -> bool {
        if !self.config.downward_kinds.contains(&kind) {
            return false;
        }
        let Some(super_cache) = self.super_cache(kind) else { return false };
        let name = &tenant.name;
        let tenant_obj = tenant.cache(kind).get(tenant_key);
        // Only a super copy this tenant owns is its business here.
        let super_obj = mapping::super_key_buf(&tenant.handle.prefix, kind, tenant_key)
            .and_then(|key| super_cache.get(&key))
            .filter(|o| mapping::owner_cluster(o) == Some(&**name));
        let downward = match &tenant_obj {
            Some(obj) => !downward::in_sync(self, tenant, kind, tenant_key, obj),
            // Tenant source gone: the super copy is an orphan the downward
            // delete path must remove.
            None => super_obj.is_some(),
        };
        // Upward repair: super pod status the tenant has not seen.
        let stale_pod = tenant_obj.as_deref().zip(super_obj.as_deref()).filter(|(t, s)| {
            t.as_pod().zip(s.as_pod()).is_some_and(|(tp, sp)| {
                tp.status != sp.status || tp.spec.node_name != sp.spec.node_name
            })
        });
        if downward {
            self.metrics.scan_requeues.inc();
            let item = WorkItem { tenant: Arc::clone(name), kind, key: Arc::clone(tenant_key) };
            self.downward.add(name, item);
        }
        if let Some((_, super_pod)) = stale_pod {
            self.metrics.scan_requeues.inc();
            let key = super_pod.meta().shared_key();
            self.upward.add(WorkItem { tenant: Arc::clone(name), kind, key });
        }
        downward || stale_pod.is_some()
    }

    /// Advances the cold sweep by up to `budget` keys and returns the
    /// number of keys requeued. The sweep walks (tenant × downward kind)
    /// cache segments in name order, then one super-side segment per kind,
    /// wrapping around at the end. A call runs at most one lap — the rest
    /// of the segment it resumes in, every other segment, then the part of
    /// the first segment before the resume point — so each key is visited
    /// once per lap and empty caches cannot spin the scanner.
    fn cold_sweep(&self, budget: usize) -> usize {
        let kinds = &self.config.downward_kinds;
        if kinds.is_empty() || budget == 0 {
            return 0;
        }
        let mut tenants: Vec<Arc<TenantState>> = self.tenants.read().values().cloned().collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));

        // Segment list for this call: every (tenant, kind) pair, then one
        // super-side segment per kind. Segment `i` sweeps `kinds[i % K]`.
        let mut segments: Vec<(Option<&Arc<TenantState>>, ResourceKind)> = Vec::new();
        for tenant in &tenants {
            segments.extend(kinds.iter().map(|kind| (Some(tenant), *kind)));
        }
        segments.extend(kinds.iter().map(|kind| (None, *kind)));
        let total = segments.len();
        let cursor_at = |segment: usize, last_key: Option<Arc<str>>| {
            let (state, _) = &segments[segment];
            ScanCursor {
                super_side: state.is_none(),
                tenant: state.map(|t| Arc::clone(&t.name)),
                kind_idx: segment % kinds.len(),
                last_key,
            }
        };

        // Map the persisted cursor onto this call's segment list. A tenant
        // unregistered since the last call resolves to the start of the
        // next tenant in name order (a one-time partial skip is harmless:
        // the sweep wraps around).
        let cursor = self.scanner.cursor();
        let kind_idx = cursor.kind_idx.min(kinds.len() - 1);
        let (first, resume) = if cursor.super_side {
            (tenants.len() * kinds.len() + kind_idx, cursor.last_key)
        } else {
            match &cursor.tenant {
                Some(name) => match tenants.iter().position(|t| t.name >= *name) {
                    Some(t) => {
                        let same = tenants[t].name == *name;
                        (t * kinds.len() + kind_idx, cursor.last_key.filter(|_| same))
                    }
                    None => (tenants.len() * kinds.len(), None), // past the last tenant
                },
                None => (0, None),
            }
        };

        let (mut checked, mut requeues) = (0, 0);
        for step in 0..total + usize::from(resume.is_some()) {
            let segment = (first + step) % total;
            if checked == budget {
                // Budget spent at a segment boundary.
                self.scanner.set_cursor(cursor_at(segment, None));
                return requeues;
            }
            let (state, kind) = segments[segment];
            let keys = match state {
                Some(tenant) => tenant.cache(kind).sorted_keys(),
                None => self.super_cache(kind).map(|c| c.sorted_keys()).unwrap_or_default(),
            };
            let split = resume.as_ref().map_or(0, |last| keys.partition_point(|k| k <= last));
            let range = match step {
                0 => split..keys.len(),
                s if s == total => 0..split,
                _ => 0..keys.len(),
            };
            let take = (budget - checked).min(range.len());
            for key in &keys[range.start..range.start + take] {
                requeues += usize::from(match state {
                    Some(tenant) => self.check_key(tenant, kind, key),
                    None => self.check_super_key(kind, key),
                });
            }
            checked += take;
            if take < range.len() {
                // Budget spent mid-segment: resume after the last key.
                let last = keys[range.start + take - 1].clone();
                self.scanner.set_cursor(cursor_at(segment, Some(last)));
                return requeues;
            }
        }
        // A whole lap ends where it started; the cursor stays put.
        requeues
    }

    /// The super-side half of the cold sweep: maps a super key back to
    /// its owner's view and checks it there — but only when the owner's
    /// cache lacks the source. Every key with a source is its tenant-side
    /// segment's to check, so a lap checks each divergence once.
    fn check_super_key(&self, kind: ResourceKind, key: &str) -> bool {
        let Some(obj) = self.super_cache(kind).and_then(|c| c.get(key)) else { return false };
        let Some(tenant) = mapping::owner_cluster(&obj).and_then(|o| self.tenant(o)) else {
            return false;
        };
        match mapping::tenant_key_buf(&tenant.handle.prefix, kind, key) {
            Some(tenant_key) if tenant.cache(kind).get(&tenant_key).is_none() => {
                let tenant_key = Arc::from(tenant_key.as_str());
                self.check_key(&tenant, kind, &tenant_key)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Framework, FrameworkConfig};
    use vc_api::config::ConfigMap;
    use vc_controllers::util::wait_until;

    /// A full pass checks each divergence exactly once, even when the lap
    /// starts mid-segment: one diverged super copy (checked on the tenant
    /// side) and two orphans (checked on the super side, one on each side
    /// of the resume point). ConfigMaps have no upward path, so every
    /// requeue is a downward one.
    #[test]
    fn a_lap_from_mid_segment_checks_each_divergence_once() {
        let mut config = FrameworkConfig::minimal();
        config.syncer.scan_interval = None;
        config.syncer.downward_kinds = vec![ResourceKind::ConfigMap];
        let fw = Framework::start(config);
        let super_ns = format!("{}-default", fw.create_tenant("t").unwrap().prefix);
        let tenant = fw.tenant_client("t", "user");
        for i in 0..4 {
            tenant.create(ConfigMap::new("default", format!("cm-{i}")).into()).unwrap();
        }
        let cms = fw.syncer.super_cache(ResourceKind::ConfigMap).unwrap();
        let cached = |name: &str| cms.get(&format!("{super_ns}/{name}"));
        let wait = |done: &dyn Fn() -> bool| {
            assert!(wait_until(Duration::from_secs(20), Duration::from_millis(5), done));
        };
        wait(&|| (0..4).all(|i| cached(&format!("cm-{i}")).is_some()) && fw.syncer.is_quiet());
        // Nothing is repaired while the downward sub-queue is paused.
        fw.syncer.downward.pause_tenant("t");
        let admin = fw.super_client("admin");
        let copy = admin.get(ResourceKind::ConfigMap, &super_ns, "cm-1").unwrap();
        let mut tampered: ConfigMap = copy.try_into().unwrap();
        tampered.meta.labels.insert("tampered".into(), "yes".into());
        admin.update(tampered.into()).unwrap();
        for name in ["orphan-a", "orphan-b"] {
            let mut orphan = ConfigMap::new(&super_ns, name);
            orphan.meta.annotations.insert(mapping::CLUSTER_ANNOTATION.into(), "t".into());
            admin.create(orphan.into()).unwrap();
        }
        let tampered = || cached("cm-1").is_some_and(|o| o.meta().labels.contains_key("tampered"));
        wait(&|| tampered() && cached("orphan-b").is_some());

        // A budget-limited sweep from the start stops right after orphan-a.
        let tenant_keys = fw.syncer.tenant("t").unwrap().cache(ResourceKind::ConfigMap).len();
        let orphan_a = format!("{super_ns}/orphan-a");
        let at = cms.sorted_keys().iter().position(|k| **k == *orphan_a).unwrap();
        fw.syncer.cold_sweep(tenant_keys + at + 1);
        assert_eq!(fw.syncer.scanner.cursor().last_key.as_deref(), Some(orphan_a.as_str()));
        let requeues = || fw.syncer.metrics.scan_requeues.get();
        for _ in 0..2 {
            let before = requeues();
            fw.syncer.scan_all();
            assert_eq!(requeues() - before, 3, "one requeue per divergence");
        }
        fw.syncer.downward.resume_tenant("t");
        let gone = |name: &str| cached(name).is_none();
        wait(&|| !tampered() && gone("orphan-a") && gone("orphan-b") && fw.syncer.is_quiet());
        let before = requeues();
        fw.syncer.scan_all();
        assert_eq!(requeues(), before, "nothing left to repair");
        fw.shutdown();
    }
}
