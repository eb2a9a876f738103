//! Fig 8 / Table I phase stamps.
//!
//! Pod traces are keyed `(tenant, tenant-side key)`. The tenant apiserver
//! gate opens the trace on pod Create; the methods below stamp queue marks
//! and stage spans as the object moves through the pipeline. The five
//! spans are the paper's Fig 8 / Table I phases (DWS-Queue, DWS-Process,
//! Super-Sched, UWS-Queue, UWS-Process), which the `fig8_breakdown` bench
//! reads back per pod. Marks are set-once and spans consume their mark, so
//! duplicate events cannot inflate a stage; a requeue records a second
//! span, and readers that want the creation path alone take the first one
//! (`Trace::span`).

use super::Syncer;
use vc_client::InformerEvent;
use vc_obs::stage;

impl Syncer {
    /// Called for every tenant-side pod event entering the downward
    /// queue: marks the DWS-Queue wait start. Additions also open the
    /// trace — a no-op when the apiserver gate already did (begin is
    /// idempotent while the trace is open), but it covers pods written
    /// before observability attached or via paths that bypass the gate.
    /// A deletion drops a still-open trace: a pod deleted before Ready
    /// (or blocked by policy for good) would otherwise hold it forever.
    pub(super) fn trace_downward_enqueue(&self, tenant: &str, key: &str, event: &InformerEvent) {
        let tracer = &self.obs.tracer;
        let id = match event {
            InformerEvent::Added { .. } => Some(tracer.begin(tenant, key)),
            InformerEvent::Deleted { .. } => {
                tracer.abandon(tenant, key);
                None
            }
            _ => tracer.lookup(tenant, key),
        };
        if let Some(id) = id {
            tracer.mark(id, stage::MARK_DWS_ENQUEUE);
        }
    }

    /// Downward reconcile reached the desired super-cluster state for a
    /// pod: closes the DWS-Process span and marks the Super-Sched span
    /// start, so the two tile. The create path calls this *before* its
    /// write — the scheduler, kubelet and upward worker can have the pod
    /// Ready and its trace finished before the worker is back from the
    /// call — and takes the mark back with [`Self::trace_dws_undone`] if
    /// the write fails.
    pub(crate) fn trace_dws_done(&self, tenant: &str, key: &str) {
        let tracer = &self.obs.tracer;
        if let Some(id) = tracer.lookup(tenant, key) {
            tracer.span_since_mark(id, stage::MARK_DWS_PROCESS, stage::DWS_PROCESS);
            tracer.mark(id, stage::MARK_SUPER_SCHED);
        }
    }

    /// The super-cluster create announced by [`Self::trace_dws_done`]
    /// failed: Super-Sched has not started after all.
    pub(crate) fn trace_dws_undone(&self, tenant: &str, key: &str) {
        if let Some(id) = self.obs.tracer.lookup(tenant, key) {
            self.obs.tracer.unmark(id, stage::MARK_SUPER_SCHED);
        }
    }

    /// The super pod turned Ready: closes the Super-Sched span and marks
    /// the UWS-Queue wait start.
    pub(super) fn trace_super_ready(&self, tenant: &str, tenant_key: &str) {
        if let Some(id) = self.obs.tracer.lookup(tenant, tenant_key) {
            self.trace_super_ready_on(id);
        }
    }

    fn trace_super_ready_on(&self, id: vc_obs::TraceId) {
        let tracer = &self.obs.tracer;
        tracer.span_since_mark(id, stage::MARK_SUPER_SCHED, stage::SUPER_SCHED);
        tracer.mark(id, stage::MARK_UWS_ENQUEUE);
    }

    /// An upward worker picked up the ready pod: closes the UWS-Queue
    /// span and marks the UWS-Process start. The worker reads the informer
    /// cache, which shows the pod Ready a moment before the Ready event's
    /// handler runs — holding an item queued by an earlier event it can be
    /// here first, so it does the handler's bookkeeping itself (marks are
    /// set-once and spans consume theirs: when the handler was first, this
    /// changes nothing).
    pub(crate) fn trace_uws_dequeued(&self, tenant: &str, tenant_key: &str) {
        let tracer = &self.obs.tracer;
        if let Some(id) = tracer.lookup(tenant, tenant_key) {
            self.trace_super_ready_on(id);
            tracer.span_since_mark(id, stage::MARK_UWS_ENQUEUE, stage::UWS_QUEUE);
            tracer.mark(id, stage::MARK_UWS_PROCESS);
        }
    }

    /// The tenant pod status now reflects Ready: closes the UWS-Process
    /// span and finishes the trace (recording a slow-op log entry when
    /// over threshold).
    pub(crate) fn trace_uws_done(&self, tenant: &str, tenant_key: &str) {
        let tracer = &self.obs.tracer;
        if let Some(id) = tracer.lookup(tenant, tenant_key) {
            tracer.span_since_mark(id, stage::MARK_UWS_PROCESS, stage::UWS_PROCESS);
        }
        tracer.finish(tenant, tenant_key);
    }
}
