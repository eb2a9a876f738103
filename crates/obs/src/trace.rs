//! Request tracing: trace IDs, per-stage spans, marks, a ring-buffered
//! trace store and the slow-op log.
//!
//! A trace follows **one object** (keyed by `(tenant, object key)`)
//! through the whole pipeline, mirroring the paper's five-phase latency
//! breakdown (Fig 8 / Table I) but at per-request granularity:
//!
//! ```text
//! tenant create ──► gate ──► dws_queue ──► dws_process ──► apiserver:super:create
//!                                                             │
//!  tenant status ◄── uws_process ◄── uws_queue ◄── super_sched ┘
//! ```
//!
//! Three primitives cover every stage shape:
//!
//! * [`Tracer::record_span`] — a stage whose duration the caller measured
//!   (reconcile bodies, apiserver request handling),
//! * [`Tracer::mark`] + [`Tracer::span_since_mark`] — a stage bracketed by
//!   two *events* (queue wait: mark on enqueue, span on dequeue). Marks
//!   are set-once and consumed on use, so requeues and dedup cannot
//!   distort the measurement (first occurrence wins).
//! * a **thread-local trace context** ([`TraceContext`]) — workers enter
//!   the context of the item they are reconciling; any instrumented
//!   apiserver touched from that thread attaches its request span to the
//!   current trace. This is how "propagated through client calls" works
//!   without threading IDs through every signature.
//!
//! All durations are stored at [`Duration`] (nanosecond) precision and
//! clamped to a 1ns minimum, so even zero-latency simulated requests
//! yield non-empty spans.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vc_api::metrics::Counter;

/// Well-known stage and mark names stamped by the stack.
pub mod stage {
    /// Tenant apiserver admitted the originating request (trace start).
    pub const GATE: &str = "gate";
    /// Wait in the downward weighted-fair queue (mark: [`MARK_DWS_ENQUEUE`]).
    pub const DWS_QUEUE: &str = "dws_queue";
    /// Downward reconcile execution.
    pub const DWS_PROCESS: &str = "dws_process";
    /// Super-cluster scheduling + run-up until the pod reports Ready.
    pub const SUPER_SCHED: &str = "super_sched";
    /// Wait in the upward work queue (mark: [`MARK_UWS_ENQUEUE`]).
    pub const UWS_QUEUE: &str = "uws_queue";
    /// Upward reconcile execution (tenant status write included).
    pub const UWS_PROCESS: &str = "uws_process";
    /// Client-side rate-limiter wait before a request was sent.
    pub const CLIENT_THROTTLE: &str = "client_throttle";

    /// Mark set when an item enters the downward queue.
    pub const MARK_DWS_ENQUEUE: &str = "dws_enqueue";
    /// Mark set when the downward sync completed (Super-Sched begins).
    pub const MARK_SUPER_SCHED: &str = "super_sched_start";
    /// Mark set when the ready pod enters the upward queue.
    pub const MARK_UWS_ENQUEUE: &str = "uws_enqueue";
    /// Mark set when an upward worker dequeues the ready pod.
    pub const MARK_UWS_PROCESS: &str = "uws_process_start";

    /// Stage name for an apiserver request observed inside a trace
    /// context, e.g. `apiserver:super:create` for the super-cluster
    /// write.
    pub fn apiserver(scope: &str, verb: &str) -> String {
        format!("apiserver:{scope}:{verb}")
    }
}

/// Identifier of one end-to-end trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw numeric ID.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace-{}", self.0)
    }
}

/// One timed stage within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (see [`stage`] for the well-known set).
    pub stage: String,
    /// Offset of the span's start from the trace's start.
    pub start_offset: Duration,
    /// Span duration (≥ 1ns by construction).
    pub duration: Duration,
    /// Whether the stage completed successfully.
    pub ok: bool,
}

/// A copy of one trace's recorded state (open or finished).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Trace identifier.
    pub id: TraceId,
    /// Owning tenant.
    pub tenant: String,
    /// Traced object key (tenant-side).
    pub key: String,
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
    /// End-to-end duration; `None` while the trace is still open.
    pub total: Option<Duration>,
}

impl Trace {
    /// The distinct stage names recorded, in first-appearance order.
    pub fn distinct_stages(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for span in &self.spans {
            if !seen.contains(&span.stage.as_str()) {
                seen.push(span.stage.as_str());
            }
        }
        seen
    }

    /// The first span recorded for `stage`, if any.
    pub fn span(&self, stage: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// Per-stage total durations, in first-appearance order (requeued
    /// stages are summed).
    pub fn breakdown(&self) -> Vec<(String, Duration)> {
        breakdown_of(&self.spans)
    }
}

/// One slow-op log entry: a finished sync whose end-to-end duration met
/// the tracer's threshold.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// Trace identifier.
    pub id: TraceId,
    /// Owning tenant.
    pub tenant: String,
    /// Traced object key.
    pub key: String,
    /// End-to-end duration.
    pub total: Duration,
    /// Per-stage breakdown (see [`Trace::breakdown`]).
    pub breakdown: Vec<(String, Duration)>,
}

impl SlowOp {
    /// Renders the documented single-line log format:
    ///
    /// ```text
    /// SLOW trace-7 tenant=tenant-1 key=default/p total_ms=1203 stages=gate:1,dws_queue:800,...
    /// ```
    ///
    /// Stage durations are in integer milliseconds (sub-millisecond
    /// stages print as `0`).
    pub fn log_line(&self) -> String {
        let stages: Vec<String> =
            self.breakdown.iter().map(|(name, d)| format!("{name}:{}", d.as_millis())).collect();
        format!(
            "SLOW {} tenant={} key={} total_ms={} stages={}",
            self.id,
            self.tenant,
            self.key,
            self.total.as_millis(),
            stages.join(",")
        )
    }
}

#[derive(Debug)]
struct TraceInner {
    tenant: String,
    key: String,
    started: Instant,
    spans: Vec<Span>,
    marks: HashMap<String, Instant>,
    total: Option<Duration>,
}

#[derive(Debug, Default)]
struct TracerState {
    /// Most recent trace for each `(tenant, key)` — open or finished.
    by_key: HashMap<(String, String), TraceId>,
    traces: HashMap<TraceId, TraceInner>,
    /// Finished traces in completion order (ring buffer).
    finished: VecDeque<TraceId>,
    /// Bounded slow-op log.
    slow: VecDeque<SlowOp>,
}

/// Records traces for objects flowing through the stack.
///
/// All methods take `&self`; a single internal mutex guards the state.
#[derive(Debug)]
pub struct Tracer {
    state: Mutex<TracerState>,
    next_id: AtomicU64,
    capacity: usize,
    slow_capacity: usize,
    slow_threshold_ns: AtomicU64,
    /// Traces begun.
    pub started: Counter,
    /// Traces finished.
    pub completed: Counter,
    /// Slow-op entries recorded.
    pub slow_recorded: Counter,
}

/// Clamp so even instant-equal clock reads produce a non-empty span.
fn nonzero(d: Duration) -> Duration {
    d.max(Duration::from_nanos(1))
}

impl Tracer {
    /// Creates a tracer with the given capacity and slow-op tunables.
    pub fn new(params: &crate::ObsParams) -> Self {
        Tracer {
            state: Mutex::new(TracerState::default()),
            next_id: AtomicU64::new(1),
            capacity: params.trace_capacity.max(1),
            slow_capacity: params.slow_capacity.max(1),
            slow_threshold_ns: AtomicU64::new(params.slow_threshold.as_nanos() as u64),
            started: Counter::new(),
            completed: Counter::new(),
            slow_recorded: Counter::new(),
        }
    }

    /// Begins (or joins) the open trace for `(tenant, key)`.
    ///
    /// Idempotent: while a trace for the key is open, every caller gets
    /// the same ID — the apiserver gate, the informer handler and the
    /// queue can all race to "start" the trace safely.
    pub fn begin(&self, tenant: &str, key: &str) -> TraceId {
        self.begin_or_join(tenant, key).0
    }

    /// [`Tracer::begin`] that also tells whether this call opened the
    /// trace (`true`) or joined one already open — what a caller needs to
    /// know before it may [`Tracer::abandon`] the trace on its own failure.
    pub fn begin_or_join(&self, tenant: &str, key: &str) -> (TraceId, bool) {
        let mut state = self.state.lock();
        let map_key = (tenant.to_string(), key.to_string());
        if let Some(id) = state.by_key.get(&map_key) {
            if state.traces.get(id).is_some_and(|t| t.total.is_none()) {
                return (*id, false);
            }
        }
        let id = TraceId(self.next_id.fetch_add(1, Ordering::Relaxed));
        state.traces.insert(
            id,
            TraceInner {
                tenant: tenant.to_string(),
                key: key.to_string(),
                started: Instant::now(),
                spans: Vec::new(),
                marks: HashMap::new(),
                total: None,
            },
        );
        state.by_key.insert(map_key, id);
        self.started.inc();
        (id, true)
    }

    /// The open trace for `(tenant, key)`, if any.
    pub fn lookup(&self, tenant: &str, key: &str) -> Option<TraceId> {
        let state = self.state.lock();
        let id = *state.by_key.get(&(tenant.to_string(), key.to_string()))?;
        state.traces.get(&id).is_some_and(|t| t.total.is_none()).then_some(id)
    }

    /// Sets a named mark (set-once: re-marking does not move it). No-op
    /// for unknown or finished traces.
    pub fn mark(&self, id: TraceId, name: &str) {
        let mut state = self.state.lock();
        if let Some(trace) = state.traces.get_mut(&id) {
            if trace.total.is_none() {
                trace.marks.entry(name.to_string()).or_insert_with(Instant::now);
            }
        }
    }

    /// Withdraws a mark that turned out not to start anything (the write
    /// it was set ahead of failed), so a retry marks afresh.
    pub fn unmark(&self, id: TraceId, name: &str) {
        if let Some(trace) = self.state.lock().traces.get_mut(&id) {
            trace.marks.remove(name);
        }
    }

    /// Records a span named `stage` covering the time since `mark`,
    /// consuming the mark (so only the first dequeue after an enqueue
    /// produces a span). Returns the span duration, or `None` when the
    /// mark or trace is absent.
    pub fn span_since_mark(&self, id: TraceId, mark: &str, stage: &str) -> Option<Duration> {
        let mut state = self.state.lock();
        let trace = state.traces.get_mut(&id)?;
        if trace.total.is_some() {
            return None;
        }
        let at = trace.marks.remove(mark)?;
        let duration = nonzero(at.elapsed());
        let start_offset = at.saturating_duration_since(trace.started);
        trace.spans.push(Span { stage: stage.to_string(), start_offset, duration, ok: true });
        Some(duration)
    }

    /// Records a caller-measured span ending now. No-op for unknown or
    /// finished traces.
    pub fn record_span(&self, id: TraceId, stage: &str, duration: Duration, ok: bool) {
        let mut state = self.state.lock();
        if let Some(trace) = state.traces.get_mut(&id) {
            if trace.total.is_some() {
                return;
            }
            let duration = nonzero(duration);
            let start_offset = nonzero(trace.started.elapsed()).saturating_sub(duration);
            trace.spans.push(Span { stage: stage.to_string(), start_offset, duration, ok });
        }
    }

    /// Records the span of the request that opened the trace, measured
    /// from the trace's start. Unlike [`Tracer::record_span`] it also
    /// lands on a trace that has finished meanwhile: the request returns
    /// to its caller only after the object became visible, and the
    /// pipeline it set off can finish the object's trace first.
    pub fn record_opening_span(&self, id: TraceId, stage: &str, duration: Duration) {
        let mut state = self.state.lock();
        if let Some(trace) = state.traces.get_mut(&id) {
            trace.spans.push(Span {
                stage: stage.to_string(),
                start_offset: Duration::ZERO,
                duration: nonzero(duration),
                ok: true,
            });
        }
    }

    /// Finishes the open trace for `(tenant, key)`: stamps the total,
    /// moves it to the finished ring (evicting the oldest beyond
    /// capacity) and appends to the slow-op log when the total meets the
    /// threshold. Returns the end-to-end duration, or `None` when no
    /// trace was open (finish is idempotent).
    pub fn finish(&self, tenant: &str, key: &str) -> Option<Duration> {
        let mut state = self.state.lock();
        let map_key = (tenant.to_string(), key.to_string());
        let id = *state.by_key.get(&map_key)?;
        let threshold = Duration::from_nanos(self.slow_threshold_ns.load(Ordering::Relaxed));
        let (total, slow) = {
            let trace = state.traces.get_mut(&id)?;
            if trace.total.is_some() {
                return None;
            }
            let total = nonzero(trace.started.elapsed());
            trace.total = Some(total);
            trace.marks.clear();
            let slow = (total >= threshold).then(|| SlowOp {
                id,
                tenant: trace.tenant.clone(),
                key: trace.key.clone(),
                total,
                breakdown: breakdown_of(&trace.spans),
            });
            (total, slow)
        };
        state.finished.push_back(id);
        while state.finished.len() > self.capacity {
            if let Some(evicted) = state.finished.pop_front() {
                if let Some(gone) = state.traces.remove(&evicted) {
                    let gone_key = (gone.tenant, gone.key);
                    if state.by_key.get(&gone_key) == Some(&evicted) {
                        state.by_key.remove(&gone_key);
                    }
                }
            }
        }
        if let Some(slow) = slow {
            state.slow.push_back(slow);
            while state.slow.len() > self.slow_capacity {
                state.slow.pop_front();
            }
            self.slow_recorded.inc();
        }
        self.completed.inc();
        Some(total)
    }

    /// Drops the open trace for `(tenant, key)` without finishing it: the
    /// object went away (deleted, or rejected for good) before its sync
    /// completed, so nothing will ever call [`Tracer::finish`] for it.
    /// Finished traces stay in the ring. Returns whether a trace was
    /// dropped.
    pub fn abandon(&self, tenant: &str, key: &str) -> bool {
        let mut state = self.state.lock();
        let map_key = (tenant.to_string(), key.to_string());
        let Some(&id) = state.by_key.get(&map_key) else { return false };
        if state.traces.get(&id).is_none_or(|t| t.total.is_some()) {
            return false;
        }
        state.traces.remove(&id);
        state.by_key.remove(&map_key);
        true
    }

    /// Drops every open trace of `tenant` (tenant teardown). Returns how
    /// many were dropped.
    pub fn abandon_tenant(&self, tenant: &str) -> usize {
        let mut state = self.state.lock();
        let before = state.traces.len();
        state.traces.retain(|_, t| t.tenant != tenant || t.total.is_some());
        let TracerState { by_key, traces, .. } = &mut *state;
        by_key.retain(|_, id| traces.contains_key(id));
        before - traces.len()
    }

    /// A copy of the trace with `id`, if retained.
    pub fn get(&self, id: TraceId) -> Option<Trace> {
        let state = self.state.lock();
        state.traces.get(&id).map(|t| clone_out(id, t))
    }

    /// The most recent trace (open or finished) for `(tenant, key)`.
    pub fn find(&self, tenant: &str, key: &str) -> Option<Trace> {
        let state = self.state.lock();
        let id = *state.by_key.get(&(tenant.to_string(), key.to_string()))?;
        state.traces.get(&id).map(|t| clone_out(id, t))
    }

    /// A copy of the slow-op log, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.state.lock().slow.iter().cloned().collect()
    }

    /// Per-tenant counts over the retained slow-op ring, computed in one
    /// pass. Dashboards over many tenants use this instead of filtering
    /// [`Tracer::slow_ops`] per tenant, which clones the whole ring
    /// (breakdowns included) once per tenant — O(tenants × ring).
    pub fn slow_op_counts(&self) -> HashMap<String, u64> {
        let state = self.state.lock();
        let mut counts: HashMap<String, u64> = HashMap::new();
        for op in state.slow.iter() {
            *counts.entry(op.tenant.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Replaces the slow-op threshold at runtime.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_threshold_ns.store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The current slow-op threshold.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_threshold_ns.load(Ordering::Relaxed))
    }

    /// Number of open (unfinished) traces.
    pub fn open_count(&self) -> usize {
        self.state.lock().traces.values().filter(|t| t.total.is_none()).count()
    }

    /// Number of finished traces retained in the ring.
    pub fn finished_count(&self) -> usize {
        self.state.lock().finished.len()
    }

    /// Drops all traces and slow-op entries (counters are kept).
    pub fn reset(&self) {
        let mut state = self.state.lock();
        *state = TracerState::default();
    }
}

fn breakdown_of(spans: &[Span]) -> Vec<(String, Duration)> {
    let mut out: Vec<(String, Duration)> = Vec::new();
    for span in spans {
        match out.iter_mut().find(|(name, _)| name == &span.stage) {
            Some((_, d)) => *d += span.duration,
            None => out.push((span.stage.clone(), span.duration)),
        }
    }
    out
}

fn clone_out(id: TraceId, inner: &TraceInner) -> Trace {
    Trace {
        id,
        tenant: inner.tenant.clone(),
        key: inner.key.clone(),
        spans: inner.spans.clone(),
        total: inner.total,
    }
}

thread_local! {
    static CURRENT_TRACE: RefCell<Vec<TraceId>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard marking the current thread as working on behalf of a trace.
///
/// While the guard lives, [`current_trace`] returns the trace ID, and any
/// instrumented apiserver called from this thread attaches its request
/// span to that trace. Guards nest (innermost wins) and must be dropped
/// on the thread that created them.
#[derive(Debug)]
pub struct TraceContext {
    /// Keeps the guard `!Send` so it cannot drop on another thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl TraceContext {
    /// Enters the context of `id` on the current thread.
    pub fn enter(id: TraceId) -> TraceContext {
        CURRENT_TRACE.with(|stack| stack.borrow_mut().push(id));
        TraceContext { _not_send: std::marker::PhantomData }
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The trace the current thread is working on behalf of, if any.
pub fn current_trace() -> Option<TraceId> {
    CURRENT_TRACE.with(|stack| stack.borrow().last().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsParams;

    fn tracer() -> Tracer {
        Tracer::new(&ObsParams::default())
    }

    #[test]
    fn begin_is_idempotent_while_open() {
        let t = tracer();
        let a = t.begin("tn", "k");
        let b = t.begin("tn", "k");
        assert_eq!(a, b);
        t.finish("tn", "k");
        let c = t.begin("tn", "k");
        assert_ne!(a, c, "finished trace is not rejoined");
    }

    #[test]
    fn spans_and_marks_accumulate() {
        let t = tracer();
        let id = t.begin("tn", "k");
        t.mark(id, stage::MARK_DWS_ENQUEUE);
        std::thread::sleep(Duration::from_millis(2));
        let d = t.span_since_mark(id, stage::MARK_DWS_ENQUEUE, stage::DWS_QUEUE).unwrap();
        assert!(d >= Duration::from_millis(1));
        // Mark consumed: a second dequeue records nothing.
        assert!(t.span_since_mark(id, stage::MARK_DWS_ENQUEUE, stage::DWS_QUEUE).is_none());
        t.record_span(id, stage::DWS_PROCESS, Duration::ZERO, true);
        let total = t.finish("tn", "k").unwrap();
        assert!(total > Duration::ZERO);
        let trace = t.find("tn", "k").unwrap();
        assert_eq!(trace.distinct_stages(), vec![stage::DWS_QUEUE, stage::DWS_PROCESS]);
        // Zero-measured durations are clamped non-zero.
        assert!(trace.span(stage::DWS_PROCESS).unwrap().duration > Duration::ZERO);
    }

    #[test]
    fn remark_does_not_move_the_mark() {
        let t = tracer();
        let id = t.begin("tn", "k");
        t.mark(id, "m");
        std::thread::sleep(Duration::from_millis(3));
        t.mark(id, "m"); // requeue: must not reset the clock
        let d = t.span_since_mark(id, "m", "s").unwrap();
        assert!(d >= Duration::from_millis(3));
    }

    #[test]
    fn finish_is_idempotent_and_ring_evicts() {
        let params = ObsParams { trace_capacity: 2, ..Default::default() };
        let t = Tracer::new(&params);
        assert!(t.finish("tn", "nope").is_none());
        for i in 0..4 {
            let key = format!("k{i}");
            t.begin("tn", &key);
            assert!(t.finish("tn", &key).is_some());
            assert!(t.finish("tn", &key).is_none(), "double finish");
        }
        assert_eq!(t.finished_count(), 2);
        assert!(t.find("tn", "k0").is_none(), "evicted");
        assert!(t.find("tn", "k3").is_some(), "recent kept");
        assert_eq!(t.completed.get(), 4);
    }

    #[test]
    fn slow_ops_capture_threshold_breaches() {
        let params = ObsParams {
            slow_threshold: Duration::from_millis(5),
            slow_capacity: 2,
            ..Default::default()
        };
        let t = Tracer::new(&params);
        let id = t.begin("tn", "slow");
        t.record_span(id, stage::DWS_PROCESS, Duration::from_millis(6), true);
        std::thread::sleep(Duration::from_millis(6));
        t.finish("tn", "slow");
        let slow = t.slow_ops();
        assert_eq!(slow.len(), 1);
        let line = slow[0].log_line();
        assert!(line.starts_with("SLOW "), "{line}");
        assert!(line.contains("tenant=tn"), "{line}");
        assert!(line.contains("key=slow"), "{line}");
        assert!(line.contains("dws_process:"), "{line}");
        assert_eq!(t.slow_recorded.get(), 1);

        // Fast traces are not captured.
        t.begin("tn", "fast");
        t.finish("tn", "fast");
        assert_eq!(t.slow_ops().len(), 1);

        // Log is bounded.
        for i in 0..3 {
            let key = format!("s{i}");
            t.begin("tn", &key);
            std::thread::sleep(Duration::from_millis(6));
            t.finish("tn", &key);
        }
        assert_eq!(t.slow_ops().len(), 2);
    }

    #[test]
    fn slow_threshold_is_tunable() {
        let t = tracer();
        t.set_slow_threshold(Duration::from_millis(1));
        assert_eq!(t.slow_threshold(), Duration::from_millis(1));
        t.begin("tn", "k");
        std::thread::sleep(Duration::from_millis(2));
        t.finish("tn", "k");
        assert_eq!(t.slow_ops().len(), 1);
    }

    #[test]
    fn context_nests_and_restores() {
        assert!(current_trace().is_none());
        let t = tracer();
        let outer = t.begin("tn", "outer");
        let inner = t.begin("tn", "inner");
        {
            let _a = TraceContext::enter(outer);
            assert_eq!(current_trace(), Some(outer));
            {
                let _b = TraceContext::enter(inner);
                assert_eq!(current_trace(), Some(inner));
            }
            assert_eq!(current_trace(), Some(outer));
        }
        assert!(current_trace().is_none());
    }

    #[test]
    fn context_is_per_thread() {
        let t = tracer();
        let id = t.begin("tn", "k");
        let _guard = TraceContext::enter(id);
        std::thread::spawn(|| assert!(current_trace().is_none())).join().unwrap();
    }

    #[test]
    fn breakdown_sums_repeated_stages() {
        let t = tracer();
        let id = t.begin("tn", "k");
        t.record_span(id, "s", Duration::from_millis(2), true);
        t.record_span(id, "s", Duration::from_millis(3), false);
        let trace = t.get(id).unwrap();
        let breakdown = trace.breakdown();
        assert_eq!(breakdown.len(), 1);
        assert!(breakdown[0].1 >= Duration::from_millis(5));
        assert_eq!(trace.distinct_stages().len(), 1);
    }

    #[test]
    fn abandon_drops_open_traces_only() {
        let t = tracer();
        t.begin("tn", "done");
        t.finish("tn", "done");
        t.begin("tn", "open");
        t.begin("tn", "open2");
        t.begin("other", "open");
        assert!(!t.abandon("tn", "done"), "finished traces stay in the ring");
        assert!(!t.abandon("tn", "unknown"));
        assert!(t.abandon("tn", "open"));
        assert!(t.lookup("tn", "open").is_none());
        assert_eq!(t.open_count(), 2);
        assert_eq!(t.abandon_tenant("tn"), 1);
        assert_eq!(t.open_count(), 1, "other tenants keep their traces");
        assert!(t.find("tn", "done").is_some());
        assert!(t.lookup("other", "open").is_some());
    }

    #[test]
    fn reset_clears_state() {
        let t = tracer();
        t.begin("tn", "k");
        t.finish("tn", "k");
        t.reset();
        assert_eq!(t.open_count(), 0);
        assert_eq!(t.finished_count(), 0);
        assert!(t.find("tn", "k").is_none());
    }
}
