//! # vc-obs — end-to-end observability for the VirtualCluster stack
//!
//! The paper's evaluation (Figs 7–11, Table I) is entirely about *where
//! latency goes* inside the shared syncer. This crate provides the three
//! pieces that make that question answerable at runtime rather than only
//! in post-hoc bench reports:
//!
//! * **Request tracing** ([`trace`]) — a lightweight span/trace-ID type
//!   with no external dependencies. Traces are keyed by `(tenant, object
//!   key)`, stamped at the tenant apiserver gate, and extended as the
//!   object flows through the syncer's fair queue, the super-cluster
//!   write, scheduling, and the upward status path. Finished traces land
//!   in a ring buffer; syncs exceeding a configurable threshold are
//!   additionally captured in a bounded slow-op log.
//! * **A unified metrics registry** ([`registry`]) — labeled
//!   counter/gauge/histogram families (labels such as `tenant`, `verb`,
//!   `kind`, `stage`) with Prometheus-style text exposition
//!   ([`MetricsRegistry::render_text`]) and a serializable JSON snapshot
//!   ([`MetricsRegistry::snapshot`]) for bench reports.
//! * **An exposition parser** ([`exposition`]) — a small validator for the
//!   text format, used by golden tests and by anyone scraping the output.
//!
//! Everything is in-process and lock-cheap: one mutex per tracer, one per
//! metric family. The intended wiring is one [`Observability`] instance
//! per syncer, shared (via [`std::sync::Arc`]) with every apiserver and
//! worker loop that participates in a sync.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exposition;
pub mod registry;
pub mod trace;

pub use registry::{
    CellSnapshot, CounterFamily, FamilySnapshot, GaugeFamily, HistogramFamily, MetricKind,
    MetricsRegistry, RegistrySnapshot,
};
pub use trace::{
    current_trace, stage, SlowOp, Span, StageName, Trace, TraceContext, TraceId, Tracer,
};

use std::sync::Arc;
use std::time::Duration;

/// Tunables for the observability layer.
#[derive(Debug, Clone)]
pub struct ObsParams {
    /// Finished traces retained in the ring buffer (oldest evicted first).
    pub trace_capacity: usize,
    /// A finished sync whose end-to-end duration meets or exceeds this
    /// threshold is recorded in the slow-op log.
    pub slow_threshold: Duration,
    /// Slow-op log entries retained (oldest evicted first).
    pub slow_capacity: usize,
}

impl Default for ObsParams {
    fn default() -> Self {
        ObsParams {
            trace_capacity: 4096,
            slow_threshold: Duration::from_secs(1),
            slow_capacity: 256,
        }
    }
}

/// Shared observability context: one tracer plus one metrics registry.
///
/// # Examples
///
/// ```
/// use vc_obs::{Observability, ObsParams, stage};
/// use std::time::Duration;
///
/// let obs = Observability::new(ObsParams::default());
/// let id = obs.tracer.begin("tenant-1", "default/pod-0");
/// obs.tracer.record_span(id, stage::GATE, Duration::from_micros(120), true);
/// obs.tracer.finish("tenant-1", "default/pod-0");
/// let trace = obs.tracer.find("tenant-1", "default/pod-0").unwrap();
/// assert_eq!(trace.spans.len(), 1);
///
/// let requests = obs.registry.counter(
///     "vc_requests_total", "Requests observed.", &["verb"]);
/// requests.with(&["create"]).inc();
/// assert!(obs.registry.render_text().contains("vc_requests_total"));
/// ```
#[derive(Debug)]
pub struct Observability {
    /// The request tracer.
    pub tracer: Arc<Tracer>,
    /// The unified metrics registry.
    pub registry: Arc<MetricsRegistry>,
}

impl Observability {
    /// Creates an observability context with the given tunables.
    pub fn new(params: ObsParams) -> Arc<Self> {
        Arc::new(Observability {
            tracer: Arc::new(Tracer::new(&params)),
            registry: Arc::new(MetricsRegistry::new()),
        })
    }

    /// Creates an observability context with [`ObsParams::default`].
    pub fn with_defaults() -> Arc<Self> {
        Self::new(ObsParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_sane() {
        let p = ObsParams::default();
        assert!(p.trace_capacity > 0);
        assert!(p.slow_capacity > 0);
        assert!(p.slow_threshold > Duration::ZERO);
    }

    #[test]
    fn observability_bundles_tracer_and_registry() {
        let obs = Observability::with_defaults();
        let id = obs.tracer.begin("t", "k");
        obs.tracer.record_span(id, stage::GATE, Duration::from_micros(5), true);
        assert!(obs.tracer.finish("t", "k").is_some());
        assert_eq!(obs.tracer.finished_count(), 1);
        obs.registry.counter("c_total", "help", &[]).with(&[]).inc();
        assert!(obs.registry.render_text().contains("c_total"));
    }
}
