//! The metric catalogue — the single place metric names and units are
//! defined. `BENCHMARK.json` repeats them (the driver reads that file);
//! `tests/smoke.rs` asserts the two agree.

/// End-to-end metrics, identical on every workload, from the untraced run.
/// Throughput, latency and CPU time per op are not among them: on this box
/// their run-to-run spread (10–24 % on the CPU-bound workloads) is above a
/// third of the largest bound a metric may have, so they are printed as
/// detail and reported per layer as `untraced.*` (see `NOISE.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("setup_rss_mib", "MiB"),
    ("allocs_per_op", "count"),
    ("alloc_kib_per_op", "KiB"),
    ("ctxsw_per_op", "count"),
];

/// Per-layer metrics, from the traced run: span tiles, public counter
/// deltas, and single-threaded layer probes. A metric whose layer a
/// workload leaves idle reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Span tiles (means, so the six add up to the mean create → Ready).
    ("span.request_ms", "ms"),
    ("span.downward_ms", "ms"),
    ("span.schedule_ms", "ms"),
    ("span.kubelet_ms", "ms"),
    ("span.upward_ms", "ms"),
    ("span.deliver_ms", "ms"),
    ("span.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    // From the untraced reference window; too noisy on this box to gate.
    ("untraced.ops_per_s", "1/s"),
    ("untraced.lat_ms_p50", "ms"),
    ("untraced.lat_ms_p90", "ms"),
    ("untraced.cpu_us_per_op", "us"),
    // wire: codec, http, encode, server, client.
    ("wire.codec.encode_ns", "ns"),
    ("wire.codec.decode_ns", "ns"),
    ("wire.codec.bytes_per_obj", "B"),
    ("wire.json.encode_ns", "ns"),
    ("wire.encode.hit_rate", "ratio"),
    ("wire.server.inline_share", "ratio"),
    ("wire.bytes_per_op", "B"),
    ("wire.get_us_p50", "us"),
    ("wire.list_us_p50", "us"),
    ("wire.write_ack_us_p50", "us"),
    ("wire.create_ack_us", "us"),
    // apiserver: gate, admission.
    ("apiserver.create_us", "us"),
    ("apiserver.get_ns", "ns"),
    ("apiserver.list_ns_per_obj", "ns"),
    ("apiserver.isolation_create_us", "us"),
    ("apiserver.writes_per_op", "count"),
    // store: shard, watch, wal.
    ("store.insert_us", "us"),
    ("store.update_us", "us"),
    ("store.get_ns", "ns"),
    ("store.list_ns_per_obj", "ns"),
    ("store.watch_fanout_ns_per_watcher", "ns"),
    ("store.wal.append_us", "us"),
    ("store.wal.bytes_per_write", "B"),
    ("store.wal.appends_per_fsync", "count"),
    ("store.wal.bytes_per_op", "B"),
    // client: informer, fairqueue.
    ("client.fairqueue.add_get_ns", "ns"),
    ("client.informer.dispatch_us", "us"),
    // syncer: downward, upward, mapping.
    ("syncer.to_super_ns", "ns"),
    ("syncer.downward_ops_per_op", "count"),
    ("syncer.upward_ops_per_op", "count"),
    ("syncer.conflicts_per_op", "count"),
    ("syncer.retries", "count"),
    ("syncer.dead_letters", "count"),
    ("syncer.downward_busy_share", "ratio"),
    ("syncer.upward_busy_share", "ratio"),
    ("syncer.downward_depth_max", "count"),
    ("syncer.upward_depth_max", "count"),
    ("syncer.greedy_vs_regular_wave_ratio", "ratio"),
    // scheduler, kubelet (their time is span.schedule_ms / span.kubelet_ms).
    ("scheduler.scheduled_per_op", "count"),
    // obs.
    ("obs.trace.cycle_ns", "ns"),
    ("obs.registry.inc_ns", "ns"),
    // process.
    ("process.threads", "count"),
    ("process.rss_kib_per_idle_tenant", "KiB"),
    ("process.idle_cpu_pct", "%"),
    ("process.idle_ctxsw_per_s", "1/s"),
];

/// Named values in catalogue order.
#[derive(Debug, Clone)]
pub struct MetricSet {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl MetricSet {
    /// All-zero values for `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet { catalogue, values: vec![0.0; catalogue.len()] }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue — a typo in the benchmark
    /// itself, caught by the smoke test.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values[index] = value;
    }

    /// The value of `name`, if it is in the catalogue.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.catalogue.iter().position(|(n, _)| *n == name).map(|i| self.values[i])
    }

    /// `(name, unit, value)` in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.catalogue.iter().zip(&self.values).map(|((n, u), v)| (*n, *u, *v))
    }

    /// Names of the metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.iter().filter(|(_, _, value)| !value.is_finite()).map(|(name, _, _)| name)
    }

    /// The `metrics` object of the result line. JSON has no NaN; a
    /// non-finite value is written as `null`, and the run that produced it
    /// is reported as incorrect (see `report::run`).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { value.to_string() } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
