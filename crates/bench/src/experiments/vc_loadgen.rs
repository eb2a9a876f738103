//! Wire throughput campaign — the in-process-vs-wire comparison, with a
//! codec axis on the wire rung.
//!
//! Drives the *same* `dyn ObjectApi` workload three times:
//!
//! 1. **in-process** — `vc_client::Client` against a local `ApiServer`
//!    (shared-memory `Arc` handoff, the simulator's native mode);
//! 2. **wire/json** — `vc_wire::WireClient` against a `WireServer` on a
//!    real `127.0.0.1` socket (HTTP/1.1 framing, JSON serialization,
//!    kernel round trips);
//! 3. **wire/vcbin** — the same workload over the compact binary codec
//!    (a second server, so byte counters and namespaces stay clean).
//!
//! Unary campaigns run a mixed workload (10% create / 20% list /
//! 10% update / 60% get) across N threads; the watch fan-out run
//! measures create→delivery latency across W concurrent watchers. The
//! wire columns also report bytes/op and the memoized-encoding hit rate —
//! the "serialize once per revision" win that makes W-way fan-out cost
//! one encode.
//!
//! With `VC_BENCH_JSON_DIR` set, dumps `BENCH_wire_throughput_metrics.json`
//! including the four `vc_wire_bench_improvement_x10` ratios `bench_gate`
//! holds floors on (`unary_rate`, `fanout_headroom`, `binary_unary_rate`,
//! and `bytes_per_op` — the JSON÷vcbin bytes-per-op ratio, whose floor
//! of 4.0x enforces the "binary ships ≤¼ the bytes" contract).
//!
//! Run: `cargo run --release -p vc-bench -- vc_loadgen` (CI's reduced
//! rung: `-- ci vc_loadgen`).

use crate::report::{dump_metrics_json, heading};
use crate::wire_load::{
    fanout_campaign, seed_namespaces, unary_campaign, FanoutResult, LoadgenConfig, UnaryResult,
};
use vc_api::object::ResourceKind;
use vc_apiserver::ApiServer;
use vc_client::{Client, Encoding, ObjectApi};
use vc_obs::MetricsRegistry;
use vc_wire::{WireClient, WireServer, WireServerConfig};

/// Effectively-unlimited client-side rate budget: the bench measures the
/// server path, not the client limiter.
const QPS: f64 = 10_000_000.0;
const BURST: usize = 1_000_000;

fn print_unary(label: &str, r: &UnaryResult) {
    println!(
        "  {label:<12} {:>10.0} req/s   p50 {:>6} us   p99 {:>6} us   ({} ops)",
        r.rate, r.p50_us, r.p99_us, r.ops
    );
}

fn print_fanout(label: &str, r: &FanoutResult) {
    println!(
        "  {label:<12} {:>10.0} ev/s    p50 {:>6} us   p99 {:>6} us   ({} deliveries)",
        r.rate, r.p50_us, r.p99_us, r.deliveries
    );
}

/// Runs the in-process, wire/json and wire/vcbin campaigns of `cfg` and
/// dumps their artifact.
pub fn run(cfg: &LoadgenConfig) {
    heading("vc_loadgen: wire protocol throughput campaign");
    println!(
        "  {} threads x {} ops, {} watchers x {} events",
        cfg.threads, cfg.ops_per_thread, cfg.watchers, cfg.events
    );

    // ---- in-process ----
    heading("unary: mixed CRUD workload");
    let inproc_api = ApiServer::new_default("loadgen-inproc");
    seed_namespaces(cfg, &Client::with_limits(inproc_api.clone(), "seeder", QPS, BURST));
    let inproc_server = inproc_api.clone();
    let inproc_unary = unary_campaign(cfg, &move |t| {
        Box::new(Client::with_limits(inproc_server.clone(), format!("tenant-{t}"), QPS, BURST))
    });
    print_unary("in-process", &inproc_unary);

    // ---- wire: one server per codec so byte counters stay clean ----
    let wire_codec = |codec: Encoding| {
        let api = ApiServer::new_default(format!("loadgen-wire-{}", codec.as_str()));
        let server =
            WireServer::start(api, WireServerConfig::default()).expect("bind loadgen wire server");
        let addr = server.local_addr().to_string();
        seed_namespaces(
            cfg,
            &WireClient::with_limits(addr.clone(), "seeder", QPS, BURST).with_codec(codec),
        );
        let bytes_before = server.metrics().bytes_out.get() + server.metrics().bytes_in.get();
        let reqs_before = server.metrics().requests.get();
        let unary = unary_campaign(cfg, &move |t| {
            Box::new(
                WireClient::with_limits(addr.clone(), format!("tenant-{t}"), QPS, BURST)
                    .with_codec(codec),
            )
        });
        let reqs = (server.metrics().requests.get() - reqs_before).max(1);
        let bytes_per_op = (server.metrics().bytes_out.get() + server.metrics().bytes_in.get()
            - bytes_before)
            / reqs;
        (server, unary, bytes_per_op)
    };
    let (server, wire_unary, json_bytes_per_op) = wire_codec(Encoding::Json);
    print_unary("wire/json", &wire_unary);
    let (vcbin_server, vcbin_unary, vcbin_bytes_per_op) = wire_codec(Encoding::Binary);
    print_unary("wire/vcbin", &vcbin_unary);
    let bytes_ratio = json_bytes_per_op as f64 / vcbin_bytes_per_op.max(1) as f64;
    println!(
        "  wire costs: json {json_bytes_per_op} bytes/op, vcbin {vcbin_bytes_per_op} bytes/op \
         ({bytes_ratio:.1}x smaller); json p99 {:.1}x in-process, vcbin {:.2}x json req/s",
        wire_unary.p99_us as f64 / inproc_unary.p99_us.max(1) as f64,
        vcbin_unary.rate / wire_unary.rate.max(1e-9),
    );
    vcbin_server.shutdown();
    let addr = server.local_addr().to_string();

    // ---- fan-out ----
    heading("watch fan-out: create -> delivery latency");
    let inproc_writer = Client::with_limits(inproc_api.clone(), "writer", QPS, BURST);
    let inproc_server = inproc_api;
    let inproc_fanout = fanout_campaign(cfg, "fanout-inproc", &inproc_writer, &move |w, rev| {
        Client::with_limits(inproc_server.clone(), format!("watcher-{w}"), QPS, BURST)
            .watch(ResourceKind::Pod, Some("fanout-inproc"), rev)
            .map(|s| Box::new(s) as Box<dyn vc_client::WatchHandle>)
            .expect("in-process watch")
    });
    print_fanout("in-process", &inproc_fanout);

    let wire_writer = WireClient::with_limits(addr.clone(), "writer", QPS, BURST);
    let watch_addr = addr;
    let wire_fanout = fanout_campaign(cfg, "fanout-wire", &wire_writer, &move |w, rev| {
        WireClient::with_limits(watch_addr.clone(), format!("watcher-{w}"), QPS, BURST)
            .watch(ResourceKind::Pod, Some("fanout-wire"), rev)
            .expect("wire watch")
    });
    print_fanout("wire", &wire_fanout);
    let expected = (cfg.events * cfg.watchers) as u64;
    println!(
        "  delivered {}/{} ({:.1}%), encode cache hit rate {:.1}% over {} lookups",
        wire_fanout.deliveries,
        expected,
        wire_fanout.deliveries as f64 * 100.0 / expected as f64,
        server.encode_cache().hit_rate() * 100.0,
        server.encode_cache().hits.get() + server.encode_cache().misses.get(),
    );

    // ---- gate ratios + artifact ----
    heading("bench_gate ratios");
    let fanout_p99_ms = (wire_fanout.p99_us as f64 / 1000.0).max(0.001);
    let headroom = cfg.target_fanout_p99_ms as f64 / fanout_p99_ms;
    let rate_x10 = (wire_unary.rate * 10.0) as i64;
    let binary_rate_x10 = (vcbin_unary.rate * 10.0) as i64;
    println!("  unary_rate        {:>10.0} req/s (x10 = {rate_x10})", wire_unary.rate);
    println!("  binary_unary_rate {:>10.0} req/s (x10 = {binary_rate_x10})", vcbin_unary.rate);
    println!(
        "  bytes_per_op      {:>10.1} (json {json_bytes_per_op} B / vcbin {vcbin_bytes_per_op} B)",
        bytes_ratio
    );
    println!(
        "  fanout_headroom   {:>10.1} (target {} ms / measured p99 {:.1} ms)",
        headroom, cfg.target_fanout_p99_ms, fanout_p99_ms
    );

    let registry = MetricsRegistry::new();
    server.publish_metrics(&registry, "loadgen");
    let gauge = |name, help: &str, labels: &[&str]| registry.gauge(name, help, labels);
    let unary = gauge(
        "vc_loadgen_unary",
        "Unary campaign results by transport (rate in req/s, latency us).",
        &["transport", "stat"],
    );
    for (transport, r) in
        [("inproc", &inproc_unary), ("wire_json", &wire_unary), ("wire_vcbin", &vcbin_unary)]
    {
        unary.with(&[transport, "rate"]).set(r.rate as i64);
        unary.with(&[transport, "p50_us"]).set(r.p50_us as i64);
        unary.with(&[transport, "p99_us"]).set(r.p99_us as i64);
    }
    unary.with(&["wire_json", "bytes_per_op"]).set(json_bytes_per_op as i64);
    unary.with(&["wire_vcbin", "bytes_per_op"]).set(vcbin_bytes_per_op as i64);
    let fanout = gauge(
        "vc_loadgen_fanout",
        "Fan-out campaign results by transport (rate in ev/s, latency us).",
        &["transport", "stat"],
    );
    fanout.with(&["inproc", "rate"]).set(inproc_fanout.rate as i64);
    fanout.with(&["inproc", "p99_us"]).set(inproc_fanout.p99_us as i64);
    fanout.with(&["wire", "rate"]).set(wire_fanout.rate as i64);
    fanout.with(&["wire", "p99_us"]).set(wire_fanout.p99_us as i64);
    fanout.with(&["wire", "deliveries"]).set(wire_fanout.deliveries as i64);
    gauge(
        "vc_loadgen_encode_hit_rate_x1000",
        "Memoized-encoding hit rate over the whole run, per mille.",
        &[],
    )
    .with(&[])
    .set((server.encode_cache().hit_rate() * 1000.0) as i64);
    let improvement = registry.gauge(
        "vc_wire_bench_improvement_x10",
        "Wire ratios (x10, integer) checked by bench_gate: sustained wire \
         unary req/s per codec, JSON/vcbin bytes-per-op ratio, and fan-out \
         target-p99 / measured-p99 headroom.",
        &["metric"],
    );
    improvement.with(&["unary_rate"]).set(rate_x10);
    improvement.with(&["binary_unary_rate"]).set(binary_rate_x10);
    improvement.with(&["bytes_per_op"]).set((bytes_ratio * 10.0) as i64);
    improvement.with(&["fanout_headroom"]).set((headroom * 10.0) as i64);
    dump_metrics_json("wire_throughput", &registry);

    server.shutdown();
    println!("\nvc_loadgen complete.");
}
