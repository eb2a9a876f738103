//! Durable store bench — commit latency across flush policies.
//!
//! The durability tier (DESIGN.md §13) trades commit latency for crash
//! safety; this harness quantifies the trade. It drives an identical
//! multi-writer workload against three store configurations:
//!
//! * `off`        — in-memory store, no WAL (the pre-durability baseline);
//! * `async`      — WAL appended, fsync deferred to a timer one flush
//!   window after a batch opens, writers never wait (bounded-loss mode);
//! * `group`      — leader/follower group commit: a writer that finds no
//!   fsync in flight runs one at once, and the writers that arrive during
//!   it share the next.
//!
//! Each mode runs 8 writer threads issuing a 50/50 insert/update mix and
//! records per-commit latency (call → durable-ack) into a vc-obs
//! histogram, plus the WAL's append/fsync counters so the gate can check
//! that group commit actually amortises fsyncs instead of just deferring
//! them.
//!
//! Gate ratio (see `BENCH_BASELINE.json`): `fsync_amortization` — WAL
//! appends per fsync under group commit at 8 writers; `> 1` means
//! concurrent writers share fsyncs.
//!
//! Run: `cargo run --release -p vc-bench -- store_durability`

use crate::report::{dump_metrics_json, heading, percentile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::object::Object;
use vc_api::pod::Pod;
use vc_api::time::RealClock;
use vc_obs::MetricsRegistry;
use vc_store::{DurabilityConfig, FlushPolicy, Store, StoreConfig};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 1_500;
const NAMESPACES: usize = 8;
const ASYNC_WINDOW: Duration = Duration::from_millis(2);

/// One mode's measurements.
struct ModeResult {
    label: &'static str,
    /// Per-commit latency samples in nanoseconds.
    latencies: Vec<u64>,
    throughput_ops_per_s: f64,
    wal_appends: u64,
    wal_fsyncs: u64,
    wal_bytes: u64,
    wal_flush_failures: u64,
    wal_snapshot_failures: u64,
}

impl ModeResult {
    fn p_us(&self, q: f64) -> u64 {
        percentile(&self.latencies, q) / 1_000
    }
}

fn scratch_dir(mode: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vc-bench-durability-{}-{mode}", std::process::id()))
}

fn pod(thread: usize, i: usize) -> Object {
    Pod::new(format!("ns-{}", (thread * OPS_PER_THREAD + i) % NAMESPACES), format!("d{thread}-{i}"))
        .into()
}

/// Drives the write mix against one store and collects commit latencies.
fn run_mode(label: &'static str, store: Arc<Store>) -> ModeResult {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let mut samples = Vec::with_capacity(OPS_PER_THREAD);
            for i in 0..OPS_PER_THREAD {
                let started = Instant::now();
                if i % 2 == 0 {
                    store.insert(pod(t, i)).unwrap();
                } else {
                    // Update the object inserted on the previous slot: a
                    // read-modify-write like a status patch.
                    store.update(pod(t, i - 1), None).unwrap();
                }
                samples.push(started.elapsed().as_nanos() as u64);
            }
            samples
        }));
    }
    let mut latencies = Vec::with_capacity(THREADS * OPS_PER_THREAD);
    for h in handles {
        latencies.extend(h.join().unwrap());
    }
    let wall = start.elapsed().as_secs_f64();
    let (wal_appends, wal_fsyncs, wal_bytes, wal_flush_failures, wal_snapshot_failures) = store
        .wal_stats()
        .map(|s| {
            (
                s.appends.get(),
                s.fsyncs.get(),
                s.bytes_appended.get(),
                s.flush_failures.get(),
                s.snapshot_failures.get(),
            )
        })
        .unwrap_or((0, 0, 0, 0, 0));
    ModeResult {
        label,
        latencies,
        throughput_ops_per_s: (THREADS * OPS_PER_THREAD) as f64 / wall,
        wal_appends,
        wal_fsyncs,
        wal_bytes,
        wal_flush_failures,
        wal_snapshot_failures,
    }
}

fn durable(flush: FlushPolicy, mode: &str) -> Arc<Store> {
    let dir = scratch_dir(mode);
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_durable(
        StoreConfig::default(),
        DurabilityConfig::new(&dir).with_flush(flush),
        RealClock::shared(),
    )
    .expect("open durable store");
    Arc::new(store)
}

fn print_result(r: &ModeResult) {
    print!(
        "  {:<6} commit p50/p99/max {}/{}/{}µs  throughput {:>7.0} ops/s",
        r.label,
        r.p_us(0.50),
        r.p_us(0.99),
        percentile(&r.latencies, 1.0) / 1_000,
        r.throughput_ops_per_s,
    );
    if r.wal_appends > 0 {
        println!(
            "  wal {} appends / {} fsyncs ({:.1} appends/fsync, {} KiB)",
            r.wal_appends,
            r.wal_fsyncs,
            r.wal_appends as f64 / r.wal_fsyncs.max(1) as f64,
            r.wal_bytes / 1024,
        );
    } else {
        println!();
    }
}

fn record(registry: &MetricsRegistry, r: &ModeResult) {
    let latency = registry.gauge(
        "vc_durability_bench_latency_us",
        "store_durability per-commit latency percentiles in microseconds.",
        &["mode", "stat"],
    );
    latency.with(&[r.label, "p50"]).set(r.p_us(0.50) as i64);
    latency.with(&[r.label, "p99"]).set(r.p_us(0.99) as i64);
    registry
        .gauge(
            "vc_durability_bench_throughput_ops_per_s",
            "store_durability write throughput at 8 writer threads.",
            &["mode"],
        )
        .with(&[r.label])
        .set(r.throughput_ops_per_s as i64);
    let wal = registry.gauge(
        "vc_durability_bench_wal",
        "store_durability WAL counters per mode.",
        &["mode", "stat"],
    );
    wal.with(&[r.label, "appends"]).set(r.wal_appends as i64);
    wal.with(&[r.label, "fsyncs"]).set(r.wal_fsyncs as i64);
    wal.with(&[r.label, "flush_failures"]).set(r.wal_flush_failures as i64);
    wal.with(&[r.label, "snapshot_failures"]).set(r.wal_snapshot_failures as i64);
    // The full commit-latency distribution, µs buckets, for the artifact.
    let histogram = registry.histogram(
        "vc_durability_commit_latency_us",
        "store_durability commit latency distribution in microseconds.",
        &["mode"],
        &[10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 25_000],
    );
    let cell = histogram.with(&[r.label]);
    for ns in &r.latencies {
        cell.observe_ms(ns / 1_000);
    }
}

/// Runs the three flush policies and dumps the gate ratio.
pub fn run() {
    println!(
        "store durability — {THREADS} writer threads x {OPS_PER_THREAD} commits, async flush \
         window {}ms",
        ASYNC_WINDOW.as_millis()
    );

    heading("off (in-memory baseline, no WAL)");
    let off = run_mode("off", Arc::new(Store::new()));
    print_result(&off);

    heading("async (WAL + timed fsync, writers never wait)");
    let async_mode =
        run_mode("async", durable(FlushPolicy::Async { window: ASYNC_WINDOW }, "async"));
    print_result(&async_mode);

    heading("group (leader/follower group commit: writers wait for their fsync)");
    let group = run_mode("group", durable(FlushPolicy::GroupCommit, "group"));
    print_result(&group);

    let amortization = group.wal_appends as f64 / group.wal_fsyncs.max(1) as f64;
    heading("durability cost");
    println!("  fsync amortization (group): {amortization:.1} appends/fsync");
    println!(
        "  durability tax at p99: off {}µs -> async {}µs -> group {}µs",
        off.p_us(0.99),
        async_mode.p_us(0.99),
        group.p_us(0.99),
    );

    let registry = MetricsRegistry::new();
    for r in [&off, &async_mode, &group] {
        record(&registry, r);
    }
    let improvement = registry.gauge(
        "vc_durability_bench_improvement_x10",
        "Durability flush-policy ratios (x10, integer) checked by bench_gate.",
        &["metric"],
    );
    improvement.with(&["fsync_amortization"]).set((amortization * 10.0) as i64);
    dump_metrics_json("store_durability", &registry);

    for mode in ["async", "group"] {
        let _ = std::fs::remove_dir_all(scratch_dir(mode));
    }
}
