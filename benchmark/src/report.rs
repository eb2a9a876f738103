//! One benchmark run: set-up, warm-up, the measured window(s), output
//! checks, tear-down — and the metrics computed from them.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::counters::Counters;
use crate::env::SYNCER_WORKERS;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, quantile};
use crate::sys::{self, Usage};
use crate::trace::SPANS;
use crate::watchdog::{self, Watchdog};
use crate::workloads::{self, Kind, Mode, Segment, Sizes};

/// Set-ups per plain run; `setup_s` is the fastest of them. The host only
/// ever adds time, in stretches longer than the whole set-up phase, so the
/// median of a run's set-ups lands in a "slow host" or a "fast host" cluster
/// 27 % apart (`NOISE.md`) while the fastest one is nearly always from a
/// fast stretch. Quick set-ups are repeated up to `SETUP_REPEATS_MAX` times
/// while the cycles stay within `SETUP_BUDGET`: a 7 ms set-up needs more
/// tries than a 1.2 s one for the same steadiness. Traced runs do not report
/// `setup_s` and set up once.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(4);
/// Share of `--seconds` spent warming up before anything is measured.
const WARM_UP_SHARE: f64 = 0.1;
/// Share of a traced run's window spent untraced, as the reference the
/// tracing overhead is measured against.
const REFERENCE_SHARE: f64 = 0.35;
/// Quiet window after set-up over which the idle system's CPU use and
/// context-switch rate are read.
const IDLE_WINDOW: Duration = Duration::from_millis(1500);

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Seed of the pod mix and op order.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Smoke-test sizes: fewer idle tenants, smaller rounds, one set-up,
    /// shorter probes.
    pub quick: bool,
    /// Directory for the trace file and the WAL.
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check held and no op failed.
    pub correct: bool,
    /// Ops started in the measured window(s).
    pub attempted: u64,
    /// Ops that failed, timed out or were incorrect.
    pub failed: u64,
    /// The run's metrics: end-to-end for a plain run, per-layer for a
    /// traced one.
    pub metrics: MetricSet,
    /// Values printed for the reader but not gated: `(name, value, unit)`.
    pub detail: Vec<(String, f64, &'static str)>,
    /// Output-check violations (empty when `correct`).
    pub violations: Vec<String>,
}

impl Outcome {
    /// The result object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

fn per(total: u64, ops: u64) -> f64 {
    total as f64 / ops.max(1) as f64
}

fn end_to_end(
    segment: &mut Segment,
    setup_s: f64,
    rss_kib: u64,
    idle_ctxsw_per_s: f64,
    idle_tenant_share: f64,
    detail: &mut Vec<(String, f64, &'static str)>,
) -> MetricSet {
    let mut m = MetricSet::new(END_TO_END);
    m.set("setup_s", setup_s);
    m.set("setup_rss_mib", rss_kib as f64 / 1024.0);
    m.set("allocs_per_op", per(segment.usage.allocs, segment.ops));
    m.set("alloc_kib_per_op", per(segment.usage.alloc_bytes, segment.ops) / 1024.0);
    // Idle tenants' threads (informers polling) switch at a rate per
    // second, not per op; left in, a slower host means more of them per op
    // and the count inherits the timing noise. The quiet system's rate times
    // the share of tenants that stay idle under load is taken out.
    let switches = segment.usage.voluntary_ctxsw as f64;
    let background = idle_ctxsw_per_s * idle_tenant_share * segment.wall.as_secs_f64();
    m.set("ctxsw_per_op", (switches - background).max(0.0) / segment.ops.max(1) as f64);
    detail.push((
        "ctxsw_per_op_gross".into(),
        per(segment.usage.voluntary_ctxsw, segment.ops),
        "count",
    ));
    detail.push(("idle_ctxsw_per_s".into(), idle_ctxsw_per_s, "1/s"));
    detail.push(("ops_per_s".into(), segment.ops_per_s, "1/s"));
    detail.push(("cpu_us_per_op".into(), per(segment.usage.cpu_us, segment.ops), "us"));
    detail.push(("lat_ms_p50".into(), quantile(&mut segment.lat_ms, 0.50), "ms"));
    detail.push(("lat_ms_p90".into(), quantile(&mut segment.lat_ms, 0.90), "ms"));
    detail.push(("lat_ms_p99".into(), quantile(&mut segment.lat_ms, 0.99), "ms"));
    detail.push(("lat_samples".into(), segment.lat_ms.len() as f64, "count"));
    detail.push(("measured_ops".into(), segment.ops as f64, "count"));
    detail.push(("measured_wall_s".into(), segment.wall.as_secs_f64(), "s"));
    detail.push(("generator_sleeps".into(), segment.own_sleeps as f64, "count"));
    m
}

/// Per-layer metrics that come from the traced window, the reference
/// window before it and the counter deltas across both.
fn per_layer(
    reference: &mut Segment,
    traced: &mut Segment,
    delta: &Counters,
    args: &Args,
    detail: &mut Vec<(String, f64, &'static str)>,
) -> Result<MetricSet, String> {
    let mut m = MetricSet::new(PER_LAYER);
    let ops = reference.ops + traced.ops;
    let wall = (reference.wall + traced.wall).as_secs_f64().max(1e-9);

    if let Some(trace) = &traced.trace {
        let mut tiles = 0.0;
        for (i, span) in SPANS.iter().enumerate() {
            let mut ms = trace.span_ms(i);
            let span_mean = mean(&ms);
            tiles += span_mean;
            m.set(&format!("span.{span}_ms"), span_mean);
            detail.push((format!("span.{span}_ms_p50"), median(&mut ms), "ms"));
        }
        // Tiles are resolved over pods whose every boundary was observed;
        // the total is over every traced pod, so a lossy observer shows.
        let all_total = mean(&trace.all_total_ms);
        m.set("span.residual_pct", (tiles - all_total).abs() / all_total.max(1e-9) * 100.0);
        detail.push(("trace.pods".into(), trace.pods.len() as f64, "count"));
        detail.push(("trace.incomplete".into(), trace.incomplete as f64, "count"));
        detail.push(("trace.clamped_bounds".into(), trace.clamped as f64, "count"));
        let path = args.out_dir.join(format!("trace-{}.jsonl", args.kind.name()));
        let origin = traced.started.unwrap_or_else(Instant::now);
        trace.write_jsonl(&path, origin).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let reference_p50 = quantile(&mut reference.lat_ms, 0.50);
    let traced_p50 = quantile(&mut traced.lat_ms, 0.50);
    m.set("trace.overhead_pct", (traced_p50 - reference_p50) / reference_p50.max(1e-9) * 100.0);
    m.set("untraced.ops_per_s", reference.ops_per_s);
    m.set("untraced.lat_ms_p50", reference_p50);
    m.set("untraced.lat_ms_p90", quantile(&mut reference.lat_ms, 0.90));
    m.set("untraced.cpu_us_per_op", per(reference.usage.cpu_us, reference.ops));
    detail.push(("trace.traced_lat_ms_p50".into(), traced_p50, "ms"));

    let mut acks = std::mem::take(&mut reference.create_ack_us);
    acks.extend(std::mem::take(&mut traced.create_ack_us));
    m.set("wire.create_ack_us", median(&mut acks));
    m.set(
        "wire.encode.hit_rate",
        delta.encode_hits as f64 / (delta.encode_hits + delta.encode_misses).max(1) as f64,
    );
    m.set("wire.server.inline_share", per(delta.wire_inline, delta.wire_requests));
    m.set("wire.bytes_per_op", per(delta.wire_bytes, delta.wire_requests));
    m.set("apiserver.writes_per_op", per(delta.tenant_writes + delta.super_writes, ops));
    m.set("store.wal.appends_per_fsync", per(delta.wal_appends, delta.wal_fsyncs));
    m.set("store.wal.bytes_per_op", per(delta.wal_bytes, ops));
    m.set("syncer.downward_ops_per_op", per(delta.downward_ops, ops));
    m.set("syncer.upward_ops_per_op", per(delta.upward_ops, ops));
    m.set("syncer.conflicts_per_op", per(delta.conflicts, ops));
    m.set("syncer.retries", delta.retries as f64);
    m.set("syncer.dead_letters", delta.dead_letters as f64);
    let worker_seconds = wall * SYNCER_WORKERS as f64;
    m.set("syncer.downward_busy_share", delta.downward_busy_us as f64 / 1e6 / worker_seconds);
    m.set("syncer.upward_busy_share", delta.upward_busy_us as f64 / 1e6 / worker_seconds);
    m.set("syncer.downward_depth_max", reference.depth_max.0.max(traced.depth_max.0) as f64);
    m.set("syncer.upward_depth_max", reference.depth_max.1.max(traced.depth_max.1) as f64);
    m.set("syncer.greedy_vs_regular_wave_ratio", traced.greedy_vs_regular);
    m.set("scheduler.scheduled_per_op", per(delta.scheduled, ops));
    Ok(m)
}

/// Runs one workload once, as `args` says.
///
/// # Errors
///
/// Set-up failures and probe failures; failures of individual ops are
/// counted in the outcome instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let _watchdog = Watchdog::start();
    let sizes = if args.quick { Sizes::QUICK } else { Sizes::FULL };
    let mut detail = Vec::new();
    let mut violations = Vec::new();

    let mut setup_times = Vec::new();
    let mut rss_kib = 0;
    watchdog::phase("set-up");
    let cycles_started = Instant::now();
    let mut workload = loop {
        let started = Instant::now();
        let fresh = workloads::setup(args.kind, args.seed, sizes, &args.out_dir)?;
        setup_times.push(started.elapsed().as_secs_f64());
        if setup_times.len() == 1 {
            rss_kib = sys::rss_kib();
        }
        let enough = setup_times.len() >= SETUP_REPEATS_MAX
            || (setup_times.len() >= SETUP_REPEATS_MIN && cycles_started.elapsed() >= SETUP_BUDGET);
        if args.quick || args.trace || enough {
            break fresh;
        }
        violations.extend(fresh.finish());
        watchdog::progress();
    };
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);

    watchdog::phase("idle window");
    let before = Usage::now();
    let started = Instant::now();
    std::thread::sleep(if args.quick { IDLE_WINDOW / 10 } else { IDLE_WINDOW });
    let idle = Usage::now().since(&before);
    let idle_s = started.elapsed().as_secs_f64();
    let idle_cpu_pct = idle.cpu_us as f64 / (idle_s * 1e6) * 100.0;
    let idle_ctxsw_per_s = idle.voluntary_ctxsw as f64 / idle_s;
    let threads = sys::threads();

    watchdog::phase("warm-up");
    let window = Duration::from_secs_f64(args.seconds.max(0.01));
    let warm_up = workload.run(window.mul_f64(WARM_UP_SHARE), Mode::Plain);
    violations.extend(warm_up.violations);

    let counters_before = workload.counters();
    let (attempted, failed, mut metrics);
    if args.trace {
        watchdog::phase("reference window");
        let mut reference = workload.run(window.mul_f64(REFERENCE_SHARE), Mode::Plain);
        watchdog::phase("traced window");
        let mut traced = workload.run(window.mul_f64(1.0 - REFERENCE_SHARE), Mode::Traced);
        let delta = workload.counters().since(&counters_before);
        attempted = reference.attempted + traced.attempted;
        failed = reference.failed + traced.failed;
        violations.append(&mut reference.violations);
        violations.append(&mut traced.violations);
        metrics = per_layer(&mut reference, &mut traced, &delta, args, &mut detail)?;
        metrics.set("process.threads", threads as f64);
        metrics.set("process.idle_cpu_pct", idle_cpu_pct);
        metrics.set("process.idle_ctxsw_per_s", idle_ctxsw_per_s);
        metrics.set("process.rss_kib_per_idle_tenant", workload.rss_kib_per_idle_tenant());
    } else {
        watchdog::phase("measured window");
        let mut segment = workload.run(window, Mode::Plain);
        attempted = segment.attempted;
        failed = segment.failed;
        violations.append(&mut segment.violations);
        let idle_share = workload.idle_tenant_share();
        metrics =
            end_to_end(&mut segment, setup_s, rss_kib, idle_ctxsw_per_s, idle_share, &mut detail);
    }

    watchdog::phase("final checks and tear-down");
    violations.extend(workload.finish());
    if args.trace {
        watchdog::phase("layer probes");
        let started = Instant::now();
        crate::probes::run(
            args.seed,
            if args.quick { 20 } else { 1 },
            &args.out_dir,
            &mut metrics,
        )?;
        detail.push(("probes_wall_s".into(), started.elapsed().as_secs_f64(), "s"));
    }
    detail.push(("setup_s_median".into(), median(&mut setup_times), "s"));
    detail.push(("setup_s_max".into(), setup_times.iter().copied().fold(0.0, f64::max), "s"));
    detail.push(("setups".into(), setup_times.len() as f64, "count"));

    // A NaN or an infinity is a broken measurement, not an idle layer.
    violations.extend(metrics.non_finite().map(|name| format!("metric {name} is not finite")));
    let correct = violations.is_empty() && failed == 0 && attempted > 0;
    Ok(Outcome { correct, attempted, failed, metrics, detail, violations })
}
