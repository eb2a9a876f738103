//! Wire-vs-in-process load generation for `vc_loadgen`.
//!
//! Both campaigns run against `dyn ObjectApi`, so the *same* workload
//! drives the in-process client (shared-memory `Arc` handoff) and the
//! [`vc_wire::WireClient`] (real sockets, real serialization). The deltas
//! between the two columns are exactly the distribution costs the wire
//! tier introduces — and the memoized encode cache claws back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_api::pod::Pod;
use vc_client::ObjectApi;

/// Loadgen campaign shape: the defaults, or the `vc_loadgen` row of CI's
/// reduced rung ([`crate::experiments::CI`]).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent unary client threads.
    pub threads: usize,
    /// Operations per thread (10% create, 20% list, 10% update, 60% get).
    pub ops_per_thread: usize,
    /// Pods pre-created per thread namespace (the get/list working set).
    pub seed_pods: usize,
    /// Concurrent watchers in the fan-out campaign.
    pub watchers: usize,
    /// Events written through the fan-out campaign.
    pub events: usize,
    /// Fan-out latency budget: the gate ratio is `target / measured p99`.
    pub target_fanout_p99_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            threads: 8,
            ops_per_thread: 2_000,
            seed_pods: 50,
            watchers: 64,
            events: 500,
            target_fanout_p99_ms: 250,
        }
    }
}

impl LoadgenConfig {
    /// Namespace owned by unary thread `t` (shared with the seeder).
    pub fn ns(t: usize) -> String {
        format!("loadgen-{t}")
    }
}

/// Outcome of one unary campaign.
#[derive(Debug, Clone, Copy)]
pub struct UnaryResult {
    /// Aggregate operations per second across all threads.
    pub rate: f64,
    /// Per-op latency percentiles, microseconds.
    pub p50_us: u64,
    /// 99th percentile per-op latency, microseconds.
    pub p99_us: u64,
    /// Total operations performed.
    pub ops: u64,
}

/// Runs the mixed unary workload with `threads` concurrent clients built
/// by `make` (index = thread id). The per-thread working set must already
/// be seeded (see [`seed_namespaces`]).
pub fn unary_campaign(
    cfg: &LoadgenConfig,
    make: &(dyn Fn(usize) -> Box<dyn ObjectApi> + Sync),
) -> UnaryResult {
    let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.threads {
            let samples = samples.clone();
            scope.spawn(move || {
                let api = make(t);
                let ns = LoadgenConfig::ns(t);
                let mut local = Vec::with_capacity(cfg.ops_per_thread);
                let mut created = 0usize;
                for i in 0..cfg.ops_per_thread {
                    let at = Instant::now();
                    match i % 10 {
                        0 => {
                            let pod = Pod::new(&ns, format!("extra-{created}"));
                            created += 1;
                            api.create(pod.into()).expect("loadgen create");
                        }
                        1 | 2 => {
                            let (items, _) =
                                api.list(ResourceKind::Pod, Some(&ns)).expect("loadgen list");
                            assert!(items.len() >= cfg.seed_pods);
                        }
                        3 => {
                            let name = format!("seed-{}", i % cfg.seed_pods);
                            let current =
                                api.get(ResourceKind::Pod, &ns, &name).expect("loadgen read");
                            let mut pod = (*current).clone();
                            pod.meta_mut().annotations.insert("touched".into(), i.to_string());
                            api.update(pod).expect("loadgen update");
                        }
                        _ => {
                            let name = format!("seed-{}", i % cfg.seed_pods);
                            api.get(ResourceKind::Pod, &ns, &name).expect("loadgen get");
                        }
                    }
                    local.push(at.elapsed().as_micros() as u64);
                }
                samples.lock().unwrap().append(&mut local);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let samples = samples.lock().unwrap();
    UnaryResult {
        rate: samples.len() as f64 / elapsed,
        p50_us: crate::report::percentile(&samples, 0.50),
        p99_us: crate::report::percentile(&samples, 0.99),
        ops: samples.len() as u64,
    }
}

/// Creates the per-thread namespaces and seed pods through `api` (use a
/// generously-limited client; this is setup, not measurement).
pub fn seed_namespaces(cfg: &LoadgenConfig, api: &dyn ObjectApi) {
    for t in 0..cfg.threads {
        let ns = LoadgenConfig::ns(t);
        api.create(vc_api::namespace::Namespace::new(&ns).into()).expect("seed namespace");
        for p in 0..cfg.seed_pods {
            api.create(Pod::new(&ns, format!("seed-{p}")).into()).expect("seed pod");
        }
    }
}

/// Outcome of one watch fan-out campaign.
#[derive(Debug, Clone, Copy)]
pub struct FanoutResult {
    /// Create→delivery latency percentiles across every (event, watcher)
    /// pair, microseconds.
    pub p50_us: u64,
    /// 99th percentile delivery latency, microseconds.
    pub p99_us: u64,
    /// Deliveries observed (should be `events * watchers`).
    pub deliveries: u64,
    /// Events delivered per second, summed across watchers.
    pub rate: f64,
}

/// Fans `cfg.events` pod creations out to `cfg.watchers` concurrent
/// watchers built by `make_watch` (args = watcher id, start revision);
/// the writer goes through `writer`. Returns delivery-latency percentiles
/// measured from just-before-create to watcher receipt.
pub fn fanout_campaign(
    cfg: &LoadgenConfig,
    ns: &str,
    writer: &dyn ObjectApi,
    make_watch: &(dyn Fn(usize, u64) -> Box<dyn vc_client::WatchHandle> + Sync),
) -> FanoutResult {
    writer.create(vc_api::namespace::Namespace::new(ns).into()).expect("fanout namespace");
    let (_, rev) = writer.list(ResourceKind::Pod, Some(ns)).expect("fanout list");
    let create_times: Arc<Mutex<HashMap<String, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let deliveries = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..cfg.watchers {
            let create_times = create_times.clone();
            let samples = samples.clone();
            let deliveries = &deliveries;
            scope.spawn(move || {
                let watch = make_watch(w, rev);
                let mut local = Vec::with_capacity(cfg.events);
                let mut seen = 0usize;
                while seen < cfg.events {
                    let Some(ev) = watch.recv_timeout_ms(30_000) else {
                        break; // closed or wedged; report what we saw
                    };
                    let at = Instant::now();
                    if let Some(sent) = create_times.lock().unwrap().get(&ev.object.meta().name) {
                        local.push(at.duration_since(*sent).as_micros() as u64);
                    }
                    seen += 1;
                }
                deliveries.fetch_add(seen as u64, Ordering::Relaxed);
                samples.lock().unwrap().append(&mut local);
            });
        }
        // Writer: one create per event, pacing just enough to avoid
        // store-side watcher eviction at the smoke rung.
        scope.spawn(|| {
            for e in 0..cfg.events {
                let name = format!("ev-{e}");
                create_times.lock().unwrap().insert(name.clone(), Instant::now());
                writer.create(Pod::new(ns, name).into()).expect("fanout create");
                if e % 50 == 49 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let samples = samples.lock().unwrap();
    FanoutResult {
        p50_us: crate::report::percentile(&samples, 0.50),
        p99_us: crate::report::percentile(&samples, 0.99),
        deliveries: deliveries.load(Ordering::Relaxed),
        rate: deliveries.load(Ordering::Relaxed) as f64 / elapsed,
    }
}
