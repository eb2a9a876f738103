//! Store contention bench — sharded store vs the coarse-lock baseline.
//!
//! The paper's experiments (Figs 7–11) are bottlenecked on list/watch
//! traffic against the super-cluster store; this harness quantifies what
//! the per-kind sharding, namespace indexes and out-of-lock watch fan-out
//! buy on that hot path. It drives the **same** workload against
//! [`vc_store::Store`] (sharded) and
//! [`vc_bench::baseline_store::CoarseStore`] (the pre-sharding
//! implementation, kept as an in-tree baseline):
//!
//! 1. populate 10k objects across 100 namespaces;
//! 2. 16 concurrent client threads issuing a 60/35/5 get/ns-list/update
//!    mix (the informer steady-state shape), recording per-op latency;
//! 3. 100 per-namespace watchers (one per tenant-ish namespace) while a
//!    writer inserts 1000 pods, recording insert→delivery latency under
//!    concurrent list load.
//!
//! Reports p50/p99 per op, aggregate throughput, watch-delivery
//! percentiles, and the sharded/coarse improvement ratios. With
//! `VC_BENCH_JSON_DIR` set, everything lands in
//! `BENCH_store_contention_metrics.json` via the vc-obs registry.
//!
//! Run: `cargo run --release -p vc-bench --bin store_contention`

use std::sync::{Arc, Mutex};
use std::time::Instant;
use vc_api::error::ApiResult;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::Pod;
use vc_bench::baseline_store::CoarseStore;
use vc_bench::report::{dump_metrics_json, heading, percentile, WatchReceiver};
use vc_obs::MetricsRegistry;
use vc_store::{Store, WatchEvent};

const OBJECTS: usize = 10_000;
const NAMESPACES: usize = 100;
const THREADS: usize = 16;
const OPS_PER_THREAD: usize = 3_000;
const FANOUT_PODS: usize = 1_000;

fn ns_of(i: usize) -> String {
    format!("ns-{}", i % NAMESPACES)
}

/// The store operations the contention workload needs, implemented by the
/// sharded store and the coarse baseline.
trait ContentionStore: Send + Sync + 'static {
    /// Watch handle type.
    type Watch: WatchReceiver + Send + 'static;
    fn insert(&self, obj: Object) -> ApiResult<()>;
    fn update(&self, obj: Object) -> ApiResult<()>;
    fn get(&self, key: &str) -> bool;
    fn list_ns(&self, ns: &str) -> usize;
    fn watch_ns(&self, ns: &str) -> Self::Watch;
}

impl ContentionStore for Store {
    type Watch = vc_store::WatchStream;
    fn insert(&self, obj: Object) -> ApiResult<()> {
        Store::insert(self, obj).map(|_| ())
    }
    fn update(&self, obj: Object) -> ApiResult<()> {
        Store::update(self, obj, None).map(|_| ())
    }
    fn get(&self, key: &str) -> bool {
        Store::get(self, ResourceKind::Pod, key).is_some()
    }
    fn list_ns(&self, ns: &str) -> usize {
        Store::list(self, ResourceKind::Pod, Some(ns)).0.len()
    }
    fn watch_ns(&self, ns: &str) -> Self::Watch {
        Store::watch(self, ResourceKind::Pod, Some(ns.to_string()), self.revision()).unwrap()
    }
}

impl ContentionStore for CoarseStore {
    type Watch = crossbeam::channel::Receiver<WatchEvent>;
    fn insert(&self, obj: Object) -> ApiResult<()> {
        CoarseStore::insert(self, obj).map(|_| ())
    }
    fn update(&self, obj: Object) -> ApiResult<()> {
        CoarseStore::update(self, obj, None).map(|_| ())
    }
    fn get(&self, key: &str) -> bool {
        CoarseStore::get(self, ResourceKind::Pod, key).is_some()
    }
    fn list_ns(&self, ns: &str) -> usize {
        CoarseStore::list(self, ResourceKind::Pod, Some(ns)).0.len()
    }
    fn watch_ns(&self, ns: &str) -> Self::Watch {
        let (_, rev) = CoarseStore::list(self, ResourceKind::Pod, None);
        CoarseStore::watch(self, ResourceKind::Pod, Some(ns.to_string()), rev).unwrap()
    }
}

/// Latency samples (ns) and wall time for one implementation's run.
#[derive(Default)]
struct RunResult {
    gets: Vec<u64>,
    lists: Vec<u64>,
    updates: Vec<u64>,
    watch_delivery: Vec<u64>,
    throughput_ops_per_s: f64,
}

impl RunResult {
    fn p(&self, samples: &[u64], q: f64) -> u64 {
        percentile(samples, q) / 1_000 // ns → µs
    }
}

fn populate<S: ContentionStore>(store: &S) {
    for i in 0..OBJECTS {
        store.insert(Pod::new(ns_of(i), format!("p{i}")).into()).unwrap();
    }
}

/// Phase 2: 16 threads, 60/35/5 get/ns-list/update mix.
fn mixed_contention<S: ContentionStore>(store: &Arc<S>, result: &mut RunResult) {
    let mut handles = Vec::new();
    let start = Instant::now();
    for t in 0..THREADS {
        let store = Arc::clone(store);
        handles.push(std::thread::spawn(move || {
            let mut gets = Vec::with_capacity(OPS_PER_THREAD);
            let mut lists = Vec::new();
            let mut updates = Vec::new();
            // Simple deterministic LCG so runs are comparable without a
            // rand dependency in the hot loop.
            let mut x = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for op in 0..OPS_PER_THREAD {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (x >> 16) as usize % OBJECTS;
                let slot = op % 20;
                if slot == 0 {
                    let started = Instant::now();
                    store.update(Pod::new(ns_of(i), format!("p{i}")).into()).unwrap();
                    updates.push(started.elapsed().as_nanos() as u64);
                } else if slot <= 7 {
                    let started = Instant::now();
                    let n = store.list_ns(&ns_of(i));
                    lists.push(started.elapsed().as_nanos() as u64);
                    assert!(n >= OBJECTS / NAMESPACES, "namespace lost objects");
                } else {
                    let started = Instant::now();
                    let found = store.get(&format!("{}/p{i}", ns_of(i)));
                    gets.push(started.elapsed().as_nanos() as u64);
                    assert!(found, "populated key must resolve");
                }
            }
            (gets, lists, updates)
        }));
    }
    for h in handles {
        let (gets, lists, updates) = h.join().unwrap();
        result.gets.extend(gets);
        result.lists.extend(lists);
        result.updates.extend(updates);
    }
    let wall = start.elapsed().as_secs_f64();
    result.throughput_ops_per_s = (THREADS * OPS_PER_THREAD) as f64 / wall;
}

/// Phase 3: 100 per-namespace watchers + 4 lister threads while 1000 pods
/// are inserted; measures insert→watch-delivery latency.
fn watch_fanout<S: ContentionStore>(store: &Arc<S>, result: &mut RunResult) {
    let send_times: Arc<Vec<Mutex<Option<Instant>>>> =
        Arc::new((0..FANOUT_PODS).map(|_| Mutex::new(None)).collect());
    let expected_per_ns = FANOUT_PODS / NAMESPACES;

    let mut watcher_handles = Vec::new();
    for ns_idx in 0..NAMESPACES {
        let watch = store.watch_ns(&format!("ns-{ns_idx}"));
        let send_times = Arc::clone(&send_times);
        watcher_handles.push(std::thread::spawn(move || {
            let mut deltas = Vec::with_capacity(expected_per_ns);
            while deltas.len() < expected_per_ns {
                let Some(event) = watch.recv_ms(10_000) else { break };
                let received = Instant::now();
                let name = &event.object.meta().name;
                let Some(idx) = name.strip_prefix('w').and_then(|s| s.parse::<usize>().ok()) else {
                    continue;
                };
                if let Some(sent) = *send_times[idx].lock().unwrap() {
                    deltas.push((received - sent).as_nanos() as u64);
                }
            }
            deltas
        }));
    }

    // Background list pressure while events fan out.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut lister_handles = Vec::new();
    for t in 0..4 {
        let store = Arc::clone(store);
        let stop = Arc::clone(&stop);
        lister_handles.push(std::thread::spawn(move || {
            let mut i = t;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.list_ns(&ns_of(i));
                i += 1;
            }
        }));
    }

    for i in 0..FANOUT_PODS {
        *send_times[i].lock().unwrap() = Some(Instant::now());
        store.insert(Pod::new(ns_of(i), format!("w{i}")).into()).unwrap();
    }
    for h in watcher_handles {
        result.watch_delivery.extend(h.join().unwrap());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in lister_handles {
        h.join().unwrap();
    }
}

fn run<S: ContentionStore>(store: &Arc<S>) -> RunResult {
    let mut result = RunResult::default();
    populate(&**store);
    mixed_contention(store, &mut result);
    watch_fanout(store, &mut result);
    result
}

fn print_result(label: &str, r: &RunResult) {
    println!(
        "  {label:<8} get p50/p99 {}/{}µs  ns-list p50/p99 {}/{}µs  update p50/p99 {}/{}µs",
        r.p(&r.gets, 0.50),
        r.p(&r.gets, 0.99),
        r.p(&r.lists, 0.50),
        r.p(&r.lists, 0.99),
        r.p(&r.updates, 0.50),
        r.p(&r.updates, 0.99),
    );
    println!(
        "  {label:<8} mixed throughput {:.0} ops/s ({} threads)  watch-delivery p50/p99 {}/{}µs \
         ({} samples)",
        r.throughput_ops_per_s,
        THREADS,
        r.p(&r.watch_delivery, 0.50),
        r.p(&r.watch_delivery, 0.99),
        r.watch_delivery.len(),
    );
}

fn record(registry: &MetricsRegistry, label: &str, r: &RunResult) {
    let latency = registry.gauge(
        "vc_store_bench_latency_us",
        "store_contention bench latency percentiles in microseconds.",
        &["impl", "op", "stat"],
    );
    for (op, samples) in [
        ("get", &r.gets),
        ("ns_list", &r.lists),
        ("update", &r.updates),
        ("watch_delivery", &r.watch_delivery),
    ] {
        latency.with(&[label, op, "p50"]).set(r.p(samples, 0.50) as i64);
        latency.with(&[label, op, "p99"]).set(r.p(samples, 0.99) as i64);
    }
    let throughput = registry.gauge(
        "vc_store_bench_throughput_ops_per_s",
        "store_contention mixed get/list/update throughput at 16 threads.",
        &["impl"],
    );
    throughput.with(&[label]).set(r.throughput_ops_per_s as i64);
}

fn ratio(baseline: u64, improved: u64) -> f64 {
    baseline.max(1) as f64 / improved.max(1) as f64
}

fn main() {
    println!(
        "store contention — {OBJECTS} objects / {NAMESPACES} namespaces, {THREADS} client \
         threads, {FANOUT_PODS} fan-out inserts across {NAMESPACES} watchers"
    );

    heading("coarse (pre-sharding baseline: one global lock)");
    let coarse_store = Arc::new(CoarseStore::new(400_000, 65_536));
    let coarse = run(&coarse_store);
    print_result("coarse", &coarse);

    heading("sharded (per-kind shards + namespace indexes + out-of-lock fan-out)");
    let store = Arc::new(Store::new());
    let sharded = run(&store);
    print_result("sharded", &sharded);

    heading("improvement (coarse / sharded)");
    let list_p99 = ratio(percentile(&coarse.lists, 0.99), percentile(&sharded.lists, 0.99));
    let tput = sharded.throughput_ops_per_s / coarse.throughput_ops_per_s.max(1.0);
    let watch_p99 =
        ratio(percentile(&coarse.watch_delivery, 0.99), percentile(&sharded.watch_delivery, 0.99));
    println!(
        "  ns-list p99: {list_p99:.1}x   mixed throughput: {tput:.1}x   watch-delivery p99: \
         {watch_p99:.1}x"
    );

    let registry = MetricsRegistry::new();
    record(&registry, "coarse", &coarse);
    record(&registry, "sharded", &sharded);
    vc_apiserver::publish_store_metrics(&store, &registry, "sharded");
    let improvement = registry.gauge(
        "vc_store_bench_improvement_x10",
        "Improvement of sharded over coarse (ratio x10, integer).",
        &["metric"],
    );
    improvement.with(&["ns_list_p99"]).set((list_p99 * 10.0) as i64);
    improvement.with(&["mixed_throughput"]).set((tput * 10.0) as i64);
    improvement.with(&["watch_delivery_p99"]).set((watch_p99 * 10.0) as i64);
    dump_metrics_json("store_contention", &registry);
    // Acceptance floors and regression bounds are enforced by the
    // `bench_gate` bin against the dumped artifact (see
    // BENCH_BASELINE.json), so a slow run still uploads its numbers.
}
