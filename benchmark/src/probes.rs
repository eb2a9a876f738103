//! Layer probes: single-threaded timed loops over seeded objects, calling
//! each layer's public functions directly. They say what a layer costs by
//! itself; the spans say what it costs on the path. The whole set is sized
//! to finish in under five seconds.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_api::namespace::Namespace;
use vc_api::object::{Object, ResourceKind};
use vc_api::time::RealClock;
use vc_apiserver::admission::TenantIsolation;
use vc_client::informer::{InformerConfig, SharedInformer};
use vc_client::{Client, ObjectApi, WeightedFairQueue};
use vc_core::mapping;
use vc_obs::{MetricsRegistry, ObsParams, Tracer};
use vc_store::{DurabilityConfig, FlushPolicy, Store, StoreConfig};
use vc_wire::codec::{from_framed_slice, to_framed_vec, FRAME_OBJECT};
use vc_wire::{WireServer, WireServerConfig};

use crate::env::{bare_apiserver, wire_client};
use crate::metrics::MetricSet;
use crate::pods::PodMix;
use crate::stats;
use crate::watchdog;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Watchers on the fan-out probe's store.
const WATCHERS: usize = 64;

/// Median over `BATCHES` batches of the mean nanoseconds one call of `f`
/// takes, `iters` calls per batch.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let started = Instant::now();
        for i in 0..iters {
            f(batch * iters + i);
        }
        batches.push(started.elapsed().as_nanos() as f64 / iters.max(1) as f64);
    }
    watchdog::progress();
    stats::median(&mut batches)
}

/// Median of individually timed calls, microseconds.
fn p50_us(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let started = Instant::now();
        f(i);
        samples.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    watchdog::progress();
    stats::median(&mut samples)
}

/// The seeded objects the probes work on: the workloads' own 80/20 mix.
fn objects(seed: u64, namespace: &str, count: usize) -> Vec<Object> {
    let mut mix = PodMix::new(seed, 0xB0B);
    (0..count).map(|i| mix.next_pod(namespace, &format!("probe-{i:05}")).into()).collect()
}

/// Runs every probe and stores its metric. `scale` divides the iteration
/// counts (1 for a full run); `scratch` hosts the WAL probe's directory.
pub fn run(seed: u64, scale: usize, scratch: &Path, out: &mut MetricSet) -> Result<(), String> {
    let n = |full: usize| (full / scale.max(1)).max(8);
    let pods = objects(seed, "probe", 512);
    // Calls that must succeed but did not; any makes the probes an error.
    let mut failures = 0u64;
    let pick = |i: usize| &pods[i % pods.len()];

    watchdog::phase("probe: codec");
    // wire.codec / wire.json
    let frames: Vec<Vec<u8>> = pods.iter().map(|p| to_framed_vec(FRAME_OBJECT, p)).collect();
    out.set(
        "wire.codec.bytes_per_obj",
        frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64,
    );
    out.set(
        "wire.codec.encode_ns",
        ns_per_call(n(1_000), |i| {
            black_box(to_framed_vec(FRAME_OBJECT, black_box(pick(i))));
        }),
    );
    let mut decode_errors = 0u64;
    out.set(
        "wire.codec.decode_ns",
        ns_per_call(n(1_000), |i| {
            match from_framed_slice::<Object>(FRAME_OBJECT, black_box(&frames[i % frames.len()])) {
                Ok(obj) => drop(black_box(obj)),
                Err(_) => decode_errors += 1,
            }
        }),
    );
    if decode_errors > 0 {
        return Err(format!("codec probe: {decode_errors} frames failed to decode"));
    }
    out.set(
        "wire.json.encode_ns",
        ns_per_call(n(600), |i| {
            black_box(serde_json::to_string(black_box(pick(i))).map(|s| s.len()).unwrap_or(0));
        }),
    );

    watchdog::phase("probe: store");
    // store
    {
        let store = Store::new();
        out.set(
            "store.insert_us",
            ns_per_call(n(600), |i| {
                let mut obj = pick(i).clone();
                obj.meta_mut().name = format!("ins-{i}");
                failures += u64::from(store.insert(obj).is_err());
            }) / 1e3,
        );
        let keys: Vec<String> =
            store.list(ResourceKind::Pod, None).0.iter().map(|o| o.key()).collect();
        out.set(
            "store.get_ns",
            ns_per_call(n(10_000), |i| {
                black_box(store.get(ResourceKind::Pod, &keys[i % keys.len()]));
            }),
        );
        let listed = keys.len().max(1) as f64;
        out.set(
            "store.list_ns_per_obj",
            ns_per_call(n(60), |_| {
                black_box(store.list(ResourceKind::Pod, Some("probe")).0.len());
            }) / listed,
        );
        // Fan-out cost = an update on a store with `WATCHERS` watchers minus
        // the same update on a twin store without (eight watchers add less
        // than the update's own run-to-run noise; sixty-four do not). The two are timed in
        // alternating batches, so drift in machine speed cancels in each
        // pair. Buffers hold 65 536 events, so the undrained watchers are
        // never evicted by these few thousand writes.
        let watched = Store::new();
        for key in &keys {
            if let Some(obj) = store.get(ResourceKind::Pod, key) {
                failures += u64::from(watched.insert((*obj).clone()).is_err());
            }
        }
        let watchers: Vec<_> = (0..WATCHERS)
            .filter_map(|_| watched.watch(ResourceKind::Pod, None, watched.revision()).ok())
            .collect();
        let update = |target: &Store, i: usize| {
            let Some(current) = target.get(ResourceKind::Pod, &keys[i % keys.len()]) else {
                return 1;
            };
            let mut next = (*current).clone();
            next.meta_mut().annotations.insert("probe/touched".into(), i.to_string());
            u64::from(target.update(next, None).is_err())
        };
        let (mut bare, mut extra) = (Vec::new(), Vec::new());
        for batch in 0..BATCHES {
            let mut timed = |target: &Store| {
                let started = Instant::now();
                for i in 0..n(600) {
                    failures += update(target, batch * n(600) + i);
                }
                started.elapsed().as_nanos() as f64 / n(600) as f64
            };
            let plain = timed(&store);
            extra.push(timed(&watched) - plain);
            bare.push(plain);
        }
        watchdog::progress();
        out.set("store.update_us", stats::median(&mut bare) / 1e3);
        out.set(
            "store.watch_fanout_ns_per_watcher",
            stats::median(&mut extra).max(0.0) / watchers.len().max(1) as f64,
        );
    }

    watchdog::phase("probe: wal");
    // store.wal — Async flush, so the loop pays the append's CPU, not the
    // device's fsync.
    {
        let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = DurabilityConfig::new(&dir)
            .with_flush(FlushPolicy::Async { window: Duration::from_millis(2) });
        let (store, _) =
            Store::open_durable(StoreConfig::default(), durability, RealClock::shared())
                .map_err(|e| format!("WAL probe: open {}: {e}", dir.display()))?;
        out.set(
            "store.wal.append_us",
            ns_per_call(n(1_000), |i| {
                let mut obj = pick(i).clone();
                obj.meta_mut().name = format!("wal-{i}");
                failures += u64::from(store.insert(obj).is_err());
            }) / 1e3,
        );
        if let Some(wal) = store.wal_stats() {
            out.set(
                "store.wal.bytes_per_write",
                wal.bytes_appended.get() as f64 / wal.appends.get().max(1) as f64,
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("WAL probe: remove {}: {e}", dir.display()))?;
    }

    watchdog::phase("probe: apiserver");
    // apiserver (gate + admission + store), in-process
    for (metric, isolated) in
        [("apiserver.create_us", false), ("apiserver.isolation_create_us", true)]
    {
        let api = bare_apiserver("probe-api");
        if isolated {
            api.add_admission_plugin(Box::new(TenantIsolation::new(
                mapping::CLUSTER_ANNOTATION,
                mapping::TENANT_NAMESPACE_ANNOTATION,
            )));
        }
        let client = Client::system(Arc::clone(&api), "probe");
        let super_ns = mapping::tenant_ns_to_super("t00-abc", "probe");
        client
            .create(Namespace::new(&super_ns).into())
            .map_err(|e| format!("apiserver probe: namespace: {e}"))?;
        // What the syncer would write: the super-side copy, so the
        // isolation policy sees an owned object and runs its rules.
        let copies: Vec<Object> =
            pods.iter().map(|p| mapping::to_super(p, "t00", "t00-abc")).collect();
        out.set(
            metric,
            ns_per_call(n(600), |i| {
                let mut obj = copies[i % copies.len()].clone();
                obj.meta_mut().name = format!("c-{i}");
                failures += u64::from(client.create(obj).is_err());
            }) / 1e3,
        );
        if !isolated {
            let (items, _) =
                client.list(ResourceKind::Pod, None).map_err(|e| format!("probe list: {e}"))?;
            let names: Vec<(String, String)> =
                items.iter().map(|o| (o.meta().namespace.clone(), o.meta().name.clone())).collect();
            out.set(
                "apiserver.get_ns",
                ns_per_call(n(10_000), |i| {
                    let (ns, name) = &names[i % names.len()];
                    failures += u64::from(client.get(ResourceKind::Pod, ns, name).is_err());
                }),
            );
            out.set(
                "apiserver.list_ns_per_obj",
                ns_per_call(n(60), |_| {
                    black_box(client.list(ResourceKind::Pod, None).map_or(0, |(v, _)| v.len()));
                }) / names.len().max(1) as f64,
            );
        }
    }

    watchdog::phase("probe: wire");
    // wire, one client on a quiet standalone server
    {
        let api = bare_apiserver("probe-wire");
        let server = WireServer::start(Arc::clone(&api), WireServerConfig::default())
            .map_err(|e| format!("wire probe: bind: {e}"))?;
        let client = wire_client(&server.local_addr().to_string(), "probe");
        client
            .create(Namespace::new("probe").into())
            .map_err(|e| format!("wire probe: namespace: {e}"))?;
        let mut stored = Vec::new();
        for pod in pods.iter().take(crate::workloads::crud::SEED_PODS) {
            stored.push(client.create(pod.clone()).map_err(|e| format!("wire probe: seed: {e}"))?);
        }
        out.set(
            "wire.get_us_p50",
            p50_us(n(600), |i| {
                let name = &stored[i % stored.len()].meta().name;
                failures += u64::from(client.get(ResourceKind::Pod, "probe", name).is_err());
            }),
        );
        out.set(
            "wire.list_us_p50",
            p50_us(n(300), |_| {
                black_box(
                    client.list(ResourceKind::Pod, Some("probe")).map_or(0, |(v, _)| v.len()),
                );
            }),
        );
        let mut latest: Vec<Object> = stored.iter().map(|o| (**o).clone()).collect();
        out.set(
            "wire.write_ack_us_p50",
            p50_us(n(1_000), |i| {
                let slot = i % latest.len();
                let mut next = latest[slot].clone();
                next.meta_mut().annotations.insert("probe/touched".into(), i.to_string());
                match client.update(next) {
                    Ok(updated) => latest[slot] = (*updated).clone(),
                    Err(_) => failures += 1,
                }
            }),
        );
        drop(client);
        server.shutdown();
    }

    watchdog::phase("probe: client");
    // client: fair queue and informer dispatch
    {
        let queue: WeightedFairQueue<(usize, usize)> = WeightedFairQueue::new(true);
        let tenants: Vec<String> = (0..20).map(|t| format!("t{t:02}")).collect();
        for tenant in &tenants {
            queue.set_weight(tenant, 1);
        }
        const ITEMS: usize = 640;
        let per_pass = ns_per_call(n(40), |pass| {
            for item in 0..ITEMS {
                let tenant = item % tenants.len();
                queue.add_coalescing(&tenants[tenant], (tenant, item), pass as u64);
            }
            // `get_batch` blocks on an empty queue, so count instead of
            // waiting for an empty batch.
            let mut drained = 0;
            while drained < ITEMS {
                for (item, _) in queue.get_batch(32) {
                    queue.done(&item);
                    drained += 1;
                }
            }
        });
        out.set("client.fairqueue.add_get_ns", per_pass / ITEMS as f64);
    }
    {
        let api = bare_apiserver("probe-informer");
        let client = Client::system(Arc::clone(&api), "probe");
        client
            .create(Namespace::new("probe").into())
            .map_err(|e| format!("informer probe: namespace: {e}"))?;
        let informer = SharedInformer::new(client.clone(), InformerConfig::new(ResourceKind::Pod));
        let (tx, rx) = mpsc::channel::<Instant>();
        let tx = std::sync::Mutex::new(tx);
        informer.add_handler(Box::new(move |_event| {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send(Instant::now());
            }
        }));
        let informer = SharedInformer::start(informer);
        if !informer.wait_for_sync(Duration::from_secs(5)) {
            informer.stop();
            return Err("informer probe: never synced".into());
        }
        let mut lost = 0u64;
        let mut samples = Vec::new();
        for i in 0..n(300) {
            let mut obj = pick(i).clone();
            obj.meta_mut().name = format!("inf-{i}");
            let started = Instant::now();
            if client.create(obj).is_err() {
                lost += 1;
                continue;
            }
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(at) => {
                    samples.push(at.saturating_duration_since(started).as_nanos() as f64 / 1e3)
                }
                Err(_) => lost += 1,
            }
        }
        informer.stop();
        watchdog::progress();
        if lost > 0 {
            return Err(format!("informer probe: {lost} events never reached the handler"));
        }
        out.set("client.informer.dispatch_us", stats::median(&mut samples));
    }

    watchdog::phase("probe: syncer, obs");
    // syncer: the tenant → super conversion
    out.set(
        "syncer.to_super_ns",
        ns_per_call(n(4_000), |i| {
            black_box(mapping::to_super(black_box(pick(i)), "t00", "t00-abc"));
        }),
    );

    // obs: what the always-on tracer and a labelled counter cost per use
    {
        let tracer = Tracer::new(&ObsParams::default());
        out.set(
            "obs.trace.cycle_ns",
            ns_per_call(n(10_000), |i| {
                let key = &pods[i % pods.len()].meta().name;
                let id = tracer.begin("t00", key);
                for stage in ["gate", "dws_queue", "dws_process", "super_sched", "uws_queue"] {
                    tracer.record_span(id, stage, Duration::from_micros(5), true);
                }
                black_box(tracer.finish("t00", key));
            }),
        );
        let registry = MetricsRegistry::new();
        let family = registry.counter("probe_total", "probe", &["scope", "verb", "kind", "code"]);
        out.set(
            "obs.registry.inc_ns",
            ns_per_call(n(40_000), |_| {
                family.with(black_box(&["t00", "create", "Pod", "ok"])).inc();
            }),
        );
    }
    if failures > 0 {
        return Err(format!("layer probes: {failures} calls failed"));
    }
    Ok(())
}
