//! Criterion micro-benchmarks for the hot data structures.
//!
//! Includes the ablation the paper calls out in §IV-A: the weighted
//! round-robin dequeue is O(n) in the number of tenant sub-queues, but
//! with equal weights it effectively degenerates to round-robin — these
//! benches quantify the dequeue cost as tenant count grows and as weights
//! diverge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vc_api::labels::{labels, Requirement, Selector};
use vc_api::pod::{Container, Pod};
use vc_api::sha256::sha256;
use vc_client::{WeightedFairQueue, WorkQueue};
use vc_runtime::netfilter::{NatRule, NetfilterTable};
use vc_store::Store;

fn bench_workqueue(c: &mut Criterion) {
    c.bench_function("workqueue add+get+done", |b| {
        let queue: WorkQueue<u64> = WorkQueue::new();
        let mut i = 0u64;
        b.iter(|| {
            queue.add(black_box(i));
            let item = queue.try_get().unwrap();
            queue.done(&item);
            i = i.wrapping_add(1);
        });
    });

    c.bench_function("workqueue dedup hit", |b| {
        let queue: WorkQueue<u64> = WorkQueue::new();
        queue.add(42);
        b.iter(|| queue.add(black_box(42)));
    });
}

fn bench_fairqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("wrr dequeue vs tenants");
    for tenants in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(tenants), &tenants, |b, &n| {
            let queue: WeightedFairQueue<u64> = WeightedFairQueue::new(true);
            // Preload every sub-queue so the cursor always finds work
            // (the O(1)-amortized equal-weight case).
            let mut seq = 0u64;
            for t in 0..n {
                for _ in 0..4 {
                    queue.add(&format!("tenant-{t}"), seq);
                    seq += 1;
                }
            }
            let mut t = 0usize;
            b.iter(|| {
                let item = queue.try_get().expect("item");
                queue.done(&item);
                // Keep the queue topped up.
                queue.add(&format!("tenant-{}", t % n), seq);
                seq = seq.wrapping_add(1);
                t += 1;
            });
        });
    }
    group.finish();

    c.bench_function("wrr dequeue sparse (1 of 1000 tenants active)", |b| {
        let queue: WeightedFairQueue<u64> = WeightedFairQueue::new(true);
        // Register 1000 sub-queues; only one has work: the cursor scan is
        // the O(n) worst case the paper mentions.
        for t in 0..1000 {
            queue.add(&format!("tenant-{t}"), t as u64);
        }
        while queue.try_get().is_some() {}
        let mut seq = 10_000u64;
        b.iter(|| {
            queue.add("tenant-500", seq);
            let item = queue.try_get().expect("item");
            queue.done(&item);
            seq = seq.wrapping_add(1);
        });
    });
}

fn bench_store(c: &mut Criterion) {
    c.bench_function("store insert", |b| {
        let store = Store::new();
        let mut i = 0u64;
        b.iter(|| {
            store.insert(Pod::new("ns", format!("pod-{i}")).into()).unwrap();
            i += 1;
        });
    });

    c.bench_function("store update with watch fanout x8", |b| {
        let store = Store::new();
        store.insert(Pod::new("ns", "hot").into()).unwrap();
        let _watchers: Vec<_> =
            (0..8).map(|_| store.watch(vc_api::ResourceKind::Pod, None, 0).unwrap()).collect();
        b.iter(|| {
            store.update(Pod::new("ns", "hot").into(), None).unwrap();
        });
    });
}

fn bench_selectors(c: &mut Criterion) {
    let selector = Selector::from_pairs(&[("app", "web"), ("tier", "frontend")])
        .with_requirement(Requirement::not_in("env", &["dev", "test"]));
    let matching = labels(&[("app", "web"), ("tier", "frontend"), ("env", "prod"), ("x", "y")]);
    let non_matching = labels(&[("app", "db")]);
    c.bench_function("selector match (hit)", |b| {
        b.iter(|| black_box(selector.matches(black_box(&matching))))
    });
    c.bench_function("selector match (miss)", |b| {
        b.iter(|| black_box(selector.matches(black_box(&non_matching))))
    });
}

fn bench_netfilter(c: &mut Criterion) {
    let table = NetfilterTable::new();
    let rules: Vec<NatRule> = (0..100)
        .map(|i| NatRule::new(format!("10.96.0.{i}"), 80, vec![(format!("172.20.0.{i}"), 8080)]))
        .collect();
    table.apply(&rules);
    c.bench_function("netfilter resolve among 100 rules", |b| {
        b.iter(|| black_box(table.resolve(black_box("10.96.0.50"), 80, 3)))
    });
    c.bench_function("netfilter apply 100 rules", |b| b.iter(|| table.apply(black_box(&rules))));
}

fn bench_mapping_and_crypto(c: &mut Criterion) {
    c.bench_function("sha256 1KiB", |b| {
        let data = vec![0xabu8; 1024];
        b.iter(|| black_box(sha256(black_box(&data))))
    });
    c.bench_function("pod to_super conversion", |b| {
        let pod: vc_api::Object =
            Pod::new("default", "web-0").with_container(Container::new("app", "nginx:1.19")).into();
        b.iter(|| {
            black_box(vc_core::mapping::to_super(black_box(&pod), "tenant-a", "tenant-a-abc123"))
        })
    });
    c.bench_function("object estimated_size (counting walk)", |b| {
        let pod: vc_api::Object =
            Pod::new("default", "web-0").with_container(Container::new("app", "nginx:1.19")).into();
        b.iter(|| black_box(pod.estimated_size()))
    });
}

criterion_group!(
    benches,
    bench_workqueue,
    bench_fairqueue,
    bench_store,
    bench_selectors,
    bench_netfilter,
    bench_mapping_and_crypto
);
criterion_main!(benches);
