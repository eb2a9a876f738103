//! Allocations per wire verb, client and server together: the per-layer
//! bytes behind `allocs_per_op` and `alloc_kib_per_op` @ `wire_crud`.
//!
//! A zero-latency `ApiServer` behind a `WireServer`, one warm `vcbin`
//! connection and one watch on a namespace of 50 seeded pods (one in five
//! carries eight 224-byte annotations, as the benchmark's pod mix does).
//! Each verb runs 100 warm-up ops, then 400 measured ones. A write's
//! measured window runs from the request until its watch event arrives;
//! inputs (names, the next version of an object) are prepared outside it.
//! A counting global allocator counts every thread's allocations and the
//! bytes they request (`alloc`, `alloc_zeroed`, and `realloc`'s new size),
//! and the calling thread's on their own.
//!
//! ```text
//! cargo run --release -p vc-wire --example verb_allocs
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vc_api::namespace::Namespace;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::{Container, Pod};
use vc_api::quantity::resource_list;
use vc_api::time::RealClock;
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::{Encoding, ObjectApi};
use vc_store::EventType;
use vc_wire::{WireClient, WireServer, WireServerConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static MINE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let _ = MINE.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + size as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NAMESPACE: &str = "probe";
const SEEDS: usize = 50;
const WARM_UP: usize = 100;
const MEASURED: usize = 400;

/// Allocations and requested bytes: every thread's, then the caller's.
#[derive(Default, Clone, Copy)]
struct Tally {
    all: (u64, u64),
    mine: (u64, u64),
}

fn snapshot() -> Tally {
    Tally {
        all: (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst)),
        mine: MINE.with(Cell::get),
    }
}

impl Tally {
    fn add_since(&mut self, start: Tally) {
        let now = snapshot();
        self.all.0 += now.all.0 - start.all.0;
        self.all.1 += now.all.1 - start.all.1;
        self.mine.0 += now.mine.0 - start.mine.0;
        self.mine.1 += now.mine.1 - start.mine.1;
    }
}

/// A pod of the benchmark's mix: the `i`th of every five is fat when
/// `i % 5 == 2`.
fn pod(name: &str, i: usize) -> Object {
    let mut pod = Pod::new(NAMESPACE, name).with_container(
        Container::new("app", "stress:1").with_requests(resource_list(&[("cpu", "50m")])),
    );
    if i % 5 == 2 {
        for f in 0..8 {
            pod.meta.annotations.insert(
                format!("bench.virtualcluster.io/field-{f}"),
                format!("{f:0>width$}", width = 224),
            );
        }
    }
    pod.into()
}

/// Runs `op` `WARM_UP + MEASURED` times; `prepare(i)` builds op `i`'s input
/// outside the measured window.
fn measure<I>(mut prepare: impl FnMut(usize) -> I, mut op: impl FnMut(usize, I)) -> Tally {
    let mut tally = Tally::default();
    for i in 0..WARM_UP + MEASURED {
        let input = prepare(i);
        let start = snapshot();
        op(i, input);
        if i >= WARM_UP {
            tally.add_since(start);
        }
    }
    tally
}

fn main() {
    let config = ApiServerConfig {
        name: "verb-allocs".to_string(),
        read_latency: Duration::ZERO,
        write_latency: Duration::ZERO,
        ..ApiServerConfig::default()
    };
    let api = ApiServer::new(config, RealClock::shared());
    api.create("admin", Namespace::new(NAMESPACE).into()).expect("namespace");
    let seeds: Vec<Arc<Object>> = (0..SEEDS)
        .map(|i| api.create("admin", pod(&format!("seed-{i:03}"), i)).expect("seed"))
        .collect();
    let server = WireServer::start(api, WireServerConfig::default()).expect("bind");
    let client = WireClient::with_limits(server.local_addr().to_string(), "admin", 1e9, 1 << 30)
        .with_codec(Encoding::Binary);
    let (_, revision) = client.list(ResourceKind::Pod, Some(NAMESPACE)).expect("list");
    let watch = client.watch(ResourceKind::Pod, Some(NAMESPACE), revision).expect("watch");
    let await_event = |expect: EventType| {
        let event = watch.recv_timeout_ms(5_000).expect("the write's watch event");
        assert_eq!(event.event_type, expect);
    };

    let mut rows = Vec::new();
    let names: Vec<String> = seeds.iter().map(|s| s.meta().name.clone()).collect();
    let seeds = RefCell::new(seeds);
    rows.push((
        "GET",
        measure(
            |i| &names[i % SEEDS],
            |_, name| {
                client.get(ResourceKind::Pod, NAMESPACE, name).expect("get");
            },
        ),
    ));
    rows.push((
        "LIST of 50 pods",
        measure(
            |_| (),
            |_, ()| {
                let (items, _) = client.list(ResourceKind::Pod, Some(NAMESPACE)).expect("list");
                assert_eq!(items.len(), SEEDS);
            },
        ),
    ));
    rows.push((
        "CREATE + its watch event",
        measure(
            |i| pod(&format!("extra-{i:04}"), i),
            |_, obj| {
                client.create(obj).expect("create");
                await_event(EventType::Added);
            },
        ),
    ));
    rows.push((
        "UPDATE + its watch event",
        measure(
            |i| {
                let mut next = (*seeds.borrow()[i % SEEDS]).clone();
                next.meta_mut().annotations.insert("probe/touched".into(), i.to_string());
                next
            },
            |i, next| {
                seeds.borrow_mut()[i % SEEDS] = client.update(next).expect("update");
                await_event(EventType::Modified);
            },
        ),
    ));
    rows.push((
        "DELETE + its watch event",
        measure(
            |i| format!("extra-{i:04}"),
            |_, name| {
                client.delete(ResourceKind::Pod, NAMESPACE, &name).expect("delete");
                await_event(EventType::Deleted);
            },
        ),
    ));

    println!("{MEASURED} ops per verb after {WARM_UP} warm-up ops; vcbin, one watch");
    println!("| verb | allocs/op | KiB/op | client thread allocs/op | client thread KiB/op |");
    println!("|---|---|---|---|---|");
    let per_op = |v: u64| v as f64 / MEASURED as f64;
    for (verb, t) in rows {
        println!(
            "| {verb} | {:.1} | {:.2} | {:.1} | {:.2} |",
            per_op(t.all.0),
            per_op(t.all.1) / 1024.0,
            per_op(t.mine.0),
            per_op(t.mine.1) / 1024.0,
        );
    }
    drop(watch);
    server.shutdown();
}
