//! Allocation ceiling for the durable write path. A durable write frames
//! its WAL record in place in the group-commit batch, the batch buffers
//! are reused from one commit to the next, and the checksum hashes the
//! payload where it lies, so once warm a durable insert, update or delete
//! allocates what the same write on an in-memory store allocates.
//!
//! The allocator counts only the calling thread's allocations, so tests
//! running in parallel on other threads do not disturb a count. A group
//! commit runs its fsync on the writing thread, so the count covers it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use vc_api::meta::Uid;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::{Container, Pod, PodConditionType, PodPhase};
use vc_api::quantity::resource_list;
use vc_api::sha256::sha256;
use vc_api::time::{RealClock, Timestamp};
use vc_store::{DurabilityConfig, Store, StoreConfig};

struct ThreadCountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading them inside the
    // allocator neither allocates nor runs after thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// `(allocations, bytes requested)` made on this thread by `work`.
fn allocations_during(work: impl FnOnce()) -> (usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    work();
    (ALLOCATIONS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

/// The benchmark's stress pod (`benchmark/src/pods.rs`): one small container.
fn stress_pod(namespace: &str, name: &str) -> Pod {
    Pod::new(namespace, name).with_container(
        Container::new("app", "stress:1").with_requests(resource_list(&[("cpu", "50m")])),
    )
}

/// The benchmark's fat pod: a stress pod with eight 224-byte annotations.
fn fat_pod(namespace: &str, name: &str) -> Pod {
    let mut pod = stress_pod(namespace, name);
    for i in 0..8 {
        pod.meta.annotations.insert(
            format!("bench.virtualcluster.io/field-{i}"),
            format!("{i:0>width$}", width = 224),
        );
    }
    pod
}

/// One pod's writes, built before they are counted: the pod as the
/// apiserver stamps it on create (one in five fat), the same pod Ready,
/// and its key for the delete.
struct Lifecycle {
    created: Object,
    ready: Object,
    key: String,
}

fn lifecycles(round: u64) -> Vec<Lifecycle> {
    (0..50u64)
        .map(|i| {
            let name = format!("stress-{round}-{i:05}");
            let mut pod =
                if i % 5 == 2 { fat_pod("tenant-a", &name) } else { stress_pod("tenant-a", &name) };
            pod.meta.uid = Uid::from_string(format!("{round:04}-{i:012}"));
            pod.meta.creation_timestamp = Timestamp::from_millis(1_700_000_000_000 + i);
            let created: Object = pod.clone().into();
            pod.spec.node_name = "node-1".into();
            pod.status.phase = PodPhase::Running;
            let ready_at = Timestamp::from_millis(1_700_000_000_500 + i);
            pod.status.set_condition(PodConditionType::Ready, true, "Started", ready_at);
            Lifecycle { created, ready: pod.into(), key: format!("tenant-a/{name}") }
        })
        .collect()
}

/// Inserts, updates and deletes every pod of `round` in turn.
fn run(store: &Store, round: Vec<Lifecycle>) {
    for Lifecycle { created, ready, key } in round {
        store.insert(created).expect("insert");
        store.update(ready, None).expect("update");
        store.delete(ResourceKind::Pod, &key).expect("delete");
    }
}

/// `(allocations, bytes)` of one warm round of 150 writes on `store`; the
/// round before it warms the store's maps, logs and buffers.
fn warm_round(store: &Store) -> (usize, usize) {
    run(store, lifecycles(0));
    let round = lifecycles(1);
    allocations_during(|| run(store, round))
}

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vc-store-write-allocs-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_durable_write_allocates_what_a_memory_write_allocates() {
    let memory = warm_round(&Store::with_config(StoreConfig::default()));

    let dir = scratch_dir();
    let (store, _) = Store::open_durable(
        StoreConfig::default(),
        DurabilityConfig::new(&dir),
        RealClock::shared(),
    )
    .expect("open durable store");
    let durable = warm_round(&store);
    let stats = store.wal_stats().expect("durable");
    assert_eq!(stats.appends.get(), 300);
    assert_eq!(stats.fsyncs.get(), 300, "one group commit per write on one thread");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let per_write = |(n, bytes): (usize, usize)| (n as f64 / 150.0, bytes as f64 / 150.0 / 1024.0);
    let (memory_n, memory_kib) = per_write(memory);
    let (durable_n, durable_kib) = per_write(durable);
    println!(
        "per write: in-memory {memory_n:.2} allocations, {memory_kib:.2} KiB; \
         durable {durable_n:.2} allocations, {durable_kib:.2} KiB"
    );
    assert!(
        durable.0 <= memory.0 && durable.1 <= memory.1,
        "a durable write made {durable_n:.2} allocations ({durable_kib:.2} KiB), \
         an in-memory write {memory_n:.2} ({memory_kib:.2} KiB)"
    );
}

#[test]
fn hashing_allocates_nothing() {
    let data = vec![0x5a_u8; 4096];
    let mut digest = [0; 32];
    let (n, _) = allocations_during(|| digest = sha256(&data));
    assert_ne!(digest, [0; 32]);
    assert_eq!(n, 0, "sha256 of 4 KiB made {n} allocations");
}
