//! Allocation budgets of the per-event sync path: what a work item, a trip
//! through the downward fair queue and a trace lookup cost in heap
//! allocations. The syncer pays these once per informer event of every
//! tenant, so each is pinned; the count before identities were shared as
//! `Arc<str>` (tenant and key `String`s copied on every clone and lookup)
//! is noted beside each budget.
//!
//! The allocator counts only the calling thread's allocations, so tests
//! running in parallel on other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use vc_api::object::ResourceKind;
use vc_client::WeightedFairQueue;
use vc_core::syncer::WorkItem;
use vc_obs::{ObsParams, Tracer};

struct ThreadCountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter is a side effect only.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// Heap allocations `work` makes on this thread.
fn allocations_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn item(key: &str) -> WorkItem {
    WorkItem { tenant: "tenant-a".into(), kind: ResourceKind::Pod, key: key.into() }
}

#[test]
fn cloning_a_work_item_allocates_nothing() {
    let original = item("default/web-0");
    let (n, copy) = allocations_during(|| original.clone());
    assert_eq!(copy, original);
    // Before: 2 (the tenant and key strings).
    assert_eq!(n, 0, "a work item clone is two reference-count bumps");
}

#[test]
fn a_coalescing_round_trip_through_the_fair_queue_allocates_once() {
    let queue: WeightedFairQueue<WorkItem> = WeightedFairQueue::new(true);
    queue.set_weight("tenant-a", 1);
    let round_trip = |item: WorkItem, generation: u64| {
        queue.add_coalescing("tenant-a", item, generation);
        let batch = queue.get_batch(32);
        for (item, _) in &batch {
            queue.done(item);
        }
        batch.len()
    };
    // Warm the queue's maps and deques to their working capacity.
    for generation in 0..4 {
        assert_eq!(round_trip(item("default/web-0"), generation), 1);
    }
    let next = item("default/web-0");
    let (n, delivered) = allocations_during(|| round_trip(next, 9));
    assert_eq!(delivered, 1);
    // Before: 13 (item copies into the dedup, generation and tenant maps,
    // and a tenant-name copy per map entry, ring slot and batch).
    assert_eq!(n, 1, "only the returned batch vector allocates");
}

#[test]
fn a_trace_lookup_allocates_nothing_on_a_hit_or_a_miss() {
    let tracer = Tracer::new(&ObsParams::default());
    let id = tracer.begin("tenant-a", "default/web-0");
    let (hit_allocs, hit) = allocations_during(|| tracer.lookup("tenant-a", "default/web-0"));
    assert_eq!(hit, Some(id));
    let (miss_allocs, miss) = allocations_during(|| tracer.lookup("tenant-a", "default/web-1"));
    assert_eq!(miss, None);
    let (other_allocs, other) = allocations_during(|| tracer.lookup("tenant-b", "default/web-0"));
    assert_eq!(other, None);
    // Before: 2 each (an owned `(tenant, key)` pair built per lookup).
    assert_eq!((hit_allocs, miss_allocs, other_allocs), (0, 0, 0));
    black_box(tracer);
}
