//! Counting global allocator: heap allocations and bytes requested,
//! process-wide. Counts repeat almost exactly between runs of the same
//! code, so they resolve changes that wall-clock noise hides.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards keep the two cores from bouncing one cache line per allocation.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Shard { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) };
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let idx = MY_SHARD
        .try_with(|cell| {
            if cell.get() == usize::MAX {
                cell.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            cell.get()
        })
        .unwrap_or(0);
    &COUNTS[idx]
}

fn count(size: usize) {
    let shard = shard();
    shard.allocs.fetch_add(1, Ordering::Relaxed);
    shard.bytes.fetch_add(size as u64, Ordering::Relaxed);
}

/// The allocator installed by the benchmark library.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (a + s.allocs.load(Ordering::Relaxed), b + s.bytes.load(Ordering::Relaxed))
    })
}
