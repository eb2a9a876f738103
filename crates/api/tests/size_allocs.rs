//! Sizing an object must not allocate: `Object::estimated_size` runs on every
//! store write, informer cache insert and admission check, several times per
//! object version. This file holds a single test so that no other test thread
//! allocates while the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vc_api::object::Object;
use vc_api::pod::{Container, Pod, PodConditionType};
use vc_api::quantity::resource_list;
use vc_api::time::Timestamp;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn sizing_allocates_nothing_and_encoding_next_to_nothing() {
    let mut pod = Pod::new("tenant-a-default", "web-0")
        .with_container(
            Container::new("app", "registry.local/app:1.4")
                .with_requests(resource_list(&[("cpu", "250m"), ("memory", "64Mi")]))
                .with_port(8080),
        )
        .with_container(Container::new("sidecar", "registry.local/proxy:2"));
    pod.spec.containers[0].limits = resource_list(&[("cpu", "1"), ("memory", "128Mi")]);
    pod.spec.containers[0].env.insert("MODE".into(), "a \"quoted\"\tvalue".into());
    for i in 0..8 {
        pod.meta.annotations.insert(format!("example.io/note-{i}"), "é".repeat(112));
    }
    let now = Timestamp::from_millis(1_700_000_000_000);
    pod.status.set_condition(PodConditionType::PodScheduled, true, "Scheduled", now);
    pod.status.set_condition(PodConditionType::Ready, true, "Started", now);
    pod.status.started_at = Some(now);
    let obj: Object = pod.into();

    let (sizing, size) = allocations_during(|| obj.estimated_size());
    let (encoding, text) = allocations_during(|| serde_json::to_string(&obj).unwrap());

    assert_eq!(size, text.len());
    assert!(size > 2_000, "the pod should be a realistic size, got {size} bytes");
    assert_eq!(sizing, 0, "estimated_size() allocated");
    assert!(encoding < 20, "to_string() made {encoding} allocations");
}
