//! Allocation ceilings for the `vcbin` codec, the cost a LIST pays on both
//! ends of the wire. Decoding builds the typed objects straight from the
//! input bytes, so a decoded list should cost about what cloning the same
//! objects costs; encoding writes tags straight into the output buffer, so
//! it should cost little beyond that buffer. This file holds a single test
//! so that no other test thread allocates while the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vc_api::meta::Uid;
use vc_api::object::Object;
use vc_api::pod::{Container, Pod};
use vc_api::quantity::resource_list;
use vc_api::time::Timestamp;
use vc_wire::codec;

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

/// Fifty pods as a store lists them: one in five fat, each with the
/// identity, revision and timestamp the apiserver stamps on create.
fn stored_pods() -> Vec<Object> {
    (0..50u64)
        .map(|i| {
            let name = format!("stress-{i:05}");
            let mut pod =
                if i % 5 == 2 { fat_pod("tenant-a", &name) } else { stress_pod("tenant-a", &name) };
            pod.meta.uid = Uid::from_string(format!("0000-{i:012}"));
            pod.meta.resource_version = 1_000 + i;
            pod.meta.creation_timestamp = Timestamp::from_millis(1_700_000_000_000 + i);
            pod.into()
        })
        .collect()
}

#[test]
fn list_decode_costs_about_a_clone_and_encode_about_its_buffer() {
    let objects = stored_pods();
    let encoded: Vec<Vec<u8>> = objects
        .iter()
        .map(|o| {
            let mut out = Vec::new();
            codec::encode(o, &mut out);
            out
        })
        .collect();
    let mut frame = Vec::new();
    codec::write_list_frame(&mut frame, 7, encoded.iter().map(Vec::as_slice));

    // What a LIST must build at the least: every object, each in an `Arc`.
    let (floor, cloned) =
        allocations_during(|| objects.iter().map(|o| Arc::new(o.clone())).collect::<Vec<_>>());
    // What the client's LIST builds from the frame (`WireClient::list`).
    let (decoding, decoded) = allocations_during(|| {
        let (_, items) = codec::read_list_frame::<Object>(&frame).expect("decode");
        items.into_iter().map(Arc::new).collect::<Vec<_>>()
    });
    assert_eq!(decoded, cloned);
    assert!(
        decoding * 100 <= floor * 115,
        "decoding 50 pods made {decoding} allocations, cloning them {floor}"
    );

    // A stress pod's object frame: the output buffer, and next to nothing else.
    let pod = &objects[0];
    let (framing, framed) = allocations_during(|| codec::to_framed_vec(codec::FRAME_OBJECT, pod));
    let buffer = allocations_during(|| Vec::<u8>::with_capacity(framed.len())).0;
    assert!(
        framing <= buffer + 4,
        "to_framed_vec made {framing} allocations for a {}-byte frame",
        framed.len()
    );
}
