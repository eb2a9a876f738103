//! Allocation ceilings for the `vcbin` codec, the cost a LIST pays on both
//! ends of the wire. Decoding builds the typed objects straight from the
//! input bytes, so a decoded list should cost about what cloning the same
//! objects costs; encoding writes tags straight into the output buffer, so
//! it should cost little beyond that buffer. A client decodes each
//! distinct item encoding once ([`DecodeCache`]), so a repeat of bytes it
//! has decoded costs no object at all. A server encodes each stored
//! object once per codec ([`EncodeLookups`]) into a buffer its thread
//! reuses, so the bytes the object keeps cost one allocation of their
//! exact size.
//!
//! The allocator counts only the calling thread's allocations, so tests
//! running in parallel on other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vc_api::meta::Uid;
use vc_api::object::Object;
use vc_api::pod::{Container, Pod};
use vc_api::quantity::resource_list;
use vc_api::time::Timestamp;
use vc_client::Encoding;
use vc_wire::{codec, DecodeCache, EncodeLookups};

struct ThreadCountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
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

fn allocations_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
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

/// The list frame a server sends for `objects`.
fn list_frame(objects: &[Object]) -> Vec<u8> {
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
    frame
}

#[test]
fn list_decode_costs_about_a_clone_and_encode_about_its_buffer() {
    let objects = stored_pods();
    let frame = list_frame(&objects);

    // What a LIST must build at the least: every object, each in an `Arc`.
    let (floor, cloned) =
        allocations_during(|| objects.iter().map(|o| Arc::new(o.clone())).collect::<Vec<_>>());
    // What a plain decode of the frame builds.
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

#[test]
fn listing_the_same_frame_again_builds_no_object() {
    let objects = stored_pods();
    let frame = list_frame(&objects);
    let (decoding, _) = allocations_during(|| {
        let (_, items) = codec::read_list_frame::<Object>(&frame).expect("decode");
        items.into_iter().map(Arc::new).collect::<Vec<_>>()
    });
    let cache = DecodeCache::default();
    let (cold, (_, first)) = allocations_during(|| cache.decode_list(&frame).expect("decode"));
    // A first sight pays the decode, a copy of each item's bytes, each
    // item's own dictionary and the cache's growth.
    assert!(
        cold <= decoding + 3 * objects.len(),
        "a cold list of 50 pods made {cold} allocations, a plain decode {decoding}"
    );
    let (n, (revision, again)) = allocations_during(|| cache.decode_list(&frame).expect("decode"));
    assert_eq!(revision, 7);
    assert!(first.iter().zip(&again).all(|(a, b)| Arc::ptr_eq(a, b)), "the same objects");
    assert!(again.iter().map(|o| &**o).eq(&objects));
    assert!(n <= 2, "a warm list of 50 pods made {n} allocations: the slices and the result");
}

#[test]
fn a_watch_event_of_created_bytes_builds_no_object() {
    let cache = DecodeCache::default();
    let pod = &stored_pods()[2]; // a fat pod
                                 // The create response, then the watch event the same write caused:
                                 // both carry the stored object's one encoding.
    let response = codec::to_framed_vec(codec::FRAME_OBJECT, pod);
    let payload = codec::frame_payload(&response, codec::FRAME_OBJECT).expect("object frame");
    let created = cache.decode(payload).expect("decode");
    let mut chunk = Vec::new();
    codec::write_event_frame(&mut chunk, codec::EVENT_ADDED, 1_002, Some(payload));
    let (n, event) = allocations_during(|| {
        let frame = codec::split_event_frames(&chunk).next().expect("a frame").expect("a frame");
        cache.decode(frame.object.expect("an object")).expect("decode")
    });
    assert!(Arc::ptr_eq(&created, &event));
    assert_eq!(n, 0, "a watch event of decoded bytes made {n} allocations");
}

#[test]
fn an_encode_cache_miss_allocates_its_bytes_once() {
    let objects: Vec<Arc<Object>> = stored_pods().into_iter().map(Arc::new).collect();
    let lookups = EncodeLookups::default();
    // The first miss sizes this thread's encoder buffer.
    lookups.encode(&objects[2], Encoding::Binary);
    let (mut misses, mut allocs, mut interning) = (0, 0, 0);
    for obj in objects.iter().filter(|o| !Arc::ptr_eq(o, &objects[2])) {
        // What the encoder's dictionary costs for this object, into an
        // output buffer that needs no growth.
        let mut out = Vec::with_capacity(64 * 1024);
        interning += allocations_during(|| codec::encode(&**obj, &mut out)).0;
        let (n, encoded) = allocations_during(|| lookups.encode(obj, Encoding::Binary));
        assert_eq!(&encoded[..], &out[..]);
        allocs += n;
        misses += 1;
    }
    assert_eq!(lookups.misses.get(), 50);
    // Past the dictionary: one allocation for each object's bytes.
    assert!(
        allocs <= interning + misses,
        "{misses} misses made {allocs} allocations; their dictionaries alone {interning}"
    );
}

#[test]
fn a_json_encode_cache_miss_allocates_its_bytes_once() {
    // The same miss path as `vcbin`: the JSON text goes into the thread's
    // reused buffer, then into one buffer of its exact size.
    let objects: Vec<Arc<Object>> = stored_pods().into_iter().map(Arc::new).collect();
    let lookups = EncodeLookups::default();
    // The first miss sizes this thread's encoder buffer.
    lookups.encode(&objects[2], Encoding::Json);
    let (mut misses, mut allocs) = (0, 0);
    for obj in objects.iter().filter(|o| !Arc::ptr_eq(o, &objects[2])) {
        let (n, encoded) = allocations_during(|| lookups.encode(obj, Encoding::Json));
        assert_eq!(&encoded[..], serde_json::to_string(&**obj).expect("serializes").as_bytes());
        allocs += n;
        misses += 1;
    }
    assert_eq!(lookups.misses.get(), 50);
    // JSON text interns nothing: one allocation for each object's bytes.
    assert!(allocs <= misses, "{misses} misses made {allocs} allocations");
}
