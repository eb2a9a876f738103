//! Allocation pins for HTTP framing on a warm keep-alive connection. The
//! server reads a request into the connection's buffers and borrows its
//! head from them; the client reads a response head into a line buffer
//! and the body into a buffer the connection keeps. Once those buffers
//! have grown to fit, neither end allocates to frame a request.
//!
//! The same holds for a list body: the server splices the encoding each
//! item holds into the connection's body buffer, so once the items are
//! encoded and the buffer fits, serving a list allocates nothing.
//!
//! A watch is read on the thread that receives from it: the chunk goes
//! into the connection's body buffer and its events into the watch's
//! reused event buffer, and an event of bytes the client has decoded
//! before hands out the object it decoded then. So a warm `vcbin` watch
//! receiving the events of the client's own writes allocates nothing on
//! the consumer's thread.
//!
//! The allocator counts only the calling thread's allocations, so the
//! server's threads and tests running in parallel do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::{Container, Pod};
use vc_apiserver::ApiServer;
use vc_client::{Encoding, ObjectApi};
use vc_wire::http::{self, RequestBuf};
use vc_wire::{codec, EncodeLookups, WireClient, WireServer, WireServerConfig};

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

/// A connected loopback pair: the writing end and a buffered reader over
/// the other.
fn loopback() -> (TcpStream, BufReader<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (reader, _) = listener.accept().unwrap();
    (writer, BufReader::new(reader))
}

/// The heads a `WireClient` sends, as a server reads them.
const GET: &str = "GET /api/pods/tenant-a/stress-00001 HTTP/1.1\r\nhost: 127.0.0.1:4000\r\n\
                   x-vc-user: tenant-a-user\r\naccept: application/vcbin\r\n\r\n";
const LIST: &str = "GET /api/pods?namespace=tenant-a HTTP/1.1\r\nhost: 127.0.0.1:4000\r\n\
                    x-vc-user: tenant-a-user\r\naccept: application/vcbin\r\n\r\n";

fn put() -> Vec<u8> {
    let body = vec![7u8; 600];
    let mut req = format!(
        "PUT /api/pods/tenant-a/stress-00001 HTTP/1.1\r\nhost: 127.0.0.1:4000\r\n\
         x-vc-user: tenant-a-user\r\naccept: application/vcbin\r\ncontent-length: {}\r\n\
         content-type: application/vcbin\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

#[test]
fn a_warm_connection_reads_requests_without_allocating() {
    let (mut writer, mut reader) = loopback();
    let mut buf = RequestBuf::default();
    let put = put();
    for (name, bytes) in [("GET", GET.as_bytes()), ("LIST", LIST.as_bytes()), ("PUT", &put)] {
        // The first read sizes the buffers; the second is the warm one.
        for warm in [false, true] {
            writer.write_all(bytes).unwrap();
            let (n, wire_len) = allocations_during(|| {
                let req = http::read_request(&mut reader, &mut buf).unwrap().expect("a request");
                assert_eq!(req.user, Some("tenant-a-user"));
                if name == "LIST" {
                    assert_eq!(req.query_param("namespace"), Some("tenant-a"));
                }
                req.wire_len
            });
            assert_eq!(wire_len, bytes.len());
            if warm {
                assert_eq!(n, 0, "a warm {name} made {n} allocations");
            }
        }
    }
}

#[test]
fn a_warm_connection_reads_responses_without_allocating() {
    let (mut writer, mut reader) = loopback();
    let (mut line, mut body) = (Vec::new(), Vec::new());
    let mut response =
        b"HTTP/1.1 200 OK\r\ncontent-type: application/vcbin\r\ncontent-length: 2048\r\n\r\n"
            .to_vec();
    response.extend_from_slice(&[3u8; 2048]);
    for warm in [false, true] {
        writer.write_all(&response).unwrap();
        let (n, resp) = allocations_during(|| {
            http::read_response_head(&mut reader, &mut line, &mut body).unwrap()
        });
        assert_eq!(
            (resp.status, resp.encoding, resp.content_length),
            (200, Encoding::Binary, 2048)
        );
        assert_eq!(body.len(), 2048);
        if warm {
            assert_eq!(n, 0, "a warm response made {n} allocations");
        }
    }
}

#[test]
fn a_warm_binary_get_of_a_cached_object_allocates_nothing_on_the_caller() {
    let api = ApiServer::new_default("http-allocs");
    api.create("admin", Pod::new("default", "p0").into()).unwrap();
    let server = WireServer::start(api, WireServerConfig::default()).expect("bind");
    let client = WireClient::with_limits(server.local_addr().to_string(), "admin", 1e9, 1 << 30)
        .with_codec(Encoding::Binary);
    // Connect, size the buffers, and decode the object once.
    for _ in 0..2 {
        client.get(ResourceKind::Pod, "default", "p0").unwrap();
    }
    let (n, pod) = allocations_during(|| client.get(ResourceKind::Pod, "default", "p0").unwrap());
    assert_eq!(pod.meta().name, "p0");
    assert_eq!(n, 0, "a warm binary GET made {n} allocations on the calling thread");
    server.shutdown();
}

#[test]
fn a_warm_binary_watch_of_the_clients_own_writes_allocates_nothing_on_the_consumer() {
    let api = ApiServer::new_default("watch-allocs");
    let server = WireServer::start(api, WireServerConfig::default()).expect("bind");
    let client = WireClient::with_limits(server.local_addr().to_string(), "admin", 1e9, 1 << 30)
        .with_codec(Encoding::Binary);
    let (_, revision) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    let watch = client.watch(ResourceKind::Pod, Some("default"), revision).unwrap();
    // The first rounds size the connection's buffers and the event buffer.
    for round in 0..8 {
        let pod = Pod::new("default", format!("w{round}"))
            .with_container(Container::new("app", "stress:1"));
        // The create's response decodes the stored object's bytes, which
        // its watch event carries again.
        let created = client.create(pod.into()).unwrap();
        let (n, outcome) =
            allocations_during(|| watch.recv_deadline(std::time::Duration::from_secs(5)));
        let vc_store::RecvOutcome::Event(event) = outcome else {
            panic!("round {round}: {outcome:?} instead of the create's event");
        };
        assert!(Arc::ptr_eq(&event.object, &created), "round {round}: the object decoded once");
        if round >= 2 {
            assert_eq!(n, 0, "a warm binary watch event made {n} allocations on the consumer");
        }
    }
    server.shutdown();
}

/// Fifty pods as a store lists them, each at its own revision.
fn stored_pods() -> Vec<Arc<Object>> {
    (0..50u64)
        .map(|i| {
            let mut pod = Pod::new("tenant-a", format!("stress-{i:05}"))
                .with_container(Container::new("app", "stress:1"));
            pod.meta.resource_version = 1_000 + i;
            Arc::new(pod.into())
        })
        .collect()
}

#[test]
fn a_list_of_cached_items_is_written_into_a_warm_buffer_without_allocating() {
    let lookups = EncodeLookups::default();
    let pods = stored_pods();
    for encoding in [Encoding::Binary, Encoding::Json] {
        let mut out = Vec::new();
        // The first list encodes every item and sizes the buffer.
        lookups.write_list(&pods, 77, encoding, &mut out);
        let first = out.clone();
        out.clear();
        let (n, ()) = allocations_during(|| lookups.write_list(&pods, 77, encoding, &mut out));
        assert_eq!(out, first);
        assert_eq!(n, 0, "a warm {encoding:?} list of 50 pods made {n} allocations");
    }
    assert_eq!(lookups.misses.get(), 100, "each pod encoded once per codec");
}

#[test]
fn a_spliced_list_is_byte_identical_to_a_freshly_encoded_one() {
    let lookups = EncodeLookups::default();
    for pods in [stored_pods(), Vec::new()] {
        let fresh: Vec<Vec<u8>> = pods
            .iter()
            .map(|pod| {
                let mut out = Vec::new();
                codec::encode(&**pod, &mut out);
                out
            })
            .collect();
        let mut framed = Vec::new();
        codec::write_list_frame(&mut framed, 77, fresh.iter().map(Vec::as_slice));
        let mut out = Vec::new();
        lookups.write_list(&pods, 77, Encoding::Binary, &mut out);
        assert_eq!(out, framed, "vcbin, {} items", pods.len());
        let (revision, items) = codec::read_list_frame::<Object>(&out).expect("a list frame");
        assert_eq!(revision, 77);
        assert!(items.iter().eq(pods.iter().map(|pod| &**pod)));

        let items: Vec<String> =
            pods.iter().map(|pod| serde_json::to_string(&**pod).unwrap()).collect();
        let json = format!("{{\"resource_version\":77,\"items\":[{}]}}", items.join(","));
        out.clear();
        lookups.write_list(&pods, 77, Encoding::Json, &mut out);
        assert_eq!(String::from_utf8(out).unwrap(), json, "JSON, {} items", pods.len());
    }
}
