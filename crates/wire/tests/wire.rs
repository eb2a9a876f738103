//! Wire-protocol semantics over real sockets: the list→watch handoff,
//! disconnect/reconnect resume, slow-reader isolation, mixed-codec
//! clients, pipelined reads, transparent watch reconnect, the cap on
//! concurrently executing requests, the checks that a request's path
//! and body agree, fresh contents after a server restart that re-issues
//! revisions, fresh bytes for an object moved out of its `Arc` and
//! written back, the write-timeout contract for a `WireClient` watch that
//! stops receiving, and zero and near-zero receive deadlines. These are
//! the contracts a controller relies on when it attaches over the network
//! instead of in-process.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::config::ConfigMap;
use vc_api::namespace::Namespace;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::{Container, Pod};
use vc_api::time::RealClock;
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::{Client, Encoding, ObjectApi};
use vc_store::{RecvOutcome, StoreConfig};
use vc_wire::{WireClient, WireServer, WireServerConfig};

fn start_server(cfg: WireServerConfig) -> (Arc<ApiServer>, WireServer) {
    let api = ApiServer::new_default("wire-test");
    let server = WireServer::start(api.clone(), cfg).expect("bind wire server");
    (api, server)
}

/// A list at revision R followed by a watch from R sees exactly the
/// writes after the list — nothing replayed, nothing lost — across a
/// real socket.
#[test]
fn list_watch_handoff_over_socket() {
    let (_api, server) = start_server(WireServerConfig::default());
    let client =
        WireClient::with_limits(server.local_addr().to_string(), "tenant-a", 10_000.0, 1000);

    for i in 0..5 {
        client.create(Pod::new("default", format!("pre-{i}")).into()).unwrap();
    }
    let (items, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    assert_eq!(items.len(), 5);
    assert!(rev > 0);

    let watch = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();
    for i in 0..5 {
        client.create(Pod::new("default", format!("post-{i}")).into()).unwrap();
    }

    let mut seen = Vec::new();
    let mut last_rev = rev;
    while seen.len() < 5 {
        let ev = watch.recv_timeout_ms(5000).expect("watch event before timeout");
        assert!(ev.revision > last_rev, "revisions strictly increase across the wire");
        last_rev = ev.revision;
        seen.push(ev.object.meta().name.clone());
    }
    assert_eq!(seen, ["post-0", "post-1", "post-2", "post-3", "post-4"]);
    // Nothing else arrives: the pre-list writes were not replayed.
    assert!(watch.recv_timeout_ms(200).is_none());
    server.shutdown();
}

/// Disconnecting a watch and re-watching from the last delivered revision
/// resumes with no lost and no duplicated events.
#[test]
fn watch_resume_after_reconnect() {
    let (_api, server) = start_server(WireServerConfig::default());
    let client =
        WireClient::with_limits(server.local_addr().to_string(), "tenant-b", 10_000.0, 1000);

    let (_, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    let watch = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();
    for i in 0..6 {
        client.create(Pod::new("default", format!("p-{i}")).into()).unwrap();
    }

    let mut delivered = Vec::new();
    let mut last_rev = rev;
    for _ in 0..3 {
        let ev = watch.recv_timeout_ms(5000).expect("first half of the stream");
        last_rev = ev.revision;
        delivered.push(ev.object.meta().name.clone());
    }
    drop(watch); // hard disconnect mid-stream

    // More writes land while nobody is watching.
    for i in 6..9 {
        client.create(Pod::new("default", format!("p-{i}")).into()).unwrap();
    }

    let resumed = client.watch(ResourceKind::Pod, Some("default"), last_rev).unwrap();
    while delivered.len() < 9 {
        let ev = resumed.recv_timeout_ms(5000).expect("resumed stream event");
        assert!(ev.revision > last_rev, "resume replays strictly after the handoff revision");
        last_rev = ev.revision;
        delivered.push(ev.object.meta().name.clone());
    }
    let expected: Vec<String> = (0..9).map(|i| format!("p-{i}")).collect();
    assert_eq!(delivered, expected, "no event lost or duplicated across the reconnect");
    assert!(resumed.recv_timeout_ms(200).is_none());
    server.shutdown();
}

/// The image of a listed, fetched or watched pod.
fn image(obj: &Object) -> &str {
    &obj.as_pod().expect("a pod").spec.containers[0].image
}

/// A server restarted at the same address over a fresh in-memory store
/// re-issues the same revisions for different objects. A client that
/// listed and watched before the restart gets the new contents after it:
/// what it decoded is keyed by the bytes, not by the revision.
#[test]
fn restarted_server_reissuing_revisions_serves_new_contents() {
    let pods = |image: &'static str| {
        (0..3).map(move |i| {
            Pod::new("default", format!("p-{i}")).with_container(Container::new("app", image))
        })
    };
    let (api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let client =
        WireClient::with_limits(&addr, "tenant-a", 10_000.0, 1000).with_codec(Encoding::Binary);
    let (_, from) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    let watch = client.watch(ResourceKind::Pod, Some("default"), from).unwrap();
    let seeder = Client::system(api, "seeder");
    let old: Vec<u64> =
        pods("old:1").map(|p| seeder.create(p.into()).unwrap().meta().resource_version).collect();
    for _ in &old {
        assert_eq!(image(&watch.recv_timeout_ms(5000).expect("event").object), "old:1");
    }
    let (items, _) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    assert!(items.iter().all(|o| image(o) == "old:1"));
    assert_eq!(client.decode_cache().hits(), 3, "the list shared the watched objects");
    server.shutdown();

    // The same writes, with other contents, into a fresh store, served at
    // the same address.
    let api = ApiServer::new_default("wire-test");
    let seeder = Client::system(Arc::clone(&api), "seeder");
    let new: Vec<u64> =
        pods("new:2").map(|p| seeder.create(p.into()).unwrap().meta().resource_version).collect();
    assert_eq!(new, old, "the fresh store re-issues the same revisions");
    let cfg = WireServerConfig { addr, ..WireServerConfig::default() };
    let server = WireServer::start(api, cfg).expect("rebind the same address");

    let (items, _) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    assert_eq!(items.iter().map(|o| image(o)).collect::<Vec<_>>(), ["new:2"; 3]);
    let got = client.get(ResourceKind::Pod, "default", "p-1").unwrap();
    assert_eq!(image(&got), "new:2");
    let replay = client.watch(ResourceKind::Pod, Some("default"), from).unwrap();
    for revision in &new {
        let ev = replay.recv_timeout_ms(5000).expect("replayed event");
        assert_eq!((ev.revision, image(&ev.object)), (*revision, "new:2"));
    }
    // The watch opened before the restart reconnects from the last
    // revision it delivered and sees the next write.
    let mut p0: Pod = Pod::try_from(Arc::clone(&items[0])).unwrap();
    p0.meta.labels.insert("touched".into(), "yes".into());
    seeder.update(p0.into()).unwrap();
    let ev = watch.recv_timeout_ms(5000).expect("event after the reconnect");
    assert_eq!(ev.object.meta().name, "p-0");
    assert_eq!(image(&ev.object), "new:2");
    server.shutdown();
}

/// One stalled watcher (a connection that never reads) cannot stall
/// fan-out: a healthy watcher on the same kind keeps receiving promptly
/// and the stalled one is degraded instead of waited on.
#[test]
fn slow_reader_does_not_stall_fanout() {
    let cfg = WireServerConfig {
        write_timeout: Duration::from_millis(200),
        ..WireServerConfig::default()
    };
    let (_api, server) = start_server(cfg);
    let addr = server.local_addr().to_string();
    let client = WireClient::with_limits(addr.clone(), "tenant-c", 100_000.0, 10_000);

    let (_, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();

    // The stalled watcher: speaks just enough HTTP to open the stream,
    // then never reads a byte off the socket.
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .write_all(
            format!(
                "GET /watch/Pod?namespace=default&from={rev} HTTP/1.1\r\n\
                 host: x\r\nx-vc-user: tenant-c\r\ncontent-length: 0\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    stalled.flush().unwrap();

    let healthy = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();

    // Each event carries a ~64 KiB annotation so the stalled connection's
    // socket buffers fill fast and its server-side writes hit the timeout.
    let blob = "x".repeat(64 * 1024);
    let total = 120;
    for i in 0..total {
        let mut pod = Pod::new("default", format!("big-{i}"));
        pod.meta.annotations.insert("payload".into(), blob.clone());
        client.create(pod.into()).unwrap();
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut received = 0;
    while received < total && Instant::now() < deadline {
        if healthy.recv_timeout_ms(5000).is_some() {
            received += 1;
        }
    }
    assert_eq!(received, total, "healthy watcher saw every event despite the stalled peer");
    // The stalled watcher was degraded (write timeout or store eviction),
    // not waited on.
    let waited = Instant::now() + Duration::from_secs(10);
    while server.metrics().degraded_watchers.get() == 0 && Instant::now() < waited {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        server.metrics().degraded_watchers.get() >= 1,
        "stalled watcher should be counted as degraded"
    );
    server.shutdown();
}

/// A `vcbin` client and a JSON client attached to the same server see
/// identical semantics: cross-codec CRUD, a shared watch fan-out (one
/// store event → both codecs), and error parity. The encode cache holds
/// both encodings of the same revision side by side.
#[test]
fn mixed_codec_clients_share_one_server() {
    let (_api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let json = WireClient::with_limits(addr.clone(), "tenant-j", 10_000.0, 1000);
    let binary =
        WireClient::with_limits(addr, "tenant-b", 10_000.0, 1000).with_codec(Encoding::Binary);

    // Binary writes, JSON reads — and vice versa.
    let created = binary.create(Pod::new("default", "from-binary").into()).unwrap();
    assert!(created.meta().resource_version > 0);
    let via_json = json.get(ResourceKind::Pod, "default", "from-binary").unwrap();
    assert_eq!(via_json, created);
    json.create(Pod::new("default", "from-json").into()).unwrap();
    let via_binary = binary.get(ResourceKind::Pod, "default", "from-json").unwrap();
    assert_eq!(via_binary.meta().name, "from-json");

    // Lists agree item-for-item and revision-for-revision.
    let (items_j, rev_j) = json.list(ResourceKind::Pod, Some("default")).unwrap();
    let (items_b, rev_b) = binary.list(ResourceKind::Pod, Some("default")).unwrap();
    assert_eq!(rev_j, rev_b);
    assert_eq!(items_j, items_b);

    // Both codecs watch the same store; one event fans out to each in
    // its own encoding.
    let watch_j = json.watch(ResourceKind::Pod, Some("default"), rev_j).unwrap();
    let watch_b = binary.watch(ResourceKind::Pod, Some("default"), rev_b).unwrap();
    binary.create(Pod::new("default", "fanned-out").into()).unwrap();
    let ev_j = watch_j.recv_timeout_ms(5000).expect("json watcher event");
    let ev_b = watch_b.recv_timeout_ms(5000).expect("binary watcher event");
    assert_eq!(ev_j.revision, ev_b.revision);
    assert_eq!(ev_j.object, ev_b.object);

    // Error parity: the binary client classifies failures exactly like
    // the JSON client.
    let missing_j = json.get(ResourceKind::Pod, "default", "nope").unwrap_err();
    let missing_b = binary.get(ResourceKind::Pod, "default", "nope").unwrap_err();
    assert_eq!(missing_j, missing_b);
    assert!(missing_b.is_not_found());
    let dup = binary.create(Pod::new("default", "from-json").into()).unwrap_err();
    assert!(dup.is_already_exists());
    server.shutdown();
}

/// Pipelined `get_batch`: every request head leaves before the first
/// response is read, responses come back in order, and per-item failures
/// land in their own slot without poisoning the batch.
#[test]
fn pipelined_get_batch_preserves_order() {
    let (_api, server) = start_server(WireServerConfig::default());
    for codec in [Encoding::Json, Encoding::Binary] {
        let client =
            WireClient::with_limits(server.local_addr().to_string(), "tenant-p", 10_000.0, 1000)
                .with_codec(codec);
        for i in 0..8 {
            client
                .create(Pod::new("default", format!("batch-{}-{i}", codec.as_str())).into())
                .unwrap();
        }
        let names: Vec<String> = (0..8).map(|i| format!("batch-{}-{i}", codec.as_str())).collect();
        let mut items: Vec<(&str, &str)> = names.iter().map(|n| ("default", n.as_str())).collect();
        items.insert(4, ("default", "missing-pod")); // a hole mid-batch
        let results = client.get_batch(ResourceKind::Pod, &items).unwrap();
        assert_eq!(results.len(), 9);
        for (i, (_, name)) in items.iter().enumerate() {
            match &results[i] {
                Ok(obj) => assert_eq!(&obj.meta().name, name, "slot {i} out of order"),
                Err(e) => {
                    assert_eq!(*name, "missing-pod");
                    assert!(e.is_not_found(), "slot {i}: {e}");
                }
            }
        }
    }
    server.shutdown();
}

/// A TCP relay whose connections can be severed on demand, to force the
/// client through its reconnect path while the server stays healthy.
struct FlakyRelay {
    addr: String,
    paused: Arc<AtomicBool>,
    conns: Arc<parking_lot::Mutex<Vec<TcpStream>>>,
}

impl FlakyRelay {
    fn start(upstream: String) -> FlakyRelay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let addr = listener.local_addr().unwrap().to_string();
        let paused = Arc::new(AtomicBool::new(false));
        let conns: Arc<parking_lot::Mutex<Vec<TcpStream>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        {
            let paused = paused.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                for accepted in listener.incoming() {
                    let Ok(down) = accepted else { break };
                    if paused.load(Ordering::SeqCst) {
                        let _ = down.shutdown(Shutdown::Both);
                        continue; // connection refused-ish: reconnects fail
                    }
                    let Ok(up) = TcpStream::connect(&upstream) else {
                        let _ = down.shutdown(Shutdown::Both);
                        continue;
                    };
                    let mut registry = conns.lock();
                    for (mut from, mut to) in [
                        (down.try_clone().unwrap(), up.try_clone().unwrap()),
                        (up.try_clone().unwrap(), down.try_clone().unwrap()),
                    ] {
                        std::thread::spawn(move || {
                            let _ = std::io::copy(&mut from, &mut to);
                            let _ = to.shutdown(Shutdown::Both);
                        });
                    }
                    registry.push(down);
                    registry.push(up);
                }
            });
        }
        FlakyRelay { addr, paused, conns }
    }

    /// Kills every live relayed connection and refuses new ones.
    fn sever(&self) {
        self.paused.store(true, Ordering::SeqCst);
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Accepts connections again.
    fn restore(&self) {
        self.paused.store(false, Ordering::SeqCst);
    }
}

/// Regression test for the reconnect anchor: an event committed while
/// the watch connection is down must be replayed after the transparent
/// reconnect — the client re-anchors at the last revision it *delivered*,
/// so nothing in the gap is lost and nothing before it is duplicated.
#[test]
fn watch_reconnect_replays_event_from_reconnect_window() {
    for codec in [Encoding::Json, Encoding::Binary] {
        let (_api, server) = start_server(WireServerConfig::default());
        let relay = FlakyRelay::start(server.local_addr().to_string());
        // Watch through the flaky relay; mutate via a direct connection
        // so writes keep working while the relay is severed.
        let direct =
            WireClient::with_limits(server.local_addr().to_string(), "tenant-r", 10_000.0, 1000);
        let watcher = WireClient::with_limits(relay.addr.clone(), "tenant-r", 10_000.0, 1000)
            .with_codec(codec);

        let (_, rev) = direct.list(ResourceKind::Pod, Some("default")).unwrap();
        let watch = watcher.watch(ResourceKind::Pod, Some("default"), rev).unwrap();

        direct.create(Pod::new("default", "before-cut").into()).unwrap();
        let first = watch.recv_timeout_ms(5000).expect("event before the cut");
        assert_eq!(first.object.meta().name, "before-cut");

        // Cut the wire, let an event land in the gap, then heal.
        relay.sever();
        direct.create(Pod::new("default", "during-cut").into()).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        relay.restore();

        let replayed = watch.recv_timeout_ms(10_000).expect("event committed during the cut");
        assert_eq!(
            replayed.object.meta().name,
            "during-cut",
            "codec {codec:?}: reconnect must re-anchor at the last delivered revision"
        );
        assert!(replayed.revision > first.revision);
        // No duplicates: the next thing on the stream is a fresh event,
        // not a replay of `before-cut`.
        direct.create(Pod::new("default", "after-heal").into()).unwrap();
        let next = watch.recv_timeout_ms(5000).expect("post-heal event");
        assert_eq!(next.object.meta().name, "after-heal");
        drop(watch);
        server.shutdown();
    }
}

/// Eight creates at once against an apiserver whose writes take 200 ms:
/// the server executes at most `DISPATCH_WORKERS` (4) of them at a time,
/// so the apiserver never sees more than 4 in flight, and the other 4
/// wait for a permit and then succeed.
#[test]
fn concurrent_requests_are_capped_at_four() {
    let config = ApiServerConfig {
        name: "wire-cap".into(),
        write_latency: Duration::from_millis(200),
        ..Default::default()
    };
    let api = ApiServer::new(config, RealClock::shared());
    let server = WireServer::start(Arc::clone(&api), WireServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let done = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                peak.fetch_max(api.gate().inflight(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let creates: Vec<_> = (0..8)
            .map(|i| {
                let client = WireClient::with_limits(
                    addr.clone(),
                    format!("user-{}", i % 2),
                    10_000.0,
                    1000,
                );
                s.spawn(move || client.create(Pod::new("default", format!("p{i}")).into()))
            })
            .collect();
        for create in creates {
            create.join().unwrap().expect("create succeeds after waiting for a permit");
        }
        done.store(true, Ordering::SeqCst);
    });
    let peak = peak.load(Ordering::SeqCst);
    assert!((1..=4).contains(&peak), "at most 4 requests in flight, saw {peak}");
    assert_eq!(api.list("admin", ResourceKind::Pod, Some("default")).unwrap().0.len(), 8);
    assert_eq!(server.metrics().queue_timeouts.get(), 0);
    server.shutdown();
}

/// Sends one request on a fresh connection and returns the status code.
fn status_of(addr: &str, method: &str, path: &str, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: x\r\nx-vc-user: raw\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line")
}

fn json(obj: impl Into<Object>) -> Vec<u8> {
    serde_json::to_string(&obj.into()).unwrap().into_bytes()
}

/// A watch's `from` must be a revision: `from=abc` is refused instead of
/// replaying the whole event log from 0.
#[test]
fn watch_with_malformed_from_is_invalid() {
    let (_api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    assert_eq!(status_of(&addr, "GET", "/watch/Pod?namespace=default&from=abc", b""), 422);
    server.shutdown();
}

/// A create whose body is another kind than the path's is refused.
#[test]
fn create_body_of_another_kind_is_invalid() {
    let (api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let body = json(ConfigMap::new("default", "cm"));
    assert_eq!(status_of(&addr, "POST", "/api/Pod", &body), 422);
    assert!(api.get("admin", ResourceKind::ConfigMap, "default", "cm").is_err());
    assert_eq!(status_of(&addr, "POST", "/api/ConfigMap", &body), 200);
    server.shutdown();
}

/// An update whose body is another kind than the path's is refused.
#[test]
fn update_body_of_another_kind_is_invalid() {
    let (api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let cm = api.create("admin", ConfigMap::new("default", "a").into()).unwrap();
    let body = serde_json::to_string(&*cm).unwrap();
    assert_eq!(status_of(&addr, "PUT", "/api/Pod/default/a", body.as_bytes()), 422);
    server.shutdown();
}

/// An update whose body names another namespace or another object than
/// the path is refused, and the object the body names is left alone.
#[test]
fn update_body_naming_another_object_is_invalid() {
    let (api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    api.create("admin", Namespace::new("other").into()).unwrap();
    let stored = api.create("admin", Pod::new("other", "b").into()).unwrap();
    let mut edited = (*stored).clone();
    edited.meta_mut().annotations.insert("edited".into(), "yes".into());
    let body = serde_json::to_string(&edited).unwrap();
    assert_eq!(status_of(&addr, "PUT", "/api/Pod/default/b", body.as_bytes()), 422, "namespace");
    assert_eq!(status_of(&addr, "PUT", "/api/Pod/other/c", body.as_bytes()), 422, "name");
    let now = api.get("admin", ResourceKind::Pod, "other", "b").unwrap();
    assert_eq!(now.meta().resource_version, stored.meta().resource_version);
    assert_eq!(status_of(&addr, "PUT", "/api/Pod/other/b", body.as_bytes()), 200);
    server.shutdown();
}

/// An update must name its object in full: kind, namespace and name.
#[test]
fn update_path_without_three_segments_is_invalid() {
    let (api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let stored = api.create("admin", Pod::new("default", "p").into()).unwrap();
    let body = serde_json::to_string(&*stored).unwrap();
    assert_eq!(status_of(&addr, "PUT", "/api/Pod", body.as_bytes()), 422);
    assert_eq!(status_of(&addr, "PUT", "/api/Pod/default", body.as_bytes()), 422);
    assert_eq!(status_of(&addr, "PUT", "/api/Pod/default/p/extra", body.as_bytes()), 422);
    server.shutdown();
}

/// `_` in an update path still stands for the empty namespace of a
/// cluster-scoped object.
#[test]
fn cluster_scoped_update_uses_the_placeholder_namespace() {
    let (api, server) = start_server(WireServerConfig::default());
    let client = WireClient::with_limits(server.local_addr().to_string(), "admin", 10_000.0, 1000);
    let stored = api.create("admin", Namespace::new("team").into()).unwrap();
    let mut edited = (*stored).clone();
    edited.meta_mut().labels.insert("tier".into(), "gold".into());
    let updated = client.update(edited).expect("PUT /api/Namespace/_/team");
    assert_eq!(updated.meta().labels.get("tier").map(String::as_str), Some("gold"));
    server.shutdown();
}

/// Sends `bytes` on a fresh connection, reads the whole answer, and
/// returns its status and whether the server then closed the connection.
fn answer_to(addr: &str, bytes: &[u8]) -> (u16, bool) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    // The rest of the answer, then the end of the stream: a reset counts
    // as closed too, since the server stops reading what the peer sent.
    let mut rest = Vec::new();
    let closed = match reader.read_to_end(&mut rest) {
        Ok(_) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    (status, closed)
}

/// A head line that never ends and a head that never ends are both
/// refused with `400` and a closed connection once they pass their bounds,
/// and the server keeps serving other connections.
#[test]
fn unbounded_head_lines_and_header_floods_are_refused() {
    let (_api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let mut endless_line = b"GET /healthz HTTP/1.1\r\nx-filler: ".to_vec();
    endless_line.resize(endless_line.len() + 128 * 1024, b'a');
    assert_eq!(answer_to(&addr, &endless_line), (400, true), "a 128 KiB line without a newline");
    let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..1_000 {
        flood.extend_from_slice(format!("x-filler-{i}: 1\r\n").as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    assert_eq!(answer_to(&addr, &flood), (400, true), "1,000 headers");
    assert_eq!(status_of(&addr, "GET", "/healthz", b""), 200, "the server still serves");
    server.shutdown();
}

/// `bytes_in` counts exactly the bytes a client wrote: every head and
/// body byte of its requests.
#[test]
fn bytes_in_counts_the_bytes_a_client_wrote() {
    let (api, server) = start_server(WireServerConfig::default());
    let addr = server.local_addr().to_string();
    let stored = api.create("admin", Pod::new("default", "p").into()).unwrap();
    let body = serde_json::to_string(&*stored).unwrap();
    let requests = [
        "GET /api/Pod/default/p HTTP/1.1\r\nhost: x\r\nx-vc-user: admin\r\n\r\n".to_string(),
        format!(
            "PUT /api/Pod/default/p HTTP/1.1\r\nHost: x\r\nX-VC-User: admin\r\n\
             Content-Length: {}\r\nUser-Agent: raw\r\n\r\n{body}",
            body.len()
        ),
        "GET /api/Pod?namespace=default HTTP/1.1\nx-vc-user: admin\nconnection: close\n\n"
            .to_string(),
    ];
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut written = 0;
    for request in &requests {
        stream.write_all(request.as_bytes()).unwrap();
        written += request.len();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 200"), "{request:?} got {line:?}");
        let mut length = 0;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            match line.trim_end().split_once(':') {
                Some((name, value)) if name.eq_ignore_ascii_case("content-length") => {
                    length = value.trim().parse().unwrap();
                }
                Some(_) => {}
                None => break,
            }
        }
        std::io::Read::read_exact(&mut reader, &mut vec![0; length]).unwrap();
    }
    assert_eq!(server.metrics().bytes_in.get(), written as u64);
    server.shutdown();
}

/// A list of more than 1 MiB, then a small one, on one keep-alive
/// connection: the large body is released from the connection's buffer
/// after it is sent, and both lists decode whole in each codec.
#[test]
fn a_list_past_a_mebibyte_then_a_small_one_on_one_connection() {
    let (api, server) = start_server(WireServerConfig::default());
    for namespace in ["big", "small"] {
        api.create("admin", Namespace::new(namespace).into()).unwrap();
    }
    // 300 pods of 4 KiB each: past 1 MiB in either codec.
    let filler = "x".repeat(4096);
    for i in 0..300 {
        let mut pod = Pod::new("big", format!("p-{i:03}"));
        pod.meta.annotations.insert("filler".to_string(), filler.clone());
        api.create("admin", pod.into()).unwrap();
    }
    for i in 0..3 {
        api.create("admin", Pod::new("small", format!("s-{i}")).into()).unwrap();
    }
    for (clients, encoding) in [Encoding::Binary, Encoding::Json].into_iter().enumerate() {
        let client =
            WireClient::with_limits(server.local_addr().to_string(), "admin", 1e9, 1 << 30)
                .with_codec(encoding);
        let (big, revision) = client.list(ResourceKind::Pod, Some("big")).unwrap();
        assert_eq!(big.len(), 300);
        assert!(big.iter().all(|o| o.meta().annotations.get("filler") == Some(&filler)));
        let (small, again) = client.list(ResourceKind::Pod, Some("small")).unwrap();
        let mut names: Vec<&str> = small.iter().map(|o| o.meta().name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["s-0", "s-1", "s-2"], "{encoding:?}");
        assert_eq!(again, revision);
        assert_eq!(server.metrics().connections_opened.get(), clients as u64 + 1, "{encoding:?}");
    }
    server.shutdown();
}

/// An owned copy moved out of a uniquely held `Arc` keeps the encodings
/// the wire tier filled on it. The store empties them where it gives the
/// copy its new revision, so once the copy is written back, GET, LIST and
/// the watch event all carry the new state in both codecs.
#[test]
fn an_object_moved_out_of_its_arc_and_written_back_is_served_fresh() {
    // An event log of one entry per kind: once the pod is rewritten, the
    // store holds nothing of its first revision.
    let store = StoreConfig { event_log_capacity: 1, ..Default::default() };
    let config = ApiServerConfig { name: "moved-out".into(), store, ..Default::default() };
    let api = ApiServer::new(config, RealClock::shared());
    let server = WireServer::start(api.clone(), WireServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let json = WireClient::with_limits(addr.clone(), "tenant-j", 10_000.0, 1000);
    let binary =
        WireClient::with_limits(addr, "tenant-b", 10_000.0, 1000).with_codec(Encoding::Binary);
    let local = Client::new(api.clone(), "tenant-l");
    let label = |obj: &Object| obj.meta().labels.get("v").cloned();

    let mut pod = Pod::new("default", "p");
    pod.meta.labels.insert("v".into(), "old".into());
    local.create(pod.into()).unwrap();
    // Both codecs read the pod, so both of its slots fill.
    json.get(ResourceKind::Pod, "default", "p").unwrap();
    binary.get(ResourceKind::Pod, "default", "p").unwrap();
    let first = local.get(ResourceKind::Pod, "default", "p").unwrap();
    assert!(first.meta().encodings.get(0).is_some() && first.meta().encodings.get(1).is_some());

    // Rewrite the pod through a copy: the index and the event log move on
    // to the new revision, and `first` is the last holder of the old one.
    let rewritten = local.update((*first).clone()).unwrap();
    let revision = rewritten.meta().resource_version;
    drop(rewritten);
    let watch_j = json.watch(ResourceKind::Pod, Some("default"), revision).unwrap();
    let watch_b = binary.watch(ResourceKind::Pod, Some("default"), revision).unwrap();

    let mut owned = Pod::try_from(first).unwrap();
    // Moved, not copied: the owned pod still holds the old state's bytes.
    assert!(owned.meta.encodings.get(0).is_some() && owned.meta.encodings.get(1).is_some());
    owned.meta.labels.insert("v".into(), "new".into());
    owned.meta.resource_version = revision;
    local.update(owned.into()).unwrap();

    for client in [&json, &binary] {
        let got = client.get(ResourceKind::Pod, "default", "p").unwrap();
        assert_eq!(label(&got).as_deref(), Some("new"), "GET");
        let (items, _) = client.list(ResourceKind::Pod, Some("default")).unwrap();
        assert_eq!(label(&items[0]).as_deref(), Some("new"), "LIST");
    }
    for watch in [watch_j, watch_b] {
        let event = watch.recv_timeout_ms(5000).expect("the update's watch event");
        assert_eq!(label(&event.object).as_deref(), Some("new"), "watch event");
    }
    server.shutdown();
}

/// A `WireClient` watch whose consumer stops receiving stops reading its
/// socket: the server's writes to it blow their write timeout and the
/// watcher is degraded, instead of its backlog growing in client memory.
/// Draining the watch afterwards reconnects from the last event decoded
/// and still delivers every event exactly once, in revision order.
#[test]
fn a_stalled_wire_client_watch_is_degraded_then_drains_every_event_once() {
    for codec in [Encoding::Json, Encoding::Binary] {
        let cfg = WireServerConfig {
            write_timeout: Duration::from_millis(200),
            ..WireServerConfig::default()
        };
        let (_api, server) = start_server(cfg);
        let client =
            WireClient::with_limits(server.local_addr().to_string(), "tenant-s", 1e9, 1 << 30)
                .with_codec(codec);
        let (_, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
        let watch = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();

        // 32 MiB of events, far past what the loopback socket buffers hold.
        let blob = "x".repeat(64 * 1024);
        let total = 512;
        for i in 0..total {
            let mut pod = Pod::new("default", format!("big-{i:03}"));
            pod.meta.annotations.insert("payload".into(), blob.clone());
            client.create(pod.into()).unwrap();
        }
        let waited = Instant::now() + Duration::from_secs(10);
        while server.metrics().degraded_watchers.get() == 0 && Instant::now() < waited {
            std::thread::sleep(Duration::from_millis(20));
        }

        let mut names = Vec::with_capacity(total);
        let mut last = rev;
        while names.len() < total {
            match watch.recv_deadline(Duration::from_secs(10)) {
                RecvOutcome::Event(ev) => {
                    assert!(ev.revision > last, "{codec:?}: revision {} after {last}", ev.revision);
                    last = ev.revision;
                    names.push(ev.object.meta().name.clone());
                }
                other => panic!("{codec:?}: {other:?} after {} events", names.len()),
            }
        }
        let expected: Vec<String> = (0..total).map(|i| format!("big-{i:03}")).collect();
        assert_eq!(names, expected, "{codec:?}: every event exactly once, in order");
        assert!(watch.recv_timeout_ms(200).is_none(), "{codec:?}: nothing past the last write");
        assert!(
            server.metrics().degraded_watchers.get() >= 1,
            "{codec:?}: the stalled watch should be degraded by the write timeout"
        );
        server.shutdown();
    }
}

/// A zero or 1 µs deadline looks without waiting: on an idle live stream
/// it times out, never closes, and an event already on the socket or in
/// the watch's buffer comes back at once.
#[test]
fn zero_and_microsecond_deadlines_time_out_when_idle_and_return_ready_events() {
    for codec in [Encoding::Json, Encoding::Binary] {
        let (_api, server) = start_server(WireServerConfig::default());
        let client =
            WireClient::with_limits(server.local_addr().to_string(), "tenant-z", 1e9, 1 << 30)
                .with_codec(codec);
        let (_, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
        let watch = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();
        let mut sent = 0;
        for timeout in [Duration::ZERO, Duration::from_micros(1)] {
            for _ in 0..3 {
                let outcome = watch.recv_deadline(timeout);
                assert!(matches!(outcome, RecvOutcome::Timeout), "{codec:?} idle: {outcome:?}");
            }
            // Three writes whose events the server has put on the socket
            // before the first receive: one or more chunks, read by the
            // first receive and handed out from the buffers after it.
            let names: Vec<String> =
                (0..3).map(|i| format!("z-{}-{i}", timeout.as_micros())).collect();
            for name in &names {
                client.create(Pod::new("default", name.clone()).into()).unwrap();
            }
            sent += 3;
            let waited = Instant::now() + Duration::from_secs(10);
            while server.metrics().watch_events_sent.get() < sent && Instant::now() < waited {
                std::thread::sleep(Duration::from_millis(1));
            }
            for name in &names {
                match watch.recv_deadline(timeout) {
                    RecvOutcome::Event(ev) => assert_eq!(&ev.object.meta().name, name),
                    other => panic!("{codec:?} {timeout:?}: {other:?} instead of {name}"),
                }
            }
            let outcome = watch.recv_deadline(timeout);
            assert!(matches!(outcome, RecvOutcome::Timeout), "{codec:?} drained: {outcome:?}");
        }
        server.shutdown();
    }
}
