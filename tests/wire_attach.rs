//! Wire-attached tenant: a framework tenant's control plane served over a
//! real TCP socket. A tenant workload that only speaks the wire protocol
//! (HTTP/1.1 CRUD + chunked watch) drives a pod through the full
//! multi-tenant pipeline — tenant apiserver, downward sync to the super
//! cluster, scheduling, and the upward Ready status — while an anchored
//! wire watch streams every transition.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use virtualcluster::api::object::ResourceKind;
use virtualcluster::api::pod::{Container, Pod};
use virtualcluster::client::ObjectApi;
use virtualcluster::controllers::util::wait_until;
use virtualcluster::core::framework::{Framework, FrameworkConfig};
use virtualcluster::core::mapping;
use virtualcluster::obs::exposition;
use virtualcluster::wire::{WireClient, WireServer, WireServerConfig};

#[test]
fn wire_attached_tenant_syncs_down_and_up() {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.create_tenant("wired").unwrap();

    // Serve the live tenant apiserver over a socket; everything below
    // goes through the wire only.
    let handle = fw.registry.get("wired").unwrap();
    let server = WireServer::start(handle.cluster.apiserver.clone(), WireServerConfig::default())
        .expect("bind wire front end on the tenant apiserver");
    let client = WireClient::new(server.local_addr().to_string(), "wired-user");

    // list → watch handoff before any activity, so the stream replays the
    // whole lifecycle.
    let (items, rev) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    assert!(items.is_empty(), "fresh tenant namespace must be empty");
    let watch = client.watch(ResourceKind::Pod, Some("default"), rev).unwrap();

    client
        .create(Pod::new("default", "wired-pod").with_container(Container::new("c", "img")).into())
        .unwrap();

    // Downward sync, super-side scheduling and the upward status write
    // must all become visible through the wire client.
    assert!(
        wait_until(Duration::from_secs(60), Duration::from_millis(50), || {
            client
                .get(ResourceKind::Pod, "default", "wired-pod")
                .is_ok_and(|o| o.as_pod().is_some_and(|p| p.status.is_ready()))
        }),
        "pod created over the wire must reach Ready in the tenant"
    );

    // The super cluster holds the prefixed copy the syncer wrote down.
    let prefix = handle.prefix.clone();
    let super_ns = mapping::tenant_ns_to_super(&prefix, "default");
    let super_pod =
        fw.super_client("admin").get(ResourceKind::Pod, &super_ns, "wired-pod").unwrap();
    assert_eq!(super_pod.meta().name, "wired-pod");
    assert_eq!(mapping::owner_cluster(&super_pod), Some("wired"));

    // The anchored watch streamed the create and the transitions up to
    // Ready, in revision order.
    let mut saw_create = false;
    let mut saw_ready = false;
    let mut last_rev = rev;
    while let Some(event) = watch.recv_timeout_ms(2_000) {
        let obj = &event.object;
        assert!(event.revision > last_rev, "watch events must arrive in revision order");
        last_rev = event.revision;
        assert_eq!(obj.meta().name, "wired-pod");
        saw_create = true;
        if obj.as_pod().is_some_and(|p| p.status.is_ready()) {
            saw_ready = true;
            break;
        }
    }
    assert!(saw_create, "wire watch must deliver the create");
    assert!(saw_ready, "wire watch must deliver the Ready status transition");

    // The front end serves the framework's registry: the attached
    // apiserver's requests, every attached store, the wire tier itself
    // and the reflector pool, in one scrape.
    let first = scrape(server.local_addr());
    let sample = |families: &[exposition::ParsedFamily], name: &str, labels: &[(&str, &str)]| {
        families.iter().find_map(|f| f.sample(name, labels)).map(|s| s.value)
    };
    assert!(sample(&first, "vc_apiserver_requests_total", &[("server", "wired")]).is_some());
    for server in ["wired", "super"] {
        let writes = sample(&first, "vc_store_writes_total", &[("server", server)]);
        assert!(writes.is_some_and(|w| w >= 1.0), "store writes of {server}: {writes:?}");
    }
    let requests = sample(&first, "vc_wire_requests_total", &[("server", "wired")])
        .expect("wire requests in the scrape");
    assert!(requests >= 3.0, "list, create and the Ready polls went over the wire");
    assert!(sample(&first, "client_reflector_threads", &[]).is_some());
    for family in &first {
        if family.name.ends_with("_total") {
            assert_eq!(family.kind, "counter", "{} is a lifetime total", family.name);
        }
    }
    client.get(ResourceKind::Pod, "default", "wired-pod").unwrap();
    let second = scrape(server.local_addr());
    let again = sample(&second, "vc_wire_requests_total", &[("server", "wired")]).unwrap();
    assert!(again >= requests + 1.0, "a counter never goes back: {requests} then {again}");

    server.shutdown();
    fw.shutdown();
}

/// `GET /metrics` over a plain socket, parsed.
fn scrape(addr: SocketAddr) -> Vec<exposition::ParsedFamily> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.1\r\nhost: vc\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "{line}");
    let mut length = 0;
    while line != "\r\n" {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = value.trim().parse().unwrap();
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).unwrap();
    let body = String::from_utf8(body).unwrap();
    exposition::parse(&body).unwrap_or_else(|e| panic!("scrape must parse: {e}\n{body}"))
}
