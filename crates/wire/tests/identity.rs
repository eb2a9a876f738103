//! Identity enforcement at the wire gate: the `x-vc-user` header is the
//! only identity signal on the wire, so the server validates it before
//! routing (malformed and oversized values never reach the fair gate)
//! and pins one identity per keep-alive connection so a client cannot
//! authenticate once and then smuggle requests as someone else.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use vc_api::object::ResourceKind;
use vc_api::pod::Pod;
use vc_apiserver::ApiServer;
use vc_client::ObjectApi;
use vc_wire::{WireClient, WireServer, WireServerConfig};

fn start_server() -> (Arc<ApiServer>, WireServer) {
    let api = ApiServer::new_default("identity-test");
    let server = WireServer::start(api.clone(), WireServerConfig::default()).expect("bind");
    (api, server)
}

/// Sends one pipelined HTTP request on `stream`.
fn send(stream: &mut TcpStream, path: &str, headers: &str, keep_alive: bool) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let req = format!(
        "GET {path} HTTP/1.1\r\nhost: x\r\n{headers}connection: {connection}\r\n\
         content-length: 0\r\n\r\n"
    );
    stream.write_all(req.as_bytes()).unwrap();
    stream.flush().unwrap();
}

/// Reads one HTTP response; returns (status, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 =
        line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((k, v)) = header.split_once(':') else { continue };
        if k.trim().eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().unwrap_or(0);
        }
        if k.trim().eq_ignore_ascii_case("transfer-encoding") {
            chunked = v.trim().eq_ignore_ascii_case("chunked");
        }
    }
    assert!(!chunked, "unary responses are not chunked");
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// A connection to `addr` plus a buffered reader over its read half.
fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Malformed identities (embedded whitespace, non-printable bytes) are
/// rejected before routing, and counted.
#[test]
fn malformed_identity_rejected() {
    let (_api, server) = start_server();
    let addr = server.local_addr().to_string();

    let (mut stream, mut reader) = connect(&addr);
    send(&mut stream, "/api/Pod", "x-vc-user: bad user\r\n", true);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 422, "embedded space is malformed: {body}");
    assert!(body.contains("printable ASCII"), "error names the rule: {body}");

    // The gate failure did not kill the keep-alive connection: a clean
    // request on the same socket still works.
    send(&mut stream, "/api/Pod", "x-vc-user: tenant-a\r\n", false);
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    assert!(server.metrics().identity_rejections.get() >= 1);
    server.shutdown();
}

/// An identity longer than the cap is rejected; the same request with a
/// normal identity passes.
#[test]
fn oversized_identity_rejected() {
    let (_api, server) = start_server();
    let addr = server.local_addr().to_string();

    let huge = "u".repeat(4096);
    let (mut stream, mut reader) = connect(&addr);
    send(&mut stream, "/api/Pod", &format!("x-vc-user: {huge}\r\n"), false);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 422, "oversized identity: {body}");
    assert!(body.contains("length"), "error names the bound: {body}");
    server.shutdown();
}

/// A request with no identity header at all is served as `anonymous`
/// (the pre-existing wire contract for health probes and dev tooling).
#[test]
fn missing_identity_defaults_to_anonymous() {
    let (_api, server) = start_server();
    let addr = server.local_addr().to_string();

    let (mut stream, mut reader) = connect(&addr);
    send(&mut stream, "/api/Pod", "", false);
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(server.metrics().identity_rejections.get(), 0);
    server.shutdown();
}

/// Once a keep-alive connection has authenticated as one identity, a
/// later request presenting a different identity on the same socket is
/// denied — the spoofed request never reaches the apiserver.
#[test]
fn keep_alive_identity_spoofing_denied() {
    let (api, server) = start_server();
    let addr = server.local_addr().to_string();

    let (mut stream, mut reader) = connect(&addr);
    send(&mut stream, "/api/Pod", "x-vc-user: tenant-a\r\n", true);
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    let requests_before = server.metrics().requests.get();
    send(&mut stream, "/api/Pod", "x-vc-user: tenant-b\r\n", true);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 403, "identity switch on a pinned connection: {body}");
    assert!(body.contains("pinned"), "error explains the pin: {body}");
    assert_eq!(
        server.metrics().requests.get(),
        requests_before,
        "the spoofed request was dropped at the gate, not routed"
    );

    // A header-less follow-up inherits the pinned identity and works.
    send(&mut stream, "/api/Pod", "", false);
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    // tenant-b is not locked out globally — only off tenant-a's socket.
    let client = WireClient::with_limits(addr, "tenant-b", 10_000.0, 1000);
    client.create(Pod::new("default", "b-pod").into()).unwrap();
    assert_eq!(api.list("tenant-b", ResourceKind::Pod, Some("default")).unwrap().0.len(), 1);

    assert!(server.metrics().identity_rejections.get() >= 1);
    server.shutdown();
}

/// The pin also covers watches: after authenticating as one identity, a
/// watch opened under a different identity on the same connection is
/// denied instead of becoming a stream.
#[test]
fn pinned_connection_denies_watch_under_other_identity() {
    let (_api, server) = start_server();
    let addr = server.local_addr().to_string();

    let (mut stream, mut reader) = connect(&addr);
    send(&mut stream, "/api/Pod", "x-vc-user: tenant-a\r\n", true);
    let (status, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    send(&mut stream, "/watch/Pod?namespace=default&from=0", "x-vc-user: tenant-b\r\n", true);
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 403, "watch under a spoofed identity: {body}");
    server.shutdown();
}
