//! The networked apiserver front end.
//!
//! [`WireServer`] binds a [`TcpListener`] and serves the full
//! [`ApiServer`] verb surface over HTTP/1.1:
//!
//! | route | verb |
//! |---|---|
//! | `POST /api/{kind}` | create (body = encoded object) |
//! | `GET /api/{kind}/{ns}/{name}` | get (`_` for cluster-scoped ns) |
//! | `GET /api/{kind}?namespace=ns` | list → revision + items |
//! | `PUT /api/{kind}/{ns}/{name}` | update (body = encoded object) |
//! | `DELETE /api/{kind}/{ns}/{name}` | delete |
//! | `GET /watch/{kind}?namespace=ns&from=rv` | chunked watch stream |
//! | `GET /healthz`, `GET /metrics` | liveness / Prometheus exposition |
//!
//! Identity travels in the `x-vc-user` header and maps straight onto the
//! apiserver's `user` parameter, so the in-process tenancy gates apply
//! unchanged over the wire.
//!
//! **Codec negotiation** is per request: `accept: application/vcbin`
//! selects the compact [`crate::codec`] binary encoding for the response
//! (and `content-type: application/vcbin` marks a binary request body);
//! anything else is JSON, so pre-`vcbin` clients keep working unchanged.
//! The chosen codec is echoed in the response `content-type`.
//!
//! The perf-critical mechanisms that live here:
//!
//! - **Memoized encoding** — every object body (unary reads, list items,
//!   watch events) comes out of one shared [`EncodeCache`], so an object
//!   revision is serialized once *per codec* no matter how many
//!   connections read it.
//! - **One syscall per response** — response head, frame prefix, and the
//!   cache-shared body go out through one vectored write; connection
//!   threads reuse their head/line scratch buffers across requests.
//! - **One fair gate for unary requests** — every unary request is parsed,
//!   routed and executed on its own connection thread, after it takes one
//!   of `DISPATCH_WORKERS` permits of an [`InflightGate`], the apiserver's
//!   own admission gate. A free permit with nobody waiting is taken at
//!   once; otherwise the request queues a ticket keyed by the
//!   authenticated user, and each released permit passes to the next
//!   user's front ticket in round-robin order. A flood from one user waits
//!   behind its own tickets instead of in front of everyone. Isolation
//!   between tenants comes from each tenant's own apiserver; the gate only
//!   bounds one server's execution.
//! - **Watch batching** — when a watcher's stream has several ready
//!   events, they are drained ([`vc_store::WatchStream::try_recv`]) into
//!   one chunk: self-delimiting event frames in `vcbin`, newline-delimited
//!   event objects in JSON. One write (and one wakeup) covers the burst.
//! - **Degrade-to-resync** — watch connections carry a socket write
//!   timeout. A stalled reader fails its own write and is dropped
//!   (counted in `degraded_watchers`); store-side overflow eviction
//!   surfaces as a terminal `RESYNC` event telling the client to re-list.
//!   Either way fan-out to healthy watchers never blocks.

use crate::codec;
use crate::encode::EncodeCache;
use crate::http;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vc_api::error::ApiError;
use vc_api::metrics::{Counter, Gauge};
use vc_api::object::{Object, ResourceKind};
use vc_apiserver::gate::{InflightGate, Permit};
use vc_apiserver::ApiServer;
use vc_client::Encoding;
use vc_obs::registry::MetricsRegistry;
use vc_store::{EventType, RecvOutcome, WatchEvent};

/// Most events packed into a single watch chunk; bounds chunk size and
/// per-burst latency for the first event in the batch.
const MAX_WATCH_BATCH: usize = 128;

/// Maximum concurrent connections; excess are answered `503` and closed
/// immediately rather than queued.
const MAX_CONNECTIONS: usize = 256;

/// Unary requests one server executes at once (the gate's permits).
const DISPATCH_WORKERS: usize = 4;

/// Bound on how long a unary request may wait for a permit before the
/// connection gives up with `504`.
const QUEUE_TIMEOUT: Duration = Duration::from_secs(10);

/// Tunables for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Socket write budget per watch chunk; a reader stalled longer than
    /// this is degraded (dropped) so fan-out never blocks on it.
    pub write_timeout: Duration,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig { addr: "127.0.0.1:0".to_string(), write_timeout: Duration::from_secs(2) }
    }
}

/// Wire-tier counters and levels. Each is a shared cell that
/// [`WireMetrics::publish_metrics`] binds into a registry once.
#[derive(Debug, Default)]
pub struct WireMetrics {
    /// Connections accepted.
    pub connections_opened: Arc<Counter>,
    /// Connections refused because the connection cap was reached.
    pub connections_rejected: Arc<Counter>,
    /// Connections currently open.
    pub active_connections: Arc<Gauge>,
    /// Unary requests served (all verbs, any status).
    pub requests: Arc<Counter>,
    /// Unary requests answered in JSON.
    pub json_requests: Arc<Counter>,
    /// Unary requests answered in the binary codec.
    pub binary_requests: Arc<Counter>,
    /// Approximate bytes read off sockets.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to sockets.
    pub bytes_out: Arc<Counter>,
    /// Watch streams opened.
    pub watch_streams: Arc<Counter>,
    /// Watch streams currently live.
    pub active_watches: Arc<Gauge>,
    /// Watch events fanned out on the wire.
    pub watch_events_sent: Arc<Counter>,
    /// Watch chunks that carried more than one event (batched bursts).
    pub watch_batches: Arc<Counter>,
    /// Watchers degraded (slow-reader write timeout, or store-side
    /// overflow eviction surfaced as a terminal `RESYNC`).
    pub degraded_watchers: Arc<Counter>,
    /// Unary requests that waited `QUEUE_TIMEOUT` for a permit (`504`).
    pub queue_timeouts: Arc<Counter>,
    /// Unary requests admitted without waiting: a permit was free and
    /// nobody else was waiting for one.
    pub inline_dispatches: Arc<Counter>,
    /// Requests rejected at the identity gate: malformed or oversized
    /// `x-vc-user` values, and identity switches on a pinned keep-alive
    /// connection (spoofing attempts).
    pub identity_rejections: Arc<Counter>,
}

impl WireMetrics {
    /// Binds these cells into `registry` as the `vc_wire_*` families,
    /// labeled by `server`. Lifetime totals are `*_total` counters; open
    /// connections and live watches are gauges.
    pub fn publish_metrics(&self, registry: &MetricsRegistry, server: &str) {
        for (name, help, cell) in [
            ("vc_wire_connections_total", "Connections accepted.", &self.connections_opened),
            (
                "vc_wire_connections_rejected_total",
                "Connections refused.",
                &self.connections_rejected,
            ),
            ("vc_wire_requests_total", "Unary requests served.", &self.requests),
            ("vc_wire_watches_total", "Watch streams opened.", &self.watch_streams),
            ("vc_wire_watchers_degraded_total", "Watchers dropped.", &self.degraded_watchers),
            ("vc_wire_watch_events_total", "Watch events sent.", &self.watch_events_sent),
            ("vc_wire_watch_batches_total", "Multi-event watch chunks.", &self.watch_batches),
            ("vc_wire_queue_timeouts_total", "Permit waits expired.", &self.queue_timeouts),
            (
                "vc_wire_inline_dispatches_total",
                "Requests admitted at once.",
                &self.inline_dispatches,
            ),
            (
                "vc_wire_identity_rejections_total",
                "Identity-gate refusals.",
                &self.identity_rejections,
            ),
        ] {
            registry.counter(name, help, &["server"]).bind(&[server], Arc::clone(cell));
        }
        for (name, help, cell) in [
            ("vc_wire_active_connections", "Connections open.", &self.active_connections),
            ("vc_wire_active_watches", "Watch streams live.", &self.active_watches),
        ] {
            registry.gauge(name, help, &["server"]).bind(&[server], Arc::clone(cell));
        }
        let bytes = registry.counter("vc_wire_bytes_total", "Bytes moved.", &["server", "dir"]);
        bytes.bind(&[server, "in"], Arc::clone(&self.bytes_in));
        bytes.bind(&[server, "out"], Arc::clone(&self.bytes_out));
        let by_codec = registry.counter(
            "vc_wire_codec_requests_total",
            "Unary requests served, by response codec.",
            &["server", "codec"],
        );
        by_codec.bind(&[server, "json"], Arc::clone(&self.json_requests));
        by_codec.bind(&[server, "vcbin"], Arc::clone(&self.binary_requests));
    }
}

/// Takes a permit of `gate` for `user`, counting an admission without a
/// wait in `inline_dispatches` and an expired wait in `queue_timeouts`.
fn admit(gate: &Arc<InflightGate>, user: &str, metrics: &WireMetrics) -> Result<Permit, ApiError> {
    let admitted = gate.acquire(user);
    match &admitted {
        Ok(permit) if !permit.waited() => metrics.inline_dispatches.inc(),
        Err(ApiError::Timeout { .. }) => metrics.queue_timeouts.inc(),
        _ => {}
    }
    admitted
}

enum UnaryOp {
    Create(Object),
    Get(ResourceKind, String, String),
    List(ResourceKind, Option<String>),
    Update(Object),
    Delete(ResourceKind, String, String),
}

/// Shared server state; the acceptor and connection threads hold this, while
/// the [`WireServer`] handle itself owns the join handles so dropping the
/// handle tears everything down.
struct Inner {
    api: Arc<ApiServer>,
    cfg: WireServerConfig,
    local_addr: SocketAddr,
    cache: EncodeCache,
    metrics: WireMetrics,
    /// What `GET /metrics` renders: the attached apiserver's registry, or
    /// one holding only this server's cells.
    registry: Arc<MetricsRegistry>,
    gate: Arc<InflightGate>,
    next_conn: AtomicU64,
    active: AtomicUsize,
    stop: AtomicBool,
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running wire server; dropping the handle shuts it down.
pub struct WireServer {
    inner: Arc<Inner>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer").field("addr", &self.inner.local_addr).finish()
    }
}

impl WireServer {
    /// Binds `cfg.addr` and starts the acceptor.
    ///
    /// On an apiserver attached to observability, the server binds its
    /// cells into that registry under the apiserver's `server` label, and
    /// `GET /metrics` serves the whole registry; otherwise it serves a
    /// registry of its own cells, labeled `server="wire"`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(api: Arc<ApiServer>, cfg: WireServerConfig) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let (registry, scope) =
            api.metrics_registry().unwrap_or_else(|| (Arc::default(), "wire".to_string()));
        let inner = Arc::new(Inner {
            cache: EncodeCache::default(),
            metrics: WireMetrics::default(),
            registry,
            // A waiter holds a connection, so the queue bound is never
            // reached.
            gate: InflightGate::new(DISPATCH_WORKERS, MAX_CONNECTIONS, QUEUE_TIMEOUT),
            next_conn: AtomicU64::new(1),
            active: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            api,
            local_addr,
            cfg,
        });
        inner.metrics.publish_metrics(&inner.registry, &scope);
        inner.cache.publish_metrics(&inner.registry, &scope);
        let acceptor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("wire-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn acceptor")
        };
        Ok(WireServer { inner, acceptor: Mutex::new(Some(acceptor)) })
    }

    /// The bound socket address (`host:port`), for clients.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// The wire-tier counters.
    pub fn metrics(&self) -> &WireMetrics {
        &self.inner.metrics
    }

    /// The shared encode cache (hit rate is the "serialized once" win).
    pub fn encode_cache(&self) -> &EncodeCache {
        &self.inner.cache
    }

    /// Binds this server's cells — its [`WireMetrics`] and encode cache —
    /// into `registry` as well, labeled by `server`.
    pub fn publish_metrics(&self, registry: &MetricsRegistry, server: &str) {
        self.inner.metrics.publish_metrics(registry, server);
        self.inner.cache.publish_metrics(registry, server);
    }

    /// Stops accepting, tears down every connection, and joins all
    /// threads. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor: accept() has no timeout, so poke it.
        let _ = TcpStream::connect(self.inner.local_addr);
        let conns: Vec<TcpStream> = self.inner.conns.lock().drain().map(|(_, s)| s).collect();
        for conn in conns {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.acceptor.lock().take() {
            let _ = t.join();
        }
        // Requests waiting for a permit still get one as the running ones
        // finish, so joining the connection threads drains them.
        for t in self.inner.conn_threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    /// Executes one unary op, returning the response payload. Single
    /// objects come back as a bare (cache-shared) value encoding — the
    /// writer splices the frame prefix in front without copying; lists
    /// come back as a complete body with the cached item encodings
    /// spliced in.
    fn execute(&self, user: &str, op: UnaryOp, encoding: Encoding) -> Result<Bytes, ApiError> {
        match op {
            UnaryOp::Create(obj) => {
                self.api.create(user, obj).map(|o| self.cache.encode(&o, encoding))
            }
            UnaryOp::Get(kind, ns, name) => {
                self.api.get(user, kind, &ns, &name).map(|o| self.cache.encode(&o, encoding))
            }
            UnaryOp::Update(obj) => {
                self.api.update(user, obj).map(|o| self.cache.encode(&o, encoding))
            }
            UnaryOp::Delete(kind, ns, name) => {
                self.api.delete(user, kind, &ns, &name).map(|o| self.cache.encode(&o, encoding))
            }
            UnaryOp::List(kind, ns) => {
                let (items, revision) = self.api.list(user, kind, ns.as_deref())?;
                match encoding {
                    Encoding::Json => {
                        let mut body =
                            format!("{{\"resource_version\":{revision},\"items\":[").into_bytes();
                        for (i, item) in items.iter().enumerate() {
                            if i > 0 {
                                body.push(b',');
                            }
                            body.extend_from_slice(&self.cache.encode(item, encoding));
                        }
                        body.extend_from_slice(b"]}");
                        Ok(Bytes::from(body))
                    }
                    Encoding::Binary => {
                        let encoded: Vec<Bytes> =
                            items.iter().map(|item| self.cache.encode(item, encoding)).collect();
                        let mut body = Vec::with_capacity(
                            16 + encoded.iter().map(|e| e.len() + 4).sum::<usize>(),
                        );
                        codec::write_list_frame(
                            &mut body,
                            revision,
                            encoded.iter().map(|e| &e[..]),
                        );
                        Ok(Bytes::from(body))
                    }
                }
            }
        }
    }
}

/// HTTP status for each [`ApiError`] variant.
fn status_of(err: &ApiError) -> u16 {
    match err {
        ApiError::NotFound { .. } => 404,
        ApiError::AlreadyExists { .. } | ApiError::Conflict { .. } => 409,
        ApiError::Invalid { .. } => 422,
        ApiError::Forbidden { .. } => 403,
        ApiError::TooManyRequests { .. } => 429,
        ApiError::Expired { .. } => 410,
        ApiError::Timeout { .. } => 504,
        ApiError::Unavailable { .. } => 503,
        ApiError::Internal { .. } => 500,
    }
}

fn parse_kind(s: &str) -> Option<ResourceKind> {
    ResourceKind::ALL.iter().copied().find(|k| k.as_str().eq_ignore_ascii_case(s))
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for accepted in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = accepted else { continue };
        if inner.active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            inner.metrics.connections_rejected.inc();
            let err = ApiError::unavailable("wire: connection limit reached");
            write_error(inner, &mut stream, &err, Encoding::Json, false, &mut Vec::new());
            continue;
        }
        inner.metrics.connections_opened.inc();
        inner.metrics.active_connections.inc();
        inner.active.fetch_add(1, Ordering::SeqCst);
        let conn_id = inner.next_conn.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            inner.conns.lock().insert(conn_id, clone);
        }
        let inner2 = inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("wire-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(&inner2, stream);
                inner2.conns.lock().remove(&conn_id);
                inner2.active.fetch_sub(1, Ordering::SeqCst);
                inner2.metrics.active_connections.dec();
            })
            .expect("spawn connection thread");
        inner.conn_threads.lock().push(handle);
        // Opportunistically reap finished threads so a long-lived server
        // doesn't accumulate handles; join only the ones already done.
        let mut threads = inner.conn_threads.lock();
        if threads.len() > MAX_CONNECTIONS * 2 {
            let (done, live): (Vec<_>, Vec<_>) = threads.drain(..).partition(|t| t.is_finished());
            *threads = live;
            drop(threads);
            for t in done {
                let _ = t.join();
            }
        }
    }
}

/// Rough size of a parsed request, for the `bytes_in` counter (the exact
/// on-wire framing overhead is not worth re-counting).
fn request_size(req: &http::Request) -> u64 {
    let headers: usize = req.headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    (req.method.len() + req.path.len() + headers + req.body.len() + 16) as u64
}

fn serve_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    // Connection-lifetime scratch buffers: head assembly and line reads
    // stop allocating once the connection is warm.
    let mut head = Vec::with_capacity(256);
    let mut scratch = String::with_capacity(256);
    // First authenticated identity seen on this connection; later requests
    // presenting a different identity are rejected (keep-alive spoofing).
    let mut pinned_identity: Option<String> = None;
    loop {
        let req = match http::read_request(&mut reader, &mut scratch) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    let err = ApiError::invalid("wire", "request", e.to_string());
                    let body = serde_json::to_string(&err).unwrap_or_default();
                    let json = codec::JSON_CONTENT_TYPE;
                    respond(inner, &mut stream, 400, json, &[body.as_bytes()], false, &mut head);
                }
                break;
            }
        };
        inner.metrics.bytes_in.add(request_size(&req));
        let keep_alive = req.keep_alive() && !inner.stop.load(Ordering::SeqCst);
        let encoding = codec::encoding_of(req.header("accept"));
        // Identity gate: runs before any routing so a hostile header never
        // reaches the fair gate or the apiserver.
        let user = match request_identity(&req, pinned_identity.as_deref()) {
            Ok(user) => user,
            Err(err) => {
                inner.metrics.identity_rejections.inc();
                if !write_error(inner, &mut stream, &err, encoding, keep_alive, &mut head)
                    || !keep_alive
                {
                    break;
                }
                continue;
            }
        };
        if pinned_identity.is_none() && user != ANONYMOUS_IDENTITY {
            pinned_identity = Some(user.clone());
        }
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match segments.as_slice() {
            [route @ ("healthz" | "metrics")] => {
                let text;
                let body: &[u8] = if *route == "metrics" {
                    text = inner.registry.render_text();
                    text.as_bytes()
                } else {
                    b"ok"
                };
                if !respond(inner, &mut stream, 200, "text/plain", &[body], keep_alive, &mut head)
                    || !keep_alive
                {
                    break;
                }
            }
            ["watch", kind] => {
                // The stream takes over the connection; never keep-alive.
                serve_watch(inner, &mut stream, &req, &user, kind, encoding);
                break;
            }
            ["api", rest @ ..] => {
                let done = serve_unary(
                    inner,
                    &mut stream,
                    &req,
                    &user,
                    rest,
                    encoding,
                    keep_alive,
                    &mut head,
                );
                if !done || !keep_alive {
                    break;
                }
            }
            _ => {
                let err = ApiError::not_found("route", &req.path);
                if !write_error(inner, &mut stream, &err, encoding, keep_alive, &mut head)
                    || !keep_alive
                {
                    break;
                }
            }
        }
    }
}

/// Identity assumed when a request carries no `x-vc-user` header.
const ANONYMOUS_IDENTITY: &str = "anonymous";

/// Upper bound on an `x-vc-user` value. Real identities are short; anything
/// longer is an abuse vector (stuffing kilobytes into every authorization
/// check and log line).
const MAX_IDENTITY_LEN: usize = 128;

/// Validates the request identity before routing.
///
/// A missing header inherits the connection's pinned identity (same
/// principal continuing a keep-alive exchange) or defaults to
/// [`ANONYMOUS_IDENTITY`]. Malformed values (empty, non-printable, spaces)
/// and oversized values are rejected as `Invalid`; presenting a different
/// identity than the one the connection was pinned to is rejected as
/// `Forbidden` (keep-alive spoofing).
fn request_identity(req: &http::Request, pinned: Option<&str>) -> Result<String, ApiError> {
    let Some(raw) = req.header("x-vc-user") else {
        return Ok(pinned.unwrap_or(ANONYMOUS_IDENTITY).to_string());
    };
    if raw.is_empty() || raw.len() > MAX_IDENTITY_LEN {
        return Err(ApiError::invalid(
            "wire",
            "x-vc-user",
            format!("identity length {} outside 1..={MAX_IDENTITY_LEN}", raw.len()),
        ));
    }
    if !raw.bytes().all(|b| b.is_ascii_graphic()) {
        return Err(ApiError::invalid(
            "wire",
            "x-vc-user",
            "identity must be printable ASCII without spaces",
        ));
    }
    if let Some(pinned) = pinned {
        if raw != pinned && raw != ANONYMOUS_IDENTITY {
            return Err(ApiError::forbidden(
                raw,
                req.method.clone(),
                req.path.clone(),
                format!("connection is pinned to identity {pinned:?}"),
            ));
        }
    }
    Ok(raw.to_string())
}

/// Serves one unary request on the connection thread, once it holds a
/// permit of the server's [`InflightGate`]. Returns `false` when the
/// connection is broken and should be dropped.
#[allow(clippy::too_many_arguments)]
fn serve_unary(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    req: &http::Request,
    user: &str,
    path: &[&str],
    encoding: Encoding,
    keep_alive: bool,
    head: &mut Vec<u8>,
) -> bool {
    inner.metrics.requests.inc();
    match encoding {
        Encoding::Json => inner.metrics.json_requests.inc(),
        Encoding::Binary => inner.metrics.binary_requests.inc(),
    }
    let op = match route_unary(req, path) {
        Ok(op) => op,
        Err(err) => return write_error(inner, stream, &err, encoding, keep_alive, head),
    };
    // Lists come back as complete framed bodies; single objects as bare
    // value encodings that get the frame prefix spliced in at write time.
    let is_list = matches!(op, UnaryOp::List(..));
    let result = admit(&inner.gate, user, &inner.metrics).and_then(|_permit| {
        // The permit is held until the op returns.
        inner.execute(user, op, encoding)
    });
    match result {
        Ok(body) => {
            let prefix: &[u8] = match (encoding, is_list) {
                (Encoding::Binary, false) => &[codec::VCBIN_VERSION, codec::FRAME_OBJECT],
                _ => &[],
            };
            let content_type = codec::content_type(encoding);
            respond(inner, stream, 200, content_type, &[prefix, &body], keep_alive, head)
        }
        Err(err) => write_error(inner, stream, &err, encoding, keep_alive, head),
    }
}

fn route_unary(req: &http::Request, path: &[&str]) -> Result<UnaryOp, ApiError> {
    let kind_str = path.first().ok_or_else(|| ApiError::not_found("route", &req.path))?;
    let kind = parse_kind(kind_str).ok_or_else(|| {
        ApiError::invalid("wire", *kind_str, format!("unknown resource kind {kind_str:?}"))
    })?;
    match (req.method.as_str(), path.len()) {
        ("POST", 1) => Ok(UnaryOp::Create(object_for_path(req, kind, None)?)),
        ("PUT", 3) => {
            Ok(UnaryOp::Update(object_for_path(req, kind, Some((ns_of(path[1]), path[2])))?))
        }
        ("GET", 1) => Ok(UnaryOp::List(kind, req.query.get("namespace").cloned())),
        ("GET", 3) => Ok(UnaryOp::Get(kind, ns_of(path[1]).to_string(), path[2].to_string())),
        ("DELETE", 3) => Ok(UnaryOp::Delete(kind, ns_of(path[1]).to_string(), path[2].to_string())),
        _ => Err(ApiError::invalid(
            "wire",
            &req.path,
            format!("unsupported method {} on {}", req.method, req.path),
        )),
    }
}

/// `_` is the cluster-scoped namespace placeholder in paths.
fn ns_of(segment: &str) -> &str {
    if segment == "_" {
        ""
    } else {
        segment
    }
}

/// Decodes the request body and checks that it names the object the path
/// does: the path's kind and, given `key`, its namespace and name.
fn object_for_path(
    req: &http::Request,
    kind: ResourceKind,
    key: Option<(&str, &str)>,
) -> Result<Object, ApiError> {
    let obj = parse_body(&req.body, codec::encoding_of(req.header("content-type")))?;
    let meta = obj.meta();
    if obj.kind() != kind || key.is_some_and(|key| key != (&meta.namespace, &meta.name)) {
        let named = format!("{} {}/{}", obj.kind(), meta.namespace, meta.name);
        return Err(ApiError::invalid(
            "wire",
            "body",
            format!("body names {named}, not {}", req.path),
        ));
    }
    Ok(obj)
}

fn parse_body(body: &[u8], encoding: Encoding) -> Result<Object, ApiError> {
    match encoding {
        Encoding::Json => {
            let text = std::str::from_utf8(body)
                .map_err(|_| ApiError::invalid("wire", "body", "request body is not UTF-8"))?;
            serde_json::from_str(text).map_err(|e| ApiError::invalid("wire", "body", e.to_string()))
        }
        Encoding::Binary => codec::from_framed_slice(codec::FRAME_OBJECT, body)
            .map_err(|e| ApiError::invalid("wire", "body", e.to_string())),
    }
}

fn write_error(
    inner: &Inner,
    stream: &mut TcpStream,
    err: &ApiError,
    encoding: Encoding,
    keep_alive: bool,
    head: &mut Vec<u8>,
) -> bool {
    let body = match encoding {
        Encoding::Json => serde_json::to_string(err).unwrap_or_default().into_bytes(),
        Encoding::Binary => codec::to_framed_vec(codec::FRAME_ERROR, err),
    };
    respond(
        inner,
        stream,
        status_of(err),
        codec::content_type(encoding),
        &[&body],
        keep_alive,
        head,
    )
}

/// Writes one whole response and counts its bytes. Returns `false` when
/// the connection is broken.
fn respond(
    inner: &Inner,
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[&[u8]],
    keep_alive: bool,
    head: &mut Vec<u8>,
) -> bool {
    match http::write_response(stream, status, content_type, body, keep_alive, head) {
        Ok(n) => {
            inner.metrics.bytes_out.add(n as u64);
            true
        }
        Err(_) => false,
    }
}

/// Appends one encoded watch event to a chunk payload being assembled.
fn append_event(inner: &Inner, payload: &mut Vec<u8>, ev: &WatchEvent, encoding: Encoding) {
    let encoded = inner.cache.encode(&ev.object, encoding);
    match encoding {
        Encoding::Json => {
            let tag = match ev.event_type {
                EventType::Added => "ADDED",
                EventType::Modified => "MODIFIED",
                EventType::Deleted => "DELETED",
            };
            payload.extend_from_slice(
                format!("{{\"event_type\":\"{tag}\",\"revision\":{},\"object\":", ev.revision)
                    .as_bytes(),
            );
            payload.extend_from_slice(&encoded);
            payload.extend_from_slice(b"}\n");
        }
        Encoding::Binary => {
            let tag = match ev.event_type {
                EventType::Added => codec::EVENT_ADDED,
                EventType::Modified => codec::EVENT_MODIFIED,
                EventType::Deleted => codec::EVENT_DELETED,
            };
            codec::write_event_frame(payload, tag, ev.revision, Some(&encoded));
        }
    }
}

/// The terminal resync hint in the stream's negotiated codec.
fn resync_payload(encoding: Encoding) -> Vec<u8> {
    match encoding {
        Encoding::Json => b"{\"event_type\":\"RESYNC\",\"revision\":0}\n".to_vec(),
        Encoding::Binary => {
            let mut out = Vec::with_capacity(8);
            codec::write_event_frame(&mut out, codec::EVENT_RESYNC, 0, None);
            out
        }
    }
}

/// Serves a watch stream until the client goes away, the store closes the
/// stream, or the server stops. Consumes the connection.
fn serve_watch(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    req: &http::Request,
    user: &str,
    kind_str: &str,
    encoding: Encoding,
) {
    let mut head = Vec::with_capacity(256);
    let Some(kind) = parse_kind(kind_str) else {
        write_error(
            inner,
            stream,
            &ApiError::invalid("wire", kind_str, format!("unknown resource kind {kind_str:?}")),
            encoding,
            false,
            &mut head,
        );
        return;
    };
    let namespace = req.query.get("namespace").cloned();
    let from = match req.query.get("from").map(|v| v.parse::<u64>()) {
        None => 0,
        Some(Ok(from)) => from,
        Some(Err(_)) => {
            let err = ApiError::invalid("wire", "from", "watch revision is not a number");
            write_error(inner, stream, &err, encoding, false, &mut head);
            return;
        }
    };
    let ws = match inner.api.watch(user, kind, namespace.as_deref(), from) {
        Ok(ws) => ws,
        Err(err) => {
            write_error(inner, stream, &err, encoding, false, &mut head);
            return;
        }
    };
    inner.metrics.watch_streams.inc();
    inner.metrics.active_watches.inc();
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    if http::start_chunked(stream, codec::content_type(encoding)).is_err() {
        inner.metrics.active_watches.dec();
        return;
    }
    // Chunk payload reused across the stream's lifetime; a burst of ready
    // events is drained into it and leaves in one write.
    let mut payload: Vec<u8> = Vec::with_capacity(4096);
    loop {
        match ws.recv_deadline(Duration::from_millis(250)) {
            RecvOutcome::Event(ev) => {
                payload.clear();
                let mut batched = 0usize;
                let mut next = Some(ev);
                while let Some(ev) = next {
                    append_event(inner, &mut payload, &ev, encoding);
                    batched += 1;
                    next = if batched < MAX_WATCH_BATCH { ws.try_recv() } else { None };
                }
                match http::write_chunk(stream, &payload) {
                    Ok(n) => {
                        inner.metrics.bytes_out.add(n as u64);
                        inner.metrics.watch_events_sent.add(batched as u64);
                        if batched > 1 {
                            inner.metrics.watch_batches.inc();
                        }
                    }
                    Err(_) => {
                        // Slow or dead reader: its own write budget blew,
                        // nobody else waited on it. Drop the stream.
                        inner.metrics.degraded_watchers.inc();
                        break;
                    }
                }
            }
            RecvOutcome::Timeout => {
                if inner.stop.load(Ordering::SeqCst) {
                    let _ = http::finish_chunks(stream);
                    break;
                }
            }
            RecvOutcome::Closed => {
                // Store-side eviction (this watcher overflowed its buffer)
                // or server teardown: tell the client to re-list.
                inner.metrics.degraded_watchers.inc();
                let _ = http::write_chunk(stream, &resync_payload(encoding));
                let _ = http::finish_chunks(stream);
                break;
            }
        }
    }
    inner.metrics.active_watches.dec();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// The connection cap refuses with `503` instead of queueing: with
    /// `MAX_CONNECTIONS` idle connections open, one more is answered and
    /// closed at once.
    #[test]
    fn connection_past_the_cap_is_refused_with_503() {
        let server = WireServer::start(ApiServer::new_default("cap"), WireServerConfig::default())
            .expect("bind");
        let addr = server.local_addr();
        let idle: Vec<TcpStream> =
            (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        // The acceptor takes connections in arrival order, so all of the
        // idle ones are counted before it reaches this one.
        let mut extra = TcpStream::connect(addr).expect("connect");
        extra.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut response = String::new();
        extra.read_to_string(&mut response).expect("read the refusal");
        assert!(response.starts_with("HTTP/1.1 503"), "got {response:?}");
        assert_eq!(server.metrics().connections_rejected.get(), 1);
        assert_eq!(server.metrics().connections_opened.get(), MAX_CONNECTIONS as u64);
        drop(extra);
        drop(idle);
        server.shutdown();
    }

    /// Waits until `n` tickets wait in `gate`, so the next waiter queues
    /// after them.
    fn wait_for_tickets(gate: &InflightGate, n: usize) {
        while gate.queued() < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// With one permit held, waiters of users A, A, A, B are granted in
    /// round-robin order by user: A, B, A, A.
    #[test]
    fn gate_passes_permits_round_robin_by_user() {
        let gate = InflightGate::new(1, MAX_CONNECTIONS, QUEUE_TIMEOUT);
        let metrics = WireMetrics::default();
        let granted = Mutex::new(Vec::new());
        let holder = admit(&gate, "holder", &metrics).expect("free permit");
        std::thread::scope(|s| {
            for (i, user) in ["a", "a", "a", "b"].into_iter().enumerate() {
                let (gate, metrics, granted) = (&gate, &metrics, &granted);
                s.spawn(move || {
                    let _permit = admit(gate, user, metrics).expect("granted");
                    granted.lock().push(user);
                });
                wait_for_tickets(gate, i + 1);
            }
            drop(holder);
        });
        assert_eq!(*granted.lock(), ["a", "b", "a", "a"]);
        assert_eq!(metrics.inline_dispatches.get(), 1, "only the holder found a free permit");
        assert_eq!(gate.inflight(), 0);
    }

    /// A waiter that outlives the timeout is answered `504` and counted;
    /// the permit released afterwards goes back to the pool rather than to
    /// the withdrawn ticket, so no permit leaks.
    #[test]
    fn gate_timeout_answers_504_and_leaks_no_permit() {
        let gate = InflightGate::new(1, MAX_CONNECTIONS, Duration::from_millis(50));
        let metrics = WireMetrics::default();
        let holder = admit(&gate, "holder", &metrics).expect("free permit");
        let err = admit(&gate, "late", &metrics).expect_err("no permit within the timeout");
        assert_eq!(status_of(&err), 504);
        assert_eq!(metrics.queue_timeouts.get(), 1);
        assert_eq!(gate.queued(), 0, "the ticket was withdrawn");
        drop(holder);
        assert_eq!(gate.inflight(), 0, "the permit went back to the pool");
        drop(admit(&gate, "next", &metrics).expect("free permit"));
        assert_eq!(metrics.inline_dispatches.get(), 2, "taken at once, without a wait");
    }
}
