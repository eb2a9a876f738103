//! The wire-side client: [`WireClient`] speaks the HTTP protocol served
//! by [`crate::server::WireServer`] and implements the same
//! [`ObjectApi`] trait as the in-process `vc_client::Client`, so
//! controllers and tenant workloads written against `dyn ObjectApi` run
//! unchanged over a real socket.
//!
//! Unary verbs reuse one persistent keep-alive connection (guarded by a
//! mutex — clone the client for concurrency; each clone owns its own
//! connection) with per-connection reusable head/line buffers, and each
//! request leaves in one vectored write. [`WireClient::with_codec`]
//! switches the connection to the compact `vcbin` encoding
//! ([`crate::codec`]); the default stays JSON. Reads are idempotent, so
//! a `GET` whose response never arrives (connection reset mid-flight) is
//! retried once on a fresh socket; mutations are only retried when the
//! *write* failed, i.e. when the server cannot have executed them.
//! [`WireClient::get_batch`] pipelines many `GET`s onto the connection —
//! one write carries every request head, then the responses stream back
//! in order, and an unanswered suffix is retried once.
//!
//! Watches each open a dedicated connection whose chunked response is
//! pumped by a background reader thread into a channel. A dropped socket
//! is **reconnected transparently**, re-anchored at the revision of the
//! last event actually *delivered* into the channel — an event committed
//! while the connection was down is replayed, not lost. A terminal
//! `RESYNC` (store-side compaction/overflow: the server cannot replay)
//! surfaces as [`RecvOutcome::Closed`], telling the consumer to re-list
//! exactly like an in-process overflow eviction would.

use crate::codec;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::{Object, ResourceKind};
use vc_client::{Encoding, ObjectApi, RateLimiter, WatchHandle};
use vc_store::{EventType, RecvOutcome, WatchEvent};

/// Wire framing of a JSON list response; field order matches what the
/// server splices byte-for-byte from its encode cache.
#[derive(Debug, Serialize, Deserialize)]
struct WireList {
    resource_version: u64,
    items: Vec<Object>,
}

/// Wire framing of one JSON watch event line.
#[derive(Debug, Serialize, Deserialize)]
struct WireEventMsg {
    event_type: String,
    revision: u64,
    object: Object,
}

/// JSON line prefix announcing stream termination with a resync hint;
/// checked textually because the payload carries no object.
const RESYNC_PREFIX: &str = "{\"event_type\":\"RESYNC\"";

/// Watch reconnect budget: attempts and linear backoff step.
const WATCH_RECONNECT_ATTEMPTS: u32 = 8;
const WATCH_RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

/// One persistent unary connection: write half, buffered read half, and
/// the reusable scratch buffers that make a warm connection allocation-free
/// on the framing path.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    head: String,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            head: String::with_capacity(256),
            line: String::with_capacity(256),
        })
    }
}

/// A client for a [`crate::server::WireServer`], interchangeable with the
/// in-process client through [`ObjectApi`].
pub struct WireClient {
    addr: String,
    user: String,
    flow: Option<String>,
    encoding: Encoding,
    limiter: Arc<RateLimiter>,
    conn: Mutex<Option<Conn>>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("addr", &self.addr)
            .field("user", &self.user)
            .field("codec", &self.encoding.as_str())
            .finish()
    }
}

impl Clone for WireClient {
    /// Clones share identity, codec, and rate budget but not the
    /// connection — each clone opens its own socket, which is what makes
    /// a clone safe to hand to another thread.
    fn clone(&self) -> Self {
        WireClient {
            addr: self.addr.clone(),
            user: self.user.clone(),
            flow: self.flow.clone(),
            encoding: self.encoding,
            limiter: self.limiter.clone(),
            conn: Mutex::new(None),
        }
    }
}

impl WireClient {
    /// Creates a client with the default tenant rate limits (matching
    /// `vc_client::Client::new`).
    pub fn new(addr: impl Into<String>, user: impl Into<String>) -> WireClient {
        WireClient::with_limits(addr, user, 50.0, 100)
    }

    /// Creates a client with explicit client-side `qps`/`burst` limits.
    pub fn with_limits(
        addr: impl Into<String>,
        user: impl Into<String>,
        qps: f64,
        burst: usize,
    ) -> WireClient {
        WireClient {
            addr: addr.into(),
            user: user.into(),
            flow: None,
            encoding: Encoding::Json,
            limiter: Arc::new(RateLimiter::new(qps, burst)),
            conn: Mutex::new(None),
        }
    }

    /// Sets the request-classing flow label (`x-vc-flow`); defaults to
    /// the user when unset.
    pub fn with_flow(mut self, flow: impl Into<String>) -> WireClient {
        self.flow = Some(flow.into());
        self
    }

    /// Selects the payload encoding for every request this client sends
    /// (`accept` + `content-type`). The server echoes the choice, so a
    /// binary client and a JSON client can share one server.
    pub fn with_codec(mut self, encoding: Encoding) -> WireClient {
        self.encoding = encoding;
        self
    }

    /// The identity this client presents in `x-vc-user`.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The payload encoding this client negotiates.
    pub fn codec(&self) -> Encoding {
        self.encoding
    }

    fn build_head(&self, out: &mut String, method: &str, target: &str, body_len: usize) {
        build_head(
            out,
            method,
            target,
            body_len,
            &self.addr,
            &self.user,
            self.flow.as_deref(),
            self.encoding,
        );
    }

    /// Sends one unary request over the persistent connection, returning
    /// `(status, body, response encoding)`.
    ///
    /// Retry semantics: a failed *write* means the server cannot have
    /// executed anything (stale keep-alive socket), so any verb retries
    /// once on a fresh connection. A failed *read* means the request may
    /// have executed — only `idempotent` requests (GETs) are resent.
    fn request(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        idempotent: bool,
    ) -> ApiResult<(u16, Vec<u8>, Encoding)> {
        self.limiter.acquire();
        let mut guard = self.conn.lock();
        for attempt in 0..2 {
            if guard.is_none() {
                *guard =
                    Some(Conn::open(&self.addr).map_err(|e| {
                        ApiError::unavailable(format!("connect {}: {e}", self.addr))
                    })?);
            }
            let conn = guard.as_mut().expect("connection just ensured");
            let mut head = std::mem::take(&mut conn.head);
            self.build_head(&mut head, method, target, body.len());
            let wrote = crate::http::write_all_vectored(&mut conn.stream, &[head.as_bytes(), body]);
            conn.head = head;
            if let Err(e) = wrote {
                // A stale keep-alive connection the server already closed;
                // nothing was executed, so retrying on a fresh socket is safe.
                *guard = None;
                if attempt == 0 {
                    continue;
                }
                return Err(ApiError::unavailable(format!("write {}: {e}", self.addr)));
            }
            let mut line = std::mem::take(&mut conn.line);
            let read = crate::http::read_response_head(&mut conn.reader, &mut line);
            match read {
                Ok(resp) => {
                    conn.line = line;
                    let enc = codec::encoding_of(resp.content_type());
                    return Ok((resp.status, resp.body, enc));
                }
                Err(e) => {
                    // The request may have executed server-side; only
                    // idempotent reads are safe to replay.
                    *guard = None;
                    if idempotent && attempt == 0 {
                        continue;
                    }
                    return Err(ApiError::unavailable(format!("read {}: {e}", self.addr)));
                }
            }
        }
        unreachable!("second attempt either returned or errored")
    }

    fn object_request(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        idempotent: bool,
    ) -> ApiResult<Arc<Object>> {
        let (status, body, enc) = self.request(method, target, body, idempotent)?;
        if status == 200 {
            parse_object(&body, enc).map(Arc::new)
        } else {
            Err(parse_error(status, &body, enc))
        }
    }

    fn encode_object(&self, obj: &Object) -> ApiResult<Vec<u8>> {
        match self.encoding {
            Encoding::Json => serde_json::to_string(obj)
                .map(String::into_bytes)
                .map_err(|e| ApiError::internal(format!("unencodable object: {e}"))),
            Encoding::Binary => Ok(codec::to_framed_vec(codec::FRAME_OBJECT, obj)),
        }
    }

    /// Pipelines one `GET` per `(namespace, name)` pair onto the
    /// persistent connection: every request head leaves in one vectored
    /// write, then the responses stream back in order — the connection
    /// never sits idle waiting for a round trip between requests.
    ///
    /// Per-item failures (`NotFound`, …) land in that item's slot. If the
    /// connection dies mid-batch, the unanswered suffix — all idempotent
    /// reads — is retried once on a fresh socket.
    ///
    /// # Errors
    ///
    /// Fails as a whole only when the transport is down (connect or
    /// retry budget exhausted).
    pub fn get_batch(
        &self,
        kind: ResourceKind,
        items: &[(&str, &str)],
    ) -> ApiResult<Vec<ApiResult<Arc<Object>>>> {
        for _ in items {
            self.limiter.acquire();
        }
        let mut results: Vec<ApiResult<Arc<Object>>> = Vec::with_capacity(items.len());
        let mut guard = self.conn.lock();
        let mut attempts = 0;
        while results.len() < items.len() {
            if attempts >= 2 {
                return Err(ApiError::unavailable(format!(
                    "pipelined batch to {} failed after retry",
                    self.addr
                )));
            }
            attempts += 1;
            if guard.is_none() {
                *guard =
                    Some(Conn::open(&self.addr).map_err(|e| {
                        ApiError::unavailable(format!("connect {}: {e}", self.addr))
                    })?);
            }
            let conn = guard.as_mut().expect("connection just ensured");
            let pending = &items[results.len()..];
            // One buffer, one write, `pending.len()` requests in flight.
            let mut heads = std::mem::take(&mut conn.head);
            let mut one = String::with_capacity(128);
            heads.clear();
            for (namespace, name) in pending {
                self.build_head(&mut one, "GET", &Self::target(kind, namespace, name), 0);
                heads.push_str(&one);
            }
            let wrote = crate::http::write_all_vectored(&mut conn.stream, &[heads.as_bytes()]);
            conn.head = heads;
            if wrote.is_err() {
                *guard = None;
                continue;
            }
            let mut line = std::mem::take(&mut conn.line);
            for _ in 0..pending.len() {
                match crate::http::read_response_head(&mut conn.reader, &mut line) {
                    Ok(resp) => {
                        let enc = codec::encoding_of(resp.content_type());
                        results.push(if resp.status == 200 {
                            parse_object(&resp.body, enc).map(Arc::new)
                        } else {
                            Err(parse_error(resp.status, &resp.body, enc))
                        });
                    }
                    Err(_) => break, // retry the unanswered suffix
                }
            }
            if results.len() < items.len() {
                *guard = None;
            } else if let Some(conn) = guard.as_mut() {
                conn.line = line;
            }
        }
        Ok(results)
    }

    fn target(kind: ResourceKind, namespace: &str, name: &str) -> String {
        let ns = if kind.is_cluster_scoped() || namespace.is_empty() { "_" } else { namespace };
        format!("/api/{}/{ns}/{name}", kind.as_str())
    }
}

/// Builds a request head into `out` (cleared first); standalone so the
/// watch reader thread can reuse it without a `WireClient`.
#[allow(clippy::too_many_arguments)]
fn build_head(
    out: &mut String,
    method: &str,
    target: &str,
    body_len: usize,
    addr: &str,
    user: &str,
    flow: Option<&str>,
    encoding: Encoding,
) {
    out.clear();
    out.push_str(method);
    out.push(' ');
    out.push_str(target);
    out.push_str(" HTTP/1.1\r\nhost: ");
    out.push_str(addr);
    out.push_str("\r\nx-vc-user: ");
    out.push_str(user);
    out.push_str("\r\naccept: ");
    out.push_str(codec::content_type(encoding));
    out.push_str("\r\n");
    if body_len > 0 {
        // Bodyless verbs skip both headers — the server reads a missing
        // content-length as 0.
        let _ = write!(out, "content-length: {body_len}\r\n");
        out.push_str("content-type: ");
        out.push_str(codec::content_type(encoding));
        out.push_str("\r\n");
    }
    if let Some(flow) = flow {
        out.push_str("x-vc-flow: ");
        out.push_str(flow);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
}

fn parse_object(body: &[u8], encoding: Encoding) -> ApiResult<Object> {
    match encoding {
        Encoding::Json => {
            let text = std::str::from_utf8(body)
                .map_err(|_| ApiError::internal("wire response is not UTF-8"))?;
            serde_json::from_str(text)
                .map_err(|e| ApiError::internal(format!("undecodable wire object: {e}")))
        }
        Encoding::Binary => codec::from_framed_slice(codec::FRAME_OBJECT, body)
            .map_err(|e| ApiError::internal(format!("undecodable vcbin object: {e}"))),
    }
}

/// Decodes an error response; an undecodable body degrades to `Internal`
/// with the raw status attached rather than masking the failure.
fn parse_error(status: u16, body: &[u8], encoding: Encoding) -> ApiError {
    match encoding {
        Encoding::Json => {
            if let Ok(text) = std::str::from_utf8(body) {
                if let Ok(err) = serde_json::from_str::<ApiError>(text) {
                    return err;
                }
            }
            ApiError::internal(format!("wire status {status} with undecodable error body"))
        }
        Encoding::Binary => codec::decode_error(status, body),
    }
}

impl ObjectApi for WireClient {
    fn create(&self, obj: Object) -> ApiResult<Arc<Object>> {
        let body = self.encode_object(&obj)?;
        self.object_request("POST", &format!("/api/{}", obj.kind().as_str()), &body, false)
    }

    fn get(&self, kind: ResourceKind, namespace: &str, name: &str) -> ApiResult<Arc<Object>> {
        self.object_request("GET", &Self::target(kind, namespace, name), &[], true)
    }

    fn list(
        &self,
        kind: ResourceKind,
        namespace: Option<&str>,
    ) -> ApiResult<(Vec<Arc<Object>>, u64)> {
        let mut target = format!("/api/{}", kind.as_str());
        if let Some(ns) = namespace {
            target.push_str("?namespace=");
            target.push_str(ns);
        }
        let (status, body, enc) = self.request("GET", &target, &[], true)?;
        if status != 200 {
            return Err(parse_error(status, &body, enc));
        }
        match enc {
            Encoding::Json => {
                let text = std::str::from_utf8(&body)
                    .map_err(|_| ApiError::internal("wire list response is not UTF-8"))?;
                let list: WireList = serde_json::from_str(text)
                    .map_err(|e| ApiError::internal(format!("undecodable wire list: {e}")))?;
                Ok((list.items.into_iter().map(Arc::new).collect(), list.resource_version))
            }
            Encoding::Binary => {
                let (revision, items) = codec::read_list_frame::<Object>(&body)
                    .map_err(|e| ApiError::internal(format!("undecodable vcbin list: {e}")))?;
                Ok((items.into_iter().map(Arc::new).collect(), revision))
            }
        }
    }

    fn update(&self, obj: Object) -> ApiResult<Arc<Object>> {
        let target = Self::target(obj.kind(), &obj.meta().namespace, &obj.meta().name);
        let body = self.encode_object(&obj)?;
        self.object_request("PUT", &target, &body, false)
    }

    fn delete(&self, kind: ResourceKind, namespace: &str, name: &str) -> ApiResult<Arc<Object>> {
        self.object_request("DELETE", &Self::target(kind, namespace, name), &[], false)
    }

    fn watch(
        &self,
        kind: ResourceKind,
        namespace: Option<&str>,
        from_revision: u64,
    ) -> ApiResult<Box<dyn WatchHandle>> {
        self.limiter.acquire();
        let spec = WatchSpec {
            addr: self.addr.clone(),
            user: self.user.clone(),
            flow: self.flow.clone(),
            encoding: self.encoding,
            kind,
            namespace: namespace.map(str::to_string),
        };
        // The first connect reports errors synchronously (Forbidden,
        // server down, …); reconnects after that are the reader's job.
        let conn = open_watch(&spec, from_revision)?;
        Ok(Box::new(WireWatch::spawn(spec, conn, from_revision)))
    }
}

/// Everything the watch reader thread needs to (re)establish its stream.
struct WatchSpec {
    addr: String,
    user: String,
    flow: Option<String>,
    encoding: Encoding,
    kind: ResourceKind,
    namespace: Option<String>,
}

/// Opens one watch connection anchored at `from`, returning it with the
/// chunked response header already consumed.
fn open_watch(spec: &WatchSpec, from: u64) -> ApiResult<Conn> {
    let mut target = format!("/watch/{}?from={from}", spec.kind.as_str());
    if let Some(ns) = &spec.namespace {
        target.push_str("&namespace=");
        target.push_str(ns);
    }
    let mut conn = Conn::open(&spec.addr)
        .map_err(|e| ApiError::unavailable(format!("connect {}: {e}", spec.addr)))?;
    let mut head = std::mem::take(&mut conn.head);
    build_head(
        &mut head,
        "GET",
        &target,
        0,
        &spec.addr,
        &spec.user,
        spec.flow.as_deref(),
        spec.encoding,
    );
    let wrote = crate::http::write_all_vectored(&mut conn.stream, &[head.as_bytes()]);
    conn.head = head;
    wrote.map_err(|e| ApiError::unavailable(format!("write {}: {e}", spec.addr)))?;
    let mut line = std::mem::take(&mut conn.line);
    let resp = crate::http::read_response_head(&mut conn.reader, &mut line)
        .map_err(|e| ApiError::unavailable(format!("read {}: {e}", spec.addr)))?;
    conn.line = line;
    if resp.status != 200 {
        let enc = codec::encoding_of(resp.content_type());
        return Err(parse_error(resp.status, &resp.body, enc));
    }
    if !resp.chunked {
        return Err(ApiError::internal("watch response was not chunked"));
    }
    Ok(conn)
}

/// Client side of a watch stream: a reader thread decodes chunks into
/// [`WatchEvent`]s and transparently reconnects a dropped socket from the
/// last revision it delivered; dropping the handle tears the stream down.
pub struct WireWatch {
    rx: Receiver<WatchEvent>,
    stopped: Arc<AtomicBool>,
    socket: Arc<Mutex<Option<TcpStream>>>,
}

impl std::fmt::Debug for WireWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireWatch").finish()
    }
}

/// Why the pump loop stopped consuming a connection.
enum PumpExit {
    /// Socket error / EOF with replay still possible — reconnect from the
    /// last delivered revision.
    Disconnected,
    /// Terminal: server said RESYNC, the channel consumer went away, or a
    /// chunk failed to decode (protocol breach — resync rather than guess).
    Done,
}

impl WireWatch {
    fn spawn(spec: WatchSpec, conn: Conn, from: u64) -> WireWatch {
        let stopped = Arc::new(AtomicBool::new(false));
        let socket = Arc::new(Mutex::new(conn.stream.try_clone().ok()));
        let (tx, rx) = unbounded();
        {
            let stopped = stopped.clone();
            let socket = socket.clone();
            std::thread::Builder::new()
                .name("wire-watch-reader".to_string())
                .spawn(move || reader_loop(spec, conn, from, &tx, &stopped, &socket))
                .expect("spawn watch reader");
        }
        WireWatch { rx, stopped, socket }
    }
}

/// Pumps one connection's chunks into `tx`, tracking the last *delivered*
/// revision in `anchor` — delivered meaning the event actually landed in
/// the channel, so a reconnect never skips an event the consumer has not
/// seen.
fn pump(
    conn: &mut Conn,
    tx: &Sender<WatchEvent>,
    anchor: &mut u64,
    encoding: Encoding,
) -> PumpExit {
    let mut line = std::mem::take(&mut conn.line);
    loop {
        let chunk = match crate::http::read_chunk(&mut conn.reader, &mut line) {
            Ok(Some(chunk)) => chunk,
            Ok(None) => return PumpExit::Done, // clean terminator follows RESYNC
            Err(_) => return PumpExit::Disconnected,
        };
        let events = match decode_chunk(&chunk, encoding) {
            Ok(ChunkEvents::Events(events)) => events,
            Ok(ChunkEvents::Resync) => return PumpExit::Done,
            Err(_) => return PumpExit::Done,
        };
        for ev in events {
            let revision = ev.revision;
            if tx.send(ev).is_err() {
                return PumpExit::Done; // consumer dropped the handle
            }
            *anchor = revision;
        }
    }
}

enum ChunkEvents {
    Events(Vec<WatchEvent>),
    Resync,
}

/// Decodes one chunk — possibly a *batch* of events in either codec —
/// into watch events. A RESYNC frame terminates the stream (any events
/// earlier in the same chunk are discarded with it: the consumer is about
/// to re-list anyway).
fn decode_chunk(chunk: &[u8], encoding: Encoding) -> Result<ChunkEvents, ApiError> {
    match encoding {
        Encoding::Json => {
            let text = std::str::from_utf8(chunk)
                .map_err(|_| ApiError::internal("watch chunk is not UTF-8"))?;
            let mut events = Vec::new();
            for line in text.lines().filter(|l| !l.is_empty()) {
                if line.starts_with(RESYNC_PREFIX) {
                    return Ok(ChunkEvents::Resync);
                }
                let msg: WireEventMsg = serde_json::from_str(line)
                    .map_err(|e| ApiError::internal(format!("undecodable watch event: {e}")))?;
                let event_type = match msg.event_type.as_str() {
                    "ADDED" => EventType::Added,
                    "MODIFIED" => EventType::Modified,
                    "DELETED" => EventType::Deleted,
                    other => {
                        return Err(ApiError::internal(format!("unknown event type {other:?}")))
                    }
                };
                events.push(WatchEvent {
                    revision: msg.revision,
                    event_type,
                    object: Arc::new(msg.object),
                });
            }
            Ok(ChunkEvents::Events(events))
        }
        Encoding::Binary => {
            let frames = codec::read_event_frames::<Object>(chunk)
                .map_err(|e| ApiError::internal(format!("undecodable watch chunk: {e}")))?;
            let mut events = Vec::with_capacity(frames.len());
            for frame in frames {
                let event_type = match frame.event_type {
                    codec::EVENT_ADDED => EventType::Added,
                    codec::EVENT_MODIFIED => EventType::Modified,
                    codec::EVENT_DELETED => EventType::Deleted,
                    codec::EVENT_RESYNC => return Ok(ChunkEvents::Resync),
                    other => {
                        return Err(ApiError::internal(format!("unknown event type byte {other}")))
                    }
                };
                let object =
                    frame.object.ok_or_else(|| ApiError::internal("event frame missing object"))?;
                events.push(WatchEvent {
                    revision: frame.revision,
                    event_type,
                    object: Arc::new(object),
                });
            }
            Ok(ChunkEvents::Events(events))
        }
    }
}

fn reader_loop(
    spec: WatchSpec,
    mut conn: Conn,
    from: u64,
    tx: &Sender<WatchEvent>,
    stopped: &AtomicBool,
    socket: &Mutex<Option<TcpStream>>,
) {
    // The revision to re-anchor a reconnect at: advances only when an
    // event is *delivered* into the channel, never when it is merely read
    // off the socket — an event decoded but undelivered would otherwise be
    // lost across a reconnect.
    let mut anchor = from;
    loop {
        let exit = pump(&mut conn, tx, &mut anchor, spec.encoding);
        let _ = conn.stream.shutdown(Shutdown::Both);
        match exit {
            PumpExit::Done => break,
            PumpExit::Disconnected => {}
        }
        // Transparent reconnect, re-anchored at the last delivered
        // revision; the server replays everything committed after it.
        let mut reconnected = None;
        for attempt in 0..WATCH_RECONNECT_ATTEMPTS {
            if stopped.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(WATCH_RECONNECT_BACKOFF * (attempt + 1));
            match open_watch(&spec, anchor) {
                Ok(conn) => {
                    reconnected = Some(conn);
                    break;
                }
                Err(err) if err.is_expired() => break, // compacted: must re-list
                Err(_) => continue,
            }
        }
        let Some(next) = reconnected else { break };
        conn = next;
        *socket.lock() = conn.stream.try_clone().ok();
        if stopped.load(Ordering::SeqCst) {
            // Lost the race with Drop: tear the fresh socket down too.
            let _ = conn.stream.shutdown(Shutdown::Both);
            break;
        }
    }
    // Dropping tx surfaces Closed to the receiver.
}

impl WatchHandle for WireWatch {
    fn recv_deadline(&self, timeout: Duration) -> RecvOutcome {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => RecvOutcome::Event(ev),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Timeout,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }
}

impl Drop for WireWatch {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
        if let Some(stream) = self.socket.lock().as_ref() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}
