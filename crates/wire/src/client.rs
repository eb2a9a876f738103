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
//! Watches each open a dedicated connection, read on the thread that
//! receives from the watch: no reader thread and no channel sit in
//! between, so a consumer that stops receiving stops reading the socket,
//! and the server's write timeout degrades it instead of its backlog
//! growing in client memory. A dropped socket is **reconnected
//! transparently** inside a receive, re-anchored at the revision of the
//! last event decoded off the socket (the events before it wait in the
//! watch's buffer), so an event committed while the connection was down
//! is replayed, not lost. A terminal `RESYNC` (store-side
//! compaction/overflow: the server cannot replay) surfaces as
//! [`RecvOutcome::Closed`], telling the consumer to re-list exactly like
//! an in-process overflow eviction would.
//!
//! A client, its clones and its watches share one [`DecodeCache`]: every
//! `vcbin` object, list item and watch event decodes once per distinct
//! encoding, and a repeat of the same bytes hands out the same
//! `Arc<Object>`. JSON bodies are decoded every time.

use crate::codec;
use crate::decode::DecodeCache;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::error::{ApiError, ApiResult};
use vc_api::object::{Object, ResourceKind};
use vc_client::{Encoding, ObjectApi, RateLimiter, WatchHandle};
use vc_store::{EventType, RecvOutcome, WatchEvent};

/// Wire framing of a JSON list response; field order matches what the
/// server splices byte-for-byte from the stored objects' encodings.
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

/// Bound on reading the rest of a watch chunk once its first byte is in,
/// and on a watch response head: well past the server's default write
/// budget, so a chunk the server is still writing is not cut short.
const CHUNK_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One persistent connection: write half, buffered read half, and the
/// reusable buffers that make a warm connection allocation-free on the
/// framing path: the request head, the response line, and the response
/// body (a watch's chunk payload).
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    head: String,
    line: Vec<u8>,
    body: Vec<u8>,
}

/// A request target, written straight into the request head.
#[derive(Debug, Clone, Copy)]
enum Target<'a> {
    /// One object: `/api/{kind}/{namespace}/{name}`, the namespace `_`
    /// for cluster-scoped kinds or an empty namespace.
    Object(ResourceKind, &'a str, &'a str),
    /// A kind's collection: `/api/{kind}`, with `?namespace=` when given.
    Kind(ResourceKind, Option<&'a str>),
    /// A watch: `/watch/{kind}?from={revision}`, with `&namespace=` when
    /// given.
    Watch(ResourceKind, Option<&'a str>, u64),
}

impl Target<'_> {
    fn write(self, out: &mut String) {
        match self {
            Target::Object(kind, namespace, name) => {
                let cluster = kind.is_cluster_scoped() || namespace.is_empty();
                out.push_str("/api/");
                out.push_str(kind.as_str());
                out.push('/');
                out.push_str(if cluster { "_" } else { namespace });
                out.push('/');
                out.push_str(name);
            }
            Target::Kind(kind, namespace) => {
                out.push_str("/api/");
                out.push_str(kind.as_str());
                if let Some(ns) = namespace {
                    out.push_str("?namespace=");
                    out.push_str(ns);
                }
            }
            Target::Watch(kind, namespace, from) => {
                let _ = write!(out, "/watch/{}?from={from}", kind.as_str());
                if let Some(ns) = namespace {
                    out.push_str("&namespace=");
                    out.push_str(ns);
                }
            }
        }
    }
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
            line: Vec::with_capacity(256),
            body: Vec::new(),
        })
    }
}

/// A client for a [`crate::server::WireServer`], interchangeable with the
/// in-process client through [`ObjectApi`].
pub struct WireClient {
    addr: String,
    user: String,
    encoding: Encoding,
    limiter: Arc<RateLimiter>,
    conn: Mutex<Option<Conn>>,
    decoded: Arc<DecodeCache>,
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
    /// Clones share identity, codec, rate budget and decoded objects but
    /// not the connection — each clone opens its own socket, which is
    /// what makes a clone safe to hand to another thread.
    fn clone(&self) -> Self {
        WireClient {
            addr: self.addr.clone(),
            user: self.user.clone(),
            encoding: self.encoding,
            limiter: self.limiter.clone(),
            conn: Mutex::new(None),
            decoded: Arc::clone(&self.decoded),
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
            encoding: Encoding::Json,
            limiter: Arc::new(RateLimiter::new(qps, burst)),
            conn: Mutex::new(None),
            decoded: Arc::default(),
        }
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

    /// The objects this client, its clones and its watches decoded from
    /// `vcbin` bodies.
    pub fn decode_cache(&self) -> &DecodeCache {
        &self.decoded
    }

    /// Appends a request head to `out`.
    fn build_head(&self, out: &mut String, method: &str, target: Target<'_>, body_len: usize) {
        out.push_str(method);
        out.push(' ');
        target.write(out);
        out.push_str(" HTTP/1.1\r\nhost: ");
        out.push_str(&self.addr);
        out.push_str("\r\nx-vc-user: ");
        out.push_str(&self.user);
        out.push_str("\r\naccept: ");
        out.push_str(codec::content_type(self.encoding));
        out.push_str("\r\n");
        if body_len > 0 {
            // Bodyless verbs skip both headers — the server reads a missing
            // content-length as 0.
            let _ = write!(out, "content-length: {body_len}\r\n");
            out.push_str("content-type: ");
            out.push_str(codec::content_type(self.encoding));
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
    }

    /// Sends one unary request over the persistent connection and hands
    /// the response's status, body and encoding to `parse` while the body
    /// is still in the connection's buffer.
    ///
    /// Retry semantics: a failed *write* means the server cannot have
    /// executed anything (stale keep-alive socket), so any verb retries
    /// once on a fresh connection. A failed *read* means the request may
    /// have executed — only `idempotent` requests (GETs) are resent.
    fn request<T>(
        &self,
        method: &str,
        target: Target<'_>,
        body: &[u8],
        idempotent: bool,
        parse: impl FnOnce(u16, &[u8], Encoding) -> ApiResult<T>,
    ) -> ApiResult<T> {
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
            conn.head.clear();
            self.build_head(&mut conn.head, method, target, body.len());
            let wrote =
                crate::http::write_all_vectored(&mut conn.stream, &[conn.head.as_bytes(), body]);
            if let Err(e) = wrote {
                // A stale keep-alive connection the server already closed;
                // nothing was executed, so retrying on a fresh socket is safe.
                *guard = None;
                if attempt == 0 {
                    continue;
                }
                return Err(ApiError::unavailable(format!("write {}: {e}", self.addr)));
            }
            match crate::http::read_response_head(&mut conn.reader, &mut conn.line, &mut conn.body)
            {
                Ok(resp) => return parse(resp.status, &conn.body, resp.encoding),
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
        target: Target<'_>,
        body: &[u8],
        idempotent: bool,
    ) -> ApiResult<Arc<Object>> {
        self.request(method, target, body, idempotent, |status, body, enc| {
            self.parse_response(status, body, enc)
        })
    }

    fn parse_response(&self, status: u16, body: &[u8], enc: Encoding) -> ApiResult<Arc<Object>> {
        if status == 200 {
            parse_object(body, enc, &self.decoded)
        } else {
            Err(parse_error(status, body, enc))
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
            conn.head.clear();
            for &(namespace, name) in pending {
                self.build_head(&mut conn.head, "GET", Target::Object(kind, namespace, name), 0);
            }
            if crate::http::write_all_vectored(&mut conn.stream, &[conn.head.as_bytes()]).is_err() {
                *guard = None;
                continue;
            }
            for _ in 0..pending.len() {
                match crate::http::read_response_head(
                    &mut conn.reader,
                    &mut conn.line,
                    &mut conn.body,
                ) {
                    Ok(resp) => {
                        results.push(self.parse_response(resp.status, &conn.body, resp.encoding));
                    }
                    Err(_) => break, // retry the unanswered suffix
                }
            }
            if results.len() < items.len() {
                *guard = None;
            }
        }
        Ok(results)
    }

    /// Opens one watch connection anchored at `from`, returning it with
    /// the chunked response header already consumed.
    fn open_watch(
        &self,
        kind: ResourceKind,
        namespace: Option<&str>,
        from: u64,
    ) -> ApiResult<Conn> {
        let mut conn = Conn::open(&self.addr)
            .map_err(|e| ApiError::unavailable(format!("connect {}: {e}", self.addr)))?;
        conn.stream.set_read_timeout(Some(CHUNK_READ_TIMEOUT)).ok();
        self.build_head(&mut conn.head, "GET", Target::Watch(kind, namespace, from), 0);
        crate::http::write_all_vectored(&mut conn.stream, &[conn.head.as_bytes()])
            .map_err(|e| ApiError::unavailable(format!("write {}: {e}", self.addr)))?;
        let resp =
            crate::http::read_response_head(&mut conn.reader, &mut conn.line, &mut conn.body)
                .map_err(|e| ApiError::unavailable(format!("read {}: {e}", self.addr)))?;
        if resp.status != 200 {
            return Err(parse_error(resp.status, &conn.body, resp.encoding));
        }
        if !resp.chunked {
            return Err(ApiError::internal("watch response was not chunked"));
        }
        Ok(conn)
    }
}

fn parse_object(body: &[u8], encoding: Encoding, decoded: &DecodeCache) -> ApiResult<Arc<Object>> {
    match encoding {
        Encoding::Json => {
            let text = std::str::from_utf8(body)
                .map_err(|_| ApiError::internal("wire response is not UTF-8"))?;
            serde_json::from_str(text)
                .map(Arc::new)
                .map_err(|e| ApiError::internal(format!("undecodable wire object: {e}")))
        }
        Encoding::Binary => codec::frame_payload(body, codec::FRAME_OBJECT)
            .and_then(|item| decoded.decode(item))
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
        self.object_request("POST", Target::Kind(obj.kind(), None), &body, false)
    }

    fn get(&self, kind: ResourceKind, namespace: &str, name: &str) -> ApiResult<Arc<Object>> {
        self.object_request("GET", Target::Object(kind, namespace, name), &[], true)
    }

    fn list(
        &self,
        kind: ResourceKind,
        namespace: Option<&str>,
    ) -> ApiResult<(Vec<Arc<Object>>, u64)> {
        self.request("GET", Target::Kind(kind, namespace), &[], true, |status, body, enc| {
            if status != 200 {
                return Err(parse_error(status, body, enc));
            }
            match enc {
                Encoding::Json => {
                    let text = std::str::from_utf8(body)
                        .map_err(|_| ApiError::internal("wire list response is not UTF-8"))?;
                    let list: WireList = serde_json::from_str(text)
                        .map_err(|e| ApiError::internal(format!("undecodable wire list: {e}")))?;
                    Ok((list.items.into_iter().map(Arc::new).collect(), list.resource_version))
                }
                Encoding::Binary => {
                    let (revision, items) = self
                        .decoded
                        .decode_list(body)
                        .map_err(|e| ApiError::internal(format!("undecodable vcbin list: {e}")))?;
                    Ok((items, revision))
                }
            }
        })
    }

    fn update(&self, obj: Object) -> ApiResult<Arc<Object>> {
        let body = self.encode_object(&obj)?;
        let target = Target::Object(obj.kind(), &obj.meta().namespace, &obj.meta().name);
        self.object_request("PUT", target, &body, false)
    }

    fn delete(&self, kind: ResourceKind, namespace: &str, name: &str) -> ApiResult<Arc<Object>> {
        self.object_request("DELETE", Target::Object(kind, namespace, name), &[], false)
    }

    fn watch(
        &self,
        kind: ResourceKind,
        namespace: Option<&str>,
        from_revision: u64,
    ) -> ApiResult<Box<dyn WatchHandle>> {
        self.limiter.acquire();
        // The first connect reports errors synchronously (Forbidden,
        // server down, …); reconnects after that happen inside a receive.
        let conn = self.open_watch(kind, namespace, from_revision)?;
        let state = WatchState {
            conn: Some(conn),
            events: VecDeque::new(),
            anchor: from_revision,
            attempts: 0,
        };
        let namespace = namespace.map(str::to_string);
        Ok(Box::new(WireWatch { client: self.clone(), kind, namespace, state: Mutex::new(state) }))
    }
}

/// Client side of a watch stream, read on the thread that receives from
/// it: a receive decodes the next chunk off the socket into a buffer of
/// events and hands them out one by one. Dropping the handle closes the
/// socket.
pub struct WireWatch {
    /// Identity, codec and decoded objects of the client that opened it.
    client: WireClient,
    kind: ResourceKind,
    namespace: Option<String>,
    state: Mutex<WatchState>,
}

/// What a [`WireWatch`] keeps from one receive to the next.
struct WatchState {
    /// The stream's connection; `None` while it is being reconnected and
    /// once the stream has ended.
    conn: Option<Conn>,
    /// Events decoded off the socket and not yet returned.
    events: VecDeque<WatchEvent>,
    /// The revision of the last event decoded into `events`, where a
    /// reconnect resumes: every event up to it is in `events` or was
    /// returned, so none is skipped and none repeated.
    anchor: u64,
    /// Reconnect attempts since the connection dropped;
    /// `WATCH_RECONNECT_ATTEMPTS` once the stream has ended.
    attempts: u32,
}

impl WatchState {
    /// Ends the stream for good: the consumer must re-list.
    fn end(&mut self) {
        self.conn = None;
        self.attempts = WATCH_RECONNECT_ATTEMPTS;
    }
}

impl std::fmt::Debug for WireWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireWatch").finish()
    }
}

/// Waits up to `remaining` for the next bytes of `conn`, leaving them in
/// its reader's buffer; `Ok(false)` when none came. A zero wait only
/// looks. Outside the wait the socket's read timeout is
/// `CHUNK_READ_TIMEOUT`, which bounds reading the rest of a chunk.
fn wait_for_bytes(conn: &mut Conn, remaining: Duration) -> std::io::Result<bool> {
    if !conn.reader.buffer().is_empty() {
        return Ok(true);
    }
    let read = if remaining.is_zero() {
        conn.stream.set_nonblocking(true)?;
        let read = conn.reader.fill_buf().map(<[u8]>::len);
        conn.stream.set_nonblocking(false).and(read)
    } else {
        conn.stream.set_read_timeout(Some(remaining))?;
        let read = conn.reader.fill_buf().map(<[u8]>::len);
        conn.stream.set_read_timeout(Some(CHUNK_READ_TIMEOUT)).and(read)
    };
    match read {
        Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
        Ok(_) => Ok(true),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Decodes one chunk, possibly a batch of events in either codec, onto
/// the back of `events`. Returns `false` when the stream ends with this
/// chunk: at a RESYNC frame, or at a chunk it cannot decode (a protocol
/// breach: resync rather than guess). Events before that point stay.
fn decode_chunk(
    chunk: &[u8],
    encoding: Encoding,
    decoded: &DecodeCache,
    events: &mut VecDeque<WatchEvent>,
) -> bool {
    match encoding {
        Encoding::Json => {
            let Ok(text) = std::str::from_utf8(chunk) else { return false };
            for line in text.lines().filter(|l| !l.is_empty()) {
                if line.starts_with(RESYNC_PREFIX) {
                    return false;
                }
                let Ok(msg) = serde_json::from_str::<WireEventMsg>(line) else { return false };
                let event_type = match msg.event_type.as_str() {
                    "ADDED" => EventType::Added,
                    "MODIFIED" => EventType::Modified,
                    "DELETED" => EventType::Deleted,
                    _ => return false,
                };
                let object = Arc::new(msg.object);
                events.push_back(WatchEvent { revision: msg.revision, event_type, object });
            }
        }
        Encoding::Binary => {
            for frame in codec::split_event_frames(chunk) {
                let Ok(frame) = frame else { return false };
                let event_type = match frame.event_type {
                    codec::EVENT_ADDED => EventType::Added,
                    codec::EVENT_MODIFIED => EventType::Modified,
                    codec::EVENT_DELETED => EventType::Deleted,
                    _ => return false, // RESYNC, or a type this client does not know
                };
                let Some(Ok(object)) = frame.object.map(|item| decoded.decode(item)) else {
                    return false;
                };
                events.push_back(WatchEvent { revision: frame.revision, event_type, object });
            }
        }
    }
    true
}

impl WatchHandle for WireWatch {
    /// Returns a buffered event if one waits; otherwise waits up to
    /// `timeout` for the next chunk, decodes it and returns its first
    /// event. A chunk that has started is read to its end under
    /// `CHUNK_READ_TIMEOUT`, so an event is never split. A dropped
    /// socket is reconnected here, one attempt after each backoff step;
    /// a receive makes at least one attempt, so it may overrun a short
    /// `timeout` by one step. The budget spent, a compacted revision or a
    /// RESYNC ends the stream with [`RecvOutcome::Closed`].
    fn recv_deadline(&self, timeout: Duration) -> RecvOutcome {
        let deadline = Instant::now().checked_add(timeout);
        let remaining =
            || deadline.map_or(timeout, |d| d.saturating_duration_since(Instant::now()));
        let mut guard = self.state.lock();
        let state = &mut *guard;
        loop {
            if let Some(ev) = state.events.pop_front() {
                return RecvOutcome::Event(ev);
            }
            let Some(conn) = state.conn.as_mut() else {
                if state.attempts == WATCH_RECONNECT_ATTEMPTS {
                    return RecvOutcome::Closed;
                }
                // Re-anchored at the last decoded revision, the server
                // replays everything committed after it.
                state.attempts += 1;
                std::thread::sleep(WATCH_RECONNECT_BACKOFF * state.attempts);
                match self.client.open_watch(self.kind, self.namespace.as_deref(), state.anchor) {
                    Ok(conn) => {
                        state.conn = Some(conn);
                        state.attempts = 0;
                    }
                    Err(err) if err.is_expired() => state.end(), // compacted: must re-list
                    Err(_) if remaining().is_zero() => return RecvOutcome::Timeout,
                    Err(_) => {}
                }
                continue;
            };
            match wait_for_bytes(conn, remaining()) {
                Ok(true) => {}
                Ok(false) => return RecvOutcome::Timeout,
                Err(_) => {
                    state.conn = None;
                    continue;
                }
            }
            match crate::http::read_chunk(&mut conn.reader, &mut conn.line, &mut conn.body) {
                Ok(true) => {
                    let (encoding, decoded) = (self.client.encoding, &self.client.decoded);
                    let more = decode_chunk(&conn.body, encoding, decoded, &mut state.events);
                    state.anchor = state.events.back().map_or(state.anchor, |ev| ev.revision);
                    if !more {
                        state.end();
                    }
                }
                Ok(false) => state.end(), // clean terminator after RESYNC or shutdown
                Err(_) => state.conn = None,
            }
        }
    }
}
