//! Minimal HTTP/1.1 framing, shared by [`crate::server`] and
//! [`crate::client`].
//!
//! The build is offline (no tokio/hyper), so the wire tier speaks exactly
//! the HTTP subset a list/watch apiserver needs: request line + headers +
//! `Content-Length` bodies for the unary verbs, persistent connections
//! (`keep-alive` default), and `Transfer-Encoding: chunked` responses for
//! watch streams where each chunk carries one or more framed events.
//!
//! Three hot-path disciplines live here rather than in the callers:
//!
//! - **One syscall per frame** — response heads, bodies, and chunk
//!   framing go out through [`write_all_vectored`], which coalesces the
//!   header buffer and the (often shared) body buffer into a
//!   single `writev` instead of a write per piece.
//! - **Buffer reuse** — head construction, line reading and bodies work
//!   in caller-owned buffers that persist for the life of a connection,
//!   so a keep-alive connection serving thousands of requests stops
//!   allocating per request.
//! - **Borrowed, bounded heads** — a parsed [`Request`] borrows its
//!   method, path, query and the five headers the server reads from the
//!   connection's [`RequestBuf`], and a [`Response`] keeps only what the
//!   client acts on; every other header is dropped once read. No line
//!   is buffered past 64 KiB and no head past 64 header lines, so a peer
//!   that never sends a newline, or sends headers without end, is
//!   refused instead of growing a buffer.

use crate::codec;
use std::io::{BufRead, IoSlice, Read, Write};
use std::net::TcpStream;
use vc_client::Encoding;

/// Largest accepted request or response body, and largest chunk, a
/// crude defense against a misbehaving peer streaming garbage.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Largest accepted single head line, terminator included.
const MAX_LINE: usize = 64 * 1024;

/// Most header lines accepted in one request or response head.
const MAX_HEADERS: usize = 64;

/// Most parts one vectored write takes: [`write_all_vectored`] builds its
/// slice list on the stack, and [`write_response`] spends one part on the
/// head.
pub const MAX_WRITE_PARTS: usize = 8;

/// A connection buffer that one large message grew past this is released
/// before the next message instead of being kept for the connection's
/// life.
const RETAINED_CAPACITY: usize = 1 << 20;

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn eof(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg)
}

/// Clears `buf` for the next message, dropping its storage if an earlier
/// message grew it past `RETAINED_CAPACITY`.
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_CAPACITY {
        *buf = Vec::new();
    }
    buf.clear();
}

/// Appends one line, terminator included, to `buf`, reading no more than
/// `MAX_LINE` bytes of it. Returns the bytes appended: 0 at end of
/// stream, and a line cut short by end of stream counts as a line.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let n = reader.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', buf)?;
    if n > MAX_LINE {
        return Err(invalid("header line too long"));
    }
    Ok(n)
}

/// `line` without its terminator (`\r\n`, bare `\n`, or stray `\r`s).
fn trim_eol(line: &[u8]) -> &[u8] {
    let end = line.iter().rposition(|&b| b != b'\n' && b != b'\r').map_or(0, |i| i + 1);
    &line[..end]
}

/// A connection's request buffers: the head is read into `head` and the
/// body into `body`, and a [`Request`] borrows from both, so a warm
/// keep-alive connection reads a request without allocating.
#[derive(Debug, Default)]
pub struct RequestBuf {
    head: Vec<u8>,
    body: Vec<u8>,
}

/// A parsed HTTP/1.1 request, borrowed from its connection's
/// [`RequestBuf`]. Of the headers it keeps only those the server reads;
/// for each, the last occurrence wins.
#[derive(Debug)]
pub struct Request<'a> {
    /// Request method (`GET`, `POST`, `PUT`, `DELETE`).
    pub method: &'a str,
    /// Path component of the request target, percent-decoding not
    /// required (the wire protocol only uses DNS-safe names).
    pub path: &'a str,
    /// The raw query (`a=b&c=d`, without the `?`); see
    /// [`Request::query_param`].
    pub query: &'a str,
    /// The `connection` header.
    pub connection: Option<&'a str>,
    /// The `accept` header.
    pub accept: Option<&'a str>,
    /// The `content-type` header.
    pub content_type: Option<&'a str>,
    /// The `x-vc-user` header: the identity the request claims.
    pub user: Option<&'a str>,
    /// Request body (empty when no `Content-Length`).
    pub body: &'a [u8],
    /// Bytes the request took on the wire: head and body.
    pub wire_len: usize,
}

impl<'a> Request<'a> {
    /// The `keep-alive`/`close` decision for this request: HTTP/1.1
    /// defaults to persistent unless the peer asked to close.
    pub fn keep_alive(&self) -> bool {
        !self.connection.is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The value of query parameter `key`, `None` when absent; the last
    /// occurrence wins and a key without `=` has an empty value.
    pub fn query_param(&self, key: &str) -> Option<&'a str> {
        // Scanning from the end, the first match is the last occurrence.
        self.query.rsplit('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (!pair.is_empty() && k == key).then_some(v)
        })
    }
}

/// Reads one request off a persistent connection into `buf`, the
/// connection's reusable buffers. `Ok(None)` means the peer closed
/// cleanly between requests.
///
/// # Errors
///
/// A malformed request line, a head that is not UTF-8, a line longer
/// than 64 KiB, more than 64 header lines or a body over [`MAX_BODY`] is
/// [`std::io::ErrorKind::InvalidData`]; a stream that ends inside the
/// head or body is [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_request<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut RequestBuf,
) -> std::io::Result<Option<Request<'b>>> {
    let RequestBuf { head, body } = buf;
    recycle(head);
    recycle(body);
    if read_line(reader, head)? == 0 {
        return Ok(None);
    }
    let mut headers = 0;
    loop {
        let start = head.len();
        if read_line(reader, head)? == 0 {
            return Err(eof("eof inside headers"));
        }
        if trim_eol(&head[start..]).is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
    }
    let head: &'b [u8] = head;
    let text = std::str::from_utf8(head).map_err(|_| invalid("request head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|line| line.trim_end_matches('\r'));
    let mut parts = lines.next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(invalid("malformed request line"));
    };
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut req = Request {
        method,
        path,
        query,
        connection: None,
        accept: None,
        content_type: None,
        user: None,
        body: &[],
        wire_len: head.len(),
    };
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim();
        let slot = if name.eq_ignore_ascii_case("connection") {
            &mut req.connection
        } else if name.eq_ignore_ascii_case("accept") {
            &mut req.accept
        } else if name.eq_ignore_ascii_case("content-type") {
            &mut req.content_type
        } else if name.eq_ignore_ascii_case("content-length") {
            &mut content_length
        } else if name.eq_ignore_ascii_case("x-vc-user") {
            &mut req.user
        } else {
            continue;
        };
        *slot = Some(value.trim());
    }
    let len: usize = content_length.and_then(|v| v.parse().ok()).unwrap_or(0);
    if len > MAX_BODY {
        return Err(invalid("body too large"));
    }
    body.resize(len, 0);
    reader.read_exact(body)?;
    req.body = body;
    req.wire_len += len;
    Ok(Some(req))
}

/// Canonical reason phrase for the status codes the wire protocol emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

fn too_many_parts() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "more parts than one vectored write takes",
    )
}

/// Writes every byte of `parts`, coalescing them into as few `writev`
/// syscalls as possible (one, on an unsaturated socket). Returns the
/// total bytes written.
///
/// # Errors
///
/// More than [`MAX_WRITE_PARTS`] parts is
/// [`std::io::ErrorKind::InvalidInput`], and nothing is written.
/// Propagates socket errors; a socket that reports progress of zero
/// surfaces as [`std::io::ErrorKind::WriteZero`].
pub fn write_all_vectored(stream: &mut TcpStream, parts: &[&[u8]]) -> std::io::Result<usize> {
    if parts.len() > MAX_WRITE_PARTS {
        return Err(too_many_parts());
    }
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut written = 0usize;
    while written < total {
        // Rebuild the slice list past the consumed prefix; the loop body
        // runs once unless the kernel takes a partial write.
        let mut slices = [IoSlice::new(&[]); MAX_WRITE_PARTS];
        let mut count = 0;
        let mut skip = written;
        for part in parts {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            slices[count] = IoSlice::new(&part[skip..]);
            count += 1;
            skip = 0;
        }
        let n = stream.write_vectored(&slices[..count])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "socket accepted zero bytes",
            ));
        }
        written += n;
    }
    Ok(total)
}

/// Builds a response head into `head` (cleared first).
fn build_head(
    head: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) {
    head.clear();
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        head,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {body_len}\r\n",
        reason(status)
    );
    // Keep-alive is the HTTP/1.1 default, so only the close case needs a
    // header — every kept-alive response saves 24 bytes of head.
    head.extend_from_slice(if keep_alive {
        b"\r\n".as_slice()
    } else {
        b"connection: close\r\n\r\n"
    });
}

/// Writes a unary response — head and every body part in one vectored
/// syscall, the head assembled in the caller's reusable `head` buffer.
/// `body` is a part list so callers can splice a frame prefix in front
/// of a shared encoding without copying either. Returns the total
/// bytes put on the wire.
///
/// # Errors
///
/// More than `MAX_WRITE_PARTS - 1` body parts is
/// [`std::io::ErrorKind::InvalidInput`], and nothing is written; socket
/// errors as [`write_all_vectored`].
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[&[u8]],
    keep_alive: bool,
    head: &mut Vec<u8>,
) -> std::io::Result<usize> {
    if body.len() >= MAX_WRITE_PARTS {
        return Err(too_many_parts());
    }
    let body_len: usize = body.iter().map(|p| p.len()).sum();
    build_head(head, status, content_type, body_len, keep_alive);
    let mut parts = [&[][..]; MAX_WRITE_PARTS];
    parts[0] = head.as_slice();
    parts[1..=body.len()].copy_from_slice(body);
    let n = write_all_vectored(stream, &parts[..body.len() + 1])?;
    stream.flush()?;
    Ok(n)
}

/// Starts a chunked (streaming) response; chunks follow via
/// [`write_chunk`] and the stream ends with [`finish_chunks`]. Returns
/// the header bytes written.
pub fn start_chunked(stream: &mut TcpStream, content_type: &str) -> std::io::Result<usize> {
    let n = write_all_vectored(
        stream,
        &[
            b"HTTP/1.1 200 OK\r\ncontent-type: ",
            content_type.as_bytes(),
            b"\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        ],
    )?;
    stream.flush()?;
    Ok(n)
}

/// Writes one chunk (size line + payload + terminator) in a single
/// vectored syscall. Returns the bytes put on the wire.
pub fn write_chunk(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<usize> {
    // Hex size line in a stack buffer: `{:x}\r\n` of a usize fits in 18.
    let mut size_line = [0u8; 18];
    let mut at = size_line.len();
    at -= 2;
    size_line[at] = b'\r';
    size_line[at + 1] = b'\n';
    let mut v = payload.len();
    loop {
        at -= 1;
        size_line[at] = b"0123456789abcdef"[v & 0xf];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    let n = write_all_vectored(stream, &[&size_line[at..], payload, b"\r\n"])?;
    stream.flush()?;
    Ok(n)
}

/// Terminates a chunked response.
pub fn finish_chunks(stream: &mut TcpStream) -> std::io::Result<usize> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()?;
    Ok(5)
}

/// What the client keeps of a response head (client side); the body, if
/// any, is in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The codec the `content-type` names; JSON when absent.
    pub encoding: Encoding,
    /// Body length; 0 for a chunked response.
    pub content_length: usize,
    /// Whether the body arrives chunked (watch streams); when `true` the
    /// body buffer is empty and chunks are read with [`read_chunk`].
    pub chunked: bool,
}

/// Reads the status line and headers of a response into `line`, the
/// connection's reusable line buffer; for a `Content-Length` response
/// also reads the body into `body` (cleared first). For a chunked
/// response the caller drains chunks with [`read_chunk`].
///
/// # Errors
///
/// As [`read_request`]; a malformed status line is
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_response_head(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    body: &mut Vec<u8>,
) -> std::io::Result<Response> {
    line.clear();
    if read_line(reader, line)? == 0 {
        return Err(eof("connection closed"));
    }
    let status: u16 = std::str::from_utf8(trim_eol(line))
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut resp = Response { status, encoding: Encoding::Json, content_length: 0, chunked: false };
    let mut headers = 0;
    loop {
        line.clear();
        if read_line(reader, line)? == 0 {
            return Err(eof("eof in headers"));
        }
        let text =
            std::str::from_utf8(trim_eol(line)).map_err(|_| invalid("header is not UTF-8"))?;
        if text.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let Some((name, value)) = text.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-type") {
            resp.encoding = codec::encoding_of(Some(value));
        } else if name.eq_ignore_ascii_case("content-length") {
            resp.content_length = value.parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            resp.chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    recycle(body);
    if resp.chunked {
        resp.content_length = 0;
    } else {
        if resp.content_length > MAX_BODY {
            return Err(invalid("body too large"));
        }
        body.resize(resp.content_length, 0);
        reader.read_exact(body)?;
    }
    Ok(resp)
}

/// Reads one chunk of a chunked response into `payload` (cleared first),
/// the stream's reusable payload buffer. `Ok(false)` signals the
/// terminating zero-length chunk (clean end of stream). `line` is the
/// connection's reusable line buffer.
pub fn read_chunk(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    payload: &mut Vec<u8>,
) -> std::io::Result<bool> {
    line.clear();
    if read_line(reader, line)? == 0 {
        return Err(eof("eof before chunk"));
    }
    let size = std::str::from_utf8(trim_eol(line))
        .ok()
        .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
        .ok_or_else(|| invalid("bad chunk size"))?;
    if size > MAX_BODY {
        return Err(invalid("chunk too large"));
    }
    recycle(payload);
    payload.resize(size + 2, 0);
    reader.read_exact(payload)?;
    payload.truncate(size); // drop trailing \r\n
    Ok(size != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `bytes` as one request and hands it to `check`.
    fn with_request(bytes: &str, check: impl FnOnce(Request<'_>)) {
        let mut buf = RequestBuf::default();
        check(read_request(&mut bytes.as_bytes(), &mut buf).unwrap().expect("a request"));
    }

    fn request_error(bytes: &str) -> std::io::ErrorKind {
        read_request(&mut bytes.as_bytes(), &mut RequestBuf::default()).unwrap_err().kind()
    }

    #[test]
    fn header_names_match_in_any_case_and_values_are_trimmed() {
        let bytes =
            "GET /api/Pod HTTP/1.1\r\nX-VC-User:   alice  \r\nACCEPT:\tapplication/vcbin\r\n\r\n";
        with_request(bytes, |req| {
            assert_eq!(req.user, Some("alice"));
            assert_eq!(req.accept, Some("application/vcbin"));
        });
    }

    #[test]
    fn bare_newlines_end_lines() {
        with_request("PUT /api/Pod/a/b HTTP/1.1\ncontent-length: 3\n\nabc", |req| {
            assert_eq!((req.method, req.path), ("PUT", "/api/Pod/a/b"));
            assert_eq!(req.body, b"abc");
        });
    }

    #[test]
    fn a_repeated_query_key_keeps_its_last_value() {
        with_request("GET /watch/Pod?namespace=a&from=3&namespace=b HTTP/1.1\r\n\r\n", |req| {
            assert_eq!(req.path, "/watch/Pod");
            assert_eq!(req.query_param("namespace"), Some("b"));
            assert_eq!(req.query_param("from"), Some("3"));
            assert_eq!(req.query_param("name"), None);
        });
    }

    #[test]
    fn no_content_length_means_an_empty_body() {
        with_request("POST /api/Pod HTTP/1.1\r\nhost: x\r\n\r\nleftover", |req| {
            assert!(req.body.is_empty());
        });
    }

    #[test]
    fn connection_close_is_honoured_in_any_case() {
        for (header, keep) in
            [("", true), ("Connection: Close\r\n", false), ("connection: keep-alive\r\n", true)]
        {
            with_request(&format!("GET / HTTP/1.1\r\n{header}\r\n"), |req| {
                assert_eq!(req.keep_alive(), keep, "{header:?}");
            });
        }
    }

    #[test]
    fn unknown_headers_are_skipped() {
        let bytes = "GET /healthz HTTP/1.1\r\nx-unknown: 1\r\nnot a header\r\nuser-agent: t\r\n\
                     accept: text/plain\r\n\r\n";
        with_request(bytes, |req| {
            assert_eq!(req.path, "/healthz");
            assert_eq!(req.accept, Some("text/plain"));
            assert!(req.keep_alive());
        });
    }

    #[test]
    fn a_malformed_request_line_is_invalid_data() {
        assert_eq!(request_error("GARBAGE\r\n\r\n"), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_inside_the_headers_is_unexpected_eof() {
        assert_eq!(
            request_error("GET / HTTP/1.1\r\nhost: x\r\n"),
            std::io::ErrorKind::UnexpectedEof
        );
        let closed = read_request(&mut &b""[..], &mut RequestBuf::default()).unwrap().is_none();
        assert!(closed, "a clean close between requests");
    }

    #[test]
    fn chunked_transfer_encoding_is_detected_in_any_case() {
        let mut reader = &b"HTTP/1.1 200 OK\r\nContent-Type: application/vcbin\r\n\
                            Transfer-Encoding: Chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"[..];
        let (mut line, mut payload) = (Vec::new(), Vec::new());
        let resp = read_response_head(&mut reader, &mut line, &mut payload).unwrap();
        assert!(resp.chunked);
        assert_eq!(resp.encoding, Encoding::Binary);
        assert!(read_chunk(&mut reader, &mut line, &mut payload).unwrap());
        assert_eq!(payload, b"abc");
        assert!(!read_chunk(&mut reader, &mut line, &mut payload).unwrap());
    }

    #[test]
    fn a_response_body_is_read_to_its_content_length() {
        let mut reader = &b"HTTP/1.1 404 Not Found\nCONTENT-LENGTH: 2\nx-other: y\n\nnoEXTRA"[..];
        let mut body = Vec::new();
        let resp = read_response_head(&mut reader, &mut Vec::new(), &mut body).unwrap();
        assert_eq!((resp.status, resp.chunked, resp.content_length), (404, false, 2));
        assert_eq!(body, b"no");
        assert_eq!(resp.encoding, Encoding::Json);
    }

    #[test]
    fn a_line_past_the_bound_is_refused_without_buffering_it() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2 * MAX_LINE));
        assert_eq!(request_error(&long), std::io::ErrorKind::InvalidData);
        let mut reader = long.as_bytes();
        let mut buf = RequestBuf::default();
        assert!(read_request(&mut reader, &mut buf).is_err());
        assert!(buf.head.len() <= MAX_LINE + 1, "buffered {} bytes", buf.head.len());
    }

    #[test]
    fn headers_past_the_bound_are_refused() {
        let head = |n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "x-filler: 1\r\n".repeat(n));
        with_request(&head(MAX_HEADERS), |req| assert_eq!(req.path, "/"));
        assert_eq!(request_error(&head(MAX_HEADERS + 1)), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn writes_past_the_part_bound_are_refused_before_any_byte() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let parts = [&b"ab"[..]; MAX_WRITE_PARTS + 1];
        let refused = write_all_vectored(&mut stream, &parts).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        let mut head = Vec::new();
        let refused = write_response(&mut stream, 200, "text/plain", &parts[1..], true, &mut head)
            .unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        // At the bound both write, and the peer sees only those bytes.
        let sent = write_all_vectored(&mut stream, &parts[1..]).unwrap();
        assert_eq!(sent, 2 * MAX_WRITE_PARTS);
        let body = &parts[2..];
        write_response(&mut stream, 200, "text/plain", body, true, &mut head).unwrap();
        drop(stream);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        let mut reader = &got[2 * MAX_WRITE_PARTS..];
        let resp = read_response_head(&mut reader, &mut Vec::new(), &mut Vec::new()).unwrap();
        assert_eq!(resp.content_length, 2 * body.len());
        assert!(got.starts_with(b"abab") && reader.is_empty());
    }

    #[test]
    fn wire_len_counts_head_and_body_bytes() {
        let bytes =
            "PUT /api/Pod/a/b HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET / HTTP/1.1\r\n\r\n";
        let mut reader = bytes.as_bytes();
        let mut buf = RequestBuf::default();
        let first = read_request(&mut reader, &mut buf).unwrap().unwrap().wire_len;
        assert_eq!(first, bytes.find("GET").unwrap());
        let second = read_request(&mut reader, &mut buf).unwrap().unwrap().wire_len;
        assert_eq!(first + second, bytes.len());
    }
}
