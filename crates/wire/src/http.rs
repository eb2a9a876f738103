//! Minimal HTTP/1.1 framing, shared by [`crate::server`] and
//! [`crate::client`].
//!
//! The build is offline (no tokio/hyper), so the wire tier speaks exactly
//! the HTTP subset a list/watch apiserver needs: request line + headers +
//! `Content-Length` bodies for the unary verbs, persistent connections
//! (`keep-alive` default), and `Transfer-Encoding: chunked` responses for
//! watch streams where each chunk carries one or more framed events.
//!
//! Two hot-path disciplines live here rather than in the callers:
//!
//! - **One syscall per frame** — response heads, bodies, and chunk
//!   framing go out through [`write_all_vectored`], which coalesces the
//!   header buffer and the (often cache-shared) body buffer into a
//!   single `writev` instead of a write per piece.
//! - **Buffer reuse** — head construction and line reading work in
//!   caller-owned scratch buffers that persist for the life of a
//!   connection, so a keep-alive connection serving thousands of
//!   requests stops allocating per request.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body / header section, a crude defense
/// against a misbehaving peer streaming garbage at the server.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Largest accepted single header line.
const MAX_LINE: usize = 64 * 1024;

/// A parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, `PUT`, `DELETE`).
    pub method: String,
    /// Path component of the request target, percent-decoding not
    /// required (the wire protocol only uses DNS-safe names).
    pub path: String,
    /// Query parameters (`?a=b&c=d`), last occurrence wins.
    pub query: HashMap<String, String>,
    /// Headers, keys lower-cased.
    pub headers: HashMap<String, String>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The `keep-alive`/`close` decision for this request: HTTP/1.1
    /// defaults to persistent unless the peer asked to close.
    pub fn keep_alive(&self) -> bool {
        !self.headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// A header value, `None` when absent.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

/// Reads one line terminated by `\r\n` (or bare `\n`) into `line`
/// (cleared first), without the terminator. Returns `false` on clean EOF
/// before any byte.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<bool> {
    line.clear();
    let n = reader.read_line(line)?;
    if n == 0 {
        return Ok(false);
    }
    if line.len() > MAX_LINE {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "header line too long"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(true)
}

/// Reads one request off a persistent connection, using `scratch` as the
/// connection's reusable line buffer. `Ok(None)` means the peer closed
/// cleanly between requests.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    scratch: &mut String,
) -> std::io::Result<Option<Request>> {
    if !read_line(reader, scratch)? {
        return Ok(None);
    }
    let mut parts = scratch.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed request line"));
    };
    let method = method.to_string();
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = HashMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(k.to_string(), v.to_string());
    }
    let mut headers = HashMap::new();
    loop {
        if !read_line(reader, scratch)? {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof inside headers",
            ));
        }
        if scratch.is_empty() {
            break;
        }
        if let Some((k, v)) = scratch.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    let len: usize = headers.get("content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
    if len > MAX_BODY {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, headers, body }))
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

/// Writes every byte of `parts`, coalescing them into as few `writev`
/// syscalls as possible (one, on an unsaturated socket). Returns the
/// total bytes written.
///
/// # Errors
///
/// Propagates socket errors; a socket that reports progress of zero
/// surfaces as [`std::io::ErrorKind::WriteZero`].
pub fn write_all_vectored(stream: &mut TcpStream, parts: &[&[u8]]) -> std::io::Result<usize> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut written = 0usize;
    while written < total {
        // Rebuild the slice list past the consumed prefix; the loop body
        // runs once unless the kernel takes a partial write.
        let mut slices = [IoSlice::new(&[]); 8];
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
/// of a cache-shared buffer without copying either. Returns the total
/// bytes put on the wire.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[&[u8]],
    keep_alive: bool,
    head: &mut Vec<u8>,
) -> std::io::Result<usize> {
    let body_len: usize = body.iter().map(|p| p.len()).sum();
    build_head(head, status, content_type, body_len, keep_alive);
    let mut parts = [&[][..]; 8];
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
    let head = format!(
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\n\
         connection: close\r\n\r\n",
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    Ok(head.len())
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

/// A parsed unary response (client side).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers, keys lower-cased.
    pub headers: HashMap<String, String>,
    /// Response body (already de-framed).
    pub body: Vec<u8>,
    /// Whether the body arrived chunked (watch streams); when `true` the
    /// body is empty and chunks are read incrementally off the reader.
    pub chunked: bool,
}

impl Response {
    /// The response `content-type`, `None` when absent.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("content-type").map(String::as_str)
    }
}

/// Reads the status line + headers of a response; for `Content-Length`
/// responses also consumes the body. For chunked responses the caller
/// drains chunks with [`read_chunk`]. `scratch` is the connection's
/// reusable line buffer.
pub fn read_response_head(
    reader: &mut BufReader<TcpStream>,
    scratch: &mut String,
) -> std::io::Result<Response> {
    if !read_line(reader, scratch)? {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 =
        scratch.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    let mut headers = HashMap::new();
    loop {
        if !read_line(reader, scratch)? {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof in headers"));
        }
        if scratch.is_empty() {
            break;
        }
        if let Some((k, v)) = scratch.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    let chunked =
        headers.get("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if !chunked {
        let len: usize = headers.get("content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
        if len > MAX_BODY {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "body too large"));
        }
        body = vec![0u8; len];
        reader.read_exact(&mut body)?;
    }
    Ok(Response { status, headers, body, chunked })
}

/// Reads one chunk of a chunked response. `Ok(None)` signals the
/// terminating zero-length chunk (clean end of stream). `scratch` is the
/// connection's reusable line buffer.
pub fn read_chunk(
    reader: &mut BufReader<TcpStream>,
    scratch: &mut String,
) -> std::io::Result<Option<Vec<u8>>> {
    if !read_line(reader, scratch)? {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof before chunk"));
    }
    let size = usize::from_str_radix(scratch.trim(), 16)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad chunk size"))?;
    if size > MAX_BODY {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "chunk too large"));
    }
    let mut payload = vec![0u8; size + 2];
    reader.read_exact(&mut payload)?;
    payload.truncate(size); // drop trailing \r\n
    if size == 0 {
        return Ok(None);
    }
    Ok(Some(payload))
}
