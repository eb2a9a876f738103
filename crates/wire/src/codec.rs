//! `vcbin` — the compact length-prefixed binary wire codec.
//!
//! JSON framing costs the wire tier ~18 KiB per list op: quoted field
//! names, base-10 integers, and escape scanning on both ends. `vcbin`
//! carries the same data model as the serde layer, so every `Serialize`
//! type gets the binary path for free: [`encode`] is a `serde::Sink` that
//! writes tags straight into the output buffer as the type walks its
//! fields, and [`decode`] is a `serde::Source` the type pulls its fields
//! from, so neither side builds a [`Value`] tree. A decode is equivalent to
//! a decode of the JSON text (the proptest suite in
//! `tests/codec_roundtrip.rs` holds the two codecs to that contract, and
//! pins literal bytes).
//!
//! # Value encoding
//!
//! One tag byte per node, then payload:
//!
//! | tag | node | payload |
//! |---|---|---|
//! | `0x00` | null | — |
//! | `0x01` | false | — |
//! | `0x02` | true | — |
//! | `0x03` | u64 | LEB128 varint |
//! | `0x04` | i64 | zigzag LEB128 varint |
//! | `0x05` | f64 | 8 bytes, little-endian IEEE 754 |
//! | `0x06` | string | varint length + UTF-8 bytes |
//! | `0x07` | string ref | varint index into the dictionary |
//! | `0x08` | array | varint count + count values |
//! | `0x09` | object | varint count + count (key, value) pairs |
//!
//! Object keys are strings and use the same `0x06`/`0x07` encoding.
//!
//! **Static dictionary**: the codec ships a built-in string table
//! ([`STATIC_STRINGS`]) holding every API field name, enum variant, and
//! common value in the workspace schema. Indices `0..N` always refer to
//! it, on both ends, so `"resource_version"` costs two bytes in *every*
//! message — including the first occurrence, and including single-object
//! bodies that have no intra-message repetition to exploit. The table is
//! part of the wire format: changing it is a [`VCBIN_VERSION`] bump.
//!
//! **Streaming dictionary**: every `0x06` string of at most
//! [`INTERN_MAX_LEN`] bytes is appended to a per-message table starting
//! at index `N`; `0x07` references either table by index. Non-schema
//! strings repeated within a message (a namespace name across list
//! items) collapse to one or two bytes after first sight. The streaming
//! table is implicit — no dictionary section, so any prefix of a message
//! decodes without lookahead and each encoded object is fully
//! self-contained (the [`crate::EncodeCache`] splices cached object
//! bytes into lists and watch frames without re-encoding). Neither end
//! copies a dictionary string: the encoder remembers where in its output
//! it wrote each one, the decoder keeps slices of its input.
//!
//! **Sparse structs**: the encoder drops a *struct field* whose value
//! writes `null`, an empty array or an empty string (`None`, an empty
//! `Vec` or `String`, a newtype around one), and counts only the fields it
//! keeps. The serde layer reads a missing field as `null`, and
//! `Option`/collection/`String` fields read `null` back as `None`/empty
//! (proto3-style), so the drop is lossless for every API type — none
//! carry raw `Value` fields, and no API field is `Option<String>`, so
//! `Some("")` can never round-trip to `None`. Maps (labels, annotations)
//! keep every entry: their keys are information, not schema. A
//! default-heavy object shrinks to the fields that actually say
//! something. A [`Value`] holds no structs, so [`encode_value`] is exact.
//!
//! # Frame layout
//!
//! Every HTTP body or watch chunk payload in the binary encoding starts
//! with a version byte ([`VCBIN_VERSION`]) and a frame-kind byte:
//!
//! | kind | frame | payload after the two header bytes |
//! |---|---|---|
//! | `0x00` | object | one value encoding |
//! | `0x01` | list | varint revision, varint count, then per item: varint byte-length + value encoding |
//! | `0x02` | event | type byte (0 ADDED / 1 MODIFIED / 2 DELETED / 3 RESYNC), varint revision, then (non-RESYNC) varint byte-length + value encoding |
//! | `0x03` | error | one [`ApiError`] value encoding |
//!
//! Event frames are self-delimiting, so a watch chunk may carry any
//! number of them back-to-back — that is the batching unit the server
//! drains ready events into.
//!
//! Codec negotiation is plain HTTP: a client sends
//! `accept: application/vcbin` (and the same `content-type` on bodies it
//! uploads); the server echoes the codec it chose in the response
//! `content-type`. Anything else means JSON, so existing clients keep
//! working unchanged.

use serde::{Deserialize, Serialize, Sink, Source, Token, TokenOf, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use vc_api::error::ApiError;
use vc_client::Encoding;

/// Version byte leading every `vcbin` frame. Bump on any incompatible
/// layout change; decoders reject versions they do not speak.
pub const VCBIN_VERSION: u8 = 1;

/// Longest string (bytes) admitted to the streaming dictionary. Longer
/// strings are emitted verbatim every time — they are almost never
/// repeated, and skipping them keeps the table small.
pub const INTERN_MAX_LEN: usize = 128;

/// MIME type announcing the binary codec in `accept`/`content-type`.
pub const VCBIN_CONTENT_TYPE: &str = "application/vcbin";

/// MIME type of the default JSON encoding.
pub const JSON_CONTENT_TYPE: &str = "application/json";

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_REF: u8 = 0x07;
const TAG_ARR: u8 = 0x08;
const TAG_OBJ: u8 = 0x09;

/// Frame kind: one object value.
pub const FRAME_OBJECT: u8 = 0x00;
/// Frame kind: a list (revision + length-prefixed items).
pub const FRAME_LIST: u8 = 0x01;
/// Frame kind: one watch event.
pub const FRAME_EVENT: u8 = 0x02;
/// Frame kind: an [`ApiError`].
pub const FRAME_ERROR: u8 = 0x03;

/// Watch event type byte: object added.
pub const EVENT_ADDED: u8 = 0;
/// Watch event type byte: object modified.
pub const EVENT_MODIFIED: u8 = 1;
/// Watch event type byte: object deleted.
pub const EVENT_DELETED: u8 = 2;
/// Watch event type byte: terminal resync hint (no object follows).
pub const EVENT_RESYNC: u8 = 3;

/// The built-in string table: every schema field name, enum variant, and
/// common value, referenceable as `TAG_REF <index>` without ever being
/// transmitted. Order is part of the wire format — append only, and bump
/// [`VCBIN_VERSION`] on any reorder or removal.
pub static STATIC_STRINGS: &[&str] = &[
    // Field names across the vc-api types.
    "access_mode",
    "address",
    "addresses",
    "affinity",
    "allocatable",
    "annotations",
    "block_owner_deletion",
    "capacity",
    "claim_ref",
    "cluster_ip",
    "command",
    "condition",
    "condition_type",
    "conditions",
    "config_map_names",
    "container_port",
    "containers",
    "controller",
    "count",
    "creation_timestamp",
    "data",
    "deletion_timestamp",
    "effect",
    "env",
    "event_type",
    "finalizers",
    "first_seen",
    "generation",
    "group",
    "host_ip",
    "image",
    "init_containers",
    "involved_object",
    "ip",
    "key",
    "kind",
    "kubelet_version",
    "labels",
    "last_heartbeat",
    "last_seen",
    "last_transition",
    "limits",
    "load_balancer_ip",
    "match_expressions",
    "match_labels",
    "message",
    "meta",
    "name",
    "namespace",
    "namespaces",
    "node_name",
    "node_selector",
    "observed_generation",
    "operator",
    "owner_references",
    "payload",
    "phase",
    "pod_affinity",
    "pod_anti_affinity",
    "pod_ip",
    "port",
    "ports",
    "protocol",
    "provider_id",
    "provisioner",
    "ready_replicas",
    "reason",
    "replicas",
    "requested",
    "requests",
    "resource_version",
    "retry_after_ms",
    "runtime_class",
    "scope",
    "secret_names",
    "secret_type",
    "secrets",
    "selector",
    "service_account_name",
    "service_type",
    "source",
    "spec",
    "started_at",
    "status",
    "storage_class",
    "sync_to_super",
    "taints",
    "target_pod",
    "target_port",
    "template",
    "tolerations",
    "uid",
    "unschedulable",
    "user",
    "value",
    "values",
    "verb",
    "resource",
    "volume_claim_names",
    "volume_name",
    "wait_for_first_consumer",
    // Object / enum variant names (externally tagged representation).
    "Namespace",
    "Pod",
    "Node",
    "Service",
    "Endpoints",
    "Secret",
    "ConfigMap",
    "ServiceAccount",
    "Event",
    "PersistentVolumeClaim",
    "PersistentVolume",
    "StorageClass",
    "ReplicaSet",
    "Deployment",
    "CustomResourceDefinition",
    "CustomObject",
    "Active",
    "Bound",
    "Cluster",
    "ClusterIp",
    "ContainersReady",
    "DoesNotExist",
    "Exists",
    "Failed",
    "Headless",
    "In",
    "Initialized",
    "Kata",
    "LoadBalancer",
    "Namespaced",
    "NoExecute",
    "NoSchedule",
    "NodePort",
    "Normal",
    "NotIn",
    "NotReady",
    "Opaque",
    "Pending",
    "PodScheduled",
    "PreferNoSchedule",
    "ReadOnlyMany",
    "ReadWriteMany",
    "ReadWriteOnce",
    "Ready",
    "Released",
    "Runc",
    "Running",
    "ServiceAccountToken",
    "Succeeded",
    "Tcp",
    "Terminating",
    "Tls",
    "Udp",
    "Warning",
    // ApiError variants.
    "NotFound",
    "AlreadyExists",
    "Conflict",
    "Invalid",
    "Forbidden",
    "TooManyRequests",
    "Expired",
    "Timeout",
    "Unavailable",
    "Internal",
    // Wire envelope keys and ubiquitous values.
    "items",
    "type",
    "object",
    "revision",
    "default",
    "True",
    "False",
    "Unknown",
];

/// Index of `s` in [`STATIC_STRINGS`], if present.
fn static_index(s: &str) -> Option<u64> {
    use std::sync::OnceLock;
    static MAP: OnceLock<HashMap<&'static str, u64>> = OnceLock::new();
    MAP.get_or_init(|| STATIC_STRINGS.iter().enumerate().map(|(i, &s)| (s, i as u64)).collect())
        .get(s)
        .copied()
}

/// Decode failure: malformed, truncated, or version-mismatched input.
pub type CodecError = serde::Error;

fn err(message: impl std::fmt::Display) -> CodecError {
    CodecError::custom(message)
}

/// The `content-type` string for an encoding.
pub fn content_type(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::Json => JSON_CONTENT_TYPE,
        Encoding::Binary => VCBIN_CONTENT_TYPE,
    }
}

/// Parses a `content-type`/`accept` header value, defaulting to JSON for
/// anything that does not name the binary codec (so legacy peers and
/// wildcard accepts keep the JSON path).
pub fn encoding_of(header: Option<&str>) -> Encoding {
    match header {
        Some(v)
            if v.as_bytes()
                .windows(VCBIN_CONTENT_TYPE.len())
                .any(|w| w.eq_ignore_ascii_case(VCBIN_CONTENT_TYPE.as_bytes())) =>
        {
            Encoding::Binary
        }
        _ => Encoding::Json,
    }
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The `vcbin` decoder: a cursor over an encoded buffer, read as a
/// `serde::Source`. A container's state is the count of elements or
/// entries it has left.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The streaming dictionary: this message's strings so far, as slices
    /// of `buf`.
    dict: Vec<&'a str>,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, dict: Vec::new(), depth: 0 }
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| err("vcbin: truncated input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or_else(|| err("vcbin: length overflow"))?;
        if end > self.buf.len() {
            return Err(err("vcbin: truncated input"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(err("vcbin: varint too long"))
    }

    /// A container's element count. Every element takes at least a byte,
    /// so a count past the remaining input is hostile, not large.
    fn count(&mut self) -> Result<usize, CodecError> {
        let count = self.varint()?;
        if count > (self.buf.len() - self.pos) as u64 {
            return Err(err("vcbin: count exceeds input"));
        }
        Ok(count as usize)
    }

    fn string(&mut self, tag: u8) -> Result<&'a str, CodecError> {
        match tag {
            TAG_STR => {
                let len = self.varint()? as usize;
                let s = std::str::from_utf8(self.take(len)?)
                    .map_err(|_| err("vcbin: invalid UTF-8 string"))?;
                if s.len() <= INTERN_MAX_LEN {
                    self.dict.push(s);
                }
                Ok(s)
            }
            TAG_REF => {
                // Indices below the static table length are schema strings;
                // the streaming table starts right after it.
                let idx = self.varint()? as usize;
                if let Some(&s) = STATIC_STRINGS.get(idx) {
                    return Ok(s);
                }
                self.dict
                    .get(idx - STATIC_STRINGS.len())
                    .copied()
                    .ok_or_else(|| err(format!("vcbin: dangling string ref {idx}")))
            }
            other => Err(err(format!("vcbin: expected string, found tag {other:#04x}"))),
        }
    }

    /// Counts one element of a container off, closing it at zero.
    fn advance(&mut self, left: &mut usize) -> bool {
        if *left == 0 {
            self.depth -= 1;
            return false;
        }
        *left -= 1;
        true
    }

    /// Decodes the one value that fills the rest of the buffer.
    fn finish<T: Deserialize>(&mut self) -> Result<T, CodecError> {
        let value = T::deserialize(self)?;
        if self.pos != self.buf.len() {
            return Err(err("vcbin: trailing bytes after value"));
        }
        Ok(value)
    }

    /// Decodes a length-prefixed, self-contained value (a list item or an
    /// event's object) under a dictionary of its own; the dictionary's
    /// buffer is reused from one item to the next.
    fn item<T: Deserialize>(&mut self) -> Result<T, CodecError> {
        let len = self.varint()? as usize;
        let buf = self.take(len)?;
        let mut dict = std::mem::take(&mut self.dict);
        dict.clear();
        let mut item = Reader { buf, pos: 0, dict, depth: 0 };
        let value = item.finish();
        self.dict = item.dict;
        value
    }
}

impl<'a> Source<'a> for Reader<'a> {
    type Seq = usize;
    type Map = usize;

    fn next(&mut self) -> Result<TokenOf<'a, Self>, CodecError> {
        if self.depth > serde::MAX_DEPTH {
            return Err(err("vcbin: nesting too deep"));
        }
        Ok(match self.byte()? {
            TAG_NULL => Token::Null,
            TAG_FALSE => Token::Bool(false),
            TAG_TRUE => Token::Bool(true),
            TAG_U64 => Token::U64(self.varint()?),
            TAG_I64 => Token::I64(unzigzag(self.varint()?)),
            TAG_F64 => Token::F64(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))),
            tag @ (TAG_STR | TAG_REF) => Token::Str(Cow::Borrowed(self.string(tag)?)),
            TAG_ARR => {
                let count = self.count()?;
                self.depth += 1;
                Token::Seq(count)
            }
            TAG_OBJ => {
                let count = self.count()?;
                self.depth += 1;
                Token::Map(count)
            }
            other => return Err(err(format!("vcbin: unknown tag {other:#04x}"))),
        })
    }

    fn next_element(&mut self, left: &mut usize) -> Result<bool, CodecError> {
        Ok(self.advance(left))
    }

    fn next_key(&mut self, left: &mut usize) -> Result<Option<Cow<'a, str>>, CodecError> {
        if !self.advance(left) {
            return Ok(None);
        }
        let tag = self.byte()?;
        self.string(tag).map(|s| Some(Cow::Borrowed(s)))
    }

    fn seq_len(left: &usize) -> usize {
        *left
    }
}

/// The `vcbin` encoder, a `serde::Sink` writing tags straight into `out`.
/// Struct fields that say nothing are dropped (module docs, "Sparse
/// structs"); a struct's state is where its kept-field count sits, patched
/// as fields are kept.
struct Writer<'o> {
    out: &'o mut Vec<u8>,
    dict: Interner,
}

impl Writer<'_> {
    fn put_str(&mut self, s: &str) {
        if let Some(idx) = static_index(s) {
            self.out.push(TAG_REF);
            put_varint(self.out, idx);
            return;
        }
        let vacant = if s.len() <= INTERN_MAX_LEN {
            match self.dict.find(self.out, s.as_bytes()) {
                Ok(idx) => {
                    self.out.push(TAG_REF);
                    put_varint(self.out, STATIC_STRINGS.len() as u64 + idx);
                    return;
                }
                Err(slot) => Some(slot),
            }
        } else {
            None
        };
        self.out.push(TAG_STR);
        put_varint(self.out, s.len() as u64);
        if let Some(slot) = vacant {
            self.dict.fill(slot, self.out.len(), s.len());
        }
        self.out.extend_from_slice(s.as_bytes());
    }
}

impl Sink for Writer<'_> {
    type Seq = ();
    type Map = usize;

    fn null(&mut self) {
        self.out.push(TAG_NULL);
    }
    fn bool(&mut self, v: bool) {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
    }
    fn u64(&mut self, v: u64) {
        self.out.push(TAG_U64);
        put_varint(self.out, v);
    }
    fn i64(&mut self, v: i64) {
        self.out.push(TAG_I64);
        put_varint(self.out, zigzag(v));
    }
    fn f64(&mut self, v: f64) {
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.put_str(v);
    }
    fn begin_seq(&mut self, len: usize) {
        self.out.push(TAG_ARR);
        put_varint(self.out, len as u64);
    }
    fn element(&mut self, _: &mut ()) {}
    fn end_seq(&mut self, _: ()) {}
    fn begin_map(&mut self, len: usize) -> usize {
        self.out.push(TAG_OBJ);
        put_varint(self.out, len as u64);
        0
    }
    fn key(&mut self, _: &mut usize, key: &str) {
        self.put_str(key);
    }
    fn end_map(&mut self, _: usize) {}
    fn begin_struct(&mut self, fields: usize) -> usize {
        // Fewer than 128 fields: the count is a one-byte varint.
        assert!(fields < 0x80, "vcbin: a struct of {fields} fields");
        self.out.push(TAG_OBJ);
        self.out.push(0);
        self.out.len() - 1
    }
    fn field<T: Serialize + ?Sized>(&mut self, count_at: &mut usize, name: &'static str, v: &T) {
        if v.is_sparse_empty() {
            return;
        }
        self.out[*count_at] += 1;
        self.put_str(name);
        v.serialize(self);
    }
}

/// The encoder's streaming dictionary: an open-addressed hash table of the
/// strings written so far, each held as its span of the output.
#[derive(Default)]
struct Interner {
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Clone, Copy)]
struct Slot {
    at: u32,
    len: u32,
    /// Dictionary index past the static table; `VACANT` marks a free slot.
    index: u32,
}

const VACANT: Slot = Slot { at: 0, len: 0, index: u32::MAX };

impl Slot {
    fn bytes(self, out: &[u8]) -> &[u8] {
        &out[self.at as usize..][..self.len as usize]
    }
}

/// FNV-1a: short strings, no allocation, no per-process seed needed.
fn fnv1a(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        as usize
}

impl Interner {
    /// `Ok(index)` if `s` was written already, else `Err(slot)`: the vacant
    /// slot to [`Interner::fill`] once it is.
    fn find(&mut self, out: &[u8], s: &[u8]) -> Result<u64, usize> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(out);
        }
        let mask = self.slots.len() - 1;
        let mut i = fnv1a(s) & mask;
        loop {
            let slot = self.slots[i];
            if slot.index == VACANT.index {
                return Err(i);
            }
            if slot.bytes(out) == s {
                return Ok(slot.index as u64);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records that the string for vacant `slot` sits at `out[at..at + len]`.
    fn fill(&mut self, slot: usize, at: usize, len: usize) {
        self.slots[slot] = Slot { at: at as u32, len: len as u32, index: self.len as u32 };
        self.len += 1;
    }

    fn grow(&mut self, out: &[u8]) {
        let size = (self.slots.len() * 2).max(32);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; size]);
        for slot in old.into_iter().filter(|s| s.index != VACANT.index) {
            let mut i = fnv1a(slot.bytes(out)) & (size - 1);
            while self.slots[i].index != VACANT.index {
                i = (i + 1) & (size - 1);
            }
            self.slots[i] = slot;
        }
    }
}

/// Appends the self-contained encoding of `value` to `out` (no frame
/// header — callers wrap it in a frame or length-prefix it themselves).
/// Struct fields that say nothing are dropped (module docs); everything
/// else is kept.
pub fn encode<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.serialize(&mut Writer { out, dict: Interner::default() });
}

/// Appends the encoding of a raw value tree: exact, since a [`Value`] has
/// no struct fields to drop.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    encode(value, out);
}

/// Decodes one value occupying the whole of `buf` into any deserializable
/// type.
///
/// # Errors
///
/// Fails on truncation, trailing bytes, unknown tags, dangling dictionary
/// references, invalid UTF-8, nesting past `serde::MAX_DEPTH`, or the
/// type's own decoding errors.
pub fn decode<T: Deserialize>(buf: &[u8]) -> Result<T, CodecError> {
    Reader::new(buf).finish()
}

/// Decodes one raw value tree occupying the whole of `buf`.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_value(buf: &[u8]) -> Result<Value, CodecError> {
    decode(buf)
}

/// Encodes any serializable `value` as a framed `vcbin` body of `kind`
/// ([`FRAME_OBJECT`] or [`FRAME_ERROR`]).
pub fn to_framed_vec<T: Serialize + ?Sized>(kind: u8, value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.push(VCBIN_VERSION);
    out.push(kind);
    encode(value, &mut out);
    out
}

/// Checks the two-byte frame header, returning the payload slice.
///
/// # Errors
///
/// Fails on a short buffer, wrong version, or unexpected frame kind.
pub fn frame_payload(buf: &[u8], expect_kind: u8) -> Result<&[u8], CodecError> {
    if buf.len() < 2 {
        return Err(err("vcbin: missing frame header"));
    }
    if buf[0] != VCBIN_VERSION {
        return Err(err(format!("vcbin: unsupported version {}", buf[0])));
    }
    if buf[1] != expect_kind {
        return Err(err(format!("vcbin: expected frame kind {expect_kind}, found {}", buf[1])));
    }
    Ok(&buf[2..])
}

/// Decodes a framed body of `kind` into any deserializable type.
///
/// # Errors
///
/// Propagates frame-header failures, then [`decode`]'s.
pub fn from_framed_slice<T: Deserialize>(kind: u8, buf: &[u8]) -> Result<T, CodecError> {
    decode(frame_payload(buf, kind)?)
}

/// Decodes an error-frame body, degrading to `Internal` (with the raw
/// status attached) when the body is not a well-formed error frame.
pub fn decode_error(status: u16, buf: &[u8]) -> ApiError {
    from_framed_slice::<ApiError>(FRAME_ERROR, buf).unwrap_or_else(|_| {
        ApiError::internal(format!("wire status {status} with undecodable vcbin error body"))
    })
}

// ---------------------------------------------------------------------------
// List frames
// ---------------------------------------------------------------------------

/// Assembles a list frame into `out` from pre-encoded item buffers (the
/// splice path: each item is a self-contained value encoding straight out
/// of the [`crate::EncodeCache`]).
pub fn write_list_frame<'a>(
    out: &mut Vec<u8>,
    revision: u64,
    items: impl ExactSizeIterator<Item = &'a [u8]>,
) {
    out.push(VCBIN_VERSION);
    out.push(FRAME_LIST);
    put_varint(out, revision);
    put_varint(out, items.len() as u64);
    for item in items {
        put_varint(out, item.len() as u64);
        out.extend_from_slice(item);
    }
}

/// Decodes a list frame into `(revision, items)`.
///
/// # Errors
///
/// Fails on malformed framing or any undecodable item.
pub fn read_list_frame<T: Deserialize>(buf: &[u8]) -> Result<(u64, Vec<T>), CodecError> {
    let mut r = Reader::new(frame_payload(buf, FRAME_LIST)?);
    let revision = r.varint()?;
    let count = r.count()?;
    let mut items = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        items.push(r.item()?);
    }
    if r.pos != r.buf.len() {
        return Err(err("vcbin: trailing bytes after list"));
    }
    Ok((revision, items))
}

// ---------------------------------------------------------------------------
// Event frames
// ---------------------------------------------------------------------------

/// One decoded watch-event frame carrying a `T`.
#[derive(Debug)]
pub struct EventFrame<T> {
    /// Event type byte ([`EVENT_ADDED`] … [`EVENT_RESYNC`]).
    pub event_type: u8,
    /// Store revision the event was committed at (0 for RESYNC).
    pub revision: u64,
    /// The object payload; `None` for RESYNC.
    pub object: Option<T>,
}

/// Appends one event frame to `out`; `encoded` is the object's
/// self-contained value encoding (`None` only for [`EVENT_RESYNC`]).
pub fn write_event_frame(out: &mut Vec<u8>, event_type: u8, revision: u64, encoded: Option<&[u8]>) {
    out.push(VCBIN_VERSION);
    out.push(FRAME_EVENT);
    out.push(event_type);
    put_varint(out, revision);
    if let Some(encoded) = encoded {
        put_varint(out, encoded.len() as u64);
        out.extend_from_slice(encoded);
    }
}

/// Decodes every event frame packed back-to-back in one watch chunk.
///
/// # Errors
///
/// Fails on malformed framing; a RESYNC frame decodes successfully and is
/// expected to be the chunk's last frame.
pub fn read_event_frames<T: Deserialize>(buf: &[u8]) -> Result<Vec<EventFrame<T>>, CodecError> {
    let mut frames = Vec::new();
    let mut r = Reader::new(buf);
    while r.pos < buf.len() {
        frame_payload(&buf[r.pos..], FRAME_EVENT)?;
        r.pos += 2;
        let event_type = r.byte()?;
        let revision = r.varint()?;
        let object = if event_type == EVENT_RESYNC { None } else { Some(r.item()?) };
        frames.push(EventFrame { event_type, revision, object });
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::object::Object;
    use vc_api::pod::Pod;

    fn roundtrip(v: &Value) -> Value {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        decode_value(&out).expect("decode")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::F64(3.25),
            Value::F64(-0.0),
            Value::String(String::new()),
            Value::String("héllo \u{1F600}\n".to_string()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn repeated_strings_use_streaming_dictionary() {
        // Schema keys are static refs already; the streaming dictionary
        // earns its keep on non-schema strings repeated across items.
        let mut pod = Pod::new("default", "p");
        pod.meta.labels.insert("app".into(), "a-long-nonschema-workload-name".into());
        let value = serde::to_value(&Object::from(pod));
        let many = Value::Array(vec![value.clone(); 16]);
        let mut one = Vec::new();
        encode_value(&value, &mut one);
        let mut sixteen = Vec::new();
        encode_value(&many, &mut sixteen);
        // Items after the first reference the first item's strings, so 16
        // copies cost meaningfully less than 16x one copy.
        assert!(
            sixteen.len() < one.len() * 16 * 9 / 10,
            "dictionary never kicked in: 1x={} 16x={}",
            one.len(),
            sixteen.len()
        );
        assert_eq!(roundtrip(&many), many);
    }

    #[test]
    fn binary_beats_json_on_objects() {
        let mut pod = Pod::new("kube-system", "coredns-5dd5756b68-x7x2v");
        pod.meta.labels.insert("app".into(), "coredns".into());
        pod.meta.labels.insert("pod-template-hash".into(), "5dd5756b68".into());
        pod.meta.resource_version = 123456;
        let obj: Object = pod.into();
        let json = serde_json::to_string(&obj).unwrap();
        let mut bin = Vec::new();
        encode(&obj, &mut bin);
        assert!(
            bin.len() < json.len(),
            "vcbin ({}) should be smaller than JSON ({})",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn framed_object_roundtrip() {
        let obj: Object = Pod::new("default", "p").into();
        let framed = to_framed_vec(FRAME_OBJECT, &obj);
        assert_eq!(framed[0], VCBIN_VERSION);
        let back: Object = from_framed_slice(FRAME_OBJECT, &framed).unwrap();
        assert_eq!(back, obj);
        // Wrong kind and wrong version are both rejected.
        assert!(from_framed_slice::<Object>(FRAME_LIST, &framed).is_err());
        let mut wrong = framed;
        wrong[0] = 99;
        assert!(from_framed_slice::<Object>(FRAME_OBJECT, &wrong).is_err());
    }

    #[test]
    fn list_frame_splices_preencoded_items() {
        let a: Object = Pod::new("ns", "a").into();
        let b: Object = Pod::new("ns", "b").into();
        let mut ea = Vec::new();
        encode(&a, &mut ea);
        let mut eb = Vec::new();
        encode(&b, &mut eb);
        let mut out = Vec::new();
        write_list_frame(&mut out, 42, [ea.as_slice(), eb.as_slice()].into_iter());
        let (rev, items): (u64, Vec<Object>) = read_list_frame(&out).unwrap();
        assert_eq!(rev, 42);
        assert_eq!(items, vec![a, b]);
    }

    #[test]
    fn batched_event_frames_roundtrip() {
        let obj: Object = Pod::new("ns", "ev").into();
        let mut encoded = Vec::new();
        encode(&obj, &mut encoded);
        let mut chunk = Vec::new();
        write_event_frame(&mut chunk, EVENT_ADDED, 7, Some(&encoded));
        write_event_frame(&mut chunk, EVENT_MODIFIED, 8, Some(&encoded));
        write_event_frame(&mut chunk, EVENT_RESYNC, 0, None);
        let frames = read_event_frames::<Object>(&chunk).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!((frames[0].event_type, frames[0].revision), (EVENT_ADDED, 7));
        assert_eq!((frames[1].event_type, frames[1].revision), (EVENT_MODIFIED, 8));
        assert_eq!(frames[2].event_type, EVENT_RESYNC);
        assert!(frames[2].object.is_none());
        assert_eq!(frames[1].object.as_ref(), Some(&obj));
    }

    /// Every typed entry point — object frames, list frames, event
    /// chunks — and the raw value decoder over the same hostile bytes:
    /// each must fail cleanly.
    fn assert_all_reject(payload: &[u8], what: &str) {
        let framed = |kind| [&[VCBIN_VERSION, kind][..], payload].concat();
        assert!(decode_value(payload).is_err(), "decode_value: {what}");
        assert!(
            from_framed_slice::<Object>(FRAME_OBJECT, &framed(FRAME_OBJECT)).is_err(),
            "from_framed_slice: {what}"
        );
        // As the only item of a list, and as an ADDED event's object.
        let mut item = Vec::new();
        put_varint(&mut item, payload.len() as u64);
        item.extend_from_slice(payload);
        let list = [&[VCBIN_VERSION, FRAME_LIST, 7, 1][..], &item].concat();
        assert!(read_list_frame::<Object>(&list).is_err(), "read_list_frame: {what}");
        let event = [&[VCBIN_VERSION, FRAME_EVENT, EVENT_ADDED, 7][..], &item].concat();
        assert!(read_event_frames::<Object>(&event).is_err(), "read_event_frames: {what}");
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let obj: Object = Pod::new("default", "p").into();
        let mut buf = Vec::new();
        encode(&obj, &mut buf);
        for cut in 0..buf.len() {
            assert_all_reject(&buf[..cut], &format!("prefix of len {cut}"));
        }
        // Trailing bytes after a whole value.
        assert_all_reject(&[buf.as_slice(), &[TAG_NULL]].concat(), "trailing byte");
        assert_all_reject(&[0xff, 0x00], "unknown tag");
        // An index past both the static table and the (empty) streaming
        // table is dangling.
        assert_all_reject(&[TAG_REF, 0xff, 0x7f], "dangling ref");
        assert!(decode_value(&[TAG_REF, 0x05]).is_ok(), "static refs always resolve");
        // `{"Pod": <dangling ref>}`: fails inside the typed walk too.
        let pod = static_index("Pod").unwrap() as u8;
        assert_all_reject(&[TAG_OBJ, 1, TAG_REF, pod, TAG_REF, 0xff, 0x7f], "dangling ref value");
        // Hostile counts: 2^40 array items or object entries in a few bytes.
        assert_all_reject(&[TAG_ARR, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01], "hostile array count");
        assert_all_reject(&[TAG_OBJ, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01], "hostile object count");
        // The same count on a list frame itself.
        let list = [VCBIN_VERSION, FRAME_LIST, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert!(read_list_frame::<Object>(&list).is_err());
        // Invalid UTF-8, as a string value and as a map key.
        assert_all_reject(&[TAG_STR, 2, 0xc3, 0x28], "invalid UTF-8 value");
        assert_all_reject(&[TAG_OBJ, 1, TAG_STR, 1, 0xff, TAG_NULL], "invalid UTF-8 key");
        // `{"Pod": [[[...]]]}` nested past the limit, and a raw array
        // nested the same way.
        let depth = serde::MAX_DEPTH + 2;
        let deep = [[TAG_ARR, 1].repeat(depth), vec![TAG_NULL]].concat();
        assert_all_reject(&deep, "deep array");
        assert_all_reject(&[&[TAG_OBJ, 1, TAG_REF, pod][..], &deep].concat(), "deep field");
        // At the limit itself a raw value still decodes.
        let ok = [[TAG_ARR, 1].repeat(serde::MAX_DEPTH), vec![TAG_NULL]].concat();
        assert!(decode_value(&ok).is_ok());
    }

    #[test]
    fn static_dictionary_has_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for s in STATIC_STRINGS {
            assert!(seen.insert(*s), "duplicate static string {s:?}");
        }
    }

    #[test]
    fn sparse_encoding_shrinks_and_roundtrips_typed() {
        let obj: Object = Pod::new("default", "mostly-empty").into();
        let mut exact = Vec::new();
        encode_value(&serde::to_value(&obj), &mut exact);
        let mut sparse = Vec::new();
        encode(&obj, &mut sparse);
        // A default-heavy pod is mostly empty collections and nulls.
        assert!(
            sparse.len() + 30 < exact.len(),
            "sparse ({}) should be well below exact ({})",
            sparse.len(),
            exact.len()
        );
        let back: Object = decode(&sparse).unwrap();
        assert_eq!(back, obj, "missing-field defaults restore the dropped entries");
        let back: Object = decode(&exact).unwrap();
        assert_eq!(back, obj, "a tree's exact encoding decodes typed too");
    }

    #[test]
    fn schema_keys_cost_two_bytes_via_static_dictionary() {
        let mut out = Vec::new();
        encode_value(&Value::String("resource_version".into()), &mut out);
        assert_eq!(out.len(), 2, "static-table hit must be TAG_REF + one-byte index");
        assert_eq!(decode_value(&out).unwrap(), Value::String("resource_version".into()));
    }

    #[test]
    fn negotiation_defaults_to_json() {
        assert_eq!(encoding_of(None), Encoding::Json);
        assert_eq!(encoding_of(Some("application/json")), Encoding::Json);
        assert_eq!(encoding_of(Some("*/*")), Encoding::Json);
        assert_eq!(encoding_of(Some("application/vcbin")), Encoding::Binary);
        assert_eq!(encoding_of(Some("Application/VCBIN")), Encoding::Binary);
        assert_eq!(content_type(Encoding::Binary), VCBIN_CONTENT_TYPE);
    }
}
