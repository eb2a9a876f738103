//! Property-based codec-equivalence suite: `vcbin` ↔ JSON.
//!
//! The binary codec is only allowed to change *bytes*, never *meaning*:
//! for any payload the wire tier ships — objects, lists, watch events,
//! and `ApiError` bodies — decoding the `vcbin` encoding must produce
//! exactly what decoding the JSON encoding produces. These properties
//! hold the two codecs to that contract over arbitrary inputs, plus the
//! raw value layer to exact roundtrip identity (JSON cannot promise that
//! for `I64`/`U64` boundary cases; `vcbin` must).
//!
//! The same generators hold JSON *output* to its contract: the text
//! `serde_json::to_string` streams from a value's fields is byte for byte the
//! rendering of its value tree, and `serde::json_len` counts exactly that
//! text's length (what `Object::estimated_size` and the admission size cap
//! rest on). Both renderings end in the same string, float and integer
//! writers, so these properties check structure — nesting, key order,
//! omitted fields, the counter against the writer — not how a leaf is
//! spelled; that is pinned by literal texts, in
//! `derived_types_stream_pinned_text` below and in `vendor/serde`'s own tests.
//!
//! A client's decode cache is held to the codec: a cached decode of any
//! bytes, perturbed or not, equals a fresh decode of the same bytes.
//!
//! Case count honors `PROPTEST_CASES` (CI runs 256).

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use vc_api::error::ApiError;
use vc_api::namespace::Namespace;
use vc_api::object::Object;
use vc_api::pod::{
    Container, ContainerPort, Pod, PodCondition, PodConditionType, PodPhase, Protocol,
};
use vc_api::quantity::{resource_list, Quantity};
use vc_api::service::{Service, ServicePort, ServiceType};
use vc_api::time::Timestamp;
use vc_wire::{codec, DecodeCache};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Arbitrary scalar [`Value`]s, including the integer boundary cases JSON
/// text handles worst.
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        proptest::bool::ANY.prop_map(Value::Bool),
        (0u64..u64::MAX).prop_map(Value::U64),
        Just(Value::U64(u64::MAX)),
        // Full signed range via the bit pattern (the shim's range
        // strategy cannot span negative..positive).
        (0u64..u64::MAX).prop_map(|v| Value::I64(v as i64)),
        Just(Value::I64(i64::MIN)),
        // Floats derived from integers stay finite (JSON has no NaN/Inf)
        // while still exercising sign, fractions, and magnitude.
        (0u64..u64::MAX).prop_map(|v| Value::F64(v as i64 as f64 / 256.0)),
        "[ -~]{0,20}".prop_map(Value::String),
        // Multi-byte UTF-8 and strings long enough to skip interning.
        "[a-zé√😀]{0,80}".prop_map(Value::String),
        HOSTILE_TEXT.prop_map(Value::String),
        // A float without a fraction must keep its `.0` in JSON text.
        (0u64..1 << 40).prop_map(|v| Value::F64(v as f64)),
    ]
}

/// Strings that need every JSON escape: quote, backslash, the named and the
/// `\u00XX` control characters, next to multi-byte UTF-8 that needs none.
const HOSTILE_TEXT: &str = "[\u{0}-\u{1f}\"\\\\a-z é😀]{0,24}";

/// Values JSON text cannot carry (`null` stands in for them), so only the
/// text properties see them — `NaN` would fail any roundtrip equality.
fn arb_non_finite() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::F64(f64::NAN)),
        Just(Value::F64(f64::INFINITY)),
        Just(Value::F64(f64::NEG_INFINITY)),
    ]
}

/// Arbitrary [`Value`] trees: scalars nested two levels deep through
/// arrays and objects (repeated keys exercise the string dictionary).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = || arb_scalar();
    let level1 = prop_oneof![
        leaf(),
        proptest::collection::vec(leaf(), 0..6).prop_map(Value::Array),
        proptest::collection::btree_map("[a-z]{1,8}", leaf(), 0..6).prop_map(Value::Object),
    ];
    prop_oneof![
        proptest::collection::vec(level1, 0..5).prop_map(Value::Array),
        proptest::collection::btree_map("[a-z]{1,8}", leaf(), 0..6).prop_map(Value::Object),
        leaf(),
    ]
}

/// Arbitrary pods with populated metadata, spec, and status — the
/// payload shape the wire tier actually moves. Half of them are bare (empty
/// vecs and maps, `None` timestamps); the rest carry a container with a
/// signed resource quantity, a condition and a start time.
fn arb_object() -> impl Strategy<Value = Object> {
    (
        ("[a-z][a-z0-9-]{0,20}", "[a-z][a-z0-9]{0,8}", "[ -~]{0,40}"),
        (
            proptest::collection::btree_map("[a-z.-]{1,12}", "[a-zA-Z0-9_-]{0,16}", 0..5),
            (0u64..1_000_000, 0u64..u64::MAX),
            "[a-z0-9-]{0,12}",
        ),
        (
            proptest::collection::btree_map("[a-z./]{1,12}", HOSTILE_TEXT, 0..4),
            0u64..u64::MAX,
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (name, ns, message),
                (labels, (generation, rv), node),
                (annotations, millis, started),
            )| {
                let mut pod = Pod::new(&ns, &name);
                pod.meta.labels = labels;
                pod.meta.annotations = annotations.into();
                pod.meta.generation = generation;
                pod.meta.resource_version = rv;
                pod.spec.node_name = node;
                pod.status.message = message;
                if started {
                    let mut container = Container::new("app", "registry/app:1");
                    // The bit pattern spans negative quantities too.
                    container.requests.insert("cpu".into(), Quantity::from_millis(millis as i64));
                    pod.spec.containers.push(container);
                    let now = Timestamp::from_millis(millis >> 20);
                    pod.status.set_condition(PodConditionType::Ready, true, "Started", now);
                    pod.status.started_at = Some(now);
                }
                pod.into()
            },
        )
}

/// Arbitrary namespaces and services beside the pods of [`arb_object`].
fn arb_kinds() -> impl Strategy<Value = Object> {
    let labels = || proptest::collection::btree_map("[a-z.-]{1,12}", "[a-zA-Z0-9_-]{0,16}", 0..4);
    prop_oneof![
        arb_object(),
        ("[a-z][a-z0-9-]{0,20}", labels(), 0u64..u64::MAX).prop_map(|(name, labels, rv)| {
            let mut ns = Namespace::new(name);
            ns.meta.labels = labels;
            ns.meta.resource_version = rv;
            ns.into()
        }),
        (
            ("[a-z][a-z0-9-]{0,20}", "[a-z][a-z0-9]{0,8}", labels()),
            ("[0-9.]{0,15}", 0u16..u16::MAX, 0u16..4),
        )
            .prop_map(|((name, ns, selector), (cluster_ip, port, kind))| {
                let mut svc = Service::new(ns, name);
                svc.spec.selector = selector;
                svc.spec.cluster_ip = cluster_ip;
                svc.spec.ports.push(ServicePort::tcp(port, port / 2));
                svc.spec.service_type = match kind {
                    0 => ServiceType::ClusterIp,
                    1 => ServiceType::NodePort,
                    2 => ServiceType::LoadBalancer,
                    _ => ServiceType::Headless,
                };
                svc.into()
            }),
    ]
}

/// Every [`ApiError`] variant with arbitrary payloads.
fn arb_api_error() -> impl Strategy<Value = ApiError> {
    let s = || "[ -~]{0,30}";
    prop_oneof![
        (s(), s()).prop_map(|(k, n)| ApiError::not_found(k, n)),
        (s(), s()).prop_map(|(k, n)| ApiError::already_exists(k, n)),
        (s(), (s(), s())).prop_map(|(k, (n, m))| ApiError::conflict(k, n, m)),
        (s(), (s(), s())).prop_map(|(k, (n, m))| ApiError::invalid(k, n, m)),
        ((s(), s()), (s(), s())).prop_map(|((u, v), (r, m))| ApiError::forbidden(u, v, r, m)),
        (s(), 0u64..u64::MAX).prop_map(|(m, ms)| ApiError::too_many_requests(m, ms)),
        s().prop_map(ApiError::expired),
        s().prop_map(ApiError::timeout),
        s().prop_map(ApiError::unavailable),
        s().prop_map(ApiError::internal),
    ]
}

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

fn via_json<T: Serialize + Deserialize>(value: &T) -> T {
    let text = serde_json::to_string(value).expect("json encode");
    serde_json::from_str(&text).expect("json decode")
}

fn via_tree<T: Serialize + Deserialize>(value: &T) -> T {
    serde_json::from_value(serde_json::to_value(value).expect("to_value")).expect("from_value")
}

fn via_vcbin<T: Serialize + Deserialize>(value: &T) -> T {
    let framed = codec::to_framed_vec(codec::FRAME_OBJECT, value);
    codec::from_framed_slice(codec::FRAME_OBJECT, &framed).expect("vcbin decode")
}

/// The two halves of the streamed-output contract (see the module docs).
fn check_streamed_json<T: Serialize>(value: &T) -> Result<(), TestCaseError> {
    let streamed = serde_json::to_string(value).expect("json encode");
    prop_assert_eq!(&streamed, &serde::write_json(&serde::to_value(value)));
    prop_assert_eq!(serde::json_len(value), streamed.len());
    Ok(())
}

/// Expected texts written by hand, so the derive's field order and the leaf
/// writers are checked against something other than themselves: a struct
/// with every escape class, a signed newtype and a nested unit variant; a
/// struct with a unit variant and an unsigned newtype; a struct variant at
/// `u64::MAX`.
#[test]
fn derived_types_stream_pinned_text() {
    let mut container = Container::new("a\"b\\c\n\u{1}é", "registry/app:1");
    container.command = vec!["sh".into(), "-c".into()];
    container.env.insert("K".into(), "\t".into());
    container.requests.insert("cpu".into(), Quantity::from_millis(-250));
    container.ports.push(ContainerPort { container_port: 8080, protocol: Protocol::Tcp });
    let condition = PodCondition {
        condition_type: PodConditionType::Ready,
        status: true,
        last_transition: Timestamp::from_millis(0),
        reason: String::new(),
    };
    let error = ApiError::TooManyRequests { message: "slow".into(), retry_after_ms: u64::MAX };

    let pinned = [
        (
            serde_json::to_string(&container).expect("json"),
            serde::json_len(&container),
            concat!(
                r#"{"command":["sh","-c"],"env":{"K":"\t"},"image":"registry/app:1","limits":{},"#,
                r#""name":"a\"b\\c\n\u0001é","ports":[{"container_port":8080,"protocol":"Tcp"}],"#,
                r#""privileged":false,"requests":{"cpu":-250}}"#
            ),
        ),
        (
            serde_json::to_string(&condition).expect("json"),
            serde::json_len(&condition),
            r#"{"condition_type":"Ready","last_transition":0,"reason":"","status":true}"#,
        ),
        (
            serde_json::to_string(&error).expect("json"),
            serde::json_len(&error),
            r#"{"TooManyRequests":{"message":"slow","retry_after_ms":18446744073709551615}}"#,
        ),
    ];
    for (text, len, expected) in pinned {
        assert_eq!(text, expected);
        assert_eq!(len, expected.len());
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WithSkipped {
    kept: u64,
    #[serde(skip)]
    skipped: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum VariantWithSkipped {
    Named {
        kept: u64,
        #[serde(skip)]
        skipped: String,
    },
}

/// A `#[serde(skip)]` field, on a struct or a struct variant, is absent
/// from JSON, from `json_len` and from `vcbin`, and reads back as its
/// `Default` from either codec, even where the input spells it out.
#[test]
fn a_skipped_field_is_in_no_encoding_and_reads_back_as_default() {
    fn check<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(
        value: &T,
        text: &str,
        read_back: &T,
    ) {
        let json = serde_json::to_string(value).expect("json");
        assert_eq!(json, text);
        assert_eq!(serde::json_len(value), text.len());
        let mut bin = Vec::new();
        codec::encode(value, &mut bin);
        let tree = codec::decode::<Value>(&bin).expect("vcbin");
        assert_eq!(serde_json::to_string(&tree).expect("json"), text, "vcbin holds the same");
        assert_eq!(&serde_json::from_str::<T>(&json).expect("from JSON"), read_back);
        assert_eq!(&codec::decode::<T>(&bin).expect("from vcbin"), read_back);
    }
    check(
        &WithSkipped { kept: 7, skipped: "not encoded".into() },
        r#"{"kept":7}"#,
        &WithSkipped { kept: 7, skipped: String::new() },
    );
    check(
        &VariantWithSkipped::Named { kept: 7, skipped: "not encoded".into() },
        r#"{"Named":{"kept":7}}"#,
        &VariantWithSkipped::Named { kept: 7, skipped: String::new() },
    );
    let spelled = r#"{"kept":7,"skipped":"in the input"}"#;
    let read: WithSkipped = serde_json::from_str(spelled).expect("from JSON");
    assert_eq!(read, WithSkipped { kept: 7, skipped: String::new() });

    // A stored object's filled encoding slots change none of its encodings.
    let pod: Object = stress_pod("tenant-a", "stress-00001").into();
    let filled = pod.clone();
    filled.meta().encodings.get_or_fill(0, || b"json bytes"[..].into());
    filled.meta().encodings.get_or_fill(1, || b"vcbin bytes"[..].into());
    assert_eq!(serde_json::to_string(&filled).unwrap(), serde_json::to_string(&pod).unwrap());
    assert_eq!(filled.estimated_size(), pod.estimated_size());
    let mut with_slots = Vec::new();
    codec::encode(&filled, &mut with_slots);
    let mut without = Vec::new();
    codec::encode(&pod, &mut without);
    assert_eq!(with_slots, without);
}

/// The benchmark's stress pod (`benchmark/src/pods.rs`): one small container.
fn stress_pod(namespace: &str, name: &str) -> Pod {
    Pod::new(namespace, name).with_container(
        Container::new("app", "stress:1").with_requests(resource_list(&[("cpu", "50m")])),
    )
}

/// The benchmark's fat pod: a stress pod with eight 224-byte annotations.
fn fat_pod(namespace: &str, name: &str) -> Pod {
    let mut pod = stress_pod(namespace, name);
    for i in 0..8 {
        pod.meta.annotations.insert(
            format!("bench.virtualcluster.io/field-{i}"),
            format!("{i:0>width$}", width = 224),
        );
    }
    pod
}

/// The body of a stress pod's `Object::Pod` frame after its `meta.annotations`
/// entry: `meta` from `creation_timestamp` on (sorted keys, empty fields
/// dropped), then `spec` and `status`. `name` is the pod's name.
fn pod_tail(name: &str) -> Vec<u8> {
    let mut tail = b"\x07\x13\x03\x00\x07\x1b\x03\x00\x07%\x09\x00\x07/\x06".to_vec();
    tail.push(name.len() as u8);
    tail.extend_from_slice(name.as_bytes());
    for piece in [
        &b"\x070\x06\x08tenant-a\x07F\x03\x00"[..],
        b"\x07Q\x09\x06\x07\x03\x09\x00\x07\x10\x08\x01\x09\x06\x07\x17\x09\x00",
        b"\x07\x1e\x06\x08stress:1\x07)\x09\x00\x07/\x06\x03app\x06\x0aprivileged\x01",
        b"\x07E\x09\x01\x06\x03cpu\x04d\x06\x0chost_network\x01\x06\x08host_pid\x01",
        b"\x073\x09\x00\x07H\x07\x92\x01\x07S\x09\x01\x078\x07\x8a\x01",
    ] {
        tail.extend_from_slice(piece);
    }
    tail
}

/// Literal `vcbin` bytes for the payloads the benchmark moves: a stress pod,
/// a fat pod, an `ApiError` struct variant and a unit variant. Any change
/// here is a wire-format change and needs a `VCBIN_VERSION` bump.
#[test]
fn vcbin_bytes_are_pinned() {
    // Object frame, `{"Pod": {"meta": {..}, ..}}`: static refs for schema
    // keys, streamed strings for the rest.
    let head = b"\x01\x00\x09\x01\x07f\x09\x03\x07.\x09\x07\x07\x05\x09";
    let stress: Object = stress_pod("tenant-a", "stress-00001").into();
    let mut expected = head.to_vec();
    expected.push(0x00);
    expected.extend_from_slice(&pod_tail("stress-00001"));
    assert_eq!(codec::to_framed_vec(codec::FRAME_OBJECT, &stress), expected, "stress pod");

    // Annotation values are longer than `INTERN_MAX_LEN`, so each is
    // spelled out in full: a two-byte varint length, then the text.
    let fat: Object = fat_pod("tenant-a", "fat-00002").into();
    let mut expected = head.to_vec();
    expected.push(0x08);
    for i in 0..8 {
        expected.extend_from_slice(b"\x06\x1f");
        expected.extend_from_slice(format!("bench.virtualcluster.io/field-{i}").as_bytes());
        expected.extend_from_slice(b"\x06\xe0\x01");
        expected.extend_from_slice(format!("{i:0>224}").as_bytes());
    }
    expected.extend_from_slice(&pod_tail("fat-00002"));
    assert_eq!(codec::to_framed_vec(codec::FRAME_OBJECT, &fat), expected, "fat pod");

    let err = ApiError::conflict("pods", "tenant-a/web-0", "resource_version 7 is stale");
    let expected = [
        &b"\x01\x03\x09\x01\x07\x9d\x01\x09\x03\x07#\x06\x04pods"[..],
        b"\x07-\x06\x1bresource_version 7 is stale\x07/\x06\x0etenant-a/web-0",
    ]
    .concat();
    assert_eq!(codec::to_framed_vec(codec::FRAME_ERROR, &err), expected, "ApiError::Conflict");
    assert_eq!(
        codec::to_framed_vec(codec::FRAME_OBJECT, &PodPhase::Running),
        b"\x01\x00\x07\x93\x01",
        "unit variant"
    );

    // And each decodes back to what was encoded.
    for obj in [&stress, &fat] {
        let bytes = codec::to_framed_vec(codec::FRAME_OBJECT, obj);
        assert_eq!(&codec::from_framed_slice::<Object>(codec::FRAME_OBJECT, &bytes).unwrap(), obj);
    }
    let bytes = codec::to_framed_vec(codec::FRAME_ERROR, &err);
    assert_eq!(codec::from_framed_slice::<ApiError>(codec::FRAME_ERROR, &bytes).unwrap(), err);
    let bytes = codec::to_framed_vec(codec::FRAME_OBJECT, &PodPhase::Running);
    let phase: PodPhase = codec::from_framed_slice(codec::FRAME_OBJECT, &bytes).unwrap();
    assert_eq!(phase, PodPhase::Running);
}

proptest! {
    /// Derived structs and enums (newtype `Object::Pod`, unit `PodPhase`,
    /// nested maps, vecs and options) stream the text their tree renders,
    /// and `estimated_size` is that text's length.
    #[test]
    fn object_streams_its_tree_text(obj in arb_object()) {
        check_streamed_json(&obj)?;
        prop_assert_eq!(obj.estimated_size(), serde_json::to_string(&obj).expect("json").len());
    }

    /// Struct enum variants stream `{"Variant":{..sorted fields..}}`.
    #[test]
    fn api_error_streams_its_tree_text(err in arb_api_error()) {
        check_streamed_json(&err)?;
    }

    /// The scalar edges — escapes, `i64::MIN`, `u64::MAX`, fraction-less
    /// and non-finite floats, empty arrays and objects — counted as long as
    /// `Value`'s own walk writes them, then wrapped in std containers.
    #[test]
    fn value_streams_its_tree_text(value in prop_oneof![arb_value(), arb_non_finite()]) {
        // A `Value` is its own tree, so only the counter has a second opinion.
        prop_assert_eq!(serde::json_len(&value), serde::write_json(&value).len());
        check_streamed_json(&std::collections::BTreeMap::from([("v", vec![Some(&value), None])]))?;
        check_streamed_json(&vec![-1i8, 0, i8::MAX])?;
    }

    /// The raw value layer is an exact roundtrip: every tree that goes in
    /// comes back bit-identical (JSON text cannot promise this for
    /// integer signedness; `vcbin` must).
    #[test]
    fn vcbin_value_roundtrip_is_identity(value in arb_value()) {
        let mut encoded = Vec::new();
        codec::encode(&value, &mut encoded);
        let decoded = codec::decode::<Value>(&encoded).expect("decode");
        prop_assert_eq!(&decoded, &value);
    }

    /// Truncating an encoded value anywhere yields an error, never a
    /// panic or a silently-wrong value.
    #[test]
    fn vcbin_truncation_never_panics(value in arb_value()) {
        let mut encoded = Vec::new();
        codec::encode(&value, &mut encoded);
        // Probe a spread of cut points (all of them on small buffers).
        let step = (encoded.len() / 16).max(1);
        for cut in (0..encoded.len()).step_by(step) {
            prop_assert!(codec::decode::<Value>(&encoded[..cut]).is_err());
        }
    }

    /// Random bytes never panic the typed decoder, whether they are noise
    /// or an object's encoding with bytes overwritten (which gets past the
    /// first tag and deep into the typed walk), and whether they arrive as
    /// an object frame, a list item or an event's object.
    #[test]
    fn typed_decoder_never_panics_on_random_bytes(
        obj in arb_object(),
        noise in collection::vec(0u8..=255, 0..48),
        edits in collection::vec((0usize..4096, 0u8..=255), 1..6),
    ) {
        let mut edited = Vec::new();
        codec::encode(&obj, &mut edited);
        for &(at, byte) in &edits {
            let at = at % edited.len();
            edited[at] = byte;
        }
        for payload in [&noise, &edited] {
            let framed = [&[codec::VCBIN_VERSION, codec::FRAME_OBJECT][..], payload].concat();
            let _ = codec::from_framed_slice::<Object>(codec::FRAME_OBJECT, &framed);
            let mut list = Vec::new();
            codec::write_list_frame(&mut list, 3, [payload.as_slice()].into_iter());
            let _ = codec::read_list_frame::<Object>(&list);
            let mut chunk = Vec::new();
            codec::write_event_frame(&mut chunk, codec::EVENT_ADDED, 3, Some(payload));
            let _ = codec::read_event_frames::<Object>(&chunk);
            // Noise right after a list frame's header is a hostile count.
            let raw = [&[codec::VCBIN_VERSION, codec::FRAME_LIST][..], payload].concat();
            let _ = codec::read_list_frame::<Object>(&raw);
        }
    }

    /// An object the store froze (its annotations, spec and status behind
    /// shared `Arc`s) encodes to exactly the bytes of the owned object, in
    /// JSON and in vcbin, and sizes the same; decoding gives back an owned
    /// object equal to both.
    #[test]
    fn frozen_object_encodes_like_owned(obj in arb_object()) {
        let mut frozen = obj.clone();
        frozen.freeze();
        let json = serde_json::to_string(&obj).expect("json");
        prop_assert_eq!(&serde_json::to_string(&frozen).expect("json"), &json);
        let vcbin = codec::to_framed_vec(codec::FRAME_OBJECT, &obj);
        prop_assert_eq!(&codec::to_framed_vec(codec::FRAME_OBJECT, &frozen), &vcbin);
        prop_assert_eq!(frozen.estimated_size(), obj.estimated_size());
        prop_assert_eq!(&frozen, &obj);
        prop_assert_eq!(&via_vcbin(&frozen), &obj);
    }

    /// Objects decode identically through either codec and through a
    /// generic value tree.
    #[test]
    fn object_equivalent_across_codecs(obj in arb_object()) {
        prop_assert_eq!(&via_json(&obj), &obj);
        prop_assert_eq!(&via_vcbin(&obj), &obj);
        prop_assert_eq!(&via_tree(&obj), &obj);
    }

    /// List frames spliced from individually-encoded items (the encode
    /// cache path) decode to the same list a JSON client sees.
    #[test]
    fn list_equivalent_across_codecs(
        items in proptest::collection::vec(arb_object(), 0..6),
        revision in 0u64..u64::MAX,
    ) {
        // Server-side binary body: splice per-item encodings.
        let encoded: Vec<Vec<u8>> = items
            .iter()
            .map(|o| {
                let mut out = Vec::new();
                codec::encode(o, &mut out);
                out
            })
            .collect();
        let mut body = Vec::new();
        codec::write_list_frame(&mut body, revision, encoded.iter().map(|e| e.as_slice()));
        let (rev_b, items_b): (u64, Vec<Object>) =
            codec::read_list_frame(&body).expect("vcbin list");
        // Server-side JSON body: splice per-item JSON.
        let mut json = format!("{{\"resource_version\":{revision},\"items\":[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&serde_json::to_string(item).expect("json item"));
        }
        json.push_str("]}");
        let parsed: Value = serde_json::from_str(&json).expect("json list");
        let rev_j: u64 = match &parsed {
            Value::Object(map) => match map.get("resource_version") {
                Some(Value::U64(v)) => *v,
                other => panic!("bad revision field: {other:?}"),
            },
            other => panic!("bad list body: {other:?}"),
        };
        let items_j: Vec<Object> = match &parsed {
            Value::Object(map) => match map.get("items") {
                Some(Value::Array(vals)) => vals
                    .iter()
                    .map(|v| serde::from_value(v).expect("json item decode"))
                    .collect(),
                other => panic!("bad items field: {other:?}"),
            },
            _ => unreachable!(),
        };
        prop_assert_eq!(rev_b, rev_j);
        prop_assert_eq!(&items_b, &items_j);
        prop_assert_eq!(&items_b, &items);
    }

    /// Every `ApiError` variant survives both codecs unchanged, so a
    /// binary client classifies failures exactly like a JSON client.
    #[test]
    fn api_error_equivalent_across_codecs(err in arb_api_error()) {
        let via_j = via_json(&err);
        let framed = codec::to_framed_vec(codec::FRAME_ERROR, &err);
        let via_b: ApiError =
            codec::from_framed_slice(codec::FRAME_ERROR, &framed).expect("vcbin error");
        prop_assert_eq!(&via_j, &err);
        prop_assert_eq!(&via_b, &err);
        prop_assert_eq!(&via_tree(&err), &err);
        // And through the client's tolerant path with the right status.
        prop_assert_eq!(&codec::decode_error(500, &framed), &err);
    }

    /// Batched event chunks carry every event faithfully, in order.
    #[test]
    fn event_batch_roundtrips(
        events in proptest::collection::vec((arb_object(), 0u64..u64::MAX), 1..6),
    ) {
        let mut chunk = Vec::new();
        for (i, (obj, rev)) in events.iter().enumerate() {
            let mut encoded = Vec::new();
            // The exact encoding of the object's tree decodes typed too.
            codec::encode(&serde::to_value(obj), &mut encoded);
            let tag = match i % 3 {
                0 => codec::EVENT_ADDED,
                1 => codec::EVENT_MODIFIED,
                _ => codec::EVENT_DELETED,
            };
            codec::write_event_frame(&mut chunk, tag, *rev, Some(&encoded));
        }
        let frames = codec::read_event_frames::<Object>(&chunk).expect("decode chunk");
        prop_assert_eq!(frames.len(), events.len());
        for (frame, (obj, rev)) in frames.iter().zip(&events) {
            prop_assert_eq!(frame.revision, *rev);
            prop_assert_eq!(frame.object.as_ref(), Some(obj));
        }
    }

    /// A cached decode equals a fresh decode of the same bytes: for each
    /// object's encoding and for copies of it with one byte changed (which
    /// may decode to another object or fail), each decoded twice through
    /// one cache, a miss and then a hit.
    #[test]
    fn cached_decode_equals_a_fresh_decode(
        objs in proptest::collection::vec(arb_kinds(), 1..4),
        edits in proptest::collection::vec((0usize..4096, 0u8..=255), 0..4),
    ) {
        let cache = DecodeCache::default();
        let mut variants = Vec::new();
        for obj in &objs {
            let mut encoded = Vec::new();
            codec::encode(obj, &mut encoded);
            for &(at, byte) in &edits {
                let mut edited = encoded.clone();
                let at = at % edited.len();
                edited[at] = byte;
                variants.push(edited);
            }
            variants.push(encoded);
        }
        for _ in 0..2 {
            for bytes in &variants {
                match (cache.decode(bytes), codec::decode::<Object>(bytes)) {
                    (Ok(cached), Ok(fresh)) => prop_assert_eq!(&*cached, &fresh),
                    (Err(_), Err(_)) => {}
                    (cached, fresh) => {
                        prop_assert!(false, "cached {:?}, fresh {:?}", cached, fresh)
                    }
                }
            }
        }
    }
}
