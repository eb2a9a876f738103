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
//! Case count honors `PROPTEST_CASES` (CI runs 256).

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use vc_api::error::ApiError;
use vc_api::object::Object;
use vc_api::pod::{Container, ContainerPort, Pod, PodCondition, PodConditionType, Protocol};
use vc_api::quantity::Quantity;
use vc_api::time::Timestamp;
use vc_wire::codec;

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
                pod.meta.annotations = annotations;
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

fn via_vcbin<T: Serialize + Deserialize>(value: &T) -> T {
    let framed = codec::to_framed_vec(codec::FRAME_OBJECT, value);
    codec::from_framed_slice(codec::FRAME_OBJECT, &framed).expect("vcbin decode")
}

/// The two halves of the streamed-output contract (see the module docs).
fn check_streamed_json<T: Serialize>(value: &T) -> Result<(), TestCaseError> {
    let streamed = serde_json::to_string(value).expect("json encode");
    prop_assert_eq!(&streamed, &serde::write_json(&value.serialize_value()));
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
        check_streamed_json(&(Some(&value), None::<u8>, vec![(-1i8, 'é', 0.5f32)]))?;
    }

    /// The raw value layer is an exact roundtrip: every tree that goes in
    /// comes back bit-identical (JSON text cannot promise this for
    /// integer signedness; `vcbin` must).
    #[test]
    fn vcbin_value_roundtrip_is_identity(value in arb_value()) {
        let mut encoded = Vec::new();
        codec::encode_value(&value, &mut encoded);
        let decoded = codec::decode_value(&encoded).expect("decode");
        prop_assert_eq!(&decoded, &value);
    }

    /// Truncating an encoded value anywhere yields an error, never a
    /// panic or a silently-wrong value.
    #[test]
    fn vcbin_truncation_never_panics(value in arb_value()) {
        let mut encoded = Vec::new();
        codec::encode_value(&value, &mut encoded);
        // Probe a spread of cut points (all of them on small buffers).
        let step = (encoded.len() / 16).max(1);
        for cut in (0..encoded.len()).step_by(step) {
            prop_assert!(codec::decode_value(&encoded[..cut]).is_err());
        }
    }

    /// Objects decode identically through either codec.
    #[test]
    fn object_equivalent_across_codecs(obj in arb_object()) {
        let via_j = via_json(&obj);
        let via_b = via_vcbin(&obj);
        prop_assert_eq!(&via_j, &obj);
        prop_assert_eq!(&via_b, &obj);
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
                codec::encode_value(&o.serialize_value(), &mut out);
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
                    .map(|v| Deserialize::deserialize_value(v).expect("json item decode"))
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
            codec::encode_value(&obj.serialize_value(), &mut encoded);
            let tag = match i % 3 {
                0 => codec::EVENT_ADDED,
                1 => codec::EVENT_MODIFIED,
                _ => codec::EVENT_DELETED,
            };
            codec::write_event_frame(&mut chunk, tag, *rev, Some(&encoded));
        }
        let frames = codec::read_event_frames(&chunk).expect("decode chunk");
        prop_assert_eq!(frames.len(), events.len());
        for (frame, (obj, rev)) in frames.iter().zip(&events) {
            prop_assert_eq!(frame.revision, *rev);
            let back: Object =
                Deserialize::deserialize_value(frame.object.as_ref().expect("object"))
                    .expect("event object");
            prop_assert_eq!(&back, obj);
        }
    }
}
