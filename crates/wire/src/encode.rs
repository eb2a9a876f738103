//! Serialize once per stored object *per codec*, and reuse the bytes across
//! every lister and watcher.
//!
//! Serialization is the cost the in-process simulator hides (`Arc`
//! aliasing makes a "send" free) and the wire tier makes real. The store
//! makes one `Arc<Object>` per revision and hands that same `Arc` to its
//! index, its event log, every watcher and the write's caller, so the
//! object itself is where its encodings live: its
//! [`vc_api::meta::Encodings`] holds one slot per codec. The first read of
//! a revision in a codec encodes it and fills the slot; every later read of
//! that revision, by any connection, hands out the same buffer as a
//! [`Bytes`] (an `Arc<[u8]>` under the hood), so fanning an event out to a
//! thousand watchers costs one encode and a thousand pointer bumps.
//!
//! A slot is never stale: the store empties it in `Object::freeze`, where a
//! state gets its revision, so an owned copy taken out of a uniquely held
//! `Arc` and written back starts its new revision with empty slots. An
//! encoding lives exactly as long as some holder of its revision (the
//! index, the event log, a watcher, a reply in flight); there is no second
//! index of the store and no byte budget to evict against. Lookups are
//! exported as `vc_wire_encode_cache_lookups_total`.
//!
//! A miss encodes into a buffer its thread reuses (dropped before the next
//! miss if an object grew it past 1 MiB) and fills the slot with an
//! exact-size copy: one allocation for the bytes, plus the `vcbin`
//! encoder's string dictionary. No lock spans objects: a reader racing
//! the fill of the same slot (a write's reply and its watch event, say)
//! waits for that one encode and shares its bytes. A list body is never
//! kept as a whole: [`EncodeLookups::write_list`] copies each item's bytes
//! once, straight into the caller's buffer (a server connection keeps one
//! for its life), so once the items are encoded and the buffer has grown to
//! fit, serving a list allocates nothing.

use crate::{codec, http};
use bytes::Bytes;
use std::cell::RefCell;
use std::io::Write;
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::Object;
use vc_client::Encoding;

thread_local! {
    /// The encoder's output on this thread, reused across misses of
    /// either codec.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The slot of `encoding` in an object's `Encodings`.
fn slot(encoding: Encoding) -> usize {
    match encoding {
        Encoding::Json => 0,
        Encoding::Binary => 1,
    }
}

/// Object encodings served from their slots, counted.
#[derive(Debug, Default)]
pub struct EncodeLookups {
    /// Lookups served from a filled slot (the "serialized once" wins).
    pub hits: Arc<Counter>,
    /// Lookups that had to serialize.
    pub misses: Arc<Counter>,
}

impl EncodeLookups {
    /// The encoding of `obj` under `encoding`, held on `obj` itself. The
    /// returned buffer is a self-contained value encoding (JSON text or a
    /// `vcbin` value) ready to splice into list bodies and watch frames.
    pub fn encode(&self, obj: &Object, encoding: Encoding) -> Bytes {
        Bytes::from(Arc::clone(self.encoded(obj, encoding)))
    }

    /// `obj`'s slot for `encoding`, filled first on a miss.
    fn encoded<'a>(&self, obj: &'a Object, encoding: Encoding) -> &'a Arc<[u8]> {
        let mut missed = false;
        let bytes = obj.meta().encodings.get_or_fill(slot(encoding), || {
            missed = true;
            SCRATCH.with_borrow_mut(|scratch| {
                http::recycle(scratch);
                match encoding {
                    Encoding::Json => serde::write_json_into(obj, scratch),
                    Encoding::Binary => codec::encode(obj, scratch),
                }
                Arc::from(&scratch[..])
            })
        });
        if missed { &self.misses } else { &self.hits }.inc();
        bytes
    }

    /// Appends the list body of `items` at `revision` under `encoding` to
    /// `out`, each item's encoding spliced in: a `vcbin` list frame, or
    /// `{"resource_version":R,"items":[…]}` in JSON.
    pub fn write_list(
        &self,
        items: &[Arc<Object>],
        revision: u64,
        encoding: Encoding,
        out: &mut Vec<u8>,
    ) {
        match encoding {
            Encoding::Json => {
                // Writing into a `Vec` cannot fail.
                let _ = write!(out, "{{\"resource_version\":{revision},\"items\":[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    out.extend_from_slice(self.encoded(item, encoding));
                }
                out.extend_from_slice(b"]}");
            }
            Encoding::Binary => {
                codec::write_list_head(out, revision, items.len());
                for item in items {
                    codec::write_list_item(out, self.encoded(item, encoding));
                }
            }
        }
    }

    /// Fraction of lookups served from a filled slot, 0.0 when unused.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.get() as f64;
        let total = hits + self.misses.get() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::pod::Pod;

    fn pod_at_rv(name: &str, rv: u64) -> Arc<Object> {
        let mut pod = Pod::new("default", name);
        pod.meta.resource_version = rv;
        Arc::new(pod.into())
    }

    #[test]
    fn second_encode_hits() {
        let lookups = EncodeLookups::default();
        let obj = pod_at_rv("p", 7);
        let a = lookups.encode(&obj, Encoding::Json);
        let b = lookups.encode(&obj, Encoding::Json);
        assert_eq!(a, b);
        assert_eq!(lookups.hits.get(), 1);
        assert_eq!(lookups.misses.get(), 1);
        assert!(lookups.hit_rate() > 0.49);
        // The slot holds the stored JSON.
        let text = String::from_utf8(a.to_vec()).unwrap();
        let back: Object = serde_json::from_str(&text).unwrap();
        assert_eq!(back.meta().name, "p");
    }

    #[test]
    fn codecs_cache_side_by_side() {
        let lookups = EncodeLookups::default();
        let obj = pod_at_rv("p", 9);
        let json = lookups.encode(&obj, Encoding::Json);
        let bin = lookups.encode(&obj, Encoding::Binary);
        assert_ne!(json, bin);
        assert_eq!(lookups.misses.get(), 2, "each codec serializes once");
        assert_eq!(lookups.encode(&obj, Encoding::Json), json);
        assert_eq!(lookups.encode(&obj, Encoding::Binary), bin);
        assert_eq!(lookups.hits.get(), 2);
        let encodings = &obj.meta().encodings;
        assert_eq!(encodings.get(slot(Encoding::Json)).map(|b| &b[..]), Some(&json[..]));
        assert_eq!(encodings.get(slot(Encoding::Binary)).map(|b| &b[..]), Some(&bin[..]));
        // The binary buffer decodes to the same object.
        let back: Object = crate::codec::decode(&bin).unwrap();
        assert_eq!(&back, &*obj);
    }
}
