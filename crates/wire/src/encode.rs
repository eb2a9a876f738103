//! Memoized object encoding — serialize once per revision *per codec*,
//! reuse the bytes across every lister and watcher.
//!
//! Serialization is the cost the in-process simulator hides (`Arc`
//! aliasing makes a "send" free) and the wire tier makes real. The store
//! already guarantees that an object's `resource_version` is globally
//! unique — one atomic revision counter spans all kinds — so `(rv,
//! codec)` is a perfect cache key for a stored object's encoding: any two
//! reads observing the same rv observe byte-identical state. The cache
//! encodes on first sight and afterwards hands out the same [`Bytes`]
//! buffer (an `Arc<[u8]>` under the hood), so fanning an event out to a
//! thousand watchers costs one encode and a thousand pointer bumps. A
//! revision watched by JSON and binary clients at once holds both
//! encodings side by side in one entry.
//!
//! The bound is **total cached bytes**, not entry count — two codecs
//! per entry and wildly varying object sizes would otherwise let an
//! entry-count cap double (or worse) the resident cost silently.
//! Eviction is revision-ordered: revisions only grow, and old revisions
//! stop being referenced as soon as newer state lands, so when the cache
//! exceeds its byte budget it drops the lowest revisions first — an LRU
//! approximation with no per-hit bookkeeping on the read path. Lookups,
//! evictions and the live byte total are exported as
//! `vc_wire_encode_cache_lookups_total`, `vc_wire_encode_cache_evictions_total`
//! and `vc_wire_encode_cache_bytes`.
//!
//! A `vcbin` miss encodes into a buffer its thread reuses (dropped before
//! the next miss if an object grew it past 1 MiB), and the cache keeps an
//! exact-size copy: one allocation for the bytes, plus the encoder's
//! string dictionary. A list body is never cached as a whole:
//! [`EncodeCache::write_list`] copies each item's cached bytes once,
//! straight into the caller's buffer (a server connection keeps one for
//! its life), so once the items are cached and the buffer has grown to
//! fit, serving a list allocates nothing.

use crate::{codec, http};
use bytes::Bytes;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use vc_api::metrics::{Counter, Gauge};
use vc_api::object::Object;
use vc_client::Encoding;
use vc_obs::registry::MetricsRegistry;

/// Default bound on total cached encoding bytes across both codecs.
pub const DEFAULT_ENCODE_CACHE_BYTES: usize = 32 * 1024 * 1024;

/// One cached revision: the JSON and/or `vcbin` encodings seen so far.
type Entry = [Option<Bytes>; 2];

thread_local! {
    /// The encoder's output on this thread, reused across misses of
    /// either codec.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn slot(encoding: Encoding) -> usize {
    match encoding {
        Encoding::Json => 0,
        Encoding::Binary => 1,
    }
}

/// A byte-bounded `(rv, codec)` → encoded-bytes cache.
#[derive(Debug)]
pub struct EncodeCache {
    entries: Mutex<BTreeMap<u64, Entry>>,
    max_bytes: usize,
    /// Lookups served from the cache (the "serialized once" wins).
    pub hits: Arc<Counter>,
    /// Lookups that had to serialize.
    pub misses: Arc<Counter>,
    /// Entries dropped to stay under the byte budget.
    pub evictions: Arc<Counter>,
    /// Sum of cached buffer lengths across every entry and codec; changed
    /// only under the `entries` lock.
    pub resident_bytes: Arc<Gauge>,
}

impl EncodeCache {
    /// Creates a cache bounded to `max_bytes` of cached encodings.
    pub fn new(max_bytes: usize) -> EncodeCache {
        EncodeCache {
            entries: Mutex::new(BTreeMap::new()),
            max_bytes: max_bytes.max(1),
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
            resident_bytes: Arc::default(),
        }
    }

    /// Binds the cache's cells into `registry`, labeled by `server`.
    pub fn publish_metrics(&self, registry: &MetricsRegistry, server: &str) {
        let lookups = registry.counter(
            "vc_wire_encode_cache_lookups_total",
            "Memoized-encoding lookups (serialized-once hits vs misses).",
            &["server", "outcome"],
        );
        lookups.bind(&[server, "hit"], Arc::clone(&self.hits));
        lookups.bind(&[server, "miss"], Arc::clone(&self.misses));
        registry
            .counter(
                "vc_wire_encode_cache_evictions_total",
                "Encode-cache entries dropped to stay under the byte budget.",
                &["server"],
            )
            .bind(&[server], Arc::clone(&self.evictions));
        registry
            .gauge(
                "vc_wire_encode_cache_bytes",
                "Bytes of cached encodings resident in the encode cache.",
                &["server"],
            )
            .bind(&[server], Arc::clone(&self.resident_bytes));
    }

    /// The encoding of `obj` under `encoding`, memoized on its
    /// `resource_version`. The returned buffer is a self-contained value
    /// encoding (JSON text or a `vcbin` value) ready to splice into list
    /// bodies and watch frames.
    pub fn encode(&self, obj: &Arc<Object>, encoding: Encoding) -> Bytes {
        let rv = obj.meta().resource_version;
        let idx = slot(encoding);
        if rv > 0 {
            if let Some(bytes) = self.entries.lock().get(&rv).and_then(|e| e[idx].clone()) {
                self.hits.inc();
                return bytes;
            }
        }
        self.misses.inc();
        // Serialize outside the lock: encoding a large object must not
        // stall every other reader. A racing encode of the same rv
        // produces identical bytes, so last-writer-wins is harmless.
        let encoded = SCRATCH.with_borrow_mut(|scratch| {
            http::recycle(scratch);
            match encoding {
                Encoding::Json => serde::write_json_into(&**obj, scratch),
                Encoding::Binary => codec::encode(&**obj, scratch),
            }
            Bytes::copy_from_slice(scratch)
        });
        if rv > 0 {
            let mut entries = self.entries.lock();
            let entry = entries.entry(rv).or_default();
            if entry[idx].is_none() {
                entry[idx] = Some(encoded.clone());
                self.resident_bytes.add(encoded.len() as i64);
            }
            while self.bytes() > self.max_bytes && entries.len() > 1 {
                // Drop the lowest revision: monotone revisions make the
                // low keys the entries least likely to be re-read. Keep
                // the newest entry resident even if it alone exceeds the
                // budget, so fan-out of the current revision still hits.
                let Some((_, dropped)) = entries.pop_first() else { break };
                let freed: usize = dropped.iter().flatten().map(Bytes::len).sum();
                self.resident_bytes.add(-(freed as i64));
                self.evictions.inc();
            }
        }
        encoded
    }

    /// Appends the list body of `items` at `revision` under `encoding` to
    /// `out`, each item's cached encoding spliced in: a `vcbin` list frame,
    /// or `{"resource_version":R,"items":[…]}` in JSON.
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
                    out.extend_from_slice(&self.encode(item, encoding));
                }
                out.extend_from_slice(b"]}");
            }
            Encoding::Binary => {
                codec::write_list_head(out, revision, items.len());
                for item in items {
                    codec::write_list_item(out, &self.encode(item, encoding));
                }
            }
        }
    }

    /// Cached revisions currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of cached encodings currently resident.
    pub fn bytes(&self) -> usize {
        self.resident_bytes.get() as usize
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Fraction of lookups served from cache, 0.0 when unused.
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

impl Default for EncodeCache {
    fn default() -> Self {
        EncodeCache::new(DEFAULT_ENCODE_CACHE_BYTES)
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
        let cache = EncodeCache::default();
        let obj = pod_at_rv("p", 7);
        let a = cache.encode(&obj, Encoding::Json);
        let b = cache.encode(&obj, Encoding::Json);
        assert_eq!(a, b);
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 1);
        assert!(cache.hit_rate() > 0.49);
        // The memoized buffer is the stored JSON.
        let text = String::from_utf8(a.to_vec()).unwrap();
        let back: Object = serde_json::from_str(&text).unwrap();
        assert_eq!(back.meta().name, "p");
    }

    #[test]
    fn codecs_cache_side_by_side() {
        let cache = EncodeCache::default();
        let obj = pod_at_rv("p", 9);
        let json = cache.encode(&obj, Encoding::Json);
        let bin = cache.encode(&obj, Encoding::Binary);
        assert_ne!(json, bin);
        assert_eq!(cache.misses.get(), 2, "each codec serializes once");
        assert_eq!(cache.encode(&obj, Encoding::Json), json);
        assert_eq!(cache.encode(&obj, Encoding::Binary), bin);
        assert_eq!(cache.hits.get(), 2);
        assert_eq!(cache.len(), 1, "one entry holds both encodings");
        assert_eq!(cache.bytes(), json.len() + bin.len());
        // The binary buffer decodes to the same object.
        let back: Object = crate::codec::decode(&bin).unwrap();
        assert_eq!(&back, &*obj);
    }

    #[test]
    fn rv_zero_never_cached() {
        let cache = EncodeCache::default();
        let obj = pod_at_rv("p", 0);
        cache.encode(&obj, Encoding::Json);
        cache.encode(&obj, Encoding::Json);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses.get(), 2);
    }

    #[test]
    fn byte_budget_evicts_oldest() {
        let one = {
            let probe = EncodeCache::default();
            probe.encode(&pod_at_rv("p", 1), Encoding::Json).len()
        };
        // Room for roughly four entries.
        let cache = EncodeCache::new(one * 4);
        for rv in 1..=40 {
            cache.encode(&pod_at_rv("p", rv), Encoding::Json);
        }
        assert!(cache.bytes() <= one * 4, "byte cap respected, got {}", cache.bytes());
        assert!(cache.evictions.get() >= 30, "evictions counted: {}", cache.evictions.get());
        // Newest revision still resident, oldest gone.
        cache.encode(&pod_at_rv("p", 40), Encoding::Json);
        assert_eq!(cache.hits.get(), 1);
        cache.encode(&pod_at_rv("p", 1), Encoding::Json);
        assert_eq!(cache.hits.get(), 1, "rv 1 was evicted");
    }

    #[test]
    fn oversized_single_entry_stays_resident() {
        let cache = EncodeCache::new(8); // absurdly small budget
        let obj = pod_at_rv("p", 5);
        cache.encode(&obj, Encoding::Json);
        assert_eq!(cache.len(), 1, "newest entry survives even over budget");
        cache.encode(&obj, Encoding::Json);
        assert_eq!(cache.hits.get(), 1);
    }
}
