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
//! approximation with no per-hit bookkeeping on the read path. Evictions
//! and the live byte total are exported as `vc_wire_encode_cache_bytes` /
//! `vc_wire_encode_cache_evictions`.

use crate::codec;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::Object;
use vc_client::Encoding;

/// Default bound on total cached encoding bytes across both codecs.
pub const DEFAULT_ENCODE_CACHE_BYTES: usize = 32 * 1024 * 1024;

/// One cached revision: the JSON and/or `vcbin` encodings seen so far.
type Entry = [Option<Bytes>; 2];

fn slot(encoding: Encoding) -> usize {
    match encoding {
        Encoding::Json => 0,
        Encoding::Binary => 1,
    }
}

#[derive(Debug, Default)]
struct CacheState {
    entries: BTreeMap<u64, Entry>,
    /// Sum of cached buffer lengths across every entry and codec.
    bytes: usize,
}

/// A byte-bounded `(rv, codec)` → encoded-bytes cache.
#[derive(Debug)]
pub struct EncodeCache {
    state: Mutex<CacheState>,
    max_bytes: usize,
    /// Lookups served from the cache (the "serialized once" wins).
    pub hits: Counter,
    /// Lookups that had to serialize.
    pub misses: Counter,
    /// Entries dropped to stay under the byte budget.
    pub evictions: Counter,
}

impl EncodeCache {
    /// Creates a cache bounded to `max_bytes` of cached encodings.
    pub fn new(max_bytes: usize) -> EncodeCache {
        EncodeCache {
            state: Mutex::new(CacheState::default()),
            max_bytes: max_bytes.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The encoding of `obj` under `encoding`, memoized on its
    /// `resource_version`. The returned buffer is a self-contained value
    /// encoding (JSON text or a `vcbin` value) ready to splice into list
    /// bodies and watch frames.
    pub fn encode(&self, obj: &Arc<Object>, encoding: Encoding) -> Bytes {
        let rv = obj.meta().resource_version;
        let idx = slot(encoding);
        if rv > 0 {
            if let Some(bytes) = self.state.lock().entries.get(&rv).and_then(|e| e[idx].clone()) {
                self.hits.inc();
                return bytes;
            }
        }
        self.misses.inc();
        // Serialize outside the lock: encoding a large object must not
        // stall every other reader. A racing encode of the same rv
        // produces identical bytes, so last-writer-wins is harmless.
        let encoded: Bytes = match encoding {
            Encoding::Json => {
                serde_json::to_string(&**obj).expect("objects always serialize").into()
            }
            Encoding::Binary => {
                let mut out = Vec::with_capacity(obj.estimated_size());
                codec::encode(&**obj, &mut out);
                out.into()
            }
        };
        if rv > 0 {
            let mut state = self.state.lock();
            let entry = state.entries.entry(rv).or_default();
            if entry[idx].is_none() {
                entry[idx] = Some(encoded.clone());
                state.bytes += encoded.len();
            }
            while state.bytes > self.max_bytes && state.entries.len() > 1 {
                // Drop the lowest revision: monotone revisions make the
                // low keys the entries least likely to be re-read. Keep
                // the newest entry resident even if it alone exceeds the
                // budget, so fan-out of the current revision still hits.
                let Some((_, dropped)) = state.entries.pop_first() else { break };
                state.bytes -=
                    dropped.iter().flatten().map(Bytes::len).sum::<usize>().min(state.bytes);
                self.evictions.inc();
            }
        }
        encoded
    }

    /// Cached revisions currently held.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of cached encodings currently resident.
    pub fn bytes(&self) -> usize {
        self.state.lock().bytes
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
