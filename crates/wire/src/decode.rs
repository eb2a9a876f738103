//! Decode once per encoding — the client-side mirror of serializing once
//! per stored object ([`crate::encode`]).
//!
//! A `vcbin` list item or event object is a self-contained value encoding
//! ([`crate::codec`] module docs), so equal bytes decode to equal objects.
//! A client that re-lists, re-reads and watches the same objects therefore
//! needs to decode each distinct encoding once: [`DecodeCache`] maps an
//! item's exact bytes to the shared `Arc<Object>` they decoded to, and a
//! repeat hands out that `Arc`.
//!
//! **Keying.** Entries are found by a fast hash of the item bytes and a
//! hit counts only when the bytes are equal, so two items that share a
//! hash are both kept, each under its own bytes. The key is never the
//! `resource_version`: an in-memory apiserver restarted at the same
//! address re-issues the same revisions for different objects, and a
//! revision key would hand out the stale ones.
//!
//! **Bound.** Two generations, each holding at most
//! [`DECODE_CACHE_BYTES`] of item bytes. New entries go into the current
//! generation; when it is full it becomes the previous one and the old
//! previous generation is dropped. A hit in the previous generation moves
//! the entry into the current one, so a working set that is read again
//! within two generations stays resident, and anything older is dropped
//! without per-hit bookkeeping. The lock is never held while decoding.
//!
//! **What a caller shares.** Every caller gets the same `Arc`, read-only.
//! A caller that needs an owned object to change
//! (`Pod::try_from(Arc<Object>)`) copies it, where an uncached decode
//! could be moved out of its `Arc`. The object is not frozen
//! ([`Object::freeze`]): freezing costs each decode up to three
//! allocations, which a syncer's watch-decoded objects, mostly compared
//! and seldom copied, do not earn back.

use crate::codec::{self, CodecError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vc_api::metrics::Counter;
use vc_api::object::Object;

/// Item bytes one generation holds before it is retired.
pub const DECODE_CACHE_BYTES: usize = 2 * 1024 * 1024;

/// Entries kept under one hash. Honest items almost never share a 64-bit
/// hash; a peer that crafts items that do gets them decoded, not cached,
/// once a chain is this long, so a lookup compares at most this many
/// entries.
const MAX_CHAIN: usize = 4;

/// A 64-bit multiply-rotate hash over 8-byte words (the `FxHash` step). It
/// is not collision resistant, and need not be: a hit is byte-verified and
/// chains are capped.
fn item_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = step(0, bytes.len() as u64);
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("chunks of eight")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    step(h, u64::from_le_bytes(tail))
}

struct Entry {
    /// The item's exact encoding; emptied when the entry moves to the
    /// current generation.
    bytes: Box<[u8]>,
    object: Arc<Object>,
    /// The next-older entry under the same hash.
    next: Option<usize>,
}

#[derive(Default)]
struct Generation {
    /// Hash → newest entry under it.
    heads: HashMap<u64, usize>,
    entries: Vec<Entry>,
    /// Item bytes admitted to this generation.
    bytes: usize,
}

impl Generation {
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.heads.get(&hash).copied(), |&i| self.entries[i].next)
    }

    fn find(&self, hash: u64, item: &[u8]) -> Option<usize> {
        // An emptied entry has moved on; no item is empty.
        self.chain(hash).find(|&i| !item.is_empty() && *self.entries[i].bytes == *item)
    }

    fn insert(&mut self, hash: u64, bytes: Box<[u8]>, object: Arc<Object>) {
        if self.chain(hash).count() >= MAX_CHAIN {
            return;
        }
        self.bytes += bytes.len();
        let index = self.entries.len();
        let next = self.heads.insert(hash, index);
        self.entries.push(Entry { bytes, object, next });
    }
}

#[derive(Default)]
struct Generations {
    current: Generation,
    previous: Generation,
}

impl Generations {
    /// Adds an entry to the current generation, retiring it first when it
    /// is full; returns the generation that retirement dropped, for the
    /// caller to free outside the lock.
    fn admit(&mut self, hash: u64, bytes: Box<[u8]>, object: Arc<Object>) -> Option<Generation> {
        let retired = (self.current.bytes >= DECODE_CACHE_BYTES).then(|| {
            let full = std::mem::take(&mut self.current);
            std::mem::replace(&mut self.previous, full)
        });
        self.current.insert(hash, bytes, object);
        retired
    }
}

/// A byte-bounded map from exact `vcbin` item bytes to the object they
/// decode to, shared by a [`crate::WireClient`], its clones and its
/// watches.
#[derive(Default)]
pub struct DecodeCache {
    generations: Mutex<Generations>,
    hits: Counter,
    misses: Counter,
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish()
    }
}

impl DecodeCache {
    /// The object `item` (one self-contained value encoding) decodes to:
    /// the shared one when these exact bytes were decoded before.
    ///
    /// # Errors
    ///
    /// As [`codec::decode`]; an undecodable item is not cached.
    pub fn decode(&self, item: &[u8]) -> Result<Arc<Object>, CodecError> {
        let hash = item_hash(item);
        if let Some(object) = self.lookup(hash, item) {
            self.hits.inc();
            return Ok(object);
        }
        self.misses.inc();
        let object = Arc::new(codec::decode::<Object>(item)?);
        Ok(self.insert(hash, item, object))
    }

    /// Decodes a list frame into `(revision, items)`, each item through
    /// [`DecodeCache::decode`].
    ///
    /// # Errors
    ///
    /// Fails on malformed framing or any undecodable item.
    pub fn decode_list(&self, frame: &[u8]) -> Result<(u64, Vec<Arc<Object>>), CodecError> {
        let (revision, items) = codec::split_list_frame(frame)?;
        let mut objects = Vec::with_capacity(items.len());
        for item in items {
            objects.push(self.decode(item)?);
        }
        Ok((revision, objects))
    }

    /// Decodes served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Decodes that had to decode.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The entry for `item` under `hash`; a hit in the previous
    /// generation moves the entry into the current one.
    fn lookup(&self, hash: u64, item: &[u8]) -> Option<Arc<Object>> {
        let mut generations = self.generations.lock();
        let g = &mut *generations;
        if let Some(i) = g.current.find(hash, item) {
            return Some(Arc::clone(&g.current.entries[i].object));
        }
        let i = g.previous.find(hash, item)?;
        let entry = &mut g.previous.entries[i];
        let (bytes, object) = (std::mem::take(&mut entry.bytes), Arc::clone(&entry.object));
        let retired = g.admit(hash, bytes, Arc::clone(&object));
        drop(generations);
        drop(retired);
        Some(object)
    }

    /// Caches `object` as what `item` decodes to, unless a racing decode
    /// of the same bytes got there first: then that one is returned, so
    /// every caller shares one object.
    fn insert(&self, hash: u64, item: &[u8], object: Arc<Object>) -> Arc<Object> {
        let bytes = Box::from(item);
        let mut generations = self.generations.lock();
        if let Some(i) = generations.current.find(hash, item) {
            return Arc::clone(&generations.current.entries[i].object);
        }
        let retired = generations.admit(hash, bytes, Arc::clone(&object));
        drop(generations);
        drop(retired);
        object
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::namespace::Namespace;
    use vc_api::pod::Pod;

    fn encoded(obj: &Object) -> Vec<u8> {
        let mut out = Vec::new();
        codec::encode(obj, &mut out);
        out
    }

    #[test]
    fn equal_bytes_share_one_object() {
        let cache = DecodeCache::default();
        let bytes = encoded(&Pod::new("default", "p").into());
        let first = cache.decode(&bytes).unwrap();
        let second = cache.decode(&bytes).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(*first, codec::decode::<Object>(&bytes).unwrap());
    }

    #[test]
    fn items_under_one_hash_each_come_back_intact() {
        let cache = DecodeCache::default();
        let a: Object = Pod::new("default", "a").into();
        let b: Object = Namespace::new("b").into();
        let (bytes_a, bytes_b) = (encoded(&a), encoded(&b));
        let hash = 42;
        cache.insert(hash, &bytes_a, Arc::new(a.clone()));
        assert!(cache.lookup(hash, &bytes_b).is_none(), "a shared hash is not a hit");
        cache.insert(hash, &bytes_b, Arc::new(b.clone()));
        assert_eq!(*cache.lookup(hash, &bytes_a).unwrap(), a);
        assert_eq!(*cache.lookup(hash, &bytes_b).unwrap(), b);
        assert_eq!(cache.generations.lock().current.chain(hash).count(), 2);
    }

    #[test]
    fn a_chain_stops_growing_at_its_cap() {
        let cache = DecodeCache::default();
        let obj = Arc::new(Object::from(Namespace::new("n")));
        for i in 0..MAX_CHAIN + 3 {
            cache.insert(7, &[1, i as u8], Arc::clone(&obj));
        }
        assert_eq!(cache.generations.lock().current.chain(7).count(), MAX_CHAIN);
        assert!(cache.lookup(7, &[1, 0]).is_some(), "the first entries stay");
        assert!(cache.lookup(7, &[1, MAX_CHAIN as u8]).is_none(), "the rest were not cached");
    }

    #[test]
    fn two_generations_bound_the_bytes_and_a_hit_moves_an_entry_forward() {
        let cache = DecodeCache::default();
        let obj = Arc::new(Object::from(Namespace::new("n")));
        let big = |tag: u8| vec![tag; DECODE_CACHE_BYTES / 2];
        for tag in 0..4 {
            cache.insert(tag as u64, &big(tag), Arc::clone(&obj));
        }
        // Items 0 and 1 filled the first generation; 2 and 3 the second.
        // Reading 0 again retires the second generation, drops the first
        // (and 1 with it) and moves 0 into the new current one.
        assert!(cache.lookup(0, &big(0)).is_some());
        cache.insert(4, &big(4), Arc::clone(&obj));
        let g = cache.generations.lock();
        let resident = |t: u8| {
            [&g.current, &g.previous].iter().any(|gen| gen.find(t as u64, &big(t)).is_some())
        };
        assert_eq!((0..5).filter(|&t| resident(t)).collect::<Vec<u8>>(), [0, 2, 3, 4]);
        assert_eq!(g.current.bytes + g.previous.bytes, 2 * DECODE_CACHE_BYTES);
    }

    #[test]
    fn undecodable_items_are_errors_and_not_cached() {
        let cache = DecodeCache::default();
        assert!(cache.decode(&[]).is_err());
        assert!(cache.decode(&[0xff]).is_err());
        assert_eq!(cache.generations.lock().current.entries.len(), 0);
    }
}
