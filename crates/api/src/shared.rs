//! Copy-on-write object parts: [`Shared`].
//!
//! A stored object is read by many holders (informer caches, watchers, the
//! syncer's workers) and each write changes one part of it: a bind the
//! spec's `node_name`, a kubelet or an upward status write the status. A
//! writer copies the stored object out of its `Arc` to change it, and
//! without sharing that copy is deep: the spec's containers, the status's
//! conditions and every annotation are allocated again, only to be compared
//! and dropped by the next writer.
//!
//! [`Shared`] holds such a part either by value ([`Shared::Owned`]) or
//! behind an `Arc` ([`Shared::Frozen`]). The store freezes the parts of an
//! object once, as it stores it ([`crate::object::Object::freeze`]); from
//! then on a copy of the object shares them, and the first mutable borrow
//! of a part un-shares that part alone. So a write copies what it changes.
//!
//! Everything else sees the value: reads go through `Deref`, equality is
//! the value's (with an `Arc::ptr_eq` shortcut), and serialization is
//! transparent. Decoding always produces [`Shared::Owned`]: a decoded
//! object pays no extra allocation, and its bytes are the same either way.

use serde::{Deserialize, Error, Serialize, Sink, Source, TokenOf};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A part of an object that a copy may share with the stored original.
///
/// # Examples
///
/// ```
/// use vc_api::shared::Shared;
///
/// let mut stored: Shared<Vec<u32>> = vec![1, 2, 3].into();
/// stored.freeze();
/// let mut copy = stored.clone(); // a reference-count bump
/// assert!(Shared::ptr_eq(&stored, &copy));
/// copy.push(4); // un-shares the copy alone
/// assert_eq!(*stored, [1, 2, 3]);
/// assert_eq!(*copy, [1, 2, 3, 4]);
/// ```
pub enum Shared<T> {
    /// Held by value: this holder may change it in place.
    Owned(T),
    /// Shared with the stored object and its other copies.
    Frozen(Arc<T>),
}

impl<T> Shared<T> {
    /// Moves a non-default owned value behind an `Arc`, so that clones
    /// share it. A default value stays owned: it clones without
    /// allocating, and an `Arc` around it would cost one allocation for
    /// nothing.
    pub fn freeze(&mut self)
    where
        T: Default + PartialEq,
    {
        if let Shared::Owned(value) = self {
            if *value != T::default() {
                *self = Shared::Frozen(Arc::new(std::mem::take(value)));
            }
        }
    }

    /// `true` when both are frozen and share one value.
    pub fn ptr_eq(a: &Shared<T>, b: &Shared<T>) -> bool {
        matches!((a, b), (Shared::Frozen(a), Shared::Frozen(b)) if Arc::ptr_eq(a, b))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Shared::Owned(value) => value,
            Shared::Frozen(shared) => shared,
        }
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    /// Un-shares a frozen value (copies it) before handing it out.
    fn deref_mut(&mut self) -> &mut T {
        if let Shared::Frozen(shared) = self {
            *self = Shared::Owned(T::clone(shared));
        }
        match self {
            Shared::Owned(value) => value,
            Shared::Frozen(_) => unreachable!("un-shared above"),
        }
    }
}

impl<T: Clone> Clone for Shared<T> {
    fn clone(&self) -> Self {
        match self {
            Shared::Owned(value) => Shared::Owned(value.clone()),
            Shared::Frozen(shared) => Shared::Frozen(Arc::clone(shared)),
        }
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::Owned(T::default())
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::Owned(value)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Shared::ptr_eq(self, other) || **self == **other
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        T::fmt(self, f)
    }
}

impl<T: Serialize> Serialize for Shared<T> {
    fn serialize<S: Sink>(&self, out: &mut S) {
        T::serialize(self, out);
    }

    fn is_sparse_empty(&self) -> bool {
        T::is_sparse_empty(self)
    }
}

impl<T: Deserialize> Deserialize for Shared<T> {
    fn from_token<'de, R: Source<'de>>(token: TokenOf<'de, R>, src: &mut R) -> Result<Self, Error> {
        T::from_token(token, src).map(Shared::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn frozen(entries: &[(&str, &str)]) -> Shared<BTreeMap<String, String>> {
        let map: BTreeMap<String, String> =
            entries.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut shared = Shared::from(map);
        shared.freeze();
        shared
    }

    #[test]
    fn freezing_shares_and_a_write_unshares_one_holder() {
        let stored = frozen(&[("a", "1")]);
        let mut copy = stored.clone();
        assert!(Shared::ptr_eq(&stored, &copy));
        copy.insert("b".into(), "2".into());
        assert!(matches!(copy, Shared::Owned(_)));
        assert!(!Shared::ptr_eq(&stored, &copy));
        assert_eq!(stored.len(), 1);
        assert_eq!(copy.len(), 2);
    }

    #[test]
    fn a_default_value_stays_owned() {
        let mut empty: Shared<BTreeMap<String, String>> = Shared::default();
        empty.freeze();
        assert!(matches!(empty, Shared::Owned(_)));
    }

    #[test]
    fn equality_is_the_values() {
        let (a, b) = (frozen(&[("a", "1")]), frozen(&[("a", "1")]));
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let owned: Shared<_> = (*a).clone().into();
        assert_eq!(a, owned);
        assert_ne!(a, frozen(&[("a", "2")]));
    }

    #[test]
    fn encoding_is_transparent_and_decoding_owns() {
        let shared = frozen(&[("k", "v")]);
        let json = serde_json::to_string(&shared).unwrap();
        assert_eq!(json, serde_json::to_string(&*shared).unwrap());
        assert_eq!(format!("{shared:?}"), format!("{:?}", *shared));
        let back: Shared<BTreeMap<String, String>> = serde_json::from_str(&json).unwrap();
        assert!(matches!(back, Shared::Owned(_)));
        assert_eq!(back, shared);
    }
}
