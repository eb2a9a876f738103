//! Object metadata shared by every resource kind.
//!
//! Mirrors Kubernetes `ObjectMeta`: name/namespace identity, a cluster-unique
//! [`Uid`], the optimistic-concurrency `resource_version`, labels,
//! annotations, owner references (for garbage collection) and finalizers /
//! `deletion_timestamp` (for graceful deletion).

use crate::labels::Labels;
use crate::shared::Shared;
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A unique object identifier, assigned by the apiserver at create time.
///
/// Real Kubernetes uses RFC 4122 UUIDs; this simulation uses a
/// process-unique 128-bit value rendered in the same grouped-hex shape so
/// that UID-derived names (like the syncer's namespace prefix hash) behave
/// identically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Uid(String);

static UID_COUNTER: AtomicU64 = AtomicU64::new(1);

impl Uid {
    /// Generates a fresh process-unique UID.
    pub fn generate() -> Uid {
        use std::fmt::Write;
        let counter = UID_COUNTER.fetch_add(1, Ordering::Relaxed);
        let salt: u64 = rand::random();
        // Sized up front: `format!` would grow the string four times.
        let mut uid = String::with_capacity(36);
        write!(
            uid,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (salt >> 32) as u32,
            (salt >> 16) as u16,
            salt as u16,
            (counter >> 48) as u16,
            counter & 0xffff_ffff_ffff
        )
        .expect("writing to a String cannot fail");
        Uid(uid)
    }

    /// Wraps an explicit UID string (useful in tests).
    pub fn from_string(s: impl Into<String>) -> Uid {
        Uid(s.into())
    }

    /// Returns the string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns `true` if no UID has been assigned yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Reference from a dependent object to its owner, driving cascading
/// deletion in the garbage collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnerReference {
    /// Owner's kind (e.g. `ReplicaSet`).
    pub kind: String,
    /// Owner's name (same namespace as the dependent).
    pub name: String,
    /// Owner's UID; a name match with a different UID is *not* an owner.
    pub uid: Uid,
    /// If `true`, the owner cannot be deleted until this dependent is gone
    /// (foreground deletion).
    pub block_owner_deletion: bool,
    /// If `true`, this owner is the managing controller.
    pub controller: bool,
}

impl OwnerReference {
    /// Creates a controller owner reference.
    pub fn controller_of(kind: impl Into<String>, name: impl Into<String>, uid: Uid) -> Self {
        OwnerReference {
            kind: kind.into(),
            name: name.into(),
            uid,
            block_owner_deletion: true,
            controller: true,
        }
    }
}

/// Standard object metadata.
///
/// # Examples
///
/// ```
/// use vc_api::meta::ObjectMeta;
///
/// let meta = ObjectMeta::namespaced("default", "web-0");
/// assert_eq!(meta.full_name(), "default/web-0");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Object name, unique within (kind, namespace).
    pub name: String,
    /// Namespace; empty for cluster-scoped objects.
    pub namespace: String,
    /// Cluster-unique identity, assigned at create time.
    pub uid: Uid,
    /// Optimistic-concurrency token; the store revision at last write.
    /// Zero means "unset" (object not yet persisted).
    pub resource_version: u64,
    /// Monotonic spec generation, bumped by the apiserver on spec changes.
    pub generation: u64,
    /// Creation time, set by the apiserver.
    pub creation_timestamp: Timestamp,
    /// Set when a graceful delete is requested; the object is removed once
    /// `finalizers` drains.
    pub deletion_timestamp: Option<Timestamp>,
    /// Labels for selection.
    pub labels: Labels,
    /// Unstructured annotations, shared with the stored object until
    /// written.
    pub annotations: Shared<BTreeMap<String, String>>,
    /// Owners for cascading deletion.
    pub owner_references: Vec<OwnerReference>,
    /// Tokens that block physical deletion until removed.
    pub finalizers: Vec<String>,
    /// This state's encodings, filled by the wire tier; not part of the
    /// object's value (see [`Encodings`]).
    #[serde(skip)]
    pub encodings: Encodings,
}

/// A stored object's encodings, each computed once and then shared by
/// every reader of the same `Arc<Object>`.
///
/// Two slots, each filled at most once; which codec owns which slot is the
/// wire tier's choice. The slots are derived from the rest of the object,
/// so they take no part in its value: a clone starts empty, any two
/// compare equal, `Debug` prints only their lengths, and `#[serde(skip)]`
/// keeps them out of every encoding. The store empties them in
/// [`Object::freeze`], where a state gets its revision, so a slot never
/// outlives the state it encodes.
///
/// [`Object::freeze`]: crate::object::Object::freeze
#[derive(Default)]
pub struct Encodings([OnceLock<Arc<[u8]>>; 2]);

impl Encodings {
    /// The bytes in `slot`, if it has been filled.
    pub fn get(&self, slot: usize) -> Option<&Arc<[u8]>> {
        self.0[slot].get()
    }

    /// The bytes in `slot`, filled by `encode` first if it is empty. A
    /// racing caller waits for that one encode and shares its bytes.
    pub fn get_or_fill(&self, slot: usize, encode: impl FnOnce() -> Arc<[u8]>) -> &Arc<[u8]> {
        self.0[slot].get_or_init(encode)
    }

    /// Empties both slots.
    pub fn clear(&mut self) {
        *self = Encodings::default();
    }
}

impl Clone for Encodings {
    fn clone(&self) -> Self {
        Encodings::default()
    }
}

impl PartialEq for Encodings {
    fn eq(&self, _: &Encodings) -> bool {
        true
    }
}

impl Eq for Encodings {}

impl fmt::Debug for Encodings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter().map(|slot| slot.get().map(|b| b.len()))).finish()
    }
}

impl ObjectMeta {
    /// Creates metadata for a namespaced object.
    pub fn namespaced(namespace: impl Into<String>, name: impl Into<String>) -> Self {
        ObjectMeta { namespace: namespace.into(), name: name.into(), ..Default::default() }
    }

    /// Creates metadata for a cluster-scoped object.
    pub fn cluster_scoped(name: impl Into<String>) -> Self {
        ObjectMeta { name: name.into(), ..Default::default() }
    }

    /// Returns `true` if `other` agrees on everything a user controls,
    /// ignoring the server-managed fields [`Object::desired_state`]
    /// clears (`uid`, `resource_version`, `generation`,
    /// `creation_timestamp`). Compares in place; the destructuring makes a
    /// new field a compile error here instead of a silently ignored one.
    ///
    /// [`Object::desired_state`]: crate::object::Object::desired_state
    pub fn same_desired_state(&self, other: &ObjectMeta) -> bool {
        let ObjectMeta {
            name,
            namespace,
            uid: _,
            resource_version: _,
            generation: _,
            creation_timestamp: _,
            deletion_timestamp,
            labels,
            annotations,
            owner_references,
            finalizers,
            encodings: _,
        } = self;
        *name == other.name
            && *namespace == other.namespace
            && *deletion_timestamp == other.deletion_timestamp
            && *labels == other.labels
            && *annotations == other.annotations
            && *owner_references == other.owner_references
            && *finalizers == other.finalizers
    }

    /// Returns `namespace/name`, or just `name` for cluster-scoped objects.
    pub fn full_name(&self) -> String {
        if self.namespace.is_empty() {
            return self.name.clone();
        }
        // Every `Object::key()` lands here: one allocation at exact size.
        let mut full = String::with_capacity(self.namespace.len() + 1 + self.name.len());
        full.push_str(&self.namespace);
        full.push('/');
        full.push_str(&self.name);
        full
    }

    /// [`ObjectMeta::full_name`] built on the stack: a key to look
    /// something up by, at no allocation.
    pub fn full_name_buf(&self) -> KeyBuf {
        if self.namespace.is_empty() {
            return KeyBuf::join(&[&self.name]);
        }
        KeyBuf::join(&[&self.namespace, "/", &self.name])
    }

    /// [`ObjectMeta::full_name`] as a shared key: one allocation, and every
    /// later holder clones the `Arc` instead of the string.
    pub fn shared_key(&self) -> Arc<str> {
        self.full_name_buf().as_str().into()
    }

    /// Returns `true` if a graceful deletion is in progress.
    pub fn is_terminating(&self) -> bool {
        self.deletion_timestamp.is_some()
    }

    /// Returns the controller owner reference, if any.
    pub fn controller_owner(&self) -> Option<&OwnerReference> {
        self.owner_references.iter().find(|o| o.controller)
    }

    /// Sets a label (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// Sets an annotation (builder style).
    pub fn with_annotation(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.annotations.insert(key.into(), value.into());
        self
    }

    /// Adds an owner reference (builder style).
    pub fn with_owner(mut self, owner: OwnerReference) -> Self {
        self.owner_references.push(owner);
        self
    }

    /// Adds a finalizer if not already present.
    pub fn add_finalizer(&mut self, finalizer: impl Into<String>) {
        let f = finalizer.into();
        if !self.finalizers.contains(&f) {
            self.finalizers.push(f);
        }
    }

    /// Removes a finalizer; returns `true` if it was present.
    pub fn remove_finalizer(&mut self, finalizer: &str) -> bool {
        let before = self.finalizers.len();
        self.finalizers.retain(|f| f != finalizer);
        self.finalizers.len() != before
    }
}

/// Validates an object name against the DNS-1123 subdomain rules Kubernetes
/// enforces: lowercase alphanumerics, `-` and `.`, must start and end with an
/// alphanumeric, at most 253 characters.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("name must not be empty".to_string());
    }
    if name.len() > 253 {
        return Err(format!("name must be at most 253 characters, got {}", name.len()));
    }
    let valid_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '.';
    if let Some(bad) = name.chars().find(|&c| !valid_char(c)) {
        return Err(format!("name contains invalid character {bad:?}"));
    }
    let first = name.chars().next().unwrap();
    let last = name.chars().last().unwrap();
    if !first.is_ascii_alphanumeric() || !last.is_ascii_alphanumeric() {
        return Err("name must start and end with an alphanumeric character".to_string());
    }
    Ok(())
}

/// Longest key a [`KeyBuf`] holds on the stack. Names are at most 253
/// bytes and namespaces 63, so every `namespace/name` fits.
const STACK_KEY: usize = 320;

/// A key joined from parts, held on the stack when it fits (on the heap
/// only beyond 320 bytes, more than any `namespace/name`). A key made to
/// look something up, not to keep, costs no allocation this way.
/// Dereferences to `str`.
pub struct KeyBuf {
    bytes: [u8; STACK_KEY],
    len: usize,
    spilled: Option<String>,
}

impl KeyBuf {
    /// `parts`, concatenated.
    pub fn join(parts: &[&str]) -> KeyBuf {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        let mut key = KeyBuf { bytes: [0; STACK_KEY], len, spilled: None };
        if len > STACK_KEY {
            key.spilled = Some(parts.concat());
            return key;
        }
        let mut at = 0;
        for part in parts {
            key.bytes[at..at + part.len()].copy_from_slice(part.as_bytes());
            at += part.len();
        }
        key
    }

    /// The key.
    pub fn as_str(&self) -> &str {
        match &self.spilled {
            Some(key) => key,
            None => std::str::from_utf8(&self.bytes[..self.len]).expect("joined from &strs"),
        }
    }
}

impl std::ops::Deref for KeyBuf {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uids_are_unique() {
        let a = Uid::generate();
        let b = Uid::generate();
        assert_ne!(a, b);
        assert!(!a.is_empty());
        assert_eq!(a.as_str().len(), 36, "uuid-shaped: {a}");
    }

    #[test]
    fn full_name_forms() {
        assert_eq!(ObjectMeta::namespaced("ns1", "pod-a").full_name(), "ns1/pod-a");
        assert_eq!(ObjectMeta::cluster_scoped("node-1").full_name(), "node-1");
        let long = "x".repeat(STACK_KEY); // spills to the heap
        for meta in [
            ObjectMeta::namespaced("ns1", "pod-a"),
            ObjectMeta::cluster_scoped("n"),
            ObjectMeta::namespaced("ns1", &long),
        ] {
            assert_eq!(meta.full_name_buf().as_str(), meta.full_name());
            assert_eq!(*meta.shared_key(), meta.full_name());
        }
    }

    #[test]
    fn a_clone_has_empty_encodings_and_equals_the_original() {
        let meta = ObjectMeta::namespaced("ns", "x");
        let filled = meta.encodings.get_or_fill(1, || Arc::from(&b"bytes"[..]));
        assert_eq!(&**filled, b"bytes");
        let copy = meta.clone();
        assert_eq!(copy, meta);
        assert!(copy.encodings.get(0).is_none() && copy.encodings.get(1).is_none());
        assert_eq!(meta.encodings.get(1).map(|b| b.len()), Some(5), "the original keeps its own");
        assert_eq!(format!("{:?}", meta.encodings), "[None, Some(5)]");
    }

    #[test]
    fn finalizer_add_remove_idempotent() {
        let mut meta = ObjectMeta::namespaced("ns", "x");
        meta.add_finalizer("vc/protect");
        meta.add_finalizer("vc/protect");
        assert_eq!(meta.finalizers.len(), 1);
        assert!(meta.remove_finalizer("vc/protect"));
        assert!(!meta.remove_finalizer("vc/protect"));
        assert!(meta.finalizers.is_empty());
    }

    #[test]
    fn controller_owner_lookup() {
        let uid = Uid::generate();
        let meta = ObjectMeta::namespaced("ns", "pod")
            .with_owner(OwnerReference {
                kind: "Service".into(),
                name: "svc".into(),
                uid: Uid::generate(),
                block_owner_deletion: false,
                controller: false,
            })
            .with_owner(OwnerReference::controller_of("ReplicaSet", "rs", uid.clone()));
        let owner = meta.controller_owner().unwrap();
        assert_eq!(owner.kind, "ReplicaSet");
        assert_eq!(owner.uid, uid);
    }

    #[test]
    fn terminating_flag() {
        let mut meta = ObjectMeta::namespaced("ns", "x");
        assert!(!meta.is_terminating());
        meta.deletion_timestamp = Some(Timestamp::from_millis(5));
        assert!(meta.is_terminating());
    }

    #[test]
    fn name_validation_accepts_dns1123() {
        for ok in ["a", "web-0", "my.app-v2", "x1", "0a"] {
            assert!(validate_name(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        for bad in ["", "-x", "x-", "UPPER", "under_score", "spa ce", "dot.", &"a".repeat(254)] {
            assert!(validate_name(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn builder_helpers() {
        let meta = ObjectMeta::namespaced("ns", "x")
            .with_label("app", "web")
            .with_annotation("note", "hello");
        assert_eq!(meta.labels["app"], "web");
        assert_eq!(meta.annotations["note"], "hello");
    }

    proptest! {
        #[test]
        fn prop_validated_names_roundtrip_in_full_name(
            name in "[a-z0-9]([a-z0-9-]{0,20}[a-z0-9])?"
        ) {
            prop_assert!(validate_name(&name).is_ok());
            let meta = ObjectMeta::namespaced("ns", name.clone());
            prop_assert_eq!(meta.full_name(), format!("ns/{}", name));
        }

        #[test]
        fn prop_generated_uids_unique(_i in 0..50u8) {
            prop_assert_ne!(Uid::generate(), Uid::generate());
        }
    }
}
