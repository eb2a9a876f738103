//! Reflector + shared informer: the list/watch cache machinery of
//! client-go.
//!
//! A [`SharedInformer`] lists a resource kind, fills a read-only
//! [`Cache`], then applies watch events, invoking registered handlers on
//! every change. It owns no thread: the [reflector pool](crate::reflector)
//! runs it when its watch has something to deliver and not otherwise. On
//! watch closure / expiry it re-lists — the "informer cache re-fill" whose
//! cost at scale motivates the paper's centralized syncer (§III-C:
//! per-tenant syncers re-listing after a super-cluster apiserver restart
//! would flood it).
//!
//! State comparisons in the syncer are made against these caches "to avoid
//! intensive direct apiserver queries, assuming the client-go reflectors
//! work reliably" (§III-C).

use crate::client::Client;
use crate::reflector::{Pool, Progress, Registration, Task};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};
use std::task::Waker;
use std::time::{Duration, Instant};
use vc_api::labels::Selector;
use vc_api::metrics::{Counter, Gauge};
use vc_api::object::{Object, ResourceKind};
use vc_api::time::{Clock, RealClock, Timestamp};
use vc_store::{EventType, RecvOutcome, WatchStream};

/// A change notification delivered to informer handlers.
///
/// Events carry shared [`Arc<Object>`]s — for watch-driven events this is
/// the *store's* `Arc`, passed through the apiserver and the watch stream
/// without a single copy. Handlers that need an owned object clone it
/// explicitly (or `try_into()` a typed value); everything else reads
/// through the shared pointer.
///
/// Each event also carries the object's key, the very `Arc<str>` the
/// [`Cache`] holds it under: made once, when the key first entered the
/// cache, and shared from there (a handler keeps it by cloning the `Arc`).
#[derive(Debug, Clone)]
pub enum InformerEvent {
    /// Object appeared (initial list or watch add).
    Added {
        /// The object's cache key.
        key: Arc<str>,
        /// The object.
        object: Arc<Object>,
    },
    /// Object changed.
    Updated {
        /// The object's cache key.
        key: Arc<str>,
        /// Previous cached state.
        old: Arc<Object>,
        /// New state.
        new: Arc<Object>,
    },
    /// Object disappeared (carries the last known state).
    Deleted {
        /// The object's cache key.
        key: Arc<str>,
        /// The last known state.
        object: Arc<Object>,
    },
}

impl InformerEvent {
    /// The object the event is about (new state where applicable).
    pub fn object(&self) -> &Arc<Object> {
        match self {
            InformerEvent::Added { object, .. } | InformerEvent::Deleted { object, .. } => object,
            InformerEvent::Updated { new, .. } => new,
        }
    }

    /// The object's key (`namespace/name`, or `name` when cluster-scoped).
    pub fn key(&self) -> &Arc<str> {
        match self {
            InformerEvent::Added { key, .. }
            | InformerEvent::Updated { key, .. }
            | InformerEvent::Deleted { key, .. } => key,
        }
    }
}

/// Handler invoked synchronously by the informer: for the initial list on
/// the thread that called [`SharedInformer::start`] (for the replay of a
/// handler added later, on the thread that called
/// [`SharedInformer::add_handler`]), afterwards on a reflector-pool thread,
/// one turn at a time.
pub type EventHandler = Box<dyn Fn(&InformerEvent) + Send + Sync>;

/// Thread-safe read-only object cache, indexed by key and namespace.
///
/// The cache stores [`Arc<Object>`]s and every read (`get`, the `list*`
/// family) hands out shared pointers — aliases of the cached objects, not
/// copies. Cached objects are **immutable**: the informer never mutates
/// through a stored `Arc`; updates replace the map entry with a new `Arc`,
/// so pointers handed out earlier keep observing the state they were read
/// at. Callers may hold them as long as they like and must clone (via
/// `(*obj).clone()` or a typed `try_into()`) before mutating.
///
/// Each entry memoizes its estimated serialized size so the `bytes` gauge
/// (Fig 10 memory accounting) costs one serialization per insert rather
/// than re-serializing the displaced object too.
#[derive(Debug, Default)]
pub struct Cache {
    /// Keyed by `Arc<str>`: an entry's key is made once, when it first
    /// enters, and every later event for it shares that key.
    objects: RwLock<HashMap<Arc<str>, CacheEntry>>,
    /// Estimated serialized bytes of the cached objects (Fig 10 memory
    /// accounting).
    pub bytes: Gauge,
}

#[derive(Debug)]
struct CacheEntry {
    object: Arc<Object>,
    size: usize,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Cache::default()
    }

    /// Fetches a cached object by `namespace/name` key (a shared alias,
    /// not a copy).
    pub fn get(&self, key: &str) -> Option<Arc<Object>> {
        self.objects.read().get(key).map(|e| Arc::clone(&e.object))
    }

    /// Snapshot of all cached objects (shared aliases).
    pub fn list(&self) -> Vec<Arc<Object>> {
        self.objects.read().values().map(|e| Arc::clone(&e.object)).collect()
    }

    /// Snapshot of the cached objects in `namespace` (shared aliases).
    pub fn list_namespace(&self, namespace: &str) -> Vec<Arc<Object>> {
        self.objects
            .read()
            .values()
            .filter(|e| e.object.meta().namespace == namespace)
            .map(|e| Arc::clone(&e.object))
            .collect()
    }

    /// Snapshot of cached objects whose labels match `selector`, optionally
    /// restricted to a namespace (shared aliases).
    pub fn list_selected(&self, namespace: Option<&str>, selector: &Selector) -> Vec<Arc<Object>> {
        self.objects
            .read()
            .values()
            .filter(|e| namespace.is_none_or(|ns| e.object.meta().namespace == ns))
            .filter(|e| selector.matches(&e.object.meta().labels))
            .map(|e| Arc::clone(&e.object))
            .collect()
    }

    /// The cache's own shared key for `key`, if it holds the object: the
    /// `Arc<str>` every event about the object carried, found without
    /// allocating.
    pub fn shared_key(&self, key: &str) -> Option<Arc<str>> {
        self.objects.read().get_key_value(key).map(|(key, _)| Arc::clone(key))
    }

    /// All cached keys (shared, not copied).
    pub fn keys(&self) -> Vec<Arc<str>> {
        self.objects.read().keys().cloned().collect()
    }

    /// Every cached `(key, object)` pair (shared aliases).
    fn entries(&self) -> Vec<(Arc<str>, Arc<Object>)> {
        self.objects.read().iter().map(|(k, e)| (Arc::clone(k), Arc::clone(&e.object))).collect()
    }

    /// All cached keys in sorted order (the incremental scanner's cold
    /// sweep pages through these).
    pub fn sorted_keys(&self) -> Vec<Arc<str>> {
        let mut keys = self.keys();
        keys.sort_unstable();
        keys
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an owned object, returning the previous state. Normally only
    /// the owning informer writes the cache; exposed for tests and for
    /// components that maintain standalone caches.
    pub fn insert(&self, obj: Object) -> Option<Arc<Object>> {
        self.insert_arc(Arc::new(obj))
    }

    /// Inserts an already-shared object without copying it — the watch
    /// dispatch path, where the `Arc` originates in the store.
    pub fn insert_arc(&self, obj: Arc<Object>) -> Option<Arc<Object>> {
        self.put(obj).1
    }

    /// [`Cache::insert_arc`] that also returns the key the object is
    /// cached under: the entry's own key when the object replaces one (no
    /// allocation), a key made here when it is new.
    fn put(&self, obj: Arc<Object>) -> (Arc<str>, Option<Arc<Object>>) {
        let size = obj.estimated_size();
        let mut objects = self.objects.write();
        let key = match objects.get_key_value(&*obj.meta().full_name_buf()) {
            Some((key, _)) => Arc::clone(key),
            None => obj.meta().shared_key(),
        };
        let old = objects.insert(Arc::clone(&key), CacheEntry { object: obj, size });
        drop(objects);
        let old_size = old.as_ref().map_or(0, |e| e.size as i64);
        self.bytes.add(size as i64 - old_size);
        (key, old.map(|e| e.object))
    }

    /// Removes an object by key, returning it. See [`Cache::insert`].
    pub fn remove(&self, key: &str) -> Option<Arc<Object>> {
        self.remove_entry(key).map(|(_, object)| object)
    }

    /// [`Cache::remove`] that also hands back the entry's key.
    fn remove_entry(&self, key: &str) -> Option<(Arc<str>, Arc<Object>)> {
        let (key, old) = self.objects.write().remove_entry(key)?;
        self.bytes.add(-(old.size as i64));
        Some((key, old.object))
    }
}

/// Most watch events one turn applies before the informer goes to the back
/// of the pool's ready queue: what a flooding informer can delay its
/// neighbours by.
const BATCH: usize = 64;

/// How long a failed list waits before the next attempt.
const RELIST_BACKOFF: Duration = Duration::from_millis(100);

/// Configuration for a [`SharedInformer`].
#[derive(Debug, Clone)]
pub struct InformerConfig {
    /// Resource kind to watch, in all namespaces.
    pub kind: ResourceKind,
}

impl InformerConfig {
    /// Creates a config watching all namespaces of `kind`.
    pub fn new(kind: ResourceKind) -> Self {
        InformerConfig { kind }
    }
}

struct SyncFlag {
    synced: Mutex<bool>,
    cond: Condvar,
}

/// One list + watch attempt: made by [`SharedInformer::start`] on its
/// caller's thread or by a re-list on the pool's helper thread, applied by
/// `install`.
struct Listed {
    /// `None`: the LIST failed.
    items: Option<Vec<Arc<Object>>>,
    /// `None`: the LIST or the WATCH failed — back off and list again.
    stream: Option<WatchStream>,
}

/// Where the reflector is in its list → watch → closed → list cycle.
/// `start` touches it before the informer's first turn, turns after. Its
/// lock is the turn lock: whoever holds it is the only one changing the
/// cache, which is what lets `add_handler` replay the cache.
#[derive(Default)]
struct Reflector {
    /// The watch being drained; `None` while a re-list is in flight or
    /// backing off.
    stream: Option<WatchStream>,
    /// When a failed list is due to be tried again.
    retry_at: Option<Timestamp>,
}

/// How a turn's drain of the watch ended.
enum Drained {
    /// Nothing left; the next event wakes the informer.
    Empty,
    /// Stopped at [`BATCH`] with the stream possibly non-empty.
    Full,
    /// The watcher was evicted or the store went away: re-list.
    Closed,
}

/// A shared informer: a reflector run by the process-wide
/// [reflector pool](crate::reflector) + cache + event handlers.
///
/// One informer's handlers see its events in revision order, never
/// concurrently, and never after [`SharedInformer::stop`] returned. The
/// initial list is applied on the thread that calls
/// [`SharedInformer::start`]; everything after it in turns on the pool's
/// threads, one turn at a time. Handlers must not block: they share those
/// threads with every other informer. A handler added after `start` gets
/// the cache replayed to it first (see [`SharedInformer::add_handler`]), so
/// one started informer can serve every consumer of its kind.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vc_apiserver::ApiServer;
/// use vc_client::{Client, informer::{InformerConfig, SharedInformer}};
/// use vc_api::object::ResourceKind;
/// use vc_api::pod::Pod;
///
/// let server = ApiServer::new_default("demo");
/// let client = Client::new(Arc::clone(&server), "informer");
/// let informer = SharedInformer::new(client, InformerConfig::new(ResourceKind::Pod));
/// let informer = SharedInformer::start(informer);
/// informer.wait_for_sync(std::time::Duration::from_secs(5));
///
/// Client::new(server, "user").create(Pod::new("default", "p").into())?;
/// // The cache converges shortly after.
/// # std::thread::sleep(std::time::Duration::from_millis(200));
/// assert_eq!(informer.cache().len(), 1);
/// informer.stop();
/// # Ok::<(), vc_api::ApiError>(())
/// ```
pub struct SharedInformer {
    client: Client,
    config: InformerConfig,
    cache: Arc<Cache>,
    handlers: RwLock<Vec<EventHandler>>,
    sync_flag: SyncFlag,
    /// Back-off deadlines run on real time, whatever clock the
    /// apiserver keeps (DESIGN.md §12.2).
    clock: RealClock,
    /// The informer's place in the pool, set once by `start`.
    registration: OnceLock<Arc<Registration>>,
    reflector: Mutex<Reflector>,
    /// A finished re-list, left by the helper thread for the next turn.
    relisted: Mutex<Option<Listed>>,
    /// Completed list+watch (re)establishments.
    pub relists: Counter,
    /// Events applied to the cache.
    pub events_applied: Counter,
}

impl std::fmt::Debug for SharedInformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedInformer")
            .field("kind", &self.config.kind)
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl SharedInformer {
    /// Creates an informer (not yet running).
    pub fn new(client: Client, config: InformerConfig) -> Arc<Self> {
        Arc::new(SharedInformer {
            client,
            config,
            cache: Arc::new(Cache::new()),
            handlers: RwLock::new(Vec::new()),
            sync_flag: SyncFlag { synced: Mutex::new(false), cond: Condvar::new() },
            clock: RealClock::new(),
            registration: OnceLock::new(),
            reflector: Mutex::new(Reflector::default()),
            relisted: Mutex::new(None),
            relists: Counter::new(),
            events_applied: Counter::new(),
        })
    }

    /// Registers a handler. Added before [`SharedInformer::start`], it sees
    /// the initial list. Added later, it is first called, on this thread,
    /// with an `Added` event for each cached object, under the lock a turn
    /// holds: no event is applied while that replay runs, so the handler
    /// sees every object exactly once and in order with the events after
    /// it. Never call this from inside a handler (the turn running that
    /// handler holds the lock), and never stop the informer from a handler
    /// during its replay.
    pub fn add_handler(&self, handler: EventHandler) {
        let _turn = self.reflector.lock();
        for (key, object) in self.cache.entries() {
            handler(&InformerEvent::Added { key, object });
        }
        self.handlers.write().push(handler);
    }

    /// Lists, fills the cache and calls the handlers for the initial state
    /// on this thread, then hands the informer to the process-wide
    /// reflector pool, which applies the watch from there on. If the list
    /// fails the pool retries it every 100 ms;
    /// [`SharedInformer::wait_for_sync`] tells when one got through.
    pub fn start(informer: Arc<Self>) -> Arc<Self> {
        Self::start_on(informer, Pool::global())
    }

    /// [`SharedInformer::start`] on a pool of the caller's choosing.
    pub fn start_on(informer: Arc<Self>, pool: &Pool) -> Arc<Self> {
        let mut first = false;
        let registration = informer.registration.get_or_init(|| {
            first = true;
            let task: Weak<SharedInformer> = Arc::downgrade(&informer);
            pool.register(task)
        });
        if first {
            let listed = informer.list_and_watch();
            informer.install(&mut informer.reflector.lock(), listed, registration);
        }
        informer
    }

    /// The read-only cache.
    pub fn cache(&self) -> &Arc<Cache> {
        &self.cache
    }

    /// The kind this informer watches.
    pub fn kind(&self) -> ResourceKind {
        self.config.kind
    }

    /// Blocks until the initial list has been applied (or `timeout`).
    /// Returns `true` if synced.
    pub fn wait_for_sync(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut synced = self.sync_flag.synced.lock();
        while !*synced {
            if self.sync_flag.cond.wait_until(&mut synced, deadline).timed_out() {
                return *synced;
            }
        }
        true
    }

    /// Returns `true` once the initial list completed.
    pub fn has_synced(&self) -> bool {
        *self.sync_flag.synced.lock()
    }

    /// Takes the informer out of the pool and releases its watch. No
    /// handler runs after this returns; a batch in flight on the pool
    /// thread finishes first. Idempotent, and callable from any thread —
    /// also from one of this informer's own handlers, which then is the
    /// last one called. Stopping an informer that never started does
    /// nothing.
    pub fn stop(&self) {
        let Some(registration) = self.registration.get() else { return };
        registration.stop();
        // Inside one of its own handlers the turn holds this lock and
        // releases the watch itself when the handler returns.
        if let Some(mut reflector) = self.reflector.try_lock() {
            reflector.stream = None;
        }
        *self.relisted.lock() = None;
    }

    fn stopped(&self) -> bool {
        self.registration.get().is_some_and(|registration| registration.is_stopped())
    }

    fn dispatch(&self, event: &InformerEvent) {
        for handler in self.handlers.read().iter() {
            if self.stopped() {
                return;
            }
            handler(event);
        }
    }

    /// One LIST and, from its revision, one WATCH. Blocks for as long as
    /// the apiserver (its simulated latency, an injected delay) makes it:
    /// never call it from a turn.
    fn list_and_watch(&self) -> Listed {
        let Ok((items, revision)) = self.client.list(self.config.kind, None) else {
            return Listed { items: None, stream: None };
        };
        let stream = self.client.watch(self.config.kind, None, revision).ok();
        Listed { items: Some(items), stream }
    }

    /// Applies a list result and starts draining its watch, or arms the
    /// back-off timer when either half failed.
    fn install(&self, reflector: &mut Reflector, listed: Listed, registration: &Arc<Registration>) {
        if let Some(items) = listed.items {
            self.relists.inc();
            self.replace_cache(items);
            *self.sync_flag.synced.lock() = true;
            self.sync_flag.cond.notify_all();
        }
        if registration.is_stopped() {
            return; // by a handler of the list just applied
        }
        let Some(stream) = listed.stream else {
            let at = self.clock.now().add(RELIST_BACKOFF);
            reflector.retry_at = Some(at);
            return self.wake_at(at, registration);
        };
        stream.set_waker(Waker::from(Arc::clone(registration)));
        reflector.stream = Some(stream);
        // Events that reached the stream before its waker woke nobody.
        registration.wake();
    }

    fn wake_at(&self, at: Timestamp, registration: &Arc<Registration>) {
        self.clock.wake_at(at, Waker::from(Arc::clone(registration)));
    }

    /// Lists again on the pool's helper thread; the result comes back
    /// through `relisted` and a wake-up.
    fn relist(self: &Arc<Self>, registration: &Registration) {
        let informer = Arc::clone(self);
        registration.offload(move || {
            let listed = informer.list_and_watch();
            let mut relisted = informer.relisted.lock();
            if informer.stopped() {
                return;
            }
            *relisted = Some(listed);
            drop(relisted);
            if let Some(registration) = informer.registration.get() {
                registration.wake();
            }
        });
    }

    /// Applies up to [`BATCH`] buffered events from `stream`, each to the
    /// cache and then at once to the handlers: a handler's notification
    /// must follow its cache change before the next change lands, because
    /// consumers pair the two (the syncer records a super pod's deletion in
    /// the `Deleted` handler and its upward workers, reading a cache that
    /// no longer has the pod, look that record up).
    fn drain(&self, stream: &WatchStream) -> (u64, Drained) {
        for applied in 0..BATCH as u64 {
            if self.stopped() {
                return (applied, Drained::Empty);
            }
            match stream.try_next() {
                // The store's Arc rides through untouched: no copy
                // between the write path and the handlers.
                RecvOutcome::Event(event) => self.apply(event.event_type, event.object),
                RecvOutcome::Timeout => return (applied, Drained::Empty),
                RecvOutcome::Closed => return (applied, Drained::Closed),
            }
        }
        (BATCH as u64, Drained::Full)
    }

    fn replace_cache(&self, items: Vec<Arc<Object>>) {
        let fresh: HashMap<String, Arc<Object>> = items.into_iter().map(|o| (o.key(), o)).collect();
        // Deletions first.
        for key in self.cache.keys() {
            if !fresh.contains_key(&*key) {
                if let Some((key, object)) = self.cache.remove_entry(&key) {
                    self.events_applied.inc();
                    self.dispatch(&InformerEvent::Deleted { key, object });
                }
            }
        }
        for (_key, obj) in fresh {
            let (key, old) = self.cache.put(Arc::clone(&obj));
            self.events_applied.inc();
            match old {
                None => self.dispatch(&InformerEvent::Added { key, object: obj }),
                Some(old) if old.meta().resource_version != obj.meta().resource_version => {
                    self.dispatch(&InformerEvent::Updated { key, old, new: obj })
                }
                Some(_) => {} // unchanged across relist: no event
            }
        }
    }

    /// Applies one watch event to the cache and the handlers. The event's
    /// key is found or made here, once: handlers read it off the event.
    fn apply(&self, event_type: EventType, obj: Arc<Object>) {
        self.events_applied.inc();
        match event_type {
            EventType::Added | EventType::Modified => {
                let (key, old) = self.cache.put(Arc::clone(&obj));
                match old {
                    None => self.dispatch(&InformerEvent::Added { key, object: obj }),
                    Some(old) => self.dispatch(&InformerEvent::Updated { key, old, new: obj }),
                }
            }
            EventType::Deleted => {
                let removed = self.cache.remove_entry(&obj.meta().full_name_buf());
                let event = match removed {
                    Some((key, object)) => InformerEvent::Deleted { key, object },
                    None => InformerEvent::Deleted { key: obj.meta().shared_key(), object: obj },
                };
                self.dispatch(&event);
            }
        }
    }
}

impl Task for SharedInformer {
    fn turn(self: Arc<Self>) -> Progress {
        let registration = self.registration.get().expect("start registers before any turn");
        let mut reflector = self.reflector.lock();
        if let Some(listed) = self.relisted.lock().take() {
            self.install(&mut reflector, listed, registration);
        }
        let mut progress = Progress::default();
        if let Some(stream) = reflector.stream.take() {
            let (events, drained) = self.drain(&stream);
            progress.events = events;
            match drained {
                Drained::Empty => reflector.stream = Some(stream),
                Drained::Full => {
                    progress.more = true;
                    reflector.stream = Some(stream);
                }
                Drained::Closed => self.relist(registration),
            }
        } else if reflector.retry_at.is_some_and(|at| self.clock.now() >= at) {
            reflector.retry_at = None;
            self.relist(registration);
        }
        if registration.is_stopped() {
            // Stopped by one of its own handlers, which could not release
            // the watch itself (see `stop`).
            reflector.stream = None;
        }
        progress
    }
}

impl Drop for SharedInformer {
    fn drop(&mut self) {
        if let Some(registration) = self.registration.get() {
            registration.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::pod::Pod;
    use vc_apiserver::ApiServer;

    fn setup(kind: ResourceKind) -> (Arc<ApiServer>, Arc<SharedInformer>) {
        let server = ApiServer::new_default("t");
        let client = Client::new(Arc::clone(&server), "informer");
        let informer = SharedInformer::new(client, InformerConfig::new(kind));
        (server, informer)
    }

    fn eventually(deadline_ms: u64, mut check: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(deadline_ms);
        while std::time::Instant::now() < deadline {
            if check() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        check()
    }

    #[test]
    fn initial_list_syncs_cache() {
        let (server, informer) = setup(ResourceKind::Pod);
        let user = Client::new(Arc::clone(&server), "u");
        user.create(Pod::new("default", "pre").into()).unwrap();
        let informer = SharedInformer::start(informer);
        assert!(informer.wait_for_sync(Duration::from_secs(5)));
        assert_eq!(informer.cache().len(), 1);
        assert!(informer.cache().get("default/pre").is_some());
        informer.stop();
    }

    #[test]
    fn watch_events_update_cache_and_handlers() {
        let (server, informer) = setup(ResourceKind::Pod);
        let events: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        informer.add_handler(Box::new(move |ev| {
            // The event's key is the object's.
            assert_eq!(**ev.key(), ev.object().key());
            let tag = match ev {
                InformerEvent::Added { key, .. } => format!("add:{key}"),
                InformerEvent::Updated { key, .. } => format!("upd:{key}"),
                InformerEvent::Deleted { key, .. } => format!("del:{key}"),
            };
            sink.lock().push(tag);
        }));
        let informer = SharedInformer::start(informer);
        informer.wait_for_sync(Duration::from_secs(5));

        let user = Client::new(Arc::clone(&server), "u");
        let created = user.create(Pod::new("default", "p").into()).unwrap();
        assert!(eventually(2000, || informer.cache().get("default/p").is_some()));

        let mut pod: Pod = created.try_into().unwrap();
        pod.spec.node_name = "n1".into();
        user.update(pod.into()).unwrap();
        assert!(eventually(2000, || informer.cache().get("default/p").is_some_and(|o| o
            .as_pod()
            .unwrap()
            .spec
            .is_bound())));

        user.delete(ResourceKind::Pod, "default", "p").unwrap();
        assert!(eventually(2000, || informer.cache().get("default/p").is_none()));

        let log = events.lock().clone();
        assert!(log.contains(&"add:default/p".to_string()), "{log:?}");
        assert!(log.contains(&"upd:default/p".to_string()), "{log:?}");
        assert!(log.contains(&"del:default/p".to_string()), "{log:?}");
        informer.stop();
    }

    #[test]
    fn watch_path_shares_the_store_arc_end_to_end() {
        // DESIGN.md §11.1: the object a handler's event carries, the cache
        // entry behind `get` and `list`, and the apiserver store's own
        // entry are one allocation; nothing on the read path copies it.
        let (server, informer) = setup(ResourceKind::Pod);
        let added: Arc<Mutex<Option<Arc<Object>>>> = Arc::default();
        let sink = Arc::clone(&added);
        informer.add_handler(Box::new(move |ev| {
            if let InformerEvent::Added { object: o, .. } = ev {
                *sink.lock() = Some(Arc::clone(o));
            }
        }));
        let informer = SharedInformer::start(informer);
        assert!(informer.wait_for_sync(Duration::from_secs(5)));
        let user = Client::new(Arc::clone(&server), "u");
        user.create(Pod::new("default", "p").into()).unwrap();
        assert!(eventually(2000, || added.lock().is_some()));

        let event = added.lock().clone().unwrap();
        let cached = informer.cache().get("default/p").unwrap();
        let listed = informer.cache().list();
        let stored = server.store().get(ResourceKind::Pod, "default/p").unwrap();
        assert!(Arc::ptr_eq(&event, &cached), "Cache::get copied the event's object");
        assert_eq!(listed.len(), 1);
        assert!(Arc::ptr_eq(&event, &listed[0]), "Cache::list copied the event's object");
        assert!(Arc::ptr_eq(&event, &stored), "the watch path copied the store's object");
        informer.stop();
    }

    #[test]
    fn cache_bytes_accounting() {
        let (server, informer) = setup(ResourceKind::Pod);
        let informer = SharedInformer::start(informer);
        informer.wait_for_sync(Duration::from_secs(5));
        let user = Client::new(server, "u");
        user.create(Pod::new("default", "p").into()).unwrap();
        assert!(eventually(2000, || informer.cache().bytes.get() > 0));
        user.delete(ResourceKind::Pod, "default", "p").unwrap();
        assert!(eventually(2000, || informer.cache().bytes.get() == 0));
        informer.stop();
    }

    #[test]
    fn lister_selector_filtering() {
        let cache = Cache::new();
        let mut pod = Pod::new("ns", "a");
        pod.meta.labels.insert("app".into(), "web".into());
        cache.insert(pod.into());
        cache.insert(Pod::new("ns", "b").into());
        let sel = Selector::from_pairs(&[("app", "web")]);
        assert_eq!(cache.list_selected(Some("ns"), &sel).len(), 1);
        assert_eq!(cache.list_selected(None, &Selector::everything()).len(), 2);
        assert_eq!(cache.list_namespace("ns").len(), 2);
    }

    fn zero_latency_server(watcher_buffer: Option<usize>) -> Arc<ApiServer> {
        let mut config = vc_apiserver::ApiServerConfig {
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            ..Default::default()
        };
        if let Some(buffer) = watcher_buffer {
            config.store.watcher_buffer = buffer;
        }
        ApiServer::new(config, vc_api::time::RealClock::shared())
    }

    fn informer_on(server: &Arc<ApiServer>, kind: ResourceKind) -> Arc<SharedInformer> {
        SharedInformer::new(
            Client::system(Arc::clone(server), "informer"),
            InformerConfig::new(kind),
        )
    }

    /// A handler that parks its pool thread on the first event it sees
    /// until the returned sender is used or dropped — the way to hold an
    /// informer still while a test builds up a backlog behind it.
    fn gate_first_event(informer: &SharedInformer) -> std::sync::mpsc::Sender<()> {
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(Some(gate));
        informer.add_handler(Box::new(move |_| {
            if let Some(gate) = gate.lock().take() {
                let _ = gate.recv();
            }
        }));
        open
    }

    #[test]
    fn informer_survives_watch_eviction_by_relisting() {
        // A watcher buffer of 4 and an informer held still while 100 pods
        // are created: the store must evict the watcher, and the informer
        // — which nothing polls — must notice, relist and converge.
        let server = zero_latency_server(Some(4));
        let pool = Pool::new(1);
        let informer = informer_on(&server, ResourceKind::Pod);
        let open = gate_first_event(&informer);
        let informer = SharedInformer::start_on(informer, &pool);
        assert!(informer.wait_for_sync(Duration::from_secs(5)));
        let user = Client::system(Arc::clone(&server), "u");
        for i in 0..100 {
            user.create(Pod::new("default", format!("p{i}")).into()).unwrap();
        }
        assert!(server.store().watchers_evicted.get() >= 1, "the burst overflowed the buffer");
        drop(open);
        assert!(eventually(5000, || informer.cache().len() == 100));
        assert!(informer.relists.get() >= 2, "expected at least one eviction-driven relist");
        informer.stop();
    }

    #[test]
    fn idle_informer_never_wakes_its_pool() {
        let server = zero_latency_server(None);
        let pool = Pool::new(2);
        let informer = SharedInformer::start_on(informer_on(&server, ResourceKind::Pod), &pool);
        assert!(informer.has_synced(), "a successful initial list syncs inside start");
        // Let the turn `start` queued (it drains what raced the waker) run.
        std::thread::sleep(Duration::from_millis(50));
        let before = pool.wakeups();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(pool.wakeups(), before, "no traffic: nothing may wake");
        // ...and the pool is asleep, not dead.
        Client::system(server, "u").create(Pod::new("default", "p").into()).unwrap();
        assert!(eventually(2000, || informer.cache().len() == 1));
        assert!(pool.wakeups() > before);
        informer.stop();
    }

    #[test]
    fn stop_from_own_handler_is_the_last_call_and_does_not_deadlock() {
        let server = zero_latency_server(None);
        let pool = Pool::new(1);
        let informer = informer_on(&server, ResourceKind::Pod);
        let calls = Arc::new(Counter::new());
        let (stopped_tx, stopped_rx) = std::sync::mpsc::channel();
        {
            let me = Arc::downgrade(&informer);
            let calls = Arc::clone(&calls);
            let stopped_tx = Mutex::new(stopped_tx);
            informer.add_handler(Box::new(move |_| {
                calls.inc();
                me.upgrade().expect("informer alive in its own handler").stop();
                let _ = stopped_tx.lock().send(());
            }));
        }
        let open = gate_first_event(&informer);
        let informer = SharedInformer::start_on(informer, &pool);
        let user = Client::system(server, "u");
        for i in 0..5 {
            user.create(Pod::new("default", format!("p{i}")).into()).unwrap();
        }
        // All five sit in one batch behind the gate; the first handler
        // call stops the informer, the other four must never happen.
        drop(open);
        stopped_rx.recv_timeout(Duration::from_secs(5)).expect("stop() returned in the handler");
        informer.stop();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| informer.stop());
            }
        });
        assert_eq!(calls.get(), 1);
        assert_eq!(pool.tasks(), 0);
    }

    #[test]
    fn dropping_the_last_handle_deregisters() {
        let server = zero_latency_server(None);
        let pool = Pool::new(1);
        let informer = SharedInformer::start_on(informer_on(&server, ResourceKind::Pod), &pool);
        assert_eq!(pool.tasks(), 1);
        assert_eq!(server.store().watcher_count(), 1);
        drop(informer);
        // Both counts can lag the drop: a pool turn still running holds an
        // `Arc` it upgraded from the pool's `Weak`, and then the last
        // reference goes with that turn, just after ours. Its drop
        // de-registers first and releases the watch after.
        eventually(5000, || pool.tasks() == 0 && server.store().watcher_count() == 0);
        assert_eq!(pool.tasks(), 0);
        assert_eq!(server.store().watcher_count(), 0, "the watch went with it");
    }

    #[test]
    fn failing_list_backs_off_on_the_helper_and_spares_its_neighbour() {
        use crate::faults::{FaultInjector, FaultRule};
        use vc_api::config::ConfigMap;
        use vc_api::time::{Clock, SimClock};
        use vc_apiserver::auth::Verb;

        // Pod LISTs fail while the injector's (virtual) clock stands at
        // zero and take 300 ms of real time afterwards.
        let script = SimClock::new();
        let faults = FaultInjector::with_clock(1, Arc::clone(&script) as Arc<dyn Clock>);
        let pod_lists =
            |rule: FaultRule| rule.for_verbs(&[Verb::List]).for_kinds(&[ResourceKind::Pod]);
        faults.add_rule(
            pod_lists(FaultRule::fail_all()).during(Duration::ZERO, Duration::from_millis(1)),
        );
        faults.add_rule(pod_lists(FaultRule::delay_all(Duration::from_millis(300))));
        faults.arm();
        let server = zero_latency_server(None);
        server.set_fault_hook(faults.clone());

        // Both informers share the pool's one thread.
        let pool = Pool::new(1);
        let pods = SharedInformer::start_on(informer_on(&server, ResourceKind::Pod), &pool);
        let maps = SharedInformer::start_on(informer_on(&server, ResourceKind::ConfigMap), &pool);
        assert!(!pods.has_synced() && maps.has_synced());
        assert!(
            eventually(5000, || faults.metrics.injected_failures.get() >= 3),
            "the failed list is retried on its back-off"
        );
        assert!(!pods.wait_for_sync(Duration::from_millis(1)), "no list got through yet");

        script.advance(Duration::from_millis(5));
        assert!(eventually(5000, || faults.metrics.injected_delays.get() >= 1));
        // A 300 ms LIST is now in flight for `pods`. Were it running on the
        // pool thread, `maps` would see nothing until it returned.
        let user = Client::system(Arc::clone(&server), "u");
        for i in 0..5 {
            let name = format!("m{i}");
            user.create(ConfigMap::new("default", name.as_str()).into()).unwrap();
            assert!(eventually(100, || maps.cache().get(&format!("default/{name}")).is_some()));
        }
        assert!(!pods.has_synced(), "the neighbour's events overtook the slow list");
        assert!(pods.wait_for_sync(Duration::from_secs(5)));
        assert_eq!(pods.relists.get(), 1);
        assert_eq!(pool.threads(), 2, "one pool thread and the helper the re-lists started");
        pods.stop();
        maps.stop();
    }

    #[test]
    fn flooded_informer_delays_a_neighbour_by_one_bounded_batch() {
        use vc_api::config::ConfigMap;
        const FLOOD: u64 = 10_000;
        let server = zero_latency_server(None);
        let pool = Pool::new(1);
        let pods = informer_on(&server, ResourceKind::Pod);
        let maps = informer_on(&server, ResourceKind::ConfigMap);
        let pods_seen = Arc::new(Counter::new());
        let pods_seen_before_map = Arc::new(Mutex::new(None));
        {
            let seen = Arc::clone(&pods_seen);
            pods.add_handler(Box::new(move |_| seen.inc()));
            let seen = Arc::clone(&pods_seen);
            let slot = Arc::clone(&pods_seen_before_map);
            maps.add_handler(Box::new(move |_| *slot.lock() = Some(seen.get())));
        }
        // Hold the pool thread in the flooded informer's first batch while
        // the backlog builds: 10 000 pod events, then the neighbour's one.
        let open = gate_first_event(&pods);
        let pods = SharedInformer::start_on(pods, &pool);
        let maps = SharedInformer::start_on(maps, &pool);
        let user = Client::system(Arc::clone(&server), "u");
        for i in 0..FLOOD {
            user.create(Pod::new("default", format!("p{i}")).into()).unwrap();
        }
        user.create(ConfigMap::new("default", "m").into()).unwrap();
        drop(open);
        assert!(eventually(10_000, || pods_seen.get() == FLOOD));
        // The batch in flight at the gate, then at most one more full turn
        // of the flood, stood between the neighbour and its event.
        let waited_for = pods_seen_before_map.lock().expect("neighbour saw its event");
        assert!(waited_for <= 2 * BATCH as u64, "neighbour waited out {waited_for} flood events");
        assert_eq!(pods.relists.get(), 1, "a default-sized buffer absorbs the flood");
        pods.stop();
        maps.stop();
    }

    /// What a handler saw, per key: how often it was added, and each event
    /// that came for a key it had not been handed as added.
    #[derive(Default)]
    struct Seen {
        added: HashMap<String, u32>,
        out_of_order: Vec<String>,
    }

    fn recording_handler(seen: &Arc<Mutex<Seen>>) -> EventHandler {
        let seen = Arc::clone(seen);
        Box::new(move |event| {
            let mut seen = seen.lock();
            let key = event.object().key();
            match event {
                InformerEvent::Added { .. } => *seen.added.entry(key).or_default() += 1,
                InformerEvent::Updated { .. } | InformerEvent::Deleted { .. } => {
                    if !seen.added.contains_key(&key) {
                        seen.out_of_order.push(key);
                    }
                }
            }
        })
    }

    #[test]
    fn a_handler_added_to_a_running_informer_sees_each_object_once_in_order() {
        use std::sync::mpsc::channel;
        const PODS: usize = 500;
        let server = zero_latency_server(None);
        let pool = Pool::new(1);
        let informer = SharedInformer::start_on(informer_on(&server, ResourceKind::Pod), &pool);
        // The writer creates and then updates each pod. It writes the
        // second half while the new handler's replay is under way.
        let (replaying, replay_started) = channel::<()>();
        let (written, all_written) = channel::<()>();
        let writer = {
            let user = Client::system(Arc::clone(&server), "u");
            std::thread::spawn(move || {
                for i in 0..PODS {
                    if i == PODS / 2 {
                        replay_started.recv().unwrap();
                    }
                    let created = user.create(Pod::new("default", format!("p{i}")).into()).unwrap();
                    let mut pod: Pod = created.try_into().unwrap();
                    pod.meta.labels.insert("touched".into(), "yes".into());
                    user.update(pod.into()).unwrap();
                }
                written.send(()).unwrap();
            })
        };
        assert!(eventually(5000, || informer.cache().len() >= PODS / 2));
        let seen = Arc::new(Mutex::new(Seen::default()));
        let record = recording_handler(&seen);
        // The first call is the replay's: it holds the replay open until
        // the writer is done, so every later write races it.
        let hold = Mutex::new(Some((replaying, all_written)));
        informer.add_handler(Box::new(move |event| {
            if let Some((replaying, all_written)) = hold.lock().take() {
                replaying.send(()).unwrap();
                all_written.recv_timeout(Duration::from_secs(10)).unwrap();
            }
            record(event);
        }));
        writer.join().unwrap();
        // Events arrive in revision order: once the last write is seen,
        // every earlier one has been handed over.
        Client::system(Arc::clone(&server), "u")
            .create(Pod::new("default", "last").into())
            .unwrap();
        assert!(eventually(5000, || seen.lock().added.contains_key("default/last")));

        let seen = seen.lock();
        assert!(seen.out_of_order.is_empty(), "events before their Added: {:?}", seen.out_of_order);
        assert_eq!(seen.added.len(), PODS + 1, "every pod is handed over as added");
        let twice: Vec<_> = seen.added.iter().filter(|(_, n)| **n != 1).collect();
        assert!(twice.is_empty(), "added more than once: {twice:?}");
        informer.stop();
    }

    #[test]
    fn a_handler_added_before_start_sees_the_initial_list_once_in_start() {
        let server = zero_latency_server(None);
        let user = Client::system(Arc::clone(&server), "u");
        for i in 0..3 {
            user.create(Pod::new("default", format!("pre{i}")).into()).unwrap();
        }
        let pool = Pool::new(1);
        let informer = informer_on(&server, ResourceKind::Pod);
        let seen = Arc::new(Mutex::new(Seen::default()));
        informer.add_handler(recording_handler(&seen));
        assert!(seen.lock().added.is_empty(), "nothing to replay before start");
        let informer = SharedInformer::start_on(informer, &pool);
        assert_eq!(seen.lock().added.len(), 3, "the initial list is handed over inside start");
        user.create(Pod::new("default", "post").into()).unwrap();
        assert!(eventually(2000, || seen.lock().added.contains_key("default/post")));
        let seen = seen.lock();
        assert!(seen.added.values().all(|n| *n == 1) && seen.out_of_order.is_empty());
        informer.stop();
    }

    #[test]
    fn a_held_turn_holds_up_no_other_informer() {
        use vc_api::config::ConfigMap;
        // Started in this order on two threads. Were informers dealt to
        // threads round-robin, `held` and `next` would share one, and
        // `next` would wait for `held`'s turn to end.
        let server = zero_latency_server(None);
        let pool = Pool::new(2);
        let held = informer_on(&server, ResourceKind::Pod);
        let open = gate_first_event(&held);
        let held = SharedInformer::start_on(held, &pool);
        let filler = SharedInformer::start_on(informer_on(&server, ResourceKind::Secret), &pool);
        let next = SharedInformer::start_on(informer_on(&server, ResourceKind::ConfigMap), &pool);
        let user = Client::system(Arc::clone(&server), "u");
        user.create(Pod::new("default", "p").into()).unwrap();
        // The pod is cached before the handler that holds the turn runs.
        assert!(eventually(2000, || held.cache().len() == 1));
        user.create(ConfigMap::new("default", "m").into()).unwrap();
        assert!(eventually(2000, || next.cache().len() == 1), "waited behind another's turn");
        drop(open);
        for informer in [held, filler, next] {
            informer.stop();
        }
    }
}
