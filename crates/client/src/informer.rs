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
use vc_store::{EventType, RecvOutcome, WatchStream};

/// A change notification delivered to informer handlers.
///
/// Events carry shared [`Arc<Object>`]s — for watch-driven events this is
/// the *store's* `Arc`, passed through the apiserver and the watch stream
/// without a single copy. Handlers that need an owned object clone it
/// explicitly (or `try_into()` a typed value); everything else reads
/// through the shared pointer.
#[derive(Debug, Clone)]
pub enum InformerEvent {
    /// Object appeared (initial list or watch add).
    Added(Arc<Object>),
    /// Object changed.
    Updated {
        /// Previous cached state.
        old: Arc<Object>,
        /// New state.
        new: Arc<Object>,
    },
    /// Object disappeared (carries the last known state).
    Deleted(Arc<Object>),
    /// Periodic resync re-delivery of a cached object.
    Resync(Arc<Object>),
}

impl InformerEvent {
    /// The object the event is about (new state where applicable).
    pub fn object(&self) -> &Arc<Object> {
        match self {
            InformerEvent::Added(o) | InformerEvent::Deleted(o) | InformerEvent::Resync(o) => o,
            InformerEvent::Updated { new, .. } => new,
        }
    }
}

/// Handler invoked synchronously by the informer: for the initial list on
/// the thread that called [`SharedInformer::start`], afterwards on the
/// informer's reflector-pool thread.
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
    objects: RwLock<HashMap<String, CacheEntry>>,
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

    /// All cached keys.
    pub fn keys(&self) -> Vec<String> {
        self.objects.read().keys().cloned().collect()
    }

    /// All cached keys in sorted order (the incremental scanner's cold
    /// sweep pages through these).
    pub fn sorted_keys(&self) -> Vec<String> {
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
        let size = obj.estimated_size();
        let old = self.objects.write().insert(obj.key(), CacheEntry { object: obj, size });
        let old_size = old.as_ref().map_or(0, |e| e.size as i64);
        self.bytes.add(size as i64 - old_size);
        old.map(|e| e.object)
    }

    /// Removes an object by key, returning it. See [`Cache::insert`].
    pub fn remove(&self, key: &str) -> Option<Arc<Object>> {
        let old = self.objects.write().remove(key);
        if let Some(e) = &old {
            self.bytes.add(-(e.size as i64));
        }
        old.map(|e| e.object)
    }
}

/// Most watch events one turn applies before the informer goes to the back
/// of its pool thread's queue: what a flooding informer can delay its
/// neighbours by.
const BATCH: usize = 64;

/// Configuration for a [`SharedInformer`].
#[derive(Debug, Clone)]
pub struct InformerConfig {
    /// Resource kind to watch.
    pub kind: ResourceKind,
    /// Optional namespace restriction.
    pub namespace: Option<String>,
    /// Optional periodic resync: re-delivers every cached object as
    /// [`InformerEvent::Resync`].
    pub resync_interval: Option<Duration>,
    /// Backoff after a failed list.
    pub relist_backoff: Duration,
}

impl InformerConfig {
    /// Creates a config watching all namespaces of `kind`, no resync.
    pub fn new(kind: ResourceKind) -> Self {
        InformerConfig {
            kind,
            namespace: None,
            resync_interval: None,
            relist_backoff: Duration::from_millis(100),
        }
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
/// `start` touches it before the informer's first turn, turns after.
#[derive(Default)]
struct Reflector {
    /// The watch being drained; `None` while a re-list is in flight or
    /// backing off.
    stream: Option<WatchStream>,
    /// When a failed list is due to be tried again.
    retry_at: Option<Instant>,
    next_resync: Option<Instant>,
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
/// [`SharedInformer::start`]; everything after it on the one pool thread
/// the informer is pinned to. Handlers must not block: they share that
/// thread with other informers.
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
            registration: OnceLock::new(),
            reflector: Mutex::new(Reflector::default()),
            relisted: Mutex::new(None),
            relists: Counter::new(),
            events_applied: Counter::new(),
        })
    }

    /// Registers a handler; must be called before [`SharedInformer::start`]
    /// to observe the initial list.
    pub fn add_handler(&self, handler: EventHandler) {
        self.handlers.write().push(handler);
    }

    /// Lists, fills the cache and calls the handlers for the initial state
    /// on this thread, then hands the informer to the process-wide
    /// reflector pool, which applies the watch from there on. If the list
    /// fails the pool retries it every `relist_backoff`;
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
        let namespace = self.config.namespace.as_deref();
        let Ok((items, revision)) = self.client.list(self.config.kind, namespace) else {
            return Listed { items: None, stream: None };
        };
        let stream = self.client.watch(self.config.kind, namespace, revision).ok();
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
            let at = Instant::now() + self.config.relist_backoff;
            reflector.retry_at = Some(at);
            return registration.wake_at(at);
        };
        stream.set_waker(Waker::from(Arc::clone(registration)));
        reflector.stream = Some(stream);
        // Events that reached the stream before its waker woke nobody.
        registration.wake();
        if let (Some(interval), None) = (self.config.resync_interval, reflector.next_resync) {
            let at = Instant::now() + interval;
            reflector.next_resync = Some(at);
            registration.wake_at(at);
        }
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

    fn resync_if_due(&self, reflector: &mut Reflector, registration: &Arc<Registration>) {
        let (Some(interval), Some(due)) = (self.config.resync_interval, reflector.next_resync)
        else {
            return;
        };
        let now = Instant::now();
        if now < due {
            return;
        }
        for obj in self.cache.list() {
            self.dispatch(&InformerEvent::Resync(obj));
        }
        reflector.next_resync = Some(now + interval);
        registration.wake_at(now + interval);
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
            if !fresh.contains_key(&key) {
                if let Some(old) = self.cache.remove(&key) {
                    self.events_applied.inc();
                    self.dispatch(&InformerEvent::Deleted(old));
                }
            }
        }
        for (_key, obj) in fresh {
            let old = self.cache.insert_arc(Arc::clone(&obj));
            self.events_applied.inc();
            match old {
                None => self.dispatch(&InformerEvent::Added(obj)),
                Some(old) if old.meta().resource_version != obj.meta().resource_version => {
                    self.dispatch(&InformerEvent::Updated { old, new: obj })
                }
                Some(_) => {} // unchanged across relist: no event
            }
        }
    }

    fn apply(&self, event_type: EventType, obj: Arc<Object>) {
        self.events_applied.inc();
        match event_type {
            EventType::Added | EventType::Modified => {
                let old = self.cache.insert_arc(Arc::clone(&obj));
                match old {
                    None => self.dispatch(&InformerEvent::Added(obj)),
                    Some(old) => self.dispatch(&InformerEvent::Updated { old, new: obj }),
                }
            }
            EventType::Deleted => {
                let key = obj.key();
                let last = self.cache.remove(&key).unwrap_or(obj);
                self.dispatch(&InformerEvent::Deleted(last));
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
            self.resync_if_due(&mut reflector, registration);
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
        } else if reflector.retry_at.is_some_and(|at| Instant::now() >= at) {
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
            let tag = match ev {
                InformerEvent::Added(o) => format!("add:{}", o.key()),
                InformerEvent::Updated { new, .. } => format!("upd:{}", new.key()),
                InformerEvent::Deleted(o) => format!("del:{}", o.key()),
                InformerEvent::Resync(o) => format!("rs:{}", o.key()),
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
    fn resync_redelivers_cached_objects() {
        let server = ApiServer::new_default("t");
        let client = Client::new(Arc::clone(&server), "informer");
        let mut config = InformerConfig::new(ResourceKind::Pod);
        config.resync_interval = Some(Duration::from_millis(50));
        let informer = SharedInformer::new(client, config);
        let resyncs = Arc::new(Counter::new());
        let counter = Arc::clone(&resyncs);
        informer.add_handler(Box::new(move |ev| {
            if matches!(ev, InformerEvent::Resync(_)) {
                counter.inc();
            }
        }));
        let informer = SharedInformer::start(informer);
        informer.wait_for_sync(Duration::from_secs(5));
        Client::new(server, "u").create(Pod::new("default", "p").into()).unwrap();
        assert!(eventually(3000, || resyncs.get() >= 2));
        informer.stop();
    }

    #[test]
    fn namespace_scoped_informer() {
        let server = ApiServer::new_default("t");
        let admin = Client::new(Arc::clone(&server), "admin");
        admin.create(vc_api::namespace::Namespace::new("other").into()).unwrap();
        let client = Client::new(Arc::clone(&server), "informer");
        let mut config = InformerConfig::new(ResourceKind::Pod);
        config.namespace = Some("default".into());
        let informer = SharedInformer::start(SharedInformer::new(client, config));
        informer.wait_for_sync(Duration::from_secs(5));
        admin.create(Pod::new("other", "x").into()).unwrap();
        admin.create(Pod::new("default", "y").into()).unwrap();
        assert!(eventually(2000, || informer.cache().get("default/y").is_some()));
        assert!(informer.cache().get("other/x").is_none());
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
        assert_eq!(pool.wakeups(), before, "no traffic and no resync: nothing may wake");
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
        let mut config = InformerConfig::new(ResourceKind::Pod);
        config.relist_backoff = Duration::from_millis(10);
        let pods = SharedInformer::start_on(
            SharedInformer::new(Client::system(Arc::clone(&server), "informer"), config),
            &pool,
        );
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
        assert_eq!(pool.threads(), 2, "one worker and the helper the re-lists started");
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
}
