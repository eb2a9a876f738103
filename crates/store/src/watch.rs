//! Watch events and streams.

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;
use vc_api::object::{Object, ResourceKind};

/// The type of change a watch event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventType {
    /// Object created.
    Added,
    /// Object replaced.
    Modified,
    /// Object removed (the event carries the last state).
    Deleted,
}

/// One change notification.
#[derive(Debug, Clone)]
pub struct WatchEvent {
    /// Store revision at which the change happened.
    pub revision: u64,
    /// Change type.
    pub event_type: EventType,
    /// Object state after the change (last state for `Deleted`).
    pub object: Arc<Object>,
}

/// What a watcher's two halves share besides the channel.
///
/// It doubles as the liveness token: when the stream drops, the strong
/// count falls to 1 and the store prunes the watcher.
#[derive(Debug, Default)]
struct Shared {
    /// Woken after every delivered event and when the producer side goes
    /// away (see [`WatchStream::set_waker`]).
    waker: parking_lot::Mutex<Option<Waker>>,
}

impl Shared {
    fn wake(&self) {
        if let Some(waker) = &*self.waker.lock() {
            waker.wake_by_ref();
        }
    }
}

/// Store-side handle for a registered watcher.
#[derive(Debug)]
pub(crate) struct WatcherHandle {
    kind: ResourceKind,
    namespace: Option<String>,
    /// `None` only while dropping.
    sender: Option<Sender<WatchEvent>>,
    shared: Arc<Shared>,
}

impl WatcherHandle {
    pub(crate) fn new(
        kind: ResourceKind,
        namespace: Option<String>,
        buffer: usize,
    ) -> (WatcherHandle, WatchStream) {
        let (sender, receiver) = bounded(buffer);
        let shared = Arc::new(Shared::default());
        let stream = WatchStream {
            receiver,
            peeked: parking_lot::Mutex::new(None),
            shared: Arc::clone(&shared),
        };
        (WatcherHandle { kind, namespace, sender: Some(sender), shared }, stream)
    }

    /// Returns `true` if the event passes this watcher's kind/namespace
    /// filter.
    pub(crate) fn wants(&self, event: &WatchEvent) -> bool {
        if event.object.kind() != self.kind {
            return false;
        }
        match &self.namespace {
            Some(ns) => event.object.meta().namespace == *ns,
            None => true,
        }
    }

    /// Attempts to deliver, waking the stream's waker on success; returns
    /// `false` if the watcher is full or gone (the caller then evicts it).
    pub(crate) fn deliver(&self, event: WatchEvent) -> bool {
        let sender = self.sender.as_ref().expect("sender present until drop");
        if sender.try_send(event).is_err() {
            return false;
        }
        self.shared.wake();
        true
    }

    /// Returns `true` if the consumer side has been dropped.
    pub(crate) fn is_dead(&self) -> bool {
        Arc::strong_count(&self.shared) == 1
    }
}

impl Drop for WatcherHandle {
    /// Dropping the handle is how eviction closes a stream. The channel
    /// disconnects *before* the wake, so a consumer woken here is certain
    /// to see [`RecvOutcome::Closed`] once the buffer is drained.
    fn drop(&mut self) {
        drop(self.sender.take());
        self.shared.wake();
    }
}

/// Outcome of a deadline-bounded receive on a [`WatchStream`].
#[derive(Debug)]
pub enum RecvOutcome {
    /// An event arrived.
    Event(WatchEvent),
    /// The deadline passed with no event; the stream is still live.
    Timeout,
    /// The stream is closed (watcher evicted or store dropped); the
    /// consumer must re-list and re-watch.
    Closed,
}

/// Consumer side of a watch.
///
/// Closure of the stream (no more events will ever arrive) signals that the
/// watcher was evicted or the store dropped; reflectors respond by
/// re-listing.
#[derive(Debug)]
pub struct WatchStream {
    receiver: Receiver<WatchEvent>,
    /// One-slot peek buffer so `is_closed` never loses an event.
    peeked: parking_lot::Mutex<Option<WatchEvent>>,
    shared: Arc<Shared>,
}

impl WatchStream {
    /// Registers `waker` (replacing any earlier one) to be woken after
    /// every event delivered from now on and once when the stream closes,
    /// so a consumer can block on something other than the stream itself.
    /// Events already buffered are not announced: poll once after
    /// registering.
    pub fn set_waker(&self, waker: Waker) {
        *self.shared.waker.lock() = Some(waker);
    }

    /// Non-blocking receive that tells an empty stream
    /// ([`RecvOutcome::Timeout`]) from a closed one.
    pub fn try_next(&self) -> RecvOutcome {
        if let Some(ev) = self.peeked.lock().take() {
            return RecvOutcome::Event(ev);
        }
        match self.receiver.try_recv() {
            Ok(ev) => RecvOutcome::Event(ev),
            Err(TryRecvError::Empty) => RecvOutcome::Timeout,
            Err(TryRecvError::Disconnected) => RecvOutcome::Closed,
        }
    }

    /// Returns the next event if one is ready.
    pub fn try_recv(&self) -> Option<WatchEvent> {
        match self.try_next() {
            RecvOutcome::Event(ev) => Some(ev),
            RecvOutcome::Timeout | RecvOutcome::Closed => None,
        }
    }

    /// Blocks up to `ms` milliseconds for the next event.
    pub fn recv_timeout_ms(&self, ms: u64) -> Option<WatchEvent> {
        match self.recv_deadline(Duration::from_millis(ms)) {
            RecvOutcome::Event(ev) => Some(ev),
            RecvOutcome::Timeout | RecvOutcome::Closed => None,
        }
    }

    /// Blocks up to `timeout`, distinguishing timeout from closure.
    pub fn recv_deadline(&self, timeout: Duration) -> RecvOutcome {
        if let Some(ev) = self.peeked.lock().take() {
            return RecvOutcome::Event(ev);
        }
        match self.receiver.recv_timeout(timeout) {
            Ok(ev) => RecvOutcome::Event(ev),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => RecvOutcome::Timeout,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    /// Blocks until an event arrives or the stream closes.
    pub fn recv(&self) -> Option<WatchEvent> {
        if let Some(ev) = self.peeked.lock().take() {
            return Some(ev);
        }
        self.receiver.recv().ok()
    }

    /// Returns `true` once the producer side is gone and the buffer is
    /// drained. Never consumes events (an event racing in is parked in a
    /// peek buffer).
    pub fn is_closed(&self) -> bool {
        let mut peeked = self.peeked.lock();
        if peeked.is_some() {
            return false;
        }
        match self.receiver.try_recv() {
            Ok(ev) => {
                *peeked = Some(ev);
                false
            }
            Err(TryRecvError::Empty) => false,
            Err(TryRecvError::Disconnected) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_api::pod::Pod;

    fn event(ns: &str, name: &str, rev: u64) -> WatchEvent {
        WatchEvent {
            revision: rev,
            event_type: EventType::Added,
            object: Arc::new(Pod::new(ns, name).into()),
        }
    }

    #[test]
    fn filter_by_kind_and_namespace() {
        let (handle, _stream) = WatcherHandle::new(ResourceKind::Pod, Some("ns1".into()), 8);
        assert!(handle.wants(&event("ns1", "a", 1)));
        assert!(!handle.wants(&event("ns2", "a", 1)));
        let ns_event = WatchEvent {
            revision: 1,
            event_type: EventType::Added,
            object: Arc::new(vc_api::namespace::Namespace::new("ns1").into()),
        };
        assert!(!handle.wants(&ns_event), "kind mismatch");
    }

    #[test]
    fn deliver_until_full() {
        let (handle, stream) = WatcherHandle::new(ResourceKind::Pod, None, 2);
        assert!(handle.deliver(event("ns", "a", 1)));
        assert!(handle.deliver(event("ns", "b", 2)));
        assert!(!handle.deliver(event("ns", "c", 3)), "buffer full");
        assert_eq!(stream.try_recv().unwrap().object.key(), "ns/a");
    }

    #[test]
    fn dead_detection_after_drop() {
        let (handle, stream) = WatcherHandle::new(ResourceKind::Pod, None, 2);
        assert!(!handle.is_dead());
        drop(stream);
        assert!(handle.is_dead());
        assert!(!handle.deliver(event("ns", "a", 1)));
    }

    /// Counts wake-ups; the `Arc` is the `Waker`.
    #[derive(Default)]
    struct CountingWaker(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn waker_fires_per_delivery_and_on_close_after_disconnect() {
        let (handle, stream) = WatcherHandle::new(ResourceKind::Pod, None, 2);
        let wakes = Arc::new(CountingWaker::default());
        let count = || wakes.0.load(std::sync::atomic::Ordering::SeqCst);
        handle.deliver(event("ns", "early", 1));
        stream.set_waker(Waker::from(Arc::clone(&wakes)));
        assert_eq!(count(), 0, "events buffered before registration are not announced");
        assert!(handle.deliver(event("ns", "a", 2)));
        assert_eq!(count(), 1);
        assert!(!handle.deliver(event("ns", "b", 3)), "buffer full");
        assert_eq!(count(), 1, "a refused delivery wakes nobody");
        drop(handle);
        assert_eq!(count(), 2, "closing wakes");
        assert!(matches!(stream.try_next(), RecvOutcome::Event(_)));
        assert!(matches!(stream.try_next(), RecvOutcome::Event(_)));
        assert!(matches!(stream.try_next(), RecvOutcome::Closed));
    }

    /// Reads its stream when woken: what a consumer woken by the close
    /// would find.
    #[derive(Default)]
    struct ClosedAtWake {
        stream: std::sync::OnceLock<WatchStream>,
        seen_closed: std::sync::atomic::AtomicBool,
    }

    impl std::task::Wake for ClosedAtWake {
        fn wake(self: Arc<Self>) {
            let closed = self.stream.get().expect("stream set").is_closed();
            self.seen_closed.store(closed, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn close_disconnects_before_it_wakes() {
        let (handle, stream) = WatcherHandle::new(ResourceKind::Pod, None, 2);
        let probe = Arc::new(ClosedAtWake::default());
        stream.set_waker(Waker::from(Arc::clone(&probe)));
        probe.stream.set(stream).expect("set once");
        drop(handle);
        assert!(
            probe.seen_closed.load(std::sync::atomic::Ordering::SeqCst),
            "a consumer woken by the close must already read Closed, or it parks for good"
        );
    }

    #[test]
    fn try_next_tells_empty_from_closed() {
        let (handle, stream) = WatcherHandle::new(ResourceKind::Pod, None, 2);
        assert!(matches!(stream.try_next(), RecvOutcome::Timeout));
        drop(handle);
        assert!(matches!(stream.try_next(), RecvOutcome::Closed));
    }

    #[test]
    fn stream_recv_blocking_and_closed() {
        let (handle, stream) = WatcherHandle::new(ResourceKind::Pod, None, 2);
        handle.deliver(event("ns", "a", 1));
        assert_eq!(stream.recv().unwrap().revision, 1);
        drop(handle);
        assert!(stream.recv().is_none());
        assert!(stream.is_closed());
    }
}
