//! The dirty/processing/latest-generation protocol shared by
//! [`WorkQueue`](crate::workqueue::WorkQueue) and
//! [`WeightedFairQueue`](crate::fairqueue::WeightedFairQueue), extracted
//! so the coalescing state machine exists in exactly one place and can be
//! compiled against the loom backend (via the queues' `vc-sync` locks)
//! for exhaustive interleaving checks.
//!
//! Protocol (client-go's work queue, §III-C of the paper, plus the
//! generation-coalescing extension):
//!
//! * an item offered while already **dirty** (pending) is dropped — but a
//!   generation-tagged re-offer first raises the stored generation to the
//!   max, so the eventual delivery carries exactly the newest one;
//! * an item offered while **processing** is remembered (marked dirty)
//!   and re-queued when [`CoalesceCore::finish`] runs;
//! * [`CoalesceCore::take`] moves a dequeued item dirty → processing and
//!   surrenders its recorded generation.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// What the caller must do with an offered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// New work: enqueue the item and wake a worker.
    Enqueue,
    /// Dropped: an identical item is already pending.
    Deduped,
    /// Dropped, but the pending item's generation was refreshed.
    Coalesced,
    /// Remembered: the item is being processed and will be re-queued by
    /// the `finish` call that completes it.
    Deferred,
}

/// Deduplicating coalescer: the queue-independent core of the work-queue
/// protocol. Callers hold their queue lock across every call.
#[derive(Debug)]
pub(crate) struct CoalesceCore<T> {
    /// Items pending delivery (queued, or deferred behind processing).
    dirty: HashSet<T>,
    /// Items currently held by workers.
    processing: HashSet<T>,
    /// Latest generation recorded per dirty item (coalesced offers keep
    /// the max; absent = 0 for untagged offers).
    latest_gen: HashMap<T, u64>,
}

impl<T: Eq + Hash + Clone> CoalesceCore<T> {
    pub(crate) fn new() -> Self {
        CoalesceCore {
            dirty: HashSet::new(),
            processing: HashSet::new(),
            latest_gen: HashMap::new(),
        }
    }

    /// Offers an item, optionally tagged with a generation, and reports
    /// what the caller must do with it.
    pub(crate) fn offer(&mut self, item: &T, generation: Option<u64>) -> Offer {
        if let Some(generation) = generation {
            match self.latest_gen.get_mut(item) {
                Some(slot) => *slot = (*slot).max(generation),
                None => {
                    self.latest_gen.insert(item.clone(), generation);
                }
            }
        }
        if self.dirty.contains(item) {
            return if generation.is_some() { Offer::Coalesced } else { Offer::Deduped };
        }
        self.dirty.insert(item.clone());
        if self.processing.contains(item) {
            Offer::Deferred
        } else {
            Offer::Enqueue
        }
    }

    /// Moves a dequeued item dirty → processing, returning the latest
    /// generation recorded for it (0 for untagged offers).
    pub(crate) fn take(&mut self, item: &T) -> u64 {
        self.dirty.remove(item);
        self.processing.insert(item.clone());
        self.latest_gen.remove(item).unwrap_or(0)
    }

    /// Marks an item's processing finished. Returns `true` when the item
    /// was re-offered meanwhile and the caller must re-queue it.
    pub(crate) fn finish(&mut self, item: &T) -> bool {
        self.processing.remove(item);
        self.dirty.contains(item)
    }

    /// Number of items currently being processed.
    pub(crate) fn processing_len(&self) -> usize {
        self.processing.len()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn offer_take_finish_roundtrip() {
        let mut core = CoalesceCore::new();
        assert_eq!(core.offer(&"x", None), Offer::Enqueue);
        assert_eq!(core.offer(&"x", None), Offer::Deduped);
        assert_eq!(core.take(&"x"), 0);
        assert_eq!(core.processing_len(), 1);
        assert!(!core.finish(&"x"), "no re-offer, no requeue");
        assert_eq!(core.processing_len(), 0);
    }

    #[test]
    fn reoffer_while_processing_defers_then_requeues() {
        let mut core = CoalesceCore::new();
        assert_eq!(core.offer(&"x", None), Offer::Enqueue);
        core.take(&"x");
        assert_eq!(core.offer(&"x", None), Offer::Deferred);
        assert!(core.finish(&"x"), "deferred re-offer forces a requeue");
    }

    #[test]
    fn generations_coalesce_to_latest() {
        let mut core = CoalesceCore::new();
        assert_eq!(core.offer(&"x", Some(3)), Offer::Enqueue);
        assert_eq!(core.offer(&"x", Some(9)), Offer::Coalesced);
        assert_eq!(core.offer(&"x", Some(7)), Offer::Coalesced, "stale gen ignored");
        assert_eq!(core.take(&"x"), 9, "delivery carries exactly the newest generation");
        // The generation slot is consumed by take.
        assert!(core.finish(&"x").eq(&false));
        assert_eq!(core.offer(&"x", Some(1)), Offer::Enqueue);
        assert_eq!(core.take(&"x"), 1);
    }

    #[test]
    fn deferred_generation_survives_to_redelivery() {
        let mut core = CoalesceCore::new();
        core.offer(&"x", Some(1));
        assert_eq!(core.take(&"x"), 1);
        assert_eq!(core.offer(&"x", Some(2)), Offer::Deferred);
        assert!(core.finish(&"x"));
        assert_eq!(core.take(&"x"), 2, "redelivery carries the post-take generation");
    }
}
