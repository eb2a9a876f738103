//! Loom model-checking tests for the work-queue condvar protocol and the
//! fair queue's coalescing dequeue.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p vc-client --release -- loom_
//! ```
//!
//! The queues compile against the loom backend through `vc-sync`, so
//! these models exercise the *production* lock/condvar protocol under
//! exhaustive interleaving (bounded preemption). What they prove:
//!
//! * **No lost wakeup**: a worker blocked in `WorkSource::take` is always
//!   released by a concurrent `add` — if the notify could be lost between
//!   the worker's emptiness check and its park, loom's deadlock detection
//!   fails the model.
//! * **No double delivery**: an item handed to a worker is never handed
//!   out again until `done()` — a concurrent re-add defers instead.
//! * **Latest-generation coalescing**: when two generation-tagged adds
//!   both land before the dequeue, the single delivery carries exactly
//!   the newer generation.
//! * **A worker drains, then stops**: a worker looping on
//!   `WorkSource::take` into one reused buffer receives every item added
//!   before `shutdown()` exactly once, and then its take returns `false`
//!   instead of parking for ever.

#![cfg(loom)]

use std::sync::Arc;
use vc_client::fairqueue::WeightedFairQueue;
use vc_client::workqueue::{WorkQueue, WorkSource};

#[test]
fn loom_fairqueue_no_lost_wakeup() {
    loom::model(|| {
        let q: Arc<WeightedFairQueue<u32>> = Arc::new(WeightedFairQueue::new(true));
        let consumer = {
            let q = Arc::clone(&q);
            // If add()'s notify could race past the emptiness check and
            // be lost, this take would block forever and loom's deadlock
            // detection would fail the model.
            loom::thread::spawn(move || {
                let mut items = Vec::new();
                assert!(q.take(1, &mut items));
                items
            })
        };
        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || q.add("tenant-a", 7))
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), vec![7]);
    });
}

#[test]
fn loom_fairqueue_coalescing_no_double_delivery() {
    loom::model(|| {
        let q: Arc<WeightedFairQueue<&'static str>> = Arc::new(WeightedFairQueue::new(true));

        let producers: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|generation| {
                let q = Arc::clone(&q);
                loom::thread::spawn(move || q.add_coalescing("t", "x", generation))
            })
            .collect();

        let consumer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                let batch = q.get_batch(2);
                // The same item can occupy at most one batch slot.
                assert_eq!(batch.len(), 1, "one distinct item, one slot: {batch:?}");
                // While "x" is processing, a concurrent re-add must defer
                // rather than hand the item out a second time.
                assert!(q.try_get().is_none(), "no double delivery while processing");
                q.done(&"x");
                batch[0].1
            })
        };

        for p in producers {
            p.join().unwrap();
        }
        let first_gen = consumer.join().unwrap();

        // Drain the (at most one) redelivery caused by an add that landed
        // while "x" was processing.
        let mut redeliveries = 0;
        while let Some(item) = q.try_get() {
            assert_eq!(item, "x");
            q.done(&"x");
            redeliveries += 1;
        }
        assert!(redeliveries <= 1, "two offers yield at most two deliveries");
        if redeliveries == 0 {
            // Both adds landed before the single dequeue: coalescing must
            // have kept exactly the newest generation.
            assert_eq!(first_gen, 2, "coalesced delivery carries the latest generation");
        } else {
            assert!(
                first_gen == 1 || first_gen == 2,
                "first delivery carries an offered generation: {first_gen}"
            );
        }
    });
}

#[test]
fn loom_workqueue_batch_drains_each_item_exactly_once() {
    loom::model(|| {
        let q: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new());

        let producers: Vec<_> = [1u32, 2u32]
            .into_iter()
            .map(|item| {
                let q = Arc::clone(&q);
                loom::thread::spawn(move || q.add(item))
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                // Blocks until at least one add landed (lost wakeup ⇒
                // loom deadlock), then drains what is queued.
                let batch = q.get_batch(2);
                assert!(!batch.is_empty());
                for (item, _) in &batch {
                    q.done(item);
                }
                batch.into_iter().map(|(item, _)| item).collect::<Vec<_>>()
            })
        };

        for p in producers {
            p.join().unwrap();
        }
        let mut delivered = consumer.join().unwrap();

        // The consumer may have raced ahead of the second producer; the
        // remainder is still queued, never lost and never duplicated.
        while let Some(item) = q.try_get() {
            q.done(&item);
            delivered.push(item);
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![1, 2], "each item delivered exactly once");
    });
}

#[test]
fn loom_worker_take_drains_then_stops_on_shutdown() {
    loom::model(|| {
        let q: Arc<WeightedFairQueue<u32>> = Arc::new(WeightedFairQueue::new(true));
        let worker = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                // The loop `ControllerHandle::workers` runs on each thread.
                let (mut items, mut seen) = (Vec::new(), Vec::new());
                while q.take(2, &mut items) {
                    for item in items.drain(..) {
                        WorkSource::done(&*q, &item);
                        seen.push(item);
                    }
                }
                seen
            })
        };
        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.add("tenant-a", 1);
                q.add("tenant-b", 2);
            })
        };
        producer.join().unwrap();
        // A shutdown whose wake-up could be lost would leave the worker
        // parked, and loom's deadlock detection would fail the model.
        WorkSource::shutdown(&*q);
        let mut seen = worker.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2], "each item taken exactly once before the take fails");
    });
}
