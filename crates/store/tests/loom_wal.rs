//! Loom model of the WAL's leader/follower group commit.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p vc-store --release --test loom_wal -- loom_
//! ```
//!
//! The WAL's lock and condvar come from `vc-sync`, so under `cfg(loom)` this
//! drives the *production* durable write path — append, durable ack, leader
//! election, the write and fsync outside the lock, publish and wake — and a
//! `snapshot_now` rotation through every interleaving (bounded preemption).
//! File I/O is real but uninstrumented: to the model, a leader's write and
//! fsync is one step between taking the batch and publishing `synced`.
//! With two durable writers and one rotation, it proves:
//!
//! * **Both acks return.** A follower that parks while the leader's fsync
//!   completes, or a rotation waiting that fsync out, is woken by the
//!   publish. A wake-up lost there leaves it parked for good, which loom
//!   reports as a deadlock.
//! * **`synced` never runs ahead of the log.** An ack means the record is
//!   on disk, never only appended: once both writers returned, an armed
//!   [`CrashPoint::PreFsync`] makes the closing flush drop whatever is
//!   still only in memory, and recovery must return both acked writes and
//!   nothing else.

#![cfg(loom)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vc_api::pod::Pod;
use vc_api::time::RealClock;
use vc_store::{CrashPoint, DurabilityConfig, Store, StoreConfig};

/// Fresh directory per explored execution.
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vc-store-loom-wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn loom_group_commit_acks_both_writers_across_a_rotation() {
    loom::model(|| {
        let dir = scratch_dir();
        let open = || {
            let durability = DurabilityConfig::new(&dir);
            Store::open_durable(StoreConfig::default(), durability, RealClock::shared())
                .expect("open durable store")
                .0
        };
        let store = Arc::new(open());

        let writers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let store = Arc::clone(&store);
                loom::thread::spawn(move || store.insert(Pod::new("ns", name).into()).map(drop))
            })
            .collect();
        let rotation = {
            let store = Arc::clone(&store);
            loom::thread::spawn(move || store.snapshot_now())
        };
        for writer in writers {
            writer.join().unwrap().expect("durable ack");
        }
        assert!(rotation.join().unwrap().expect("snapshot"));

        let stats = store.wal_stats().unwrap();
        assert_eq!(stats.appends.get(), 2);
        assert!((1..=2).contains(&stats.fsyncs.get()), "fsyncs: {}", stats.fsyncs.get());
        store.inject_crash(CrashPoint::PreFsync);
        drop(store);

        let recovered = open();
        assert_eq!(recovered.revision(), 2, "an acked write was not on disk");
        assert_eq!(recovered.len(), 2);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
