//! Syscall ceiling for a snapshot. The snapshot writer gathers its frames
//! in one buffer and writes it out a mebibyte at a time, so a snapshot
//! costs a handful of `write` calls however many records it holds.
//!
//! The count is this thread's `syscw` from `/proc/thread-self/io`, so
//! tests running in parallel on other threads do not disturb it; where
//! that file cannot be read the test has nothing to measure and passes.

use std::path::PathBuf;
use std::time::Duration;
use vc_api::pod::Pod;
use vc_api::time::RealClock;
use vc_store::{DurabilityConfig, FlushPolicy, Store, StoreConfig};

/// Write-family syscalls this thread has made so far.
fn thread_write_syscalls() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
    io.lines().find_map(|line| line.strip_prefix("syscw: ")).and_then(|n| n.trim().parse().ok())
}

#[test]
fn a_snapshot_of_5000_pods_takes_a_handful_of_writes() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("vc-store-snapshot-writes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Writes wait in the batch, so filling the store costs no fsync; the
    // rotation at the snapshot's cut flushes them.
    let durability = DurabilityConfig::new(&dir)
        .with_flush(FlushPolicy::Async { window: Duration::from_secs(3600) });
    let (store, _) =
        Store::open_durable(StoreConfig::default(), durability, RealClock::shared()).expect("open");
    for i in 0..5_000 {
        store.insert(Pod::new("tenant-a", format!("pod-{i:05}")).into()).expect("insert");
    }
    assert_eq!(store.len(), 5_000);

    let before = thread_write_syscalls();
    assert!(store.snapshot_now().expect("snapshot"));
    let after = thread_write_syscalls();
    let snapshot = std::fs::metadata(dir.join("snapshot.snap")).expect("snapshot written").len();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let (Some(before), Some(after)) = (before, after) else { return };
    let writes = after - before;
    println!("a snapshot of 5,000 pods and their 5,000 events: {snapshot} B in {writes} writes");
    // 10,000 records of ~0.7 KiB each: about seven chunks, plus the WAL
    // rotation's flush of the pending batch.
    assert!(writes <= 16, "a snapshot of {snapshot} B took {writes} write syscalls");
}
