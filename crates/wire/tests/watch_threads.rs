//! What an open wire watch costs in threads and wake-ups. A watch is
//! read on the thread that receives from it, so the only thread it adds
//! is the server's connection thread (`wire-conn-*`), and that thread
//! sleeps until the store has an event for it or the server stops:
//! an idle watch wakes nobody, and `shutdown` wakes every watch thread
//! it joins.
//!
//! Threads are counted from `/proc/self/task`, so this binary holds this
//! one test: no other test adds threads while it counts.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_apiserver::ApiServer;
use vc_client::ObjectApi;
use vc_wire::{WireClient, WireServer, WireServerConfig};

const WATCHES: usize = 16;

/// Every thread of this process: its name and voluntary context
/// switches, by thread id.
fn threads() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task").flatten() {
        let dir = entry.path();
        let tid = entry.file_name().to_string_lossy().into_owned();
        // A thread that exits between the listing and the reads is skipped.
        let (Ok(comm), Ok(status)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        out.insert(tid, (comm.trim().to_string(), switches));
    }
    out
}

#[test]
fn open_watches_add_one_parked_thread_each_and_shutdown_wakes_them() {
    let api = ApiServer::new_default("watch-threads");
    let server = WireServer::start(api, WireServerConfig::default()).expect("bind");
    let client = WireClient::with_limits(server.local_addr().to_string(), "tenant-t", 1e9, 1 << 30);
    // The client's unary connection and its server thread exist before
    // the count starts.
    let (_, revision) = client.list(ResourceKind::Pod, Some("default")).unwrap();
    let before = threads();

    let watches: Vec<_> = (0..WATCHES)
        .map(|_| client.watch(ResourceKind::Pod, Some("default"), revision).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().active_watches.get() < WATCHES as i64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let each connection thread reach its first park.
    std::thread::sleep(Duration::from_millis(100));
    let opened = threads();
    let added: HashMap<&String, &(String, u64)> =
        opened.iter().filter(|(tid, _)| !before.contains_key(*tid)).collect();
    let mut names: Vec<&str> = added.values().map(|(name, _)| name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(added.len(), WATCHES, "{WATCHES} watches added the threads {names:?}");
    assert!(names.iter().all(|n| n.starts_with("wire-conn-")), "added {names:?}");

    std::thread::sleep(Duration::from_secs(1));
    let idle = threads();
    let woken: u64 = added
        .iter()
        .map(|(tid, (_, switches))| idle.get(*tid).map_or(0, |(_, now)| now - switches))
        .sum();
    assert!(woken <= WATCHES as u64, "{WATCHES} idle watch threads woke {woken} times in 1 s");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown with open watches returned within 1 s");
    shutdown.join().unwrap();
    drop(watches);
}
