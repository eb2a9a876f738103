//! Periodic work is a timer on the reflector pool, not a thread that
//! wakes up to find out whether it is time yet: a frozen virtual clock
//! cannot hold a shutdown hostage, and an idle deployment runs nothing.
//!
//! The pool is process-wide and its run counter with it, so this binary
//! holds only tests that run no timer body of their own.

use std::time::{Duration, Instant};
use virtualcluster::api::time::SimClock;
use virtualcluster::client::reflector::Pool;
use virtualcluster::core::framework::{minimal_tenant_template, Framework, FrameworkConfig};

#[test]
fn framework_on_a_frozen_sim_clock_shuts_down_at_once() {
    // Every interval and breaker window lies in virtual time that never
    // comes: nothing may be parked waiting for it when the test stops.
    let mut config = FrameworkConfig::minimal();
    config.clock = Some(SimClock::new() as _);
    let fw = Framework::start(config);
    fw.create_tenant("frozen").unwrap();
    let started = Instant::now();
    fw.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown on a frozen clock took {took:?}");
}

#[test]
fn idle_framework_runs_no_timer_body() {
    // Every interval at 1 s or more (the garbage collector's 200 ms is not
    // configurable, so it is off): for 300 ms nothing is due, and nothing
    // — scanner, vNode or node heartbeats, node lifecycle, breaker — runs.
    let mut config = FrameworkConfig::minimal();
    config.syncer.scan_interval = Some(Duration::from_secs(60));
    config.syncer.vnode_heartbeat_interval = Duration::from_secs(10);
    config.super_cluster.garbage_collector = false;
    config.super_cluster.heartbeat_interval = Duration::from_secs(10);
    config.operator.tenant_template = minimal_tenant_template();
    let fw = Framework::start(config);
    fw.create_tenant("idle").unwrap();
    let pool = Pool::global();
    let before = pool.timer_runs();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(pool.timer_runs(), before, "a timer body ran in an idle deployment");
    fw.shutdown();
}
