//! Set-up and tear-down of the system under test, with the fixed
//! configuration every workload shares.
//!
//! Three traps this file exists to avoid — each makes a benchmark measure
//! a sleep or a limiter instead of the code:
//!
//! 1. *Simulated service times.* `ApiServerConfig::default()` sleeps
//!    100/300 µs per read/write and `SchedulerConfig::default()` 2.2 ms
//!    per pod. Everything here starts from `FrameworkConfig::minimal()` /
//!    `with_zero_latency()`.
//! 2. *Client-side rate limiters.* `Framework::tenant_client` (400 qps)
//!    and `WireClient::new` (50 qps) throttle the caller. Every client
//!    here is `Client::system` or `WireClient::with_limits(.., 1e9, 1<<30)`.
//! 3. *`ApiServer::new_default`* carries the simulated service times of
//!    (1); standalone servers are built with [`bare_apiserver`].

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_api::time::RealClock;
use vc_apiserver::{ApiServer, ApiServerConfig};
use vc_client::{Client, Encoding};
use vc_core::framework::{minimal_tenant_template, Framework, FrameworkConfig};
use vc_core::registry::TenantHandle;
use vc_store::DurabilityConfig;
use vc_wire::{WireClient, WireServer, WireServerConfig};

use crate::counters::Counters;
use crate::sys;
use crate::trace::Observers;
use crate::watchdog;
use crate::workloads::DRAIN_DEADLINE;

/// Mock nodes registered with the super cluster (500 pods each).
pub const MOCK_NODES: u32 = 20;
/// Syncer worker threads in each direction.
pub const SYNCER_WORKERS: usize = 4;

/// A zero-latency standalone apiserver (never `ApiServer::new_default`).
pub fn bare_apiserver(name: &str) -> Arc<ApiServer> {
    let config = ApiServerConfig {
        name: name.to_string(),
        read_latency: Duration::ZERO,
        write_latency: Duration::ZERO,
        ..ApiServerConfig::default()
    };
    ApiServer::new(config, RealClock::shared())
}

/// An unthrottled vcbin client for `addr`.
pub fn wire_client(addr: &str, user: &str) -> WireClient {
    WireClient::with_limits(addr, user, 1e9, 1 << 30).with_codec(Encoding::Binary)
}

/// Where a run keeps the super store's WAL under `scratch`: a directory of
/// its own, so concurrent runs do not share one.
pub fn wal_dir(scratch: &Path) -> PathBuf {
    scratch.join(format!("wal-{}", std::process::id()))
}

/// Shape of a framework deployment.
#[derive(Debug, Clone)]
pub struct FrameworkSpec {
    /// Tenants the generators drive.
    pub active_tenants: usize,
    /// Tenants onboarded and then left alone.
    pub idle_tenants: usize,
    /// Front each active tenant with a `WireServer`.
    pub wire: bool,
    /// Super store durable (WAL, group commit) in this directory.
    pub wal_dir: Option<PathBuf>,
    /// Install the `TenantIsolation` admission policy.
    pub isolation: bool,
}

/// A running framework with its tenants and wire front ends.
pub struct FrameworkEnv {
    /// The deployment.
    pub fw: Framework,
    /// Active tenants, in generator order.
    pub active: Vec<Arc<TenantHandle>>,
    /// One server per active tenant when `spec.wire`.
    pub servers: Vec<WireServer>,
    /// RSS growth per idle tenant during onboarding, KiB (0 without idle
    /// tenants).
    pub rss_kib_per_idle_tenant: f64,
    wal_dir: Option<PathBuf>,
}

/// Active tenant `i`'s name. No `-`: `sync_burst` recovers the owner from
/// the pod name's first `-`-separated field.
fn tenant_name(i: usize) -> String {
    format!("t{i:02}")
}

impl FrameworkEnv {
    /// Starts the framework, onboards the tenants and starts the wire
    /// servers.
    pub fn start(spec: &FrameworkSpec) -> Result<FrameworkEnv, String> {
        let mut config = FrameworkConfig::minimal();
        config.mock_nodes = MOCK_NODES;
        config.syncer.downward_workers = SYNCER_WORKERS;
        config.syncer.upward_workers = SYNCER_WORKERS;
        config.syncer.scan_interval = Some(Duration::from_secs(5));
        config.syncer.vnode_heartbeat_interval = Duration::from_secs(2);
        config.operator.tenant_template = minimal_tenant_template();
        if let Some(dir) = &spec.wal_dir {
            // A previous run killed by the watchdog may have left its WAL.
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            config.durability = Some(DurabilityConfig::new(dir));
        }
        let fw = Framework::start(config);
        if spec.isolation {
            fw.enforce_tenant_isolation();
        }
        watchdog::progress();

        let mut active = Vec::with_capacity(spec.active_tenants);
        for i in 0..spec.active_tenants {
            let handle = fw
                .create_tenant(&tenant_name(i))
                .map_err(|e| format!("onboard {}: {e}", tenant_name(i)))?;
            active.push(handle);
            watchdog::progress();
        }
        let rss_before_idle = sys::rss_kib();
        for i in 0..spec.idle_tenants {
            fw.create_tenant(&format!("idle{i:03}"))
                .map_err(|e| format!("onboard idle{i}: {e}"))?;
            watchdog::progress();
        }
        let rss_kib_per_idle_tenant = if spec.idle_tenants > 0 {
            sys::rss_kib().saturating_sub(rss_before_idle) as f64 / spec.idle_tenants as f64
        } else {
            0.0
        };

        let mut servers = Vec::new();
        if spec.wire {
            for handle in &active {
                let server = WireServer::start(
                    Arc::clone(&handle.cluster.apiserver),
                    WireServerConfig::default(),
                )
                .map_err(|e| format!("bind wire server for {}: {e}", handle.name))?;
                servers.push(server);
            }
        }
        Ok(FrameworkEnv {
            fw,
            active,
            servers,
            rss_kib_per_idle_tenant,
            wal_dir: spec.wal_dir.clone(),
        })
    }

    /// An unthrottled in-process client to the super cluster.
    pub fn super_client(&self, user: &str) -> Client {
        self.fw.super_cluster.system_client(user)
    }

    /// Boundary observers for a traced window.
    pub fn observers(&self) -> Result<Observers, String> {
        Observers::start(
            self.super_client("bench-observer"),
            self.active.iter().map(|h| (h.system_client("bench-observer"), h.name.clone())),
        )
    }

    /// Pods currently in the super cluster.
    pub fn super_pod_count(&self) -> usize {
        self.super_client("bench-check")
            .list(ResourceKind::Pod, None)
            .map_or(usize::MAX, |(items, _)| items.len())
    }

    /// Waits up to `timeout` for the super cluster to hold no pods; returns
    /// whether it emptied and how often the caller slept meanwhile.
    pub fn wait_super_empty(&self, timeout: Duration) -> (bool, u64) {
        let deadline = Instant::now() + timeout;
        let mut sleeps = 0;
        while self.super_pod_count() != 0 {
            if Instant::now() >= deadline {
                return (false, sleeps);
            }
            std::thread::sleep(Duration::from_millis(5));
            sleeps += 1;
        }
        (true, sleeps)
    }

    /// Cumulative public counters of every layer.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let writes = |api: &ApiServer| {
            api.metrics.creates.get() + api.metrics.updates.get() + api.metrics.deletes.get()
        };
        c.super_writes = writes(&self.fw.super_cluster.apiserver);
        for tenant in self.fw.registry.list() {
            c.tenant_writes += writes(&tenant.cluster.apiserver);
        }
        let s = self.fw.syncer.metrics.snapshot();
        c.downward_ops = s.downward_creates + s.downward_updates + s.downward_deletes;
        c.upward_ops = s.upward_updates + s.upward_deletes;
        c.conflicts = s.conflicts;
        c.retries = s.retries;
        c.dead_letters = s.retry_exhausted + s.policy_blocked;
        c.downward_busy_us = self.fw.syncer.metrics.downward_busy.total().as_micros() as u64;
        c.upward_busy_us = self.fw.syncer.metrics.upward_busy.total().as_micros() as u64;
        if let Some(m) = &self.fw.super_cluster.scheduler_metrics {
            c.scheduled = m.scheduled.get();
        }
        for server in &self.servers {
            c.add_wire(server);
        }
        if let Some(wal) = self.fw.super_cluster.apiserver.store().wal_stats() {
            c.wal_appends = wal.appends.get();
            c.wal_fsyncs = wal.fsyncs.get();
            c.wal_bytes = wal.bytes_appended.get();
        }
        c
    }

    /// The final output checks and tear-down: the super cluster must drain
    /// to zero pods, then everything shuts down and must leave nothing
    /// behind — the wire sockets refuse connections and the WAL directory
    /// is gone. Returns the violations found. Callers drop their watches
    /// first (they hold sockets).
    pub fn drain_and_shutdown(self) -> Vec<String> {
        let mut violations = Vec::new();
        if !self.wait_super_empty(DRAIN_DEADLINE).0 {
            violations.push(format!(
                "{} super pods left {}s after the last delete",
                self.super_pod_count(),
                DRAIN_DEADLINE.as_secs()
            ));
        }
        let addrs: Vec<_> = self.servers.iter().map(WireServer::local_addr).collect();
        for server in &self.servers {
            server.shutdown();
        }
        watchdog::progress();
        // `Framework::shutdown` stops tenant informers one at a time, and
        // each join waits out a poll interval: ~0.3 s per tenant, half a
        // minute at 100 tenants. Stopping them concurrently first makes
        // its own pass find every reflector thread already joined.
        let tenants: Vec<_> =
            self.fw.syncer.tenant_names().iter().filter_map(|n| self.fw.syncer.tenant(n)).collect();
        std::thread::scope(|scope| {
            for tenant in &tenants {
                scope.spawn(|| tenant.informers.values().for_each(|informer| informer.stop()));
            }
        });
        drop(tenants);
        watchdog::progress();
        self.fw.shutdown();
        watchdog::progress();
        drop(self.servers);
        drop(self.fw);
        violations.extend(addrs.into_iter().filter_map(still_accepts));
        if let Some(dir) = &self.wal_dir {
            violations.extend(remove_dir(dir));
        }
        violations
    }
}

/// A violation if `addr` still accepts connections after its server shut
/// down.
pub fn still_accepts(addr: SocketAddr) -> Option<String> {
    std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200))
        .is_ok()
        .then(|| format!("wire socket {addr} still accepts after shutdown"))
}

fn remove_dir(dir: &Path) -> Option<String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) if !dir.exists() => None,
        Ok(()) => Some(format!("WAL dir {} survived removal", dir.display())),
        Err(e) => Some(format!("remove WAL dir {}: {e}", dir.display())),
    }
}
