//! Tenant-density campaign: how many tenant control planes one super
//! cluster + one centralized syncer can carry.
//!
//! The paper evaluates latency under load for a handful of tenants; this
//! harness asks the orthogonal scale question — fix the workload *per*
//! tenant and grow the tenant count into the thousands. A campaign:
//!
//! 1. starts one framework (super cluster + operator + syncer) on a
//!    [`SimClock`],
//! 2. onboards `tenants` control planes in one wave and measures the
//!    resident-set growth (bytes per tenant),
//! 3. drives churn rounds: a deploy wave across every tenant, a rolling
//!    update (annotation bump on every pod), tenant onboarding/teardown
//!    churn, and a delete wave,
//! 4. compresses an hour-scale maintenance window (scanner passes, vNode
//!    heartbeat rounds, stats publication) into seconds with
//!    [`SimClock::advance`],
//! 5. reports per-tenant p99 sync latency, aggregate pod throughput, RSS
//!    per tenant, and metric-registry cell counts.
//!
//! Only the syncer's *timers* run on virtual time (scan cadence,
//! heartbeat interval, retry backoff, breaker windows); the data-flow
//! threads (informers, scheduler, kubelets) run on wall time, so
//! per-tenant sync latency comes from the syncer's own
//! `tenant_sync_duration` histograms — measured with real instants in the
//! workers — rather than from object timestamps, which are meaningless
//! under a compressed clock.
//!
//! The campaign doubles as the regression harness for the O(tenants)
//! hot-path fixes that landed with it (prefix-indexed super→tenant
//! resolution, indexed heartbeat broadcast, one-pass dashboard
//! aggregation, metric-cell reclamation on teardown): `bench_gate` holds
//! floors on tenants-per-GiB and p99 headroom from this harness's
//! artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_api::pod::Pod;
use vc_api::time::SimClock;
use vc_client::Client;
use vc_controllers::ClusterConfig;
use vc_core::framework::{minimal_tenant_template, Framework, FrameworkConfig};
use vc_core::syncer::SyncerConfig;
use vc_core::vc_object::{VirtualCluster, VirtualClusterSpec};
use vc_obs::MetricsRegistry;

use crate::load::stress_pod;
use crate::report::percentile;

/// Annotation bumped by the rolling-update wave.
const REVISION_ANNOTATION: &str = "scale.virtualcluster.dev/revision";

/// Generator threads used for create/update/delete waves.
const WAVE_WORKERS: usize = 32;

/// Knobs for one density campaign. Every field has a `VC_SCALE_*`
/// environment override so CI can run a reduced campaign and a developer
/// can push past the defaults without recompiling.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Tenant control planes to onboard (`VC_SCALE_TENANTS`, default 1000).
    pub tenants: usize,
    /// Pods each tenant deploys per churn round (`VC_SCALE_PODS`,
    /// default 2).
    pub pods_per_tenant: usize,
    /// Churn rounds (`VC_SCALE_ROUNDS`, default 2).
    pub churn_rounds: usize,
    /// Tenants onboarded + torn down per churn round
    /// (`VC_SCALE_CHURN`, default 25).
    pub churn_tenants: usize,
    /// Simulated maintenance window in minutes crossed with
    /// [`SimClock::advance`] (`VC_SCALE_SIM_MINUTES`, default 60).
    pub sim_minutes: u64,
    /// Per-tenant p99 sync-latency target in milliseconds; the
    /// `p99_headroom` gate ratio is `target / worst` (`VC_SCALE_TARGET_P99_MS`,
    /// default 500).
    pub target_p99_ms: u64,
    /// Mock super-cluster nodes (`VC_SCALE_NODES`, default 20).
    pub mock_nodes: u32,
    /// Operator reconcile workers provisioning tenants concurrently
    /// (`VC_SCALE_ONBOARD_WORKERS`, default 4; set 1 to measure the old
    /// serial onboarding path).
    pub onboard_workers: usize,
    /// Sync every default downward kind instead of pods and namespaces
    /// only (`VC_SCALE_ALL_KINDS=1`): ten syncer informers per tenant
    /// instead of two, which is what a tenant costs under
    /// `SyncerConfig::default()`.
    pub all_kinds: bool,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            tenants: 1000,
            pods_per_tenant: 2,
            churn_rounds: 2,
            churn_tenants: 25,
            sim_minutes: 60,
            target_p99_ms: 500,
            mock_nodes: 20,
            onboard_workers: 4,
            all_kinds: false,
        }
    }
}

impl ScaleConfig {
    /// Defaults with `VC_SCALE_*` environment overrides applied.
    pub fn from_env() -> Self {
        let d = ScaleConfig::default();
        ScaleConfig {
            tenants: env_parse("VC_SCALE_TENANTS", d.tenants),
            pods_per_tenant: env_parse("VC_SCALE_PODS", d.pods_per_tenant),
            churn_rounds: env_parse("VC_SCALE_ROUNDS", d.churn_rounds),
            churn_tenants: env_parse("VC_SCALE_CHURN", d.churn_tenants),
            sim_minutes: env_parse("VC_SCALE_SIM_MINUTES", d.sim_minutes),
            target_p99_ms: env_parse("VC_SCALE_TARGET_P99_MS", d.target_p99_ms),
            mock_nodes: env_parse("VC_SCALE_NODES", d.mock_nodes),
            onboard_workers: env_parse("VC_SCALE_ONBOARD_WORKERS", d.onboard_workers),
            all_kinds: env_parse("VC_SCALE_ALL_KINDS", u8::from(d.all_kinds)) != 0,
        }
    }
}

/// One measured rung of the density ladder.
#[derive(Debug, Clone)]
pub struct DensityPoint {
    /// Tenants onboarded (excluding churn tenants).
    pub tenants: usize,
    /// Downward reconciles completed over the whole campaign
    /// (creates + updates + deletes).
    pub pods_synced: u64,
    /// Wall time to onboard all tenants.
    pub onboard_wall: Duration,
    /// Wall time across all deploy waves (submission → every pod Ready in
    /// its tenant).
    pub deploy_wall: Duration,
    /// Wall time across rolling-update, delete and tenant-churn waves.
    pub churn_wall: Duration,
    /// Wall time to cross the simulated maintenance window.
    pub maintenance_wall: Duration,
    /// Virtual time crossed during the maintenance window.
    pub sim_compressed: Duration,
    /// Process RSS before the framework handled any tenant.
    pub rss_before: u64,
    /// Process RSS after the onboarding wave.
    pub rss_after_onboard: u64,
    /// Process RSS at campaign end.
    pub rss_final: u64,
    /// Worst per-tenant downward-sync p99 (µs).
    pub worst_p99_us: u64,
    /// Median per-tenant downward-sync p99 (µs).
    pub median_p99_us: u64,
    /// Tenants with at least one measured sync.
    pub measured_tenants: usize,
    /// Pods driven to Ready per wall-clock second across deploy waves.
    pub throughput_pods_per_s: f64,
    /// Syncer informer-cache footprint at campaign end.
    pub cache_bytes: usize,
    /// Metric-registry cells at campaign end.
    pub metric_cells: usize,
    /// Registry cells right before the final churn teardown…
    pub cells_before_teardown: usize,
    /// …and right after it — must shrink, or teardown leaks label space.
    pub cells_after_teardown: usize,
}

impl DensityPoint {
    /// Tenants provisioned per wall-clock second during the onboarding
    /// wave — the parallel-onboarding win shows up here.
    pub fn onboard_rate(&self) -> f64 {
        self.tenants as f64 / self.onboard_wall.as_secs_f64().max(1e-9)
    }

    /// Onboarding RSS growth attributed to each tenant.
    pub fn bytes_per_tenant(&self) -> u64 {
        self.rss_after_onboard.saturating_sub(self.rss_before) / self.tenants.max(1) as u64
    }

    /// Tenants carried per GiB of onboarding RSS growth — the density
    /// gate ratio (higher is better; the inverse of a bytes-per-tenant
    /// ceiling, inverted so the gate's measured-must-be-≥ semantics
    /// apply).
    pub fn tenants_per_gib(&self) -> f64 {
        let gib =
            self.rss_after_onboard.saturating_sub(self.rss_before) as f64 / (1u64 << 30) as f64;
        if gib <= 0.0 {
            return 0.0;
        }
        self.tenants as f64 / gib
    }

    /// `target / worst-tenant-p99` — ≥ 1.0 means every tenant met the
    /// latency target at this density (higher is better).
    pub fn p99_headroom(&self, target_p99_ms: u64) -> f64 {
        (target_p99_ms * 1_000) as f64 / self.worst_p99_us.max(1) as f64
    }
}

/// Resident-set size of this process in bytes, from `/proc/self/status`
/// `VmRSS`. Returns 0 when unavailable (non-Linux), which disables the
/// memory-density ratios rather than failing the campaign.
pub fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Waits for `pred` while keeping virtual time flowing, so sim-clock
/// timers (retry backoff, breaker windows, heartbeat and scan cadence)
/// keep firing during real-time waits. Advances ~20 virtual seconds per
/// real second.
fn settle(
    clock: &Arc<SimClock>,
    deadline: Duration,
    poll: Duration,
    mut pred: impl FnMut() -> bool,
) -> bool {
    let start = Instant::now();
    loop {
        if pred() {
            return true;
        }
        if start.elapsed() >= deadline {
            return pred();
        }
        clock.advance(Duration::from_secs(1));
        std::thread::sleep(poll);
    }
}

/// Runs `f(tenant)` for every name on a bounded worker pool.
fn wave<F: Fn(&str) + Sync>(names: &[String], f: F) {
    if names.is_empty() {
        return;
    }
    let chunk = names.len().div_ceil(WAVE_WORKERS).max(1);
    std::thread::scope(|scope| {
        for part in names.chunks(chunk) {
            let f = &f;
            scope.spawn(move || {
                for name in part {
                    f(name);
                }
            });
        }
    });
}

fn ready_pods(clients: &[Client]) -> usize {
    clients
        .iter()
        .map(|c| {
            c.list(ResourceKind::Pod, Some("default"))
                .map(|(pods, _)| {
                    pods.iter().filter(|p| p.as_pod().is_some_and(|p| p.status.is_ready())).count()
                })
                .unwrap_or(0)
        })
        .sum()
}

/// Creates `count` VC objects named `{stem}-{i}` in one wave and waits
/// for the operator to provision them all. Returns the names.
fn onboard_wave(fw: &Framework, clock: &Arc<SimClock>, stem: &str, count: usize) -> Vec<String> {
    let admin = fw.super_client("vc-admin");
    let names: Vec<String> = (0..count).map(|i| format!("{stem}-{i:04}")).collect();
    let target = fw.registry.len() + count;
    for name in &names {
        admin
            .create(
                VirtualCluster::new(VirtualClusterSpec::default()).into_custom_object(name).into(),
            )
            .expect("create VC object");
    }
    let deadline = Duration::from_secs(60) + Duration::from_millis(count as u64 * 200);
    let ok = settle(clock, deadline, Duration::from_millis(20), || fw.registry.len() >= target);
    assert!(ok, "onboarding stalled: {}/{} tenants provisioned", fw.registry.len(), target);
    names
}

/// Drives one full density campaign and returns its measurements.
///
/// # Panics
///
/// Panics when a wave misses its (generous) deadline — the harness treats
/// that as an experiment failure, mirroring [`crate::load`].
pub fn run_density_campaign(cfg: &ScaleConfig) -> DensityPoint {
    let clock = SimClock::new();
    let mut fc = FrameworkConfig {
        super_cluster: ClusterConfig::super_cluster("super").with_zero_latency(),
        mock_nodes: cfg.mock_nodes,
        syncer: if cfg.all_kinds { SyncerConfig::default() } else { SyncerConfig::pods_only() },
        ..Default::default()
    };
    fc.clock = Some(clock.clone() as _);
    fc.operator.tenant_template = minimal_tenant_template();
    fc.operator.cloud_provision_latency = Duration::ZERO;
    fc.operator.onboard_workers = cfg.onboard_workers.max(1);
    let fw = Framework::start(fc);

    let rss_before = rss_bytes();

    // Phase 1 — onboarding wave.
    let start = Instant::now();
    let tenants = onboard_wave(&fw, &clock, "scale", cfg.tenants);
    let onboard_wall = start.elapsed();
    let rss_after_onboard = rss_bytes();

    let clients: Vec<Client> = tenants.iter().map(|t| fw.tenant_client(t, "scale-load")).collect();

    let mut deploy_wall = Duration::ZERO;
    let mut churn_wall = Duration::ZERO;
    let mut total_ready = 0usize;
    let mut cells_before_teardown = 0;
    let mut cells_after_teardown = 0;

    for round in 0..cfg.churn_rounds {
        // Phase 2 — deploy wave: every tenant creates its pods; wait for
        // all of them to be Ready *in the tenants* (full down+up sync).
        let start = Instant::now();
        wave(&tenants, |tenant| {
            let client = fw.tenant_client(tenant, "scale-load");
            for p in 0..cfg.pods_per_tenant {
                client
                    .create(stress_pod("default", &format!("stress-{round}-{p}")).into())
                    .expect("create tenant pod");
            }
        });
        let target = tenants.len() * cfg.pods_per_tenant;
        let deadline = Duration::from_secs(120) + Duration::from_millis(target as u64 * 50);
        let ok =
            settle(&clock, deadline, Duration::from_millis(50), || ready_pods(&clients) >= target);
        assert!(
            ok,
            "deploy wave {round} stalled: {}/{} ready, downward={}, upward={}",
            ready_pods(&clients),
            target,
            fw.syncer.downward_len(),
            fw.syncer.upward_len(),
        );
        deploy_wall += start.elapsed();
        total_ready += target;

        // Phase 3 — rolling update: bump a revision annotation on every
        // pod, then drain the sync queues.
        let start = Instant::now();
        wave(&tenants, |tenant| {
            let client = fw.tenant_client(tenant, "scale-load");
            for p in 0..cfg.pods_per_tenant {
                let name = format!("stress-{round}-{p}");
                let Ok(obj) = client.get(ResourceKind::Pod, "default", &name) else { continue };
                let Ok(mut pod) = Pod::try_from(obj) else { continue };
                pod.meta.annotations.insert(REVISION_ANNOTATION.into(), format!("r{round}"));
                let _ = client.update(pod.into());
            }
        });
        settle(&clock, Duration::from_secs(120), Duration::from_millis(50), || {
            fw.syncer.downward_len() == 0 && fw.syncer.upward_len() == 0
        });

        // Phase 4 — tenant churn: onboard a fresh batch, give each one
        // pod, then tear the batch down again. Registry cells around the
        // last teardown prove metric label space is reclaimed.
        let churners = onboard_wave(&fw, &clock, &format!("churn-{round}"), cfg.churn_tenants);
        wave(&churners, |tenant| {
            let client = fw.tenant_client(tenant, "scale-load");
            client.create(stress_pod("default", "churn-pod").into()).expect("create churn pod");
        });
        let churn_clients: Vec<Client> =
            churners.iter().map(|t| fw.tenant_client(t, "scale-load")).collect();
        settle(&clock, Duration::from_secs(120), Duration::from_millis(50), || {
            ready_pods(&churn_clients) >= churners.len()
        });
        let last_round = round + 1 == cfg.churn_rounds;
        if last_round {
            cells_before_teardown = fw.obs().registry.cell_count();
        }
        for tenant in &churners {
            fw.delete_tenant(tenant).expect("churn teardown");
        }
        if last_round {
            cells_after_teardown = fw.obs().registry.cell_count();
        }

        // Phase 5 — delete wave: remove the round's pods everywhere and
        // wait for the super side to drain back to empty.
        wave(&tenants, |tenant| {
            let client = fw.tenant_client(tenant, "scale-load");
            for p in 0..cfg.pods_per_tenant {
                let _ = client.delete(ResourceKind::Pod, "default", &format!("stress-{round}-{p}"));
            }
        });
        settle(&clock, Duration::from_secs(120), Duration::from_millis(50), || {
            clients.iter().all(|c| {
                c.list(ResourceKind::Pod, Some("default"))
                    .map(|(p, _)| p.is_empty())
                    .unwrap_or(true)
            })
        });
        churn_wall += start.elapsed();
    }

    // Phase 6 — maintenance window: cross `sim_minutes` of virtual time
    // in scan-interval steps. Every step fires scanner passes, vNode
    // heartbeat rounds and stats publication that would take an hour on
    // the wall clock.
    let sim_compressed = Duration::from_secs(cfg.sim_minutes * 60);
    let step = Duration::from_secs(60);
    let start = Instant::now();
    let mut crossed = Duration::ZERO;
    while crossed < sim_compressed {
        clock.advance(step);
        crossed += step;
        std::thread::sleep(Duration::from_millis(3));
    }
    let maintenance_wall = start.elapsed();

    // Phase 7 — collect.
    let mut p99s: Vec<u64> = Vec::with_capacity(tenants.len());
    for tenant in &tenants {
        if let Some(stats) = fw.syncer.tenant_stats(tenant) {
            if stats.synced_objects > 0 {
                p99s.push(stats.sync_p99_us);
            }
        }
    }
    let snap = fw.syncer.metrics.snapshot();
    let point = DensityPoint {
        tenants: tenants.len(),
        pods_synced: snap.downward_creates + snap.downward_updates + snap.downward_deletes,
        onboard_wall,
        deploy_wall,
        churn_wall,
        maintenance_wall,
        sim_compressed,
        rss_before,
        rss_after_onboard,
        rss_final: rss_bytes(),
        worst_p99_us: p99s.iter().copied().max().unwrap_or(0),
        median_p99_us: percentile(&p99s, 0.5),
        measured_tenants: p99s.len(),
        throughput_pods_per_s: total_ready as f64 / deploy_wall.as_secs_f64().max(1e-9),
        cache_bytes: fw.syncer.cache_bytes(),
        metric_cells: fw.obs().registry.cell_count(),
        cells_before_teardown,
        cells_after_teardown,
    };
    fw.shutdown();
    point
}

/// Records a density point into `registry` under `vc_scale_*` families,
/// including the two `vc_scale_bench_improvement_x10` ratios `bench_gate`
/// holds floors on (`tenants_per_gib`, `p99_headroom`).
pub fn record_density_metrics(registry: &MetricsRegistry, cfg: &ScaleConfig, p: &DensityPoint) {
    let gauge = |name, help: &str, labels: &[&str]| registry.gauge(name, help, labels);
    gauge("vc_scale_tenants", "Tenants onboarded in the density campaign.", &[])
        .with(&[])
        .set(p.tenants as i64);
    gauge("vc_scale_pods_synced", "Downward reconciles completed over the campaign.", &[])
        .with(&[])
        .set(p.pods_synced as i64);
    let rss = gauge("vc_scale_rss_bytes", "Process RSS at campaign stages.", &["stage"]);
    rss.with(&["before"]).set(p.rss_before as i64);
    rss.with(&["onboarded"]).set(p.rss_after_onboard as i64);
    rss.with(&["final"]).set(p.rss_final as i64);
    gauge("vc_scale_bytes_per_tenant", "Onboarding RSS growth per tenant.", &[])
        .with(&[])
        .set(p.bytes_per_tenant() as i64);
    let p99 = gauge(
        "vc_scale_tenant_p99_us",
        "Per-tenant downward-sync p99 across the fleet (µs).",
        &["stat"],
    );
    p99.with(&["worst"]).set(p.worst_p99_us as i64);
    p99.with(&["median"]).set(p.median_p99_us as i64);
    let onboard = gauge(
        "vc_scale_onboard",
        "Onboarding wave: operator reconcile workers and tenants provisioned per second.",
        &["stat"],
    );
    onboard.with(&["workers"]).set(cfg.onboard_workers as i64);
    onboard.with(&["tenants_per_s"]).set(p.onboard_rate() as i64);
    let wall = gauge("vc_scale_wall_ms", "Wall time per campaign phase.", &["phase"]);
    wall.with(&["onboard"]).set(p.onboard_wall.as_millis() as i64);
    wall.with(&["deploy"]).set(p.deploy_wall.as_millis() as i64);
    wall.with(&["churn"]).set(p.churn_wall.as_millis() as i64);
    wall.with(&["maintenance"]).set(p.maintenance_wall.as_millis() as i64);
    gauge("vc_scale_sim_compressed_s", "Virtual seconds crossed during maintenance.", &[])
        .with(&[])
        .set(p.sim_compressed.as_secs() as i64);
    gauge("vc_scale_throughput_pods_per_s", "Pods driven Ready per second (deploy waves).", &[])
        .with(&[])
        .set(p.throughput_pods_per_s as i64);
    gauge("vc_scale_cache_bytes", "Syncer informer-cache footprint at campaign end.", &[])
        .with(&[])
        .set(p.cache_bytes as i64);
    let cells = gauge("vc_scale_metric_cells", "Metric-registry cells.", &["stage"]);
    cells.with(&["final"]).set(p.metric_cells as i64);
    cells.with(&["before_teardown"]).set(p.cells_before_teardown as i64);
    cells.with(&["after_teardown"]).set(p.cells_after_teardown as i64);

    let improvement = registry.gauge(
        "vc_scale_bench_improvement_x10",
        "Density ratios (x10, integer) checked by bench_gate: tenants per \
         GiB of onboarding RSS, and target-p99 / worst-tenant-p99.",
        &["metric"],
    );
    improvement.with(&["tenants_per_gib"]).set((p.tenants_per_gib() * 10.0) as i64);
    improvement.with(&["p99_headroom"]).set((p.p99_headroom(cfg.target_p99_ms) * 10.0) as i64);
}

/// Prints the density-table header the `vc_scale` bin emits.
pub fn print_density_header() {
    println!(
        "  {:>7} {:>9} {:>11} {:>10} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "tenants",
        "RSS MiB",
        "KiB/tenant",
        "p99 worst",
        "p99 med",
        "pods/s",
        "onboard",
        "churn",
        "1h maint",
    );
}

/// Prints one density-table row.
pub fn print_density_row(p: &DensityPoint) {
    println!(
        "  {:>7} {:>9.1} {:>11.1} {:>8}ms {:>8}ms {:>9.0} {:>8.1}s {:>9.1}s {:>8.1}s",
        p.tenants,
        p.rss_after_onboard.saturating_sub(p.rss_before) as f64 / (1024.0 * 1024.0),
        p.bytes_per_tenant() as f64 / 1024.0,
        p.worst_p99_us / 1000,
        p.median_p99_us / 1000,
        p.throughput_pods_per_s,
        p.onboard_wall.as_secs_f64(),
        p.churn_wall.as_secs_f64(),
        p.maintenance_wall.as_secs_f64(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-N density smoke: the full campaign pipeline (onboard, deploy,
    /// rolling update, tenant churn, delete, compressed maintenance
    /// window, collection) completes at ~40 tenants, measures latency for
    /// every tenant, and reclaims metric label space on churn teardown.
    #[test]
    fn small_density_campaign_completes_and_reclaims_cells() {
        let cfg = ScaleConfig {
            tenants: 40,
            pods_per_tenant: 1,
            churn_rounds: 1,
            churn_tenants: 4,
            sim_minutes: 2,
            target_p99_ms: 500,
            mock_nodes: 4,
            onboard_workers: 4,
            all_kinds: false,
        };
        let point = run_density_campaign(&cfg);
        assert_eq!(point.tenants, 40);
        assert_eq!(point.measured_tenants, 40, "every tenant must have measured syncs");
        assert!(point.worst_p99_us > 0);
        assert!(point.pods_synced >= 40, "deploy wave must sync through the syncer");
        assert!(point.throughput_pods_per_s > 0.0);
        assert_eq!(point.sim_compressed, Duration::from_secs(120));
        // Teardown of the churn batch must shrink the registry's label
        // space — the leak this campaign was built to catch.
        assert!(
            point.cells_after_teardown < point.cells_before_teardown,
            "churn teardown must reclaim metric cells ({} -> {})",
            point.cells_before_teardown,
            point.cells_after_teardown,
        );
        // RSS accounting is Linux-only; when present the ratios must be
        // finite and positive.
        if point.rss_before > 0 {
            assert!(point.tenants_per_gib() > 0.0);
        }
    }
}
