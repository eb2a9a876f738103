//! Abuse-containment campaign: quantifies how much an adversarial tenant
//! can degrade its co-tenants, and how completely the admission policy
//! engine rejects its escalation attempts.
//!
//! One campaign:
//!
//! 1. starts a framework with the tenant-isolation admission policy
//!    installed, onboards `victims` well-behaved tenants plus one hostile
//!    tenant;
//! 2. measures the victims' quiet-phase downward-sync p99 (per-pod
//!    create → visible-in-super latency);
//! 3. unleashes the hostile tenant — a watch storm over its own control
//!    plane, a LIST flood, a wave of policy-violating objects (host-path
//!    mounts, privileged containers, oversized payloads) — and measures
//!    the victims' p99 again while the attack runs;
//! 4. reports two gate ratios:
//!    * `abuse_p99_headroom` — `target_p99 / attack_p99`: how far under
//!      their latency target the victims stayed *while the attack ran*
//!      (≥ 1.0 means the attack never pushed them past the target; the
//!      same absolute-SLO shape as `vc_scale`'s `p99_headroom`);
//!    * `admission_reject_rate` — fraction of the hostile tenant's
//!      policy-violating objects that were kept out of the super cluster.
//!
//! `bench_gate` holds floors on both from the committed baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_api::object::ResourceKind;
use vc_api::pod::{Container, Pod};
use vc_client::Client;
use vc_controllers::util::wait_until;
use vc_core::framework::{Framework, FrameworkConfig};
use vc_core::mapping;
use vc_obs::MetricsRegistry;

use crate::report::percentile;

/// Sizes of one abuse campaign: the defaults, or the `vc_abuse` row of
/// CI's reduced rung ([`crate::experiments::CI`]).
#[derive(Debug, Clone)]
pub struct AbuseConfig {
    /// Well-behaved tenants measured as victims (default 4).
    pub victims: usize,
    /// Pods each victim deploys per measurement phase (default 25).
    pub pods_per_victim: usize,
    /// Hostile watch streams held open (default 64).
    pub watchers: usize,
    /// Hostile LIST-flood threads (default 8).
    pub flooders: usize,
    /// Policy-violating objects the hostile tenant submits (default 60).
    pub hostile_objects: usize,
    /// Victims' per-pod sync-p99 target in milliseconds while the attack
    /// runs; the `abuse_p99_headroom` gate ratio is `target / attack_p99`
    /// (default 500).
    pub target_p99_ms: u64,
}

impl Default for AbuseConfig {
    fn default() -> Self {
        AbuseConfig {
            victims: 4,
            pods_per_victim: 25,
            watchers: 64,
            flooders: 8,
            hostile_objects: 60,
            target_p99_ms: 500,
        }
    }
}

/// Results of one abuse campaign.
#[derive(Debug, Clone)]
pub struct AbusePoint {
    /// Victims' per-pod sync p99 with the hostile tenant idle (µs).
    pub quiet_p99_us: u64,
    /// Victims' per-pod sync p99 while the attack ran (µs).
    pub attack_p99_us: u64,
    /// Policy-violating objects the hostile tenant submitted.
    pub hostile_submitted: usize,
    /// Of those, how many were kept out of the super cluster.
    pub hostile_contained: usize,
    /// `vc_admission_rejections_total` across all rules at campaign end.
    pub admission_rejections: u64,
    /// Syncer items dead-lettered via the policy fast path.
    pub policy_blocked: u64,
    /// Victims' p99 target under attack the campaign ran with (ms).
    pub target_p99_ms: u64,
}

impl AbusePoint {
    /// Degradation the victims actually saw (attack p99 / quiet p99).
    pub fn degradation(&self) -> f64 {
        self.attack_p99_us as f64 / self.quiet_p99_us.max(1) as f64
    }

    /// `target / attack_p99` — how far under their latency target the
    /// victims stayed while the attack ran.
    pub fn p99_headroom(&self) -> f64 {
        (self.target_p99_ms * 1000) as f64 / self.attack_p99_us.max(1) as f64
    }

    /// Fraction of hostile objects kept out of the super cluster.
    pub fn reject_rate(&self) -> f64 {
        if self.hostile_submitted == 0 {
            return 1.0;
        }
        self.hostile_contained as f64 / self.hostile_submitted as f64
    }
}

/// One victim tenant: a client plus its super-cluster namespace.
struct Victim {
    client: Client,
    super_ns: String,
}

/// Measures the victims' per-pod create→in-super p99. Victims run in
/// parallel (one thread each), pods within a victim sequentially.
fn victim_p99_us(fw: &Framework, victims: &[Victim], count: usize, tag: &str) -> u64 {
    let handles: Vec<_> = victims
        .iter()
        .map(|v| {
            let client = v.client.clone();
            let super_ns = v.super_ns.clone();
            let admin = fw.super_client("vc-bench");
            let tag = tag.to_string();
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(count);
                for i in 0..count {
                    let name = format!("{tag}-{i}");
                    let start = Instant::now();
                    client
                        .create(
                            Pod::new("default", &name)
                                .with_container(Container::new("c", "img"))
                                .into(),
                        )
                        .expect("victim create");
                    let deadline = Instant::now() + Duration::from_secs(120);
                    while admin.get(ResourceKind::Pod, &super_ns, &name).is_err() {
                        assert!(Instant::now() < deadline, "victim pod {name} never synced");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    lat.push(start.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("victim thread"));
    }
    percentile(&all, 0.99)
}

/// A policy-violating object for slot `i`: rotates through host-path
/// mounts, privileged containers, host namespaces, and oversized
/// payloads.
fn hostile_pod(i: usize) -> Pod {
    let base = Pod::new("default", format!("hostile-{i}"));
    match i % 4 {
        0 => base.with_container(Container::new("c", "img")).with_host_path("/var/run/docker.sock"),
        1 => base.with_container(Container::new("c", "img").privileged()),
        2 => base.with_container(Container::new("c", "img")).with_host_network().with_host_pid(),
        _ => {
            let mut pod = base.with_container(Container::new("c", "img"));
            pod.meta.annotations.insert("payload".into(), "x".repeat(512 * 1024));
            pod
        }
    }
}

/// Runs one abuse campaign.
pub fn run_abuse_campaign(cfg: &AbuseConfig) -> AbusePoint {
    let fw = Framework::start(FrameworkConfig::minimal());
    fw.enforce_tenant_isolation();

    let victims: Vec<Victim> = (0..cfg.victims)
        .map(|i| {
            let name = format!("victim-{i}");
            let handle = fw.create_tenant(&name).expect("victim tenant");
            Victim {
                client: fw.tenant_client(&name, "good-user"),
                super_ns: mapping::tenant_ns_to_super(&handle.prefix, "default"),
            }
        })
        .collect();
    let hostile_handle = fw.create_tenant("hostile").expect("hostile tenant");
    let hostile = fw.tenant_client("hostile", "mallory");
    let hostile_super_ns = mapping::tenant_ns_to_super(&hostile_handle.prefix, "default");

    // Quiet phase.
    let quiet_p99_us = victim_p99_us(&fw, &victims, cfg.pods_per_victim, "quiet");

    // Attack phase: watch storm + churn, list flood, policy-violating
    // spam — all concurrent with the victims' measured deploys.
    let streams: Vec<_> = (0..cfg.watchers)
        .map(|_| hostile.watch(ResourceKind::Pod, Some("default"), 0).expect("hostile watch"))
        .collect();
    for i in 0..30 {
        let _ = hostile.create(
            Pod::new("default", format!("noisy-{i}"))
                .with_container(Container::new("c", "img"))
                .into(),
        );
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut attackers = Vec::new();
    {
        let hostile = hostile.clone();
        let stop = Arc::clone(&stop);
        attackers.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                round += 1;
                for i in 0..30 {
                    if let Ok(obj) =
                        hostile.get(ResourceKind::Pod, "default", &format!("noisy-{i}"))
                    {
                        let mut pod = (*obj).clone();
                        pod.meta_mut().annotations.insert("storm".into(), round.to_string());
                        let _ = hostile.update(pod);
                    }
                }
            }
        }));
    }
    for _ in 0..cfg.flooders {
        let hostile = hostile.clone();
        let stop = Arc::clone(&stop);
        attackers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = hostile.list(ResourceKind::Pod, Some("default"));
            }
        }));
    }
    {
        let count = cfg.hostile_objects;
        attackers.push(std::thread::spawn(move || {
            for i in 0..count {
                let _ = hostile.create(hostile_pod(i).into());
            }
        }));
    }

    let attack_p99_us = victim_p99_us(&fw, &victims, cfg.pods_per_victim, "attacked");
    stop.store(true, Ordering::Relaxed);
    for a in attackers {
        a.join().expect("attacker thread");
    }
    drop(streams);

    // Give the syncer a moment to finish classifying the hostile wave,
    // then count containment.
    let expected = cfg.hostile_objects as u64;
    wait_until(Duration::from_secs(120), Duration::from_millis(50), || {
        fw.syncer.metrics.snapshot().policy_blocked >= expected
    });
    let admin = fw.super_client("vc-bench");
    let leaked = admin
        .list(ResourceKind::Pod, Some(&hostile_super_ns))
        .map(|(pods, _)| pods.iter().filter(|p| p.meta().name.starts_with("hostile-")).count())
        .unwrap_or(0);
    let snapshot = fw.syncer.metrics.snapshot();
    let admission_rejections = admission_rejection_total(&fw.obs().registry);

    let point = AbusePoint {
        quiet_p99_us,
        attack_p99_us,
        hostile_submitted: cfg.hostile_objects,
        hostile_contained: cfg.hostile_objects - leaked.min(cfg.hostile_objects),
        admission_rejections,
        policy_blocked: snapshot.policy_blocked,
        target_p99_ms: cfg.target_p99_ms,
    };
    fw.shutdown();
    point
}

/// Sums `vc_admission_rejections_total` across all `{rule, tenant}` cells.
fn admission_rejection_total(registry: &MetricsRegistry) -> u64 {
    registry
        .snapshot()
        .family("vc_admission_rejections_total")
        .map(|f| f.cells.iter().map(|c| c.value.max(0) as u64).sum())
        .unwrap_or(0)
}

/// Records the campaign's metrics, including the two
/// `vc_abuse_bench_improvement_x10` ratios `bench_gate` holds floors on.
pub fn record_abuse_metrics(registry: &MetricsRegistry, p: &AbusePoint) {
    let p99 = registry.gauge(
        "vc_abuse_victim_p99_us",
        "Victims' per-pod downward-sync p99 by campaign phase (µs).",
        &["phase"],
    );
    p99.with(&["quiet"]).set(p.quiet_p99_us as i64);
    p99.with(&["attack"]).set(p.attack_p99_us as i64);
    let hostile = registry.gauge(
        "vc_abuse_hostile_objects",
        "Policy-violating objects the hostile tenant submitted vs kept out \
         of the super cluster.",
        &["stat"],
    );
    hostile.with(&["submitted"]).set(p.hostile_submitted as i64);
    hostile.with(&["contained"]).set(p.hostile_contained as i64);
    registry
        .gauge(
            "vc_abuse_admission_rejections",
            "Admission rejections recorded during the campaign (all rules).",
            &[],
        )
        .with(&[])
        .set(p.admission_rejections as i64);
    registry
        .gauge(
            "vc_abuse_policy_blocked",
            "Syncer items dead-lettered via the policy fast path.",
            &[],
        )
        .with(&[])
        .set(p.policy_blocked as i64);

    let improvement = registry.gauge(
        "vc_abuse_bench_improvement_x10",
        "Abuse-containment ratios (x10, integer) checked by bench_gate: \
         victims' p99-target headroom while the attack ran, and the \
         fraction of hostile objects kept out of the super cluster.",
        &["metric"],
    );
    improvement.with(&["abuse_p99_headroom"]).set((p.p99_headroom() * 10.0) as i64);
    improvement.with(&["admission_reject_rate"]).set((p.reject_rate() * 10.0) as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_behave() {
        let p = AbusePoint {
            quiet_p99_us: 1000,
            attack_p99_us: 2000,
            hostile_submitted: 10,
            hostile_contained: 10,
            admission_rejections: 10,
            policy_blocked: 10,
            target_p99_ms: 500,
        };
        assert!((p.degradation() - 2.0).abs() < 1e-9);
        assert!((p.p99_headroom() - 250.0).abs() < 1e-9);
        assert!((p.reject_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_campaign_contains_the_attack() {
        let cfg = AbuseConfig {
            victims: 1,
            pods_per_victim: 3,
            watchers: 4,
            flooders: 2,
            hostile_objects: 8,
            target_p99_ms: 60_000, // unit test asserts containment, not latency
        };
        let point = run_abuse_campaign(&cfg);
        assert_eq!(point.hostile_contained, cfg.hostile_objects, "no hostile object may leak");
        assert!(point.admission_rejections >= cfg.hostile_objects as u64);
        assert!(point.policy_blocked >= cfg.hostile_objects as u64);
    }
}
