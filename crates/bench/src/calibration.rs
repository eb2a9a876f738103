//! Calibrated configurations reproducing the paper's evaluation
//! environment (§IV).
//!
//! The paper's testbed is two 96-core bare-metal machines running
//! Kubernetes 1.18 with 100 virtual kubelets. Absolute service times here
//! are chosen so the simulated substrate exhibits the same *rates* the
//! paper reports:
//!
//! * super-cluster scheduler: sequential, ~690 pods/s on an empty cluster
//!   declining to ~540 pods/s at 10k bound pods (paper: "throughput peaked
//!   at a few hundred Pods per second"; the Fig 9(b) baseline declines
//!   from ~680 to ~550),
//! * syncer downward path: 20 workers × ~45 ms/item ≈ 445 items/s, the
//!   secondary bottleneck producing VC's flat throughput and the dominant
//!   DWS-Queue delay of Fig 8,
//! * syncer upward path: 100 workers × ~150 ms/item ≈ 666 items/s, above
//!   the downstream pod completion rate but queueing under status-update
//!   bursts (the UWS-Queue share of Fig 8).

use std::time::Duration;
use vc_controllers::scheduler::SchedulerConfig;
use vc_controllers::ClusterConfig;
use vc_core::framework::{minimal_tenant_template, FrameworkConfig};
use vc_core::syncer::SyncerConfig;

/// Scheduler settings calibrated to the paper's super cluster.
pub fn paper_scheduler() -> SchedulerConfig {
    SchedulerConfig {
        // The binding round-trip (get + CAS update), node scoring and
        // state-lock contention add ~0.9 ms of real work on top of this
        // inside the same sequential worker; the effective rate is ~660
        // pods/s on an empty cluster, declining to ~550 pods/s at 10k
        // bound pods — the paper's Fig 9(b) baseline series.
        service_time: Duration::from_micros(600),
        service_time_per_kpod: Duration::from_micros(65),
    }
}

/// Syncer settings calibrated to the paper's syncer deployment (100
/// upward workers).
pub fn paper_syncer(downward_workers: usize, fair: bool) -> SyncerConfig {
    SyncerConfig {
        downward_workers,
        upward_workers: 100,
        fair_queuing: fair,
        scan_interval: Some(Duration::from_secs(60)),
        // 20 workers x 45 ms => ~445 items/s downward capacity: the
        // syncer-side bottleneck giving VC its flat ~430-460 pods/s
        // (Fig 9) and the dominant DWS-Queue share (Fig 8).
        downward_process_cost: Duration::from_millis(45),
        // 100 workers x 150 ms => ~666 status updates/s: enough headroom
        // over the ~445 pods/s completion rate (after dedup), but slow
        // enough that bursts of status updates queue visibly (the UWS-
        // Queue share of Fig 8).
        upward_process_cost: Duration::from_millis(150),
        ..SyncerConfig::pods_only()
    }
}

/// Super-cluster config used by both VirtualCluster and baseline runs.
pub fn paper_super_cluster(name: &str) -> ClusterConfig {
    let mut config = ClusterConfig::super_cluster(name);
    config.scheduler = Some(paper_scheduler());
    // The stress workloads create pods directly; skip controllers that
    // only add noise to the measurement.
    config.workload_controllers = false;
    config.service_controller = false;
    config.garbage_collector = false;
    config.volume_binder = false;
    config.node_lifecycle = false;
    config
}

/// Full framework config for a VirtualCluster run on the paper's 100
/// virtual kubelets.
pub fn paper_framework(downward_workers: usize, fair: bool) -> FrameworkConfig {
    let mut config = FrameworkConfig {
        super_cluster: paper_super_cluster("super"),
        mock_nodes: 100,
        syncer: paper_syncer(downward_workers, fair),
        ..Default::default()
    };
    config.operator.cloud_provision_latency = Duration::ZERO;
    config.operator.tenant_template = minimal_tenant_template();
    config
}

/// A paper pod count at `percent` % (at least one pod): the figure
/// harnesses run at `VC_BENCH_SCALE` % ([`crate::env::scale_percent`]).
pub fn scaled(pods: usize, percent: usize) -> usize {
    (pods * percent / 100).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_are_in_the_hundreds() {
        let sched = paper_scheduler();
        // The raw service time excludes ~0.9ms of real binding work; the
        // EFFECTIVE empty-cluster rate is 1/(raw + 0.9ms) ≈ 660/s.
        let effective = 1.0 / (sched.service_time.as_secs_f64() + 0.0009);
        assert!((500.0..800.0).contains(&effective), "{effective}");
        let syncer = paper_syncer(20, true);
        let downward_rate =
            syncer.downward_workers as f64 / syncer.downward_process_cost.as_secs_f64();
        assert!((400.0..700.0).contains(&downward_rate), "{downward_rate}");
        let upward_rate = syncer.upward_workers as f64 / syncer.upward_process_cost.as_secs_f64();
        assert!(upward_rate > downward_rate, "upward must outpace downward");
    }

    #[test]
    fn scaling_bounds() {
        assert_eq!(scaled(10_000, 100), 10_000);
        assert_eq!(scaled(10_000, 2), 200);
        assert_eq!(scaled(10, 1), 1, "floors at one pod");
    }
}
