//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Downward worker count** — the paper observes that beyond ~20
//!    workers, adding more does not reduce latency because the super
//!    cluster scheduler caps throughput.
//! 2. **Custom tenant weights** (paper future work, implemented) — tenants
//!    with higher WRR weight receive a proportionally larger share of the
//!    downward bandwidth.
//! 3. **Tenant hibernation** (paper future work, implemented) — syncer
//!    memory for idle tenants and the wake (re-list) cost.
//!
//! Run: `cargo run --release -p vc-bench -- ablations`

use crate::calibration::{paper_framework, scaled};
use crate::load::{provision_tenants, ready_latencies_ms, ready_pods, run_vc_burst, stress_pod};
use crate::report::{heading, mean, paper_vs_measured, percentile};
use std::time::Duration;
use vc_controllers::util::wait_until;
use vc_core::framework::Framework;
use vc_core::vc_object::VirtualClusterSpec;

fn ablation_downward_workers(percent: usize) {
    heading("ablation 1: downward worker count (50 tenants, 5000 pods)");
    println!("  {:<10} {:>10} {:>10} {:>12}", "workers", "wall(s)", "p99(s)", "pods/s");
    let pods = scaled(5_000, percent);
    for workers in [5usize, 10, 20, 40, 80] {
        let fw = Framework::start(paper_framework(workers, true));
        let tenants = provision_tenants(&fw, 50);
        let result = run_vc_burst(&fw, &tenants, pods);
        println!(
            "  {:<10} {:>10.1} {:>10.1} {:>12.0}",
            workers,
            result.wall.as_secs_f64(),
            percentile(&result.latencies_ms, 0.99) as f64 / 1000.0,
            result.throughput()
        );
        fw.shutdown();
    }
    paper_vs_measured(
        "more workers stop helping once the scheduler caps",
        "20 sufficient; more futile",
        "gains flatten near the scheduler rate above",
    );
}

fn ablation_weights(percent: usize) {
    heading("ablation 2: custom tenant weights (paper future work)");
    // Two tenants, weight 4 vs 1, identical simultaneous bursts through a
    // deliberately narrow downward path: service share should follow the
    // weights.
    let mut config = paper_framework(2, true);
    config.syncer.downward_process_cost = Duration::from_millis(40);
    let fw = Framework::start(config);
    fw.create_tenant_with_spec("gold", VirtualClusterSpec { weight: 4, ..Default::default() })
        .unwrap();
    fw.create_tenant_with_spec("bronze", VirtualClusterSpec { weight: 1, ..Default::default() })
        .unwrap();

    let pods = scaled(400, percent);
    std::thread::scope(|scope| {
        for tenant in ["gold", "bronze"] {
            let client = fw.tenant_client(tenant, "load");
            scope.spawn(move || {
                for i in 0..pods {
                    client.create(stress_pod("default", &format!("w{i}")).into()).unwrap();
                }
            });
        }
    });
    let clients = [fw.tenant_client("gold", "obs"), fw.tenant_client("bronze", "obs")];
    assert!(wait_until(Duration::from_secs(600), Duration::from_millis(250), || {
        ready_pods(&clients) >= 2 * pods
    }));
    let avg = |client| mean(&ready_latencies_ms(client));
    let gold = avg(&clients[0]);
    let bronze = avg(&clients[1]);
    println!("  gold  (weight 4) avg creation: {:.1}s", gold / 1000.0);
    println!("  bronze(weight 1) avg creation: {:.1}s", bronze / 1000.0);
    paper_vs_measured(
        "higher weight -> faster service under contention",
        "n/a (future work)",
        &format!("gold {:.1}x faster on average", bronze / gold.max(1.0)),
    );
    fw.shutdown();
}

fn ablation_hibernation(percent: usize) {
    heading("ablation 3: tenant hibernation (paper future work)");
    let tenant_count = 50;
    let fw = Framework::start(paper_framework(20, true));
    let tenants = provision_tenants(&fw, tenant_count);
    let _ = run_vc_burst(&fw, &tenants, scaled(2_000, percent));

    let before = fw.syncer.cache_bytes();
    // Hibernate the 80% of tenants that have gone idle.
    let idle = &tenants[..tenant_count * 4 / 5];
    for tenant in idle {
        assert!(fw.syncer.hibernate_tenant(tenant));
    }
    let after = fw.syncer.cache_bytes();
    println!(
        "  syncer cache: {:.2} MB with all {tenant_count} tenants -> {:.2} MB with {} hibernated ({:.0}% saved)",
        before as f64 / 1e6,
        after as f64 / 1e6,
        idle.len(),
        100.0 * (before - after) as f64 / before as f64
    );

    // Wake one and measure the re-list cost.
    let wake = fw.syncer.wake_tenant(&idle[0]).unwrap();
    println!("  wake latency (re-list one tenant): {:.0}ms", wake.as_secs_f64() * 1000.0);
    paper_vs_measured(
        "idle-tenant cost reduction",
        "n/a (future work: swap idle control planes)",
        "hibernation frees syncer-side memory; wake pays one re-list",
    );
    fw.shutdown();
}

/// Runs the three ablations at `percent` % of their pod counts.
pub fn run(percent: usize) {
    println!("Ablation studies (see DESIGN.md §6)");
    ablation_downward_workers(percent);
    ablation_weights(percent);
    ablation_hibernation(percent);
}
