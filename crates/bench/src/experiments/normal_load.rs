//! §IV (workload) — syncer-added delay under normal load.
//!
//! Paper: "When VirtualCluster is under normal loads, e.g., tens of
//! requests per second, we found the syncer added one or two milliseconds
//! delays, which are negligible in typical Kubernetes use cases."
//!
//! Method: drive ~20 pod creations per second through one tenant and
//! through the baseline (direct super-cluster) path, compare mean
//! creation→ready latency; the difference is the syncer's added delay.
//!
//! Run: `cargo run --release -p vc-bench -- normal_load`

use crate::calibration::{paper_framework, paper_super_cluster};
use crate::load::{print_robustness, ready_latencies_ms, stress_pod};
use crate::report::{dump_metrics_json, heading, mean, paper_vs_measured};
use std::sync::Arc;
use std::time::Duration;
use vc_client::Client;
use vc_controllers::util::wait_until;
use vc_core::framework::Framework;

const PODS: usize = 100;
const RATE_PER_SEC: u64 = 20;

fn drive(client: &Client) -> Vec<u64> {
    for i in 0..PODS {
        client.create(stress_pod("default", &format!("n{i}")).into()).unwrap();
        std::thread::sleep(Duration::from_millis(1000 / RATE_PER_SEC));
    }
    assert!(wait_until(Duration::from_secs(60), Duration::from_millis(100), || {
        ready_latencies_ms(client).len() >= PODS
    }));
    ready_latencies_ms(client)
}

/// Runs the normal-load comparison.
pub fn run() {
    println!("normal load — {RATE_PER_SEC} pod creations/s, {PODS} pods");

    heading("baseline: direct to super cluster");
    let cluster = Arc::new(vc_controllers::Cluster::start(paper_super_cluster("baseline")));
    cluster.add_mock_nodes(100).expect("nodes");
    let baseline = drive(&cluster.client("normal-load"));
    println!("  mean latency: {:.1}ms", mean(&baseline));
    cluster.shutdown();

    heading("VirtualCluster: through one tenant control plane");
    let fw = Framework::start(paper_framework(20, true));
    fw.create_tenant("tenant-1").expect("tenant");
    let vc = drive(&fw.tenant_client("tenant-1", "normal-load"));
    println!("  mean latency: {:.1}ms", mean(&vc));
    print_robustness(&fw);

    heading("result");
    let added = mean(&vc) - mean(&baseline);
    paper_vs_measured("syncer-added delay under normal load", "~1-2ms", &format!("{added:.1}ms"));
    println!("\n(note: the measurement includes informer event delivery in both directions; anything under ~10ms is 'negligible in typical Kubernetes use cases' per the paper.)");
    dump_metrics_json("normal_load", &fw.obs().registry);
    fw.shutdown();
}
