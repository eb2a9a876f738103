//! Fig 9 — Pod creation throughput, VirtualCluster vs baseline.
//!
//! (a) fixed pod count, varying tenants: both roughly constant, VC ~21%
//!     below baseline.
//! (b) fixed tenants, varying pods: baseline declines with pod count (the
//!     scheduler slows as the cluster fills), VC roughly constant; maximum
//!     degradation ~34%.
//!
//! Run: `cargo run --release -p vc-bench -- fig9_throughput`
//! (`VC_BENCH_SCALE=10` for a quick pass at 10% of the pod counts).

use crate::calibration::{paper_framework, paper_super_cluster, scaled};
use crate::load::{provision_tenants, run_baseline_burst, run_vc_burst};
use crate::report::{heading, paper_vs_measured};
use std::sync::Arc;
use vc_core::framework::Framework;

fn vc_throughput(tenants: usize, total_pods: usize) -> f64 {
    let fw = Framework::start(paper_framework(20, true));
    let names = provision_tenants(&fw, tenants);
    let result = run_vc_burst(&fw, &names, total_pods);
    let throughput = result.throughput();
    fw.shutdown();
    throughput
}

fn baseline_throughput(threads: usize, total_pods: usize) -> f64 {
    let cluster = Arc::new(vc_controllers::Cluster::start(paper_super_cluster("baseline")));
    cluster.add_mock_nodes(100).expect("nodes");
    let result = run_baseline_burst(&cluster, total_pods, threads);
    let throughput = result.throughput();
    cluster.shutdown();
    throughput
}

/// Runs Fig 9 at `percent` % of the paper's pod counts.
pub fn run(percent: usize) {
    println!("Fig 9 — Pod creation throughput (pods/s)");
    println!("paper: VC ~21% below baseline at fixed pods; baseline declines with pod count (max degradation ~34%)");

    heading("Fig 9(a): fixed pods, varying tenants");
    let pods_a = scaled(10_000, percent);
    println!("  total pods = {pods_a}");
    println!("  {:<10} {:>12} {:>12} {:>14}", "tenants", "baseline", "vc", "degradation");
    for tenants in [25usize, 50, 100] {
        let base = baseline_throughput(tenants, pods_a);
        let vc = vc_throughput(tenants, pods_a);
        let degradation = 100.0 * (base - vc) / base;
        println!("  {tenants:<10} {base:>12.0} {vc:>12.0} {degradation:>13.1}%");
    }
    paper_vs_measured("Fig 9(a) shape", "constant, VC ~21% lower", "see rows above");

    heading("Fig 9(b): fixed tenants (100), varying pods");
    println!("  {:<10} {:>12} {:>12} {:>14}", "pods", "baseline", "vc", "degradation");
    let mut max_degradation: f64 = 0.0;
    let mut baseline_series = Vec::new();
    let mut vc_series = Vec::new();
    for pods in [1_250usize, 2_500, 5_000, 10_000] {
        let pods = scaled(pods, percent);
        let base = baseline_throughput(100, pods);
        let vc = vc_throughput(100, pods);
        let degradation = 100.0 * (base - vc) / base;
        max_degradation = max_degradation.max(degradation);
        baseline_series.push(base);
        vc_series.push(vc);
        println!("  {pods:<10} {base:>12.0} {vc:>12.0} {degradation:>13.1}%");
    }
    paper_vs_measured(
        "baseline declines with pods",
        "~680 -> ~550",
        &format!("{:.0} -> {:.0}", baseline_series[0], baseline_series[baseline_series.len() - 1]),
    );
    paper_vs_measured(
        "VC roughly constant",
        "~430-460",
        &format!(
            "{:.0} .. {:.0}",
            vc_series.iter().cloned().fold(f64::MAX, f64::min),
            vc_series.iter().cloned().fold(0.0, f64::max)
        ),
    );
    paper_vs_measured("max degradation", "~34%", &format!("{max_degradation:.1}%"));
}
