//! Fig 7 — Pod creation time histograms under burst load.
//!
//! Twelve VirtualCluster configurations (pod count × {tenant count,
//! downward worker count}) plus the four baseline cases. The paper's
//! reference point (100 tenants, 20 downward workers): p99 latencies of
//! 3/4/8/14 s for 1250/2500/5000/10000 pods vs 1/2/8/8 s in the baseline.
//!
//! Run: `cargo run --release -p vc-bench -- fig7_latency`
//! (`VC_BENCH_SCALE=10` for a quick pass).

use crate::calibration::{paper_framework, paper_super_cluster, scaled};
use crate::load::{print_robustness, provision_tenants, run_baseline_burst, run_vc_burst};
use crate::report::{heading, paper_vs_measured, percentile, print_histogram, print_summary};
use std::sync::Arc;
use vc_core::framework::Framework;

const POD_COUNTS: [usize; 4] = [1_250, 2_500, 5_000, 10_000];

/// (label, tenants, downward workers) — the case grid.
const CASES: [(&str, usize, usize); 3] = [
    ("25 tenants / 20 downward workers", 25, 20),
    ("100 tenants / 20 downward workers", 100, 20),
    ("100 tenants / 5 downward workers", 100, 5),
];

/// Runs Fig 7 at `percent` % of the paper's pod counts.
pub fn run(percent: usize) {
    println!("Fig 7 — Pod creation time histograms (VirtualCluster vs baseline)");
    let bucket_ms = 2_000; // the paper's 2-second buckets
    let buckets = 10;

    // Baselines first.
    let mut baseline_p99 = Vec::new();
    heading("Baseline: load sent directly to the super cluster (100 generator threads)");
    for pods in POD_COUNTS {
        let pods = scaled(pods, percent);
        let cluster = Arc::new(vc_controllers::Cluster::start(paper_super_cluster("baseline")));
        cluster.add_mock_nodes(100).expect("nodes");
        let result = run_baseline_burst(&cluster, pods, 100);
        print_summary(&format!("baseline {pods} pods"), &result.latencies_ms);
        print_histogram(
            &format!("baseline {pods} pods ({:.0} pods/s)", result.throughput()),
            &result.latencies_ms,
            bucket_ms,
            buckets,
        );
        baseline_p99.push(percentile(&result.latencies_ms, 0.99));
        cluster.shutdown();
    }

    let mut reference_p99 = Vec::new();
    for (label, tenants, downward_workers) in CASES {
        heading(&format!("VirtualCluster: {label}"));
        for pods in POD_COUNTS {
            let pods = scaled(pods, percent);
            let fw = Framework::start(paper_framework(downward_workers, true));
            let names = provision_tenants(&fw, tenants);
            let result = run_vc_burst(&fw, &names, pods);
            print_summary(&format!("vc {pods} pods"), &result.latencies_ms);
            print_histogram(
                &format!("vc {pods} pods ({:.0} pods/s)", result.throughput()),
                &result.latencies_ms,
                bucket_ms,
                buckets,
            );
            if tenants == 100 && downward_workers == 20 {
                reference_p99.push(percentile(&result.latencies_ms, 0.99));
            }
            print_robustness(&fw);
            fw.shutdown();
        }
    }

    heading("Paper reference (100 tenants / 20 workers): p99 latency per pod count");
    let paper_vc = ["3s", "4s", "8s", "14s"];
    let paper_base = ["1s", "2s", "8s", "8s"];
    for (i, pods) in POD_COUNTS.iter().enumerate() {
        paper_vs_measured(
            &format!("{pods} pods: vc p99 (baseline p99)"),
            &format!("{} ({})", paper_vc[i], paper_base[i]),
            &format!(
                "{:.1}s ({:.1}s)",
                reference_p99.get(i).copied().unwrap_or(0) as f64 / 1000.0,
                baseline_p99.get(i).copied().unwrap_or(0) as f64 / 1000.0
            ),
        );
    }
    println!("\npaper observation: 'using VirtualCluster does not significantly lengthen the Pod creation time' — check the histogram mass above.");
}
