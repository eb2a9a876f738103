//! Fig 10 — Syncer resource usage (CPU time, memory) under the stress
//! workloads, plus the §IV-C periodic-scan and restart measurements.
//!
//! Paper: accumulated CPU time grows linearly with pods (~138 s CPU over a
//! 23 s wall at 10k pods ≈ 6 CPUs busy); peak memory ~1.2 GB at 10k pods
//! (~40 KB/pod growth), dominated by informer caches; scanning 10k pods
//! takes <2 s; restart rebuilds all caches in <21 s.
//!
//! In-process simulation cannot isolate OS-level RSS per component, so
//! memory is the informer-cache byte accounting (the paper's stated
//! dominant consumer) and CPU time is the accumulated busy time of the
//! syncer's workers (its work is simulated as timed sections). Absolute
//! values differ from the Go implementation; the linear *shape* is the
//! reproduced result.
//!
//! Run: `cargo run --release -p vc-bench -- fig10_resources`

use crate::calibration::{paper_framework, scaled};
use crate::load::{provision_tenants, run_vc_burst};
use crate::report::{heading, paper_vs_measured};
use vc_core::framework::Framework;

/// Runs Fig 10 and the §IV-C scan at `percent` % of the paper's pod counts.
pub fn run(percent: usize) {
    let tenants = 100;
    println!("Fig 10 — syncer resource usage (100 tenants)");
    println!(
        "  {:<8} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "pods", "wall(s)", "cpu(s)", "cpus", "cache(MB)", "bytes/pod"
    );

    let mut series = Vec::new();
    for pods in [1_250usize, 2_500, 5_000, 10_000] {
        let pods = scaled(pods, percent);
        let fw = Framework::start(paper_framework(20, true));
        let names = provision_tenants(&fw, tenants);
        let base_bytes = fw.syncer.cache_bytes();
        let result = run_vc_burst(&fw, &names, pods);

        let busy = fw.syncer.metrics.downward_busy.total() + fw.syncer.metrics.upward_busy.total();
        let bytes = fw.syncer.cache_bytes().saturating_sub(base_bytes);
        let cpus = busy.as_secs_f64() / result.wall.as_secs_f64();
        println!(
            "  {:<8} {:>9.1} {:>9.1} {:>9.2} {:>12.2} {:>12.0}",
            pods,
            result.wall.as_secs_f64(),
            busy.as_secs_f64(),
            cpus,
            bytes as f64 / 1e6,
            bytes as f64 / pods as f64,
        );
        series.push((pods, busy.as_secs_f64(), bytes));

        if pods == scaled(10_000, percent) {
            // §IV-C: periodic scan cost at full load — one lap of the
            // cold sweep over every tenant, on this thread.
            heading("periodic scan (§IV-C)");
            let scan = fw.syncer.scan_all();
            paper_vs_measured(
                &format!("scan {pods} pods, one lap over {tenants} tenants"),
                "<2s",
                &format!("{:.2}s", scan.as_secs_f64()),
            );
            println!(
                "  {:<8} {:>9} {:>9} {:>9} {:>12} {:>12}",
                "pods", "wall(s)", "cpu(s)", "cpus", "cache(MB)", "bytes/pod"
            );
        }
        fw.shutdown();
    }

    heading("shape checks");
    if series.len() >= 2 {
        let (p0, cpu0, bytes0) = series[0];
        let (pn, cpun, bytesn) = series[series.len() - 1];
        let pod_ratio = pn as f64 / p0 as f64;
        paper_vs_measured(
            "CPU time grows ~linearly with pods",
            "linear",
            &format!("x{:.1} pods -> x{:.1} cpu-time", pod_ratio, cpun / cpu0.max(1e-9)),
        );
        paper_vs_measured(
            "cache memory grows ~linearly with pods",
            "linear (~40KB/pod in Go)",
            &format!(
                "x{:.1} pods -> x{:.1} bytes ({:.0} B/pod here)",
                pod_ratio,
                bytesn as f64 / bytes0.max(1) as f64,
                bytesn as f64 / pn as f64
            ),
        );
    }
    paper_vs_measured("avg CPUs at 10k pods", "~6 (138s/23s)", "see table above");
    println!("\npaper recommendation: 'a CPU limit of one to two CPUs is recommended for the syncer' in normal operation.");
}
