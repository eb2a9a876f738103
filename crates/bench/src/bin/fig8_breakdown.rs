//! Fig 8 + Table I — Pod creation latency breakdown into the five syncer
//! phases, for 10000 pods across 100 tenant control planes.
//!
//! Paper: DWS-Queue 48.5%, UWS-Queue 25.3%, Super-Sched 21%, and the
//! downward/upward synchronization times are negligible. Table I gives
//! 2-second bucket counts per phase.
//!
//! The phases are read back from the syncer's per-pod traces: each phase
//! is the first span of its stage, i.e. the creation path (a pod requeued
//! by a later status event records further spans, which are not part of
//! creation latency).
//!
//! Run: `cargo run --release -p vc-bench --bin fig8_breakdown`

use vc_bench::calibration::{paper_framework, scaled};
use vc_bench::load::{provision_tenants, run_vc_burst};
use vc_bench::report::{bucket_counts, heading, mean, paper_vs_measured};
use vc_core::framework::Framework;
use vc_obs::stage;

/// The paper's phase labels and the trace stages that time them, in
/// chronological order.
const PHASES: [(&str, &str); 5] = [
    ("DWS-Queue", stage::DWS_QUEUE),
    ("DWS-Process", stage::DWS_PROCESS),
    ("Super-Sched", stage::SUPER_SCHED),
    ("UWS-Queue", stage::UWS_QUEUE),
    ("UWS-Process", stage::UWS_PROCESS),
];

fn main() {
    let tenants = 100;
    let pods = scaled(10_000);
    println!("Fig 8 / Table I — latency breakdown: {pods} pods across {tenants} tenants");

    let mut config = paper_framework(100, 20, 100, true);
    // Every pod's finished trace must still be in the ring at the end.
    config.syncer.obs.trace_capacity = config.syncer.obs.trace_capacity.max(pods);
    let fw = Framework::start(config);
    let names = provision_tenants(&fw, tenants);
    let pods_per_tenant = pods / tenants;
    let result = run_vc_burst(&fw, &names, pods_per_tenant);
    println!(
        "burst finished: {} pods in {:.1}s ({:.0} pods/s)",
        result.pods,
        result.wall.as_secs_f64(),
        result.throughput()
    );

    // Per-phase samples (ms), one entry per pod with a finished trace.
    let tracer = &fw.obs().tracer;
    let mut samples: [Vec<u64>; 5] = Default::default();
    for tenant in &names {
        for i in 0..pods_per_tenant {
            let Some(trace) = tracer.find(tenant, &format!("default/stress-{i}")) else { continue };
            if trace.total.is_none() {
                continue;
            }
            for (phase, (_, stage)) in samples.iter_mut().zip(PHASES) {
                phase.push(trace.span(stage).map_or(0, |s| s.duration.as_millis() as u64));
            }
        }
    }
    let traced = samples[0].len();
    assert!(
        traced >= result.pods * 9 / 10,
        "finished traces incomplete: {traced} of {}",
        result.pods
    );

    heading("Fig 8: average latency breakdown");
    let means: Vec<f64> = samples.iter().map(|phase| mean(phase)).collect();
    let total: f64 = means.iter().sum();
    let paper_share = [48.5, 0.5, 21.0, 25.3, 0.5];
    for (i, (label, _)) in PHASES.iter().enumerate() {
        let share = if total > 0.0 { 100.0 * means[i] / total } else { 0.0 };
        paper_vs_measured(
            &format!("{label} share of latency"),
            &format!("~{:.1}%", paper_share[i]),
            &format!("{share:.1}% ({:.0}ms avg)", means[i]),
        );
    }
    println!("  total mean creation latency: {:.0}ms", total);

    heading("Table I: per-phase 2-second bucket counts");
    println!(
        "  {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "phase", "[0,2]", "(2,4]", "(4,6]", "(6,8]", "(8,...]"
    );
    let paper_rows: [[usize; 5]; 5] = [
        [2935, 2663, 1626, 1998, 778],
        [10000, 0, 0, 0, 0],
        [3607, 6393, 0, 0, 0],
        [2798, 6870, 332, 0, 0],
        [10000, 0, 0, 0, 0],
    ];
    for (i, (label, _)) in PHASES.iter().enumerate() {
        let counts = bucket_counts(&samples[i], 2_000, 5);
        println!(
            "  {:<14} {:>8} {:>8} {:>8} {:>8} {:>8}   (paper: {:?})",
            label, counts[0], counts[1], counts[2], counts[3], counts[4], paper_rows[i]
        );
    }

    println!("\npaper observation: 'the delays in the two syncer worker queues contribute ~75% of the latency on average... The time spent in the downward and upward synchronizations is negligible.'");
    println!("reproduction note: this simulation models the syncer's downward path as the single");
    println!("congestion point, so queue wait concentrates in DWS-Queue rather than splitting");
    println!("48/21/25 across DWS-Queue/Super-Sched/UWS-Queue as on the paper's testbed. The");
    println!("qualitative conclusions reproduce: worker-queue delay dominates end-to-end latency");
    println!("(paper >=75%), and both synchronization processing phases are negligible.");
    fw.shutdown();
}
