//! Fig 11 — The impact of fair queuing on fairness.
//!
//! Ten greedy tenants issue 900 pod creations concurrently; forty regular
//! tenants send 10 creations sequentially. With fair queuing the regular
//! users' average pod creation time stays under ~2 s while greedy users
//! bear the queueing cost; with the shared FIFO, regular users are starved
//! behind the greedy burst.
//!
//! Run: `cargo run --release -p vc-bench -- fig11_fairness`

use crate::calibration::{paper_framework, scaled};
use crate::load::{provision_tenants, ready_latencies_ms, ready_pods, stress_pod};
use crate::report::{heading, mean, paper_vs_measured};
use std::time::{Duration, Instant};
use vc_controllers::util::wait_until;
use vc_core::framework::Framework;

const GREEDY: usize = 10;
const REGULAR: usize = 40;

struct FairnessOutcome {
    greedy_avg_ms: Vec<u64>,
    regular_avg_ms: Vec<u64>,
}

fn run_mode(fair: bool, percent: usize) -> FairnessOutcome {
    let greedy_pods = scaled(900, percent);
    let regular_pods = 10usize;
    let fw = Framework::start(paper_framework(20, fair));
    let tenants = provision_tenants(&fw, GREEDY + REGULAR);
    let (greedy, regular) = tenants.split_at(GREEDY);

    let total = GREEDY * greedy_pods + REGULAR * regular_pods;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tenant in greedy {
            let client = fw.tenant_client(tenant, "greedy-load");
            scope.spawn(move || {
                // Burst: fire all requests as fast as the client allows.
                for i in 0..greedy_pods {
                    client.create(stress_pod("default", &format!("g{i}")).into()).unwrap();
                }
            });
        }
        for tenant in regular {
            let client = fw.tenant_client(tenant, "regular-load");
            scope.spawn(move || {
                // Sequential: one request at a time, small pauses.
                for i in 0..regular_pods {
                    client.create(stress_pod("default", &format!("r{i}")).into()).unwrap();
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
    });

    let clients: Vec<_> = tenants.iter().map(|t| fw.tenant_client(t, "observer")).collect();
    let deadline = Duration::from_secs(180) + Duration::from_millis(total as u64 * 10);
    let done = wait_until(deadline, Duration::from_millis(250), || ready_pods(&clients) >= total);
    assert!(done, "fairness burst did not finish in {:?}", start.elapsed());

    let avg_for = |client| mean(&ready_latencies_ms(client)) as u64;
    let outcome = FairnessOutcome {
        greedy_avg_ms: clients[..GREEDY].iter().map(avg_for).collect(),
        regular_avg_ms: clients[GREEDY..].iter().map(avg_for).collect(),
    };
    fw.shutdown();
    outcome
}

/// (min, mean, max) of the per-tenant averages, in seconds.
fn stats(values: &[u64]) -> (f64, f64, f64) {
    let secs = |ms: u64| ms as f64 / 1000.0;
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    (secs(min), secs(values.iter().sum::<u64>() / values.len().max(1) as u64), secs(max))
}

/// Runs Fig 11 at `percent` % of the paper's greedy burst.
pub fn run(percent: usize) {
    println!(
        "Fig 11 — fair queuing: {GREEDY} greedy tenants x {} burst pods, {REGULAR} regular tenants x 10 sequential pods",
        scaled(900, percent)
    );

    for fair in [true, false] {
        heading(if fair { "(a) fair queuing ENABLED" } else { "(b) fair queuing DISABLED" });
        let outcome = run_mode(fair, percent);
        let (gmin, gmean, gmax) = stats(&outcome.greedy_avg_ms);
        let (rmin, rmean, rmax) = stats(&outcome.regular_avg_ms);
        println!(
            "  greedy tenants  avg pod creation: min={gmin:.1}s mean={gmean:.1}s max={gmax:.1}s"
        );
        println!(
            "  regular tenants avg pod creation: min={rmin:.1}s mean={rmean:.1}s max={rmax:.1}s"
        );
        if fair {
            paper_vs_measured(
                "regular users protected",
                "avg < 2s, greedy much higher",
                &format!("regular mean {rmean:.1}s vs greedy mean {gmean:.1}s"),
            );
        } else {
            paper_vs_measured(
                "regular users starved behind burst",
                "significantly delayed",
                &format!("regular mean {rmean:.1}s (vs <2s with FQ)"),
            );
        }
    }
    println!("\npaper observation: 'without a centralized syncer, it would be challenging to implement fair queuing.'");
}
