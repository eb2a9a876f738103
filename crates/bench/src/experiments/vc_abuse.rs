//! Abuse-containment campaign driver — runs one adversarial tenant
//! against a fleet of well-behaved tenants and reports how far the
//! victims' sync p99 moved and how completely the admission policy kept
//! the hostile objects out of the super cluster.
//!
//! Run: `cargo run --release -p vc-bench -- vc_abuse` (CI's reduced rung:
//! `-- ci vc_abuse`).
//!
//! With `VC_BENCH_JSON_DIR` set, dumps `BENCH_vc_abuse_metrics.json` for
//! `bench_gate` (`abuse_p99_headroom` and `admission_reject_rate` floors).

use crate::abuse::{record_abuse_metrics, run_abuse_campaign, AbuseConfig};
use crate::report::dump_metrics_json;
use vc_obs::MetricsRegistry;

/// Runs one abuse campaign of `cfg`, dumps its artifact and asserts the
/// two gate floors.
pub fn run(cfg: &AbuseConfig) {
    println!(
        "abuse-containment campaign — {} victims x {} pods, {} watchers, {} flooders, \
         {} hostile objects, p99 target {}ms",
        cfg.victims,
        cfg.pods_per_victim,
        cfg.watchers,
        cfg.flooders,
        cfg.hostile_objects,
        cfg.target_p99_ms,
    );

    let point = run_abuse_campaign(cfg);

    println!("\nresults");
    println!(
        "  victim sync p99: quiet {:.2}ms -> under attack {:.2}ms ({:.2}x degradation, \
         target {}ms)",
        point.quiet_p99_us as f64 / 1000.0,
        point.attack_p99_us as f64 / 1000.0,
        point.degradation(),
        point.target_p99_ms,
    );
    println!(
        "  hostile objects: {} submitted, {} contained ({:.0}% reject rate)",
        point.hostile_submitted,
        point.hostile_contained,
        point.reject_rate() * 100.0,
    );
    println!(
        "  admission rejections {} / syncer policy-blocked dead letters {}",
        point.admission_rejections, point.policy_blocked,
    );
    println!(
        "\ngate ratios: abuse_p99_headroom {:.1}   admission_reject_rate {:.1}",
        point.p99_headroom(),
        point.reject_rate(),
    );

    let registry = MetricsRegistry::new();
    record_abuse_metrics(&registry, &point);
    dump_metrics_json("vc_abuse", &registry);

    assert!(
        point.p99_headroom() >= 1.0,
        "victims' p99 {:.2}ms exceeded the {}ms target under attack",
        point.attack_p99_us as f64 / 1000.0,
        point.target_p99_ms,
    );
    assert!(
        point.reject_rate() >= 0.9,
        "admission let {:.0}% of hostile objects through",
        (1.0 - point.reject_rate()) * 100.0,
    );
}
