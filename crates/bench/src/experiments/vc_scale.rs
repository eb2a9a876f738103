//! Tenant-density ladder — how many tenant control planes one syncer
//! carries before per-tenant p99 or memory gives out.
//!
//! Runs the density campaign of [`crate::scale`] at each rung of a
//! tenant ladder and prints the density table EXPERIMENTS.md records:
//! tenants × RSS growth × per-tenant sync p99 × wall clock. The final
//! (largest) rung's ratios are dumped for `bench_gate`:
//!
//! * `tenants_per_gib` — tenants carried per GiB of onboarding RSS
//!   growth (the bytes-per-tenant ceiling, inverted so higher is better);
//! * `p99_headroom` — target p99 over the worst tenant's measured p99;
//!   ≥ 1.0 means every tenant met the target at full density.
//!
//! Run: `cargo run --release -p vc-bench -- vc_scale`, which reads
//! `VC_SCALE_LADDER` (comma-separated tenant counts, default `250,1000`)
//! and `VC_SCALE_ALL_KINDS=1` (sync every default downward kind instead
//! of pods and namespaces only). CI's fixed reduced rung: `-- ci vc_scale`.

use crate::report::{dump_metrics_json, heading};
use crate::scale::{
    print_density_header, print_density_row, record_density_metrics, run_density_campaign,
    DensityPoint, ScaleConfig,
};
use vc_obs::MetricsRegistry;

/// Runs the density campaign of `base` at each rung of `ladder` (tenant
/// counts) and dumps the largest rung's ratios.
pub fn run(ladder: &[usize], base: &ScaleConfig) {
    println!(
        "tenant-density ladder — rungs {ladder:?}, {} synced, {} pods/tenant, {} churn rounds, {} \
         churn tenants/round, {} simulated maintenance minutes, p99 target {}ms",
        if base.all_kinds { "all default kinds" } else { "pods + namespaces" },
        base.pods_per_tenant,
        base.churn_rounds,
        base.churn_tenants,
        base.sim_minutes,
        base.target_p99_ms,
    );

    let mut points: Vec<DensityPoint> = Vec::new();
    for &tenants in ladder {
        heading(&format!("{tenants} tenants"));
        let cfg = ScaleConfig { tenants, ..base.clone() };
        let point = run_density_campaign(&cfg);
        print_density_header();
        print_density_row(&point);
        println!(
            "  onboarded {:.0} tenants/s with {} operator workers",
            point.onboard_rate(),
            cfg.onboard_workers,
        );
        println!(
            "  synced {} objects; cache {} KiB; {} metric cells (churn teardown {} -> {}); \
             {}s of virtual maintenance crossed in {:.1}s",
            point.pods_synced,
            point.cache_bytes / 1024,
            point.metric_cells,
            point.cells_before_teardown,
            point.cells_after_teardown,
            point.sim_compressed.as_secs(),
            point.maintenance_wall.as_secs_f64(),
        );
        points.push(point);
    }

    heading("density table");
    print_density_header();
    for point in &points {
        print_density_row(point);
    }

    // Gate ratios from the largest rung — the density claim under test.
    let point = points.last().expect("at least one rung");
    heading("gate ratios (largest rung)");
    println!(
        "  tenants_per_gib {:.1}   p99_headroom {:.1} (target {}ms, worst {}ms)",
        point.tenants_per_gib(),
        point.p99_headroom(base.target_p99_ms),
        base.target_p99_ms,
        point.worst_p99_us / 1000,
    );
    let registry = MetricsRegistry::new();
    record_density_metrics(&registry, base, point);
    dump_metrics_json("vc_scale", &registry);
}
