//! §IV-C — Syncer restart: rebuilding all informer caches.
//!
//! Paper: "it took less than twenty-one seconds to initialize all informer
//! caches with one hundred tenant control planes and ten thousand Pods."
//! Also exercises the §III-C ablation: with a *per-tenant* syncer design,
//! a super-cluster apiserver restart triggers one list per tenant — the
//! relist flood the centralized design avoids (one list total).
//!
//! Run: `cargo run --release -p vc-bench -- syncer_restart`

use crate::calibration::{paper_framework, paper_syncer, scaled};
use crate::load::{provision_tenants, run_vc_burst};
use crate::report::{heading, paper_vs_measured};
use std::time::Instant;
use vc_core::framework::Framework;
use vc_core::syncer::Syncer;

/// Runs the §IV-C restart at `percent` % of the paper's pod count.
pub fn run(percent: usize) {
    let tenants = 100;
    let pods = scaled(10_000, percent);
    println!("§IV-C — syncer restart with {tenants} tenants / {pods} pods");

    let fw = Framework::start(paper_framework(20, true));
    let names = provision_tenants(&fw, tenants);
    let result = run_vc_burst(&fw, &names, pods);
    println!("populated: {} pods in {:.1}s", result.pods, result.wall.as_secs_f64());

    heading("restart: fresh syncer rebuilds every informer cache");
    let lists_before = fw.super_cluster.apiserver.metrics.lists.get();
    let start = Instant::now();
    let fresh = Syncer::start(
        fw.super_cluster.system_client("vc-syncer-restarted"),
        paper_syncer(20, true),
    );
    for tenant in fw.registry.list() {
        fresh.register_tenant(tenant);
    }
    let elapsed = start.elapsed();
    let lists_after = fw.super_cluster.apiserver.metrics.lists.get();
    paper_vs_measured(
        "initialize all informer caches",
        "<21s",
        &format!("{:.2}s", elapsed.as_secs_f64()),
    );
    println!(
        "  cached bytes after restart: {:.2} MB across {} tenants",
        fresh.cache_bytes() as f64 / 1e6,
        tenants
    );

    heading("ablation: centralized vs per-tenant syncer relist load");
    let centralized_lists = lists_after - lists_before;
    // A per-tenant syncer design re-lists the super cluster once per
    // tenant per watched kind.
    let super_kinds = 7u64; // pods-only config still watches upward kinds
    let per_tenant_lists = tenants as u64 * super_kinds;
    paper_vs_measured(
        "super-cluster LIST requests on restart",
        "1x per kind (centralized)",
        &format!(
            "{centralized_lists} (centralized) vs ~{per_tenant_lists} if per-tenant (x{:.0} amplification)",
            per_tenant_lists as f64 / centralized_lists.max(1) as f64
        ),
    );
    println!("\npaper observation: 'if there are too many of them, when the super cluster apiserver restarts, the object list requests from the syncers could quickly flood the super cluster.'");
    fresh.stop();
    fw.shutdown();
}
