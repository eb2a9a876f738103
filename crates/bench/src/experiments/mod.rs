//! The `vc-bench` subcommands: one module per experiment, each with a
//! `run` function, and the two tables the driver picks a row from.
//!
//! ```text
//! cargo run --release -p vc-bench -- <experiment>      # the paper's sizes
//! cargo run --release -p vc-bench -- ci                # CI's rung, then bench_gate
//! cargo run --release -p vc-bench -- ci <experiment>   # one row of it
//! ```
//!
//! [`EXPERIMENTS`] runs at the sizes [`env`](mod@crate::env) reads (the paper's by
//! default); [`CI`] is the bench-smoke sequence at its reduced sizes.

use std::process::{Command, ExitCode};

use crate::abuse::AbuseConfig;
use crate::env;
use crate::report::heading;
use crate::scale::ScaleConfig;
use crate::wire_load::LoadgenConfig;

pub mod ablations;
pub mod bench_gate;
pub mod fig10_resources;
pub mod fig11_fairness;
pub mod fig7_latency;
pub mod fig8_breakdown;
pub mod fig9_throughput;
pub mod kubeproxy_latency;
pub mod normal_load;
pub mod store_durability;
pub mod syncer_restart;
pub mod vc_abuse;
pub mod vc_loadgen;
pub mod vc_scale;

/// A subcommand: its name and what it runs. An experiment fails by
/// panicking.
pub type Row = (&'static str, fn());

/// Every experiment at the sizes the environment asks for.
pub const EXPERIMENTS: &[Row] = &[
    ("fig7_latency", || fig7_latency::run(env::scale_percent())),
    ("fig8_breakdown", || fig8_breakdown::run(env::scale_percent())),
    ("fig9_throughput", || fig9_throughput::run(env::scale_percent())),
    ("fig10_resources", || fig10_resources::run(env::scale_percent())),
    ("fig11_fairness", || fig11_fairness::run(env::scale_percent())),
    ("ablations", || ablations::run(env::scale_percent())),
    ("syncer_restart", || syncer_restart::run(env::scale_percent())),
    ("normal_load", normal_load::run),
    ("kubeproxy_latency", kubeproxy_latency::run),
    ("store_durability", store_durability::run),
    ("vc_scale", || {
        let base = ScaleConfig { all_kinds: env::scale_all_kinds(), ..ScaleConfig::default() };
        vc_scale::run(&env::scale_ladder(), &base)
    }),
    ("vc_loadgen", || vc_loadgen::run(&LoadgenConfig::default())),
    ("vc_abuse", || vc_abuse::run(&AbuseConfig::default())),
    ("bench_gate", bench_gate::run),
];

/// CI's bench-smoke sequence, in order, at its reduced sizes; the five
/// artifacts it writes are the ones `bench_gate`, its last row, checks.
pub const CI: &[Row] = &[
    ("normal_load", normal_load::run),
    ("fig8_breakdown", || fig8_breakdown::run(2)),
    // More pods than any other harness through 100 virtual kubelets and
    // one scheduler.
    ("fig9_throughput", || fig9_throughput::run(2)),
    // The one caller of the scanner's full pass outside the tests.
    ("fig10_resources", || fig10_resources::run(2)),
    ("kubeproxy_latency", kubeproxy_latency::run),
    ("store_durability", store_durability::run),
    ("vc_scale", || {
        vc_scale::run(
            &[150],
            &ScaleConfig { churn_rounds: 1, sim_minutes: 30, ..ScaleConfig::default() },
        )
    }),
    ("vc_loadgen", || {
        vc_loadgen::run(&LoadgenConfig {
            // Eight client threads against the server's four permits, so
            // some requests wait in the wire server's fair gate every run.
            threads: 8,
            ops_per_thread: 500,
            watchers: 16,
            events: 150,
            ..LoadgenConfig::default()
        })
    }),
    ("vc_abuse", || {
        vc_abuse::run(&AbuseConfig {
            victims: 2,
            pods_per_victim: 10,
            watchers: 16,
            flooders: 4,
            hostile_objects: 24,
            ..AbuseConfig::default()
        })
    }),
    ("bench_gate", bench_gate::run),
];

fn find(table: &[Row], name: &str) -> Option<fn()> {
    table.iter().find(|(n, _)| *n == name).map(|(_, run)| *run)
}

/// Runs every row of [`CI`], each in a fresh process so that no row
/// inherits another's threads or allocator state (the RSS-per-tenant
/// ratio reads the process's growth), and stops at the first that fails,
/// naming it. Artifacts go to `$VC_BENCH_JSON_DIR`, or to
/// [`env::DEFAULT_JSON_DIR`], where `bench_gate` reads them.
fn ci() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let dir = env::json_dir().unwrap_or_else(|| env::DEFAULT_JSON_DIR.into());
    for (name, _) in CI {
        heading(&format!("vc-bench ci {name}"));
        let status = Command::new(&exe).args(["ci", name]).env(env::JSON_DIR, &dir).status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("vc-bench: {name} failed");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `vc-bench` command. An experiment fails by panicking, so a failed
/// run exits non-zero with the panic's message.
pub fn main(args: &[String]) -> ExitCode {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = match args[..] {
        ["ci"] => return ci(),
        ["ci", name] => find(CI, name),
        [name] => find(EXPERIMENTS, name),
        _ => None,
    };
    let Some(run) = run else {
        let names = |table: &[Row]| table.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ");
        eprintln!("usage: vc-bench <experiment> | vc-bench ci [<experiment>]");
        eprintln!("experiments: {}\nci rows: {}", names(EXPERIMENTS), names(CI));
        return ExitCode::from(2);
    };
    run();
    ExitCode::SUCCESS
}
