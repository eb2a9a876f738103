//! The four environment variables `vc-bench` reads, all parsed here.
//! CI's reduced sizes are not variables: they are the
//! [`CI`](crate::experiments::CI) table.

use std::path::PathBuf;
use std::str::FromStr;

/// The variable naming the directory metric artifacts go to; unset, no
/// experiment writes one.
pub const JSON_DIR: &str = "VC_BENCH_JSON_DIR";

/// Where `bench_gate` reads artifacts when `VC_BENCH_JSON_DIR` is unset,
/// and where `vc-bench ci` writes them.
pub const DEFAULT_JSON_DIR: &str = "bench-artifacts";

/// `key` parsed as a `T`; `None` when unset or unparsable.
fn var<T: FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.parse().ok()
}

/// `$VC_BENCH_JSON_DIR`.
pub fn json_dir() -> Option<PathBuf> {
    var(JSON_DIR)
}

/// `VC_BENCH_SCALE`: percent of the paper's pod counts the figure
/// harnesses, `ablations` and `syncer_restart` run at, 1–100 (default 100).
pub fn scale_percent() -> usize {
    var("VC_BENCH_SCALE").filter(|v| (1..=100).contains(v)).unwrap_or(100)
}

/// `VC_SCALE_LADDER`: the comma-separated tenant counts `vc_scale` runs
/// (default `250,1000`).
pub fn scale_ladder() -> Vec<usize> {
    match var::<String>("VC_SCALE_LADDER") {
        Some(raw) => raw.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        None => vec![250, 1000],
    }
}

/// `VC_SCALE_ALL_KINDS`: non-zero makes `vc_scale` sync every default
/// downward kind instead of pods and namespaces only.
pub fn scale_all_kinds() -> bool {
    var::<u8>("VC_SCALE_ALL_KINDS").is_some_and(|v| v != 0)
}
