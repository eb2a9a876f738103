//! Bench regression gate — compares the metric artifacts the experiments
//! dump (`BENCH_<label>_metrics.json` under `$VC_BENCH_JSON_DIR`) against
//! the committed baseline in `BENCH_BASELINE.json`.
//!
//! Two checks per tracked metric, both data-driven from the baseline file:
//!
//! * **absolute floor** — the improvement ratio the refactor must clear
//!   regardless of machine (the floors that used to be hard-coded
//!   `assert!`s inside the experiments);
//! * **relative regression** — the measured ratio may not fall below
//!   `baseline * (1 - tolerance)`. The tolerance absorbs CI-runner
//!   variance; shrink it to tighten the gate.
//!
//! Prints a diff table and fails when any metric violates either bound,
//! so CI fails the job while the uploaded artifacts remain available for
//! diagnosis.
//!
//! Run after the experiments that dump artifacts (`vc-bench -- ci` runs
//! it last):
//!
//! ```text
//! VC_BENCH_JSON_DIR=bench-artifacts cargo run --release -p vc-bench -- bench_gate
//! ```
//!
//! Refreshing the baseline after an intentional perf change: re-run the
//! experiments, copy the new `x10` gauge values into `BENCH_BASELINE.json`,
//! and commit the file alongside the change that moved them.

use crate::env;
use crate::report::MetricsReport;
use serde::Deserialize;
use std::path::{Path, PathBuf};

/// One tracked improvement ratio (stored ×10 as integers, matching the
/// `*_improvement_x10` gauges the experiments record).
#[derive(Debug, Deserialize)]
struct BaselineMetric {
    /// Bench label — the artifact is `BENCH_<bench>_metrics.json`.
    bench: String,
    /// Metric family holding the ratio gauge.
    family: String,
    /// Value of the family's `metric` label selecting the cell.
    metric: String,
    /// Absolute floor the ratio must clear on any machine (×10).
    floor_x10: i64,
    /// Ratio measured on the reference runner when the baseline was
    /// committed (×10).
    baseline_x10: i64,
}

/// The committed baseline file.
#[derive(Debug, Deserialize)]
struct Baseline {
    /// Allowed fraction below `baseline_x10` before the gate fails
    /// (`0.5` = measured may be at most 50% below baseline).
    tolerance: f64,
    /// Tracked metrics.
    metrics: Vec<BaselineMetric>,
}

/// The committed baseline, relative to the repository root.
const BASELINE: &str = "BENCH_BASELINE.json";

fn load_report(dir: &Path, bench: &str) -> Result<MetricsReport, String> {
    let path = dir.join(format!("BENCH_{bench}_metrics.json"));
    let raw = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {} ({e}) — run {bench} first", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Reads the `metric`-labeled cell of `family` from a report.
fn measured_x10(report: &MetricsReport, family: &str, metric: &str) -> Result<i64, String> {
    let fam = report
        .registry
        .family(family)
        .ok_or_else(|| format!("family {family} missing from BENCH_{}", report.bench))?;
    fam.cells
        .iter()
        .find(|c| c.labels == [metric])
        .map(|c| c.value)
        .ok_or_else(|| format!("cell {family}{{metric={metric}}} missing"))
}

/// Checks the artifacts against `BENCH_BASELINE.json`; panics naming the
/// count of failed metrics.
pub fn run() {
    let raw = std::fs::read_to_string(BASELINE)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {BASELINE} ({e})"));
    let baseline: Baseline = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("bench_gate: cannot parse {BASELINE}: {e}"));

    let dir = env::json_dir().unwrap_or_else(|| PathBuf::from(env::DEFAULT_JSON_DIR));
    println!(
        "bench gate — artifacts in {}, baseline {BASELINE}, tolerance {:.0}%",
        dir.display(),
        baseline.tolerance * 100.0,
    );
    println!(
        "  {:<16} {:<22} {:>9} {:>9} {:>9}  verdict",
        "bench", "metric", "floor", "baseline", "measured"
    );

    let mut failures = 0usize;
    for m in &baseline.metrics {
        let measured = load_report(&dir, &m.bench)
            .and_then(|report| measured_x10(&report, &m.family, &m.metric));
        let allowed = (m.baseline_x10 as f64 * (1.0 - baseline.tolerance)) as i64;
        let ratio = |x10: i64| format!("{:.1}x", x10 as f64 / 10.0);
        let (shown, verdict) = match measured {
            Err(e) => ("-".to_string(), format!("FAIL ({e})")),
            Ok(v) if v < m.floor_x10 => {
                (ratio(v), format!("FAIL (below absolute floor {})", ratio(m.floor_x10)))
            }
            Ok(v) if v < allowed => (
                ratio(v),
                format!(
                    "FAIL (regressed below {} = baseline - {:.0}%)",
                    ratio(allowed),
                    baseline.tolerance * 100.0,
                ),
            ),
            Ok(v) => (ratio(v), "ok".to_string()),
        };
        failures += usize::from(verdict != "ok");
        println!(
            "  {:<16} {:<22} {:>9} {:>9} {shown:>9}  {verdict}",
            m.bench,
            m.metric,
            ratio(m.floor_x10),
            ratio(m.baseline_x10),
        );
    }

    assert_eq!(failures, 0, "bench_gate: {failures} metric(s) failed");
    println!("bench_gate: all {} metrics within bounds", baseline.metrics.len());
}
