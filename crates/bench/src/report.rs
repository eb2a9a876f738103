//! Result formatting: ASCII histograms, percentile tables,
//! paper-vs-measured rows, and machine-readable metrics dumps.

use serde::{Deserialize, Serialize};
use vc_obs::{MetricsRegistry, RegistrySnapshot};

/// Nearest-rank percentile of `samples` (not necessarily sorted).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Arithmetic mean.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// Buckets samples by `width`, overflow into the final bucket.
pub fn bucket_counts(samples: &[u64], width: u64, buckets: usize) -> Vec<usize> {
    let mut counts = vec![0usize; buckets];
    for &s in samples {
        let slot = ((s / width) as usize).min(buckets - 1);
        counts[slot] += 1;
    }
    counts
}

/// Prints a horizontal ASCII histogram of `samples` bucketed at
/// `bucket_ms`, in the style of the paper's Fig 7 panels.
pub fn print_histogram(label: &str, samples: &[u64], bucket_ms: u64, buckets: usize) {
    let counts = bucket_counts(samples, bucket_ms, buckets);
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    println!("  {label}");
    for (i, count) in counts.iter().enumerate() {
        let lo = i as u64 * bucket_ms;
        let hi = lo + bucket_ms;
        let bar_len = (count * 40).div_ceil(max);
        let bar: String = "#".repeat(bar_len);
        let range = if i + 1 == buckets {
            format!("[{:>5.1}s,  ...)", lo as f64 / 1000.0)
        } else {
            format!("[{:>5.1}s,{:>5.1}s)", lo as f64 / 1000.0, hi as f64 / 1000.0)
        };
        println!("    {range} {count:>6} {bar}");
    }
}

/// Prints a latency summary line.
pub fn print_summary(label: &str, samples: &[u64]) {
    println!(
        "  {label}: n={} mean={:.0}ms p50={}ms p99={}ms max={}ms",
        samples.len(),
        mean(samples),
        percentile(samples, 0.50),
        percentile(samples, 0.99),
        samples.iter().copied().max().unwrap_or(0),
    );
}

/// Prints a paper-vs-measured comparison row.
pub fn paper_vs_measured(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<42} paper: {paper:<18} measured: {measured}");
}

/// Prints a section heading.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// A bench run's machine-readable metrics report: the bench label plus a
/// full [`RegistrySnapshot`] of the unified metrics registry.
/// Deserializable so `bench_gate` can read the artifacts back
/// and compare them against the committed baseline.
#[derive(Debug, Serialize, Deserialize)]
pub struct MetricsReport {
    /// The bench that produced this report.
    pub bench: String,
    /// Every metric family at the end of the run.
    pub registry: RegistrySnapshot,
}

/// Writes a JSON [`MetricsReport`] of `registry` to
/// `$VC_BENCH_JSON_DIR/BENCH_<label>_metrics.json` and returns the path.
/// A no-op returning `None` when `VC_BENCH_JSON_DIR` is unset (normal
/// interactive runs) or the write fails (reports never fail a bench).
pub fn dump_metrics_json(label: &str, registry: &MetricsRegistry) -> Option<std::path::PathBuf> {
    let dir = crate::env::json_dir()?;
    let report = MetricsReport { bench: label.to_string(), registry: registry.snapshot() };
    let json = serde_json::to_string_pretty(&report).ok()?;
    let path = dir.join(format!("BENCH_{label}_metrics.json"));
    if std::fs::create_dir_all(&dir).is_err() || std::fs::write(&path, json).is_err() {
        return None;
    }
    println!("  metrics snapshot written to {}", path.display());
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn mean_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }

    #[test]
    fn buckets_with_overflow() {
        let counts = bucket_counts(&[0, 1999, 2000, 9999], 2000, 3);
        assert_eq!(counts, vec![2, 1, 1]);
    }
}
