//! CI and the top-level documents run only subcommands `vc-bench` has: no
//! line runs a retired per-experiment binary (`-p vc-bench --bin`), and
//! every `vc-bench -- <experiment>` (or `-- ci <experiment>`) names a row
//! of the driver's tables.

use vc_bench::experiments::{Row, CI, EXPERIMENTS};

const FILES: [&str; 5] =
    [".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", "DESIGN.md", "CONTRIBUTING.md"];

/// The leading `[A-Za-z0-9_]` run of `text`.
fn word(text: &str) -> &str {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next().unwrap_or("")
}

/// What is wrong with `line`, if anything.
fn check(line: &str) -> Option<String> {
    if line.contains("vc-bench") && line.contains("--bin") {
        return Some("runs a retired vc-bench binary".into());
    }
    let (_, rest) = line.split_once("vc-bench -- ")?;
    let has = |table: &[Row], name| table.iter().any(|(n, _)| *n == name);
    match (word(rest), rest.strip_prefix("ci ").map(word)) {
        // `-- <experiment>` and `-- ci <experiment>` are placeholders.
        ("", _) if rest.starts_with('<') => None,
        ("ci", None | Some("")) => None,
        ("ci", Some(row)) => (!has(CI, row)).then(|| format!("no ci row `{row}`")),
        (name, _) => (!has(EXPERIMENTS, name)).then(|| format!("no experiment `{name}`")),
    }
}

#[test]
fn documented_run_lines_name_subcommands_the_driver_has() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut problems, mut runs) = (Vec::new(), 0);
    for file in FILES {
        let text = std::fs::read_to_string(root.join(file)).expect("readable");
        for (i, line) in text.lines().enumerate() {
            runs += usize::from(line.contains("vc-bench -- "));
            if let Some(problem) = check(line) {
                problems.push(format!("{file}:{}: {problem}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(problems.is_empty(), "stale vc-bench run lines:\n{}", problems.join("\n"));
    assert!(runs >= FILES.len(), "only {runs} run lines found: is the pattern stale?");
}

#[test]
fn stale_run_lines_are_caught() {
    assert!(check("cargo run --release -p vc-bench --bin fig7_latency").is_some());
    assert!(check("cargo run -p vc-bench --release --bin normal_load").is_some());
    assert!(check("cargo run --release -p vc-bench -- fig12_nothing").is_some());
    assert!(check("cargo run --release -p vc-bench -- ci fig7_latency").is_some());
    assert!(check("`cargo run --release -p vc-bench -- fig7_latency`").is_none());
    assert!(check("run: cargo run --release -p vc-bench -- ci").is_none());
    assert!(check("`cargo run --release -p vc-bench -- ci`, then").is_none());
    assert!(check("cargo run --release -p vc-bench -- ci vc_abuse  # one row").is_none());
    assert!(check("`cargo run --release -p vc-bench -- <experiment>`").is_none());
}
