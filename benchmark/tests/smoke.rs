//! Smoke test: every workload at `--quick` size, plain and traced, must
//! run clean, and the names the code emits must be the names
//! `BENCHMARK.json` declares — so the two cannot drift apart.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde_json::Value;
use vcbench::metrics::{END_TO_END, PER_LAYER};
use vcbench::workloads::Kind;
use vcbench::{run, Args};

/// Window per run; with set-up, tear-down and probes a workload's two runs
/// take about three seconds.
const SECONDS: f64 = 0.5;

/// Tests run in parallel, so each workload gets a directory of its own.
fn out_dir(kind: Kind) -> PathBuf {
    std::env::temp_dir().join(format!("vcbench-smoke-{}-{}", std::process::id(), kind.name()))
}

fn check(kind: Kind) {
    for trace in [false, true] {
        let args =
            Args { kind, seed: 7, seconds: SECONDS, trace, quick: true, out_dir: out_dir(kind) };
        let outcome = run(&args).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", kind.name()));
        assert!(outcome.violations.is_empty(), "{}: {:?}", kind.name(), outcome.violations);
        assert_eq!(outcome.failed, 0, "{}: failed ops", kind.name());
        assert!(outcome.attempted > 0 && outcome.correct, "{}: not correct", kind.name());
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(outcome.metrics.iter().count(), catalogue.len());
        for (name, _, value) in outcome.metrics.iter() {
            assert!(value.is_finite(), "{} {name} = {value}", kind.name());
            // Overhead is a difference of two noisy medians; it may dip
            // below zero.
            assert!(
                value >= 0.0 || name == "trace.overhead_pct",
                "{} {name} = {value}",
                kind.name()
            );
            if !trace {
                assert!(value > 0.0, "{} {name} must never read 0", kind.name());
            }
        }
        if trace {
            let residual = outcome.metrics.get("span.residual_pct").expect("residual");
            assert!(residual <= 2.0, "{}: span.residual_pct = {residual}", kind.name());
            let file = args.out_dir.join(format!("trace-{}.jsonl", kind.name()));
            let text = std::fs::read_to_string(&file).expect("trace file written");
            let first: Value =
                serde_json::from_str(text.lines().next().expect("a span")).expect("json");
            assert_eq!(
                first.as_object().and_then(|o| o.get("span")).and_then(Value::as_str),
                Some("pod")
            );
        }
        let line: Value =
            serde_json::from_str(&outcome.result_line()).expect("result line is JSON");
        let keys: BTreeSet<&str> =
            line.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, BTreeSet::from(["attempted", "correct", "failed", "metrics"]));
    }
    let _ = std::fs::remove_dir_all(out_dir(kind));
}

#[test]
fn sync_steady_runs_clean() {
    check(Kind::SyncSteady);
}

#[test]
fn sync_burst_runs_clean() {
    check(Kind::SyncBurst);
}

#[test]
fn wire_crud_runs_clean() {
    check(Kind::WireCrud);
}

#[test]
fn attach_dense_runs_clean() {
    check(Kind::AttachDense);
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("array")
        .iter()
        .map(|entry| {
            let entry = entry.as_object().expect("object");
            let field =
                |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let json = json.as_object().expect("object");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names(&json["end_to_end"]), owned(END_TO_END));
    assert_eq!(names(&json["per_layer"]), owned(PER_LAYER));
    let workloads: Vec<String> = names(&json["workloads"]).into_iter().map(|(n, _)| n).collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);
}
