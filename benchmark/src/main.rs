//! Command line of the benchmark. `run.sh` builds this and passes its
//! arguments through.
//!
//! ```text
//! vcbench --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! ```
//!
//! prints the header, every metric by name with its unit, and as the last
//! line of stdout the result object. `--workload all` (the default) runs
//! every workload plain and then traced; `--calibrate N` repeats the plain
//! run N times per workload with seeds `seed..seed+N` and prints the
//! spread of every end-to-end metric and of the ungated timings.

use std::path::PathBuf;
use std::process::ExitCode;

use vcbench::metrics::END_TO_END;
use vcbench::workloads::Kind;
use vcbench::{run, Args, Outcome};

struct Cli {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    /// `None`: plain then traced.
    trace: Option<bool>,
    quick: bool,
    out_dir: PathBuf,
    calibrate: usize,
}

impl Cli {
    fn args(&self, kind: Kind, trace: bool, seed: u64) -> Args {
        Args {
            kind,
            seed,
            seconds: self.seconds,
            trace,
            quick: self.quick,
            out_dir: self.out_dir.clone(),
        }
    }
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: None,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        calibrate: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            cli.quick = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                cli.kinds = vec![Kind::parse(&value).ok_or_else(|| bad("a workload"))?];
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => cli.out_dir = PathBuf::from(&value),
            "--calibrate" => {
                cli.calibrate = value.parse().map_err(|_| bad("a whole number"))?;
                if cli.calibrate < 10 {
                    return Err(bad("at least 10"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

fn header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let transport = match args.kind {
        Kind::SyncSteady | Kind::SyncBurst => "in-process clients",
        Kind::WireCrud | Kind::AttachDense => {
            "vcbin over loopback TCP (127.0.0.1, ephemeral ports)"
        }
    };
    println!(
        "# vcbench workload={} seed={} seconds={} trace={} quick={} nproc={nproc}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!(
        "# closed loop, {} generator thread(s), {transport}; ops: as many as complete in the window (count below)",
        args.kind.generators()
    );
    if args.kind == Kind::AttachDense {
        std::fs::create_dir_all(&args.out_dir).ok();
        println!(
            "# WAL dir: {} (filesystem: {}), group commit 2 ms",
            vcbench::env::wal_dir(&args.out_dir).display(),
            vcbench::sys::filesystem_of(&args.out_dir)
        );
    }
}

fn print(outcome: &Outcome) {
    for (name, unit, value) in outcome.metrics.iter() {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for (name, value, unit) in &outcome.detail {
        println!("  ({name:<37} {value:>16.4} {unit})");
    }
    println!(
        "attempted {}  failed {}  correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for violation in &outcome.violations {
        println!("VIOLATION: {violation}");
    }
}

/// Runs `args` in a child process — a fresh address space, as the driver
/// gives every run, so RSS and allocator state do not carry over — and
/// returns its exit status and, if `capture`, its stdout.
fn run_child(args: &Args, capture: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if args.quick {
        command.arg("--quick");
    }
    let spawn_error = |e| format!("spawn child run: {e}");
    if capture {
        // The child's stderr (progress, violations) still reaches ours.
        command.stderr(std::process::Stdio::inherit());
        let output = command.output().map_err(spawn_error)?;
        Ok((output.status.success(), String::from_utf8_lossy(&output.stdout).into_owned()))
    } else {
        Ok((command.status().map_err(spawn_error)?.success(), String::new()))
    }
}

/// Timings a plain run prints as detail; calibration reports their spread
/// next to the end-to-end metrics', as the evidence for leaving them ungated.
const UNGATED: &[(&str, &str)] =
    &[("ops_per_s", "1/s"), ("lat_ms_p50", "ms"), ("lat_ms_p90", "ms"), ("cpu_us_per_op", "us")];

/// The end-to-end values on the result line of a child's stdout, then the
/// `UNGATED` values from its detail lines (`  (name value unit)`).
fn parse_result(stdout: &str) -> Option<Vec<f64>> {
    let line = stdout.lines().last()?;
    let json: serde_json::Value = serde_json::from_str(line).ok()?;
    let metrics = json.as_object()?.get("metrics")?.as_object()?;
    let gated =
        END_TO_END.iter().map(|(name, _)| metrics.get(*name)?.as_object()?.get("value")?.as_f64());
    let ungated = UNGATED.iter().map(|(name, _)| {
        let mut fields = stdout.lines().find_map(|l| l.strip_prefix(&format!("  ({name} ")))?;
        fields = fields.trim_start();
        fields.split_whitespace().next()?.parse().ok()
    });
    gated.chain(ungated).collect()
}

fn calibrate(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    println!("| workload | metric | unit | median | q1 | q3 | IQR/median | (max-min)/median |");
    println!("|---|---|---|---|---|---|---|---|");
    for &kind in &cli.kinds {
        let reported = || END_TO_END.iter().chain(UNGATED);
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); reported().count()];
        for i in 0..cli.calibrate {
            let args = cli.args(kind, false, cli.seed + i as u64);
            let (success, stdout) = run_child(&args, true)?;
            eprintln!("calibrate {} seed {}: ok={success}", kind.name(), args.seed);
            ok &= success;
            let Some(values) = parse_result(&stdout) else {
                return Err(format!("{} seed {}: no result line", kind.name(), args.seed));
            };
            for (column, value) in columns.iter_mut().zip(values) {
                column.push(value);
            }
        }
        for (column, (name, unit)) in columns.iter_mut().zip(reported()) {
            column.sort_by(|a, b| a.total_cmp(b));
            let [q1, median, q3] = quartiles(column);
            let range = column.last().unwrap_or(&0.0) - column.first().unwrap_or(&0.0);
            println!(
                "| {} | {name} | {unit} | {median:.4} | {q1:.4} | {q3:.4} | {:.4} | {:.4} |",
                kind.name(),
                (q3 - q1) / median.max(1e-12),
                range / median.max(1e-12)
            );
        }
    }
    Ok(ok)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (exclusive method), over sorted `values`.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|k| {
        let position = k as f64 * (n as f64 + 1.0) / 4.0;
        let lower = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - lower as f64;
        values[lower - 1] + fraction * (values[lower] - values[lower - 1])
    })
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("vcbench: {err}");
            return ExitCode::from(2);
        }
    };
    let result = match (cli.calibrate, cli.kinds.as_slice(), cli.trace) {
        (1.., _, _) => calibrate(&cli),
        // One run: in this process, result object on the last line.
        (0, &[kind], Some(trace)) => {
            let args = cli.args(kind, trace, cli.seed);
            header(&args);
            run(&args).map(|outcome| {
                print(&outcome);
                println!("{}", outcome.result_line());
                outcome.correct
            })
        }
        // Several runs: one child process each, output passed through.
        (0, kinds, trace) => {
            let modes: &[bool] = match trace {
                Some(true) => &[true],
                Some(false) => &[false],
                None => &[false, true],
            };
            let mut ok = Ok(true);
            for (&kind, &trace) in kinds.iter().flat_map(|k| modes.iter().map(move |t| (k, t))) {
                match run_child(&cli.args(kind, trace, cli.seed), false) {
                    Ok((success, _)) => ok = ok.map(|all| all && success),
                    Err(err) => ok = Err(err),
                }
                println!();
            }
            ok
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("vcbench: a run failed its output checks (see VIOLATION lines)");
            ExitCode::from(1)
        }
        Err(err) => {
            eprintln!("vcbench: {err}");
            ExitCode::from(1)
        }
    }
}
