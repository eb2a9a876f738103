//! `vc-bench`: `cargo run --release -p vc-bench -- <experiment>`, or
//! `-- ci [<experiment>]` for CI's reduced rung (see
//! [`vc_bench::experiments`]).

fn main() -> std::process::ExitCode {
    vc_bench::experiments::main(&std::env::args().skip(1).collect::<Vec<_>>())
}
