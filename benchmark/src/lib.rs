//! `vcbench` — the repository's end-to-end benchmark.
//!
//! Four workloads drive one pod request (or one wire request) through the
//! layers of the VirtualCluster reproduction and report the same five
//! end-to-end metrics; a traced pass adds boundary spans that tile the
//! create → Ready latency, public counter deltas, and single-threaded
//! layer probes. See `README.md` for the glossary and how to read the
//! numbers.

pub mod alloc;
pub mod counters;
pub mod env;
pub mod metrics;
pub mod pods;
pub mod probes;
pub mod report;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod watchdog;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub use report::{run, Args, Outcome};
