//! # vc-bench — experiment harnesses for the VirtualCluster paper
//!
//! One command, `cargo run --release -p vc-bench -- <experiment>`, whose
//! subcommands ([`experiments`]) regenerate each figure and table; `-- ci`
//! runs CI's reduced rung and then the regression gate. Shared machinery:
//! calibrated framework construction ([`calibration`]), burst load
//! generation and latency collection ([`load`]), tenant-density, wire and
//! abuse campaigns ([`scale`], [`wire_load`], [`abuse`]), the environment
//! variables the command reads ([`env`](mod@env)), and result formatting
//! ([`report`]). Each experiment prints the paper-reported values next to
//! the measured ones; EXPERIMENTS.md records a full run.

#![warn(missing_docs)]

pub mod abuse;
pub mod calibration;
pub mod env;
pub mod experiments;
pub mod load;
pub mod report;
pub mod scale;
pub mod wire_load;
