//! # vc-bench — experiment harnesses for the VirtualCluster paper
//!
//! Shared machinery for the per-figure/table binaries (see `src/bin/*`):
//! calibrated framework construction ([`calibration`]), burst load
//! generation and latency collection ([`load`]), tenant-density campaigns
//! ([`scale`]), and result formatting ([`report`]). Each binary prints the
//! paper-reported values next to the measured ones; EXPERIMENTS.md records
//! a full run.

#![warn(missing_docs)]

pub mod abuse;
pub mod calibration;
pub mod load;
pub mod report;
pub mod scale;
pub mod wire_load;
