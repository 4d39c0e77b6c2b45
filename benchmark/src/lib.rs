//! **dagfl-benchmark** — the repository's one performance yardstick.
//!
//! Five named workloads, end-to-end metrics from untraced runs and a
//! traced per-layer cost ladder, all measured from outside through the
//! `dagfl` facade's public functions. See `benchmark/README.md`.

#![deny(missing_docs)]

pub mod alloc;
pub mod canary;
pub mod cli;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod net;
pub mod outcome;
pub mod proc;
pub mod sim;
pub mod span;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;
