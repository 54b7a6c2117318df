//! Whole-run benchmark of the sparsegossip workspace.
//!
//! Untraced runs drive each workload through the library's public entry
//! points and yield the end-to-end metrics; a separate traced run
//! replays each workload from the layers' public functions and yields
//! the per-layer metrics. See `README.md` in this directory.

pub mod checks;
pub mod counts;
pub mod metrics;
pub mod replica;
pub mod speed;
pub mod trace;
pub mod workloads;
