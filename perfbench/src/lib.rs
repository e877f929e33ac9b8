//! Host-time benchmark of the nqp workspace.
//!
//! One command runs a named workload with a given seed in a single
//! process, checks every output, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer breakdown of a traced run
//! (`--trace 1`). See `README.md` in this directory for the workloads,
//! the layer → metric → workload map and how to read the numbers.

pub mod metrics;
pub mod probes;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
