//! End-to-end and per-layer benchmark of the croupier-suite workspace.
//!
//! The harness drives the system only through the workspace crates' public API and
//! owns the round loop, so it can time every round without tracing inside the program.
//! See `perfbench/README.md` for the workloads, the metrics and how to run it.

pub mod bench;
pub mod cell;
pub mod trace;
pub mod workloads;
