//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each `experiments::figNN` module reproduces one figure: it assembles the
//! workload (paper-scale network traces on synthetic clouds), runs the
//! hardware models, and prints a paper-value-vs-measured table. The `repro`
//! binary runs them all (`cargo run --release -p mesorasi-bench --bin
//! repro`); `EXPERIMENTS.md` archives the output.
//!
//! The [`Context`] caches paper-scale traces — the expensive part — so
//! experiments that share workloads (most of them) build each trace once.

#![forbid(unsafe_code)]

pub mod context;
pub mod diff;
pub mod experiments;
pub mod largecloud;
pub mod perf;
pub mod training;

pub use context::Context;
