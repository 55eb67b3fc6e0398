//! # bench — the experiment harness
//!
//! Regenerates every table and figure of the UpDLRM paper's evaluation
//! (see DESIGN.md §3 for the experiment index). Each `bin/` target
//! prints one figure as an aligned table and mirrors it to
//! `target/experiments/*.csv`; [`experiments`] exposes the same data as
//! typed rows so the shape tests can assert the paper's qualitative
//! claims.
//!
//! Scale is controlled by the `UPDLRM_EVAL` environment variable:
//! `quick` (CI), unset/`standard`, or `full` (the paper's 12,800
//! inferences).
//!
//! The six [`sweeps`] (`steady_state`, `sched_sweep`,
//! `placement_sweep`, `tenants`, `drift_sweep`, `pipeline_serve`) run
//! on the modeled clock only: each asserts its gates and returns its
//! document, which [`protocol`] byte-compares with the repo-root
//! `BENCH_<name>.json` (a tier-1 test per sweep) or writes to it (the
//! `benches/` target of the same name). Nothing in this crate reads a host clock —
//! host time is measured by the `benchmark/` package (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod protocol;
pub mod report;
pub mod setup;
pub mod sweeps;

pub use report::{fmt_ns, BarChart, Table};
pub use setup::{EvalConfig, EvalSetup};
