//! The six modeled-clock sweeps behind the repo-root `BENCH_*.json`
//! goldens. Each `run` serves its arms, asserts its gates and returns
//! its document; `crates/bench/tests/sweeps.rs` checks each against
//! its committed file, and each `benches/` target of the same name
//! writes it (see [`crate::protocol`]).

pub mod drift_sweep;
pub mod pipeline_serve;
pub mod placement_sweep;
pub mod sched_sweep;
pub mod steady_state;
pub mod tenants;
