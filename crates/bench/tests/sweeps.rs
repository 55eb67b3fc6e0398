//! Every sweep against its committed `BENCH_*.json`, byte for byte.
//!
//! Each test runs one sweep of `bench::sweeps`, which asserts its own
//! gates on the way, and compares the document it returns with the
//! repo-root file. A mismatch names the row and column that differ
//! and the `cargo bench` command that regenerates the file.
//!
//! `steady_state` serves each configuration a second time on the scalar
//! tier, under `simd::with_tier`: the override covers its own thread and
//! the engine's DPU worker, and the sweeps beside it keep the detected
//! tier. No document depends on the tier: `steady_state` asserts it,
//! and CI runs this file under `UPDLRM_FORCE_SCALAR=1` too.

use bench::protocol::Sweep;
use bench::sweeps;

fn matches_its_committed_file(sweep: Sweep) {
    if let Err(e) = sweep.check() {
        panic!("{e}");
    }
}

#[test]
fn steady_state() {
    matches_its_committed_file(sweeps::steady_state::run());
}

#[test]
fn sched_sweep() {
    matches_its_committed_file(sweeps::sched_sweep::run());
}

#[test]
fn placement_sweep() {
    matches_its_committed_file(sweeps::placement_sweep::run());
}

#[test]
fn tenants() {
    matches_its_committed_file(sweeps::tenants::run());
}

#[test]
fn pipeline_serve() {
    matches_its_committed_file(sweeps::pipeline_serve::run());
}

#[test]
fn drift_sweep() {
    matches_its_committed_file(sweeps::drift_sweep::run());
}
