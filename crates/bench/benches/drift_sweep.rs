//! Writes `BENCH_drift.json` (`-- --out FILE` writes elsewhere); the sweep
//! and its gates are [`bench::sweeps::drift_sweep`].

fn main() {
    bench::protocol::write_out(bench::sweeps::drift_sweep::run);
}
