//! Writes `BENCH_sched.json` (`-- --out FILE` writes elsewhere); the sweep
//! and its gates are [`bench::sweeps::sched_sweep`].

fn main() {
    bench::protocol::write_out(bench::sweeps::sched_sweep::run);
}
