//! Writes `BENCH_placement.json` (`-- --out FILE` writes elsewhere); the sweep
//! and its gates are [`bench::sweeps::placement_sweep`].

fn main() {
    bench::protocol::write_out(bench::sweeps::placement_sweep::run);
}
