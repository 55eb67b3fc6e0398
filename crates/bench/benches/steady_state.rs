//! Writes `BENCH_steady_state.json` (`-- --out FILE` writes elsewhere); the sweep
//! and its gates are [`bench::sweeps::steady_state`].

fn main() {
    bench::protocol::write_out(bench::sweeps::steady_state::run);
}
