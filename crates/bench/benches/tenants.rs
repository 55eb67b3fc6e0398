//! Writes `BENCH_tenants.json` (`-- --out FILE` writes elsewhere); the sweep
//! and its gates are [`bench::sweeps::tenants`].

fn main() {
    bench::protocol::write_out(bench::sweeps::tenants::run);
}
