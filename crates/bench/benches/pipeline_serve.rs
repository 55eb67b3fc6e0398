//! Writes `BENCH_pipeline.json` (`-- --out FILE` writes elsewhere); the sweep
//! and its gates are [`bench::sweeps::pipeline_serve`].

fn main() {
    bench::protocol::write_out(bench::sweeps::pipeline_serve::run);
}
