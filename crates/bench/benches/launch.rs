//! Serial-vs-parallel DPU-fleet launch microbenchmark.
//!
//! Measures the wall-clock throughput of `PimSystem::launch_all` on a
//! 256-DPU system running an embedding-style bag-sum kernel, sweeping
//! `host_threads`, and verifies that every parallel `LaunchReport` is
//! bit-identical to the serial one. Results land in
//! repo-root `BENCH_launch.json`.
//!
//! Note: the speedup column only reflects real concurrency when the
//! machine has multiple CPUs; on a single-CPU host the sweep measures
//! thread-management overhead and the identity checks still hold.

use bench::timing;
use upmem_sim::{DpuId, Kernel, LaunchReport, PimConfig, PimSystem, Result, TaskletCtx};

const NR_DPUS: usize = 256;
const TASKLETS: usize = 14;
const ROW_BYTES: usize = 128; // 32 dims x f32
const LOOKUPS_PER_TASKLET: usize = 24;

/// Embedding-style kernel: each tasklet gathers `LOOKUPS_PER_TASKLET`
/// rows from MRAM and accumulates them, like the stage-2 bag-sum.
struct BagSum;

impl Kernel for BagSum {
    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
        let mut row = [0u8; ROW_BYTES];
        let stride = (ctx.dpu_id().0 as usize * 37 + ctx.tasklet_id() * 13) % 256;
        for i in 0..LOOKUPS_PER_TASKLET {
            let addr = (((stride + i * 7) % 256) * ROW_BYTES) as u32;
            ctx.mram_read(addr, &mut row)?;
            ctx.charges().charge_accumulate(ROW_BYTES as u64 / 4, 1);
        }
        ctx.charges().charge_loop(LOOKUPS_PER_TASKLET as u64);
        Ok(())
    }
}

fn build_system(host_threads: usize) -> PimSystem {
    let mut sys = PimSystem::new(PimConfig::new(NR_DPUS, TASKLETS).with_host_threads(host_threads))
        .expect("valid config");
    let table = vec![0x5Au8; 256 * ROW_BYTES];
    for d in 0..NR_DPUS {
        sys.load_mram(DpuId(d as u32), 0, &table)
            .expect("table fits");
    }
    sys
}

fn launch_once(sys: &mut PimSystem) -> LaunchReport {
    sys.launch_all(&BagSum).expect("launch succeeds")
}

#[derive(serde::Serialize)]
struct SweepRow {
    host_threads: usize,
    mean_ns: f64,
    iters: u64,
    speedup_vs_serial: f64,
    report_identical_to_serial: bool,
}

#[derive(serde::Serialize)]
struct Output {
    nr_dpus: usize,
    tasklets: usize,
    host_cpus: usize,
    rows: Vec<SweepRow>,
}

fn main() {
    let host_cpus = upmem_sim::default_host_threads();
    println!("launch_all sweep: {NR_DPUS} DPUs x {TASKLETS} tasklets, {host_cpus} host CPU(s)");

    let mut serial_sys = build_system(1);
    let baseline_report = launch_once(&mut serial_sys);

    let mut sweep = vec![1usize, 2, 4, 8];
    if !sweep.contains(&host_cpus) {
        sweep.push(host_cpus);
    }

    let mut serial_ns = 0.0;
    let mut rows = Vec::new();
    for &threads in &sweep {
        let mut sys = build_system(threads);
        let identical = launch_once(&mut sys) == baseline_report;
        let m = timing::run(&format!("launch_all/threads={threads}"), || {
            std::hint::black_box(launch_once(&mut sys));
        });
        if threads == 1 {
            serial_ns = m.mean_ns;
        }
        rows.push(SweepRow {
            host_threads: threads,
            mean_ns: m.mean_ns,
            iters: m.iters,
            speedup_vs_serial: if m.mean_ns > 0.0 {
                serial_ns / m.mean_ns
            } else {
                0.0
            },
            report_identical_to_serial: identical,
        });
    }

    for row in &rows {
        assert!(
            row.report_identical_to_serial,
            "host_threads={} produced a different LaunchReport",
            row.host_threads
        );
        println!(
            "  threads={:<3} speedup {:.2}x  (bit-identical: {})",
            row.host_threads, row.speedup_vs_serial, row.report_identical_to_serial
        );
    }

    let out = Output {
        nr_dpus: NR_DPUS,
        tasklets: TASKLETS,
        host_cpus,
        rows,
    };
    let json = serde::json::to_string_pretty(&out);
    // cargo runs benches with cwd = the package dir; anchor at the
    // repo root, where all BENCH_*.json trajectory files live.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_launch.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
