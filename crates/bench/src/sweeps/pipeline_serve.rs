//! Back-to-back vs executed double-buffered serving.
//!
//! Serves a batch stream through `UpdlrmEngine::serve`, sweeping the
//! number of batches, and records the executed double-buffered wall
//! next to the back-to-back wall of the same breakdowns, plus
//! throughput and tail latency. Three invariants are asserted along the
//! way: the executed wall equals the analytic `pipelined_wall` of the
//! collected breakdowns to the picosecond, the back-to-back wall equals
//! `sequential_wall` of them, and pipelining never loses to the
//! back-to-back schedule for two or more batches. The rows are the
//! golden `BENCH_pipeline.json` (see [`crate::protocol`]).

use crate::protocol::Sweep;
use dlrm_model::EmbeddingTable;
use serde::Serialize;
use updlrm_core::{pipelined_wall, sequential_wall, PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 4;
const NR_DPUS: usize = 64;
const DIM: usize = 32;
const BATCH_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn build(num_batches: usize) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches,
            ..TraceConfig::default()
        },
    );
    let tables = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

#[derive(Serialize)]
struct SweepRow {
    batches: usize,
    sequential_wall_ns: f64,
    pipelined_wall_ns: f64,
    speedup: f64,
    pipelined_matches_model: bool,
    throughput_qps: f64,
    p50_latency_ns: f64,
    p95_latency_ns: f64,
    p99_latency_ns: f64,
}

/// Runs the sweep, asserting its gates, and returns its document.
pub fn run() -> Sweep {
    println!("serve sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000");
    let mut rows = Vec::new();
    for &n in &BATCH_SWEEP {
        let (tables, workload) = build(n);
        let config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware);

        let mut engine =
            UpdlrmEngine::from_workload(config, &tables, &workload).expect("engine builds");
        let dbl = engine.serve(&workload.batches).expect("serves");
        let sequential = dbl.report.sequential_wall_ns;
        let (model_wall, model_sequential) = (
            pipelined_wall(&dbl.breakdowns),
            sequential_wall(&dbl.breakdowns),
        );

        // The report prints the model's picoseconds in ns.
        let matches_model = dbl.report.wall_ns == model_wall.as_ns();
        assert!(matches_model, "executed wall departed from the model");
        assert_eq!(sequential, model_sequential.as_ns());
        if n >= 2 {
            assert!(
                model_wall <= model_sequential,
                "pipelined {model_wall} > sequential {model_sequential} at {n} batches",
            );
        }

        let speedup = sequential / dbl.report.wall_ns;
        rows.push(SweepRow {
            batches: n,
            sequential_wall_ns: sequential,
            pipelined_wall_ns: dbl.report.wall_ns,
            speedup,
            pipelined_matches_model: matches_model,
            throughput_qps: dbl.report.throughput_qps,
            p50_latency_ns: dbl.report.p50_latency_ns,
            p95_latency_ns: dbl.report.p95_latency_ns,
            p99_latency_ns: dbl.report.p99_latency_ns,
        });
    }

    let header = [
        ("nr_dpus", NR_DPUS.to_value()),
        ("num_tables", NUM_TABLES.to_value()),
        ("dataset", "goodreads/2000".to_value()),
    ];
    Sweep::new(
        "pipeline_serve",
        "BENCH_pipeline.json",
        &["batches"],
        &header,
        &rows,
    )
}
