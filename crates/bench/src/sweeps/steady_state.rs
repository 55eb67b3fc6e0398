//! Steady-state serving: modeled ns/sample and its stage split across
//! batch size × schedule.
//!
//! One engine per batch size serves the same batch stream through
//! `UpdlrmEngine::serve`; its double-buffered wall fills the
//! `doublebuf` row and the back-to-back wall of the same breakdowns
//! (`ServeReport::sequential_wall_ns`) the `sequential` row. Four
//! identities are asserted on every f32 configuration:
//!
//! 1. every pooled row equals the ground-truth
//!    `EmbeddingTable::partial_sum` bit-for-bit (integer tables);
//! 2. serve output is bit-identical to back-to-back `run_batch` calls
//!    on a fresh engine;
//! 3. both walls equal the analytic models (`pipelined_wall`,
//!    `sequential_wall`) to the picosecond;
//! 4. serve output under the detected SIMD tier is bit-identical to a
//!    forced-scalar serve (the `bit_identical` column records this).
//!
//! One `int8` EMT configuration rides along and must model a strictly
//! smaller stage-2 than its f32 twin.
//!
//! The rows are the golden `BENCH_steady_state.json` (see
//! [`crate::protocol`]); they hold no host time, so they are the same
//! under every SIMD tier.

use crate::protocol::Sweep;
use dlrm_model::{simd, EmbedDtype, EmbeddingTable};
use serde::Serialize;
use updlrm_core::{
    pipelined_wall, sequential_wall, PartitionStrategy, Ps, UpdlrmConfig, UpdlrmEngine,
};
use workloads::{DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 4;
const NR_DPUS: usize = 64;
const DIM: usize = 32;

const BATCH_SIZES: [usize; 3] = [16, 64, 256];
const NUM_BATCHES: usize = 8;
/// Batch size of the int8 rider (and of the f32 twin it must beat).
const INT8_BATCH: usize = BATCH_SIZES[1];

#[derive(Serialize)]
struct Row {
    batch_size: usize,
    mode: String,
    batches: usize,
    samples_per_serve: usize,
    /// Modeled hardware time per sample (`ServeReport::wall_ns`, or
    /// `sequential_wall_ns` in a `sequential` row).
    modeled_ns_per_sample: f64,
    /// Modeled host share: (route + combine) / total_with_host.
    host_overhead_share: f64,
    /// Serve output under the detected SIMD tier was bit-identical to
    /// a forced-scalar serve of the same workload.
    bit_identical: bool,
    /// EMT storage dtype of this row (`f32` or `int8`).
    embed_dtype: String,
    /// Modeled stage-1 (CPU→MRAM scatter) time per sample (ns).
    stage1_ns_per_sample: f64,
    /// Modeled stage-2 (DPU kernel) time per sample (ns).
    stage2_ns_per_sample: f64,
    /// Modeled stage-3 (MRAM→CPU gather) time per sample (ns).
    stage3_ns_per_sample: f64,
}

fn dataset_spec() -> DatasetSpec {
    DatasetSpec::goodreads().scaled_down(2000)
}

fn build_tables() -> Vec<EmbeddingTable> {
    let spec = dataset_spec();
    (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect()
}

fn build_workload(batch_size: usize) -> Workload {
    Workload::generate(
        &dataset_spec(),
        TraceConfig {
            num_tables: NUM_TABLES,
            batch_size,
            num_batches: NUM_BATCHES,
            ..TraceConfig::default()
        },
    )
}

fn engine(tables: &[EmbeddingTable], workload: &Workload, dtype: EmbedDtype) -> UpdlrmEngine {
    let batch_size = workload.config.batch_size;
    let mut config =
        UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware).with_embed_dtype(dtype);
    // MRAM staging slots are sized for `config.batch_size` samples.
    config.batch_size = batch_size;
    UpdlrmEngine::from_workload(config, tables, workload).expect("engine builds")
}

/// Asserts identities 1–3 documented in the module docs (f32 only —
/// int8 EMT rows are quantized, so ground truth is approximate there).
fn assert_bit_identity(
    tables: &[EmbeddingTable],
    workload: &Workload,
    outcome: &updlrm_core::ServeOutcome,
) {
    // 1. ground truth: pooled rows are exact partial sums.
    for (i, batch) in workload.batches.iter().enumerate() {
        for (t, table) in tables.iter().enumerate() {
            let pooled = &outcome.pooled[i][t];
            for s in 0..batch.batch_size() {
                let expect = table.partial_sum(batch.sparse[t].sample(s)).expect("sum");
                let got = pooled.row(s);
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(expect.iter()) {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "pooled departs from ground truth (batch {i}, table {t}, sample {s})"
                    );
                }
            }
        }
    }
    // 2. differential vs back-to-back run_batch on a fresh engine.
    let mut fresh = engine(tables, workload, EmbedDtype::F32);
    for (i, batch) in workload.batches.iter().enumerate() {
        let (pooled, bd) = fresh.run_batch(batch).expect("run_batch");
        assert_eq!(pooled, outcome.pooled[i], "pooled departs from run_batch");
        let sbd = &outcome.breakdowns[i];
        assert_eq!(bd.stage2, sbd.stage2);
        assert_eq!(bd.route, sbd.route);
        assert_eq!(bd.combine, sbd.combine);
    }
    // 3. both walls equal the analytic models (the report prints the
    // same picoseconds in ns).
    assert_eq!(
        outcome.report.wall_ns,
        pipelined_wall(&outcome.breakdowns).as_ns(),
        "executed wall departed from the model"
    );
    assert_eq!(
        outcome.report.sequential_wall_ns,
        sequential_wall(&outcome.breakdowns).as_ns(),
        "back-to-back wall departed from the model"
    );
}

/// Identity 4: a forced-scalar serve of the same engine configuration
/// produces bit-identical pooled rows and modeled wall. Returns `true`
/// (it asserts on divergence) so the row records a checked value.
fn assert_scalar_identity(
    tables: &[EmbeddingTable],
    workload: &Workload,
    dtype: EmbedDtype,
    outcome: &updlrm_core::ServeOutcome,
) -> bool {
    let scalar = simd::with_tier(simd::SimdTier::Scalar, || {
        let mut eng = engine(tables, workload, dtype);
        eng.serve(&workload.batches).expect("serves")
    });
    assert_eq!(
        scalar.report, outcome.report,
        "modeled walls depend on SIMD tier"
    );
    for (i, (sp, op)) in scalar.pooled.iter().zip(outcome.pooled.iter()).enumerate() {
        for (t, (sm, om)) in sp.iter().zip(op.iter()).enumerate() {
            assert_eq!(sm.rows(), om.rows());
            for s in 0..sm.rows() {
                for (a, b) in sm.row(s).iter().zip(om.row(s).iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "SIMD tier {} departs from scalar (batch {i}, table {t}, sample {s})",
                        simd::tier_name()
                    );
                }
            }
        }
    }
    true
}

/// Serves one configuration, asserts its identities and returns its
/// `sequential` and `doublebuf` rows.
fn sweep_point(tables: &[EmbeddingTable], batch_size: usize, dtype: EmbedDtype) -> [Row; 2] {
    let workload = build_workload(batch_size);
    let samples = (batch_size * NUM_BATCHES) as f64;
    let mut eng = engine(tables, &workload, dtype);
    let outcome = eng.serve(&workload.batches).expect("serves");
    if dtype == EmbedDtype::F32 {
        assert_bit_identity(tables, &workload, &outcome);
    }
    let bit_identical = assert_scalar_identity(tables, &workload, dtype, &outcome);

    let (host, total_with_host) = outcome.breakdowns.iter().fold((0.0, 0.0), |(h, t), b| {
        (
            h + (b.route + b.combine).as_ns(),
            t + b.total_with_host_ns(),
        )
    });
    let (s1, s2, s3) = outcome
        .breakdowns
        .iter()
        .fold((Ps::ZERO, Ps::ZERO, Ps::ZERO), |(a, b, c), bd| {
            (a + bd.stage1, b + bd.stage2, c + bd.stage3)
        });
    let (s1, s2, s3) = (s1.as_ns(), s2.as_ns(), s3.as_ns());
    let row = |mode: &str, wall_ns: f64| Row {
        batch_size,
        mode: mode.to_string(),
        batches: NUM_BATCHES,
        samples_per_serve: batch_size * NUM_BATCHES,
        modeled_ns_per_sample: wall_ns / samples,
        host_overhead_share: host / total_with_host,
        bit_identical,
        embed_dtype: dtype.as_str().to_string(),
        stage1_ns_per_sample: s1 / samples,
        stage2_ns_per_sample: s2 / samples,
        stage3_ns_per_sample: s3 / samples,
    };
    [
        row("sequential", outcome.report.sequential_wall_ns),
        row("doublebuf", outcome.report.wall_ns),
    ]
}

/// Runs the sweep, asserting its gates, and returns its document.
pub fn run() -> Sweep {
    println!(
        "steady-state sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000, \
         {NUM_BATCHES} batches/serve, simd {}",
        simd::tier_name()
    );

    let tables = build_tables();
    let mut rows: Vec<Row> = Vec::new();
    for batch_size in BATCH_SIZES {
        rows.extend(sweep_point(&tables, batch_size, EmbedDtype::F32));
    }

    // Int8 EMT rider: its sequential row; the quantized kernel must
    // model a strictly smaller stage 2 than its f32 twin (smaller MRAM
    // rows and the cheaper u8 accumulate path).
    let [int8, _] = sweep_point(&tables, INT8_BATCH, EmbedDtype::Int8);
    let f32_twin = rows
        .iter()
        .find(|r| r.batch_size == INT8_BATCH && r.mode == "sequential")
        .expect("the f32 twin was swept");
    assert!(
        int8.stage2_ns_per_sample < f32_twin.stage2_ns_per_sample,
        "int8 stage 2 ({}) must model strictly below f32 ({})",
        int8.stage2_ns_per_sample,
        f32_twin.stage2_ns_per_sample
    );
    rows.push(int8);

    let header = [
        ("bench", "steady_state".to_value()),
        ("dataset", "goodreads/2000".to_value()),
        ("nr_dpus", NR_DPUS.to_value()),
        ("num_tables", NUM_TABLES.to_value()),
        ("dim", DIM.to_value()),
    ];
    Sweep::new(
        "steady_state",
        "BENCH_steady_state.json",
        &["batch_size", "mode", "embed_dtype"],
        &header,
        &rows,
    )
}
