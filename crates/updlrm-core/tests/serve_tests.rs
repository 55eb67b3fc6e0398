//! Differential tests for the executed double-buffered serving path:
//! serving a stream of batches must be *functionally* indistinguishable
//! from back-to-back `run_batch` calls (bit-identical pooled
//! embeddings on integer tables, identical stage-2 kernel timing), and
//! its executed wall clock must equal the analytic schedule of
//! `pipeline.rs` exactly — not approximately.

use dlrm_model::EmbeddingTable;
use placement::{Catalog, PlannerConfig};
use updlrm_core::{
    pipelined_wall_ns, sequential_wall_ns, PartitionStrategy, PipelineMode, UpdlrmConfig,
    UpdlrmEngine,
};
use upmem_sim::RankTopology;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

const DIM: usize = 32;

fn fig10_setup(num_tables: usize, batches: usize) -> (Vec<EmbeddingTable>, Workload) {
    // Fig. 10-style workload: the goodreads trace (scaled so tests stay
    // fast) over integer-valued tables, so pooled embeddings are exact.
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches: batches,
            ..TraceConfig::default()
        },
    );
    let tables = (0..num_tables)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engine(config: UpdlrmConfig, tables: &[EmbeddingTable], workload: &Workload) -> UpdlrmEngine {
    UpdlrmEngine::from_workload(config, tables, workload).unwrap()
}

#[test]
fn doublebuf_serve_matches_sequential_run_batch_bitwise() {
    let (tables, workload) = fig10_setup(2, 4);
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::CacheAware,
    ] {
        let config = UpdlrmConfig::with_dpus(16, strategy);
        let mut seq = engine(config.clone(), &tables, &workload);
        let mut reference = Vec::new();
        for batch in &workload.batches {
            reference.push(seq.run_batch(batch).unwrap());
        }

        let mut piped = engine(
            config.with_pipeline_mode(PipelineMode::DoubleBuf),
            &tables,
            &workload,
        );
        let outcome = piped.serve(&workload.batches).unwrap();

        assert_eq!(outcome.pooled.len(), workload.batches.len());
        for (i, (ref_pooled, ref_bd)) in reference.iter().enumerate() {
            for (t, m) in outcome.pooled[i].iter().enumerate() {
                assert_eq!(
                    m.as_slice(),
                    ref_pooled[t].as_slice(),
                    "strategy {strategy}, batch {i}, table {t}"
                );
            }
            // Stage times are slot-independent: the same streams land at
            // a different (equally aligned) base, so every per-stage
            // number the breakdown carries is bit-equal to run_batch's.
            assert_eq!(
                &outcome.breakdowns[i], ref_bd,
                "strategy {strategy}, batch {i} breakdown"
            );
        }
    }
}

/// Both schedules run one stage sequence: a double-buffered serve and
/// back-to-back `run_batch` calls, each on a fresh engine, leave equal
/// telemetry — every counter, every span `Accum` (its f64 sum included,
/// so a reordered record call shows) and every per-DPU cell — except
/// the four serve-level fields only a serve records. For the four
/// strategies and a plan-built engine with a host tier.
#[test]
fn doublebuf_serve_records_what_run_batch_records() {
    let (tables, workload) = fig10_setup(2, 5);
    let rows = tables[0].rows();
    let profiles: Vec<FreqProfile> = (0..2)
        .map(|t| FreqProfile::from_inputs(rows, workload.table_inputs(t)))
        .collect();
    let planner = PlannerConfig {
        topology: RankTopology {
            nr_ranks: 2,
            dpus_per_rank: 8,
        },
        emt_capacity_bytes: (rows / 3 + 64) * DIM * 4,
        host_cache_bytes: 2 * 64 * DIM * 4,
        replicate_top: 16,
        ..PlannerConfig::default()
    };
    let plan = placement::plan(&Catalog::homogeneous(2, rows, DIM), &profiles, &planner).unwrap();
    assert!(plan.tables.iter().all(|t| !t.host_rows.is_empty()));
    for strategy in [
        Some(PartitionStrategy::Uniform),
        Some(PartitionStrategy::NonUniform),
        Some(PartitionStrategy::CacheAware),
        Some(PartitionStrategy::Replicated),
        None, // the plan
    ] {
        let build = |mode| {
            let config = match strategy {
                Some(s) => UpdlrmConfig::with_dpus(16, s),
                None => UpdlrmConfig::default(),
            };
            let config = config.with_telemetry().with_pipeline_mode(mode);
            match strategy {
                Some(_) => engine(config, &tables, &workload),
                None => UpdlrmEngine::from_plan(config, &plan, &tables).unwrap(),
            }
        };
        let mut back_to_back = build(PipelineMode::Sequential);
        for batch in &workload.batches {
            back_to_back.run_batch(batch).unwrap();
        }
        let mut piped = build(PipelineMode::DoubleBuf);
        piped.serve(&workload.batches).unwrap();

        let want = back_to_back.metrics_snapshot();
        let mut got = piped.metrics_snapshot();
        assert_eq!(got.serves, 1, "{strategy:?}");
        assert!(got.serve_wall_ns < got.sequential_wall_ns, "{strategy:?}");
        got.serves = want.serves;
        got.serve_wall_ns = want.serve_wall_ns;
        got.sequential_wall_ns = want.sequential_wall_ns;
        got.overlap_saved_ns = want.overlap_saved_ns;
        assert_eq!(got, want, "{strategy:?}");
    }
}

#[test]
fn doublebuf_wall_equals_analytic_schedule_exactly() {
    let (tables, workload) = fig10_setup(2, 6);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
        .with_pipeline_mode(PipelineMode::DoubleBuf);
    let mut eng = engine(config, &tables, &workload);
    let outcome = eng.serve(&workload.batches).unwrap();

    let model = pipelined_wall_ns(&outcome.breakdowns);
    assert_eq!(
        outcome.report.wall_ns.to_bits(),
        model.to_bits(),
        "executed wall {} != analytic {}",
        outcome.report.wall_ns,
        model
    );
    // Pipelining must actually pay off relative to back-to-back.
    assert!(outcome.report.wall_ns <= sequential_wall_ns(&outcome.breakdowns));
    assert_eq!(outcome.report.mode, PipelineMode::DoubleBuf);
    assert_eq!(outcome.report.queue_depth, 2);
    assert_eq!(outcome.report.batches, workload.batches.len());
    assert!(outcome.report.throughput_qps > 0.0);
    assert!(outcome.report.p50_latency_ns > 0.0);
    assert!(outcome.report.p50_latency_ns <= outcome.report.p95_latency_ns);
    assert!(outcome.report.p95_latency_ns <= outcome.report.p99_latency_ns);
    assert!(outcome.report.p99_latency_ns <= outcome.report.wall_ns);
}

#[test]
fn sequential_serve_wall_equals_sequential_model_exactly() {
    let (tables, workload) = fig10_setup(2, 3);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform);
    let mut eng = engine(config, &tables, &workload);
    let outcome = eng.serve(&workload.batches).unwrap();
    assert_eq!(outcome.report.mode, PipelineMode::Sequential);
    assert_eq!(outcome.report.queue_depth, 1);
    assert_eq!(
        outcome.report.wall_ns.to_bits(),
        sequential_wall_ns(&outcome.breakdowns).to_bits()
    );
}

#[test]
fn queue_depth_one_degenerates_to_sequential() {
    let (tables, workload) = fig10_setup(2, 3);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform)
        .with_pipeline_mode(PipelineMode::DoubleBuf)
        .with_queue_depth(1);
    let mut eng = engine(config, &tables, &workload);
    let outcome = eng.serve(&workload.batches).unwrap();
    // Mode echoes the configuration, but the schedule is back-to-back.
    assert_eq!(outcome.report.mode, PipelineMode::DoubleBuf);
    assert_eq!(outcome.report.queue_depth, 1);
    assert_eq!(
        outcome.report.wall_ns.to_bits(),
        sequential_wall_ns(&outcome.breakdowns).to_bits()
    );
}

#[test]
fn queue_depth_zero_is_rejected() {
    let (tables, workload) = fig10_setup(2, 1);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform).with_queue_depth(0);
    let mut eng = engine(config, &tables, &workload);
    let err = eng.serve(&workload.batches).unwrap_err();
    assert!(
        matches!(err, updlrm_core::CoreError::InvalidConfig(_)),
        "unexpected error: {err}"
    );
}

#[test]
fn serve_handles_empty_and_single_batch_streams() {
    let (tables, workload) = fig10_setup(2, 1);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
        .with_pipeline_mode(PipelineMode::DoubleBuf);
    let mut eng = engine(config, &tables, &workload);

    let empty = eng.serve(&[]).unwrap();
    assert_eq!(empty.report.batches, 0);
    assert_eq!(empty.report.wall_ns, 0.0);
    assert_eq!(empty.report.throughput_qps, 0.0);

    let one = eng.serve(&workload.batches[..1]).unwrap();
    // A single batch cannot overlap with anything: its pipelined wall
    // is its sequential wall, and the latency is the whole schedule.
    assert_eq!(
        one.report.wall_ns.to_bits(),
        sequential_wall_ns(&one.breakdowns).to_bits()
    );
    assert_eq!(
        one.report.p50_latency_ns.to_bits(),
        one.report.wall_ns.to_bits()
    );
}

#[test]
fn repeated_serves_are_deterministic() {
    // Slot state from a previous serve must not leak into the next one.
    // What does carry over, by design, is the DPUs' WRAM: the first
    // serve after a build also fills the resident rows — its first
    // batch, and only that, is charged for it.
    let (tables, workload) = fig10_setup(2, 3);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
        .with_pipeline_mode(PipelineMode::DoubleBuf);
    let mut eng = engine(config, &tables, &workload);
    let cold = eng.serve(&workload.batches).unwrap();
    let first = eng.serve(&workload.batches).unwrap();
    let second = eng.serve(&workload.batches).unwrap();
    assert_eq!(first.pooled, second.pooled);
    assert_eq!(first.breakdowns, second.breakdowns);
    assert_eq!(first.report, second.report);
    assert_eq!(cold.pooled, first.pooled);
    assert!(cold.breakdowns[0].stage2_ns > first.breakdowns[0].stage2_ns);
    assert_eq!(cold.breakdowns[1..], first.breakdowns[1..]);
}
