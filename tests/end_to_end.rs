//! Workspace-level integration tests exercised through the `updlrm`
//! facade crate — the API a downstream user sees.

use std::sync::Arc;
use updlrm::prelude::*;

/// Builds a small but non-trivial evaluation setting shared by tests.
fn setting() -> (DatasetSpec, Workload, Arc<Dlrm>) {
    let spec = DatasetSpec::meta_fbgemm1().scaled_down(2000); // ~2.9k items
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 4,
            num_batches: 3,
            ..TraceConfig::default()
        },
    );
    let model = Arc::new(
        Dlrm::new_integer_tables(DlrmConfig {
            num_dense: 13,
            embedding_dim: 32,
            table_rows: vec![spec.num_items; 4],
            bottom_hidden: vec![32],
            top_hidden: vec![32],
            seed: 77,
        })
        .expect("model builds"),
    );
    (spec, workload, model)
}

#[test]
fn all_four_backends_agree_on_every_batch() {
    let (spec, workload, model) = setting();
    let profiles: Vec<FreqProfile> = (0..4)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();
    let mem = CpuMemoryModel::default();
    let gpu = GpuModel::default();
    let mut backends: Vec<Box<dyn InferenceBackend>> = vec![
        Box::new(DlrmCpu::new(model.clone(), &profiles, mem.clone()).expect("cpu")),
        Box::new(
            DlrmHybrid::new(model.clone(), &profiles, mem.clone(), gpu.clone()).expect("hybrid"),
        ),
        Box::new(Fae::new(model.clone(), &profiles, mem.clone(), gpu, 0.8).expect("fae")),
        Box::new(
            UpdlrmBackend::from_workload(
                UpdlrmConfig::with_dpus(32, PartitionStrategy::CacheAware),
                model.clone(),
                &workload,
                mem,
            )
            .expect("updlrm"),
        ),
    ];
    for batch in &workload.batches {
        let reference = model.forward(batch).expect("reference forward");
        for backend in &mut backends {
            let (out, report) = backend.run_batch(batch).expect("backend run");
            assert_eq!(out, reference, "{} diverges from reference", backend.name());
            assert!(report.total_ns() > 0.0);
        }
    }
}

#[test]
fn engine_state_is_reusable_across_batches_and_deterministic() {
    let (_, workload, model) = setting();
    let build = || {
        UpdlrmEngine::from_workload(
            UpdlrmConfig::with_dpus(32, PartitionStrategy::NonUniform),
            model.tables(),
            &workload,
        )
        .expect("engine")
    };
    let mut a = build();
    let mut b = build();
    for batch in &workload.batches {
        let (pa, ba) = a.run_batch(batch).expect("engine a");
        let (pb, bb) = b.run_batch(batch).expect("engine b");
        assert_eq!(pa, pb, "pooled outputs must be deterministic");
        assert_eq!(ba, bb, "timing must be deterministic");
    }
}

#[test]
fn strategies_differ_in_balance_not_in_results() {
    let (_, workload, model) = setting();
    let mut pooled_by_strategy = Vec::new();
    let mut imbalance_by_strategy = Vec::new();
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::CacheAware,
    ] {
        let mut engine = UpdlrmEngine::from_workload(
            UpdlrmConfig::with_dpus(32, strategy).with_fixed_nc(8),
            model.tables(),
            &workload,
        )
        .expect("engine");
        let (pooled, breakdown) = engine.run_batch(&workload.batches[0]).expect("run");
        pooled_by_strategy.push(pooled);
        imbalance_by_strategy.push(breakdown.lookup_imbalance);
    }
    assert_eq!(pooled_by_strategy[0], pooled_by_strategy[1]);
    assert_eq!(pooled_by_strategy[1], pooled_by_strategy[2]);
    // On this skewed trace, NU should be at least as balanced as U.
    assert!(imbalance_by_strategy[1] <= imbalance_by_strategy[0] + 1e-9);
}

#[test]
fn facade_prelude_covers_the_quickstart_surface() {
    // Compile-time check that the prelude exports the types the README
    // and examples rely on; exercised lightly at runtime.
    let cost = CostModel::default();
    assert!(cost.dma_cycles(8).to_ps(cost.clock_hz) > Ps::ZERO);
    let sampler = ZipfSampler::new(10, 1.0);
    assert_eq!(sampler.len(), 10);
    let sys = PimSystem::new(PimConfig::new(2, 4)).expect("pim system");
    assert_eq!(sys.nr_dpus(), 2);
    assert_eq!(DpuId(65).rank(), 1);
    assert_eq!(Hotness::Low.to_string(), "Low Hot");
}

#[test]
fn tiny_tables_and_degenerate_batches_work() {
    // Tables smaller than the partition count, empty samples, and a
    // batch of one — the paths real services hit in the tail.
    let tables = vec![
        EmbeddingTable::random_integer_valued(3, 32, 2, 0).expect("tiny table"),
        EmbeddingTable::random_integer_valued(3, 32, 2, 1).expect("tiny table"),
    ];
    let spec = DatasetSpec::balanced_synthetic(3, 2.0);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            batch_size: 1,
            num_batches: 1,
            ..TraceConfig::default()
        },
    );
    let mut engine = UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform),
        &tables,
        &workload,
    )
    .expect("engine over tiny tables");
    let batch = QueryBatch::new(
        vec![0.5; 13],
        13,
        vec![
            SparseInput::from_samples([vec![0u64, 2]]),
            SparseInput::from_samples([Vec::<u64>::new()]),
        ],
    )
    .expect("batch");
    let (pooled, _) = engine.run_batch(&batch).expect("tiny batch");
    assert_eq!(
        pooled[0].row(0),
        tables[0].partial_sum(&[0, 2]).expect("sum")
    );
    assert_eq!(pooled[1].row(0), vec![0.0f32; 32]);
}
