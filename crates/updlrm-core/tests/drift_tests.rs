//! Differential and determinism tests for online re-partitioning
//! (DESIGN.md §4.11).
//!
//! The contract under test: a serving engine whose replanner migrates
//! EMT shards between DPUs mid-stream must stay *functionally*
//! invisible — on integer-valued tables every pooled embedding is
//! bit-identical to a static engine's, before, during and after the
//! atomic flip — while the drift telemetry proves migrations really
//! happened (no vacuous pass) and the mid-migration snapshot is
//! byte-deterministic under a fixed seed.

use dlrm_model::EmbeddingTable;
use updlrm_core::{
    PartitionStrategy, Ps, ReplanPolicy, SchedSnapshot, Snapshot, UpdlrmConfig, UpdlrmEngine,
};
use workloads::{
    ArrivalProcess, DatasetSpec, DriftSchedule, HotSetRotation, TraceConfig, Workload,
};

const DIM: usize = 32;
const NUM_TABLES: usize = 2;
const NUM_BATCHES: usize = 12;
/// Modeled gap between scheduler ticks in these tests: large enough
/// that a migration (≈0.2 ms for these table sizes) completes within a
/// few batches, small enough that serving happens mid-migration too.
const TICK: Ps = Ps(50_000_000);

/// A rotating-hot-set (UPWL v3) workload over integer-valued tables so
/// pooled sums are exact regardless of summation order.
fn drifting_setup() -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let drift = DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 4,
            set_size: 64,
            period_ns: 150_000,
            hot_fraction: 0.8,
        }),
        spikes: Vec::new(),
        diurnal: None,
    };
    let workload = Workload::generate_drifting(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches: NUM_BATCHES,
            ..TraceConfig::default()
        },
        drift,
        ArrivalProcess::poisson(1_000_000.0, 7),
    );
    let tables = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

/// Serves the workload one batch at a time with a scheduler-style
/// `on_tick` before every launch (exactly the event-loop call site),
/// collecting every pooled value bitwise. Returns the flat bit stream
/// and the engine for post-hoc inspection.
fn serve_ticked(mut engine: UpdlrmEngine, workload: &Workload) -> (Vec<u32>, UpdlrmEngine) {
    let mut bits = Vec::new();
    let mut saw_in_flight = false;
    for (i, batch) in workload.batches.iter().enumerate() {
        engine
            .on_tick(TICK * (i as u64 + 1), SchedSnapshot::default())
            .unwrap();
        saw_in_flight |= engine.migration_in_flight();
        engine
            .serve_stream(std::slice::from_ref(batch), |_, pooled, _| {
                for m in pooled {
                    bits.extend(m.as_slice().iter().map(|v| v.to_bits()));
                }
            })
            .unwrap();
    }
    if engine.config().replan.enabled() {
        assert!(
            saw_in_flight,
            "test must exercise serving while a migration is in flight"
        );
    }
    (bits, engine)
}

fn replan_config(strategy: PartitionStrategy) -> UpdlrmConfig {
    UpdlrmConfig::with_dpus(16, strategy)
        .with_replan(ReplanPolicy::Periodic { every_batches: 3 })
        .with_telemetry()
}

#[test]
fn serving_is_bit_identical_across_migration_boundaries() {
    let (tables, workload) = drifting_setup();
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::Replicated,
        PartitionStrategy::CacheAware,
    ] {
        let static_engine = UpdlrmEngine::from_workload(
            UpdlrmConfig::with_dpus(16, strategy).with_telemetry(),
            &tables,
            &workload,
        )
        .unwrap();
        let replan_engine =
            UpdlrmEngine::from_workload(replan_config(strategy), &tables, &workload).unwrap();

        let (reference, _) = serve_ticked(static_engine, &workload);
        let (migrated, engine) = serve_ticked(replan_engine, &workload);

        assert_eq!(
            reference, migrated,
            "strategy {strategy}: pooled embeddings diverged across a migration"
        );

        // Anti-vacuous: the replanner must actually have replanned and
        // flipped at least once, or the equality above proves nothing.
        let drift = engine.metrics_snapshot().drift;
        assert!(
            drift.replans_triggered >= 1,
            "strategy {strategy}: no replan triggered ({drift:?})"
        );
        assert!(
            drift.migrations_completed >= 1,
            "strategy {strategy}: no migration flipped ({drift:?})"
        );
        assert!(drift.rows_moved > 0 && drift.migrated_bytes > 0);
        assert!(drift.migration_ns > 0.0);
        assert!(drift.last_flip_ns > 0);
    }
}

#[test]
fn uniform_replan_rebalances_toward_the_window() {
    // The planner deliberately upgrades Uniform to frequency-balanced
    // placement: after a migration the hot rows are spread out, which
    // shows up as replans that change the assignment (not skipped).
    let (tables, workload) = drifting_setup();
    let engine = UpdlrmEngine::from_workload(
        replan_config(PartitionStrategy::Uniform),
        &tables,
        &workload,
    )
    .unwrap();
    let (_, engine) = serve_ticked(engine, &workload);
    let drift = engine.metrics_snapshot().drift;
    assert!(drift.replans_triggered >= 1);
}

/// A refit that would move no row is declined. The second window is
/// the first served twice over: the same ranking fits the same layout
/// under doubled predicted loads, so the second replan is skipped and
/// nothing is re-scattered.
#[test]
fn a_refit_that_moves_no_row_is_declined() {
    let (tables, workload) = drifting_setup();
    let window = &workload.batches[..3];
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform)
        .with_replan(ReplanPolicy::Periodic { every_batches: 3 })
        .with_telemetry();
    let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
    let serve = |engine: &mut UpdlrmEngine| {
        engine.serve_stream(window, |_, _, _| {}).unwrap();
    };
    serve(&mut engine);
    engine.on_tick(TICK, SchedSnapshot::default()).unwrap();
    assert!(engine.migration_in_flight(), "the first window moves rows");
    engine.on_tick(Ps::MAX, SchedSnapshot::default()).unwrap();
    let first = engine.metrics_snapshot().drift;
    assert_eq!(
        (first.replans_triggered, first.migrations_completed),
        (1, 1)
    );
    assert_eq!(first.replans_skipped, 0);

    serve(&mut engine);
    serve(&mut engine);
    engine.on_tick(Ps::MAX, SchedSnapshot::default()).unwrap();
    assert!(!engine.migration_in_flight());
    let second = engine.metrics_snapshot().drift;
    assert_eq!(second.replans_skipped, first.replans_skipped + 1);
    assert_eq!(second.replans_triggered, first.replans_triggered);
    assert_eq!(second.rows_moved, first.rows_moved);
    assert_eq!(second.migration_ns, first.migration_ns);
}

#[test]
fn mid_migration_snapshot_is_byte_deterministic() {
    // The fixed-seed mid-migration golden the CI byte-compares: two
    // identically seeded runs must produce byte-identical snapshot
    // JSON, and the snapshot must really be mid-migration (replan
    // charged, flip not yet recorded at capture time).
    let run = || {
        let (tables, workload) = drifting_setup();
        let engine = UpdlrmEngine::from_workload(
            replan_config(PartitionStrategy::NonUniform),
            &tables,
            &workload,
        )
        .unwrap();
        let (_, engine) = serve_ticked(engine, &workload);
        let snap: Snapshot = engine
            .drift_snapshot()
            .expect("first migration captured a snapshot")
            .clone();
        assert_eq!(snap.drift.replans_triggered, 1);
        assert_eq!(snap.drift.migrations_completed, 0, "snapshot is pre-flip");
        assert!(snap.drift.migration_ns > 0.0);
        serde::json::to_string_pretty(&snap)
    };
    assert_eq!(run(), run());
}

/// Build and refit are one function: an engine that serves exactly the
/// trace it was fit to, once, and then replans refits every table to
/// the profile it was built from — so the refit equals the build and
/// the replan is declined. Uniform is the exception that proves it: a
/// refit upgrades it to non-uniform packing, so it must migrate.
#[test]
fn a_refit_on_the_fit_profile_is_the_build() {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches: 4,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::Replicated,
        PartitionStrategy::CacheAware,
    ] {
        let every_batches = workload.batches.len() as u64;
        let config = UpdlrmConfig::with_dpus(16, strategy)
            .with_replan(ReplanPolicy::Periodic { every_batches })
            .with_telemetry();
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        if strategy == PartitionStrategy::CacheAware {
            assert!(
                engine.table_report(0).cached_lists > 0,
                "lists are refit too"
            );
        }
        for batch in &workload.batches {
            engine.run_batch(batch).unwrap();
        }
        engine.on_tick(TICK, SchedSnapshot::default()).unwrap();
        let migrates = strategy == PartitionStrategy::Uniform;
        assert_eq!(engine.migration_in_flight(), migrates, "{strategy}");
        engine.on_tick(Ps::MAX, SchedSnapshot::default()).unwrap();
        let drift = engine.metrics_snapshot().drift;
        assert_eq!(
            (drift.replans_skipped, drift.migrations_completed),
            if migrates { (0, 1) } else { (1, 0) },
            "{strategy}: {drift:?}"
        );
    }
}

#[test]
fn replan_off_allocates_no_drift_state() {
    let (tables, workload) = drifting_setup();
    let mut engine = UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform).with_telemetry(),
        &tables,
        &workload,
    )
    .unwrap();
    engine.on_tick(Ps::MAX, SchedSnapshot::default()).unwrap();
    assert!(!engine.migration_in_flight());
    assert!(engine.drift_snapshot().is_none());
    assert_eq!(engine.metrics_snapshot().drift, Default::default());
}

/// The fill is visible, and paid when it happens: the first batch after
/// the build and the first after every migration flip carry the cycles
/// the slowest DPU spends copying its resident rows MRAM→WRAM — the
/// DMA engine's occupancy by the copy's `DMA_MAX_TRANSFER` chunks,
/// straight from the cost model's constants — inside stage 2, and every
/// other batch carries none.
#[test]
fn the_fill_is_charged_at_build_and_at_every_flip_and_nowhere_else() {
    use dlrm_model::EmbedDtype;
    use upmem_sim::arch::DMA_MAX_TRANSFER;
    let (tables, workload) = drifting_setup();
    for (strategy, dtype) in [
        (PartitionStrategy::Uniform, EmbedDtype::F32),
        (PartitionStrategy::CacheAware, EmbedDtype::Int8),
    ] {
        let config = UpdlrmConfig::with_dpus(16, strategy)
            .with_fixed_nc(8)
            .with_embed_dtype(dtype)
            .with_replan(ReplanPolicy::Periodic { every_batches: 3 })
            .with_telemetry();
        let cost = config.cost.clone();
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        // What copying the largest resident block costs the DMA engine.
        let fill_cost = |engine: &UpdlrmEngine| -> u64 {
            let mut worst = 0;
            for t in 0..engine.num_tables() {
                for p in 0..engine.table_report(t).tiling.row_parts {
                    let r = engine.resident_rows(t, p);
                    let arrays = [
                        r.emt_rows as usize * dtype.stored_row_bytes(8),
                        r.cache_rows as usize * 32,
                    ];
                    let chunks = arrays.iter().flat_map(|&len| {
                        (0..len)
                            .step_by(DMA_MAX_TRANSFER)
                            .map(move |off| DMA_MAX_TRANSFER.min(len - off))
                    });
                    worst = worst.max(chunks.map(|c| cost.dma_engine_cycles(c).0).sum());
                }
            }
            worst
        };
        // Two passes over the trace: a cache-aware migration moves every
        // cache row and outlasts three 50 µs ticks, so one pass of 12
        // batches completes only one flip.
        let batches = workload.batches.iter().cycle().take(2 * NUM_BATCHES);
        let mut flips_seen = 0u64;
        let mut fills = 0;
        let mut expect_fill = true; // the build
        for (i, batch) in batches.enumerate() {
            engine
                .on_tick(TICK * (i as u64 + 1), SchedSnapshot::default())
                .unwrap();
            let flips = engine.metrics_snapshot().drift.migrations_completed;
            expect_fill |= flips > flips_seen;
            flips_seen = flips;
            let want = if expect_fill { fill_cost(&engine) } else { 0 };
            let (_, b) = engine.run_batch(batch).unwrap();
            assert_eq!(b.wram_fill_cycles, want, "{strategy} batch {i}");
            if expect_fill {
                assert!(want > 0, "{strategy} batch {i}: something is resident");
                let fill = upmem_sim::Cycles(want).to_ps(cost.clock_hz);
                assert!(b.stage2 > fill, "{strategy} batch {i}");
                fills += 1;
            }
            expect_fill = false;
        }
        assert!(flips_seen >= 2, "{strategy}: {flips_seen} flips");
        assert_eq!(fills, 1 + flips_seen, "{strategy}");
    }
}
