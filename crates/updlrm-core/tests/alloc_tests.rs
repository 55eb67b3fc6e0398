//! Proves the tentpole property: the steady-state serving path is
//! allocation-free. A counting `#[global_allocator]` (wrapping the
//! system allocator — no new dependencies) observes every heap
//! operation in this test binary; after warm-up serves, one more
//! `serve_stream` over the same batch stream must perform exactly zero
//! allocations and reallocations.
//!
//! The engine build's two per-sample loops are held to the same
//! standard first: `CooccurGraph::record_sample` only ever grows its
//! arenas (amortized doubling, no allocation per sample), and
//! `CacheListSet::measure_benefit` performs the same few heap operations
//! however many samples it is given. So is the partial-sum store:
//! `PartialSumCache::materialize` performs the same heap operations
//! however many combination entries its lists have.
//!
//! This file intentionally holds a single test: the allocation counter
//! is process-global, so concurrent tests would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cooccur_cache::{CacheList, CacheListSet, CooccurGraph, MinerConfig, PartialSumCache};
use dlrm_model::{EmbeddingTable, SparseInput};
use placement::{plan, Catalog, PlannerConfig};
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use upmem_sim::RankTopology;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

/// Counts every alloc/realloc (frees are not counted: a steady-state
/// path that frees without allocating is impossible anyway, and
/// allocations are the property of interest).
struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What places the rows: a partitioning strategy run by the engine, or
/// a placement plan the engine executes (2 ranks; host, replicated and
/// cold tiers all populated).
#[derive(Debug, Clone, Copy)]
enum Placement {
    Strategy(PartitionStrategy),
    Plan,
}

fn setup(placement: Placement, telemetry: bool) -> (UpdlrmEngine, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let num_tables = 2;
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches: 4,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..num_tables)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64).unwrap())
        .collect();
    let strategy = match placement {
        Placement::Strategy(s) => s,
        Placement::Plan => PartitionStrategy::Uniform, // unused by from_plan
    };
    let mut config = UpdlrmConfig::with_dpus(16, strategy);
    config.telemetry = telemetry;
    config.batch_size = workload.config.batch_size;
    let engine = match placement {
        Placement::Strategy(_) => UpdlrmEngine::from_workload(config, &tables, &workload),
        Placement::Plan => {
            let profiles: Vec<FreqProfile> = (0..num_tables)
                .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
                .collect();
            let planner = PlannerConfig {
                topology: RankTopology {
                    nr_ranks: 2,
                    dpus_per_rank: 8,
                },
                emt_capacity_bytes: (spec.num_items / 3 + 64) * 32 * 4,
                host_cache_bytes: num_tables * 48 * 32 * 4,
                replicate_top: 16,
                ..PlannerConfig::default()
            };
            let catalog = Catalog::homogeneous(num_tables, spec.num_items, 32);
            let p = plan(&catalog, &profiles, &planner).unwrap();
            assert!(p.rank_rows.iter().all(|&r| r > 0), "both ranks hold rows");
            for tp in &p.tables {
                assert!(!tp.host_rows.is_empty() && !tp.replicated_rows.is_empty());
                assert!(tp.rows_per_part.iter().any(|&n| n > 0), "a cold tier");
            }
            UpdlrmEngine::from_plan(config, &p, &tables)
        }
    }
    .unwrap();
    (engine, workload)
}

/// Heap operations performed by `f`.
fn heap_ops(f: impl FnOnce()) -> u64 {
    let before = ALLOC_OPS.load(Ordering::SeqCst);
    f();
    ALLOC_OPS.load(Ordering::SeqCst) - before
}

/// The cache-list miner's per-sample loops: recording a sample and
/// scoring it against the mined lists allocate nothing of their own.
fn mining_loops_do_not_allocate_per_sample() {
    let spec = DatasetSpec::goodreads().scaled_down(500);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 1,
            num_batches: 16,
            ..TraceConfig::default()
        },
    );
    let inputs: Vec<&SparseInput> = workload.table_inputs(0).collect();
    let samples: Vec<&[u64]> = inputs.iter().flat_map(|i| i.iter()).collect();
    assert!(samples.len() >= 1000);
    let profile = FreqProfile::from_inputs(spec.num_items, inputs.iter().copied());
    let miner = MinerConfig::default();

    // The first sample sizes the scratch; after it the only heap
    // operations are the arenas doubling — a few dozen over a thousand
    // samples, where one allocation per sample would be a thousand.
    let mut graph = CooccurGraph::new(&profile, miner.hot_set_size);
    graph.record_sample(samples[0]);
    let ops = heap_ops(|| {
        for sample in &samples[1..] {
            graph.record_sample(sample);
        }
    });
    assert!(
        ops <= 48,
        "record_sample: {ops} heap ops over {} samples",
        samples.len() - 1
    );

    // Same lists, one sample or all of them: the same heap operations
    // (the direct map, the per-list counters, the final sort).
    let mined = CacheListSet::mine(&graph, &miner);
    assert!(mined.len() > 20, "lists to measure");
    let one_sample = SparseInput::from_samples([samples[0]]);
    let (mut a, mut b) = (mined.clone(), mined);
    let ops_one = heap_ops(|| a.measure_benefit([&one_sample]));
    let ops_all = heap_ops(|| b.measure_benefit(inputs.iter().copied()));
    assert_eq!(
        ops_all,
        ops_one,
        "measure_benefit allocated per sample ({} samples)",
        samples.len()
    );
    assert!(b.lists[0].benefit > 0.0, "the trace hits the lists");
}

/// The partial-sum store allocates per table, not per cached row: 768
/// four-item lists (11,520 entries) take the heap operations 768
/// two-item lists (2,304 entries) take. A host copy of each entry's
/// row or item list would be one or two allocations per entry.
fn cache_index_does_not_allocate_per_entry() {
    let table = EmbeddingTable::zeros(4 * 768, 4).unwrap();
    let lists = |k: u64| CacheListSet {
        lists: (0..768)
            .map(|l| CacheList {
                items: (l * k..(l + 1) * k).collect(),
                benefit: 1.0,
            })
            .collect(),
    };
    let (two, four) = (lists(2), lists(4));
    let mut entries = [0; 2];
    let ops_two = heap_ops(|| {
        let cache = PartialSumCache::materialize(&two, &table).unwrap();
        entries[0] = cache.num_entries();
    });
    let ops_four = heap_ops(|| {
        let cache = PartialSumCache::materialize(&four, &table).unwrap();
        entries[1] = cache.num_entries();
    });
    assert_eq!(entries, [768 * 3, 768 * 15]);
    assert_eq!(
        ops_four, ops_two,
        "materialize allocated per entry ({ops_two} heap ops for two-item lists)"
    );
}

#[test]
fn steady_state_serve_stream_is_allocation_free() {
    mining_loops_do_not_allocate_per_sample();
    cache_index_does_not_allocate_per_entry();

    // Cache-aware is the worst case: routing exercises the partial-sum
    // cache lookup scratch on top of everything else. Telemetry must
    // hold the same invariant: its counter arenas (per-DPU cells, span
    // accumulators, cache traffic) are preallocated at construction, so
    // recording adds zero heap operations to the hot path.
    // A plan-built engine is the same engine: its per-rank scatter and
    // gather lists and its host-tier hit lists are arenas too.
    for (placement, telemetry) in [
        (Placement::Strategy(PartitionStrategy::Uniform), false),
        (Placement::Strategy(PartitionStrategy::CacheAware), false),
        (Placement::Plan, false),
        (Placement::Strategy(PartitionStrategy::Uniform), true),
        (Placement::Strategy(PartitionStrategy::CacheAware), true),
        (Placement::Plan, true),
    ] {
        let (mut engine, workload) = setup(placement, telemetry);

        // Warm-up: two serves populate every arena (both MRAM staging
        // slots' kernels, stream buffers at their high-water marks, the
        // recycled matrix pool, gather staging, serve bookkeeping).
        for _ in 0..2 {
            engine
                .serve_stream(&workload.batches, |_, _, _| {})
                .unwrap();
        }

        let before = ALLOC_OPS.load(Ordering::SeqCst);
        let report = engine
            .serve_stream(&workload.batches, |_, _, _| {})
            .unwrap();
        let after = ALLOC_OPS.load(Ordering::SeqCst);

        assert_eq!(report.batches, workload.batches.len());
        assert!(report.wall_ns > 0.0);
        assert_eq!(
            after - before,
            0,
            "steady-state serve_stream allocated under {placement:?} (telemetry {telemetry}) \
             ({} heap ops for {} batches)",
            after - before,
            report.batches
        );
        if telemetry {
            // The metrics actually recorded through the zero-alloc pass.
            let snap = engine.metrics_snapshot();
            assert_eq!(snap.batches as usize, 3 * workload.batches.len());
            assert!(snap.launches > 0);
            assert!(snap.load_imbalance.min >= 1.0 - 1e-9);
        }
    }
}
