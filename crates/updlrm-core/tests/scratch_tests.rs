//! Differential tests for the scratch-arena serving path introduced by
//! the zero-allocation refactor: `serve_stream` (which lends pooled
//! embeddings to a sink and recycles them) must be bit-identical to
//! `serve` (which clones them into a `ServeOutcome`), which in turn is
//! pinned against back-to-back `run_batch` by `serve_tests.rs`. Also
//! covers the scratch-reuse hazards the arena design introduces:
//! repeated serves over the same engine, interleaved batch sizes, and
//! the staging-slot capacity guard.

use dlrm_model::{EmbeddingTable, Matrix};
use updlrm_core::{EmbeddingBreakdown, PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{DatasetSpec, TraceConfig, Workload};

const DIM: usize = 32;

fn setup(num_tables: usize, batches: usize, batch_size: usize) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches: batches,
            batch_size,
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

fn assert_matrices_bit_equal(a: &[Matrix], b: &[Matrix], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: table count");
    for (t, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.rows(), y.rows(), "{what}: table {t} rows");
        for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits(), "{what}: table {t} value");
        }
    }
}

/// `serve_stream`'s lent results must be bit-identical to `serve`'s
/// owned outcome, across strategies.
#[test]
fn serve_stream_matches_serve_bitwise() {
    let (tables, workload) = setup(2, 4, 32);
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::CacheAware,
    ] {
        let config = UpdlrmConfig::with_dpus(16, strategy);
        let mut reference = engine(config.clone(), &tables, &workload);
        let outcome = reference.serve(&workload.batches).unwrap();

        let mut streamed = engine(config, &tables, &workload);
        let mut seen: Vec<(usize, Vec<Matrix>, EmbeddingBreakdown)> = Vec::new();
        let report = streamed
            .serve_stream(&workload.batches, |i, pooled, bd| {
                seen.push((i, pooled.to_vec(), *bd));
            })
            .unwrap();

        assert_eq!(report, outcome.report, "{strategy} report");
        assert_eq!(seen.len(), workload.batches.len(), "{strategy}");
        for (i, pooled, bd) in &seen {
            assert_matrices_bit_equal(
                pooled,
                &outcome.pooled[*i],
                &format!("{strategy} batch {i}"),
            );
            assert_eq!(bd, &outcome.breakdowns[*i], "{strategy} batch {i}");
        }
        // The sink fires in batch order.
        for (pos, (i, _, _)) in seen.iter().enumerate() {
            assert_eq!(pos, *i, "{strategy} sink order");
        }
    }
}

/// Serving again over the same engine reuses every warmed arena; the
/// results must not drift. The one thing an engine carries from pass to
/// pass on purpose is what its DPUs hold in WRAM: the very first batch
/// after the build also fills the resident rows, so the first pass is
/// compared in its outputs and the passes after it in everything.
#[test]
fn repeated_serves_are_stable() {
    let (tables, workload) = setup(2, 3, 32);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
    let mut eng = engine(config, &tables, &workload);
    let cold = eng.serve(&workload.batches).unwrap();
    let first = eng.serve(&workload.batches).unwrap();
    assert!(cold.breakdowns[0].wram_fill_cycles > 0);
    assert!(first.breakdowns.iter().all(|b| b.wram_fill_cycles == 0));
    assert_eq!(cold.breakdowns[1..], first.breakdowns[1..]);
    for (i, (a, b)) in cold.pooled.iter().zip(first.pooled.iter()).enumerate() {
        assert_matrices_bit_equal(a, b, &format!("cold batch {i}"));
    }
    for round in 2..4 {
        let again = eng.serve(&workload.batches).unwrap();
        assert_eq!(again.report, first.report, "round {round} report");
        for (i, (a, b)) in again.pooled.iter().zip(first.pooled.iter()).enumerate() {
            assert_matrices_bit_equal(a, b, &format!("round {round} batch {i}"));
        }
        assert_eq!(again.breakdowns, first.breakdowns, "round {round}");
    }
}

/// Alternating batch sizes forces the arenas (refs, streams, gather
/// staging, matrix pool) to re-shape between batches; results must
/// match fresh-engine runs of each batch alone (alone and, past the
/// first batch, on DPUs whose resident rows are already filled: a fresh
/// engine serves the batch twice and its second run is compared).
#[test]
fn mixed_batch_sizes_reuse_scratch_correctly() {
    let (tables, small_wl) = setup(2, 2, 16);
    let (_, large_wl) = setup(2, 2, 48);
    let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform);

    let mixed = vec![
        small_wl.batches[0].clone(),
        large_wl.batches[0].clone(),
        small_wl.batches[1].clone(),
        large_wl.batches[1].clone(),
    ];

    let mut eng = engine(config.clone(), &tables, &small_wl);
    let mut got = Vec::new();
    for batch in &mixed {
        got.push(eng.run_batch(batch).unwrap());
    }
    for (i, batch) in mixed.iter().enumerate() {
        let mut fresh = engine(config.clone(), &tables, &small_wl);
        let (mut pooled, mut bd) = fresh.run_batch(batch).unwrap();
        assert!(bd.wram_fill_cycles > 0);
        if i > 0 {
            (pooled, bd) = fresh.run_batch(batch).unwrap();
        }
        assert_matrices_bit_equal(&got[i].0, &pooled, &format!("mixed batch {i}"));
        assert_eq!(got[i].1, bd, "mixed batch {i} breakdown");
    }
}

/// The staging-slot capacity guard: a batch larger than the MRAM
/// partial-sum region sized at construction must be rejected instead of
/// silently overflowing into the neighbouring region (the latent bug
/// the steady-state benchmark exposed).
#[test]
fn oversized_batch_is_rejected_not_corrupted() {
    let (tables, small_wl) = setup(2, 1, 16);
    // Engine sized for 16-sample batches (x2 slack -> 32 rows staged).
    let mut config = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform);
    config.batch_size = 16;
    let mut eng = engine(config, &tables, &small_wl);

    let (_, big_wl) = setup(2, 1, 64);
    let err = eng.run_batch(&big_wl.batches[0]).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("staged output rows"),
        "unexpected error: {msg}"
    );
    // The engine stays usable for fitting batches.
    let (pooled, _) = eng.run_batch(&small_wl.batches[0]).unwrap();
    assert_eq!(pooled.len(), 2);
}
