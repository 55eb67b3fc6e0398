//! Integration tests: the PIM engine must reproduce the reference
//! embedding layer exactly (integer tables) for every strategy and
//! tile shape, and its performance counters must reflect the paper's
//! qualitative claims.

use dlrm_model::{EmbedDtype, EmbeddingTable, QueryBatch, SparseInput};
use proptest::prelude::*;
use updlrm_core::{kernel, CoreError, PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use upmem_sim::arch::WRAM_CAPACITY;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

const DIM: usize = 32;

fn setup(spec: &DatasetSpec, num_tables: usize, batches: usize) -> (Vec<EmbeddingTable>, Workload) {
    let workload = Workload::generate(
        spec,
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

fn reference_pooled(tables: &[EmbeddingTable], batch: &QueryBatch) -> Vec<Vec<f32>> {
    tables
        .iter()
        .zip(batch.sparse.iter())
        .map(|(t, s)| t.bag_sum(s).unwrap().into_vec())
        .collect()
}

#[test]
fn engine_matches_reference_for_all_strategies() {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let (tables, workload) = setup(&spec, 2, 2);
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::CacheAware,
    ] {
        let config = UpdlrmConfig::with_dpus(16, strategy);
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        for batch in &workload.batches {
            let (pooled, _) = engine.run_batch(batch).unwrap();
            let expect = reference_pooled(&tables, batch);
            for (t, m) in pooled.iter().enumerate() {
                assert_eq!(
                    m.as_slice(),
                    expect[t].as_slice(),
                    "strategy {strategy}, table {t}"
                );
            }
        }
    }
}

#[test]
fn engine_matches_reference_for_fixed_nc() {
    let spec = DatasetSpec::amazon_home().scaled_down(5000);
    let (tables, workload) = setup(&spec, 2, 1);
    for n_c in [2usize, 4, 8] {
        let config = UpdlrmConfig::with_dpus(64, PartitionStrategy::NonUniform).with_fixed_nc(n_c);
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        let (pooled, breakdown) = engine.run_batch(&workload.batches[0]).unwrap();
        let expect = reference_pooled(&tables, &workload.batches[0]);
        for (t, m) in pooled.iter().enumerate() {
            assert_eq!(m.as_slice(), expect[t].as_slice(), "n_c {n_c}, table {t}");
        }
        assert!(breakdown.total_ns() > 0.0);
        assert_eq!(engine.table_report(0).tiling.n_c, n_c);
    }
}

#[test]
fn cache_aware_reduces_dma_traffic_on_hot_data() {
    // §3.3 / Fig. 6: partial-sum caching cuts memory accesses on
    // co-occurrence-heavy, skewed workloads. The paper's kernel
    // (nothing WRAM-resident), where every row read is an MRAM DMA.
    let mut spec = DatasetSpec::movie().scaled_down(500);
    spec.cooccur.cluster_rate = 0.6;
    let (tables, workload) = setup(&spec, 1, 4);
    let mut total = [0u64; 2];
    for (i, strategy) in [PartitionStrategy::NonUniform, PartitionStrategy::CacheAware]
        .into_iter()
        .enumerate()
    {
        let config = UpdlrmConfig::with_dpus(16, strategy).with_wram_tenants(0);
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        for batch in &workload.batches {
            let (_, b) = engine.run_batch(batch).unwrap();
            assert_eq!(b.wram_rows, 0);
            total[i] += b.dma_transfers;
        }
    }
    assert!(
        total[1] < total[0],
        "CA should issue fewer MRAM reads: NU {} vs CA {}",
        total[0],
        total[1]
    );
}

#[test]
fn non_uniform_balances_lookup_cycles_on_skewed_data() {
    // §3.2 / Fig. 6: NU balances per-DPU work where U cannot.
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let (tables, workload) = setup(&spec, 1, 3);
    let imbalance = |strategy| {
        let config = UpdlrmConfig::with_dpus(16, strategy).with_fixed_nc(8);
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        let mut worst: f64 = 0.0;
        for batch in &workload.batches {
            let (_, b) = engine.run_batch(batch).unwrap();
            worst = worst.max(b.lookup_imbalance);
        }
        worst
    };
    let u = imbalance(PartitionStrategy::Uniform);
    let nu = imbalance(PartitionStrategy::NonUniform);
    assert!(nu < u, "NU lookup imbalance {nu} should beat U {u}");
}

#[test]
fn run_inference_produces_reference_ctr() {
    use dlrm_model::{Dlrm, DlrmConfig};
    let spec = DatasetSpec::amazon_clothes().scaled_down(10_000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 1,
            ..TraceConfig::default()
        },
    );
    let config = DlrmConfig {
        num_dense: 13,
        embedding_dim: DIM,
        table_rows: vec![spec.num_items; 2],
        bottom_hidden: vec![32],
        top_hidden: vec![32],
        seed: 5,
    };
    let model = Dlrm::new_integer_tables(config).unwrap();
    let mut engine = UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware),
        model.tables(),
        &workload,
    )
    .unwrap();
    let batch = &workload.batches[0];
    let (ctr, _) = engine.run_inference(&model, batch).unwrap();
    assert_eq!(ctr, model.forward(batch).unwrap());
}

#[test]
fn dedup_ablation_increases_dma_but_not_results() {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let (tables, workload) = setup(&spec, 1, 1);
    let run = |dedup: bool| {
        let config = UpdlrmConfig {
            dedup,
            ..UpdlrmConfig::with_dpus(8, PartitionStrategy::NonUniform)
        };
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        let (pooled, b) = engine.run_batch(&workload.batches[0]).unwrap();
        (pooled[0].as_slice().to_vec(), b.dma_transfers)
    };
    let (with_dedup, dma_dedup) = run(true);
    let (without, dma_plain) = run(false);
    assert_eq!(with_dedup, without, "dedup must not change results");
    assert!(
        dma_dedup < dma_plain,
        "dedup must cut MRAM reads: {dma_dedup} vs {dma_plain}"
    );
}

#[test]
fn ragged_transfers_are_slower_than_padded() {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let (tables, workload) = setup(&spec, 1, 1);
    let stage1 = |pad: bool| {
        let config = UpdlrmConfig {
            pad_transfers: pad,
            ..UpdlrmConfig::with_dpus(8, PartitionStrategy::Uniform)
        };
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        let (_, b) = engine.run_batch(&workload.batches[0]).unwrap();
        b.stage1
    };
    // Uniform partitioning on skewed data gives ragged per-partition
    // streams; padding restores parallel rank transfers.
    assert!(stage1(true) < stage1(false));
}

#[test]
fn engine_rejects_mismatched_batches() {
    let spec = DatasetSpec::amazon_clothes().scaled_down(20_000);
    let (tables, workload) = setup(&spec, 2, 1);
    let mut engine = UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform),
        &tables,
        &workload,
    )
    .unwrap();
    // Wrong number of sparse groups.
    let bad = QueryBatch::new(
        vec![0.0; 13],
        13,
        vec![SparseInput::from_samples([vec![0u64]])],
    )
    .unwrap();
    assert!(engine.run_batch(&bad).is_err());
    // Out-of-range index.
    let bad2 = QueryBatch::new(
        vec![0.0; 13],
        13,
        vec![
            SparseInput::from_samples([vec![u64::MAX]]),
            SparseInput::from_samples([vec![0u64]]),
        ],
    )
    .unwrap();
    assert!(engine.run_batch(&bad2).is_err());
}

/// An MRAM overflow names the table it belongs to: a region layout is
/// one table's, shared by all of its partitions, and a reference stream
/// one partition's of one table. Table 1 is far larger than table 0, and
/// both overflow there.
#[test]
fn an_mram_overflow_names_its_table() {
    use upmem_sim::arch::MRAM_CAPACITY;
    const ROWS: [usize; 2] = [100, 400_000];
    let tables: Vec<EmbeddingTable> = ROWS
        .iter()
        .map(|&rows| EmbeddingTable::random_integer_valued(rows, 2, 3, rows as u64).unwrap())
        .collect();
    let profiles: Vec<FreqProfile> = ROWS.iter().map(|&rows| FreqProfile::new(rows)).collect();
    let config = UpdlrmConfig::with_dpus(2, PartitionStrategy::Uniform).with_fixed_nc(2);

    // Two staging slots of 1.9 M output rows (8 B each, x2 slack) fit
    // beside table 0's 800-byte tile but not beside table 1's 3.2 MB.
    let mut huge_batches = config.clone();
    huge_batches.batch_size = 1_900_000;
    match UpdlrmEngine::new(huge_batches, &tables, &profiles, &[]) {
        Err(e @ CoreError::TableCapacityExceeded { .. }) => {
            assert_eq!(
                e,
                CoreError::TableCapacityExceeded {
                    table: 1,
                    partition: None,
                    required: 2 * (2 << 20) + 4 * 1_900_000 * 8 + ROWS[1] * 8,
                    available: MRAM_CAPACITY,
                }
            );
            assert!(e.to_string().starts_with("table 1: MRAM layout"), "{e}");
        }
        other => panic!(
            "expected table 1's layout to overflow, got {:?}",
            other.err()
        ),
    }

    // One sample of 600 K references to table 1 overflows its one
    // partition's 2 MB reference-stream reserve.
    let mut engine = UpdlrmEngine::new(config, &tables, &profiles, &[]).unwrap();
    let refs: Vec<u64> = (0..600_000).map(|i| i % ROWS[1] as u64).collect();
    let sparse = vec![
        SparseInput::from_samples([vec![0u64]]),
        SparseInput::from_samples([refs]),
    ];
    let batch = QueryBatch::new(vec![0.0; 13], 13, sparse).unwrap();
    match engine.run_batch(&batch) {
        Err(CoreError::TableCapacityExceeded {
            table: 1,
            partition: Some(0),
            required,
            available,
        }) => assert!(required > available, "{required} <= {available}"),
        other => panic!(
            "expected table 1's stream to overflow, got {:?}",
            other.err()
        ),
    }
}

/// A table with more rows than its partitions' EMT capacity fails
/// naming the table and counting rows, under every greedy packer: NU,
/// NU+R and CA. Int8 rows at `N_c = 2` are 16 bytes, so the EMT holds
/// half the rows the tiling's f32 check admits and the packer is the
/// one to fail — for table 1, four times the size of table 0.
#[test]
fn a_table_too_large_for_its_partitions_is_named_in_rows() {
    use cooccur_cache::CacheListSet;
    const ROWS: [usize; 2] = [1024, 4096];
    let tables: Vec<EmbeddingTable> = ROWS
        .iter()
        .map(|&rows| EmbeddingTable::random_integer_valued(rows, 2, 3, rows as u64).unwrap())
        .collect();
    let profiles: Vec<FreqProfile> = ROWS.iter().map(|&rows| FreqProfile::new(rows)).collect();
    let lists = vec![CacheListSet::default(); 2];
    for strategy in [
        PartitionStrategy::NonUniform,
        PartitionStrategy::Replicated,
        PartitionStrategy::CacheAware,
    ] {
        let mut config = UpdlrmConfig::with_dpus(8, strategy)
            .with_fixed_nc(2)
            .with_embed_dtype(EmbedDtype::Int8);
        // 4 partitions per table: table 1's 1,024-row tiles pass the
        // f32 check at 8 KB, and 512 int8 rows fit per partition.
        config.emt_capacity_bytes = 1024 * 2 * 4;
        let err = UpdlrmEngine::new(config, &tables, &profiles, &lists).unwrap_err();
        match err {
            CoreError::CapacityExceeded {
                table: Some(1),
                partition: None,
                required,
                available,
            } => assert!(
                required > available,
                "{strategy}: {required} <= {available}"
            ),
            ref other => panic!("{strategy}: expected table 1 to overflow, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.starts_with("table 1: ") && msg.contains(" rows"),
            "{msg}"
        );
        assert!(
            !msg.contains("bytes") && !msg.contains("partition"),
            "{msg}"
        );
    }
}

/// Only the dedup format keeps a shared WRAM accumulator block, one row
/// per sample; the CSR kernel accumulates one row at a time, so a batch
/// whose rows would not fit the block is the dedup format's to refuse.
#[test]
fn only_the_dedup_format_is_held_to_its_wram_block() {
    const B: usize = 4096;
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let (tables, workload) = setup(&spec, 2, 1);
    let sparse = (0..2usize)
        .map(|t| {
            SparseInput::from_samples(
                (0..B).map(|s| vec![((s * 7 + t) % spec.num_items) as u64, (s % 5) as u64]),
            )
        })
        .collect();
    let batch = QueryBatch::new(vec![0.0; B * 13], 13, sparse).unwrap();
    let engine = |dedup: bool| {
        let config = UpdlrmConfig {
            dedup,
            batch_size: B,
            ..UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform).with_fixed_nc(8)
        };
        UpdlrmEngine::from_workload(config, &tables, &workload).unwrap()
    };
    let (pooled, _) = engine(false).run_batch(&batch).unwrap();
    let expect = reference_pooled(&tables, &batch);
    for (t, m) in pooled.iter().enumerate() {
        assert_eq!(m.as_slice(), expect[t].as_slice(), "table {t}");
    }
    let err = engine(true).run_batch(&batch).unwrap_err();
    assert!(
        err.to_string().contains(
            "batch 4096 x 32 B rows needs 167808 B of WRAM (131072 B of accumulators, 0 B of \
             resident rows, 36736 B of tasklet locals), 65536 B available"
        ),
        "{err}"
    );
}

#[test]
fn engine_rejects_bad_configs() {
    let spec = DatasetSpec::amazon_clothes().scaled_down(20_000);
    let (tables, workload) = setup(&spec, 3, 1);
    // 16 DPUs not divisible by 3 tables.
    assert!(UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform),
        &tables,
        &workload
    )
    .is_err());
}

/// A miner configuration that cannot produce cache lists is refused
/// before any table is mined, naming the field and its range; a
/// strategy that never mines does not look at it.
#[test]
fn bad_miner_config_is_rejected_before_mining() {
    use cooccur_cache::MinerConfig;
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let (tables, workload) = setup(&spec, 2, 1);
    let build = |strategy, miner| {
        let mut config = UpdlrmConfig::with_dpus(16, strategy);
        config.miner = miner;
        UpdlrmEngine::from_workload(config, &tables, &workload)
    };
    let ca = PartitionStrategy::CacheAware;
    let default = MinerConfig::default();
    let hot = |hot_set_size| MinerConfig {
        hot_set_size,
        ..default
    };
    let len = |max_list_len| MinerConfig {
        max_list_len,
        ..default
    };
    for (miner, want) in [
        (hot(0), "miner.hot_set_size is 0, must be at least 1"),
        (len(1), "miner.max_list_len is 1, must be in 2..=20"),
        (len(21), "miner.max_list_len is 21, must be in 2..=20"),
    ] {
        match build(ca, miner) {
            Err(CoreError::InvalidConfig(msg)) => assert_eq!(msg, want),
            other => panic!("expected InvalidConfig({want}), got {:?}", other.err()),
        }
    }
    assert!(build(ca, len(2)).is_ok());
    assert!(build(ca, hot(1)).is_ok());
    assert!(build(PartitionStrategy::Uniform, len(99)).is_ok());
}

#[test]
fn cache_fraction_zero_behaves_like_non_uniform() {
    let spec = DatasetSpec::movie().scaled_down(1000);
    let (tables, workload) = setup(&spec, 1, 2);
    let config = UpdlrmConfig::with_dpus(8, PartitionStrategy::CacheAware).with_cache_fraction(0.0);
    let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
    assert_eq!(engine.table_report(0).cached_lists, 0);
    let (pooled, _) = engine.run_batch(&workload.batches[0]).unwrap();
    let expect = reference_pooled(&tables, &workload.batches[0]);
    assert_eq!(pooled[0].as_slice(), expect[0].as_slice());
}

#[test]
fn breakdown_reports_cache_hit_counts() {
    let mut spec = DatasetSpec::movie().scaled_down(500);
    spec.cooccur.cluster_rate = 0.6;
    let (tables, workload) = setup(&spec, 1, 2);
    let mut ca = UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware),
        &tables,
        &workload,
    )
    .unwrap();
    let (_, b_ca) = ca.run_batch(&workload.batches[0]).unwrap();
    assert!(
        b_ca.cache_hits > 0,
        "CA on a clustered trace should hit the cache"
    );
    assert!(b_ca.emt_lookups > 0);

    let mut nu = UpdlrmEngine::from_workload(
        UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform),
        &tables,
        &workload,
    )
    .unwrap();
    let (_, b_nu) = nu.run_batch(&workload.batches[0]).unwrap();
    assert_eq!(b_nu.cache_hits, 0);
    // Cache hits replace several EMT lookups each: total served lookups
    // match the batch's demand either way.
    let demand: u64 = workload.batches[0]
        .sparse
        .iter()
        .map(|s| s.total_lookups() as u64)
        .sum();
    assert_eq!(b_nu.emt_lookups, demand);
    assert!(b_ca.cache_hits + b_ca.emt_lookups < demand);
}

#[test]
fn replicated_strategy_matches_reference_and_balances_a_hot_row() {
    // A pathological trace: one item appears in every sample while the
    // rest of the reduction is tiny, so a single row carries more load
    // than a balanced partition's share (greedy NU's LPT floor).
    let items = 1024usize;
    let batch = 256usize;
    let spec = DatasetSpec::balanced_synthetic(items, 2.0);
    let base = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 1,
            batch_size: batch,
            num_batches: 2,
            ..TraceConfig::default()
        },
    );
    let mut workload = base;
    for b in &mut workload.batches {
        let sp = &b.sparse[0];
        let samples: Vec<Vec<u64>> = (0..sp.batch_size())
            .map(|s| {
                let mut v = sp.sample(s).to_vec();
                if !v.contains(&0) {
                    v.push(0);
                }
                v
            })
            .collect();
        b.sparse[0] = SparseInput::from_samples(samples);
    }
    let tables = vec![EmbeddingTable::random_integer_valued(items, DIM, 3, 1).unwrap()];

    let run = |strategy: PartitionStrategy| {
        let mut config = UpdlrmConfig::with_dpus(16, strategy).with_fixed_nc(8);
        config.replicate_top = 8;
        config.batch_size = batch;
        // Remove the fixed launch overhead so per-DPU cycle imbalance
        // reflects the lookup load alone.
        config.cost.launch_overhead_cycles = 0;
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        // The first batch also fills the DPUs' resident rows; the
        // second is lookups alone.
        engine.run_batch(&workload.batches[0]).unwrap();
        let (pooled, b) = engine.run_batch(&workload.batches[0]).unwrap();
        assert_eq!(b.wram_fill_cycles, 0);
        (pooled[0].as_slice().to_vec(), b.lookup_imbalance)
    };
    let (nu_out, nu_imb) = run(PartitionStrategy::NonUniform);
    let (rep_out, rep_imb) = run(PartitionStrategy::Replicated);
    // Functional equivalence regardless of placement.
    assert_eq!(nu_out, rep_out, "replication must not change results");
    let expect = tables[0].bag_sum(&workload.batches[0].sparse[0]).unwrap();
    assert_eq!(rep_out, expect.as_slice());
    // And better balance under the planted hot row.
    assert!(
        rep_imb < nu_imb - 0.05,
        "replication should balance the hot row: NU+R {rep_imb} vs NU {nu_imb}"
    );
}

#[test]
fn int8_engine_tracks_f32_within_quant_bound() {
    // Fractional-valued tables quantized to int8 must stay within the
    // per-row quantization error budget end to end: the kernel fuses
    // dequantize into the accumulate, so the worst case per output
    // element is one quantization error per referenced row.
    use dlrm_model::{quant, EmbedDtype};
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let (_, workload) = setup(&spec, 2, 2);
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::random(spec.num_items, DIM, 2.5, 100 + t as u64).unwrap())
        .collect();
    // A valid per-reference bound for every column slice: quantization
    // happens per n_c-wide slice, whose value range is contained in the
    // whole row's range, so the whole-row bound dominates.
    let row_bound = |table: &EmbeddingTable| -> f32 {
        (0..table.rows())
            .map(|r| {
                let row = table.row(r as u64).unwrap();
                let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                quant::max_abs_error_bound((hi - lo) / 255.0, lo.abs().max(hi.abs()))
            })
            .fold(0.0, f32::max)
    };
    let bounds: Vec<f32> = tables.iter().map(row_bound).collect();

    let base = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform).with_fixed_nc(8);
    let mut f32_engine = UpdlrmEngine::from_workload(base.clone(), &tables, &workload).unwrap();
    let mut i8_engine =
        UpdlrmEngine::from_workload(base.with_embed_dtype(EmbedDtype::Int8), &tables, &workload)
            .unwrap();
    for batch in &workload.batches {
        let (f32_out, _) = f32_engine.run_batch(batch).unwrap();
        let (i8_out, _) = i8_engine.run_batch(batch).unwrap();
        for (t, (a, b)) in f32_out.iter().zip(i8_out.iter()).enumerate() {
            for s in 0..batch.batch_size() {
                let budget = batch.sparse[t].sample(s).len() as f32 * bounds[t] * 1.5;
                for (x, y) in a.row(s).iter().zip(b.row(s).iter()) {
                    assert!(
                        (x - y).abs() <= budget,
                        "table {t} sample {s}: |{x} - {y}| > {budget}"
                    );
                }
            }
        }
    }
}

#[test]
fn int8_stage2_strictly_below_f32() {
    // At n_c = 8 an int8 EMT row DMA moves 16 B instead of 32 B and the
    // fused dequantize-accumulate charges fewer pipeline instructions,
    // so the modeled stage-2 time must strictly drop whichever bound
    // (DMA engine or pipeline) binds. Uniform strategy keeps every
    // lookup on the EMT path.
    use dlrm_model::EmbedDtype;
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let (tables, workload) = setup(&spec, 2, 1);
    let base = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform).with_fixed_nc(8);
    let mut f32_engine = UpdlrmEngine::from_workload(base.clone(), &tables, &workload).unwrap();
    let mut i8_engine =
        UpdlrmEngine::from_workload(base.with_embed_dtype(EmbedDtype::Int8), &tables, &workload)
            .unwrap();
    let (_, f32_b) = f32_engine.run_batch(&workload.batches[0]).unwrap();
    let (_, i8_b) = i8_engine.run_batch(&workload.batches[0]).unwrap();
    assert!(
        i8_b.stage2 < f32_b.stage2,
        "int8 stage2 {} !< f32 stage2 {}",
        i8_b.stage2,
        f32_b.stage2
    );
    // Stage 1 (transfer) and stage 3 (gather/combine) are untouched by
    // the EMT dtype: streams and outputs stay f32.
    assert_eq!(i8_b.stage1, f32_b.stage1);
    assert_eq!(i8_b.stage3, f32_b.stage3);
}

#[test]
fn int8_constant_rows_stay_exact() {
    // Constant rows quantize with scale = 0 and reconstruct exactly, so
    // the int8 engine must agree with the f32 engine bit for bit.
    use dlrm_model::EmbedDtype;
    let spec = DatasetSpec::amazon_home().scaled_down(5000);
    let (_, workload) = setup(&spec, 2, 1);
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| {
            let mut table = EmbeddingTable::zeros(spec.num_items, DIM).unwrap();
            for r in 0..spec.num_items {
                let v = ((r * 7 + t * 3) % 13) as f32 - 6.0;
                table.as_mut_slice()[r * DIM..(r + 1) * DIM].fill(v);
            }
            table
        })
        .collect();
    let base = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform).with_fixed_nc(8);
    let mut f32_engine = UpdlrmEngine::from_workload(base.clone(), &tables, &workload).unwrap();
    let mut i8_engine =
        UpdlrmEngine::from_workload(base.with_embed_dtype(EmbedDtype::Int8), &tables, &workload)
            .unwrap();
    let (f32_out, _) = f32_engine.run_batch(&workload.batches[0]).unwrap();
    let (i8_out, _) = i8_engine.run_batch(&workload.batches[0]).unwrap();
    for (t, (a, b)) in f32_out.iter().zip(i8_out.iter()).enumerate() {
        assert_eq!(a.as_slice(), b.as_slice(), "table {t}");
    }
}

#[test]
fn an_int8_engine_refuses_a_row_whose_range_overflows_f32() {
    // Every value is finite, but the first slice of one row spans
    // -3e38..3e38: its quantization step would be infinite and every
    // value it serves NaN, so the build fails instead.
    let spec = DatasetSpec::amazon_home().scaled_down(5000);
    let (mut tables, workload) = setup(&spec, 2, 1);
    tables[1].as_mut_slice()[..4].copy_from_slice(&[-3e38, 3e38, 1.0, 0.0]);
    let base = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform).with_fixed_nc(8);
    assert!(UpdlrmEngine::from_workload(base.clone(), &tables, &workload).is_ok());
    let int8 = base.with_embed_dtype(EmbedDtype::Int8);
    let Err(err) = UpdlrmEngine::from_workload(int8, &tables, &workload) else {
        panic!("an int8 engine stored a row whose range overflows f32");
    };
    let msg = err.to_string();
    assert!(
        msg.contains("-3e38 to 3e38") && msg.contains("overflows f32"),
        "{msg}"
    );
}

#[test]
fn repeated_indices_sum_every_occurrence() {
    // Samples may name a row more than once (imported traces do); each
    // occurrence counts — of cached rows (the mask holds an item once,
    // the repeats ride on its single-item combination) and of EMT rows.
    use cooccur_cache::{CacheList, CacheListSet};
    use workloads::FreqProfile;

    let rows = 64;
    let table = EmbeddingTable::random_integer_valued(rows, DIM, 3, 5).unwrap();
    let lists = CacheListSet {
        lists: vec![
            CacheList {
                items: vec![1, 2, 3],
                benefit: 10.0,
            },
            CacheList {
                items: vec![7, 8],
                benefit: 5.0,
            },
        ],
    };
    let samples: [&[u64]; 4] = [
        &[1, 1, 2, 20, 20],
        &[7, 7, 7],
        &[3, 2, 3, 8, 8, 30, 30, 30],
        &[],
    ];
    let sparse = SparseInput::from_samples(samples);
    let profile = FreqProfile::from_inputs(rows, [&sparse]);
    let batch = QueryBatch::new(vec![0.0; samples.len()], 1, vec![sparse]).unwrap();
    for dedup in [false, true] {
        let mut config = UpdlrmConfig::with_dpus(4, PartitionStrategy::CacheAware);
        config.dedup = dedup;
        let mut engine = UpdlrmEngine::new(
            config,
            std::slice::from_ref(&table),
            std::slice::from_ref(&profile),
            std::slice::from_ref(&lists),
        )
        .unwrap();
        assert_eq!(engine.table_report(0).cached_lists, 2);
        let (pooled, breakdown) = engine.run_batch(&batch).unwrap();
        // {1,2} + 1 | {7} + 7 + 7 | {2,3} + {8} + 3 + 8.
        assert_eq!(breakdown.cache_hits, 2 + 3 + 4, "dedup {dedup}");
        assert_eq!(breakdown.emt_lookups, 2 + 3, "dedup {dedup}");
        for (s, sample) in samples.iter().enumerate() {
            assert_eq!(
                pooled[0].row(s),
                table.partial_sum(sample).unwrap().as_slice(),
                "dedup {dedup}, sample {s}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one WRAM account, for every strategy x dtype x `dedup` and a
    /// range of tasklet counts, tile widths, batch sizes and sharing
    /// tenants: on every DPU the resident block, the dedup accumulator
    /// block at the staged batch capacity and the tasklet locals are at
    /// most 64 KB — added up here from the per-partition rows the engine
    /// reports, not read off its own total — the block is within the
    /// engine's share of the budget, and a batch launches (the
    /// simulator rejects a shared region that starves the tasklets).
    #[test]
    fn resident_rows_accumulators_and_locals_fit_wram_on_every_dpu(
        strategy in (0usize..4).prop_map(|i| [
            PartitionStrategy::Uniform,
            PartitionStrategy::NonUniform,
            PartitionStrategy::CacheAware,
            PartitionStrategy::Replicated,
        ][i]),
        int8 in any::<bool>(),
        dedup in any::<bool>(),
        tasklets in 1usize..25,
        n_c in (0usize..3).prop_map(|i| [2usize, 4, 8][i]),
        batch_size in (0usize..3).prop_map(|i| [8usize, 64, 200][i]),
        wram_tenants in 0usize..4,
    ) {
        let spec = DatasetSpec::goodreads().scaled_down(2000);
        let (tables, workload) = setup(&spec, 2, 1);
        let dtype = if int8 { EmbedDtype::Int8 } else { EmbedDtype::F32 };
        let mut config = UpdlrmConfig::with_dpus(32, strategy)
            .with_fixed_nc(n_c)
            .with_embed_dtype(dtype)
            .with_wram_tenants(wram_tenants);
        config.dedup = dedup;
        config.tasklets = tasklets;
        config.batch_size = batch_size;
        let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
        let report = engine.residency();
        let row_bytes = n_c * 4;
        let account = kernel::wram_budget(row_bytes, dtype, dedup, tasklets, 2 * batch_size);
        let mut max_block = 0;
        for t in 0..engine.num_tables() {
            for p in 0..engine.table_report(t).tiling.row_parts {
                let rows = engine.resident_rows(t, p);
                let block = rows.block_bytes(dtype.stored_row_bytes(n_c), row_bytes);
                prop_assert!(block <= report.budget_bytes, "{} B block of {} B", block, report.budget_bytes);
                // (Tasklet locals and a full staging region's
                // accumulators can overflow WRAM on their own — 24
                // tasklets, 400 staged rows; such an engine keeps
                // nothing resident and refuses the batches that do not
                // fit when they arrive.)
                prop_assert!(
                    account.needed(block) <= WRAM_CAPACITY
                        || (block == 0 && account.needed(0) > WRAM_CAPACITY),
                    "table {} part {}: {} B of WRAM", t, p, account.needed(block)
                );
                max_block = max_block.max(block);
            }
        }
        prop_assert_eq!(report.max_bytes, max_block);
        prop_assert_eq!(report.max_wram_bytes, account.needed(max_block));
        // No tenant, no share; a skewed trace and room for a row behind
        // the 24-byte tag: something is kept.
        let share = account.resident_bytes().checked_div(wram_tenants).unwrap_or(0);
        prop_assert_eq!(report.budget_bytes, share);
        prop_assert_eq!(report.max_rows > 0, share >= 24 + row_bytes);
        // Batches of 64 fit every staging region sized above 32.
        if batch_size >= 64 && account.needed(0) <= WRAM_CAPACITY {
            let (pooled, b) = engine.run_batch(&workload.batches[0]).unwrap();
            let expect = reference_pooled(&tables, &workload.batches[0]);
            for (t, m) in pooled.iter().enumerate() {
                // (int8 rows are exact only up to their quantization.)
                prop_assert!(int8 || m.as_slice() == expect[t].as_slice());
            }
            prop_assert_eq!(b.wram_rows > 0, report.max_rows > 0);
            prop_assert_eq!(b.wram_fill_cycles > 0, report.max_rows > 0);
        }
    }
}

/// The runtime's shard workers each move a `&mut UpdlrmEngine` into a
/// scoped thread. Nothing else about the engine crosses threads: its
/// DPU programs need not be `Sync`, and the stage-2 kernel keeps its
/// decode memo in a `RefCell`.
#[test]
fn engine_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<UpdlrmEngine>();
}
