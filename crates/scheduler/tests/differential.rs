//! The tentpole correctness property (ISSUE 5): the scheduler is a
//! *front-end*, not a numerics path. For any fixed seed/config, feeding
//! the formed batch sequence through the event loop must produce pooled
//! embeddings bit-identical to calling `serve_stream` directly on the
//! same batch sequence with a fresh engine — queueing and batching
//! decide *when* work runs, never *what* it computes.

use dlrm_model::{EmbeddingTable, Matrix, QueryBatch, SparseInput};
use scheduler::{assemble_into, OverloadPolicy, SchedConfig, Scheduler};
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

const DIM: usize = 32;

fn setup(process: ArrivalProcess) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 3,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(process);
    let tables = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engine(tables: &[EmbeddingTable], workload: &Workload, max_batch: usize) -> UpdlrmEngine {
    let config = UpdlrmConfig {
        batch_size: max_batch,
        ..UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
    };
    UpdlrmEngine::from_workload(config, tables, workload).unwrap()
}

fn assert_bit_identical(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{ctx}: col mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Scheduler-formed batches vs a direct `serve_stream` over the same
/// sequence, across load regimes (partial deadline batches, full size
/// batches, shed traffic) and both arrival processes.
#[test]
fn scheduler_pooled_embeddings_match_direct_serve_stream() {
    for (process, cfg) in [
        (
            // Low load: deadline-triggered partial batches.
            ArrivalProcess::poisson(2_000.0, 11),
            SchedConfig {
                max_batch_size: 32,
                max_wait_ns: 500_000,
                queue_cap: 64,
                policy: OverloadPolicy::ShedOldest,
            },
        ),
        (
            // Saturation: size-triggered full batches plus shedding.
            ArrivalProcess::poisson(50_000_000.0, 12),
            SchedConfig {
                max_batch_size: 32,
                max_wait_ns: 100_000,
                queue_cap: 48,
                policy: OverloadPolicy::ShedOldest,
            },
        ),
        (
            // Bursty mid load with blocking: mixed batch sizes.
            ArrivalProcess::bursty(300_000.0, 13),
            SchedConfig {
                max_batch_size: 16,
                max_wait_ns: 200_000,
                queue_cap: 24,
                policy: OverloadPolicy::Block,
            },
        ),
    ] {
        let (tables, workload) = setup(process);

        // Scheduler run: capture each formed batch's query ids and a
        // clone of its pooled embeddings.
        let mut eng = engine(&tables, &workload, cfg.max_batch_size);
        let mut sched = Scheduler::new(cfg).unwrap();
        let mut formed: Vec<Vec<u32>> = Vec::new();
        let mut pooled_seen: Vec<Vec<Matrix>> = Vec::new();
        let report = sched
            .run(&mut eng, &workload, |seq, ids, pooled, _| {
                assert_eq!(seq, formed.len(), "sink fires in launch order");
                formed.push(ids.to_vec());
                pooled_seen.push(pooled.to_vec());
            })
            .unwrap();
        assert_eq!(report.batches as usize, formed.len());
        assert!(
            report.batches > 1,
            "want a multi-batch sequence: {report:?}"
        );
        // One batch per `serve_stream` call: nothing to overlap, so the
        // engine never starts its DPU worker thread.
        assert!(
            format!("{eng:?}").contains("dpu_worker: false"),
            "Scheduler::run started a DPU worker: {eng:?}"
        );

        // Reference: assemble the same batch sequence and serve it
        // directly on a fresh engine.
        let batches: Vec<QueryBatch> = formed
            .iter()
            .map(|ids| {
                let mut b = QueryBatch {
                    sparse: vec![SparseInput::default(); workload.config.num_tables],
                    ..QueryBatch::default()
                };
                assemble_into(&workload, ids, &mut b);
                b.validate().unwrap();
                b
            })
            .collect();
        let mut reference = engine(&tables, &workload, cfg.max_batch_size);
        let mut pooled_ref: Vec<Vec<Matrix>> = Vec::new();
        reference
            .serve_stream(&batches, |_, pooled, _| pooled_ref.push(pooled.to_vec()))
            .unwrap();

        assert_eq!(pooled_seen.len(), pooled_ref.len());
        for (bi, (a, b)) in pooled_seen.iter().zip(&pooled_ref).enumerate() {
            assert_eq!(a.len(), b.len());
            for (t, (ma, mb)) in a.iter().zip(b).enumerate() {
                assert_bit_identical(ma, mb, &format!("{process:?} batch {bi} table {t}"));
            }
        }
    }
}

/// The assembled batch is exactly the queries' rows from the source
/// workload, in pop order.
#[test]
fn assemble_into_copies_the_right_samples() {
    let (_, workload) = setup(ArrivalProcess::poisson(1_000.0, 1));
    let bs = workload.config.batch_size;
    let nd = workload.config.num_dense;
    let ids = [0u32, 65, 3, (bs as u32) * 2 + 7];
    let mut out = QueryBatch {
        sparse: vec![SparseInput::default(); workload.config.num_tables],
        ..QueryBatch::default()
    };
    assemble_into(&workload, &ids, &mut out);
    out.validate().unwrap();
    assert_eq!(out.batch_size(), ids.len());
    for (row, &id) in ids.iter().enumerate() {
        let (bi, si) = (id as usize / bs, id as usize % bs);
        assert_eq!(
            &out.dense[row * nd..(row + 1) * nd],
            &workload.batches[bi].dense[si * nd..(si + 1) * nd]
        );
        for t in 0..workload.config.num_tables {
            assert_eq!(
                out.sparse[t].sample(row),
                workload.batches[bi].sparse[t].sample(si),
                "table {t} row {row}"
            );
        }
    }
}
