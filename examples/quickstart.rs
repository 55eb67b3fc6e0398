//! Quickstart: run UpDLRM end-to-end on a GoodReads-like workload and
//! print the embedding-layer latency breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use updlrm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A workload: GoodReads-like skew, scaled down so the example
    //    runs in seconds. Eight embedding tables, batch size 64.
    let spec = DatasetSpec::goodreads().scaled_down(200);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_batches: 10,
            ..TraceConfig::default()
        },
    );
    println!(
        "workload: {} ({} items, avg reduction {:.1}, {} batches of {})",
        spec.name,
        spec.num_items,
        workload.measured_avg_reduction(),
        workload.batches.len(),
        workload.config.batch_size,
    );

    // 2. A DLRM whose eight tables match the workload.
    let model = Dlrm::new(DlrmConfig {
        num_dense: 13,
        embedding_dim: 32,
        table_rows: vec![spec.num_items; 8],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed: 42,
    })?;
    println!(
        "model: 8 tables x {} rows x 32 dims = {:.1} MB of embeddings",
        spec.num_items,
        model.embedding_bytes() as f64 / 1e6
    );

    // 3. UpDLRM: partition the tables cache-aware over 64 simulated
    //    DPUs (profiling + GRACE-style cache mining happen inside).
    let config = UpdlrmConfig::with_dpus(64, PartitionStrategy::CacheAware);
    let mut engine = UpdlrmEngine::from_workload(config, model.tables(), &workload)?;
    for t in 0..1 {
        let report = engine.table_report(t);
        println!(
            "table {t}: N_c = {} ({} row partitions x {} column slices), \
             {} cache lists placed, load imbalance {:.2}",
            report.tiling.n_c,
            report.tiling.row_parts,
            report.tiling.col_slices,
            report.cached_lists,
            report.imbalance,
        );
    }

    // 4. Inference: embeddings on the PIM array, dense layers on the CPU.
    let mut acc = EmbeddingBreakdown::default();
    let mut checked = 0;
    for batch in &workload.batches {
        let (ctr, breakdown) = engine.run_inference(&model, batch)?;
        acc.accumulate(&breakdown);
        // The PIM path must agree with the pure-CPU reference.
        let reference = model.forward(batch)?;
        for (a, b) in ctr.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-4, "PIM and CPU disagree: {a} vs {b}");
        }
        checked += ctr.len();
    }
    println!("verified {checked} CTR predictions against the CPU reference");

    let total = acc.total_ns();
    println!(
        "\nembedding-layer breakdown over {} batches:",
        workload.batches.len()
    );
    println!(
        "  stage 1 (CPU->DPU): {:9.1} us ({:4.1}%)",
        acc.stage1.as_ns() / 1e3,
        100.0 * acc.stage1.as_ns() / total
    );
    println!(
        "  stage 2 (lookup):   {:9.1} us ({:4.1}%)",
        acc.stage2.as_ns() / 1e3,
        100.0 * acc.stage2.as_ns() / total
    );
    println!(
        "  stage 3 (DPU->CPU): {:9.1} us ({:4.1}%)",
        acc.stage3.as_ns() / 1e3,
        100.0 * acc.stage3.as_ns() / total
    );
    println!("  total:              {:9.1} us", total / 1e3);
    println!("  MRAM DMA transfers: {}", acc.dma_transfers);
    println!(
        "  lookup imbalance:   {:.2} (max DPU / mean DPU)",
        acc.lookup_imbalance
    );
    Ok(())
}
