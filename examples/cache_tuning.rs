//! Cache tuning: sweep the partial-sum cache capacity (the paper's §3.3
//! knob) and the miner's list length, showing the storage/latency
//! trade-off.
//!
//! ```text
//! cargo run --release --example cache_tuning
//! ```

use std::sync::Arc;
use updlrm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DatasetSpec::goodreads().scaled_down(400);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_batches: 12,
            ..TraceConfig::default()
        },
    );
    let model = Arc::new(Dlrm::new(DlrmConfig {
        num_dense: 13,
        embedding_dim: 32,
        table_rows: vec![spec.num_items; 8],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed: 23,
    })?);
    println!(
        "GoodReads-like workload: {} items/table, avg reduction {:.0}\n",
        spec.num_items,
        workload.measured_avg_reduction()
    );

    let measure = |config: UpdlrmConfig| -> Result<(f64, u64), Box<dyn std::error::Error>> {
        let mut backend = UpdlrmBackend::from_workload(
            config,
            model.clone(),
            &workload,
            CpuMemoryModel::default(),
        )?;
        let mut lookup_ns = 0.0;
        let mut dma = 0;
        for batch in &workload.batches {
            let (_, report) = backend.run_batch(batch)?;
            let pim = report.pim.expect("PIM backend");
            lookup_ns += pim.stage2.as_ns();
            dma += pim.dma_transfers;
        }
        Ok((lookup_ns, dma))
    };

    // Baseline: non-uniform, no cache.
    let (base_ns, base_dma) = measure(UpdlrmConfig::with_dpus(64, PartitionStrategy::NonUniform))?;
    println!(
        "baseline NU (no cache): lookup {:.1} us, {} MRAM reads",
        base_ns / 1e3,
        base_dma
    );

    println!("\ncache capacity sweep (fraction of mined-list storage):");
    println!(
        "{:>10}  {:>12}  {:>12}  {:>10}",
        "capacity", "lookup (us)", "MRAM reads", "vs base"
    );
    for fraction in [0.2, 0.4, 0.7, 1.0] {
        let config = UpdlrmConfig::with_dpus(64, PartitionStrategy::CacheAware)
            .with_cache_fraction(fraction);
        let (ns, dma) = measure(config)?;
        println!(
            "{:>9.0}%  {:>12.1}  {:>12}  {:>9.1}%",
            fraction * 100.0,
            ns / 1e3,
            dma,
            (1.0 - ns / base_ns) * 100.0
        );
    }

    println!("\nmax cache-list length sweep (storage is 2^k - 1 rows per list):");
    println!(
        "{:>10}  {:>12}  {:>14}",
        "max items", "lookup (us)", "cache rows/tbl"
    );
    for max_list_len in [2usize, 3, 4, 5] {
        let mut config = UpdlrmConfig::with_dpus(64, PartitionStrategy::CacheAware);
        config.miner = MinerConfig {
            max_list_len,
            ..MinerConfig::default()
        };
        let backend = UpdlrmBackend::from_workload(
            config.clone(),
            model.clone(),
            &workload,
            CpuMemoryModel::default(),
        )?;
        let rows: u32 = backend
            .engine()
            .table_report(0)
            .cache_rows_per_part
            .iter()
            .sum();
        let (ns, _) = measure(config)?;
        println!("{:>10}  {:>12.1}  {:>14}", max_list_len, ns / 1e3, rows);
    }
    println!("\npaper (§3.3): 40% / 70% / 100% capacity cut lookup time 17% / 22% / 26%");
    Ok(())
}
