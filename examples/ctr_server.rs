//! CTR inference service simulation: compare tail latencies of the four
//! systems serving the same request stream.
//!
//! ```text
//! cargo run --release --example ctr_server
//! ```
//!
//! Models the serving scenario the paper's introduction motivates:
//! batches of CTR queries arrive, each system answers them, and what
//! matters operationally is the latency distribution (p50/p95/p99), not
//! just the mean.

use std::sync::Arc;
use updlrm::prelude::*;
use updlrm::updlrm_core::percentile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DatasetSpec::meta_fbgemm2().scaled_down(400);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_batches: 30,
            ..TraceConfig::default()
        },
    );
    let model = Arc::new(Dlrm::new(DlrmConfig {
        num_dense: 13,
        embedding_dim: 32,
        table_rows: vec![spec.num_items; 8],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed: 11,
    })?);
    let profiles: Vec<FreqProfile> = (0..8)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();

    println!(
        "serving {} batches of {} queries ({} items/table, avg reduction {:.0})\n",
        workload.batches.len(),
        workload.config.batch_size,
        spec.num_items,
        workload.measured_avg_reduction()
    );

    // Scale the capacity-sensitive hardware parameters like the tables
    // (see EXPERIMENTS.md "Scaling"), otherwise the scaled-down tables
    // fit entirely in the modeled LLC / GPU memory.
    let mem = CpuMemoryModel {
        llc_bytes: (11 << 20) / 400,
        ..CpuMemoryModel::default()
    };
    let gpu = GpuModel {
        mem_bytes: (11usize << 30) / 400,
        ..GpuModel::default()
    };
    let mut backends: Vec<Box<dyn InferenceBackend>> = vec![
        Box::new(DlrmCpu::new(model.clone(), &profiles, mem.clone())?),
        Box::new(DlrmHybrid::new(
            model.clone(),
            &profiles,
            mem.clone(),
            gpu.clone(),
        )?),
        Box::new(Fae::new(model.clone(), &profiles, mem.clone(), gpu, 0.85)?),
        Box::new(UpdlrmBackend::from_workload(
            UpdlrmConfig::with_dpus(256, PartitionStrategy::CacheAware),
            model.clone(),
            &workload,
            mem,
        )?),
    ];

    println!(
        "{:>12}  {:>10}  {:>10}  {:>10}  {:>10}",
        "system", "p50 (us)", "p95 (us)", "p99 (us)", "mean (us)"
    );
    let mut reference: Option<Vec<f32>> = None;
    for backend in &mut backends {
        let mut latencies = Vec::with_capacity(workload.batches.len());
        let mut first_out = None;
        for batch in &workload.batches {
            let (out, report) = backend.run_batch(batch)?;
            latencies.push(report.total_ns() / 1e3);
            if first_out.is_none() {
                first_out = Some(out);
            }
        }
        // All systems must produce the same predictions.
        let out = first_out.expect("at least one batch");
        match &reference {
            None => reference = Some(out),
            Some(r) => {
                for (a, b) in out.iter().zip(r.iter()) {
                    assert!((a - b).abs() < 1e-4, "backend outputs diverge");
                }
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mean: f64 = latencies.iter().sum::<f64>() / latencies.len() as f64;
        println!(
            "{:>12}  {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}",
            backend.name(),
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.95),
            percentile(&latencies, 0.99),
            mean
        );
    }
    println!("\nall four systems returned identical CTR predictions");
    Ok(())
}
