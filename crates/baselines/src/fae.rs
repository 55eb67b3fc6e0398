//! FAE (Adnan et al., 2021): the hot-embedding-caching hybrid baseline.
//!
//! FAE exploits the power-law popularity of items: the hottest
//! embedding rows are replicated into GPU memory, so their gathers run
//! at device speed while only the cold tail pays the CPU + PCIe path.
//! The paper (§4.2) finds FAE between DLRM-CPU and UpDLRM.

use crate::backend::{InferenceBackend, LatencyReport};
use crate::gpu::GpuModel;
use crate::memory::CpuMemoryModel;
use dlrm_model::{Dlrm, QueryBatch};
use std::sync::Arc;
use updlrm_core::CoreError;
use workloads::FreqProfile;

/// The FAE hybrid implementation with a GPU-resident hot-row cache.
#[derive(Debug)]
pub struct Fae {
    model: Arc<Dlrm>,
    mem: CpuMemoryModel,
    gpu: GpuModel,
    /// Per-table flags: `true` = row is GPU-resident.
    gpu_hot: Vec<Vec<bool>>,
    /// Per-table flags for the *CPU* LLC over the cold tail.
    cpu_hot: Vec<Vec<bool>>,
}

impl Fae {
    /// Builds the backend. Following FAE's popularity-threshold design,
    /// the GPU cache admits the most frequent rows of every table until
    /// either `coverage_target` of the profiled accesses are covered or
    /// the device memory budget (`gpu.mem_bytes`, shared equally across
    /// tables) is exhausted.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on a profile/table count mismatch or
    /// a coverage target outside `[0, 1]`.
    pub fn new(
        model: Arc<Dlrm>,
        profiles: &[FreqProfile],
        mem: CpuMemoryModel,
        gpu: GpuModel,
        coverage_target: f64,
    ) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&coverage_target) {
            return Err(CoreError::InvalidConfig(format!(
                "coverage target must be in [0, 1], got {coverage_target}"
            )));
        }
        if profiles.len() != model.tables().len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} profiles for {} tables",
                profiles.len(),
                model.tables().len()
            )));
        }
        let tables = model.tables().len();
        let row_bytes = model.config().embedding_dim * 4;
        let budget_rows = gpu.mem_bytes / tables.max(1) / row_bytes.max(1);
        let gpu_hot: Vec<Vec<bool>> = profiles
            .iter()
            .map(|p| {
                let mut flags = vec![false; p.num_items()];
                let target = p.total_accesses() as f64 * coverage_target;
                let mut covered = 0u64;
                for item in p.hottest(budget_rows) {
                    if covered as f64 >= target {
                        break;
                    }
                    flags[item as usize] = true;
                    covered += p.count(item);
                }
                flags
            })
            .collect();
        let cpu_hot = profiles
            .iter()
            .map(|p| mem.hot_flags(p, row_bytes, tables))
            .collect();
        Ok(Fae {
            model,
            mem,
            gpu,
            gpu_hot,
            cpu_hot,
        })
    }

    /// Fraction of this batch's accesses served by the GPU cache.
    pub fn gpu_coverage(&self, batch: &QueryBatch) -> f64 {
        let (gpu_rows, cpu_hits, cpu_misses) = self.classify(batch);
        let total = gpu_rows + cpu_hits + cpu_misses;
        if total == 0 {
            0.0
        } else {
            gpu_rows as f64 / total as f64
        }
    }

    fn classify(&self, batch: &QueryBatch) -> (u64, u64, u64) {
        let mut gpu_rows = 0u64;
        let mut cpu_hits = 0u64;
        let mut cpu_misses = 0u64;
        for (t, sparse) in batch.sparse.iter().enumerate() {
            for &i in &sparse.indices {
                if self.gpu_hot[t].get(i as usize).copied().unwrap_or(false) {
                    gpu_rows += 1;
                } else if self.cpu_hot[t].get(i as usize).copied().unwrap_or(false) {
                    cpu_hits += 1;
                } else {
                    cpu_misses += 1;
                }
            }
        }
        (gpu_rows, cpu_hits, cpu_misses)
    }
}

impl InferenceBackend for Fae {
    fn name(&self) -> &'static str {
        "FAE"
    }

    fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<f32>, LatencyReport), CoreError> {
        let out = self.model.forward(batch)?;
        let b = batch.batch_size();
        let cfg = self.model.config();
        let dim = cfg.embedding_dim as u64;
        let (gpu_rows, cpu_hits, cpu_misses) = self.classify(batch);
        // CPU gathers + pools the cold tail, GPU gathers + pools the hot
        // rows; the two proceed concurrently.
        let cpu_ns = self.mem.gather_ns(cpu_hits, cpu_misses)
            + self.mem.pool_ns((cpu_hits + cpu_misses) * dim);
        let gpu_ns = self.gpu.gather_ns(gpu_rows, gpu_rows * dim);
        let embedding_ns = cpu_ns.max(gpu_ns);
        // Cold partial sums + dense features cross PCIe; dense layers
        // run on the GPU with one launch per batch.
        let pooled_bytes = b * cfg.table_rows.len() * cfg.embedding_dim * 4;
        let dense_bytes = b * cfg.num_dense * 4;
        let flops = (self.model.bottom_mlp().flops_per_sample()
            + self.model.top_mlp().flops_per_sample())
            * b as u64;
        let report = LatencyReport {
            embedding_ns,
            dense_ns: self.gpu.mlp_ns(flops),
            transfer_ns: self.gpu.pcie_ns(pooled_bytes + dense_bytes) + self.gpu.launch_overhead_ns,
            pim: None,
        };
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::DlrmCpu;
    use dlrm_model::DlrmConfig;
    use workloads::{DatasetSpec, TraceConfig, Workload};

    fn setup(gpu_bytes: usize) -> (Arc<Dlrm>, Workload, Vec<FreqProfile>, Fae) {
        let spec = DatasetSpec::goodreads().scaled_down(10_000);
        let workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: 1,
                ..TraceConfig::default()
            },
        );
        let model = Arc::new(
            Dlrm::new(DlrmConfig {
                num_dense: 13,
                embedding_dim: 32,
                table_rows: vec![spec.num_items; 2],
                bottom_hidden: vec![32],
                top_hidden: vec![32],
                seed: 3,
            })
            .unwrap(),
        );
        let profiles: Vec<FreqProfile> = (0..2)
            .map(|t| FreqProfile::from_inputs(model.tables()[t].rows(), workload.table_inputs(t)))
            .collect();
        let gpu = GpuModel {
            mem_bytes: gpu_bytes,
            ..GpuModel::default()
        };
        let fae = Fae::new(
            model.clone(),
            &profiles,
            CpuMemoryModel::default(),
            gpu,
            0.9,
        )
        .unwrap();
        (model, workload, profiles, fae)
    }

    #[test]
    fn fae_output_matches_reference() {
        let (model, w, _, mut fae) = setup(1 << 20);
        let (out, _) = fae.run_batch(&w.batches[0]).unwrap();
        assert_eq!(out, model.forward(&w.batches[0]).unwrap());
    }

    #[test]
    fn coverage_grows_with_gpu_memory() {
        let (_, w, _, fae_small) = setup(16 << 10);
        let (_, _, _, fae_large) = setup(4 << 20);
        let small = fae_small.gpu_coverage(&w.batches[0]);
        let large = fae_large.gpu_coverage(&w.batches[0]);
        assert!(large > small, "coverage {small} -> {large}");
        assert!(
            large > 0.5,
            "skewed trace should be mostly GPU-served: {large}"
        );
    }

    #[test]
    fn fae_beats_cpu_on_hot_datasets_with_ample_cache() {
        // This tiny test workload makes the fixed per-batch GPU overhead
        // dominate, so isolate the caching effect by comparing the
        // embedding layers (the harness-scale shape test covers totals).
        let (model, w, p, mut fae) = setup(8 << 20);
        let mut cpu = DlrmCpu::new(model, &p, CpuMemoryModel::default()).unwrap();
        let (_, rf) = fae.run_batch(&w.batches[0]).unwrap();
        let (_, rc) = cpu.run_batch(&w.batches[0]).unwrap();
        assert!(
            rf.embedding_ns < rc.embedding_ns,
            "FAE embedding {} should beat CPU {}",
            rf.embedding_ns,
            rc.embedding_ns
        );
    }

    #[test]
    fn zero_cache_fae_degrades_toward_hybrid() {
        let (_, w, _, fae) = setup(0);
        assert_eq!(fae.gpu_coverage(&w.batches[0]), 0.0);
    }
}
