//! DLRM-CPU: the CPU-only baseline (paper Table 2, first row).
//!
//! The CPU stores the embedding tables in DRAM and performs both the
//! embedding gathers and the dense layers. Gather cost is trace-driven
//! through the LLC hot-set model of [`CpuMemoryModel`].

use crate::backend::{InferenceBackend, LatencyReport};
use crate::memory::CpuMemoryModel;
use dlrm_model::{Dlrm, QueryBatch};
use std::sync::Arc;
use updlrm_core::CoreError;
use workloads::FreqProfile;

/// The CPU-only DLRM implementation.
#[derive(Debug)]
pub struct DlrmCpu {
    model: Arc<Dlrm>,
    mem: CpuMemoryModel,
    hot: Vec<Vec<bool>>,
}

impl DlrmCpu {
    /// Builds the backend; `profiles` drive the per-table LLC hot sets.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the profile count mismatches the
    /// model's table count.
    pub fn new(
        model: Arc<Dlrm>,
        profiles: &[FreqProfile],
        mem: CpuMemoryModel,
    ) -> Result<Self, CoreError> {
        if profiles.len() != model.tables().len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} profiles for {} tables",
                profiles.len(),
                model.tables().len()
            )));
        }
        let row_bytes = model.config().embedding_dim * 4;
        let tables = model.tables().len();
        let hot = profiles
            .iter()
            .map(|p| mem.hot_flags(p, row_bytes, tables))
            .collect();
        Ok(DlrmCpu { model, mem, hot })
    }

    /// Counts this batch's LLC hits and misses against the hot sets.
    pub(crate) fn classify(&self, batch: &QueryBatch) -> (u64, u64) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (t, sparse) in batch.sparse.iter().enumerate() {
            for &i in &sparse.indices {
                if self.hot[t].get(i as usize).copied().unwrap_or(false) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        (hits, misses)
    }

    /// Embedding-layer time for this batch (gather + pooling) — exposed
    /// so harnesses can compare embedding layers in isolation (Fig. 9).
    pub fn embedding_ns(&self, batch: &QueryBatch) -> f64 {
        let (hits, misses) = self.classify(batch);
        let dim = self.model.config().embedding_dim as u64;
        let adds = (hits + misses) * dim;
        self.mem.gather_ns(hits, misses) + self.mem.pool_ns(adds)
    }

    /// Dense-layer time for `batch_size` samples.
    pub fn dense_ns(&self, batch_size: usize) -> f64 {
        let flops = (self.model.bottom_mlp().flops_per_sample()
            + self.model.top_mlp().flops_per_sample())
            * batch_size as u64;
        self.mem.mlp_ns(flops)
    }
}

impl InferenceBackend for DlrmCpu {
    fn name(&self) -> &'static str {
        "DLRM-CPU"
    }

    fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<f32>, LatencyReport), CoreError> {
        let out = self.model.forward(batch)?;
        let report = LatencyReport {
            embedding_ns: self.embedding_ns(batch),
            dense_ns: self.dense_ns(batch.batch_size()),
            transfer_ns: 0.0,
            pim: None,
        };
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::DlrmConfig;
    use workloads::{DatasetSpec, TraceConfig, Workload};

    fn setup() -> (Arc<Dlrm>, Workload) {
        let spec = DatasetSpec::goodreads().scaled_down(10_000);
        let workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: 2,
                ..TraceConfig::default()
            },
        );
        let model = Dlrm::new(DlrmConfig {
            num_dense: 13,
            embedding_dim: 32,
            table_rows: vec![spec.num_items; 2],
            bottom_hidden: vec![32],
            top_hidden: vec![32],
            seed: 3,
        })
        .unwrap();
        (Arc::new(model), workload)
    }

    fn profiles(model: &Dlrm, w: &Workload) -> Vec<FreqProfile> {
        (0..model.tables().len())
            .map(|t| FreqProfile::from_inputs(model.tables()[t].rows(), w.table_inputs(t)))
            .collect()
    }

    #[test]
    fn output_matches_reference_forward() {
        let (model, w) = setup();
        let p = profiles(&model, &w);
        let mut cpu = DlrmCpu::new(model.clone(), &p, CpuMemoryModel::default()).unwrap();
        let (out, report) = cpu.run_batch(&w.batches[0]).unwrap();
        assert_eq!(out, model.forward(&w.batches[0]).unwrap());
        assert!(report.embedding_ns > 0.0);
        assert!(report.dense_ns > 0.0);
        assert_eq!(report.transfer_ns, 0.0);
    }

    #[test]
    fn skewed_traces_hit_the_llc_often() {
        let (model, w) = setup();
        let p = profiles(&model, &w);
        let cpu = DlrmCpu::new(model, &p, CpuMemoryModel::default()).unwrap();
        let (hits, misses) = cpu.classify(&w.batches[0]);
        assert!(
            hits > misses,
            "goodreads-like trace should be cache friendly: {hits}/{misses}"
        );
    }

    #[test]
    fn embedding_cost_dominates_for_high_reduction() {
        // The paper's premise: embedding layers are the bottleneck.
        let (model, w) = setup();
        let p = profiles(&model, &w);
        let mut cpu = DlrmCpu::new(model, &p, CpuMemoryModel::default()).unwrap();
        let (_, report) = cpu.run_batch(&w.batches[0]).unwrap();
        assert!(report.embedding_ns > report.dense_ns);
    }

    #[test]
    fn profile_count_is_validated() {
        let (model, w) = setup();
        let p = profiles(&model, &w);
        assert!(DlrmCpu::new(model, &p[..1], CpuMemoryModel::default()).is_err());
    }
}
