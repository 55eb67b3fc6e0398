//! The UpDLRM backend: PIM embedding layer + CPU dense layers, behind
//! the common [`InferenceBackend`] interface.

use crate::backend::{InferenceBackend, LatencyReport};
use crate::memory::CpuMemoryModel;
use dlrm_model::{Dlrm, QueryBatch};
use std::sync::Arc;
use updlrm_core::{CoreError, EmbeddingBreakdown, UpdlrmConfig, UpdlrmEngine};
use workloads::Workload;

/// UpDLRM as an inference backend: embeddings on the (simulated) UPMEM
/// array, dense layers on the host CPU.
#[derive(Debug)]
pub struct UpdlrmBackend {
    model: Arc<Dlrm>,
    engine: UpdlrmEngine,
    mem: CpuMemoryModel,
}

impl UpdlrmBackend {
    /// Builds the backend: partitions the model's tables per `config`
    /// (profiling + cache mining from `workload`) and loads the PIM
    /// array.
    ///
    /// # Errors
    ///
    /// Propagates engine construction errors.
    pub fn from_workload(
        config: UpdlrmConfig,
        model: Arc<Dlrm>,
        workload: &Workload,
        mem: CpuMemoryModel,
    ) -> Result<Self, CoreError> {
        let engine = UpdlrmEngine::from_workload(config, model.tables(), workload)?;
        Ok(UpdlrmBackend { model, engine, mem })
    }

    /// The underlying engine (e.g. for table placement reports).
    pub fn engine(&self) -> &UpdlrmEngine {
        &self.engine
    }

    /// Mutable engine access, e.g. to drive the pipelined serving path
    /// ([`UpdlrmEngine::serve`]) directly.
    pub fn engine_mut(&mut self) -> &mut UpdlrmEngine {
        &mut self.engine
    }

    /// The backend's latency report for `batch`, whose embedding layer
    /// the engine served with `breakdown`: the PIM embedding time with
    /// host routing and combination, and `model`'s dense layers on the
    /// CPU under `mem`.
    pub fn latency_report(
        model: &Dlrm,
        mem: &CpuMemoryModel,
        batch: &QueryBatch,
        breakdown: EmbeddingBreakdown,
    ) -> LatencyReport {
        let flops = (model.bottom_mlp().flops_per_sample() + model.top_mlp().flops_per_sample())
            * batch.batch_size() as u64;
        LatencyReport {
            embedding_ns: breakdown.total_with_host_ns(),
            dense_ns: mem.mlp_ns(flops),
            transfer_ns: 0.0,
            pim: Some(breakdown),
        }
    }
}

impl InferenceBackend for UpdlrmBackend {
    fn name(&self) -> &'static str {
        "UpDLRM"
    }

    fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<f32>, LatencyReport), CoreError> {
        let (out, breakdown) = self.engine.run_inference(&self.model, batch)?;
        let report = Self::latency_report(&self.model, &self.mem, batch, breakdown);
        Ok((out, report))
    }

    fn metrics_snapshot(&self) -> Option<updlrm_core::Snapshot> {
        Some(self.engine.metrics_snapshot())
    }

    fn residency(&self) -> Option<updlrm_core::ResidencyReport> {
        Some(self.engine.residency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::DlrmConfig;
    use updlrm_core::PartitionStrategy;
    use workloads::{DatasetSpec, TraceConfig};

    #[test]
    fn updlrm_backend_matches_reference_and_reports_pim_stages() {
        let spec = DatasetSpec::goodreads().scaled_down(10_000);
        let workload = workloads::Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: 1,
                ..TraceConfig::default()
            },
        );
        let model = Arc::new(
            Dlrm::new_integer_tables(DlrmConfig {
                num_dense: 13,
                embedding_dim: 32,
                table_rows: vec![spec.num_items; 2],
                bottom_hidden: vec![32],
                top_hidden: vec![32],
                seed: 3,
            })
            .unwrap(),
        );
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
        let mut backend = UpdlrmBackend::from_workload(
            config,
            model.clone(),
            &workload,
            CpuMemoryModel::default(),
        )
        .unwrap();
        let (out, report) = backend.run_batch(&workload.batches[0]).unwrap();
        assert_eq!(out, model.forward(&workload.batches[0]).unwrap());
        let pim = report.pim.expect("pim breakdown present");
        assert!(pim.stage2.0 > 0);
        assert!(report.embedding_ns >= pim.total_ns());
    }
}
