//! Shared experiment setup: scaled datasets, models, workloads and the
//! four backends, built the same way for every figure.
//!
//! The paper's full-size tables (up to 6M rows x 8 replicas) would need
//! several GB of host memory to materialize functionally, so the
//! default evaluation scales item counts down by [`EvalConfig::item_scale`]
//! (the GPU cache of FAE is scaled by the same factor). Partitioning,
//! caching and routing logic are scale-free; EXPERIMENTS.md records the
//! scaling next to every result.

use baselines::{
    CpuMemoryModel, DlrmCpu, DlrmHybrid, Fae, GpuModel, InferenceBackend, UpdlrmBackend,
};
use dlrm_model::{Dlrm, DlrmConfig};
use std::sync::Arc;
use updlrm_core::{CoreError, PartitionStrategy, UpdlrmConfig};
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

/// Evaluation scale knobs shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Divide Table 1 item counts by this factor.
    pub item_scale: usize,
    /// Batches of 64 inferences per measurement (the paper uses 200).
    pub num_batches: usize,
    /// Total DPUs (the paper uses 256).
    pub nr_dpus: usize,
    /// Tasklets per DPU (the paper uses 14).
    pub tasklets: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl EvalConfig {
    /// Fast configuration for CI-style shape tests.
    pub fn quick() -> Self {
        EvalConfig {
            item_scale: 512,
            num_batches: 4,
            nr_dpus: 256,
            tasklets: 14,
            seed: 7,
        }
    }

    /// Standard configuration for the experiment binaries.
    pub fn standard() -> Self {
        EvalConfig {
            item_scale: 64,
            num_batches: 20,
            nr_dpus: 256,
            tasklets: 14,
            seed: 7,
        }
    }

    /// Reads `UPDLRM_EVAL` from the environment: `full` runs the
    /// paper's 12,800 inferences at a larger scale, anything else (or
    /// unset) uses [`EvalConfig::standard`].
    pub fn from_env() -> Self {
        match std::env::var("UPDLRM_EVAL").as_deref() {
            Ok("full") => EvalConfig {
                item_scale: 32,
                num_batches: 200,
                nr_dpus: 256,
                tasklets: 14,
                seed: 7,
            },
            Ok("quick") => Self::quick(),
            _ => Self::standard(),
        }
    }

    /// The spec scaled to this configuration.
    pub fn scale(&self, spec: &DatasetSpec) -> DatasetSpec {
        spec.scaled_down(self.item_scale)
    }

    /// Trace configuration (8 tables, batch 64, Criteo-style dense).
    pub fn trace(&self) -> TraceConfig {
        TraceConfig {
            num_tables: 8,
            batch_size: 64,
            num_batches: self.num_batches,
            num_dense: 13,
            seed: self.seed,
        }
    }
}

/// Everything one dataset's evaluation needs, built once and shared by
/// the backends.
pub struct EvalSetup {
    /// The scaled dataset specification.
    pub spec: DatasetSpec,
    /// The evaluation configuration used.
    pub eval: EvalConfig,
    /// The DLRM model (8 tables matching the spec).
    pub model: Arc<Dlrm>,
    /// The generated request trace.
    pub workload: Workload,
    /// Per-table access profiles of the trace.
    pub profiles: Vec<FreqProfile>,
}

impl std::fmt::Debug for EvalSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSetup")
            .field("spec", &self.spec.short)
            .field("num_batches", &self.workload.batches.len())
            .finish()
    }
}

impl EvalSetup {
    /// Builds the standard evaluation setup for one dataset.
    ///
    /// # Errors
    ///
    /// Model construction errors (propagated from [`Dlrm::new`]).
    pub fn build(spec: &DatasetSpec, eval: EvalConfig) -> Result<Self, CoreError> {
        let spec = eval.scale(spec);
        let workload = Workload::generate(&spec, eval.trace());
        let model = Arc::new(Dlrm::new(DlrmConfig {
            num_dense: 13,
            embedding_dim: 32,
            table_rows: vec![spec.num_items; 8],
            bottom_hidden: vec![64],
            top_hidden: vec![64, 16],
            seed: eval.seed,
        })?);
        let profiles = (0..8)
            .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
            .collect();
        Ok(EvalSetup {
            spec,
            eval,
            model,
            workload,
            profiles,
        })
    }

    /// The GPU model with device memory scaled like the tables (the
    /// paper's 11 GB GTX 1080 Ti against full-size tables).
    pub fn gpu_model(&self) -> GpuModel {
        GpuModel {
            mem_bytes: (11usize << 30) / self.eval.item_scale,
            ..GpuModel::default()
        }
    }

    /// The CPU memory model with the LLC scaled like the tables (the
    /// paper's 11 MB Xeon LLC against full-size tables) — without this,
    /// scaled-down tables would fit the cache and flatter the CPU.
    pub fn cpu_memory_model(&self) -> CpuMemoryModel {
        CpuMemoryModel {
            llc_bytes: ((11usize << 20) / self.eval.item_scale).max(4096),
            ..CpuMemoryModel::default()
        }
    }

    /// DLRM-CPU backend.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    pub fn cpu(&self) -> Result<DlrmCpu, CoreError> {
        DlrmCpu::new(self.model.clone(), &self.profiles, self.cpu_memory_model())
    }

    /// DLRM-Hybrid backend.
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    pub fn hybrid(&self) -> Result<DlrmHybrid, CoreError> {
        DlrmHybrid::new(
            self.model.clone(),
            &self.profiles,
            self.cpu_memory_model(),
            self.gpu_model(),
        )
    }

    /// FAE backend (85% access-coverage target for the hot-entry
    /// classification, as in the FAE paper's popularity threshold).
    ///
    /// # Errors
    ///
    /// Propagates backend construction failures.
    pub fn fae(&self) -> Result<Fae, CoreError> {
        Fae::new(
            self.model.clone(),
            &self.profiles,
            self.cpu_memory_model(),
            self.gpu_model(),
            0.85,
        )
    }

    /// UpDLRM backend with the given strategy and optional fixed `N_c`,
    /// as the paper designed it: every row read is an MRAM DMA
    /// (`wram_tenants = 0`). The figure sweeps reproduce the paper's
    /// numbers with this one.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn updlrm(
        &self,
        strategy: PartitionStrategy,
        n_c: Option<usize>,
    ) -> Result<UpdlrmBackend, CoreError> {
        self.updlrm_with(strategy, n_c, false)
    }

    /// [`EvalSetup::updlrm`] with the DPUs' hottest rows WRAM-resident
    /// (the engine's default) — the column Figs. 8 and 10 print beside
    /// the paper design.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn updlrm_resident(
        &self,
        strategy: PartitionStrategy,
        n_c: Option<usize>,
    ) -> Result<UpdlrmBackend, CoreError> {
        self.updlrm_with(strategy, n_c, true)
    }

    fn updlrm_with(
        &self,
        strategy: PartitionStrategy,
        n_c: Option<usize>,
        resident: bool,
    ) -> Result<UpdlrmBackend, CoreError> {
        let mut config = UpdlrmConfig::with_dpus(self.eval.nr_dpus, strategy)
            .with_wram_tenants(usize::from(resident));
        config.tasklets = self.eval.tasklets;
        config.n_c = n_c;
        UpdlrmBackend::from_workload(
            config,
            self.model.clone(),
            &self.workload,
            self.cpu_memory_model(),
        )
    }

    /// Runs a backend over the whole trace and returns total latency in
    /// nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures.
    pub fn measure(&self, backend: &mut dyn InferenceBackend) -> Result<f64, CoreError> {
        let mut total = 0.0;
        for batch in &self.workload.batches {
            let (_, report) = backend.run_batch(batch)?;
            total += report.total_ns();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_builds_and_measures() {
        let setup = EvalSetup::build(&DatasetSpec::amazon_clothes(), EvalConfig::quick()).unwrap();
        assert_eq!(setup.workload.batches.len(), 4);
        let mut cpu = setup.cpu().unwrap();
        let total = setup.measure(&mut cpu).unwrap();
        assert!(total > 0.0);
    }

    #[test]
    fn gpu_memory_scales_with_items() {
        let setup = EvalSetup::build(&DatasetSpec::amazon_clothes(), EvalConfig::quick()).unwrap();
        assert_eq!(setup.gpu_model().mem_bytes, (11usize << 30) / 512);
    }
}
