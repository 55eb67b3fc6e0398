//! Engine configuration.

use crate::kernel;
use crate::partition::PartitionStrategy;
use crate::replan::ReplanPolicy;
use crate::serve::PipelineMode;
use cooccur_cache::MinerConfig;
use dlrm_model::EmbedDtype;
use upmem_sim::{CostModel, WramBudget};

/// Configuration of an [`UpdlrmEngine`](crate::engine::UpdlrmEngine).
///
/// Defaults mirror the paper's evaluation setup: 256 DPUs, 14 tasklets,
/// automatic `N_c` selection, cache-aware partitioning with the cache
/// sized to 100% of the mined cache lists' storage requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdlrmConfig {
    /// Total DPUs (the paper uses two modules = 256).
    pub nr_dpus: usize,
    /// Tasklets per DPU (the paper uses 14).
    pub tasklets: usize,
    /// Fixed `N_c` (columns per tile); `None` runs the Eq. 1–3 search.
    pub n_c: Option<usize>,
    /// Partitioning strategy (paper's U / NU / CA).
    pub strategy: PartitionStrategy,
    /// Cache capacity as a fraction of the mined lists' total storage
    /// (the paper's 40%/70%/100% knob). Ignored outside `CacheAware`.
    pub cache_fraction: f64,
    /// Per-DPU MRAM bytes reserved for the EMT region.
    pub emt_capacity_bytes: usize,
    /// Batch size assumed by the tiling cost model.
    pub batch_size: usize,
    /// Average reduction assumed by the tiling cost model (overridden
    /// by [`UpdlrmEngine::from_workload`](crate::engine::UpdlrmEngine::from_workload)).
    pub avg_reduction_hint: f64,
    /// PIM timing/energy model.
    pub cost: CostModel,
    /// Host-side batch-global deduplication of row references — an
    /// *extension* beyond the paper's per-access lookups (DESIGN.md
    /// §4.1). Off by default to stay faithful to the paper's kernel;
    /// the ablation bench and Fig. 11 exercise it.
    pub dedup: bool,
    /// Pad stage-1 buffers to a uniform size so rank transfers run in
    /// parallel (ablation knob; on by default — see DESIGN.md §4.4).
    pub pad_transfers: bool,
    /// Cache-list miner parameters (used by `from_workload` under CA).
    pub miner: MinerConfig,
    /// Rows replicated into every partition under
    /// [`PartitionStrategy::Replicated`] (ignored otherwise).
    pub replicate_top: usize,
    /// Record fleet telemetry (per-stage spans, per-DPU counters, cache
    /// traffic) into the engine's
    /// [`MetricsRegistry`](crate::telemetry::MetricsRegistry). Off by
    /// default; enabling costs ≤2% serving throughput and no
    /// steady-state heap allocation (DESIGN.md §4.6).
    pub telemetry: bool,
    /// Storage dtype of the EMT tiles in MRAM (DESIGN.md §4.10).
    /// Cache rows, reference streams and partial-sum outputs are
    /// always f32; [`EmbedDtype::Int8`] shrinks only the EMT region
    /// and its per-lookup row DMA, dequantizing on the fly inside the
    /// kernel's accumulate.
    pub embed_dtype: EmbedDtype,
    /// Online re-partitioning policy (DESIGN.md §4.11). Anything but
    /// [`ReplanPolicy::Off`] makes the engine keep a host-side copy of
    /// the tables, accumulate a sliding-window access profile, and
    /// reserve double-buffered EMT/cache MRAM regions so a stale
    /// placement can be migrated mid-serving and flipped atomically.
    pub replan: ReplanPolicy,
    /// Engines time-sharing each DPU's WRAM (DESIGN.md §7, "The WRAM
    /// axis"). Every DPU keeps its hottest rows WRAM-resident across
    /// launches, in the bytes the tasklet locals and the dedup
    /// accumulator block leave free; that budget is computed, not
    /// configured, and an engine fills `1 / wram_tenants` of it (`1`,
    /// the default: all of it; the multi-tenant fleet sets its tenant
    /// count). `0` keeps nothing resident — the paper's kernel, every
    /// reference one MRAM DMA, through the same code path; the figure
    /// sweeps use it to print the paper-design column. Programmatic
    /// only, like `dedup`: no CLI flag sets it.
    pub wram_tenants: usize,
}

impl Default for UpdlrmConfig {
    fn default() -> Self {
        UpdlrmConfig {
            nr_dpus: 256,
            tasklets: 14,
            n_c: None,
            strategy: PartitionStrategy::CacheAware,
            cache_fraction: 1.0,
            emt_capacity_bytes: 48 << 20,
            batch_size: 64,
            avg_reduction_hint: 100.0,
            cost: CostModel::default(),
            dedup: false,
            pad_transfers: true,
            miner: MinerConfig::default(),
            replicate_top: 64,
            telemetry: false,
            embed_dtype: EmbedDtype::F32,
            replan: ReplanPolicy::Off,
            wram_tenants: 1,
        }
    }
}

impl UpdlrmConfig {
    /// A small configuration for tests and examples: `nr_dpus` DPUs and
    /// the given strategy, everything else default.
    pub fn with_dpus(nr_dpus: usize, strategy: PartitionStrategy) -> Self {
        UpdlrmConfig {
            nr_dpus,
            strategy,
            ..UpdlrmConfig::default()
        }
    }

    /// Returns a copy with a fixed `N_c` (Figs. 9/10 sweep the fixed
    /// values 2, 4 and 8).
    pub fn with_fixed_nc(mut self, n_c: usize) -> Self {
        self.n_c = Some(n_c);
        self
    }

    /// Returns a copy with the given cache-capacity fraction.
    pub fn with_cache_fraction(mut self, fraction: f64) -> Self {
        self.cache_fraction = fraction;
        self
    }

    /// Returns `self` unchanged. Every DPU launch runs on the calling
    /// thread, so there is no worker count to set; this stays only for
    /// callers written against the old knob.
    pub fn with_host_threads(self, _host_threads: usize) -> Self {
        self
    }

    /// Returns `self` unchanged. Every serve is double-buffered, so
    /// there is no schedule to set; this stays only for callers written
    /// against the old option.
    pub fn with_pipeline_mode(self, _mode: PipelineMode) -> Self {
        self
    }

    /// Returns `self` unchanged. The serve depth is one batch per MRAM
    /// staging slot (2), so there is no depth to set; this stays only
    /// for callers written against the old knob.
    pub fn with_queue_depth(self, _depth: usize) -> Self {
        self
    }

    /// Returns a copy with telemetry recording enabled.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Returns a copy with the given EMT storage dtype.
    pub fn with_embed_dtype(mut self, dtype: EmbedDtype) -> Self {
        self.embed_dtype = dtype;
        self
    }

    /// Returns a copy whose DPUs' WRAM is shared by `n` engines (`0`:
    /// nothing WRAM-resident, the paper's kernel).
    pub fn with_wram_tenants(mut self, n: usize) -> Self {
        self.wram_tenants = n;
        self
    }

    /// Returns a copy with the given online re-partitioning policy.
    pub fn with_replan(mut self, policy: ReplanPolicy) -> Self {
        self.replan = policy;
        self
    }

    /// The WRAM account of one DPU of an engine configured like this,
    /// for tiles of `n_c` columns and a batch of `n_samples`
    /// ([`kernel::wram_budget`]): the one place the resident rows are
    /// sized from, a batch is checked against and the summary reads.
    pub(crate) fn wram_account(&self, n_c: usize, n_samples: usize) -> WramBudget {
        kernel::wram_budget(
            n_c * 4,
            self.embed_dtype,
            self.dedup,
            self.tasklets,
            n_samples,
        )
    }

    /// Bytes of each DPU's WRAM one engine may fill with the resident
    /// rows of a table tiled `n_c` columns wide: what the WRAM account
    /// leaves beside the tasklet locals and — under `dedup` — the
    /// accumulator block of the largest batch the staging regions hold,
    /// divided by the engines sharing the DPU. Zero with
    /// [`wram_tenants`](Self::wram_tenants) at 0. Estimators that price
    /// this engine's lookups take it as an input
    /// (`placement::PlannerConfig::wram_resident_bytes`).
    pub fn wram_resident_bytes(&self, n_c: usize) -> usize {
        if self.wram_tenants == 0 {
            return 0;
        }
        self.wram_account(n_c, self.batch_size * 2).resident_bytes() / self.wram_tenants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = UpdlrmConfig::default();
        assert_eq!(c.nr_dpus, 256);
        assert_eq!(c.tasklets, 14);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.strategy, PartitionStrategy::CacheAware);
        assert_eq!(c.cache_fraction, 1.0);
        assert!(c.n_c.is_none());
        // Telemetry is opt-in, and tables are stored full-precision
        // unless quantization is requested.
        assert!(!c.telemetry);
        assert_eq!(c.embed_dtype, EmbedDtype::F32);
        // Placement is static unless replanning is opted into.
        assert_eq!(c.replan, ReplanPolicy::Off);
        // Hot rows stay WRAM-resident, with the whole budget.
        assert_eq!(c.wram_tenants, 1);
    }

    #[test]
    fn builder_helpers_compose() {
        let c = UpdlrmConfig::with_dpus(32, PartitionStrategy::Uniform)
            .with_fixed_nc(4)
            .with_cache_fraction(0.4);
        assert_eq!(c.nr_dpus, 32);
        assert_eq!(c.strategy, PartitionStrategy::Uniform);
        assert_eq!(c.n_c, Some(4));
        assert_eq!(c.cache_fraction, 0.4);
        // The shims for retired options change nothing.
        let shimmed = c
            .clone()
            .with_pipeline_mode(PipelineMode::DoubleBuf)
            .with_queue_depth(2);
        assert_eq!(shimmed, c);
    }
}
