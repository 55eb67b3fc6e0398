//! # updlrm — reproduction of "UpDLRM: Accelerating Personalized
//! Recommendation using Real-World PIM Architecture" (DAC 2024)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`upmem_sim`] — functional + timing simulator of the UPMEM PIM
//!   architecture (DPUs, MRAM/WRAM, tasklet pipeline, host transfers);
//! * [`dlrm_model`] — the DLRM substrate (embedding bags, MLPs,
//!   feature interaction, reference CPU inference);
//! * [`workloads`] — synthetic datasets matched to the paper's Table 1
//!   (Zipf popularity, co-occurrence structure, trace generation,
//!   access profiling);
//! * [`cooccur_cache`] — GRACE-style co-occurrence mining and
//!   partial-sum caching;
//! * [`updlrm_core`] — the paper's contribution: uniform / non-uniform
//!   / cache-aware EMT partitioning and the three-stage PIM embedding
//!   engine;
//! * [`baselines`] — DLRM-CPU, DLRM-Hybrid and FAE comparison backends
//!   behind a common [`baselines::InferenceBackend`] trait.
//!
//! ## Quickstart
//!
//! ```rust
//! use updlrm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A GoodReads-like workload, scaled down for this doctest.
//! let spec = DatasetSpec::goodreads().scaled_down(10_000);
//! let workload = Workload::generate(
//!     &spec,
//!     TraceConfig { num_tables: 2, num_batches: 2, ..TraceConfig::default() },
//! );
//!
//! // A DLRM whose two embedding tables match the workload.
//! let model = Dlrm::new(DlrmConfig {
//!     num_dense: 13,
//!     embedding_dim: 32,
//!     table_rows: vec![spec.num_items; 2],
//!     bottom_hidden: vec![64],
//!     top_hidden: vec![64, 16],
//!     seed: 7,
//! })?;
//!
//! // UpDLRM: cache-aware partitioning over 16 simulated DPUs.
//! let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
//! let mut engine = UpdlrmEngine::from_workload(config, model.tables(), &workload)?;
//! let (ctr, breakdown) = engine.run_inference(&model, &workload.batches[0])?;
//! assert_eq!(ctr.len(), 64);
//! println!(
//!     "embedding layer: {:.1} us (stage2 = {:.0}%)",
//!     breakdown.total_ns() / 1e3,
//!     100.0 * breakdown.stage2.as_ns() / breakdown.total_ns(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use cooccur_cache;
pub use dlrm_model;
pub use placement;
pub use runtime;
pub use scheduler;
pub use tenancy;
pub use updlrm_core;
pub use upmem_sim;
pub use workloads;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use baselines::{
        CpuMemoryModel, DlrmCpu, DlrmHybrid, Fae, GpuModel, InferenceBackend, LatencyReport,
        UpdlrmBackend,
    };
    pub use cooccur_cache::{CacheList, CacheListSet, CooccurGraph, MinerConfig, PartialSumCache};
    pub use dlrm_model::{
        simd, Dlrm, DlrmConfig, EmbedDtype, EmbeddingTable, Matrix, QueryBatch, SparseInput,
    };
    pub use placement::{
        interleaved_offsets, plan as plan_placement, Catalog, PlacementPlan, PlanError,
        PlanProvenance, PlannerConfig, TableDesc, PLAN_SCHEMA_VERSION,
    };
    pub use runtime::{Runtime, RuntimeConfig, RuntimeReport, WallStats};
    pub use scheduler::{OverloadPolicy, SchedConfig, SchedReport, Scheduler};
    pub use tenancy::{
        capacity_sweep, parse_tenants_toml, Arbitration, CapacityPoint, FleetConfig, FleetReport,
        TenantFleet, TenantReport, TenantSpec, TenantsFile,
    };
    pub use updlrm_core::{
        EmbeddingBreakdown, MetricsRegistry, PartitionStrategy, PipelineMode, PipelineReport,
        ReplanPolicy, ResidencyReport, RuntimeSnapshot, ServeOutcome, ServeReport, Snapshot,
        TenantSnapshot, Tiling, TilingProblem, UpdlrmConfig, UpdlrmEngine, SNAPSHOT_SCHEMA_VERSION,
    };
    pub use upmem_sim::{
        CostModel, DpuId, PimConfig, PimSystem, Ps, RankCostModel, RankTopology, MAX_WHOLE_NS,
    };
    pub use workloads::{
        ArrivalProcess, ArrivalTrace, DatasetSpec, DiurnalCurve, DriftSchedule, FlashCrowd,
        FreqProfile, HotSetRotation, Hotness, TraceConfig, Workload, ZipfSampler, NS_PER_SEC,
    };
}
