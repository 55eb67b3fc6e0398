//! # updlrm-core — the UpDLRM system (DAC'24)
//!
//! UpDLRM stores DLRM embedding tables in the MRAM banks of UPMEM DPUs
//! and performs multi-hot lookups and reductions in memory. This crate
//! implements the paper's contribution on top of the [`upmem_sim`]
//! substrate:
//!
//! * **§3.1 uniform tiling** and the Eq. 1–3 tile-shape search
//!   ([`tiling`]);
//! * **§3.2 non-uniform partitioning** — greedy frequency-balanced bin
//!   packing ([`partition::non_uniform`]);
//! * **§3.3 cache-aware non-uniform partitioning** — Algorithm 1,
//!   jointly balancing EMT and partial-sum-cache traffic
//!   ([`partition::cache_aware`]);
//! * the **DPU embedding kernel** ([`kernel`]) and the three-stage
//!   host pipeline of Fig. 4 ([`engine`]), reporting the per-stage
//!   latency breakdown of Fig. 10.
//!
//! See the crate-level example in [`engine::UpdlrmEngine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod error;
pub mod kernel;
pub mod partition;
pub mod pipeline;
mod place;
pub mod replan;
pub mod residency;
pub mod serve;
pub mod stats;
pub mod telemetry;
pub mod tiling;

pub use config::UpdlrmConfig;
pub use engine::{EmbeddingBreakdown, UpdlrmEngine};
pub use error::{CoreError, Result};
pub use kernel::{build_stream, DpuTask, EmbeddingKernel, ResidentRows, CACHE_REF_BIT};
pub use partition::{
    cache_aware, non_uniform, uniform, CacheAwareAssignment, PartitionStrategy, RowAssignment,
    CACHED_ROW_SLOT,
};
pub use pipeline::{pipelined_wall, sequential_wall, PipelineReport};
pub use replan::ReplanPolicy;
pub use residency::ResidencyReport;
pub use serve::{PipelineMode, ServeOutcome, ServeReport};
pub use stats::percentile;
pub use telemetry::{
    DriftSnapshot, MetricsRegistry, RuntimeSnapshot, SchedSnapshot, SchedTrigger, Snapshot,
    TenantSnapshot, SNAPSHOT_SCHEMA_VERSION,
};
pub use tiling::{Tiling, TilingProblem, CANDIDATE_NC, MAX_TILE_ELEMENTS};
pub use upmem_sim::{Ps, MAX_WHOLE_NS};
