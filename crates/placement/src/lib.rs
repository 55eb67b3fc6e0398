//! # placement — tiered multi-rank placement planning for UpDLRM
//!
//! UpDLRM's partitioners (Algorithm 1) decide how one table's rows
//! spread over the DPUs of a single rank. This crate plans one level
//! up: given a Table-1-style [`Catalog`] and per-table traffic
//! profiles, it emits a deterministic, serializable [`PlacementPlan`]
//! that
//!
//! 1. **tiers** rows by access frequency — a host-DRAM hot cache, a
//!    replicated hot shard copied into every partition, and cold MRAM
//!    partitions — and
//! 2. **shards** the resulting partitions across a multi-rank
//!    [`upmem_sim::Fleet`], balancing predicted access mass per rank
//!    under per-rank DPU capacity.
//!
//! The plan carries analytic tiered-vs-pure-MRAM cost estimates (the
//! tiering knee of `BENCH_placement.json`) and is consumed by
//! `updlrm_core::UpdlrmEngine::from_plan`, which must produce pooled
//! embeddings bit-identical to an engine that partitioned the tables
//! itself under *any* valid plan — the differential suite in
//! `updlrm-core` (`tests/plan_diff.rs`) enforces that.
//!
//! ## Example
//!
//! ```rust
//! use placement::{plan, Catalog, PlannerConfig};
//! use workloads::FreqProfile;
//!
//! let catalog = Catalog::homogeneous(2, 500, 8);
//! let mut profiles = vec![FreqProfile::new(500); 2];
//! for p in &mut profiles {
//!     for i in 0..500u64 {
//!         for _ in 0..(500 - i) / 50 {
//!             p.record(i);
//!         }
//!     }
//! }
//! let cfg = PlannerConfig {
//!     emt_capacity_bytes: 100 * 8 * 4, // 100 rows per partition
//!     ..PlannerConfig::default()
//! };
//! let plan = plan(&catalog, &profiles, &cfg).unwrap();
//! plan.check_invariants().unwrap();
//! let reloaded = placement::PlacementPlan::from_json(&plan.to_json()).unwrap();
//! assert_eq!(reloaded, plan);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod plan;
pub mod planner;

pub use error::{PlanError, Result};
pub use plan::{
    Catalog, PlacementPlan, PlanCostEstimate, PlanProvenance, PlannerConfig, TableDesc,
    TablePlacement, HOST_ROW_PART, PLAN_SCHEMA_VERSION, REPLICATED_ROW_PART, TIER_COLD, TIER_HOST,
    TIER_REPLICATED,
};
pub use planner::{interleaved_offsets, least_loaded_with_room, plan};
