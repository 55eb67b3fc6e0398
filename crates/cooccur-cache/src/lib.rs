//! # cooccur-cache — GRACE-style partial-sum caching
//!
//! The UpDLRM paper adopts GRACE (Ye et al., ASPLOS'23) to generate
//! *cache lists*: sets of items that frequently co-occur in the same
//! sample, whose partial sums are cached to cut embedding memory
//! traffic. GRACE itself is not redistributable, so this crate
//! implements the same role from scratch:
//!
//! 1. [`CooccurGraph`] records which hot items each sample holds, and
//!    counts pairwise co-occurrence from that on demand;
//! 2. [`CacheListSet::mine`] greedily clusters the graph into disjoint
//!    cache lists with per-list benefit estimates (the `cache_res`
//!    input of the paper's Algorithm 1);
//! 3. [`PartialSumCache`] indexes all `2^k - 1` combination rows,
//!    computes each from the table's rows on demand, and answers
//!    lookups, preserving the exact-reconstruction invariant (cached
//!    sums + residual rows = full reduction).
//!
//! [`CacheListSet::from_trace`] runs steps 1 and 2 for one table's
//! trace the way the engine build does (sample and rank budget, measured
//! benefit); the example below spells the steps out.
//!
//! The paper notes UpDLRM "does not rely on GRACE and can work with any
//! other caching technique" — mirroring that, `updlrm-core` consumes
//! only the [`CacheListSet`] interface.
//!
//! ## Example
//!
//! ```rust
//! use cooccur_cache::{CacheListSet, CooccurGraph, MinerConfig, PartialSumCache};
//! use dlrm_model::EmbeddingTable;
//! use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};
//!
//! # fn main() -> Result<(), dlrm_model::ModelError> {
//! let spec = DatasetSpec::movie().scaled_down(2000);
//! let trace = Workload::generate(&spec, TraceConfig { num_batches: 2, ..Default::default() });
//! let profile = FreqProfile::from_inputs(spec.num_items, trace.table_inputs(0));
//!
//! let mut graph = CooccurGraph::new(&profile, 256);
//! graph.record_inputs(trace.table_inputs(0));
//! let lists = CacheListSet::mine(&graph, &MinerConfig::default());
//!
//! let table = EmbeddingTable::random(spec.num_items, 8, 0.1, 7)?;
//! let cache = PartialSumCache::materialize(&lists, &table)?;
//! let hit = cache.lookup(&[0, 1, 2, 3]);
//! assert_eq!(hit.entries.len() + hit.residual.len(), 4 - hit.accesses_saved(4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graph;
pub mod mine;
pub mod store;

pub use graph::CooccurGraph;
pub use mine::{CacheList, CacheListSet, MinerConfig};
pub use store::{CacheHit, CacheTraffic, LookupScratch, PartialSumCache};
