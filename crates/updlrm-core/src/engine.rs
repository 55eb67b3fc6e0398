//! The UpDLRM embedding engine: Fig. 4's three-stage pipeline.
//!
//! Pre-processing (untimed, as in the paper) partitions each embedding
//! table with the configured strategy and loads the tiles — and, under
//! cache-aware partitioning, the cached partial-sum rows — into DPU
//! MRAM. Each inference batch then runs:
//!
//! 1. **stage 1** — the host routes every lookup to its row partition,
//!    builds per-tasklet reference streams and scatters them CPU→MRAM;
//! 2. **stage 2** — every DPU runs the [`EmbeddingKernel`], fetching
//!    rows (EMT or cache region) and reducing per-sample partial sums;
//! 3. **stage 3** — the host gathers the partial-sum rows MRAM→CPU and
//!    combines them into pooled `batch x dim` embeddings.
//!
//! The per-stage wall times form the Fig. 10 latency breakdown; the
//! pooled embeddings are bit-compatible with the
//! [`dlrm_model`] reference (exactly so for integer-valued tables).
//!
//! *Where* each row lives is data the engine reads, not a second
//! executor (DESIGN.md §4.9). [`UpdlrmEngine::new`] partitions the
//! tables itself onto one rank of `nr_dpus` DPUs;
//! [`UpdlrmEngine::from_plan`] executes a [`placement::PlacementPlan`] —
//! one full-width partition per fleet DPU across several ranks, hot rows
//! replicated into every partition or kept in a host-DRAM store the
//! host probes during routing and folds in during the combine. Both
//! drive a [`Fleet`]: the stages run rank by rank and are combined with
//! [`Fleet::combine_transfers`] / [`Fleet::combine_launches`], whose
//! per-rank tolls are `0.0` for the one-rank engine.
//!
//! The module splits along the pipeline's seams: `build` makes the
//! engine and writes its tiles, `route` is stage 1 (the host-only
//! `route` and the bus phase `scatter`), `launch` stage 2 and `gather`
//! stage 3 with the combine. Each stage method fills the batch's
//! [`EmbeddingBreakdown`] in place; [`UpdlrmEngine::run_batch`] is
//! their one sequence, and the double-buffered serve ([`crate::serve`])
//! interleaves the same calls, running stage 2 of a multi-batch stream
//! and of every open-loop step on the engine's DPU worker.

pub(crate) mod build;
mod gather;
mod launch;
mod route;

pub(crate) use launch::DpuWorker;

use crate::config::UpdlrmConfig;
use crate::error::Result;
use crate::kernel::{EmbeddingKernel, ResidentRows, StreamWriter};
use crate::pipeline::Stages;
use crate::replan::DriftState;
use crate::residency::ResidencyReport;
use crate::telemetry::{MetricsRegistry, Snapshot};
use crate::tiling::Tiling;
use build::TableState;
use cooccur_cache::{CacheHit, CacheTraffic, LookupScratch};
use dlrm_model::{Dlrm, EmbeddingTable, Matrix, QueryBatch};
use upmem_sim::{DpuId, Fleet, LaunchReport, Ps, TransferReport};

/// Per-batch latency breakdown of the embedding layer (Fig. 10). Its
/// five times are integer picoseconds, each rounded once where the
/// simulator priced it ([`Ps`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmbeddingBreakdown {
    /// Stage 1: CPU→DPU reference-stream transfer.
    pub stage1: Ps,
    /// Stage 2: DPU lookup + in-DPU reduction.
    pub stage2: Ps,
    /// Stage 3: DPU→CPU partial-sum transfer.
    pub stage3: Ps,
    /// Host-side routing/stream building, outside the 3 stages.
    pub route: Ps,
    /// Host-side final partial-sum combination, outside the 3 stages.
    pub combine: Ps,
    /// Modeled DPU + link energy (picojoules).
    pub energy_pj: f64,
    /// MRAM DMA transfers issued by the kernels.
    pub dma_transfers: u64,
    /// Pipeline instructions issued by the kernels.
    pub instrs: u64,
    /// Lookups served by cached partial-sum combinations.
    pub cache_hits: u64,
    /// Lookups served from the EMT region.
    pub emt_lookups: u64,
    /// Slowest-DPU over mean-DPU lookup cycles (1.0 = perfectly balanced).
    pub lookup_imbalance: f64,
    /// Row reads the kernels served from WRAM-resident rows instead of
    /// an MRAM DMA.
    pub wram_rows: u64,
    /// Cycles the slowest DPU spent copying its resident rows
    /// MRAM→WRAM (inside `stage2`): nonzero on the first batch after
    /// a build or a migration flip, zero otherwise.
    pub wram_fill_cycles: u64,
}

impl EmbeddingBreakdown {
    /// The three pipeline stages, as the [`PipelineClock`] places them.
    ///
    /// [`PipelineClock`]: crate::pipeline::PipelineClock
    pub fn stages(&self) -> Stages {
        Stages {
            s1: self.stage1,
            s2: self.stage2,
            s3: self.stage3,
        }
    }

    /// The paper's embedding-layer time: stage 1 + stage 2 + stage 3.
    pub fn total(&self) -> Ps {
        self.stages().total()
    }

    /// [`total`](Self::total) in ns, for reports.
    pub fn total_ns(&self) -> f64 {
        self.total().as_ns()
    }

    /// Embedding time including host-side routing and combination, in
    /// ns, for reports.
    pub fn total_with_host_ns(&self) -> f64 {
        (self.total() + self.route + self.combine).as_ns()
    }

    /// Accumulates another batch's breakdown (imbalance is averaged by
    /// the caller; here the max is kept).
    pub fn accumulate(&mut self, other: &EmbeddingBreakdown) {
        self.stage1 += other.stage1;
        self.stage2 += other.stage2;
        self.stage3 += other.stage3;
        self.route += other.route;
        self.combine += other.combine;
        self.energy_pj += other.energy_pj;
        self.dma_transfers += other.dma_transfers;
        self.instrs += other.instrs;
        self.cache_hits += other.cache_hits;
        self.emt_lookups += other.emt_lookups;
        self.lookup_imbalance = self.lookup_imbalance.max(other.lookup_imbalance);
        self.wram_rows += other.wram_rows;
        self.wram_fill_cycles += other.wram_fill_cycles;
    }
}

/// Summary of one table's placement, for analyses and figures.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// The tiling in effect.
    pub tiling: Tiling,
    /// Predicted access load per row partition.
    pub part_load: Vec<f64>,
    /// Max-over-mean of `part_load`.
    pub imbalance: f64,
    /// Number of cache lists placed (0 outside CA).
    pub cached_lists: usize,
    /// Cached combination rows per partition.
    pub cache_rows_per_part: Vec<u32>,
}

/// Number of MRAM staging slots per DPU. A served batch `i` lands in
/// slot `i % 2`, so batch `i + 1`'s reference streams land while batch
/// `i` still owns the other slot (see [`crate::serve`]); `run_batch`
/// uses slot 0.
pub(crate) const STAGING_SLOTS: usize = 2;

/// Per-DPU MRAM bytes reserved for each staging slot's reference
/// stream (calibration constants: DESIGN.md §7).
const INPUT_RESERVE_BYTES: usize = 2 << 20;

/// One routed reference stream: the `(table, part)` it belongs to plus
/// its serialized bytes. The `(table, part)` labels are fixed at engine
/// construction (every row partition emits exactly one stream per
/// batch, in table-major order); only `bytes` changes per batch.
#[derive(Debug)]
struct StreamSlot {
    table: usize,
    part: usize,
    bytes: Vec<u8>,
}

/// One rank's share of the stage-1/stage-3 bus phases: which streams it
/// receives and which partial sums it returns, both in global
/// `(table, part, slice)` order, fixed at construction.
#[derive(Debug)]
struct RankIo {
    rank: usize,
    /// Indices into `BatchScratch::streams` / `stream_groups`.
    streams: Vec<usize>,
    /// `(rank-local dpu, table, col slice)` per stage-3 gather request.
    gathers: Vec<(DpuId, usize, usize)>,
    /// Per-batch gather request list (lengths depend on the batch size).
    requests: Vec<(DpuId, u32, usize)>,
    /// Staging buffer for this rank's gathered partial-sum rows.
    gather_buf: Vec<u8>,
}

/// One stage-2 kernel launch: the DPUs of one table on one rank, in
/// (row part, col slice) order, and the prebuilt kernel per staging
/// slot that runs on them. Tasks are registered once at construction,
/// keyed by rank-local DPU id — which is why a kernel belongs to one
/// rank: two partitions of a table may share a local id across ranks
/// but not their resident rows. Only a kernel's `n_samples` is set per
/// launch, so stage 2 builds nothing per batch.
#[derive(Debug)]
pub(crate) struct LaunchGroup {
    pub(crate) table: usize,
    pub(crate) rank: usize,
    ids: Vec<DpuId>,
    pub(crate) kernels: [EmbeddingKernel; STAGING_SLOTS],
}

/// The batch occupying one staging slot between its stage 1 and its
/// stage 3: its sample count, its host-tier hits `(table, sample, host
/// slot)` in route order, which wait for *its* combine, and its cache
/// probe counters, which its scatter records.
#[derive(Debug, Default)]
struct StagedBatch {
    samples: usize,
    host_refs: Vec<(u32, u32, u32)>,
    traffic: CacheTraffic,
}

/// Reusable per-engine working memory for the per-batch pipeline. Every
/// stage clears and refills its arena instead of allocating, so after
/// the first (warm-up) batch the steady-state serving path performs no
/// heap allocation — see `DESIGN.md` §4.5 for the ownership model.
#[derive(Debug, Default)]
struct BatchScratch {
    /// The routed references of the table being routed, in CSR form
    /// per row partition (reused across tables and batches).
    writer: StreamWriter,
    /// One serialized stream per (table, row partition), fixed order.
    streams: Vec<StreamSlot>,
    /// What each staging slot holds (filled by stage 1).
    staged: [StagedBatch; STAGING_SLOTS],
    /// Cache lookup working set (cache-aware partitioning only).
    lookup: LookupScratch,
    hit: CacheHit,
    /// Per-rank reports of the bus phase in progress.
    transfers: Vec<TransferReport>,
    /// Returned pooled-output sets available for reuse (see
    /// [`UpdlrmEngine::recycle_pooled`]).
    matrix_pool: Vec<Vec<Matrix>>,
}

/// Everything stage 2 touches besides the registry's
/// [`LaunchCells`](crate::telemetry::LaunchCells): the fleet, its launch
/// groups and the launch scratch. All of it is owned, so a pipelined
/// serve can lend it by value to the engine's DPU worker for one launch
/// and take it back afterwards ([`crate::serve`]); the bus phases and
/// the replanner use the fleet while it is home.
#[derive(Debug)]
pub(crate) struct DpuSide {
    pub(crate) fleet: Fleet,
    /// Stage-2 launches in (table, rank) order.
    pub(crate) launch_groups: Vec<LaunchGroup>,
    /// Recycled per-launch report (per-DPU stats vectors reused; one
    /// for all launch groups, so a batch's launches stay in cache).
    launch: LaunchReport,
    /// `(wall, energy_pj)` per launch group of the batch in progress.
    launches: Vec<(Ps, f64)>,
    /// Per-DPU cycle counts across all launch groups of one batch.
    all_cycles: Vec<u64>,
}

/// Where an engine keeps its [`DpuSide`]: always here, except while a
/// launch the engine sent to its DPU worker is in flight. A stream takes
/// every such launch back before it returns; a
/// [`UpdlrmEngine::serve_step`] leaves its own away until the next step
/// or [`UpdlrmEngine::serve_flush`] takes it back, and any error takes
/// it back first. Only a panic during a serve can leave it away for
/// good.
#[derive(Debug)]
pub(crate) struct DpuHome(Option<DpuSide>);

impl DpuHome {
    const AWAY: &'static str =
        "the DPU side did not come back: a serve panicked while a launch was on the DPU worker";

    pub(crate) fn get(&self) -> &DpuSide {
        self.0.as_ref().expect(Self::AWAY)
    }

    pub(crate) fn get_mut(&mut self) -> &mut DpuSide {
        self.0.as_mut().expect(Self::AWAY)
    }

    /// Takes the side away for one launch on the DPU worker.
    pub(crate) fn lend(&mut self) -> DpuSide {
        self.0.take().expect(Self::AWAY)
    }

    /// Puts back the side a launch brought home.
    pub(crate) fn restore(&mut self, side: DpuSide) {
        debug_assert!(self.0.is_none(), "one DPU side per engine");
        self.0 = Some(side);
    }
}

/// The UpDLRM system: a PIM fleet loaded with partitioned embedding
/// tables, executing the three-stage embedding pipeline per batch.
/// Built by partitioning the tables ([`UpdlrmEngine::new`] /
/// [`UpdlrmEngine::from_workload`]) or from a placement plan
/// ([`UpdlrmEngine::from_plan`]).
///
/// ## Example
///
/// ```rust
/// use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
/// use dlrm_model::EmbeddingTable;
/// use workloads::{DatasetSpec, TraceConfig, Workload};
///
/// # fn main() -> Result<(), updlrm_core::CoreError> {
/// let spec = DatasetSpec::goodreads().scaled_down(5000); // 472 items
/// let workload = Workload::generate(
///     &spec,
///     TraceConfig { num_tables: 2, num_batches: 2, ..TraceConfig::default() },
/// );
/// let tables: Vec<EmbeddingTable> = (0..2)
///     .map(|t| EmbeddingTable::random(spec.num_items, 32, 0.1, t))
///     .collect::<Result<_, _>>()?;
///
/// let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
/// let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload)?;
/// let (pooled, breakdown) = engine.run_batch(&workload.batches[0])?;
/// assert_eq!(pooled.len(), 2);
/// assert!(breakdown.total_ns() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct UpdlrmEngine {
    /// The fleet and what stage 2 needs of it.
    pub(crate) dpu: DpuHome,
    pub(crate) config: UpdlrmConfig,
    pub(crate) tables: Vec<TableState>,
    /// Broadcast target group per reference stream (rank-local ids of
    /// the partition's column slices), aligned with
    /// `BatchScratch::streams`.
    stream_groups: Vec<Vec<DpuId>>,
    /// Ranks holding at least one partition, ascending.
    ranks: Vec<RankIo>,
    /// Time per host-tier probe / per host-tier scalar add (from the
    /// plan, rounded to ps once; zero without one).
    host_probe: Ps,
    host_combine_per_add: Ps,
    scratch: BatchScratch,
    pub(crate) serve_scratch: crate::serve::ServeScratch,
    /// Telemetry recorder; a disabled registry (the default) makes every
    /// record call a single branch. Arenas are preallocated here so the
    /// hooks stay allocation-free in steady state.
    pub(crate) metrics: MetricsRegistry,
    /// Host-resident table copies, kept only when replanning is enabled
    /// (the migration scatter rebuilds tiles from them).
    pub(crate) host_tables: Vec<EmbeddingTable>,
    /// Which EMT/cache region pair is serving (`emt_bases[active_emt]`).
    pub(crate) active_emt: usize,
    /// Generation of the MRAM rows the resident blocks copy
    /// ([`ResidentRows::epoch`]): 1 at build, one more per flip.
    pub(crate) resident_epoch: u32,
    /// Replanner state; `None` unless `config.replan` is enabled.
    pub(crate) drift: Option<DriftState>,
    /// Whether multi-batch streams and `serve_step` run stage 2 on a
    /// DPU worker: the process may use two or more cores (on one, the
    /// hand-off measured slower than serving on one thread) and no
    /// spawn has failed.
    pub(crate) overlap: bool,
    /// The thread that runs stage 2 of those serves; spawned by the
    /// first one ([`crate::serve`]).
    pub(crate) worker: Option<DpuWorker>,
    /// The batch a [`UpdlrmEngine::serve_step`] left between its stage
    /// 2 and its stage 3 ([`crate::serve`]).
    pub(crate) in_flight: Option<crate::serve::InFlight>,
    /// Launches sent to `worker` over the engine's lifetime.
    pub(crate) handoffs: u64,
    /// The SIMD tier `worker` ran its last launch on.
    pub(crate) worker_tier: Option<dlrm_model::simd::SimdTier>,
    /// Replan ticks that acted while a `serve_step` batch was in
    /// flight, over the engine's lifetime.
    pub(crate) overlapped_ticks: u64,
}

impl std::fmt::Debug for UpdlrmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdlrmEngine")
            .field("topology", &self.dpu.0.as_ref().map(|d| d.fleet.topology()))
            .field("tables", &self.tables.len())
            .field("dpu_worker", &self.worker.is_some())
            .finish()
    }
}

impl UpdlrmEngine {
    /// The engine configuration.
    pub fn config(&self) -> &UpdlrmConfig {
        &self.config
    }

    /// Largest batch the staged MRAM output regions can hold (sized at
    /// construction for `config.batch_size` samples, x2 slack; stage 1
    /// rejects anything larger).
    pub fn staged_batch_capacity(&self) -> usize {
        self.config.batch_size * 2
    }

    /// The live telemetry recorder (disabled unless the engine was built
    /// with [`UpdlrmConfig::telemetry`](crate::config::UpdlrmConfig) set).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the telemetry recorder, for front-ends (the
    /// open-loop scheduler) that record their own counters alongside
    /// the engine's.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Takes a deterministic, serializable [`Snapshot`] of everything
    /// recorded so far. Allocates; call it outside the serving loop.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Resets all telemetry counters to zero (arenas stay allocated).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// What the engine keeps WRAM-resident on its DPUs (DESIGN.md §7,
    /// "The WRAM axis"): the derived budget, the largest resident block
    /// and the hit share the fit profile predicts.
    pub fn residency(&self) -> ResidencyReport {
        let dtype = self.config.embed_dtype;
        let mut report = ResidencyReport {
            budget_bytes: 0,
            max_bytes: 0,
            max_rows: 0,
            max_wram_bytes: 0,
            predicted_hit_share: None,
        };
        let (mut covered, mut load) = (0.0f64, 0.0f64);
        for state in &self.tables {
            let n_c = state.tiling.n_c;
            let budget = self.config.wram_resident_bytes(n_c);
            report.budget_bytes = report.budget_bytes.max(budget);
            let block = state.max_resident_bytes(dtype);
            report.max_bytes = report.max_bytes.max(block);
            let wram = self.config.wram_account(n_c, self.staged_batch_capacity());
            report.max_wram_bytes = report.max_wram_bytes.max(wram.needed(block));
            for r in &state.placement.resident {
                let rows = (r.emt_rows + r.cache_rows) as usize;
                report.max_rows = report.max_rows.max(rows);
                covered += r.covered;
            }
            load += state.placement.assignment.part_load.iter().sum::<f64>();
        }
        if self.tables.iter().all(|s| s.profiled) && load > 0.0 {
            report.predicted_hit_share = Some(covered / load);
        }
        report
    }

    /// The slot prefixes partition `part` of table `table` keeps
    /// WRAM-resident on each of its DPUs (what its kernel tasks carry).
    ///
    /// # Panics
    ///
    /// Panics if `table` or `part` is out of range.
    pub fn resident_rows(&self, table: usize, part: usize) -> ResidentRows {
        self.tables[table].placement.resident[part].rows(self.resident_epoch)
    }

    /// Number of embedding tables loaded.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Placement summary for table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn table_report(&self, t: usize) -> TableReport {
        let s = &self.tables[t];
        let (assignment, cache) = (&s.placement.assignment, s.placement.cache.as_ref());
        TableReport {
            tiling: s.tiling,
            part_load: assignment.part_load.clone(),
            imbalance: assignment.imbalance(),
            cached_lists: cache.map_or(0, |c| c.placed_lists),
            cache_rows_per_part: cache
                .map(|c| c.cache_rows_per_part.clone())
                .unwrap_or_default(),
        }
    }

    /// Runs the embedding layer for one batch: returns the pooled
    /// `batch x dim` embeddings per table and the stage breakdown.
    ///
    /// This is the one sequence of the stage methods (route, scatter,
    /// launch, gather), on staging slot 0 and all on the calling
    /// thread; [`UpdlrmEngine::serve`](crate::serve) makes the same
    /// calls interleaved over both slots to double-buffer consecutive
    /// batches.
    ///
    /// # Errors
    ///
    /// Malformed batches, out-of-range indices, reference streams
    /// exceeding the input reserve, and simulator faults;
    /// [`CoreError::Invariant`](crate::CoreError::Invariant) while a
    /// [`UpdlrmEngine::serve_step`] batch is in flight.
    pub fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<Matrix>, EmbeddingBreakdown)> {
        self.ensure_idle("run_batch")?;
        let mut breakdown = self.route(batch, 0)?;
        self.scatter(0, &mut breakdown)?;
        self.launch_here(0, &mut breakdown)?;
        let pooled = self.stage3(0, &mut breakdown)?;
        Ok((pooled, breakdown))
    }

    /// Full DLRM inference for one batch: embedding layer on the PIM
    /// array, dense layers on the (functional) CPU model. Returns CTR
    /// probabilities and the embedding breakdown.
    ///
    /// # Errors
    ///
    /// Propagates [`UpdlrmEngine::run_batch`] and model errors.
    pub fn run_inference(
        &mut self,
        model: &Dlrm,
        batch: &QueryBatch,
    ) -> Result<(Vec<f32>, EmbeddingBreakdown)> {
        let (pooled, breakdown) = self.run_batch(batch)?;
        let out = model.forward_with_pooled(batch, &pooled)?;
        Ok((out, breakdown))
    }
}

#[cfg(test)]
mod tests {
    use super::build::{split_dpus, write_tiles};
    use super::*;
    use crate::partition::PartitionStrategy;
    use crate::replan::{self, PartLists, ReplanPolicy};
    use crate::telemetry::SchedSnapshot;
    use dlrm_model::EmbedDtype;
    use upmem_sim::arch::WRAM_CAPACITY;
    use upmem_sim::RankCostModel;
    use workloads::{
        ArrivalProcess, DatasetSpec, DriftSchedule, HotSetRotation, TraceConfig, Workload,
    };

    /// The bytes of one DPU's MRAM at `[addr, addr + len)`.
    fn mram_bytes(fleet: &Fleet, rank: usize, dpu: DpuId, addr: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let sys = fleet.rank(rank).unwrap();
        sys.dpu(dpu)
            .unwrap()
            .mram()
            .host_read(addr, &mut out)
            .unwrap();
        out
    }

    /// "What is selected is what runs": the rows the engine reports
    /// resident are exactly the rows the kernels charge as WRAM reads.
    /// A hand-built batch names, per partition, the rows at the last
    /// resident EMT slot and at the first slot past it, and — under CA
    /// — every item of the list behind the last resident cache slot and
    /// of the one behind the first slot past it; each DPU's `wram_rows`
    /// (telemetry) must be its partition's resident references, the
    /// kernels' tasks must carry what `resident_rows` reports, and the
    /// block must be the bytes `residency` reports.
    #[test]
    fn the_reported_resident_rows_are_the_rows_served_from_wram() {
        use dlrm_model::SparseInput;
        let spec = DatasetSpec::goodreads().scaled_down(500);
        let workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: 4,
                ..TraceConfig::default()
            },
        );
        let tables: Vec<EmbeddingTable> = (0..2)
            .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t).unwrap())
            .collect();
        for (strategy, dtype, dedup) in [
            (PartitionStrategy::NonUniform, EmbedDtype::F32, false),
            (PartitionStrategy::NonUniform, EmbedDtype::Int8, true),
            (PartitionStrategy::Replicated, EmbedDtype::F32, false),
            (PartitionStrategy::CacheAware, EmbedDtype::F32, false),
            (PartitionStrategy::CacheAware, EmbedDtype::Int8, false),
            (PartitionStrategy::CacheAware, EmbedDtype::F32, true),
        ] {
            let case = format!("{strategy} {dtype:?} dedup={dedup}");
            let mut config = UpdlrmConfig::with_dpus(16, strategy)
                .with_fixed_nc(8)
                .with_embed_dtype(dtype)
                .with_telemetry();
            config.dedup = dedup;
            config.replicate_top = 4;
            let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();

            // One sample per probe; expected WRAM reads per (table, part).
            let mut samples: Vec<Vec<Vec<u64>>> = vec![Vec::new(); tables.len()];
            let mut want: Vec<Vec<u64>> = Vec::new();
            let mut rows = PartLists::default();
            let mut entries = PartLists::default();
            for (t, state) in engine.tables.iter().enumerate() {
                let parts = state.tiling.row_parts;
                let placement = &state.placement;
                let rc = placement.replicas.len();
                let mut hits = vec![0u64; parts];
                replan::rows_in_parts(&placement.assignment, rc, &mut rows);
                for (p, hits) in hits.iter_mut().enumerate() {
                    let r = placement.resident[p];
                    assert_eq!(engine.resident_rows(t, p), r.rows(1), "{case}");
                    // The local rows at the two slots around the threshold.
                    for (slot, resident) in [
                        ((r.emt_rows as usize).wrapping_sub(1), true),
                        (r.emt_rows as usize, false),
                    ] {
                        let Some(&row) = slot.checked_sub(rc).and_then(|s| rows.part(p).get(s))
                        else {
                            continue;
                        };
                        samples[t].push(vec![row as u64]);
                        *hits += u64::from(resident);
                    }
                    let Some(cs) = &placement.cache else { continue };
                    cs.entries_in_parts(&mut entries);
                    for (slot, resident) in [
                        ((r.cache_rows as usize).wrapping_sub(1), true),
                        (r.cache_rows as usize, false),
                    ] {
                        let Some(&e) = entries.part(p).get(slot) else {
                            continue;
                        };
                        // Exactly this combination's items: one cache read.
                        samples[t].push(cs.store.entry_items(e as usize).collect());
                        *hits += u64::from(resident);
                    }
                }
                assert!(
                    hits.iter().sum::<u64>() > 0,
                    "{case}: nothing resident to probe"
                );
                want.push(hits);
            }
            let b = samples.iter().map(Vec::len).max().unwrap();
            for s in &mut samples {
                s.resize(b, Vec::new());
            }
            let sparse = samples.into_iter().map(SparseInput::from_samples).collect();
            let batch = QueryBatch::new(vec![0.0; b * 13], 13, sparse).unwrap();

            engine.run_batch(&batch).unwrap(); // pays the fill
            engine.reset_metrics();
            let (_, breakdown) = engine.run_batch(&batch).unwrap();
            assert_eq!(breakdown.wram_fill_cycles, 0, "{case}");
            let snap = engine.metrics_snapshot();
            let mut total = 0u64;
            let (mut max_bytes, mut max_rows) = (0usize, 0usize);
            for (t, state) in engine.tables.iter().enumerate() {
                let emt_stride = dtype.stored_row_bytes(state.tiling.n_c);
                for (p, &want) in want[t].iter().enumerate() {
                    let r = state.placement.resident[p].rows(1);
                    max_bytes = max_bytes.max(r.block_bytes(emt_stride, state.tiling.row_bytes()));
                    max_rows = max_rows.max((r.emt_rows + r.cache_rows) as usize);
                    for c in 0..state.tiling.col_slices {
                        let (_, dpu) = state.dpu(p, c);
                        assert_eq!(
                            snap.per_dpu[dpu.0 as usize].wram_rows, want,
                            "{case}: table {t} part {p} slice {c}"
                        );
                        total += want;
                    }
                }
            }
            assert_eq!(breakdown.wram_rows, total, "{case}");
            let report = engine.residency();
            assert_eq!(
                (report.max_bytes, report.max_rows),
                (max_bytes, max_rows),
                "{case}"
            );
            assert!(report.max_bytes <= report.budget_bytes, "{case}");
            assert!(report.max_wram_bytes <= WRAM_CAPACITY, "{case}");
            // The tasks the kernels launch with carry the same rows.
            for g in &mut engine.dpu.get_mut().launch_groups {
                let state = &engine.tables[g.table];
                for p in 0..state.tiling.row_parts {
                    for c in 0..state.tiling.col_slices {
                        for kernel in &mut g.kernels {
                            let task = kernel.task_mut(state.dpu(p, c).1).unwrap();
                            let want = state.placement.resident[p].rows(1);
                            assert_eq!(task.resident, want, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// The one-tile-writer property: the tiles a migration scattered
    /// into the region now serving equal, byte for byte, the tiles an
    /// initial load of the same placement writes into region 0 of a
    /// fresh fleet — replica blocks, int8 rows and CA cache rows
    /// included.
    #[test]
    fn migrated_tiles_equal_loaded_tiles_for_the_same_placement() {
        let spec = DatasetSpec::goodreads().scaled_down(5000);
        let drift = DriftSchedule {
            rotation: Some(HotSetRotation {
                num_sets: 4,
                set_size: 64,
                period_ns: 150_000,
                hot_fraction: 0.8,
            }),
            spikes: Vec::new(),
            diurnal: None,
        };
        let workload = Workload::generate_drifting(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: 8,
                ..TraceConfig::default()
            },
            drift,
            ArrivalProcess::poisson(1_000_000.0, 7),
        );
        let tables: Vec<EmbeddingTable> = (0..2)
            .map(|t| EmbeddingTable::random(spec.num_items, 32, 0.1, t).unwrap())
            .collect();
        for (strategy, dtype) in [
            (PartitionStrategy::Replicated, EmbedDtype::F32),
            (PartitionStrategy::Replicated, EmbedDtype::Int8),
            (PartitionStrategy::CacheAware, EmbedDtype::F32),
            (PartitionStrategy::CacheAware, EmbedDtype::Int8),
        ] {
            let mut config = UpdlrmConfig::with_dpus(16, strategy)
                .with_replan(ReplanPolicy::Periodic { every_batches: 3 })
                .with_embed_dtype(dtype)
                .with_telemetry();
            // Unbounded, the miner lists every row of a 472-row table
            // and leaves its EMT tiles empty; 64 lists keep both kinds
            // of tile in the comparison.
            config.miner.max_lists = 64;
            let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
            for (i, batch) in workload.batches.iter().enumerate() {
                engine
                    .on_tick(Ps(50_000_000) * (i as u64 + 1), SchedSnapshot::default())
                    .unwrap();
                engine.run_batch(batch).unwrap();
            }
            if engine.migration_in_flight() {
                engine.on_tick(Ps::MAX, SchedSnapshot::default()).unwrap();
            }
            assert!(
                engine.metrics_snapshot().drift.migrations_completed >= 1,
                "{strategy} {dtype:?}: the serving region must be one a migration wrote"
            );

            let active = engine.active_emt;
            let topology = engine.dpu.get().fleet.topology();
            let mut scratch = <[PartLists; 2]>::default();
            let (mut emt_bytes, mut cache_bytes) = (0usize, 0usize);
            for (state, table) in engine.tables.iter().zip(&engine.host_tables) {
                let placement = &state.placement;
                let mut fresh = Fleet::new(
                    topology,
                    engine.config.tasklets,
                    engine.config.cost.clone(),
                    RankCostModel {
                        rank_base_ns: 0.0,
                        rank_launch_ns: 0.0,
                    },
                )
                .unwrap();
                let mut dpus = split_dpus(&mut fresh, [state]).unwrap().remove(0);
                write_tiles(&mut dpus, state, placement, table, dtype, 0, &mut scratch).unwrap();
                assert_ne!(state.regions.emt_bases[0], state.regions.emt_bases[1]);
                let emt_row_bytes = dtype.stored_row_bytes(state.tiling.n_c);
                for p in 0..state.tiling.row_parts {
                    let emt_len = (placement.replicas.len()
                        + placement.assignment.rows_per_part[p] as usize)
                        * emt_row_bytes;
                    let cache_len = placement.cache.as_ref().map_or(0, |cs| {
                        cs.cache_rows_per_part[p] as usize * state.tiling.row_bytes()
                    });
                    for c in 0..state.tiling.col_slices {
                        let (rank, dpu) = state.dpu(p, c);
                        assert_eq!(
                            mram_bytes(&fresh, rank, dpu, state.regions.emt_bases[0], emt_len),
                            mram_bytes(
                                &engine.dpu.get().fleet,
                                rank,
                                dpu,
                                state.regions.emt_bases[active],
                                emt_len
                            ),
                            "{strategy} {dtype:?}: EMT tile ({p}, {c})"
                        );
                        assert_eq!(
                            mram_bytes(&fresh, rank, dpu, state.regions.cache_bases[0], cache_len),
                            mram_bytes(
                                &engine.dpu.get().fleet,
                                rank,
                                dpu,
                                state.regions.cache_bases[active],
                                cache_len
                            ),
                            "{strategy} {dtype:?}: cache tile ({p}, {c})"
                        );
                        emt_bytes += emt_len;
                        cache_bytes += cache_len;
                    }
                }
                if strategy == PartitionStrategy::Replicated {
                    assert!(
                        !placement.replicas.is_empty(),
                        "replica block must be exercised"
                    );
                }
            }
            assert!(emt_bytes > 0);
            assert_eq!(cache_bytes > 0, strategy == PartitionStrategy::CacheAware);
        }
    }

    /// Checks every cache row of the serving region against the
    /// table's own partial sum of its entry's items, column slice by
    /// column slice, bit for bit. Returns the rows checked.
    fn assert_cache_rows_are_partial_sums(engine: &UpdlrmEngine, case: &str) -> usize {
        let region = engine.active_emt;
        let mut entries = PartLists::default();
        let mut checked = 0;
        for (state, table) in engine.tables.iter().zip(&engine.host_tables) {
            let cs = state.placement.cache.as_ref().expect("a cache-aware table");
            cs.entries_in_parts(&mut entries);
            let (n_c, row_bytes) = (state.tiling.n_c, state.tiling.row_bytes());
            for p in 0..state.tiling.row_parts {
                for (slot, &e) in entries.part(p).iter().enumerate() {
                    let items: Vec<u64> = cs.store.entry_items(e as usize).collect();
                    let want = table.partial_sum(&items).unwrap();
                    for c in 0..state.tiling.col_slices {
                        let (rank, dpu) = state.dpu(p, c);
                        let addr = state.regions.cache_bases[region] + (slot * row_bytes) as u32;
                        let got: Vec<u32> =
                            mram_bytes(&engine.dpu.get().fleet, rank, dpu, addr, row_bytes)
                                .chunks_exact(4)
                                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                                .collect();
                        let want: Vec<u32> = want[c * n_c..(c + 1) * n_c]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(
                            got, want,
                            "{case}: items {items:?} at ({p}, {c}) slot {slot}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        checked
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// Every cache row in MRAM is `partial_sum(items)[cols]` bit for
        /// bit — on real-valued rows, where f32 addition does not
        /// associate; under f32 and int8 engines, whose cache rows are
        /// both f32; as the initial load wrote it and after a replan
        /// flip installed a re-placed, re-summed cache.
        #[test]
        fn cache_rows_in_mram_are_partial_sums_bit_for_bit(
            seed in proptest::prelude::any::<u64>(),
            int8 in proptest::prelude::any::<bool>(),
        ) {
            let spec = DatasetSpec::goodreads().scaled_down(5000);
            let drift = DriftSchedule {
                rotation: Some(HotSetRotation {
                    num_sets: 4,
                    set_size: 64,
                    period_ns: 150_000,
                    hot_fraction: 0.8,
                }),
                spikes: Vec::new(),
                diurnal: None,
            };
            let workload = Workload::generate_drifting(
                &spec,
                TraceConfig {
                    num_tables: 2,
                    num_batches: 8,
                    seed,
                    ..TraceConfig::default()
                },
                drift,
                ArrivalProcess::poisson(1_000_000.0, seed),
            );
            let tables: Vec<EmbeddingTable> = (0..2)
                .map(|t| EmbeddingTable::random(spec.num_items, 32, 0.1, seed ^ t).unwrap())
                .collect();
            let dtype = if int8 { EmbedDtype::Int8 } else { EmbedDtype::F32 };
            let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
                .with_replan(ReplanPolicy::Periodic { every_batches: 3 })
                .with_embed_dtype(dtype)
                .with_telemetry();
            let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
            let case = format!("seed {seed} {dtype:?}");
            proptest::prop_assert!(assert_cache_rows_are_partial_sums(&engine, &case) > 0);
            for (i, batch) in workload.batches.iter().enumerate() {
                engine.on_tick(Ps(50_000_000) * (i as u64 + 1), SchedSnapshot::default()).unwrap();
                engine.run_batch(batch).unwrap();
            }
            if engine.migration_in_flight() {
                engine.on_tick(Ps::MAX, SchedSnapshot::default()).unwrap();
            }
            proptest::prop_assert!(engine.metrics_snapshot().drift.migrations_completed >= 1);
            let flipped = assert_cache_rows_are_partial_sums(&engine, &format!("{case}, flipped"));
            proptest::prop_assert!(flipped > 0);
        }
    }
}
