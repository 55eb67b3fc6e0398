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
//! [`UpdlrmEngine::from_plan`] executes a [`PlacementPlan`] — one
//! full-width partition per fleet DPU across several ranks, hot rows
//! replicated into every partition or kept in a host-DRAM store the
//! host probes during routing and folds in during the combine. Both
//! drive a [`Fleet`]: the stages run rank by rank and are combined with
//! [`Fleet::combine_transfers`] / [`Fleet::combine_launches`], whose
//! per-rank tolls are `0.0` for the one-rank engine.

use crate::config::UpdlrmConfig;
use crate::error::{CoreError, Result};
use crate::kernel::{DpuTask, EmbeddingKernel, ResidentRows, StreamWriter};
use crate::partition::{self, PartitionStrategy, RowAssignment};
use crate::place::{place, Placement};
use crate::replan::{self, PartLists, ReplanPolicy};
use crate::residency::{self, ResidencyReport};
use crate::telemetry::{MetricsRegistry, Snapshot};
use crate::tiling::{Tiling, TilingProblem};
use cooccur_cache::{CacheHit, CacheListSet, CacheTraffic, LookupScratch};
use dlrm_model::{quant, simd, Dlrm, EmbedDtype, EmbeddingTable, Matrix, QueryBatch};
use placement::{PlacementPlan, HOST_ROW_PART};
use upmem_sim::arch::WRAM_CAPACITY;
use upmem_sim::{Cycles, DpuId, Fleet, LaunchReport, RankCostModel, RankTopology, TransferReport};
use workloads::{FreqProfile, Workload};

/// Per-batch latency breakdown of the embedding layer (Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmbeddingBreakdown {
    /// Stage 1: CPU→DPU reference-stream transfer (ns).
    pub stage1_ns: f64,
    /// Stage 2: DPU lookup + in-DPU reduction (ns).
    pub stage2_ns: f64,
    /// Stage 3: DPU→CPU partial-sum transfer (ns).
    pub stage3_ns: f64,
    /// Host-side routing/stream building (ns), outside the 3 stages.
    pub route_ns: f64,
    /// Host-side final partial-sum combination (ns), outside the 3 stages.
    pub combine_ns: f64,
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
    /// MRAM→WRAM (inside `stage2_ns`): nonzero on the first batch after
    /// a build or a migration flip, zero otherwise.
    pub wram_fill_cycles: u64,
}

impl EmbeddingBreakdown {
    /// The paper's embedding-layer time: stage 1 + stage 2 + stage 3.
    pub fn total_ns(&self) -> f64 {
        self.stage1_ns + self.stage2_ns + self.stage3_ns
    }

    /// Embedding time including host-side routing and combination.
    pub fn total_with_host_ns(&self) -> f64 {
        self.total_ns() + self.route_ns + self.combine_ns
    }

    /// Accumulates another batch's breakdown (imbalance is averaged by
    /// the caller; here the max is kept).
    pub fn accumulate(&mut self, other: &EmbeddingBreakdown) {
        self.stage1_ns += other.stage1_ns;
        self.stage2_ns += other.stage2_ns;
        self.stage3_ns += other.stage3_ns;
        self.route_ns += other.route_ns;
        self.combine_ns += other.combine_ns;
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

/// Number of MRAM staging slots per DPU: slot 0 serves `run_batch` and
/// sequential serving, slot 1 is the double-buffer partner that lets
/// batch `i + 1`'s reference streams land while batch `i` still owns
/// the other slot (see [`crate::serve`]).
pub(crate) const STAGING_SLOTS: usize = 2;

/// [`UpdlrmEngine::route_row`]'s partition for a host-tier row.
const HOST_PART: usize = HOST_ROW_PART as usize;

/// Per-DPU MRAM bytes reserved for each staging slot's reference
/// stream (calibration constants: DESIGN.md §7).
const INPUT_RESERVE_BYTES: usize = 2 << 20;
/// Host CPU nanoseconds per routed reference (stage-1 preprocessing).
const ROUTE_NS_PER_REF: f64 = 1.0;
/// Host CPU nanoseconds per scalar add when combining partial sums.
const COMBINE_NS_PER_ADD: f64 = 0.1;

struct TableState {
    tiling: Tiling,
    /// What the serving regions hold; a migration flip replaces it.
    placement: Placement,
    /// The truncated mined list set (empty outside CA), kept so a
    /// replan can re-place and re-materialize the cache from fresh
    /// window frequencies.
    lists: CacheListSet,
    /// Per row partition: `(rank, rank-local id of column slice 0)`;
    /// the partition's slices are consecutive ids on that rank.
    locs: Vec<(usize, u32)>,
    /// Host-tier rows in host-slot order, `dim` f32s each. Empty unless
    /// a plan put rows there.
    host_store: Vec<f32>,
    /// Double-buffered EMT region bases, indexed by the engine's
    /// `active_emt`. Equal when replanning is off (one region).
    emt_bases: [u32; 2],
    /// Double-buffered cache region bases; equal when replanning is off.
    cache_bases: [u32; 2],
    /// Rows each EMT region holds (replica block + largest partition) —
    /// the per-partition capacity a replan plans against.
    emt_region_rows: usize,
    /// Combination rows each cache region holds per partition.
    cache_region_rows: usize,
    /// Per staging slot: (reference-stream base, partial-sum base).
    slots: [(u32, u32); STAGING_SLOTS],
    dim: usize,
    /// Whether the placement's resident rows were picked from a
    /// profile, i.e. their `covered` counts mean what
    /// `assignment.part_load` means (false for a plan's).
    profiled: bool,
}

impl TableState {
    /// Lays out table `t`'s MRAM regions: `[EMT | cache | slot0 input
    /// | slot0 output | slot1 input | slot1 output]`. Two staging slots
    /// double-buffer the per-batch regions so consecutive batches never
    /// share reference streams or partial sums (see crate::serve); with
    /// replanning enabled the EMT and cache regions are themselves
    /// double-buffered so migrations can stage the next placement.
    /// `cache_cap_rows` is the cache placement's capacity bound (0
    /// without a cache). The state starts with no host store and no
    /// mined lists, as a profiled placement.
    fn new(
        config: &UpdlrmConfig,
        t: usize,
        tiling: Tiling,
        placement: Placement,
        cache_cap_rows: usize,
        locs: Vec<(usize, u32)>,
    ) -> Result<TableState> {
        let row_bytes = tiling.row_bytes();
        // EMT rows are stored at the configured dtype's stride; cache,
        // input and output regions stay f32. Under int8 the narrower
        // stride both fits more rows per DPU and shrinks the per-lookup
        // row DMA.
        let emt_row_bytes = config.embed_dtype.stored_row_bytes(tiling.n_c);
        let max_rows = |rows: &[u32]| rows.iter().copied().max().unwrap_or(0) as usize;
        let emt_rows_max = placement.replicas.len() + max_rows(&placement.assignment.rows_per_part);
        let cache_rows_max = placement
            .cache
            .as_ref()
            .map_or(0, |c| max_rows(&c.cache_rows_per_part));
        // The layout is the table's, shared by all of its partitions.
        let capacity = |e: upmem_sim::SimError| match e {
            upmem_sim::SimError::MramOutOfBounds {
                addr,
                len,
                capacity,
            } => CoreError::TableCapacityExceeded {
                table: t,
                partition: None,
                required: addr as usize + len,
                available: capacity,
            },
            other => CoreError::Sim(other),
        };
        let regions = compute_regions(&RegionSpec {
            replan: config.replan.enabled(),
            emt_rows_max,
            emt_cap_rows: config.emt_capacity_bytes / emt_row_bytes,
            emt_row_bytes,
            cache_rows_max,
            cache_cap_rows,
            row_bytes,
            input_reserve_bytes: INPUT_RESERVE_BYTES,
            output_bytes: config.batch_size * row_bytes * 2,
        })
        .map_err(capacity)?;
        let state = TableState {
            tiling,
            placement,
            lists: CacheListSet::default(),
            locs,
            host_store: Vec::new(),
            emt_bases: regions.emt_bases,
            cache_bases: regions.cache_bases,
            emt_region_rows: regions.emt_region_rows,
            cache_region_rows: regions.cache_region_rows,
            slots: regions.slots,
            dim: tiling.n_c * tiling.col_slices,
            profiled: true,
        };
        // What was picked must fit beside the tasklet locals and the
        // largest batch's accumulator block, on every DPU.
        let block = state.max_resident_bytes(config.embed_dtype);
        let needed = config
            .wram_account(tiling.n_c, config.batch_size * 2)
            .needed(block);
        if block > 0 && needed > WRAM_CAPACITY {
            return Err(CoreError::InvalidConfig(format!(
                "{block} B of WRAM-resident rows bring a DPU's WRAM to {needed} B of \
                 {WRAM_CAPACITY}"
            )));
        }
        Ok(state)
    }

    /// `(rank, rank-local id)` of the DPU holding `(part, slice)`.
    fn dpu(&self, part: usize, slice: usize) -> (usize, DpuId) {
        let (rank, first) = self.locs[part];
        (rank, DpuId(first + slice as u32))
    }

    fn input_base(&self, slot: usize) -> u32 {
        self.slots[slot].0
    }

    /// Bytes of the largest resident block any partition's DPUs hold.
    fn max_resident_bytes(&self, dtype: EmbedDtype) -> usize {
        let (emt, row) = (
            dtype.stored_row_bytes(self.tiling.n_c),
            self.tiling.row_bytes(),
        );
        let blocks = self
            .placement
            .resident
            .iter()
            .map(|r| r.rows(0).block_bytes(emt, row));
        blocks.max().unwrap_or(0)
    }

    fn output_base(&self, slot: usize) -> u32 {
        self.slots[slot].1
    }
}

/// The per-DPU MRAM region plan shared by every (partition, slice) of
/// one table. Produced by [`compute_regions`]; the property tests in
/// [`crate::replan`] pin down that all regions are pairwise disjoint —
/// in particular that a migration scatter into the inactive EMT/cache
/// regions can never touch what the active regions are serving.
pub(crate) struct MramRegions {
    pub(crate) emt_bases: [u32; 2],
    pub(crate) cache_bases: [u32; 2],
    pub(crate) slots: [(u32, u32); STAGING_SLOTS],
    pub(crate) emt_region_rows: usize,
    pub(crate) cache_region_rows: usize,
}

/// Plans one DPU's MRAM regions: `[EMT A | (EMT B) | cache A |
/// (cache B) | slot0 input | slot0 output | slot1 input | slot1
/// output]`. With `replan` set the EMT and cache regions are
/// double-buffered: region B is the staging target a migration
/// scatters the re-partitioned tiles into while region A serves.
///
/// The EMT regions are sized with headroom — up to twice the live
/// footprint, bounded by half the configured EMT capacity so the pair
/// never exceeds the single-region budget — because a rebalanced plan
/// rarely has the same largest partition as the old one. The cache
/// regions are sized at the placement capacity bound so any replanned
/// cache layout fits.
pub(crate) struct RegionSpec {
    /// Double-buffer the EMT and cache regions for live migration.
    pub(crate) replan: bool,
    /// Largest live EMT footprint (replica block + largest partition), rows.
    pub(crate) emt_rows_max: usize,
    /// Configured per-DPU EMT capacity bound, rows.
    pub(crate) emt_cap_rows: usize,
    /// Stored bytes per EMT row slice (dtype-dependent).
    pub(crate) emt_row_bytes: usize,
    /// Largest live cache footprint across partitions, rows.
    pub(crate) cache_rows_max: usize,
    /// Placement capacity bound for the cache region, rows.
    pub(crate) cache_cap_rows: usize,
    /// Bytes per f32 cache row slice.
    pub(crate) row_bytes: usize,
    /// Per-slot input staging reservation, bytes.
    pub(crate) input_reserve_bytes: usize,
    /// Per-slot output staging reservation, bytes.
    pub(crate) output_bytes: usize,
}

pub(crate) fn compute_regions(
    spec: &RegionSpec,
) -> std::result::Result<MramRegions, upmem_sim::SimError> {
    let emt_region_rows = if spec.replan {
        spec.emt_rows_max
            .max((spec.emt_cap_rows / 2).min(spec.emt_rows_max * 2))
    } else {
        spec.emt_rows_max
    };
    let cache_region_rows = if spec.replan {
        spec.cache_rows_max.max(spec.cache_cap_rows)
    } else {
        spec.cache_rows_max
    };
    let mut layout = upmem_sim::MramLayout::new();
    let emt_a = layout.reserve(emt_region_rows * spec.emt_row_bytes)?;
    let emt_b = if spec.replan {
        layout.reserve(emt_region_rows * spec.emt_row_bytes)?
    } else {
        emt_a
    };
    let cache_a = layout.reserve(cache_region_rows * spec.row_bytes)?;
    let cache_b = if spec.replan && cache_region_rows > 0 {
        layout.reserve(cache_region_rows * spec.row_bytes)?
    } else {
        cache_a
    };
    let mut slots = [(0u32, 0u32); STAGING_SLOTS];
    for slot in &mut slots {
        let input = layout.reserve(spec.input_reserve_bytes)?;
        let output = layout.reserve(spec.output_bytes)?;
        *slot = (input, output);
    }
    Ok(MramRegions {
        emt_bases: [emt_a, emt_b],
        cache_bases: [cache_a, cache_b],
        slots,
        emt_region_rows,
        cache_region_rows,
    })
}

/// The one tile writer: serializes every `(partition, column slice)`
/// tile of `placement` straight into MRAM region `region` of the DPU
/// that holds it — the EMT tile (replica block, then the partition's
/// local rows, columns `[c * n_c, (c + 1) * n_c)`, stored at `dtype`;
/// each int8 row quantized per slice with its own scale/min header),
/// then the partition's cache rows (always f32, each slice summed from
/// the table's rows as it is written — no host copy of a cache row
/// exists). The initial (untimed) load and the migration scatter are
/// both this function, so the same placement yields byte-identical
/// tiles whichever of them wrote it. `rows` / `entries` are scratch for
/// the placement's slot-order inverses.
fn write_tiles(
    fleet: &mut Fleet,
    state: &TableState,
    placement: &Placement,
    table: &EmbeddingTable,
    dtype: EmbedDtype,
    region: usize,
    [rows, entries]: &mut [PartLists; 2],
) -> Result<()> {
    let tiling = &state.tiling;
    let n_c = tiling.n_c;
    let emt_row_bytes = dtype.stored_row_bytes(n_c);
    let row_bytes = tiling.row_bytes();
    let replicas = &placement.replicas;
    replan::rows_in_parts(&placement.assignment, replicas.len(), rows);
    if let Some(cache) = &placement.cache {
        cache.entries_in_parts(entries);
    }
    let mut cache_row = vec![0f32; n_c];
    for p in 0..tiling.row_parts {
        let local = rows.part(p);
        let n = replicas.len() + local.len();
        for c in 0..tiling.col_slices {
            let cols = c * n_c..(c + 1) * n_c;
            let (rank, dpu) = state.dpu(p, c);
            let sys = fleet.rank_mut(rank)?;
            if n > 0 {
                let tile =
                    sys.load_mram_in_place(dpu, state.emt_bases[region], n * emt_row_bytes)?;
                let rows = replicas.iter().chain(local);
                for (&r, out) in rows.zip(tile.chunks_exact_mut(emt_row_bytes)) {
                    let slice = &table.row(r as u64)?[cols.clone()];
                    match dtype {
                        EmbedDtype::F32 => write_f32_le(slice, out),
                        EmbedDtype::Int8 => quant::quantize_row_into(slice, out)?,
                    }
                }
            }
            if let Some(cache) = &placement.cache {
                let entries = entries.part(p);
                if !entries.is_empty() {
                    let tile = sys.load_mram_in_place(
                        dpu,
                        state.cache_bases[region],
                        entries.len() * row_bytes,
                    )?;
                    for (&e, out) in entries.iter().zip(tile.chunks_exact_mut(row_bytes)) {
                        let e = e as usize;
                        cache
                            .store
                            .entry_sum_into(e, table, cols.clone(), &mut cache_row)?;
                        write_f32_le(&cache_row, out);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Stores `src` into `dst` (exactly `4 * src.len()` bytes) as
/// little-endian f32s.
fn write_f32_le(src: &[f32], dst: &mut [u8]) {
    for (d, v) in dst.chunks_exact_mut(4).zip(src) {
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// An in-flight migration: the staged per-table placements, whose
/// tiles already sit in the inactive MRAM regions, and the modeled
/// instant the scatter completes, at which point
/// [`UpdlrmEngine::on_tick`] performs the atomic flip.
struct PendingMigration {
    done_at_ns: u64,
    tables: Vec<Placement>,
}

/// Replanner state, present only when
/// [`UpdlrmConfig::replan`](crate::config::UpdlrmConfig) is enabled.
struct DriftState {
    /// Sliding-window access profile per table, accumulated by
    /// `route_batch` and reset at every replan decision.
    window: Vec<FreqProfile>,
    /// Batches folded into the current window.
    batches_in_window: u64,
    /// The migration currently in flight, if any (at most one).
    pending: Option<PendingMigration>,
    /// `PendingMigration::tables`' storage between migrations: empty,
    /// capacity kept, so a replan plans into it instead of a new list.
    staged_buf: Vec<Placement>,
    /// The slot-order inverses the tile writer reads, for the table
    /// being scattered; refilled in place per table per replan.
    tile_scratch: [PartLists; 2],
    /// Telemetry snapshot taken mid-first-migration (between the
    /// scatter and the flip) — the drift-snapshot golden the CI
    /// byte-compares.
    first_snapshot: Option<Snapshot>,
}

/// Host-side counters from stage-1 routing of one batch. The routed
/// reference streams themselves live in the engine's [`BatchScratch`]
/// (they can be scattered into either staging slot), so this is a small
/// `Copy` value and routing a batch moves no buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutedBatch {
    pub(crate) batch_size: usize,
    pub(crate) route_ns: f64,
    pub(crate) cache_hits: u64,
    pub(crate) emt_lookups: u64,
}

impl RoutedBatch {
    /// Starts an `EmbeddingBreakdown` carrying the host-routing counters.
    pub(crate) fn breakdown_seed(&self) -> EmbeddingBreakdown {
        EmbeddingBreakdown {
            route_ns: self.route_ns,
            cache_hits: self.cache_hits,
            emt_lookups: self.emt_lookups,
            ..EmbeddingBreakdown::default()
        }
    }
}

/// Aggregated stage-2 launch result over all table groups.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Stage2Report {
    pub(crate) wall_ns: f64,
    pub(crate) energy_pj: f64,
    pub(crate) dma_transfers: u64,
    pub(crate) instrs: u64,
    pub(crate) lookup_imbalance: f64,
    pub(crate) wram_rows: u64,
    pub(crate) wram_fill_cycles: u64,
}

impl Stage2Report {
    pub(crate) fn fold_into(&self, breakdown: &mut EmbeddingBreakdown) {
        breakdown.stage2_ns = self.wall_ns;
        breakdown.energy_pj += self.energy_pj;
        breakdown.dma_transfers += self.dma_transfers;
        breakdown.instrs += self.instrs;
        breakdown.lookup_imbalance = self.lookup_imbalance;
        breakdown.wram_rows += self.wram_rows;
        breakdown.wram_fill_cycles += self.wram_fill_cycles;
    }
}

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
struct LaunchGroup {
    table: usize,
    rank: usize,
    ids: Vec<DpuId>,
    kernels: [EmbeddingKernel; STAGING_SLOTS],
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
    /// Host-tier hits of the batch just routed, `(table, sample, host
    /// slot)` in route order.
    host_refs: Vec<(u32, u32, u32)>,
    /// Host-tier hits of the batch occupying each staging slot: the
    /// scatter swaps `host_refs` in, the slot's combine folds them.
    staged_host_refs: [Vec<(u32, u32, u32)>; STAGING_SLOTS],
    /// Cache lookup working set (cache-aware partitioning only).
    lookup: LookupScratch,
    hit: CacheHit,
    /// Per-rank reports of the bus phase in progress.
    transfers: Vec<TransferReport>,
    /// Recycled per-launch report (per-DPU stats vectors reused; one
    /// for all launch groups, so a batch's launches stay in cache).
    launch: LaunchReport,
    /// `(wall_ns, energy_pj)` per launch group of the batch in progress.
    launches: Vec<(f64, f64)>,
    /// Per-DPU cycle counts across all launch groups of one batch.
    all_cycles: Vec<u64>,
    /// Returned pooled-output sets available for reuse (see
    /// [`UpdlrmEngine::recycle_pooled`]).
    matrix_pool: Vec<Vec<Matrix>>,
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
    fleet: Fleet,
    config: UpdlrmConfig,
    tables: Vec<TableState>,
    /// Stage-2 launches in (table, rank) order.
    launch_groups: Vec<LaunchGroup>,
    /// Broadcast target group per reference stream (rank-local ids of
    /// the partition's column slices), aligned with
    /// `BatchScratch::streams`.
    stream_groups: Vec<Vec<DpuId>>,
    /// Ranks holding at least one partition, ascending.
    ranks: Vec<RankIo>,
    /// Host ns per host-tier probe / per host-tier scalar add (from the
    /// plan; `0.0` without one).
    host_probe_ns: f64,
    host_combine_ns_per_add: f64,
    scratch: BatchScratch,
    pub(crate) serve_scratch: crate::serve::ServeScratch,
    /// Telemetry recorder; a disabled registry (the default) makes every
    /// record call a single branch. Arenas are preallocated here so the
    /// hooks stay allocation-free in steady state.
    pub(crate) metrics: MetricsRegistry,
    /// Host-resident table copies, kept only when replanning is enabled
    /// (the migration scatter rebuilds tiles from them).
    host_tables: Vec<EmbeddingTable>,
    /// Which EMT/cache region pair is serving (`emt_bases[active_emt]`).
    active_emt: usize,
    /// Generation of the MRAM rows the resident blocks copy
    /// ([`ResidentRows::epoch`]): 1 at build, one more per flip.
    resident_epoch: u32,
    /// Replanner state; `None` unless `config.replan` is enabled.
    drift: Option<DriftState>,
}

impl std::fmt::Debug for UpdlrmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdlrmEngine")
            .field("topology", &self.fleet.topology())
            .field("tables", &self.tables.len())
            .finish()
    }
}

impl UpdlrmEngine {
    /// Builds an engine from explicit per-table frequency profiles and
    /// cache lists.
    ///
    /// `cache_lists` may be empty when the strategy is not
    /// [`PartitionStrategy::CacheAware`]; under CA it must carry one
    /// (possibly empty) list set per table.
    ///
    /// # Errors
    ///
    /// Configuration errors (DPU counts, table/profile mismatches),
    /// infeasible tilings, capacity violations and simulator errors.
    pub fn new(
        config: UpdlrmConfig,
        tables: &[EmbeddingTable],
        profiles: &[FreqProfile],
        cache_lists: &[CacheListSet],
    ) -> Result<Self> {
        if tables.is_empty() {
            return Err(CoreError::InvalidConfig(
                "at least one embedding table".into(),
            ));
        }
        if profiles.len() != tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} profiles for {} tables",
                profiles.len(),
                tables.len()
            )));
        }
        if config.nr_dpus == 0 || !config.nr_dpus.is_multiple_of(tables.len()) {
            return Err(CoreError::InvalidConfig(format!(
                "{} dpus not divisible into {} table groups",
                config.nr_dpus,
                tables.len()
            )));
        }
        if config.strategy == PartitionStrategy::CacheAware && cache_lists.len() != tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "cache-aware partitioning needs one cache list set per table ({} for {})",
                cache_lists.len(),
                tables.len()
            )));
        }
        // One rank of `nr_dpus` DPUs with free rank crossings: the
        // fleet combine rules then reproduce a single rank's timing
        // exactly (`0.0 * n + wall == wall`).
        let fleet = Fleet::new(
            RankTopology {
                nr_ranks: 1,
                dpus_per_rank: config.nr_dpus,
            },
            config.tasklets,
            config.cost.clone(),
            config.host_threads,
            RankCostModel {
                rank_base_ns: 0.0,
                rank_launch_ns: 0.0,
            },
        )?;
        let dpus_per_table = config.nr_dpus / tables.len();
        let mut states = Vec::with_capacity(tables.len());
        for (t, table) in tables.iter().enumerate() {
            states.push(Self::build_table(
                &config,
                t,
                table,
                &profiles[t],
                cache_lists.get(t),
                dpus_per_table,
            )?);
        }
        Self::assemble(config, fleet, states, tables, 0.0, 0.0)
    }

    /// Builds an engine that executes `plan` instead of partitioning the
    /// tables itself: the fleet takes the plan's topology and rank
    /// tolls, every cold partition owns one fleet DPU holding full-width
    /// rows (`col_slices = 1`, `n_c = dim`) behind the shared replica
    /// block, and host-tier rows stay in a host-side store. From
    /// `config`, `nr_dpus`, `strategy`, `n_c` and the cache knobs are
    /// unused — the plan governs placement; everything else (pipeline
    /// mode, queue depth, dtype, dedup, telemetry, …) applies as for
    /// [`UpdlrmEngine::new`].
    ///
    /// Under *any* valid plan the pooled embeddings equal the
    /// strategy-built engine's on the same trace — bit-identical for
    /// integer-valued f32 tables (`tests/plan_diff.rs`). In the
    /// breakdown host-tier hits count as `cache_hits`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the plan fails its own
    /// invariants or does not match `tables` (count, rows, dim), when a
    /// row exceeds one DMA transfer (2048 B) or is not 8-byte aligned,
    /// or when `config.replan` is enabled (a refit would have to keep
    /// host-tier rows out of MRAM, which no partitioner here can —
    /// DESIGN.md §4.11); [`CoreError::TableCapacityExceeded`] when a
    /// table's MRAM regions overflow a bank; simulator errors propagate.
    pub fn from_plan(
        config: UpdlrmConfig,
        plan: &PlacementPlan,
        tables: &[EmbeddingTable],
    ) -> Result<Self> {
        plan.check_invariants()
            .map_err(|e| CoreError::InvalidConfig(format!("placement plan: {e}")))?;
        if config.replan.enabled() {
            return Err(CoreError::InvalidConfig(format!(
                "replan policy '{}' cannot drive a plan-built engine: refitting would move \
                 host-tier rows into MRAM partitions",
                config.replan
            )));
        }
        if tables.len() != plan.tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "plan places {} tables, engine got {}",
                plan.tables.len(),
                tables.len()
            )));
        }
        let topo = plan.config.topology;
        let fleet = Fleet::new(
            topo,
            config.tasklets,
            config.cost.clone(),
            config.host_threads,
            plan.config.rank_cost.clone(),
        )?;
        let mut states = Vec::with_capacity(tables.len());
        for (t, (table, tp)) in tables.iter().zip(plan.tables.iter()).enumerate() {
            if table.rows() != tp.rows || table.dim() != tp.dim {
                return Err(CoreError::InvalidConfig(format!(
                    "table {t}: plan places {} x {}, engine got {} x {}",
                    tp.rows,
                    tp.dim,
                    table.rows(),
                    table.dim()
                )));
            }
            let row_bytes = tp.dim * 4;
            if !row_bytes.is_multiple_of(8) {
                return Err(CoreError::InvalidConfig(format!(
                    "table {t}: dim {} rows are not 8-byte aligned (need an even dim)",
                    tp.dim
                )));
            }
            if row_bytes > upmem_sim::arch::DMA_MAX_TRANSFER {
                return Err(CoreError::InvalidConfig(format!(
                    "table {t}: {row_bytes}-byte rows exceed one {}-byte DMA (a plan stores \
                     full rows per partition)",
                    upmem_sim::arch::DMA_MAX_TRANSFER
                )));
            }
            let tiling = Tiling {
                n_c: tp.dim,
                col_slices: 1,
                row_parts: tp.parts,
                n_r: tp.rows.div_ceil(tp.parts),
                est_cost_ns: 0.0, // no Eq. 1 search ran
            };
            let assignment = RowAssignment {
                part_of_row: tp.part_of_row.clone(),
                slot_of_row: tp.slot_of_row.clone(),
                rows_per_part: tp.rows_per_part.clone(),
                part_load: tp.part_load.clone(),
            };
            let locs = tp
                .dpus
                .iter()
                .map(|&global| {
                    let (rank, local) = topo.locate(global);
                    (rank, local as u32)
                })
                .collect();
            let mut host_store = Vec::with_capacity(tp.host_rows.len() * tp.dim);
            for &r in &tp.host_rows {
                host_store.extend_from_slice(table.row(r)?);
            }
            // No profile: the resident prefixes follow the plan's slot
            // order, and their `covered` counts mean nothing.
            let placement = Placement::new(&config, &tiling, assignment, None, None);
            states.push(TableState {
                host_store,
                profiled: false,
                ..TableState::new(&config, t, tiling, placement, 0, locs)?
            });
        }
        Self::assemble(
            config,
            fleet,
            states,
            tables,
            plan.config.host_probe_ns,
            plan.config.host_combine_ns_per_add,
        )
    }

    /// The constructors' shared back half: loads every table into MRAM
    /// (untimed pre-processing, as in the paper) and fixes the
    /// batch-independent launch/scatter/gather structure for the
    /// engine's lifetime, so no per-batch call rebuilds it.
    fn assemble(
        config: UpdlrmConfig,
        mut fleet: Fleet,
        states: Vec<TableState>,
        tables: &[EmbeddingTable],
        host_probe_ns: f64,
        host_combine_ns_per_add: f64,
    ) -> Result<Self> {
        let mut tile_scratch = <[PartLists; 2]>::default();
        for (table, state) in tables.iter().zip(&states) {
            // Size the bank of every DPU holding a partition once, to
            // the end of its layout (through the last staging slot),
            // *before* anything is written: the tiles then land in the
            // bank's final allocation and no later launch regrows it.
            // Committing writes nothing, so the staging reserves are
            // address space until a batch's streams and partial sums
            // touch them. DPUs a plan leaves empty stay uncommitted.
            let mram_end = state.slots[STAGING_SLOTS - 1].1 as usize
                + config.batch_size * state.tiling.row_bytes() * 2;
            for p in 0..state.tiling.row_parts {
                for c in 0..state.tiling.col_slices {
                    let (rank, dpu) = state.dpu(p, c);
                    fleet
                        .rank_mut(rank)?
                        .dpu_mut(dpu)?
                        .mram_mut()
                        .commit(mram_end);
                }
            }
            write_tiles(
                &mut fleet,
                state,
                &state.placement,
                table,
                config.embed_dtype,
                0,
                &mut tile_scratch,
            )?;
        }

        let mut rank_ids: Vec<usize> = states
            .iter()
            .flat_map(|s| s.locs.iter().map(|&(rank, _)| rank))
            .collect();
        rank_ids.sort_unstable();
        rank_ids.dedup();
        let mut ranks: Vec<RankIo> = rank_ids
            .into_iter()
            .map(|rank| RankIo {
                rank,
                streams: Vec::new(),
                gathers: Vec::new(),
                requests: Vec::new(),
                gather_buf: Vec::new(),
            })
            .collect();
        let resident_epoch = 1;
        let mut launch_groups: Vec<LaunchGroup> = Vec::new();
        let mut stream_groups = Vec::new();
        let mut streams = Vec::new();
        for (t, state) in states.iter().enumerate() {
            let first_group = launch_groups.len();
            for p in 0..state.tiling.row_parts {
                let rank = state.locs[p].0;
                let group: Vec<DpuId> = (0..state.tiling.col_slices)
                    .map(|c| state.dpu(p, c).1)
                    .collect();
                let io = ranks
                    .iter_mut()
                    .find(|io| io.rank == rank)
                    .expect("every rank in use was collected above");
                io.streams.push(streams.len());
                io.gathers
                    .extend(group.iter().enumerate().map(|(c, &dpu)| (dpu, t, c)));
                let launch = match launch_groups[first_group..]
                    .iter()
                    .position(|g| g.rank == rank)
                {
                    Some(g) => &mut launch_groups[first_group + g],
                    None => {
                        launch_groups.push(LaunchGroup {
                            table: t,
                            rank,
                            ids: Vec::new(),
                            kernels: std::array::from_fn(|_| {
                                EmbeddingKernel::with_dtype(
                                    state.tiling.row_bytes(),
                                    config.dedup,
                                    config.embed_dtype,
                                )
                            }),
                        });
                        launch_groups.last_mut().expect("just pushed")
                    }
                };
                launch.ids.extend_from_slice(&group);
                for (slot, kernel) in launch.kernels.iter_mut().enumerate() {
                    for &dpu in &group {
                        kernel.set_task(
                            dpu,
                            DpuTask {
                                emt_base: state.emt_bases[0],
                                cache_base: state.cache_bases[0],
                                input_base: state.input_base(slot),
                                output_base: state.output_base(slot),
                                resident: state.placement.resident[p].rows(resident_epoch),
                            },
                        );
                    }
                }
                stream_groups.push(group);
                streams.push(StreamSlot {
                    table: t,
                    part: p,
                    bytes: Vec::new(),
                });
            }
            launch_groups[first_group..].sort_by_key(|g| g.rank);
        }

        let metrics = MetricsRegistry::new(config.telemetry, fleet.nr_dpus());
        let (host_tables, drift) = if config.replan.enabled() {
            (
                tables.to_vec(),
                Some(DriftState {
                    window: tables.iter().map(|t| FreqProfile::new(t.rows())).collect(),
                    batches_in_window: 0,
                    pending: None,
                    staged_buf: Vec::with_capacity(tables.len()),
                    tile_scratch,
                    first_snapshot: None,
                }),
            )
        } else {
            (Vec::new(), None)
        };
        Ok(UpdlrmEngine {
            fleet,
            config,
            tables: states,
            launch_groups,
            stream_groups,
            ranks,
            host_probe_ns,
            host_combine_ns_per_add,
            scratch: BatchScratch {
                streams,
                ..BatchScratch::default()
            },
            serve_scratch: crate::serve::ServeScratch::default(),
            metrics,
            host_tables,
            active_emt: 0,
            resident_epoch,
            drift,
        })
    }

    /// Builds an engine directly from a generated workload: profiles
    /// every table's trace and, under CA, mines cache lists with the
    /// configured miner.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UpdlrmEngine::new`].
    pub fn from_workload(
        mut config: UpdlrmConfig,
        tables: &[EmbeddingTable],
        workload: &Workload,
    ) -> Result<Self> {
        if workload.config.num_tables != tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "workload has {} tables, engine got {}",
                workload.config.num_tables,
                tables.len()
            )));
        }
        if config.strategy == PartitionStrategy::CacheAware {
            config.miner.validate().map_err(CoreError::InvalidConfig)?;
        }
        config.avg_reduction_hint = workload.measured_avg_reduction().max(1.0);
        let mut profiles = Vec::with_capacity(tables.len());
        let mut lists = Vec::with_capacity(tables.len());
        for (t, table) in tables.iter().enumerate() {
            let profile = FreqProfile::from_inputs(table.rows(), workload.table_inputs(t));
            if config.strategy == PartitionStrategy::CacheAware {
                lists.push(CacheListSet::from_trace(
                    &profile,
                    workload.table_inputs(t),
                    &config.miner,
                ));
            } else {
                lists.push(CacheListSet::default());
            }
            profiles.push(profile);
        }
        Self::new(config, tables, &profiles, &lists)
    }

    /// Tiles and places table `t` on its group of `dpus` DPUs of the
    /// one rank, the `t`-th group in DPU order.
    fn build_table(
        config: &UpdlrmConfig,
        t: usize,
        table: &EmbeddingTable,
        profile: &FreqProfile,
        cache_lists: Option<&CacheListSet>,
        dpus: usize,
    ) -> Result<TableState> {
        let problem = TilingProblem {
            rows: table.rows(),
            cols: table.dim(),
            dpus,
            batch_size: config.batch_size,
            avg_reduction: config.avg_reduction_hint,
            emt_capacity_bytes: config.emt_capacity_bytes,
            tasklets: config.tasklets,
            // Whole rows the group's WRAM can keep, however the rows
            // are sliced (the widest tile's budget; the locals' few
            // bytes per column aside it is the same for every `N_c`).
            wram_hit_share: {
                let n_c = config.n_c.unwrap_or(table.dim().min(8));
                let group_bytes = config.wram_resident_bytes(n_c) * dpus;
                residency::top_rows_share(profile, table.rows(), group_bytes / (table.dim() * 4))
            },
        };
        let tiling = match config.n_c {
            Some(n_c) => problem.tiling_for_nc(n_c, &config.cost)?,
            None => problem.search(&config.cost)?,
        };
        let parts = tiling.row_parts;
        let emt_cap_rows =
            config.emt_capacity_bytes / config.embed_dtype.stored_row_bytes(tiling.n_c);

        // Under CA: the lists to place and the capacity bound of the
        // cache placement — the cache region size a replanned placement
        // can always fit.
        let mut lists = CacheListSet::default();
        let mut cache_cap_rows = 0usize;
        if config.strategy == PartitionStrategy::CacheAware {
            lists = cache_lists.cloned().unwrap_or_default();
            // The paper's cache-capacity knob: keep the best lists
            // fitting in `fraction` of the full requirement.
            let required = lists.total_storage_bytes(table.dim());
            let budget = (required as f64 * config.cache_fraction) as usize;
            lists.truncate_to_bytes(budget, table.dim());
            let combos = lists.lists.iter().map(|l| l.num_combinations());
            let largest = combos.clone().max().unwrap_or(0);
            cache_cap_rows = combos.sum::<usize>().div_ceil(parts.max(1)) + largest;
        }
        let capacity = (emt_cap_rows, cache_cap_rows);
        let placement = place(
            config,
            &tiling,
            config.strategy,
            table,
            profile,
            &lists,
            capacity,
        )?;

        // One rank: partition `p` owns the consecutive local ids of its
        // column slices.
        let locs = (0..parts)
            .map(|p| (0, (t * dpus + p * tiling.col_slices) as u32))
            .collect();
        Ok(TableState {
            lists,
            ..TableState::new(config, t, tiling, placement, cache_cap_rows, locs)?
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &UpdlrmConfig {
        &self.config
    }

    /// Largest batch the staged MRAM output regions can hold (sized at
    /// construction for `config.batch_size` samples, x2 slack;
    /// `route_batch` rejects anything larger).
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

    /// Fills every DPU's resident rows now, outside modeled time, so
    /// that no later batch is charged for it. Its one caller is
    /// `runtime::Runtime::run`, for an engine that stands in for a
    /// fleet whose fill is already on the books: the wall runtime's
    /// shards beyond the first are host-side replicas of *one* modeled
    /// fleet, and only the first pays (`shards - 1` fills leave the
    /// wall run's modeled clock; none at one shard, which is what the
    /// benchmark's `wall_rt` runs). Anything else — tests included —
    /// lets its first batch pay (DESIGN.md §7): the launch this runs
    /// is an empty batch whose report is dropped.
    ///
    /// # Errors
    ///
    /// Simulator faults.
    pub fn prefill_resident(&mut self) -> Result<()> {
        for g in &mut self.launch_groups {
            let kernel = &mut g.kernels[0];
            kernel.n_samples = 0;
            let rank = self.fleet.rank_mut(g.rank)?;
            rank.launch_into(&g.ids, kernel, &mut self.scratch.launch)?;
        }
        Ok(())
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
    /// Uses staging slot 0; [`UpdlrmEngine::serve`](crate::serve)
    /// alternates both slots to double-buffer consecutive batches.
    ///
    /// # Errors
    ///
    /// Malformed batches, out-of-range indices, reference streams
    /// exceeding the input reserve, and simulator faults.
    pub fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<Matrix>, EmbeddingBreakdown)> {
        let routed = self.route_batch(batch)?;
        let mut breakdown = routed.breakdown_seed();
        let scatter = self.scatter_streams(0)?;
        breakdown.stage1_ns = scatter.wall_ns;
        breakdown.energy_pj += scatter.energy_pj;
        let stage2 = self.launch_stage2(routed.batch_size, 0)?;
        stage2.fold_into(&mut breakdown);
        let (pooled, combine_ns, gather) = self.gather_combine(routed.batch_size, 0)?;
        breakdown.stage3_ns = gather.wall_ns;
        breakdown.energy_pj += gather.energy_pj;
        breakdown.combine_ns = combine_ns;
        self.metrics.record_batch(routed.batch_size, &breakdown);
        Ok((pooled, breakdown))
    }

    /// Stage-1 host preprocessing: validates the batch and builds the
    /// per-partition reference streams (padded when `pad_transfers`)
    /// into the engine's [`BatchScratch`], without touching the PIM
    /// array. The routed streams can be scattered into either staging
    /// slot; only the returned counters are batch-specific.
    pub(crate) fn route_batch(&mut self, batch: &QueryBatch) -> Result<RoutedBatch> {
        batch.validate()?;
        if batch.sparse.len() != self.tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "batch has {} sparse groups, engine has {} tables",
                batch.sparse.len(),
                self.tables.len()
            )));
        }
        let b = batch.batch_size();
        let tasklets = self.config.tasklets;
        for state in &self.tables {
            // One WRAM account: the tasklet locals, the resident rows
            // and — for the dedup kernel only; the CSR kernel
            // accumulates one row at a time — this batch's shared
            // accumulator block must fit a DPU together.
            let row_bytes = state.tiling.row_bytes();
            let budget = self.config.wram_account(state.tiling.n_c, b);
            let resident = state.max_resident_bytes(self.config.embed_dtype);
            let needed = budget.needed(resident);
            if needed > WRAM_CAPACITY {
                return Err(CoreError::InvalidConfig(format!(
                    "batch {b} x {row_bytes} B rows needs {needed} B of WRAM ({} B of accumulators, \
                     {resident} B of resident rows, {} B of tasklet locals), {WRAM_CAPACITY} B \
                     available",
                    budget.block_bytes, budget.locals_bytes
                )));
            }
            // A batch larger than the staged partial-sum region would
            // silently overflow into the next region.
            let out_cap = self.staged_batch_capacity();
            if b > out_cap {
                return Err(CoreError::InvalidConfig(format!(
                    "batch of {b} samples exceeds the {out_cap} staged output rows per DPU \
                     (engine was built with config.batch_size = {}; raise it)",
                    self.config.batch_size
                )));
            }
        }

        let mut routed = RoutedBatch {
            batch_size: b,
            route_ns: 0.0,
            cache_hits: 0,
            emt_lookups: 0,
        };
        let mut route_refs = 0usize;
        // Cache-probe counters of the whole batch, folded into the
        // telemetry registry once at the end.
        let mut traffic = CacheTraffic::default();
        let UpdlrmEngine {
            tables,
            config,
            scratch,
            metrics,
            drift,
            host_probe_ns,
            ..
        } = self;
        let BatchScratch {
            writer,
            streams,
            host_refs,
            lookup,
            hit,
            ..
        } = scratch;
        host_refs.clear();
        let mut k = 0usize; // stream slot index, table-major then part
        for (t, state) in tables.iter().enumerate() {
            let sparse = &batch.sparse[t];
            let parts = state.tiling.row_parts;
            route_refs += sparse.total_lookups();
            // Sliding-window profile for the replanner: raw row
            // references, before the cache split, so a replan sees the
            // same frequencies a fresh trace profile would.
            if let Some(d) = drift.as_mut() {
                d.window[t].record_input(sparse);
            }
            // One pass over the table's indices, in sample order: every
            // reference goes straight into its partition's CSR stream.
            // The loop is picked once per table from what the table
            // holds, never per reference.
            writer.begin(parts, b);
            match &state.placement.cache {
                Some(cs) => {
                    for (s, sample) in sparse.iter().enumerate() {
                        cs.store.lookup_into(sample, lookup, hit);
                        traffic.record(sample.len(), hit);
                        for &e in &hit.entries {
                            let (p, word) = cs.entry_route[e];
                            writer.push(p as usize, word);
                        }
                        for &idx in &hit.residual {
                            let (p, slot) = Self::route_row(state, idx, s)?;
                            writer.push(p, slot);
                        }
                        writer.end_sample();
                    }
                }
                None if state.host_store.is_empty() => {
                    routed.emt_lookups += sparse.total_lookups() as u64;
                    for (s, sample) in sparse.iter().enumerate() {
                        for &idx in sample {
                            let (p, slot) = Self::route_row(state, idx, s)?;
                            writer.push(p, slot);
                        }
                        writer.end_sample();
                    }
                }
                // A host tier: its rows never reach the PIM array; the
                // combine adds them straight from the host store.
                None => {
                    let staged = host_refs.len();
                    for (s, sample) in sparse.iter().enumerate() {
                        for &idx in sample {
                            let (p, slot) = Self::route_row(state, idx, s)?;
                            if p == HOST_PART {
                                host_refs.push((t as u32, s as u32, slot));
                            } else {
                                writer.push(p, slot);
                            }
                        }
                        writer.end_sample();
                    }
                    let hits = (host_refs.len() - staged) as u64;
                    routed.emt_lookups += sparse.total_lookups() as u64 - hits;
                }
            }
            for p in 0..parts {
                let slot = &mut streams[k];
                debug_assert_eq!((slot.table, slot.part), (t, p));
                writer.write_stream(p, tasklets, config.dedup, &mut slot.bytes);
                if slot.bytes.len() > INPUT_RESERVE_BYTES {
                    return Err(CoreError::TableCapacityExceeded {
                        table: t,
                        partition: Some(p),
                        required: slot.bytes.len(),
                        available: INPUT_RESERVE_BYTES,
                    });
                }
                k += 1;
            }
        }
        // Host-tier hits are served by a host-side cache: they report
        // as cache hits and pay the probe on top of the routing pass.
        routed.cache_hits = traffic.hit_entries + host_refs.len() as u64;
        routed.emt_lookups += traffic.residual_refs;
        metrics.record_cache_traffic(&traffic);
        routed.route_ns =
            route_refs as f64 * ROUTE_NS_PER_REF + host_refs.len() as f64 * *host_probe_ns;
        if let Some(d) = drift.as_mut() {
            d.batches_in_window += 1;
        }
        if config.pad_transfers {
            let max_len = streams.iter().map(|s| s.bytes.len()).max().unwrap_or(0);
            for s in streams.iter_mut() {
                s.bytes.resize(max_len, 0);
            }
        }
        Ok(routed)
    }

    /// Stage 1: scatters the routed reference streams (left in
    /// [`BatchScratch`] by [`UpdlrmEngine::route_batch`]) into staging
    /// slot `slot`, rank by rank (each row partition's stream is
    /// broadcast to all of its column slices in a single bus pass), and
    /// stages the batch's host-tier hits with them. Allocation-free: the
    /// broadcast groups were precomputed at construction.
    pub(crate) fn scatter_streams(&mut self, slot: usize) -> Result<TransferReport> {
        let UpdlrmEngine {
            fleet,
            tables,
            stream_groups,
            ranks,
            scratch,
            metrics,
            ..
        } = self;
        std::mem::swap(&mut scratch.host_refs, &mut scratch.staged_host_refs[slot]);
        let streams = &scratch.streams;
        scratch.transfers.clear();
        for io in ranks.iter() {
            let groups = io.streams.iter().map(|&k| {
                let s = &streams[k];
                (
                    stream_groups[k].as_slice(),
                    tables[s.table].input_base(slot),
                    s.bytes.as_slice(),
                )
            });
            let report = fleet.rank_mut(io.rank)?.scatter_broadcast_with(groups)?;
            scratch.transfers.push(report);
        }
        let report = fleet.combine_transfers(&scratch.transfers);
        metrics.record_transfer(true, &report);
        Ok(report)
    }

    /// Stage 2: launches the embedding kernels reading slot `slot`'s
    /// reference streams and writing its partial-sum region, one launch
    /// per `(table, rank)` group (all groups run concurrently; the wall
    /// is the slowest group plus the fleet's per-launch dispatch toll).
    ///
    /// The kernels are the prebuilt per-(table, slot) instances: only
    /// `n_samples` changes per batch, and the launch report plus cycle
    /// list are recycled through [`BatchScratch`].
    pub(crate) fn launch_stage2(&mut self, n_samples: usize, slot: usize) -> Result<Stage2Report> {
        let UpdlrmEngine {
            fleet,
            launch_groups,
            scratch,
            metrics,
            ..
        } = self;
        let mut out = Stage2Report::default();
        scratch.all_cycles.clear();
        let dpus_per_rank = fleet.topology().dpus_per_rank;
        scratch.launches.clear();
        for g in launch_groups.iter_mut() {
            let report = &mut scratch.launch;
            g.kernels[slot].n_samples = n_samples as u32;
            fleet
                .rank_mut(g.rank)?
                .launch_into(&g.ids, &g.kernels[slot], report)?;
            scratch.launches.push((report.wall_ns, report.energy_pj));
            out.dma_transfers += report.total_dma_transfers();
            out.instrs += report.total_instrs();
            out.wram_rows += report.total_wram_rows();
            out.wram_fill_cycles = out.wram_fill_cycles.max(report.max_fill_cycles().0);
            for (id, stats) in &report.per_dpu {
                metrics.record_dpu(g.rank * dpus_per_rank + id.0 as usize, stats);
            }
            scratch
                .all_cycles
                .extend(report.per_dpu.iter().map(|(_, s)| s.cycles.0));
        }
        (out.wall_ns, out.energy_pj) = fleet.combine_launches(scratch.launches.iter().copied());
        let all_cycles = &scratch.all_cycles;
        if !all_cycles.is_empty() {
            let max = *all_cycles.iter().max().expect("nonempty") as f64;
            let mean = all_cycles.iter().sum::<u64>() as f64 / all_cycles.len() as f64;
            out.lookup_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            metrics.record_launch(out.lookup_imbalance);
        }
        Ok(out)
    }

    /// Stage 3 + host combine: gathers slot `slot`'s partial-sum rows
    /// rank by rank and assembles the pooled `batch x dim` matrices —
    /// the slot's host-tier rows first, then the PIM partials rank-major
    /// in `(table, part, slice)` order. Returns the pooled embeddings,
    /// the modeled host combine time, and the bus transfer report.
    pub(crate) fn gather_combine(
        &mut self,
        n_samples: usize,
        slot: usize,
    ) -> Result<(Vec<Matrix>, f64, TransferReport)> {
        let b = n_samples;
        let UpdlrmEngine {
            fleet,
            tables,
            ranks,
            scratch,
            metrics,
            host_combine_ns_per_add,
            ..
        } = self;
        scratch.transfers.clear();
        for io in ranks.iter_mut() {
            io.requests.clear();
            io.requests.extend(io.gathers.iter().map(|&(dpu, t, _)| {
                let state = &tables[t];
                (dpu, state.output_base(slot), b * state.tiling.row_bytes())
            }));
            let report = fleet
                .rank(io.rank)?
                .gather_into(&io.requests, &mut io.gather_buf)?;
            scratch.transfers.push(report);
        }
        let gather_report = fleet.combine_transfers(&scratch.transfers);
        metrics.record_transfer(false, &gather_report);

        // Pooled outputs come from the recycle pool when a returned set
        // has one matrix per table; each matrix is reshaped in place to
        // this batch's size (capacity only grows, so after a set has
        // seen the largest batch the reuse is allocation-free even when
        // batch sizes vary, as the scheduler's partial batches do).
        let mut pooled: Vec<Matrix> = match scratch.matrix_pool.pop() {
            Some(mut set) if set.len() == tables.len() => {
                for (m, s) in set.iter_mut().zip(tables.iter()) {
                    m.reset_zeroed(b, s.dim);
                }
                set
            }
            _ => tables.iter().map(|s| Matrix::zeros(b, s.dim)).collect(),
        };
        let mut host_adds = 0u64;
        for &(t, s, host_slot) in &scratch.staged_host_refs[slot] {
            let state = &tables[t as usize];
            let row = &state.host_store[host_slot as usize * state.dim..][..state.dim];
            simd::add_assign(pooled[t as usize].row_mut(s as usize), row);
            host_adds += state.dim as u64;
        }
        let mut combine_adds = 0u64;
        for io in ranks.iter() {
            let mut off = 0usize;
            for &(_, t, c) in &io.gathers {
                let state = &tables[t];
                let n_c = state.tiling.n_c;
                let row_bytes = state.tiling.row_bytes();
                let buf = &io.gather_buf[off..off + b * row_bytes];
                off += b * row_bytes;
                for s in 0..b {
                    let row = &buf[s * row_bytes..(s + 1) * row_bytes];
                    let out = pooled[t].row_mut(s);
                    simd::add_assign_le(&mut out[c * n_c..(c + 1) * n_c], row);
                    combine_adds += n_c as u64;
                }
            }
        }
        let combine_ns =
            combine_adds as f64 * COMBINE_NS_PER_ADD + host_adds as f64 * *host_combine_ns_per_add;
        Ok((pooled, combine_ns, gather_report))
    }

    /// Returns a pooled-output set for reuse by a later
    /// [`UpdlrmEngine::gather_combine`]. The serving path recycles every
    /// set after handing it to the sink, which is what makes steady-state
    /// serving allocation-free; `run_batch` callers keep theirs.
    pub(crate) fn recycle_pooled(&mut self, set: Vec<Matrix>) {
        if self.scratch.matrix_pool.len() <= STAGING_SLOTS {
            self.scratch.matrix_pool.push(set);
        }
    }

    /// Resolves one EMT reference to `(partition, slot)`. A host-tier
    /// row comes back as `(HOST_PART, host slot)`; it exists only in
    /// tables with a host store, whose routing loop is the one that
    /// checks for it. Runs once per reference from all three routing
    /// loops; left to the inliner's own judgement it stays a call
    /// (measured +19% host time per `run --plan` batch).
    #[inline]
    fn route_row(state: &TableState, idx: u64, sample: usize) -> Result<(usize, u32)> {
        let r = idx as usize;
        let assignment = &state.placement.assignment;
        if r >= assignment.part_of_row.len() {
            return Err(CoreError::Model(dlrm_model::ModelError::IndexOutOfRange {
                index: idx,
                rows: assignment.part_of_row.len(),
            }));
        }
        let p = assignment.part_of_row[r];
        let slot = assignment.slot_of_row[r];
        if slot == partition::CACHED_ROW_SLOT {
            return Err(CoreError::InvalidConfig(format!(
                "row {idx} is cache-resident but was routed to the EMT path"
            )));
        }
        if p >= HOST_ROW_PART {
            if p == HOST_ROW_PART {
                return Ok((HOST_PART, slot));
            }
            // Replicated rows live in every partition at the same slot;
            // spread their traffic round-robin by (row, sample).
            let parts = state.tiling.row_parts;
            return Ok(((r + sample) % parts, slot));
        }
        Ok((p as usize, slot))
    }

    /// Advances the replanner to modeled instant `now_ns`: completes a
    /// migration whose staged scatter has drained (the atomic flip), or
    /// checks the replan policy against the sliding window and begins a
    /// new migration. A no-op unless
    /// [`UpdlrmConfig::replan`](crate::config::UpdlrmConfig) is
    /// enabled. Front-ends call this between batches — the scheduler's
    /// event loop ticks it at every launch instant.
    ///
    /// # Errors
    ///
    /// Simulator faults while scattering the staged tiles. Planning
    /// failures (a placement that no longer fits the staged regions)
    /// are *not* errors: the replan is declined, counted in
    /// [`DriftSnapshot::replans_skipped`](crate::telemetry::DriftSnapshot),
    /// and the window resets.
    pub fn on_tick(&mut self, now_ns: u64) -> Result<()> {
        let Some(drift) = self.drift.as_ref() else {
            return Ok(());
        };
        if let Some(pending) = &drift.pending {
            if now_ns >= pending.done_at_ns {
                self.complete_migration(now_ns);
            }
            return Ok(());
        }
        let due = match self.config.replan {
            ReplanPolicy::Off => false,
            ReplanPolicy::Periodic { every_batches } => drift.batches_in_window >= every_batches,
            ReplanPolicy::Imbalance {
                threshold,
                min_batches,
            } => {
                drift.batches_in_window >= min_batches
                    && self
                        .tables
                        .iter()
                        .zip(drift.window.iter())
                        .map(|(s, w)| replan::window_imbalance(&s.placement.assignment, w))
                        .fold(1.0f64, f64::max)
                        > threshold
            }
        };
        if due {
            self.begin_migration(now_ns)?;
        }
        Ok(())
    }

    /// True while a migration's staged scatter has not yet flipped.
    pub fn migration_in_flight(&self) -> bool {
        self.drift.as_ref().is_some_and(|d| d.pending.is_some())
    }

    /// The telemetry snapshot captured mid-first-migration (after the
    /// staging scatter was charged, before the flip) — the fixed-seed
    /// golden CI byte-compares. `None` until the first migration
    /// begins, or when telemetry is off.
    pub fn drift_snapshot(&self) -> Option<&Snapshot> {
        self.drift.as_ref().and_then(|d| d.first_snapshot.as_ref())
    }

    /// Plan phase of a replan: every table refit by [`place`] — the
    /// build's own function — to the sliding window and the staged
    /// regions' capacities, pushed onto the (empty) `staged`. Takes
    /// `&self`: planning reads the engine and cannot mutate what
    /// serves. Returns `false` to decline the replan — a placement that
    /// cannot fit the staged regions, or one whose assignment compares
    /// equal to the serving one's (`part_load` included).
    fn plan_flips(&self, staged: &mut Vec<Placement>) -> bool {
        let drift = self.drift.as_ref().expect("replanning enabled");
        // A refit exists because load must follow the window; a uniform
        // re-cut would reproduce the contiguous hot block behind it.
        use PartitionStrategy::{NonUniform, Uniform};
        let s = self.config.strategy;
        let strategy = if s == Uniform { NonUniform } else { s };
        let mut changed = false;
        for ((state, table), window) in self.tables.iter().zip(&self.host_tables).zip(&drift.window)
        {
            let capacity = (state.emt_region_rows, state.cache_region_rows);
            let (config, tiling, lists) = (&self.config, &state.tiling, &state.lists);
            let Ok(placement) = place(config, tiling, strategy, table, window, lists, capacity)
            else {
                return false;
            };
            changed |= placement.assignment != state.placement.assignment;
            staged.push(placement);
        }
        changed
    }

    /// Plans a fresh placement for every table from the sliding window,
    /// scatters the re-partitioned tiles into the inactive MRAM
    /// regions, and charges the modeled migration cost. The flip is
    /// deferred to the modeled instant the scatter completes
    /// ([`UpdlrmEngine::on_tick`]); until then serving continues on the
    /// old placement, whose regions the scatter never touches.
    fn begin_migration(&mut self, now_ns: u64) -> Result<()> {
        let drift = self.drift.as_mut().expect("replanning enabled");
        let mut staged = std::mem::take(&mut drift.staged_buf);
        let go = self.plan_flips(&mut staged);

        // The window is consumed by the decision either way.
        let drift = self.drift.as_mut().expect("replanning enabled");
        for w in &mut drift.window {
            w.clear();
        }
        drift.batches_in_window = 0;
        if !go {
            staged.clear();
            drift.staged_buf = staged;
            self.metrics.record_replan_skip();
            return Ok(());
        }

        // Scatter phase: write the staged tiles into the inactive
        // regions (functionally safe — nothing serves from them) and
        // accumulate the modeled cost: one host->MRAM bulk pass over
        // every staged byte, plus the slowest DPU's DMA-engine time
        // absorbing its rows (the `charge_dma_repeat` bulk mirror).
        let inactive = self.active_emt ^ 1;
        let mut total_bytes = 0usize;
        let mut rows_moved = 0u64;
        let mut max_dpu = Cycles(0);
        {
            let UpdlrmEngine {
                fleet,
                tables,
                host_tables,
                config,
                drift,
                ..
            } = self;
            let scratch = &mut drift.as_mut().expect("replanning enabled").tile_scratch;
            let cost = &config.cost;
            let dtype = config.embed_dtype;
            for ((state, placement), table) in tables.iter().zip(&staged).zip(host_tables.iter()) {
                write_tiles(fleet, state, placement, table, dtype, inactive, scratch)?;
                let tiling = &state.tiling;
                // Every column slice of a partition absorbs the same
                // `n` rows of `bytes` each.
                let mut charge = |n: usize, bytes: usize| {
                    rows_moved += (n * tiling.col_slices) as u64;
                    total_bytes += n * bytes * tiling.col_slices;
                    max_dpu = max_dpu.max(cost.bulk_rows_dma_cycles(bytes, n as u64));
                };
                for p in 0..tiling.row_parts {
                    charge(
                        placement.replicas.len() + placement.assignment.rows_per_part[p] as usize,
                        dtype.stored_row_bytes(tiling.n_c),
                    );
                    if let Some(cache) = &placement.cache {
                        charge(cache.cache_rows_per_part[p] as usize, tiling.row_bytes());
                    }
                }
            }
        }
        let cost = &self.config.cost;
        let migration_ns = cost.host_to_mram_ns(total_bytes)
            + cost.host_transfer_base_ns
            + cost.cycles_to_ns(max_dpu);
        let done_at_ns = now_ns.saturating_add(migration_ns.max(0.0).ceil() as u64);
        self.metrics
            .record_replan_begin(rows_moved, total_bytes as u64, migration_ns);
        // The mid-migration golden: counters show the replan charged
        // but not yet flipped.
        let snapshot = {
            let drift = self.drift.as_ref().expect("replanning enabled");
            (self.config.telemetry && drift.first_snapshot.is_none())
                .then(|| self.metrics.snapshot())
        };
        let drift = self.drift.as_mut().expect("replanning enabled");
        drift.pending = Some(PendingMigration {
            done_at_ns,
            tables: staged,
        });
        if let Some(s) = snapshot {
            drift.first_snapshot = Some(s);
        }
        Ok(())
    }

    /// The atomic flip: installs every table's staged placement and
    /// repoints every kernel task's EMT/cache bases at the freshly
    /// scattered regions. Between two batches this is instantaneous in
    /// modeled time; the migration's cost was charged when the scatter
    /// was staged.
    fn complete_migration(&mut self, now_ns: u64) {
        let drift = self.drift.as_mut().expect("replanning enabled");
        let mut staged = drift.pending.take().expect("migration in flight").tables;
        for (state, placement) in self.tables.iter_mut().zip(staged.drain(..)) {
            state.placement = placement;
        }
        drift.staged_buf = staged;
        self.active_emt ^= 1;
        // A new generation: what a DPU's WRAM holds is a copy of the
        // region that stopped serving, so every resident block refills
        // (and is charged for it) on its DPU's next launch.
        self.resident_epoch += 1;
        let (active, epoch) = (self.active_emt, self.resident_epoch);
        for g in &mut self.launch_groups {
            let state = &self.tables[g.table];
            for p in (0..state.tiling.row_parts).filter(|&p| state.locs[p].0 == g.rank) {
                for c in 0..state.tiling.col_slices {
                    for kernel in &mut g.kernels {
                        let task = kernel.task_mut(state.dpu(p, c).1).expect(
                            "every partition's DPUs are registered with its rank's kernels",
                        );
                        task.emt_base = state.emt_bases[active];
                        task.cache_base = state.cache_bases[active];
                        task.resident = state.placement.resident[p].rows(epoch);
                    }
                }
            }
        }
        self.metrics.record_migration_flip(now_ns);
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
    use super::*;
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
            for g in &mut engine.launch_groups {
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
            let config = UpdlrmConfig::with_dpus(16, strategy)
                .with_replan(ReplanPolicy::Periodic { every_batches: 3 })
                .with_embed_dtype(dtype)
                .with_telemetry();
            let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
            for (i, batch) in workload.batches.iter().enumerate() {
                engine.on_tick((i as u64 + 1) * 50_000).unwrap();
                engine.run_batch(batch).unwrap();
            }
            if engine.migration_in_flight() {
                engine.on_tick(u64::MAX).unwrap();
            }
            assert!(
                engine.metrics_snapshot().drift.migrations_completed >= 1,
                "{strategy} {dtype:?}: the serving region must be one a migration wrote"
            );

            let active = engine.active_emt;
            let topology = engine.fleet.topology();
            let mut scratch = <[PartLists; 2]>::default();
            let (mut emt_bytes, mut cache_bytes) = (0usize, 0usize);
            for (state, table) in engine.tables.iter().zip(&engine.host_tables) {
                let placement = &state.placement;
                let mut fresh = Fleet::new(
                    topology,
                    engine.config.tasklets,
                    engine.config.cost.clone(),
                    1,
                    RankCostModel {
                        rank_base_ns: 0.0,
                        rank_launch_ns: 0.0,
                    },
                )
                .unwrap();
                write_tiles(&mut fresh, state, placement, table, dtype, 0, &mut scratch).unwrap();
                assert_ne!(state.emt_bases[0], state.emt_bases[1]);
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
                            mram_bytes(&fresh, rank, dpu, state.emt_bases[0], emt_len),
                            mram_bytes(&engine.fleet, rank, dpu, state.emt_bases[active], emt_len),
                            "{strategy} {dtype:?}: EMT tile ({p}, {c})"
                        );
                        assert_eq!(
                            mram_bytes(&fresh, rank, dpu, state.cache_bases[0], cache_len),
                            mram_bytes(
                                &engine.fleet,
                                rank,
                                dpu,
                                state.cache_bases[active],
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
                        let addr = state.cache_bases[region] + (slot * row_bytes) as u32;
                        let got: Vec<u32> = mram_bytes(&engine.fleet, rank, dpu, addr, row_bytes)
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
                engine.on_tick((i as u64 + 1) * 50_000).unwrap();
                engine.run_batch(batch).unwrap();
            }
            if engine.migration_in_flight() {
                engine.on_tick(u64::MAX).unwrap();
            }
            proptest::prop_assert!(engine.metrics_snapshot().drift.migrations_completed >= 1);
            let flipped = assert_cache_rows_are_partial_sums(&engine, &format!("{case}, flipped"));
            proptest::prop_assert!(flipped > 0);
        }
    }
}
