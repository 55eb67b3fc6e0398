//! Building an engine: the constructors, each table's MRAM regions and
//! the one tile writer. Pre-processing, untimed as in the paper.
//!
//! Each table's share of a build — its profile and mined lists, its
//! tiling and placement, then its tile writes — reads only that table
//! and writes only the DPUs it owns, so [`per_table`] runs the shares
//! on one worker per core and merges them in table order (DESIGN.md
//! §4.3).

use super::{
    BatchScratch, DpuHome, DpuSide, LaunchGroup, RankIo, StreamSlot, UpdlrmEngine,
    INPUT_RESERVE_BYTES, STAGING_SLOTS,
};
use crate::config::UpdlrmConfig;
use crate::error::{CoreError, Result};
use crate::kernel::{DpuTask, EmbeddingKernel};
use crate::partition::{PartitionStrategy, RowAssignment};
use crate::place::{place, Placement};
use crate::replan::{self, DriftState, PartLists};
use crate::residency;
use crate::telemetry::MetricsRegistry;
use crate::tiling::{Tiling, TilingProblem};
use cooccur_cache::CacheListSet;
use dlrm_model::{quant, EmbedDtype, EmbeddingTable};
use placement::PlacementPlan;
use upmem_sim::arch::WRAM_CAPACITY;
use upmem_sim::{Dpu, DpuId, Fleet, LaunchReport, Ps, RankCostModel, RankTopology, SimError};
use workloads::{FreqProfile, Workload};

#[cfg(test)]
thread_local! {
    /// The worker count [`per_table`] uses on this thread, while
    /// [`with_workers`] runs.
    static WORKERS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every build on this thread fanned out to `n` workers,
/// whatever the core count: the seam the build-equivalence tests take.
#[cfg(test)]
pub(crate) fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let outer = WORKERS.replace(Some(n));
    let out = f();
    WORKERS.set(outer);
    out
}

/// One worker per core, at most one per table; under [`with_workers`],
/// its count.
fn workers(tables: usize) -> usize {
    #[cfg(test)]
    if let Some(n) = WORKERS.get() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get().min(tables))
}

/// Runs `job(t, item)` for every `(t, item)` of `items`, in one thread
/// scope on `min(available_parallelism, items)` helper threads, each
/// under the caller's SIMD tier, and returns the results in table
/// order. Each helper takes the next untaken table until none is left,
/// so a helper that cannot be spawned leaves its tables to the others.
/// The calling thread runs tables only when no helper does: on one
/// core, or when no helper could be spawned, it runs them all, in
/// order, as a serial build does. Otherwise it only waits, so what the
/// jobs allocate and free never lands in its heap: with the caller
/// taking tables too, the freed build scratch left there raised the
/// peak resident memory of a process that builds engine after engine
/// by 8% (EXPERIMENTS.md, "A cold build uses every core").
fn per_table<I: Send, O: Send>(items: Vec<I>, job: impl Fn(usize, I) -> O + Sync) -> Vec<O> {
    let n = items.len();
    let workers = workers(n);
    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("no job runs under the lock").next();
            let Some((t, item)) = next else {
                return done;
            };
            done.push((t, job(t, item)));
        }
    };
    let tier = dlrm_model::simd::tier();
    let mut out: Vec<Option<O>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let spawn = |_| {
            std::thread::Builder::new()
                .name("build-worker".into())
                .spawn_scoped(scope, || dlrm_model::simd::with_tier(tier, drain))
                .ok()
        };
        let helpers: Vec<_> = match workers {
            0 | 1 => Vec::new(),
            w => (0..w).filter_map(spawn).collect(),
        };
        let mut done = if helpers.is_empty() {
            drain()
        } else {
            Vec::new()
        };
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        for (t, o) in done {
            out[t] = Some(o);
        }
    });
    out.into_iter()
        .map(|o| o.expect("every table was taken"))
        .collect()
}

/// Borrows every table's DPUs from `fleet` at once, for [`per_table`]:
/// element `p * col_slices + c` of a table's list is the DPU holding its
/// `(p, c)` tile ([`TableState::dpus`] order).
///
/// # Errors
///
/// An id outside the fleet, or one DPU in two tables.
pub(crate) fn split_dpus<'f, 's>(
    fleet: &'f mut Fleet,
    states: impl IntoIterator<Item = &'s TableState>,
) -> Result<Vec<Vec<&'f mut Dpu>>> {
    let nr_dpus = fleet.nr_dpus();
    let mut free: Vec<Vec<Option<&mut Dpu>>> = fleet
        .dpus_mut()
        .map(|rank| rank.iter_mut().map(Some).collect())
        .collect();
    let mut take = |(rank, id): (usize, DpuId)| {
        let slot = free.get_mut(rank).and_then(|dpus| dpus.get_mut(id.index()));
        let slot = slot.ok_or(SimError::UnknownDpu { id, nr_dpus })?;
        slot.take().ok_or_else(|| {
            CoreError::InvalidConfig(format!("DPU {} of rank {rank} assigned twice", id.0))
        })
    };
    states
        .into_iter()
        .map(|state| state.dpus().map(&mut take).collect())
        .collect()
}

pub(crate) struct TableState {
    pub(crate) tiling: Tiling,
    /// What the serving regions hold; a migration flip replaces it.
    pub(crate) placement: Placement,
    /// The truncated mined list set (empty outside CA), kept so a
    /// replan can re-place and re-materialize the cache from fresh
    /// window frequencies.
    pub(crate) lists: CacheListSet,
    /// Per row partition: `(rank, rank-local id of column slice 0)`;
    /// the partition's slices are consecutive ids on that rank.
    pub(crate) locs: Vec<(usize, u32)>,
    /// Host-tier rows in host-slot order, `dim` f32s each. Empty unless
    /// a plan put rows there.
    pub(super) host_store: Vec<f32>,
    /// Where the table's regions sit in each of its DPUs' MRAM.
    pub(crate) regions: MramRegions,
    pub(super) dim: usize,
    /// Whether the placement's resident rows were picked from a
    /// profile, i.e. their `covered` counts mean what
    /// `assignment.part_load` means (false for a plan's).
    pub(super) profiled: bool,
}

impl TableState {
    /// Lays out table `t`'s MRAM regions ([`compute_regions`]) and
    /// checks that the placement's resident rows fit WRAM beside the
    /// largest batch. `cache_cap_rows` is the cache placement's
    /// capacity bound (0 without a cache). The state starts with no
    /// host store and no mined lists, as a profiled placement.
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
            regions,
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
    pub(crate) fn dpu(&self, part: usize, slice: usize) -> (usize, DpuId) {
        let (rank, first) = self.locs[part];
        (rank, DpuId(first + slice as u32))
    }

    /// The table's DPUs in `(partition, column slice)` order.
    pub(crate) fn dpus(&self) -> impl Iterator<Item = (usize, DpuId)> + '_ {
        (0..self.tiling.row_parts)
            .flat_map(move |p| (0..self.tiling.col_slices).map(move |c| self.dpu(p, c)))
    }

    pub(super) fn input_base(&self, slot: usize) -> u32 {
        self.regions.slots[slot].0
    }

    pub(super) fn output_base(&self, slot: usize) -> u32 {
        self.regions.slots[slot].1
    }

    /// Bytes of the largest resident block any partition's DPUs hold.
    pub(super) fn max_resident_bytes(&self, dtype: EmbedDtype) -> usize {
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
}

/// The per-DPU MRAM region plan shared by every (partition, slice) of
/// one table. Produced by [`compute_regions`]; the property tests in
/// [`crate::replan`] pin down that all regions are pairwise disjoint —
/// in particular that a migration scatter into the inactive EMT/cache
/// regions can never touch what the active regions are serving.
pub(crate) struct MramRegions {
    /// Double-buffered EMT region bases, indexed by the engine's
    /// `active_emt`. Equal when replanning is off (one region).
    pub(crate) emt_bases: [u32; 2],
    /// Double-buffered cache region bases; equal when replanning is off.
    pub(crate) cache_bases: [u32; 2],
    /// Per staging slot: (reference-stream base, partial-sum base).
    pub(crate) slots: [(u32, u32); STAGING_SLOTS],
    /// Rows each EMT region holds (replica block + largest partition) —
    /// the per-partition capacity a replan plans against.
    pub(crate) emt_region_rows: usize,
    /// Combination rows each cache region holds per partition.
    pub(crate) cache_region_rows: usize,
}

/// Plans one DPU's MRAM regions: `[EMT A | (EMT B) | cache A |
/// (cache B) | slot0 input | slot0 output | slot1 input | slot1
/// output]`. Two staging slots double-buffer the per-batch regions so
/// consecutive batches never share reference streams or partial sums
/// (see [`crate::serve`]). With `replan` set the EMT and cache regions
/// are double-buffered too: region B is the staging target a migration
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
/// tiles whichever of them wrote it. `dpus` are the table's own, in
/// [`TableState::dpus`] order ([`split_dpus`]); `rows` / `entries` are
/// scratch for the placement's slot-order inverses.
pub(crate) fn write_tiles(
    dpus: &mut [&mut Dpu],
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
    let (emt_base, cache_base) = (
        state.regions.emt_bases[region],
        state.regions.cache_bases[region],
    );
    let mut cache_row = vec![0f32; n_c];
    for p in 0..tiling.row_parts {
        let local = rows.part(p);
        let n = replicas.len() + local.len();
        for c in 0..tiling.col_slices {
            let cols = c * n_c..(c + 1) * n_c;
            let mram = dpus[p * tiling.col_slices + c].mram_mut();
            if n > 0 {
                let tile = mram.host_window_mut(emt_base, n * emt_row_bytes)?;
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
                    let tile = mram.host_window_mut(cache_base, entries.len() * row_bytes)?;
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

/// Where a strategy-built engine's per-table profiles and cache lists
/// come from.
#[derive(Clone, Copy)]
enum Inputs<'a> {
    /// The caller's, one profile per table and, under CA, one list set.
    Given(&'a [FreqProfile], &'a [CacheListSet]),
    /// Measured from the workload's trace, each on its table's worker.
    Trace(&'a Workload),
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
        Self::partitioned(config, tables, Inputs::Given(profiles, cache_lists))
    }

    /// [`UpdlrmEngine::new`] and [`UpdlrmEngine::from_workload`]: the
    /// engine partitions the tables itself, table `t` on the `t`-th
    /// group of `nr_dpus / tables` DPUs of one rank.
    fn partitioned(
        config: UpdlrmConfig,
        tables: &[EmbeddingTable],
        inputs: Inputs,
    ) -> Result<Self> {
        if tables.is_empty() {
            return Err(CoreError::InvalidConfig(
                "at least one embedding table".into(),
            ));
        }
        if let Inputs::Given(profiles, _) = inputs {
            if profiles.len() != tables.len() {
                return Err(CoreError::InvalidConfig(format!(
                    "{} profiles for {} tables",
                    profiles.len(),
                    tables.len()
                )));
            }
        }
        if config.nr_dpus == 0 || !config.nr_dpus.is_multiple_of(tables.len()) {
            return Err(CoreError::FleetNotDivisible {
                dpus: config.nr_dpus,
                groups: tables.len(),
            });
        }
        let cache_aware = config.strategy == PartitionStrategy::CacheAware;
        if let Inputs::Given(_, cache_lists) = inputs {
            if cache_aware && cache_lists.len() != tables.len() {
                return Err(CoreError::InvalidConfig(format!(
                    "cache-aware partitioning needs one cache list set per table ({} for {})",
                    cache_lists.len(),
                    tables.len()
                )));
            }
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
            RankCostModel {
                rank_base_ns: 0.0,
                rank_launch_ns: 0.0,
            },
        )?;
        let dpus = config.nr_dpus / tables.len();
        let build = |config: &UpdlrmConfig, t: usize| {
            let table = &tables[t];
            match inputs {
                Inputs::Given(profiles, lists) => {
                    Self::build_table(config, t, table, &profiles[t], lists.get(t), dpus)
                }
                Inputs::Trace(workload) => {
                    let trace = || workload.table_inputs(t);
                    let profile = FreqProfile::from_inputs(table.rows(), trace());
                    let lists = cache_aware
                        .then(|| CacheListSet::from_trace(&profile, trace(), &config.miner));
                    Self::build_table(config, t, table, &profile, lists.as_ref(), dpus)
                }
            }
        };
        Self::assemble(config, fleet, tables, build, Ps::ZERO, Ps::ZERO)
    }

    /// Builds an engine that executes `plan` instead of partitioning the
    /// tables itself: the fleet takes the plan's topology and rank
    /// tolls, every cold partition owns one fleet DPU holding full-width
    /// rows (`col_slices = 1`, `n_c = dim`) behind the shared replica
    /// block, and host-tier rows stay in a host-side store. From
    /// `config`, `nr_dpus`, `strategy`, `n_c` and the cache knobs are
    /// unused — the plan governs placement; everything else (dtype,
    /// dedup, telemetry, WRAM residency, …) applies as for
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
            plan.config.rank_cost.clone(),
        )?;
        let build = |config: &UpdlrmConfig, t: usize| {
            let (table, tp) = (&tables[t], &plan.tables[t]);
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
            let placement = Placement::new(config, &tiling, assignment, None, None);
            Ok(TableState {
                host_store,
                profiled: false,
                ..TableState::new(config, t, tiling, placement, 0, locs)?
            })
        };
        Self::assemble(
            config,
            fleet,
            tables,
            build,
            Ps::from_ns(plan.config.host_probe_ns),
            Ps::from_ns(plan.config.host_combine_ns_per_add),
        )
    }

    /// The constructors' shared back half. Builds every table's state
    /// with `build`, loads them into MRAM (untimed pre-processing, as in
    /// the paper) and fixes the batch-independent launch/scatter/gather
    /// structure for the engine's lifetime, so no per-batch call
    /// rebuilds it. The states are built, and the tiles written, by
    /// [`per_table`]; the error of the lowest-indexed failing table is
    /// the build's.
    fn assemble(
        config: UpdlrmConfig,
        mut fleet: Fleet,
        tables: &[EmbeddingTable],
        build: impl Fn(&UpdlrmConfig, usize) -> Result<TableState> + Sync,
        host_probe: Ps,
        host_combine_per_add: Ps,
    ) -> Result<Self> {
        let states = per_table(vec![(); tables.len()], |t, ()| build(&config, t));
        let states = states.into_iter().collect::<Result<Vec<_>>>()?;
        // Size the bank of every DPU holding a partition once, to the
        // end of its layout (through the last staging slot), *before*
        // anything is written: the tiles then land in the bank's final
        // allocation and no later launch regrows it. Committing writes
        // nothing, so the staging reserves are address space until a
        // batch's streams and partial sums touch them. DPUs a plan
        // leaves empty stay uncommitted. The banks are allocated here,
        // on the calling thread, where a serial build allocates them: a
        // bank allocated on a worker would come from fresh pages where
        // the serial build recycles freed heap, and a long-running
        // process that builds engine after engine would hold more
        // memory for it.
        for state in &states {
            let mram_end = state.output_base(STAGING_SLOTS - 1) as usize
                + config.batch_size * state.tiling.row_bytes() * 2;
            for (rank, dpu) in state.dpus() {
                fleet
                    .rank_mut(rank)?
                    .dpu_mut(dpu)?
                    .mram_mut()
                    .commit(mram_end);
            }
        }
        let dpus = split_dpus(&mut fleet, &states)?;
        let written = per_table(dpus, |t, mut dpus| {
            let state = &states[t];
            let (placement, dtype) = (&state.placement, config.embed_dtype);
            let scratch = &mut Default::default();
            write_tiles(&mut dpus, state, placement, &tables[t], dtype, 0, scratch)
        });
        written.into_iter().collect::<Result<()>>()?;

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
                                emt_base: state.regions.emt_bases[0],
                                cache_base: state.regions.cache_bases[0],
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
            (tables.to_vec(), Some(DriftState::new(tables)))
        } else {
            (Vec::new(), None)
        };
        Ok(UpdlrmEngine {
            dpu: DpuHome(Some(DpuSide {
                fleet,
                launch_groups,
                launch: LaunchReport::default(),
                launches: Vec::new(),
                all_cycles: Vec::new(),
            })),
            config,
            tables: states,
            stream_groups,
            ranks,
            host_probe,
            host_combine_per_add,
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
            overlap: std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2),
            worker: None,
            in_flight: None,
            handoffs: 0,
            worker_tier: None,
            overlapped_ticks: 0,
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
        Self::partitioned(config, tables, Inputs::Trace(workload))
    }

    /// Tiles and places table `t` on its group of `dpus` DPUs of the
    /// one rank, the `t`-th group in DPU order. A partitioner that
    /// runs out of EMT rows fails naming the table.
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
        )
        .map_err(|e| match e {
            CoreError::CapacityExceeded {
                table: None,
                partition,
                required,
                available,
            } => CoreError::CapacityExceeded {
                table: Some(t),
                partition,
                required,
                available,
            },
            other => other,
        })?;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::simd::{self, SimdTier};
    use dlrm_model::QueryBatch;
    use placement::{plan, Catalog, PlannerConfig};
    use workloads::{DatasetSpec, TraceConfig};

    const TABLES: usize = 4;

    /// Four tables (so four workers each get one) and their trace.
    fn fixture() -> (Workload, Vec<EmbeddingTable>) {
        let spec = DatasetSpec::goodreads().scaled_down(5000);
        let workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: TABLES,
                num_batches: 2,
                ..TraceConfig::default()
            },
        );
        let tables = (0..TABLES)
            .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64))
            .collect::<std::result::Result<_, _>>()
            .unwrap();
        (workload, tables)
    }

    /// A two-rank plan with replicated, host-tier and cold rows.
    fn two_rank_plan(workload: &Workload, tables: &[EmbeddingTable]) -> PlacementPlan {
        let rows = tables[0].rows();
        let profiles: Vec<FreqProfile> = (0..TABLES)
            .map(|t| FreqProfile::from_inputs(rows, workload.table_inputs(t)))
            .collect();
        let planner = PlannerConfig {
            topology: RankTopology {
                nr_ranks: 2,
                dpus_per_rank: 8,
            },
            emt_capacity_bytes: (rows / 3 + 64) * 32 * 4,
            host_cache_bytes: TABLES * 48 * 32 * 4,
            replicate_top: 16,
            ..PlannerConfig::default()
        };
        plan(&Catalog::homogeneous(TABLES, rows, 32), &profiles, &planner).unwrap()
    }

    /// What a build leaves for serving to read must not depend on the
    /// worker count: every DPU's committed MRAM, each table's layout and
    /// placement, and every kernel's tasks.
    fn assert_same_build(a: &mut UpdlrmEngine, b: &mut UpdlrmEngine, case: &str) {
        for (t, (x, y)) in a.tables.iter().zip(&b.tables).enumerate() {
            assert!(
                x.placement.same_layout(&y.placement),
                "{case}: table {t} placement"
            );
            assert_eq!(x.tiling, y.tiling, "{case}: table {t} tiling");
            assert_eq!(x.locs, y.locs, "{case}: table {t} DPUs");
            assert_eq!(
                x.regions.emt_bases, y.regions.emt_bases,
                "{case}: table {t}"
            );
            assert_eq!(x.regions.slots, y.regions.slots, "{case}: table {t}");
            assert_eq!(x.host_store, y.host_store, "{case}: table {t} host store");
        }
        let (x, y) = (a.dpu.get_mut(), b.dpu.get_mut());
        let mut committed = 0;
        for (r, (xs, ys)) in x.fleet.dpus_mut().zip(y.fleet.dpus_mut()).enumerate() {
            for (i, (xd, yd)) in xs.iter_mut().zip(ys.iter_mut()).enumerate() {
                let (xm, ym) = (
                    xd.mram_mut().committed_mut(0),
                    yd.mram_mut().committed_mut(0),
                );
                assert!(xm == ym, "{case}: rank {r} DPU {i} MRAM differs");
                committed += usize::from(!xm.is_empty());
            }
        }
        assert!(committed > 0, "{case}: no DPU was loaded");
        assert_eq!(x.launch_groups.len(), y.launch_groups.len(), "{case}");
        for (gx, gy) in x.launch_groups.iter_mut().zip(&mut y.launch_groups) {
            assert_eq!(
                (gx.table, gx.rank, &gx.ids),
                (gy.table, gy.rank, &gy.ids),
                "{case}"
            );
            for (kx, ky) in gx.kernels.iter_mut().zip(&mut gy.kernels) {
                for id in &gx.ids {
                    assert_eq!(kx.task_mut(*id), ky.task_mut(*id), "{case}: {id:?}");
                }
            }
        }
    }

    /// One served batch: its pooled rows as bits, and its breakdown.
    fn serve(
        e: &mut UpdlrmEngine,
        batch: &QueryBatch,
    ) -> (Vec<Vec<u32>>, super::super::EmbeddingBreakdown) {
        let (pooled, breakdown) = e.run_batch(batch).unwrap();
        let bits = pooled
            .iter()
            .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        (bits, breakdown)
    }

    #[test]
    fn builds_are_equal_at_one_two_and_four_workers() {
        let (workload, tables) = fixture();
        let plan = two_rank_plan(&workload, &tables);
        let batch = &workload.batches[0];
        for dtype in [EmbedDtype::F32, EmbedDtype::Int8] {
            let mut builds: Vec<(String, Box<dyn Fn() -> UpdlrmEngine>)> = Vec::new();
            for strategy in [
                PartitionStrategy::Uniform,
                PartitionStrategy::NonUniform,
                PartitionStrategy::CacheAware,
            ] {
                let (workload, tables) = (&workload, &tables);
                let mut config = UpdlrmConfig::with_dpus(16, strategy).with_embed_dtype(dtype);
                config.batch_size = workload.config.batch_size;
                config.miner.max_lists = 64;
                builds.push((
                    format!("from_workload {strategy} {dtype:?}"),
                    Box::new(move || {
                        UpdlrmEngine::from_workload(config.clone(), tables, workload).unwrap()
                    }),
                ));
            }
            let (plan, tables) = (&plan, &tables);
            let mut config = UpdlrmConfig::default().with_embed_dtype(dtype);
            config.batch_size = workload.config.batch_size;
            builds.push((
                format!("from_plan {dtype:?}"),
                Box::new(move || UpdlrmEngine::from_plan(config.clone(), plan, tables).unwrap()),
            ));
            for (case, build) in &builds {
                let mut serial = with_workers(1, build);
                let mut fanned: Vec<UpdlrmEngine> = [2, 4].map(|n| with_workers(n, build)).into();
                for e in &mut fanned {
                    assert_same_build(&mut serial, e, case);
                }
                let want = serve(&mut serial, batch);
                for (e, n) in fanned.iter_mut().zip([2, 4]) {
                    assert_eq!(
                        serve(e, batch),
                        want,
                        "{case}: {n} workers served differently"
                    );
                }
            }
        }
    }

    #[test]
    fn the_lowest_failing_table_names_the_error() {
        // Tables 1 and 3 overflow a 64 KB EMT budget on their four DPUs,
        // each by its own margin; tables 0 and 2 fit.
        let tables: Vec<EmbeddingTable> = [100, 3000, 100, 5000]
            .iter()
            .map(|&rows| EmbeddingTable::random_integer_valued(rows, 32, 3, 1).unwrap())
            .collect();
        let profiles: Vec<FreqProfile> =
            tables.iter().map(|t| FreqProfile::new(t.rows())).collect();
        let mut config = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform);
        config.emt_capacity_bytes = 64 << 10;
        let build = || {
            UpdlrmEngine::new(config.clone(), &tables, &profiles, &[])
                .expect_err("tables 1 and 3 do not fit")
                .to_string()
        };
        let serial = with_workers(1, build);
        let other = with_workers(1, || {
            let config = UpdlrmConfig {
                nr_dpus: 4,
                ..config.clone()
            };
            UpdlrmEngine::new(config, &tables[3..], &profiles[3..], &[])
                .expect_err("table 3 alone does not fit")
                .to_string()
        });
        assert_ne!(serial, other, "the two failures must be told apart");
        for n in [2, 4] {
            assert_eq!(with_workers(n, build), serial, "{n} workers");
        }
    }

    #[test]
    fn every_worker_runs_the_callers_simd_tier() {
        let barrier = std::sync::Barrier::new(4);
        let ran = simd::with_tier(SimdTier::Scalar, || {
            with_workers(4, || {
                per_table(vec![(); 4], |_, ()| {
                    // Each of the four holds its table until all four
                    // have one, so every worker runs exactly one.
                    barrier.wait();
                    (std::thread::current().id(), simd::tier())
                })
            })
        });
        let threads: std::collections::HashSet<_> = ran.iter().map(|(id, _)| id).collect();
        assert_eq!(threads.len(), 4, "four workers");
        assert!(ran.iter().all(|&(_, t)| t == SimdTier::Scalar), "{ran:?}");
    }
}
