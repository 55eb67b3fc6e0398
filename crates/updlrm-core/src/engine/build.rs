//! Building an engine: the constructors, each table's MRAM regions and
//! the one tile writer. Pre-processing, untimed as in the paper.

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
use upmem_sim::{DpuId, Fleet, LaunchReport, Ps, RankCostModel, RankTopology};
use workloads::{FreqProfile, Workload};

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
/// tiles whichever of them wrote it. `rows` / `entries` are scratch for
/// the placement's slot-order inverses.
pub(crate) fn write_tiles(
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
            let (rank, dpu) = state.dpu(p, c);
            let sys = fleet.rank_mut(rank)?;
            if n > 0 {
                let tile = sys.load_mram_in_place(dpu, emt_base, n * emt_row_bytes)?;
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
                    let tile =
                        sys.load_mram_in_place(dpu, cache_base, entries.len() * row_bytes)?;
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
        Self::assemble(config, fleet, states, tables, Ps::ZERO, Ps::ZERO)
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
            Ps::from_ns(plan.config.host_probe_ns),
            Ps::from_ns(plan.config.host_combine_ns_per_add),
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
        host_probe: Ps,
        host_combine_per_add: Ps,
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
            let mram_end = state.output_base(STAGING_SLOTS - 1) as usize
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
            (tables.to_vec(), Some(DriftState::new(tables, tile_scratch)))
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
            handoffs: 0,
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
