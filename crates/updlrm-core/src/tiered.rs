//! The tiered multi-rank engine: executes a [`placement::PlacementPlan`]
//! on a [`upmem_sim::Fleet`].
//!
//! Where [`UpdlrmEngine`](crate::engine::UpdlrmEngine) runs every
//! lookup on the EMT tiles of a *single* rank, this engine routes each
//! reference by the plan's tier:
//!
//! 1. **host tier** — the row lives in a host-DRAM hot cache; the host
//!    probes it during stage-1 routing and folds it into the pooled
//!    output during the combine (no PIM traffic at all);
//! 2. **replicated tier** — the row sits in every partition's replica
//!    block; traffic is spread round-robin by `(row + sample) %
//!    partitions`, the same rule the single-rank engine uses;
//! 3. **cold tier** — the row lives in exactly one partition's MRAM
//!    past the replica block; the reference goes to that partition.
//!
//! Each cold partition owns one fleet DPU (full embedding dimension, no
//! column slicing), so a table may span several ranks. Per batch the
//! stages run rank by rank and are combined with the fleet's shared
//! rules ([`Fleet::combine_transfers`] / [`Fleet::combine_launches`]):
//! per-rank buses move bytes in parallel, the host driver pays a serial
//! per-rank setup (`rank_base_ns`) per transfer phase and a serial
//! dispatch (`rank_launch_ns`) per kernel launch issued. A launch is
//! issued per `(table, rank)` group, so a table fanned across many
//! ranks pays more dispatch — the cost tiering trades against
//! (DESIGN.md §4.9).
//!
//! **Functional contract** (enforced by `tests/tiered_diff.rs`): under
//! *any* valid plan the pooled embeddings equal the untiered
//! single-rank engine's on the same trace — bit-identical for
//! integer-valued tables, where every partial sum is exact. Timing
//! differs by design; numerics must not.
//!
//! In the breakdown, host-tier hits are reported in
//! [`EmbeddingBreakdown::cache_hits`] (they are served by a host-side
//! cache) and PIM-bound references in `emt_lookups`.

use crate::config::UpdlrmConfig;
use crate::engine::EmbeddingBreakdown;
use crate::error::{CoreError, Result};
use crate::kernel::{DpuTask, EmbeddingKernel, StreamWriter};
use crate::pipeline::sequential_wall_ns;
use crate::serve::{finish_report, PipelineMode, ServeReport, ServeScratch};
use crate::telemetry::{MetricsRegistry, Snapshot};
use dlrm_model::{simd, EmbeddingTable, Matrix, QueryBatch};
use placement::{PlacementPlan, TIER_COLD, TIER_HOST, TIER_REPLICATED};
use upmem_sim::{DpuId, Fleet, LaunchReport, TransferReport};

/// One table's execution state: plan vectors, MRAM bases, host store
/// and the prebuilt kernel.
struct TieredTable {
    rows: usize,
    dim: usize,
    parts: usize,
    row_bytes: usize,
    input_base: u32,
    output_base: u32,
    /// Tier/partition/slot per row, copied from the plan.
    tier_of_row: Vec<u8>,
    part_of_row: Vec<u32>,
    slot_of_row: Vec<u32>,
    /// Host-tier rows in host-slot order, `dim` f32s each.
    host_store: Vec<f32>,
    /// Per partition: `(rank, rank-local dpu)`.
    locs: Vec<(usize, DpuId)>,
    /// Launch groups: rank-local DPU ids per rank this table touches.
    rank_ids: Vec<(usize, Vec<DpuId>)>,
    /// Prebuilt kernel; only `n_samples` changes per launch. Tasks are
    /// keyed by rank-local id — identical per table, so two partitions
    /// sharing a local id on different ranks share one entry.
    kernel: EmbeddingKernel,
}

/// One routed reference stream: the global `(table, part)` it belongs
/// to plus its serialized bytes (table-major, partition-minor order).
#[derive(Debug, Default)]
struct StreamSlot {
    table: usize,
    bytes: Vec<u8>,
}

/// Reusable per-batch working memory (same recycling discipline as the
/// single-rank engine's `BatchScratch`).
#[derive(Debug, Default)]
struct TieredScratch {
    /// The PIM-bound references of the table being routed, in CSR form
    /// per partition.
    writer: StreamWriter,
    /// One stream per cold partition, table-major.
    streams: Vec<StreamSlot>,
    /// Host-tier hits per table: `(sample, host slot)` in route order.
    host_refs: Vec<Vec<(u32, u32)>>,
    /// Per in-use rank: stage-3 gather request list.
    rank_requests: Vec<Vec<(DpuId, u32, usize)>>,
    /// Per in-use rank: gathered partial-sum bytes.
    gather_bufs: Vec<Vec<u8>>,
    /// Per-rank transfer reports of the current phase.
    transfers: Vec<TransferReport>,
    /// One launch report per `(table, rank)` group, recycled.
    launches: Vec<LaunchReport>,
    /// Per-DPU cycles across all launches of one batch.
    all_cycles: Vec<u64>,
    /// Returned pooled-output sets available for reuse.
    matrix_pool: Vec<Vec<Matrix>>,
}

/// Host-side counters from routing one batch.
#[derive(Debug, Clone, Copy)]
struct RoutedTiered {
    batch_size: usize,
    route_ns: f64,
    host_hits: u64,
    pim_refs: u64,
}

/// Aggregated stage-2 result over all `(table, rank)` launches.
#[derive(Debug, Clone, Copy, Default)]
struct TieredStage2 {
    wall_ns: f64,
    energy_pj: f64,
    dma_transfers: u64,
    instrs: u64,
    lookup_imbalance: f64,
}

/// The tiered multi-rank UpDLRM engine: a [`Fleet`] loaded according to
/// a [`PlacementPlan`], serving batches with per-tier routing.
///
/// Built with [`TieredEngine::new`]; the plan must describe exactly the
/// `tables` passed in (same count, rows and dims). From
/// [`UpdlrmConfig`] it uses `tasklets`, `batch_size`,
/// `input_reserve_bytes`, `dedup`, `pad_transfers`, the cost model and
/// the host-side ns knobs; `nr_dpus` and `strategy` are ignored — the
/// plan's fleet topology governs. Serving is always sequential: each
/// DPU has a single staging slot, so `pipeline_mode` is ignored too.
pub struct TieredEngine {
    fleet: Fleet,
    config: UpdlrmConfig,
    plan: PlacementPlan,
    tables: Vec<TieredTable>,
    /// Ranks hosting at least one partition, ascending.
    ranks_in_use: Vec<usize>,
    /// Per in-use rank: `(stream index, dpu, input base)` scatter list.
    scatter_meta: Vec<Vec<(usize, DpuId, u32)>>,
    /// Per in-use rank: `(dpu, output base, table)` gather list, in
    /// (table, partition) order within the rank.
    gather_meta: Vec<Vec<(DpuId, u32, usize)>>,
    scratch: TieredScratch,
    serve_scratch: ServeScratch,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for TieredEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredEngine")
            .field("topology", &self.plan.config.topology)
            .field("tables", &self.tables.len())
            .field("dpus_used", &self.plan.dpus_used)
            .finish()
    }
}

impl TieredEngine {
    /// Builds a fleet from `plan.config.topology`, loads every
    /// partition's MRAM (replica block then cold rows) and the host
    /// store, and prebuilds the per-table kernels.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the plan fails its own
    /// invariants or does not match `tables` (count, rows, dim), when a
    /// row exceeds one DMA transfer (2048 B) or is not 8-byte aligned;
    /// [`CoreError::CapacityExceeded`] when the EMT, input or output
    /// regions overflow MRAM; simulator errors propagate.
    pub fn new(
        config: UpdlrmConfig,
        plan: &PlacementPlan,
        tables: &[EmbeddingTable],
    ) -> Result<Self> {
        plan.check_invariants()
            .map_err(|e| CoreError::InvalidConfig(format!("placement plan: {e}")))?;
        if tables.len() != plan.tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "plan places {} tables, engine got {}",
                plan.tables.len(),
                tables.len()
            )));
        }
        let topo = plan.config.topology;
        let mut fleet = Fleet::new(
            topo,
            config.tasklets,
            config.cost.clone(),
            config.host_threads,
            plan.config.rank_cost.clone(),
        )?;

        let capacity = |e: upmem_sim::SimError| match e {
            upmem_sim::SimError::MramOutOfBounds {
                addr,
                len,
                capacity,
            } => CoreError::CapacityExceeded {
                partition: 0,
                required: addr as usize + len,
                available: capacity,
            },
            other => CoreError::Sim(other),
        };

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
                    "table {t}: {row_bytes}-byte rows exceed one {}-byte DMA (the tiered \
                     engine stores full rows per partition)",
                    upmem_sim::arch::DMA_MAX_TRANSFER
                )));
            }
            let replicas = tp.replicated_rows.len();

            // MRAM regions per partition DPU of this table:
            // [EMT (replica block + cold rows) | input | output].
            let max_cold = tp.rows_per_part.iter().copied().max().unwrap_or(0) as usize;
            let mut layout = upmem_sim::MramLayout::new();
            layout
                .reserve((replicas + max_cold) * row_bytes)
                .map_err(capacity)?;
            let input_base = layout
                .reserve(config.input_reserve_bytes)
                .map_err(capacity)?;
            let output_base = layout
                .reserve(config.batch_size * row_bytes * 2)
                .map_err(capacity)?;

            // Cold rows per partition in slot order.
            let mut rows_in_part: Vec<Vec<u32>> = tp
                .rows_per_part
                .iter()
                .map(|&n| vec![0u32; n as usize])
                .collect();
            for r in 0..tp.rows {
                if tp.tier_of_row[r] == TIER_COLD {
                    let p = tp.part_of_row[r] as usize;
                    rows_in_part[p][tp.slot_of_row[r] as usize - replicas] = r as u32;
                }
            }

            // Load each partition: shared replica block, then cold rows.
            let mut locs = Vec::with_capacity(tp.parts);
            for (p, &global) in tp.dpus.iter().enumerate() {
                let (rank, local) = topo.locate(global);
                let dpu = DpuId(local as u32);
                locs.push((rank, dpu));
                let mut buf = Vec::with_capacity((replicas + rows_in_part[p].len()) * row_bytes);
                for &r in tp
                    .replicated_rows
                    .iter()
                    .map(|&r| r as u32)
                    .collect::<Vec<_>>()
                    .iter()
                    .chain(rows_in_part[p].iter())
                {
                    for &v in table.row(r as u64)? {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
                if !buf.is_empty() {
                    fleet.rank_mut(rank)?.load_mram(dpu, 0, &buf)?;
                }
            }

            // Host store: hot rows in host-slot order.
            let mut host_store = Vec::with_capacity(tp.host_rows.len() * tp.dim);
            for &r in &tp.host_rows {
                host_store.extend_from_slice(table.row(r)?);
            }

            // Launch groups and the prebuilt kernel.
            let mut rank_ids: Vec<(usize, Vec<DpuId>)> = Vec::new();
            let mut kernel = EmbeddingKernel::new(row_bytes, config.dedup);
            for &(rank, dpu) in &locs {
                kernel.set_task(
                    dpu,
                    DpuTask {
                        emt_base: 0,
                        cache_base: 0,
                        input_base,
                        output_base,
                        n_samples: 0,
                    },
                );
                match rank_ids.iter_mut().find(|(r, _)| *r == rank) {
                    Some((_, ids)) => ids.push(dpu),
                    None => rank_ids.push((rank, vec![dpu])),
                }
            }
            rank_ids.sort_by_key(|(r, _)| *r);

            states.push(TieredTable {
                rows: tp.rows,
                dim: tp.dim,
                parts: tp.parts,
                row_bytes,
                input_base,
                output_base,
                tier_of_row: tp.tier_of_row.clone(),
                part_of_row: tp.part_of_row.clone(),
                slot_of_row: tp.slot_of_row.clone(),
                host_store,
                locs,
                rank_ids,
                kernel,
            });
        }

        // Fixed scatter/gather structure: ranks in use, then per rank
        // the (stream, dpu, base) and (dpu, base, table) lists in
        // global (table, partition) order.
        let mut ranks_in_use: Vec<usize> = states
            .iter()
            .flat_map(|s| s.locs.iter().map(|&(r, _)| r))
            .collect();
        ranks_in_use.sort_unstable();
        ranks_in_use.dedup();
        let rank_pos = |rank: usize| {
            ranks_in_use
                .binary_search(&rank)
                .expect("rank is in ranks_in_use")
        };
        let mut scatter_meta: Vec<Vec<(usize, DpuId, u32)>> = vec![Vec::new(); ranks_in_use.len()];
        let mut gather_meta: Vec<Vec<(DpuId, u32, usize)>> = vec![Vec::new(); ranks_in_use.len()];
        let mut streams = Vec::new();
        for (t, state) in states.iter().enumerate() {
            for &(rank, dpu) in &state.locs {
                let ri = rank_pos(rank);
                scatter_meta[ri].push((streams.len(), dpu, state.input_base));
                gather_meta[ri].push((dpu, state.output_base, t));
                streams.push(StreamSlot {
                    table: t,
                    bytes: Vec::new(),
                });
            }
        }

        let launch_groups: usize = states.iter().map(|s| s.rank_ids.len()).sum();
        let metrics = MetricsRegistry::new(config.telemetry, topo.nr_dpus());
        let n_ranks = ranks_in_use.len();
        let n_tables = states.len();
        Ok(TieredEngine {
            fleet,
            config,
            plan: plan.clone(),
            tables: states,
            ranks_in_use,
            scatter_meta,
            gather_meta,
            scratch: TieredScratch {
                streams,
                host_refs: vec![Vec::new(); n_tables],
                rank_requests: vec![Vec::new(); n_ranks],
                gather_bufs: vec![Vec::new(); n_ranks],
                launches: {
                    let mut v = Vec::new();
                    v.resize_with(launch_groups, LaunchReport::default);
                    v
                },
                ..TieredScratch::default()
            },
            serve_scratch: ServeScratch::default(),
            metrics,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &UpdlrmConfig {
        &self.config
    }

    /// The placement plan this engine executes.
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// Number of embedding tables loaded.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The live telemetry recorder.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the telemetry recorder (see
    /// [`UpdlrmEngine::metrics_mut`](crate::engine::UpdlrmEngine::metrics_mut)).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Takes a deterministic telemetry [`Snapshot`].
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Runs the embedding layer for one batch on the fleet: returns the
    /// pooled `batch x dim` embeddings per table and the stage
    /// breakdown (stage walls combined with the fleet's rank rules).
    ///
    /// # Errors
    ///
    /// Malformed batches, out-of-range indices, reference streams
    /// exceeding the input reserve, and simulator faults.
    pub fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<Matrix>, EmbeddingBreakdown)> {
        let routed = self.route_batch(batch)?;
        let mut bd = EmbeddingBreakdown {
            route_ns: routed.route_ns,
            cache_hits: routed.host_hits,
            emt_lookups: routed.pim_refs,
            ..EmbeddingBreakdown::default()
        };
        let scatter = self.scatter_streams()?;
        bd.stage1_ns = scatter.wall_ns;
        bd.energy_pj += scatter.energy_pj;
        let s2 = self.launch_stage2(routed.batch_size)?;
        bd.stage2_ns = s2.wall_ns;
        bd.energy_pj += s2.energy_pj;
        bd.dma_transfers += s2.dma_transfers;
        bd.instrs += s2.instrs;
        bd.lookup_imbalance = s2.lookup_imbalance;
        let (pooled, combine_ns, gather) = self.gather_combine(routed.batch_size)?;
        bd.stage3_ns = gather.wall_ns;
        bd.energy_pj += gather.energy_pj;
        bd.combine_ns = combine_ns;
        self.metrics.record_batch(routed.batch_size, &bd);
        Ok((pooled, bd))
    }

    /// Serves a stream of batches back to back (the tiered engine has a
    /// single staging slot per DPU, so the schedule is always
    /// sequential regardless of `pipeline_mode`), lending each batch's
    /// pooled embeddings to `sink` exactly as
    /// [`UpdlrmEngine::serve_stream`](crate::engine::UpdlrmEngine::serve_stream)
    /// does.
    ///
    /// # Errors
    ///
    /// `queue_depth == 0` is rejected; batch-level errors as in
    /// [`TieredEngine::run_batch`].
    pub fn serve_stream<F>(&mut self, batches: &[QueryBatch], sink: F) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        if self.config.queue_depth == 0 {
            return Err(CoreError::InvalidConfig(
                "queue_depth must be >= 1 (0 admits no batch in flight)".into(),
            ));
        }
        let mut scr = std::mem::take(&mut self.serve_scratch);
        let result = self.serve_sequential(batches, &mut scr, sink);
        self.serve_scratch = scr;
        if let Ok(report) = &result {
            let sequential = sequential_wall_ns(&self.serve_scratch.breakdowns);
            self.metrics.record_serve(report, sequential);
        }
        result
    }

    fn serve_sequential<F>(
        &mut self,
        batches: &[QueryBatch],
        scr: &mut ServeScratch,
        mut sink: F,
    ) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        scr.breakdowns.clear();
        scr.latencies.clear();
        let mut wall = 0.0f64;
        for (i, batch) in batches.iter().enumerate() {
            let (pooled, bd) = self.run_batch(batch)?;
            wall += bd.total_ns();
            scr.latencies.push(bd.total_ns());
            scr.breakdowns.push(bd);
            sink(i, &pooled, scr.breakdowns.last().expect("just pushed"));
            self.recycle_pooled(pooled);
        }
        Ok(finish_report(
            PipelineMode::Sequential,
            1,
            batches,
            scr,
            wall,
        ))
    }

    /// Stage-1 host routing: splits every reference by tier, builds the
    /// per-partition streams and records host-tier hits.
    fn route_batch(&mut self, batch: &QueryBatch) -> Result<RoutedTiered> {
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
            let acc = b * state.row_bytes;
            if acc + tasklets * 64 > upmem_sim::arch::WRAM_CAPACITY {
                return Err(CoreError::InvalidConfig(format!(
                    "batch {b} x {} B rows needs {acc} B of WRAM accumulators (64 KB available)",
                    state.row_bytes
                )));
            }
            let out_cap = self.config.batch_size * 2;
            if b > out_cap {
                return Err(CoreError::InvalidConfig(format!(
                    "batch of {b} samples exceeds the {out_cap} staged output rows per DPU \
                     (engine was built with config.batch_size = {}; raise it)",
                    self.config.batch_size
                )));
            }
        }

        let mut total_refs = 0u64;
        let mut host_hits = 0u64;
        let mut pim_refs = 0u64;
        let TieredEngine {
            tables,
            config,
            scratch,
            ..
        } = self;
        let mut k = 0usize; // stream index, table-major
        for (t, state) in tables.iter().enumerate() {
            let sparse = &batch.sparse[t];
            let parts = state.parts;
            let writer = &mut scratch.writer;
            writer.begin(parts, b);
            scratch.host_refs[t].clear();
            total_refs += sparse.total_lookups() as u64;
            for (s, sample) in sparse.iter().enumerate() {
                for &idx in sample {
                    let r = idx as usize;
                    if r >= state.rows {
                        return Err(CoreError::Model(dlrm_model::ModelError::IndexOutOfRange {
                            index: idx,
                            rows: state.rows,
                        }));
                    }
                    let slot = state.slot_of_row[r];
                    match state.tier_of_row[r] {
                        TIER_HOST => {
                            host_hits += 1;
                            scratch.host_refs[t].push((s as u32, slot));
                        }
                        TIER_REPLICATED => {
                            // Replicated rows live in every partition at
                            // the same slot; spread round-robin like the
                            // single-rank engine.
                            pim_refs += 1;
                            writer.push((r + s) % parts, slot);
                        }
                        _ => {
                            pim_refs += 1;
                            writer.push(state.part_of_row[r] as usize, slot);
                        }
                    }
                }
                writer.end_sample();
            }
            for p in 0..parts {
                let slot = &mut scratch.streams[k];
                debug_assert_eq!(slot.table, t);
                writer.write_stream(p, tasklets, config.dedup, &mut slot.bytes);
                if slot.bytes.len() > config.input_reserve_bytes {
                    return Err(CoreError::CapacityExceeded {
                        partition: p,
                        required: slot.bytes.len(),
                        available: config.input_reserve_bytes,
                    });
                }
                k += 1;
            }
        }
        if config.pad_transfers {
            let max_len = scratch
                .streams
                .iter()
                .map(|s| s.bytes.len())
                .max()
                .unwrap_or(0);
            for s in &mut scratch.streams {
                s.bytes.resize(max_len, 0);
            }
        }
        Ok(RoutedTiered {
            batch_size: b,
            route_ns: total_refs as f64 * config.route_ns_per_ref
                + host_hits as f64 * self.plan.config.host_probe_ns,
            host_hits,
            pim_refs,
        })
    }

    /// Stage 1 on the fleet: scatters the routed streams rank by rank
    /// and combines the per-rank reports.
    fn scatter_streams(&mut self) -> Result<TransferReport> {
        let TieredEngine {
            fleet,
            ranks_in_use,
            scatter_meta,
            scratch,
            metrics,
            ..
        } = self;
        scratch.transfers.clear();
        for (ri, &rank) in ranks_in_use.iter().enumerate() {
            let requests: Vec<(DpuId, u32, &[u8])> = scatter_meta[ri]
                .iter()
                .map(|&(si, dpu, base)| (dpu, base, scratch.streams[si].bytes.as_slice()))
                .collect();
            let report = fleet.rank_mut(rank)?.scatter(&requests)?;
            scratch.transfers.push(report);
        }
        let combined = fleet.combine_transfers(scratch.transfers.iter());
        metrics.record_transfer(true, &combined);
        Ok(combined)
    }

    /// Stage 2 on the fleet: one kernel launch per `(table, rank)`
    /// group, combined with the fleet's dispatch rule.
    fn launch_stage2(&mut self, n_samples: usize) -> Result<TieredStage2> {
        let topo = self.plan.config.topology;
        let TieredEngine {
            fleet,
            tables,
            scratch,
            metrics,
            ..
        } = self;
        let mut out = TieredStage2::default();
        scratch.all_cycles.clear();
        let mut g = 0usize;
        for state in tables.iter_mut() {
            for task in state.kernel.tasks.values_mut() {
                task.n_samples = n_samples as u32;
            }
            for (rank, ids) in &state.rank_ids {
                let report = &mut scratch.launches[g];
                fleet
                    .rank_mut(*rank)?
                    .launch_into(ids, &state.kernel, report)?;
                out.energy_pj += report.energy_pj;
                out.dma_transfers += report.total_dma_transfers();
                out.instrs += report.total_instrs();
                for (id, stats) in &report.per_dpu {
                    metrics.record_dpu(rank * topo.dpus_per_rank + id.0 as usize, stats);
                }
                scratch
                    .all_cycles
                    .extend(report.per_dpu.iter().map(|(_, s)| s.cycles.0));
                g += 1;
            }
        }
        let (wall, _energy) = fleet.combine_launches(scratch.launches[..g].iter());
        out.wall_ns = wall;
        let all_cycles = &scratch.all_cycles;
        if !all_cycles.is_empty() {
            let max = *all_cycles.iter().max().expect("nonempty") as f64;
            let mean = all_cycles.iter().sum::<u64>() as f64 / all_cycles.len() as f64;
            out.lookup_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            metrics.record_launch(out.lookup_imbalance);
        }
        Ok(out)
    }

    /// Stage 3 + host combine: gathers every partition's partial-sum
    /// rows rank by rank, then assembles the pooled matrices — host-tier
    /// rows first, then the PIM partials in rank order. All summands
    /// are f32 adds of functional row data, so for integer-valued
    /// tables the result is exact regardless of grouping.
    fn gather_combine(&mut self, n_samples: usize) -> Result<(Vec<Matrix>, f64, TransferReport)> {
        let b = n_samples;
        let TieredEngine {
            fleet,
            tables,
            ranks_in_use,
            gather_meta,
            scratch,
            config,
            plan,
            metrics,
            ..
        } = self;
        scratch.transfers.clear();
        for (ri, &rank) in ranks_in_use.iter().enumerate() {
            let requests = &mut scratch.rank_requests[ri];
            requests.clear();
            for &(dpu, base, t) in &gather_meta[ri] {
                requests.push((dpu, base, b * tables[t].row_bytes));
            }
            let report = fleet
                .rank(rank)?
                .gather_into(requests, &mut scratch.gather_bufs[ri])?;
            scratch.transfers.push(report);
        }
        let combined = fleet.combine_transfers(scratch.transfers.iter());
        metrics.record_transfer(false, &combined);

        let mut pooled: Vec<Matrix> = match scratch.matrix_pool.pop() {
            Some(mut set) if set.len() == tables.len() => {
                for (m, s) in set.iter_mut().zip(tables.iter()) {
                    m.reset_zeroed(b, s.dim);
                }
                set
            }
            _ => tables.iter().map(|s| Matrix::zeros(b, s.dim)).collect(),
        };

        // Host tier: add hot rows straight from the host store.
        let mut host_adds = 0u64;
        for (t, state) in tables.iter().enumerate() {
            let dim = state.dim;
            for &(s, slot) in &scratch.host_refs[t] {
                let row = &state.host_store[slot as usize * dim..(slot as usize + 1) * dim];
                let out = pooled[t].row_mut(s as usize);
                simd::add_assign(out, row);
                host_adds += dim as u64;
            }
        }

        // PIM partials, rank-major then (table, partition) order.
        let mut pim_adds = 0u64;
        for (ri, meta) in gather_meta.iter().enumerate() {
            let buf = &scratch.gather_bufs[ri];
            let mut off = 0usize;
            for &(_, _, t) in meta {
                let state = &tables[t];
                let row_bytes = state.row_bytes;
                for s in 0..b {
                    let row = &buf[off + s * row_bytes..off + (s + 1) * row_bytes];
                    let out = pooled[t].row_mut(s);
                    simd::add_assign_le(out, row);
                    pim_adds += state.dim as u64;
                }
                off += b * row_bytes;
            }
        }
        let combine_ns = pim_adds as f64 * config.combine_ns_per_add
            + host_adds as f64 * plan.config.host_combine_ns_per_add;
        Ok((pooled, combine_ns, combined))
    }

    fn recycle_pooled(&mut self, set: Vec<Matrix>) {
        if self.scratch.matrix_pool.len() <= 2 {
            self.scratch.matrix_pool.push(set);
        }
    }
}

impl crate::serve::BatchServer for TieredEngine {
    fn staged_batch_capacity(&self) -> usize {
        self.config.batch_size * 2
    }

    fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    fn serve_stream<F>(&mut self, batches: &[QueryBatch], sink: F) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        TieredEngine::serve_stream(self, batches, sink)
    }
}
