//! Stage 1: the host routes every reference of a batch to its row
//! partition ([`UpdlrmEngine::route`], host memory only) and scatters
//! the streams CPU→MRAM into a staging slot
//! ([`UpdlrmEngine::scatter`], the fleet's bus).

use super::{BatchScratch, EmbeddingBreakdown, TableState, UpdlrmEngine, INPUT_RESERVE_BYTES};
use crate::error::{CoreError, Result};
use crate::partition;
use cooccur_cache::CacheTraffic;
use dlrm_model::QueryBatch;
use placement::HOST_ROW_PART;
use upmem_sim::arch::WRAM_CAPACITY;
use upmem_sim::Ps;

/// [`UpdlrmEngine::route_row`]'s partition for a host-tier row.
const HOST_PART: usize = HOST_ROW_PART as usize;

/// Host CPU time per routed reference, 1 ns (stage-1 preprocessing;
/// calibration constants: DESIGN.md §7).
const ROUTE_PER_REF: Ps = Ps(1_000);

impl UpdlrmEngine {
    /// The host half of stage 1 of `batch` into staging slot `slot`.
    /// Validates the batch, builds the per-partition reference streams
    /// (padded when `pad_transfers`) and records the batch's sample
    /// count, host-tier hits and cache traffic in the slot. It touches
    /// no DPU and records nothing in the registry, so it runs while the
    /// DPU worker has the fleet, and before a replan tick's records; a
    /// batch it refuses leaves no trace in the replanner's window
    /// either. Returns the batch's breakdown with routing filled in;
    /// [`UpdlrmEngine::scatter`] sends the streams and records the
    /// traffic.
    pub(crate) fn route(&mut self, batch: &QueryBatch, slot: usize) -> Result<EmbeddingBreakdown> {
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

        let mut bd = EmbeddingBreakdown::default();
        let mut route_refs = 0usize;
        // Cache-probe counters of the whole batch, folded into the
        // telemetry registry once at the end.
        let mut traffic = CacheTraffic::default();
        let UpdlrmEngine {
            tables,
            config,
            scratch,
            drift,
            host_probe,
            ..
        } = self;
        let BatchScratch {
            writer,
            streams,
            staged,
            lookup,
            hit,
            ..
        } = scratch;
        let staged = &mut staged[slot];
        staged.samples = b;
        let host_refs = &mut staged.host_refs;
        host_refs.clear();
        let mut k = 0usize; // stream slot index, table-major then part
        for (t, state) in tables.iter().enumerate() {
            let sparse = &batch.sparse[t];
            let parts = state.tiling.row_parts;
            route_refs += sparse.total_lookups();
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
                    bd.emt_lookups += sparse.total_lookups() as u64;
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
                    let before = host_refs.len();
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
                    let hits = (host_refs.len() - before) as u64;
                    bd.emt_lookups += sparse.total_lookups() as u64 - hits;
                }
            }
            for p in 0..parts {
                let stream = &mut streams[k];
                debug_assert_eq!((stream.table, stream.part), (t, p));
                writer.write_stream(p, tasklets, config.dedup, &mut stream.bytes);
                if stream.bytes.len() > INPUT_RESERVE_BYTES {
                    return Err(CoreError::TableCapacityExceeded {
                        table: t,
                        partition: Some(p),
                        required: stream.bytes.len(),
                        available: INPUT_RESERVE_BYTES,
                    });
                }
                k += 1;
            }
        }
        // Host-tier hits are served by a host-side cache: they report
        // as cache hits and pay the probe on top of the routing pass.
        bd.cache_hits = traffic.hit_entries + host_refs.len() as u64;
        bd.emt_lookups += traffic.residual_refs;
        staged.traffic = traffic;
        bd.route = ROUTE_PER_REF * route_refs as u64 + *host_probe * host_refs.len() as u64;
        // Sliding-window profile for the replanner: raw row references,
        // before the cache split, so a replan sees the same frequencies
        // a fresh trace profile would.
        if let Some(d) = drift.as_mut() {
            for (window, sparse) in d.window.iter_mut().zip(&batch.sparse) {
                window.record_input(sparse);
            }
            d.batches_in_window += 1;
        }
        if config.pad_transfers {
            let max_len = streams.iter().map(|s| s.bytes.len()).max().unwrap_or(0);
            for s in streams.iter_mut() {
                s.bytes.resize(max_len, 0);
            }
        }
        Ok(bd)
    }

    /// The bus half of stage 1: scatters the streams
    /// [`UpdlrmEngine::route`] built into staging slot `slot`, rank by
    /// rank — each row partition's stream broadcast to all of its
    /// column slices in one bus pass, to groups fixed at construction —
    /// fills in the batch's stage 1, and records the slot's cache
    /// traffic and the transfer.
    pub(crate) fn scatter(&mut self, slot: usize, bd: &mut EmbeddingBreakdown) -> Result<()> {
        let UpdlrmEngine {
            dpu,
            tables,
            stream_groups,
            ranks,
            scratch,
            metrics,
            ..
        } = self;
        let fleet = &mut dpu.get_mut().fleet;
        let BatchScratch {
            streams,
            transfers,
            staged,
            ..
        } = scratch;
        transfers.clear();
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
            transfers.push(report);
        }
        let report = fleet.combine_transfers(&*transfers);
        metrics.record_cache_traffic(&staged[slot].traffic);
        metrics.record_transfer(true, &report);
        bd.stage1 = report.wall;
        bd.energy_pj += report.energy_pj;
        Ok(())
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
}
