//! Stage 3 and the host combine: the partial-sum rows of one staging
//! slot travel MRAM→CPU and are summed into pooled embeddings.

use super::{EmbeddingBreakdown, UpdlrmEngine, STAGING_SLOTS};
use crate::error::Result;
use dlrm_model::{simd, Matrix};
use upmem_sim::Ps;

/// Host CPU time per scalar add when combining partial sums, 0.1 ns
/// (calibration constants: DESIGN.md §7).
const COMBINE_PER_ADD: Ps = Ps(100);

impl UpdlrmEngine {
    /// Stage 3 of the batch in staging slot `slot`: gathers the slot's
    /// partial-sum rows rank by rank and assembles the pooled `batch x
    /// dim` matrices — the slot's host-tier rows first, then the PIM
    /// partials rank-major in `(table, part, slice)` order. Completes
    /// `bd` with the gather and the modeled combine time and records
    /// the batch.
    pub(crate) fn stage3(
        &mut self,
        slot: usize,
        bd: &mut EmbeddingBreakdown,
    ) -> Result<Vec<Matrix>> {
        let UpdlrmEngine {
            fleet,
            tables,
            ranks,
            scratch,
            metrics,
            host_combine_per_add,
            ..
        } = self;
        let b = scratch.staged[slot].samples;
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
        let report = fleet.combine_transfers(&scratch.transfers);
        metrics.record_transfer(false, &report);
        bd.stage3 = report.wall;
        bd.energy_pj += report.energy_pj;

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
        for &(t, s, host_slot) in &scratch.staged[slot].host_refs {
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
        bd.combine = COMBINE_PER_ADD * combine_adds + *host_combine_per_add * host_adds;
        metrics.record_batch(b, bd);
        Ok(pooled)
    }

    /// Returns a pooled-output set for reuse by a later stage 3. The
    /// serving path recycles every set after handing it to the sink,
    /// which is what makes steady-state serving allocation-free;
    /// `run_batch` callers keep theirs.
    pub(crate) fn recycle_pooled(&mut self, set: Vec<Matrix>) {
        if self.scratch.matrix_pool.len() <= STAGING_SLOTS {
            self.scratch.matrix_pool.push(set);
        }
    }
}
