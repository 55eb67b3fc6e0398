//! Stage 2: every DPU runs the embedding kernel over the reference
//! streams of one staging slot, one launch per `(table, rank)` group.

use super::{EmbeddingBreakdown, UpdlrmEngine};
use crate::error::Result;

impl UpdlrmEngine {
    /// Stage 2 of the batch in staging slot `slot`: launches the kernels
    /// reading the slot's reference streams and writing its partial-sum
    /// region. All groups run concurrently; the wall is the slowest
    /// group plus the fleet's per-launch dispatch toll.
    ///
    /// The kernels are the prebuilt per-(table, slot) instances: only
    /// `n_samples` changes per batch, and the launch report plus cycle
    /// list are recycled through the engine's scratch.
    pub(crate) fn stage2(&mut self, slot: usize, bd: &mut EmbeddingBreakdown) -> Result<()> {
        let UpdlrmEngine {
            fleet,
            launch_groups,
            scratch,
            metrics,
            ..
        } = self;
        let n_samples = scratch.staged[slot].samples as u32;
        scratch.all_cycles.clear();
        let dpus_per_rank = fleet.topology().dpus_per_rank;
        scratch.launches.clear();
        for g in launch_groups.iter_mut() {
            let report = &mut scratch.launch;
            g.kernels[slot].n_samples = n_samples;
            fleet
                .rank_mut(g.rank)?
                .launch_into(&g.ids, &g.kernels[slot], report)?;
            scratch.launches.push((report.wall_ns, report.energy_pj));
            bd.dma_transfers += report.total_dma_transfers();
            bd.instrs += report.total_instrs();
            bd.wram_rows += report.total_wram_rows();
            bd.wram_fill_cycles = bd.wram_fill_cycles.max(report.max_fill_cycles().0);
            for (id, stats) in &report.per_dpu {
                metrics.record_dpu(g.rank * dpus_per_rank + id.0 as usize, stats);
            }
            scratch
                .all_cycles
                .extend(report.per_dpu.iter().map(|(_, s)| s.cycles.0));
        }
        let (wall_ns, energy_pj) = fleet.combine_launches(scratch.launches.iter().copied());
        bd.stage2_ns = wall_ns;
        bd.energy_pj += energy_pj;
        let all_cycles = &scratch.all_cycles;
        if !all_cycles.is_empty() {
            let max = *all_cycles.iter().max().expect("nonempty") as f64;
            let mean = all_cycles.iter().sum::<u64>() as f64 / all_cycles.len() as f64;
            bd.lookup_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            metrics.record_launch(bd.lookup_imbalance);
        }
        Ok(())
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
}
