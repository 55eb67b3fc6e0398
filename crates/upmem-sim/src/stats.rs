//! Execution and transfer statistics reported by the simulator.

use crate::arch::{Cycles, DpuId, Ps};

/// Per-tasklet counters accumulated while a kernel runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskletStats {
    /// Pipeline instructions issued by this tasklet.
    pub instrs: u64,
    /// Cycles this tasklet spent blocked on MRAM DMA (latency view).
    pub dma_cycles: u64,
    /// Cycles the shared DMA engine was occupied by this tasklet's
    /// transfers (serialization view).
    pub dma_engine_cycles: u64,
    /// Number of MRAM DMA transfers issued.
    pub dma_transfers: u64,
    /// Bytes moved over the MRAM DMA engine.
    pub dma_bytes: u64,
    /// Row operands read from the WRAM-resident block instead of being
    /// fetched from MRAM: a count only — no latency, no engine
    /// occupancy, no issue instructions ([`CostTable::charge_wram_rows`](crate::CostTable::charge_wram_rows)).
    pub wram_rows: u64,
}

impl TaskletStats {
    /// Merges another tasklet's counters into this one.
    pub fn merge(&mut self, other: &TaskletStats) {
        self.instrs += other.instrs;
        self.dma_cycles += other.dma_cycles;
        self.dma_engine_cycles += other.dma_engine_cycles;
        self.dma_transfers += other.dma_transfers;
        self.dma_bytes += other.dma_bytes;
        self.wram_rows += other.wram_rows;
    }
}

/// Result of running one kernel launch on one DPU.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpuRunStats {
    /// Modeled wall-clock cycles for the launch on this DPU.
    pub cycles: Cycles,
    /// The part of `cycles` spent in the fill phase, before the first
    /// barrier (copying a resident block MRAM→WRAM); zero for a launch
    /// that charged nothing there.
    pub fill_cycles: Cycles,
    /// Aggregate counters over all tasklets.
    pub totals: TaskletStats,
    /// Per-tasklet counters (length = tasklets used by the launch).
    pub per_tasklet: Vec<TaskletStats>,
    /// Modeled DPU-side energy in picojoules.
    pub energy_pj: f64,
}

impl DpuRunStats {
    /// Number of tasklets that issued at least one instruction in this
    /// launch (a tasklet whose stream slice was empty still runs the
    /// dispatch prologue, so "busy" means it did real work).
    pub fn busy_tasklets(&self) -> usize {
        self.per_tasklet.iter().filter(|t| t.instrs > 0).count()
    }

    /// Fraction of provisioned tasklets that did real work in this
    /// launch; `0.0` when no tasklets ran.
    pub fn tasklet_occupancy(&self) -> f64 {
        if self.per_tasklet.is_empty() {
            0.0
        } else {
            self.busy_tasklets() as f64 / self.per_tasklet.len() as f64
        }
    }
}

/// Running per-DPU counter cell for fleet telemetry: a fixed-size,
/// `Copy` accumulator that a caller-owned arena (one cell per DPU,
/// preallocated) folds [`DpuRunStats`] into after each launch, so a
/// steady-state serving loop can collect fleet statistics without any
/// heap allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpuCounters {
    /// Kernel launches folded into this cell.
    pub launches: u64,
    /// Total modeled wall-clock cycles across those launches.
    pub cycles: u64,
    /// Total pipeline instructions issued.
    pub instrs: u64,
    /// Total MRAM DMA transfers issued.
    pub dma_transfers: u64,
    /// Total bytes moved over the MRAM DMA engine.
    pub dma_bytes: u64,
    /// Total row operands read from the WRAM-resident block.
    pub wram_rows: u64,
    /// Sum over launches of tasklets that did real work.
    pub busy_tasklets: u64,
    /// Sum over launches of tasklets provisioned.
    pub tasklet_slots: u64,
}

impl DpuCounters {
    /// Folds one launch's statistics into the running counters.
    pub fn record(&mut self, stats: &DpuRunStats) {
        self.launches += 1;
        self.cycles += stats.cycles.0;
        self.instrs += stats.totals.instrs;
        self.dma_transfers += stats.totals.dma_transfers;
        self.dma_bytes += stats.totals.dma_bytes;
        self.wram_rows += stats.totals.wram_rows;
        self.busy_tasklets += stats.busy_tasklets() as u64;
        self.tasklet_slots += stats.per_tasklet.len() as u64;
    }

    /// Folds another cell's accumulated counters into this one —
    /// everything is a sum, so merging is lossless (used to aggregate
    /// per-tenant engine fleets into one shared-fleet view).
    pub fn merge(&mut self, other: &DpuCounters) {
        self.launches += other.launches;
        self.cycles += other.cycles;
        self.instrs += other.instrs;
        self.dma_transfers += other.dma_transfers;
        self.dma_bytes += other.dma_bytes;
        self.wram_rows += other.wram_rows;
        self.busy_tasklets += other.busy_tasklets;
        self.tasklet_slots += other.tasklet_slots;
    }

    /// Mean tasklet occupancy over all recorded launches (`0.0` before
    /// the first launch).
    pub fn occupancy(&self) -> f64 {
        if self.tasklet_slots == 0 {
            0.0
        } else {
            self.busy_tasklets as f64 / self.tasklet_slots as f64
        }
    }
}

/// Result of a kernel launch across a set of DPUs (they execute in
/// parallel, so the wall time is the slowest DPU).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchReport {
    /// Wall-clock cycles: maximum over the launched DPUs.
    pub wall_cycles: Cycles,
    /// Wall-clock time: `wall_cycles` at the DPU clock, rounded once.
    pub wall: Ps,
    /// Per-DPU run statistics, in launch order.
    pub per_dpu: Vec<(DpuId, DpuRunStats)>,
    /// Total modeled energy across DPUs (picojoules).
    pub energy_pj: f64,
}

impl LaunchReport {
    /// Sum of instructions over all DPUs.
    pub fn total_instrs(&self) -> u64 {
        self.per_dpu.iter().map(|(_, s)| s.totals.instrs).sum()
    }

    /// Sum of MRAM DMA bytes over all DPUs.
    pub fn total_dma_bytes(&self) -> u64 {
        self.per_dpu.iter().map(|(_, s)| s.totals.dma_bytes).sum()
    }

    /// Sum of MRAM DMA transfers over all DPUs.
    pub fn total_dma_transfers(&self) -> u64 {
        self.per_dpu
            .iter()
            .map(|(_, s)| s.totals.dma_transfers)
            .sum()
    }

    /// Sum of WRAM-resident row reads over all DPUs.
    pub fn total_wram_rows(&self) -> u64 {
        self.per_dpu.iter().map(|(_, s)| s.totals.wram_rows).sum()
    }

    /// Slowest fill phase over the launched DPUs (zero when none filled).
    pub fn max_fill_cycles(&self) -> Cycles {
        let fills = self.per_dpu.iter().map(|(_, s)| s.fill_cycles);
        fills.max().unwrap_or_default()
    }

    /// Cycle-imbalance ratio: slowest DPU over mean DPU (1.0 = perfectly
    /// balanced). Returns 1.0 for an empty launch.
    pub fn imbalance(&self) -> f64 {
        if self.per_dpu.is_empty() {
            return 1.0;
        }
        let max = self
            .per_dpu
            .iter()
            .map(|(_, s)| s.cycles.0)
            .max()
            .unwrap_or(0) as f64;
        let mean = self.per_dpu.iter().map(|(_, s)| s.cycles.0).sum::<u64>() as f64
            / self.per_dpu.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Timing of one host⇄MRAM transfer phase (stage 1 or stage 3 of the
/// UpDLRM pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferReport {
    /// Wall-clock time of the phase.
    pub wall: Ps,
    /// Total bytes moved across all DPUs.
    pub bytes: u64,
    /// Number of per-DPU buffers in the phase.
    pub buffers: usize,
    /// Whether the buffers were all the same size and therefore moved in
    /// parallel (the UPMEM rank transfer rule, paper §2.2).
    pub parallel: bool,
    /// Modeled host-link energy in picojoules.
    pub energy_pj: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = TaskletStats {
            instrs: 1,
            dma_cycles: 2,
            dma_engine_cycles: 2,
            dma_transfers: 3,
            dma_bytes: 4,
            wram_rows: 5,
        };
        let b = TaskletStats {
            instrs: 10,
            dma_cycles: 20,
            dma_engine_cycles: 20,
            dma_transfers: 30,
            dma_bytes: 40,
            wram_rows: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            TaskletStats {
                instrs: 11,
                dma_cycles: 22,
                dma_engine_cycles: 22,
                dma_transfers: 33,
                dma_bytes: 44,
                wram_rows: 55,
            }
        );
    }

    #[test]
    fn imbalance_of_empty_launch_is_one() {
        assert_eq!(LaunchReport::default().imbalance(), 1.0);
    }

    #[test]
    fn dpu_counters_fold_launches_and_occupancy() {
        let stats = DpuRunStats {
            cycles: Cycles(100),
            fill_cycles: Cycles(0),
            totals: TaskletStats {
                instrs: 30,
                dma_cycles: 0,
                dma_engine_cycles: 0,
                dma_transfers: 4,
                dma_bytes: 256,
                wram_rows: 7,
            },
            per_tasklet: vec![
                TaskletStats {
                    instrs: 20,
                    ..TaskletStats::default()
                },
                TaskletStats {
                    instrs: 10,
                    ..TaskletStats::default()
                },
                TaskletStats::default(), // idle tasklet
            ],
            energy_pj: 0.0,
        };
        assert_eq!(stats.busy_tasklets(), 2);
        assert!((stats.tasklet_occupancy() - 2.0 / 3.0).abs() < 1e-12);

        let mut cell = DpuCounters::default();
        assert_eq!(cell.occupancy(), 0.0);
        cell.record(&stats);
        cell.record(&stats);
        assert_eq!(cell.launches, 2);
        assert_eq!(cell.cycles, 200);
        assert_eq!(cell.instrs, 60);
        assert_eq!(cell.dma_transfers, 8);
        assert_eq!(cell.dma_bytes, 512);
        assert_eq!(cell.wram_rows, 14);
        assert_eq!(cell.busy_tasklets, 4);
        assert_eq!(cell.tasklet_slots, 6);
        assert!((cell.occupancy() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mk = |c: u64| DpuRunStats {
            cycles: Cycles(c),
            ..Default::default()
        };
        let r = LaunchReport {
            wall_cycles: Cycles(300),
            wall: Ps::ZERO,
            per_dpu: vec![(DpuId(0), mk(100)), (DpuId(1), mk(300))],
            energy_pj: 0.0,
        };
        assert!((r.imbalance() - 1.5).abs() < 1e-12);
    }
}
