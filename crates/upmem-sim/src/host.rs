//! Host-side view of the PIM system: DPU allocation, CPU⇄MRAM transfers
//! and kernel launches.
//!
//! The host CPU is the only communication path between DPUs (paper
//! §2.2) — the API deliberately offers no DPU-to-DPU copy. Transfer
//! timing follows the UPMEM rank rule: per-DPU buffers move in parallel
//! when they all have the same size and serialize otherwise.
//!
//! A kernel launch runs its DPUs one after another on the calling
//! thread; the hardware's overlap of them lives in modeled time, where
//! a launch's wall is the slowest DPU's — see [`PimSystem::launch`].

use crate::arch::{Cycles, DpuId, Ps};
use crate::cost::{CostModel, CostTable};
use crate::dpu::{Dpu, DpuProgram};
use crate::error::{Result, SimError};
use crate::stats::{DpuRunStats, LaunchReport, TransferReport};

/// Configuration for a [`PimSystem`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PimConfig {
    /// Number of DPUs in the system (the paper uses 256).
    pub nr_dpus: usize,
    /// Tasklets used per kernel launch (the paper uses 14).
    pub tasklets: usize,
    /// Timing/energy model.
    pub cost: CostModel,
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig::new(crate::arch::DEFAULT_NR_DPUS, crate::arch::DEFAULT_TASKLETS)
    }
}

impl PimConfig {
    /// Convenience constructor with default cost model.
    pub fn new(nr_dpus: usize, tasklets: usize) -> Self {
        PimConfig {
            nr_dpus,
            tasklets,
            cost: CostModel::default(),
        }
    }

    /// Returns `self` unchanged. Every launch runs on the calling
    /// thread, so there is no worker count to set; this stays only for
    /// callers written against the old knob.
    #[must_use]
    pub fn with_host_threads(self, _n: usize) -> Self {
        self
    }

    /// Returns `self` with the given timing/energy model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// A simulated UPMEM system: a pool of DPUs plus the host transfer engine.
#[derive(Debug)]
pub struct PimSystem {
    pub(crate) dpus: Vec<Dpu>,
    config: PimConfig,
    /// `config.cost` with its launch-path curves tabulated, built once
    /// here so no launch evaluates (or clones) the model.
    costs: CostTable,
}

impl PimSystem {
    /// Builds a system from `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the DPU or tasklet count is zero or
    /// the tasklet count exceeds the hardware maximum.
    pub fn new(config: PimConfig) -> Result<Self> {
        if config.nr_dpus == 0 {
            return Err(SimError::InvalidConfig("nr_dpus must be > 0".into()));
        }
        if config.tasklets == 0 || config.tasklets > crate::arch::MAX_TASKLETS {
            return Err(SimError::InvalidConfig(format!(
                "tasklets must be in 1..={}, got {}",
                crate::arch::MAX_TASKLETS,
                config.tasklets
            )));
        }
        config.cost.check_times().map_err(SimError::InvalidConfig)?;
        let dpus = (0..config.nr_dpus)
            .map(|i| Dpu::new(DpuId(i as u32)))
            .collect();
        let costs = CostTable::new(&config.cost);
        Ok(PimSystem {
            dpus,
            config,
            costs,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Number of DPUs.
    pub fn nr_dpus(&self) -> usize {
        self.dpus.len()
    }

    /// All DPU ids, in order.
    pub fn dpu_ids(&self) -> impl Iterator<Item = DpuId> + '_ {
        self.dpus.iter().map(|d| d.id())
    }

    /// Borrow one DPU.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDpu`] if `id` is out of range.
    pub fn dpu(&self, id: DpuId) -> Result<&Dpu> {
        self.dpus.get(id.index()).ok_or(SimError::UnknownDpu {
            id,
            nr_dpus: self.dpus.len(),
        })
    }

    /// Borrow one DPU mutably.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDpu`] if `id` is out of range.
    pub fn dpu_mut(&mut self, id: DpuId) -> Result<&mut Dpu> {
        let n = self.dpus.len();
        self.dpus
            .get_mut(id.index())
            .ok_or(SimError::UnknownDpu { id, nr_dpus: n })
    }

    /// Untimed host write into a DPU's MRAM — used for loading static
    /// data (embedding tables) during pre-processing, which the paper
    /// does not count toward inference latency.
    ///
    /// # Errors
    ///
    /// Propagates bounds/alignment errors and unknown DPU ids.
    pub fn load_mram(&mut self, id: DpuId, addr: u32, data: &[u8]) -> Result<()> {
        self.dpu_mut(id)?.mram_mut().host_write(addr, data)
    }

    /// [`PimSystem::load_mram`] without the staging buffer: the `len`
    /// bytes at `addr` of a DPU's MRAM, for the caller to serialize
    /// static data into directly. Untimed like `load_mram`.
    ///
    /// # Errors
    ///
    /// Propagates bounds/alignment errors and unknown DPU ids.
    pub fn load_mram_in_place(&mut self, id: DpuId, addr: u32, len: usize) -> Result<&mut [u8]> {
        self.dpu_mut(id)?.mram_mut().host_window_mut(addr, len)
    }

    /// Timed CPU→MRAM scatter: writes one buffer per `(dpu, addr, data)`
    /// triple (stage 1 of the UpDLRM pipeline).
    ///
    /// Timing: the host bus is shared, so the wall time is the *total*
    /// byte count over the aggregate bandwidth; when buffer sizes differ
    /// the transfers serialize at [`CostModel::ragged_bw_factor`] of the
    /// parallel bandwidth (paper §2.2).
    ///
    /// # Errors
    ///
    /// Propagates bounds/alignment errors and unknown DPU ids; the
    /// system state is unspecified-but-valid if a mid-scatter error
    /// occurs (earlier buffers stay written).
    pub fn scatter(&mut self, transfers: &[(DpuId, u32, &[u8])]) -> Result<TransferReport> {
        for (id, addr, data) in transfers {
            self.dpu_mut(*id)?.mram_mut().host_write(*addr, data)?;
        }
        Ok(self.time_transfer(transfers.iter().map(|(_, _, d)| d.len()), true))
    }

    /// Timed CPU→MRAM scatter where each buffer is *broadcast* to a set
    /// of DPUs. The rank interface replicates a broadcast buffer to all
    /// targets in one bus pass, so each group's bytes are charged once
    /// regardless of how many DPUs receive them (UpDLRM uses this to
    /// hand one row partition's reference stream to all of its column
    /// slices). The caller streams `(targets, addr, data)` groups
    /// without materializing a transfer list, so a warm serving path
    /// scatters with zero heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates bounds/alignment errors and unknown DPU ids.
    pub fn scatter_broadcast_with<'a, I>(&mut self, groups: I) -> Result<TransferReport>
    where
        I: Iterator<Item = (&'a [DpuId], u32, &'a [u8])> + Clone,
    {
        for (ids, addr, data) in groups.clone() {
            for id in ids {
                self.dpu_mut(*id)?.mram_mut().host_write(addr, data)?;
            }
        }
        Ok(self.time_transfer(groups.map(|(_, _, d)| d.len()), true))
    }

    /// Timed MRAM→CPU gather: reads `len` bytes at `addr` from each DPU
    /// (stage 3 of the UpDLRM pipeline). Returns one buffer per request
    /// in order.
    ///
    /// # Errors
    ///
    /// Propagates bounds/alignment errors and unknown DPU ids.
    pub fn gather(
        &self,
        requests: &[(DpuId, u32, usize)],
    ) -> Result<(Vec<Vec<u8>>, TransferReport)> {
        let mut out = Vec::with_capacity(requests.len());
        for (id, addr, len) in requests {
            let dpu = self.dpu(*id)?;
            let mut buf = vec![0u8; *len];
            dpu.mram().host_read(*addr, &mut buf)?;
            out.push(buf);
        }
        let report = self.time_transfer(requests.iter().map(|(_, _, l)| *l), false);
        Ok((out, report))
    }

    /// Like [`PimSystem::gather`], but concatenates every request's
    /// bytes into the caller-owned `out` (request `i`'s data starts at
    /// the sum of the preceding lengths). Reuses `out`'s capacity, so a
    /// warm serving path gathers with zero heap allocation. Timing is
    /// identical to [`PimSystem::gather`].
    ///
    /// # Errors
    ///
    /// Propagates bounds/alignment errors and unknown DPU ids; on error
    /// `out`'s contents are unspecified.
    pub fn gather_into(
        &self,
        requests: &[(DpuId, u32, usize)],
        out: &mut Vec<u8>,
    ) -> Result<TransferReport> {
        let total: usize = requests.iter().map(|(_, _, l)| *l).sum();
        out.clear();
        out.resize(total, 0);
        let mut off = 0usize;
        for (id, addr, len) in requests {
            let dpu = self.dpu(*id)?;
            dpu.mram().host_read(*addr, &mut out[off..off + len])?;
            off += len;
        }
        Ok(self.time_transfer(requests.iter().map(|(_, _, l)| *l), false))
    }

    fn time_transfer(
        &self,
        lens: impl Iterator<Item = usize> + Clone,
        to_mram: bool,
    ) -> TransferReport {
        let cost = &self.config.cost;
        let per_byte = if to_mram {
            cost.host_to_mram_ns_per_byte
        } else {
            cost.mram_to_host_ns_per_byte
        };
        let mut total: u64 = 0;
        let mut n = 0usize;
        let mut first: Option<usize> = None;
        let mut uniform = true;
        let mut max_len = 0usize;
        for len in lens {
            total += len as u64;
            n += 1;
            max_len = max_len.max(len);
            match first {
                None => first = Some(len),
                Some(f) if f != len => uniform = false,
                _ => {}
            }
        }
        if n == 0 {
            return TransferReport::default();
        }
        // Ragged transfers serialize at a degraded aggregate bandwidth
        // (§2.2 rank rule), but they can never complete faster than the
        // largest single buffer at full parallel bandwidth — that floor
        // is what `max_len` bounds. With the default `ragged_bw_factor`
        // (< 1) the serialized term always dominates, so the floor only
        // bites for calibrations where the factor exceeds 1.
        // The phase is priced in f64 ns and rounded to ps once, here.
        let wall_ns = if uniform {
            cost.host_transfer_base_ns + total as f64 * per_byte
        } else {
            let serialized = total as f64 * per_byte / cost.ragged_bw_factor;
            let parallel_floor = max_len as f64 * per_byte;
            cost.host_transfer_base_ns + serialized.max(parallel_floor)
        };
        TransferReport {
            wall: Ps::from_ns(wall_ns),
            bytes: total,
            buffers: n,
            parallel: uniform,
            energy_pj: total as f64 * cost.host_pj_per_byte,
        }
    }

    /// Launches `kernel` — a [`Kernel`](crate::dpu::Kernel), interpreted
    /// tasklet by tasklet, or any other [`DpuProgram`] — on the given
    /// DPUs with the configured tasklet count. The DPUs run one after
    /// another on the calling thread, in `ids` order, once per
    /// occurrence; in modeled time they run at once, so the report's
    /// wall time is the slowest DPU's and its energy the sum over
    /// `ids`.
    ///
    /// # Errors
    ///
    /// Propagates kernel faults and unknown DPU ids: the first DPU in
    /// `ids` that fails ends the launch with its error. As with a
    /// mid-scatter error, DPU memory state afterwards is
    /// unspecified-but-valid: the DPUs that ran before it keep their
    /// writes.
    pub fn launch<K: DpuProgram + ?Sized>(
        &mut self,
        ids: &[DpuId],
        kernel: &K,
    ) -> Result<LaunchReport> {
        let mut out = LaunchReport::default();
        self.launch_into(ids, kernel, &mut out)?;
        Ok(out)
    }

    /// Like [`PimSystem::launch`], but writes the report into a
    /// caller-owned `out`, reusing its `per_dpu` buffers (including each
    /// entry's per-tasklet vector). With a warm `out` a launch performs
    /// no heap allocation; the report is bit-identical to
    /// [`PimSystem::launch`] either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PimSystem::launch`]; on error `out` is left
    /// in an unspecified (but valid) state.
    pub fn launch_into<K: DpuProgram + ?Sized>(
        &mut self,
        ids: &[DpuId],
        kernel: &K,
        out: &mut LaunchReport,
    ) -> Result<()> {
        out.per_dpu
            .resize_with(ids.len(), || (DpuId(0), DpuRunStats::default()));
        let nr_dpus = self.dpus.len();
        for (&id, slot) in ids.iter().zip(out.per_dpu.iter_mut()) {
            slot.0 = id;
            let dpu = self
                .dpus
                .get_mut(id.index())
                .ok_or(SimError::UnknownDpu { id, nr_dpus })?;
            dpu.launch_into(kernel, self.config.tasklets, &self.costs, &mut slot.1)?;
        }
        let mut wall = Cycles::ZERO;
        let mut energy = 0.0;
        for (_, stats) in &out.per_dpu {
            wall = wall.max(stats.cycles);
            energy += stats.energy_pj;
        }
        out.wall_cycles = wall;
        out.wall = wall.to_ps(self.config.cost.clock_hz);
        out.energy_pj = energy;
        Ok(())
    }

    /// Launches `kernel` on *all* DPUs.
    ///
    /// # Errors
    ///
    /// Propagates kernel faults.
    pub fn launch_all<K: DpuProgram + ?Sized>(&mut self, kernel: &K) -> Result<LaunchReport> {
        let ids: Vec<DpuId> = self.dpu_ids().collect();
        self.launch(&ids, kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::{Kernel, TaskletCtx};

    struct Nop;
    impl Kernel for Nop {
        fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
            ctx.charges().charge_instrs(10);
            Ok(())
        }
    }

    #[test]
    fn rejects_zero_dpus() {
        assert!(PimSystem::new(PimConfig::new(0, 14)).is_err());
        assert!(PimSystem::new(PimConfig::new(4, 0)).is_err());
        assert!(PimSystem::new(PimConfig::new(4, 25)).is_err());
    }

    #[test]
    fn uniform_scatter_is_parallel_ragged_is_sequential() {
        let mut sys = PimSystem::new(PimConfig::new(4, 14)).unwrap();
        let buf = vec![0u8; 1024];
        let uniform: Vec<(DpuId, u32, &[u8])> =
            (0..4).map(|i| (DpuId(i), 0, buf.as_slice())).collect();
        let r_uniform = sys.scatter(&uniform).unwrap();
        assert!(r_uniform.parallel);

        let small = vec![0u8; 8];
        let ragged: Vec<(DpuId, u32, &[u8])> = vec![
            (DpuId(0), 0, buf.as_slice()),
            (DpuId(1), 0, buf.as_slice()),
            (DpuId(2), 0, buf.as_slice()),
            (DpuId(3), 0, small.as_slice()),
        ];
        let r_ragged = sys.scatter(&ragged).unwrap();
        assert!(!r_ragged.parallel);
        // Sequential 3*1024+8 bytes beats parallel max(1024) in bytes but
        // costs more time.
        assert!(r_ragged.wall > r_uniform.wall);
    }

    #[test]
    fn gather_returns_loaded_data() {
        let mut sys = PimSystem::new(PimConfig::new(2, 2)).unwrap();
        sys.load_mram(DpuId(0), 0, &[1u8; 16]).unwrap();
        sys.load_mram(DpuId(1), 0, &[2u8; 16]).unwrap();
        let (bufs, rep) = sys.gather(&[(DpuId(0), 0, 16), (DpuId(1), 0, 16)]).unwrap();
        assert_eq!(bufs[0], vec![1u8; 16]);
        assert_eq!(bufs[1], vec![2u8; 16]);
        assert!(rep.parallel);
        assert_eq!(rep.bytes, 32);
    }

    #[test]
    fn launch_wall_time_is_max_over_dpus() {
        struct Skewed;
        impl Kernel for Skewed {
            fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
                // dpu0 does 10x the work of dpu1.
                let w = if ctx.dpu_id() == DpuId(0) {
                    10_000
                } else {
                    1_000
                };
                ctx.charges().charge_instrs(w);
                Ok(())
            }
        }
        let mut sys = PimSystem::new(PimConfig::new(2, 14)).unwrap();
        let rep = sys.launch_all(&Skewed).unwrap();
        let c0 = rep.per_dpu[0].1.cycles;
        let c1 = rep.per_dpu[1].1.cycles;
        assert!(c0 > c1);
        assert_eq!(rep.wall_cycles, c0);
        assert!(rep.imbalance() > 1.5);
    }

    #[test]
    fn unknown_dpu_is_reported() {
        let mut sys = PimSystem::new(PimConfig::new(2, 2)).unwrap();
        assert!(matches!(
            sys.load_mram(DpuId(7), 0, &[0u8; 8]),
            Err(SimError::UnknownDpu { .. })
        ));
        assert!(matches!(
            sys.launch(&[DpuId(0), DpuId(9)], &Nop),
            Err(SimError::UnknownDpu {
                id: DpuId(9),
                nr_dpus: 2
            })
        ));
    }

    /// Uniform transfers pay total bytes at parallel bandwidth; ragged
    /// transfers pay total bytes at the degraded serialized bandwidth,
    /// floored by the largest single buffer at parallel bandwidth.
    #[test]
    fn transfer_timing_model_uniform_and_ragged() {
        // Default constants, in ps: a 2,500,000 phase base, 156 per byte
        // in parallel and 156 / 0.6 = 260 per byte ragged.
        let mut sys = PimSystem::new(PimConfig::new(4, 14)).unwrap();
        let big = vec![0u8; 1024];
        let small = vec![0u8; 8];

        let uniform: Vec<(DpuId, u32, &[u8])> =
            (0..4).map(|i| (DpuId(i), 0, big.as_slice())).collect();
        let r = sys.scatter(&uniform).unwrap();
        assert_eq!(r.wall, Ps(2_500_000 + 4096 * 156));

        let ragged: Vec<(DpuId, u32, &[u8])> = vec![
            (DpuId(0), 0, big.as_slice()),
            (DpuId(1), 0, small.as_slice()),
        ];
        let r = sys.scatter(&ragged).unwrap();
        assert_eq!(r.wall, Ps(2_500_000 + 1032 * 260));
    }

    /// With a (hypothetical) ragged bandwidth factor above 1 the
    /// serialized term can undercut physics; the max-buffer floor must
    /// bind: no schedule finishes before the largest buffer has moved.
    #[test]
    fn ragged_transfer_never_beats_largest_buffer() {
        let cost = CostModel {
            ragged_bw_factor: 100.0,
            ..CostModel::default()
        };
        let mut sys = PimSystem::new(PimConfig {
            nr_dpus: 2,
            cost,
            ..PimConfig::default()
        })
        .unwrap();
        let big = vec![0u8; 2048];
        let small = vec![0u8; 8];
        let ragged: Vec<(DpuId, u32, &[u8])> = vec![
            (DpuId(0), 0, big.as_slice()),
            (DpuId(1), 0, small.as_slice()),
        ];
        let r = sys.scatter(&ragged).unwrap();
        assert!(!r.parallel);
        assert_eq!(r.wall, Ps(2_500_000 + 2048 * 156));
    }

    /// A kernel whose per-DPU and per-tasklet work is deliberately
    /// skewed and DMA-heavy, to exercise every field of the report.
    struct SkewedWork;
    impl Kernel for SkewedWork {
        fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
            let id = ctx.dpu_id().0 as u64;
            let t = ctx.tasklet_id() as u64;
            let mut buf = [0u8; 64];
            for _ in 0..=(id % 7) {
                ctx.mram_read(((id * 64) % 4096) as u32 & !7, &mut buf)?;
            }
            ctx.charges().charge_instrs(100 + 37 * id + 11 * t);
            ctx.charges().charge_fp32_adds(id * 3);
            Ok(())
        }
        fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
            ctx.charges().charge_instrs(5);
            Ok(())
        }
    }

    /// A DPU's result does not depend on which DPUs launch beside it:
    /// a strict subset in scrambled order reports, in launch order, what
    /// a launch of every DPU reports for the same ids.
    #[test]
    fn parallel_subset_launch_matches_serial() {
        let ids = [DpuId(5), DpuId(0), DpuId(11), DpuId(3), DpuId(7)];
        let system = || PimSystem::new(PimConfig::new(12, 4)).unwrap();
        let subset = system().launch(&ids, &SkewedWork).unwrap();
        let all = system().launch_all(&SkewedWork).unwrap();
        let order: Vec<DpuId> = subset.per_dpu.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, ids, "per_dpu must stay in launch order");
        for (id, stats) in &subset.per_dpu {
            assert_eq!(stats, &all.per_dpu[id.index()].1, "{id:?}");
        }
    }

    /// A duplicate id runs its DPU once per occurrence, each run
    /// reported in its own launch position.
    #[test]
    fn duplicate_ids_fall_back_to_serial() {
        let ids = [DpuId(1), DpuId(0), DpuId(1)];
        let mut sys = PimSystem::new(PimConfig::new(2, 2)).unwrap();
        let rep = sys.launch(&ids, &SkewedWork).unwrap();
        let order: Vec<DpuId> = rep.per_dpu.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, ids);
        assert_eq!(rep.per_dpu[0].1, rep.per_dpu[2].1);
        let energy: f64 = rep.per_dpu.iter().map(|(_, s)| s.energy_pj).sum();
        assert_eq!(rep.energy_pj.to_bits(), energy.to_bits());
    }

    /// A fault on one DPU surfaces as that DPU's error and leaves the
    /// system usable: a subsequent healthy launch works.
    #[test]
    fn kernel_fault_does_not_poison_other_workers() {
        struct FaultOn3;
        impl Kernel for FaultOn3 {
            fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
                if ctx.dpu_id() == DpuId(3) && ctx.tasklet_id() == 0 {
                    return Err(SimError::KernelFault("dpu3 exploded".into()));
                }
                ctx.charges().charge_instrs(10);
                Ok(())
            }
        }
        let mut sys = PimSystem::new(PimConfig::new(8, 2)).unwrap();
        let err = sys.launch_all(&FaultOn3).unwrap_err();
        assert_eq!(err, SimError::KernelFault("dpu3 exploded".into()));
        let rep = sys.launch_all(&Nop).unwrap();
        assert_eq!(rep.per_dpu.len(), 8);
    }

    #[test]
    fn empty_transfer_report_is_zero() {
        let mut sys = PimSystem::new(PimConfig::new(1, 1)).unwrap();
        let rep = sys.scatter(&[]).unwrap();
        assert_eq!(rep.bytes, 0);
        assert_eq!(rep.wall, Ps::ZERO);
        let _ = sys.launch(&[], &Nop).unwrap();
    }
}
