//! One DPU: tasklets, pipeline timing and kernel execution.
//!
//! Kernels are ordinary Rust values implementing [`Kernel`]. The
//! simulator interprets such a kernel tasklet by tasklet, running each
//! tasklet's body sequentially (for determinism), but *accounts* time
//! as the hardware would execute them concurrently:
//!
//! * the 11-deep single-issue pipeline retires at most one instruction
//!   per cycle across all tasklets, and a lone tasklet can only issue one
//!   instruction every 11 cycles;
//! * the MRAM DMA engine serializes transfers, overlapping them with
//!   other tasklets' compute;
//! * the modeled launch time is the maximum of the pipeline bound, the
//!   DMA bound, and the slowest single tasklet's serial critical path.
//!
//! A launch has up to three barrier-separated phases — *fill*
//! ([`Kernel::prepare`]), the body ([`Kernel::run`]) and
//! [`Kernel::finalize`] — whose times add up. WRAM is not cleared
//! between launches (`dpu_launch` does not reload it on hardware
//! either), so what a fill phase copies into the shared region stays
//! there for later launches to read.
//!
//! The accounting needs only each tasklet's counters, not the
//! interpretation that usually produces them. A program whose counters
//! are a closed form of its input implements [`DpuProgram`] instead: it
//! gets the whole DPU once per launch ([`DpuPass`]), computes its result
//! in one pass and reports what every tasklet would have been charged.
//! Every [`Kernel`] is a [`DpuProgram`] through the tasklet interpreter.

use crate::arch::{Cycles, DpuId, MAX_TASKLETS, PIPELINE_DEPTH, WRAM_CAPACITY};
use crate::cost::{CostModel, CostTable};
use crate::error::{Result, SimError};
use crate::mem::{Mram, Wram};
use crate::stats::{DpuRunStats, TaskletStats};

/// A DPU-side program.
///
/// One kernel value is shared by every tasklet of every launched DPU; the
/// per-tasklet entry point receives a [`TaskletCtx`] identifying which
/// DPU/tasklet is running and mediating all memory access and cycle
/// charging. Kernel *results* belong in MRAM/WRAM.
pub trait Kernel {
    /// Bytes of WRAM reserved as a region shared by all tasklets of a
    /// DPU (e.g. a software row cache). The remainder of WRAM is the
    /// tasklets' private WRAM, which a launch only accounts for
    /// ([`Kernel::tasklet_wram_bytes`]).
    fn shared_wram_bytes(&self) -> usize {
        0
    }

    /// Private WRAM every tasklet of this kernel needs (staging
    /// buffers, stack); the launch fails when the shared region leaves
    /// a tasklet less.
    fn tasklet_wram_bytes(&self) -> usize {
        1
    }

    /// Optional fill phase, executed by every tasklet before any
    /// tasklet enters [`Kernel::run`]: where a kernel brings the shared
    /// WRAM region up to date (it persists across launches, so most
    /// launches find it so and charge nothing). Fill cycle costs are
    /// accounted on their own ([`DpuRunStats::fill_cycles`]) and added
    /// to the launch. The default does nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::run`].
    fn prepare(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
        let _ = ctx;
        Ok(())
    }

    /// Runs the kernel body for one tasklet (phase 1).
    ///
    /// # Errors
    ///
    /// Implementations should propagate [`SimError`]s from context
    /// operations and may return [`SimError::KernelFault`] for their own
    /// failures.
    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()>;

    /// Optional second phase, executed after *every* tasklet finished
    /// [`Kernel::run`] — the simulator's equivalent of a hardware
    /// barrier (`barrier_wait` in the UPMEM SDK). Phase-2 cycle costs
    /// are accounted on top of phase 1. The default does nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::run`].
    fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
        let _ = ctx;
        Ok(())
    }
}

/// A DPU-side program launched one whole DPU at a time.
///
/// Where a [`Kernel`] is called once per tasklet and charged as it
/// goes, a `DpuProgram` is called once per launched DPU with a
/// [`DpuPass`]: it reads and writes the DPU's MRAM directly and fills
/// in the counters each tasklet of the modeled program would have
/// accumulated, phase by phase. The simulator turns those counters into
/// a launch time exactly as it does the interpreter's, so a program and
/// a kernel that report equal counters are indistinguishable in modeled
/// time. Every [`Kernel`] is a `DpuProgram` whose pass is the tasklet
/// interpreter.
///
/// A program may keep reusable buffers behind interior mutability, as
/// long as what they hold only shortens the way to the result a fresh
/// pass computes: the order in which DPUs run must not reach the
/// report.
pub trait DpuProgram {
    /// Bytes of WRAM the modeled program reserves as a region shared by
    /// all tasklets; the launch fails unless every tasklet is left its
    /// [`DpuProgram::tasklet_wram_bytes`] beside it.
    fn shared_wram_bytes(&self) -> usize {
        0
    }

    /// Private WRAM every tasklet of the modeled program needs.
    fn tasklet_wram_bytes(&self) -> usize {
        1
    }

    /// Runs the program on one DPU.
    ///
    /// # Errors
    ///
    /// Whatever fails the launch on this DPU: memory-rule violations as
    /// the [`SimError`] the DMA engine would raise,
    /// [`SimError::KernelFault`] for the program's own failures.
    fn run_dpu(&self, pass: &mut DpuPass<'_>) -> Result<()>;
}

impl<K: Kernel + ?Sized> DpuProgram for K {
    fn shared_wram_bytes(&self) -> usize {
        Kernel::shared_wram_bytes(self)
    }

    fn tasklet_wram_bytes(&self) -> usize {
        Kernel::tasklet_wram_bytes(self)
    }

    fn run_dpu(&self, pass: &mut DpuPass<'_>) -> Result<()> {
        pass.interpret(self)
    }
}

/// Barrier phases of a launch: fill, body, finalize.
const PHASES: usize = 3;

/// One launched DPU, handed to a [`DpuProgram`]: its memories, the
/// launch's tasklet count and cost tables, and the per-tasklet counters
/// of the three barrier phases (all zero on entry).
#[derive(Debug)]
pub struct DpuPass<'a> {
    dpu: DpuId,
    n_tasklets: usize,
    mram: &'a mut Mram,
    wram: &'a mut Wram,
    shared_len: usize,
    costs: &'a CostTable,
    /// Fill, phase-1 and phase-2 counters, `n_tasklets` entries each.
    stats: [&'a mut [TaskletStats]; PHASES],
}

impl<'a> DpuPass<'a> {
    /// The DPU being launched.
    #[inline]
    pub fn dpu_id(&self) -> DpuId {
        self.dpu
    }

    /// Number of tasklets in the launch.
    #[inline]
    pub fn n_tasklets(&self) -> usize {
        self.n_tasklets
    }

    /// The launch's cost tables, for charging into
    /// [`DpuPass::stats_mut`].
    #[inline]
    pub fn costs(&self) -> &'a CostTable {
        self.costs
    }

    /// The DPU's MRAM bank.
    #[inline]
    pub fn mram(&mut self) -> &mut Mram {
        self.mram
    }

    /// What a fill phase works on: the MRAM bank, the WRAM region
    /// shared by all tasklets ([`DpuProgram::shared_wram_bytes`] long,
    /// as earlier launches left it), and the per-tasklet counters of
    /// the phase, which ends at a barrier before phase 1 — all at once,
    /// for a charged copy between the memories. A program that fills
    /// nothing leaves the counters zero.
    #[inline]
    pub fn fill_phase(&mut self) -> (&mut Mram, &mut [u8], &mut [TaskletStats]) {
        let shared = self
            .wram
            .slice_mut(0, self.shared_len)
            .expect("the launch checked the shared region against WRAM");
        (self.mram, shared, self.stats[0])
    }

    /// Per-tasklet counters of phase 1 and of phase 2 (after the
    /// barrier), `n_tasklets` entries each. A single-phase program
    /// leaves the second slice zero.
    #[inline]
    pub fn stats_mut(&mut self) -> (&mut [TaskletStats], &mut [TaskletStats]) {
        let [_, phase1, phase2] = &mut self.stats;
        (phase1, phase2)
    }

    /// The tasklet interpreter: runs `kernel` tasklet by tasklet, phase
    /// by phase, collecting what each tasklet charged.
    fn interpret<K: Kernel + ?Sized>(&mut self, kernel: &K) -> Result<()> {
        // Tasklets run sequentially, so re-borrowing the shared WRAM
        // region per tasklet is safe and keeps its contents visible
        // across tasklets. A phase starts only after every tasklet
        // completed the one before — the hardware barrier.
        let n_tasklets = self.n_tasklets;
        for (phase, stats) in self.stats.iter_mut().enumerate() {
            for (t, slot) in stats.iter_mut().enumerate() {
                let mut ctx = TaskletCtx {
                    dpu: self.dpu,
                    tasklet: t,
                    n_tasklets,
                    mram: self.mram,
                    shared: self.wram.slice_mut(0, self.shared_len)?,
                    charges: Charges {
                        costs: self.costs,
                        stats: TaskletStats::default(),
                    },
                };
                match phase {
                    0 => kernel.prepare(&mut ctx)?,
                    1 => kernel.run(&mut ctx)?,
                    _ => kernel.finalize(&mut ctx)?,
                }
                *slot = ctx.charges.stats;
            }
        }
        Ok(())
    }
}

/// Execution context handed to a kernel for one tasklet.
///
/// All MRAM traffic and explicit instruction charges flow through this
/// context; the DPU aggregates the per-tasklet counters into a launch
/// time after every tasklet has run.
#[derive(Debug)]
pub struct TaskletCtx<'a> {
    dpu: DpuId,
    tasklet: usize,
    n_tasklets: usize,
    mram: &'a mut Mram,
    shared: &'a mut [u8],
    charges: Charges<'a>,
}

/// The cycle/DMA counters of one tasklet, reached through
/// [`TaskletCtx::charges`]. Each method takes a repeat count where
/// kernels charge in bulk: a single charge is the `n = 1` case. The
/// curves come from the launch's [`CostTable`], the same one a
/// [`DpuProgram`] charges from.
#[derive(Debug)]
pub struct Charges<'a> {
    costs: &'a CostTable,
    stats: TaskletStats,
}

impl Charges<'_> {
    /// Charges `n` identical DMA transfers of `len` bytes each
    /// ([`CostTable::charge_dma`]).
    #[inline]
    pub fn charge_dma(&mut self, len: usize, n: u64) {
        self.costs.charge_dma(&mut self.stats, len, n);
    }

    /// Charges `n` row operands read from the WRAM-resident block
    /// ([`CostTable::charge_wram_rows`]).
    #[inline]
    pub fn charge_wram_rows(&mut self, n: u64) {
        self.costs.charge_wram_rows(&mut self.stats, n);
    }

    /// Charges `n` generic pipeline instructions (1 cycle slots each).
    #[inline]
    pub fn charge_instrs(&mut self, n: u64) {
        self.stats.instrs += n;
    }

    /// Charges `n` native 32-bit integer ALU operations.
    #[inline]
    pub fn charge_int_ops(&mut self, n: u64) {
        self.stats.instrs += n * self.costs.model().int_op_cycles;
    }

    /// Charges `n` software-emulated fp32 additions (the DPU has no FPU).
    #[inline]
    pub fn charge_fp32_adds(&mut self, n: u64) {
        self.stats.instrs += n * self.costs.model().fp32_add_cycles;
    }

    /// Charges `n` vector-accumulates of `n_elems` elements each: a
    /// fixed parse/address/branch cost plus packed-add work (two 32-bit
    /// lanes per instruction — embedding accumulation uses the DPU's
    /// native 64-bit integer path on fixed-point lanes).
    #[inline]
    pub fn charge_accumulate(&mut self, n_elems: u64, n: u64) {
        self.stats.instrs += n * self.costs.accumulate_instrs(false, n_elems);
    }

    /// Charges `n` *dequantizing* vector-accumulates of `n_elems`
    /// quantized-u8 elements each: same fixed cost as
    /// [`Charges::charge_accumulate`], but the per-element slope is
    /// [`CostModel::accumulate_per_elem_instrs_u8`](crate::CostModel::accumulate_per_elem_instrs_u8)
    /// — eight 8-bit lanes unpack per 64-bit load, so the fused
    /// dequantize-accumulate loop retires fewer instructions per
    /// element than the fp32 path.
    #[inline]
    pub fn charge_accumulate_u8(&mut self, n_elems: u64, n: u64) {
        self.stats.instrs += n * self.costs.accumulate_instrs(true, n_elems);
    }

    /// Charges loop bookkeeping for `iters` iterations of an
    /// embedding-style loop (address computation, compare, branch).
    #[inline]
    pub fn charge_loop(&mut self, iters: u64) {
        self.stats.instrs += iters * self.costs.model().loop_overhead_instrs;
    }
}

impl<'a> TaskletCtx<'a> {
    /// The DPU this tasklet runs on.
    #[inline]
    pub fn dpu_id(&self) -> DpuId {
        self.dpu
    }

    /// This tasklet's index in `0..n_tasklets`.
    #[inline]
    pub fn tasklet_id(&self) -> usize {
        self.tasklet
    }

    /// Number of tasklets in the launch.
    #[inline]
    pub fn n_tasklets(&self) -> usize {
        self.n_tasklets
    }

    /// DMA read from MRAM into a caller buffer, charging DMA latency.
    ///
    /// # Errors
    ///
    /// Propagates alignment/size/bounds violations from [`Mram`].
    #[inline]
    pub fn mram_read(&mut self, addr: u32, buf: &mut [u8]) -> Result<()> {
        self.mram.dma_read(addr, buf)?;
        self.charges.charge_dma(buf.len(), 1);
        Ok(())
    }

    /// DMA write from a caller buffer into MRAM, charging DMA latency.
    ///
    /// # Errors
    ///
    /// Propagates alignment/size/bounds violations from [`Mram`].
    #[inline]
    pub fn mram_write(&mut self, addr: u32, buf: &[u8]) -> Result<()> {
        self.mram.dma_write(addr, buf)?;
        self.charges.charge_dma(buf.len(), 1);
        Ok(())
    }

    /// The cycle/DMA counters of this tasklet: every explicit charge a
    /// kernel makes goes through here.
    #[inline]
    pub fn charges(&mut self) -> &mut Charges<'a> {
        &mut self.charges
    }

    /// The WRAM region shared by all tasklets of this DPU.
    #[inline]
    pub fn shared_wram(&mut self) -> &mut [u8] {
        self.shared
    }
}

/// One simulated DPU: 64 MB MRAM + 64 KB WRAM plus launch accounting.
#[derive(Debug)]
pub struct Dpu {
    id: DpuId,
    mram: Mram,
    wram: Wram,
}

impl Dpu {
    /// Creates a DPU with empty memories.
    pub fn new(id: DpuId) -> Self {
        Dpu {
            id,
            mram: Mram::new(),
            wram: Wram::new(),
        }
    }

    /// This DPU's identifier.
    pub fn id(&self) -> DpuId {
        self.id
    }

    /// Immutable access to the MRAM bank (host-side use).
    pub fn mram(&self) -> &Mram {
        &self.mram
    }

    /// Mutable access to the MRAM bank (host-side use).
    pub fn mram_mut(&mut self) -> &mut Mram {
        &mut self.mram
    }

    /// Runs `program` with `n_tasklets` tasklets and returns the modeled
    /// launch statistics.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] if `n_tasklets` is 0 or exceeds
    ///   [`MAX_TASKLETS`].
    /// * [`SimError::WramExhausted`] if the program's shared region
    ///   leaves a tasklet less than the private WRAM it declares.
    /// * Any error returned by the program.
    pub fn launch<P: DpuProgram + ?Sized>(
        &mut self,
        program: &P,
        n_tasklets: usize,
        costs: &CostTable,
    ) -> Result<DpuRunStats> {
        let mut out = DpuRunStats::default();
        self.launch_into(program, n_tasklets, costs, &mut out)?;
        Ok(out)
    }

    /// Like [`Dpu::launch`], but writes the statistics into a
    /// caller-owned `out`, reusing its `per_tasklet` capacity. The
    /// steady-state serving path calls this once per DPU per batch; with
    /// a warm `out` it performs no heap allocation (per-tasklet phase
    /// counters live on the stack, sized by [`MAX_TASKLETS`]).
    ///
    /// On error `out` is left in an unspecified (but valid) state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dpu::launch`].
    pub fn launch_into<P: DpuProgram + ?Sized>(
        &mut self,
        program: &P,
        n_tasklets: usize,
        costs: &CostTable,
        out: &mut DpuRunStats,
    ) -> Result<()> {
        if n_tasklets == 0 || n_tasklets > MAX_TASKLETS {
            return Err(SimError::InvalidConfig(format!(
                "tasklets must be in 1..={MAX_TASKLETS}, got {n_tasklets}"
            )));
        }
        let shared_len = program.shared_wram_bytes();
        if shared_len >= WRAM_CAPACITY {
            return Err(SimError::WramExhausted {
                requested: shared_len,
                available: WRAM_CAPACITY,
            });
        }
        let tasklet_len = program.tasklet_wram_bytes().max(1);
        if (WRAM_CAPACITY - shared_len) / n_tasklets < tasklet_len {
            return Err(SimError::WramExhausted {
                requested: shared_len + n_tasklets * tasklet_len,
                available: WRAM_CAPACITY,
            });
        }

        let mut stats = [[TaskletStats::default(); MAX_TASKLETS]; PHASES];
        let [fill, phase1, phase2] = &mut stats;
        program.run_dpu(&mut DpuPass {
            dpu: self.id,
            n_tasklets,
            mram: &mut self.mram,
            wram: &mut self.wram,
            shared_len,
            costs,
            stats: [
                &mut fill[..n_tasklets],
                &mut phase1[..n_tasklets],
                &mut phase2[..n_tasklets],
            ],
        })?;

        // The barriers mean phase times add up; the launch overhead is
        // charged once. A phase nobody charged accounts to zero.
        let cost = costs.model();
        let p0 = Self::account(&fill[..n_tasklets], cost, 0);
        let p1 = Self::account(&phase1[..n_tasklets], cost, cost.launch_overhead_cycles);
        let p2 = Self::account(&phase2[..n_tasklets], cost, 0);
        out.fill_cycles = p0.cycles;
        out.cycles = p0.cycles + p1.cycles + p2.cycles;
        out.totals = p0.totals;
        out.totals.merge(&p1.totals);
        out.totals.merge(&p2.totals);
        out.per_tasklet.clear();
        out.per_tasklet.extend_from_slice(&phase1[..n_tasklets]);
        for (a, (f, b)) in out
            .per_tasklet
            .iter_mut()
            .zip(fill.iter().zip(&phase2[..n_tasklets]))
        {
            a.merge(f);
            a.merge(b);
        }
        out.energy_pj = p0.energy_pj + p1.energy_pj + p2.energy_pj;
        Ok(())
    }

    /// Aggregates one phase's per-tasklet counters into a modeled time,
    /// `overhead_cycles` of fixed launch cost included.
    fn account(
        per_tasklet: &[TaskletStats],
        cost: &CostModel,
        overhead_cycles: u64,
    ) -> PhaseAccount {
        let mut totals = TaskletStats::default();
        for t in per_tasklet {
            totals.merge(t);
        }
        // Bound 1: pipeline throughput — one instruction per cycle total.
        let pipeline_bound = totals.instrs;
        // Bound 2: MRAM DMA engine — transfers serialize, but setup
        // latency overlaps across queued transfers (occupancy view).
        let dma_bound = totals.dma_engine_cycles;
        // Bound 3: slowest tasklet's serial path — a lone tasklet issues
        // one instruction every PIPELINE_DEPTH cycles and waits for its
        // own DMAs.
        let serial_bound = per_tasklet
            .iter()
            .map(|t| t.instrs * PIPELINE_DEPTH + t.dma_cycles)
            .max()
            .unwrap_or(0);
        let cycles = Cycles(
            pipeline_bound
                .max(dma_bound)
                .max(serial_bound)
                .saturating_add(overhead_cycles),
        );
        let energy_pj =
            totals.instrs as f64 * cost.instr_pj + totals.dma_bytes as f64 * cost.dma_pj_per_byte;
        PhaseAccount {
            cycles,
            totals,
            energy_pj,
        }
    }
}

/// Aggregated counters for one barrier phase of a launch.
struct PhaseAccount {
    cycles: Cycles,
    totals: TaskletStats,
    energy_pj: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel that reads `reads` rows of `row_bytes` each and charges a
    /// fixed amount of compute per read.
    struct ReadLoop {
        reads: u32,
        row_bytes: usize,
        instrs_per_read: u64,
    }

    impl Kernel for ReadLoop {
        fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
            let per = self.reads as usize / ctx.n_tasklets();
            let mut buf = vec![0u8; self.row_bytes];
            for i in 0..per {
                ctx.mram_read((i * self.row_bytes) as u32 & !7, &mut buf)?;
                ctx.charges().charge_instrs(self.instrs_per_read);
            }
            Ok(())
        }
    }

    #[test]
    fn launch_rejects_bad_tasklet_count() {
        let mut d = Dpu::new(DpuId(0));
        let k = ReadLoop {
            reads: 0,
            row_bytes: 8,
            instrs_per_read: 1,
        };
        let costs = CostTable::new(&CostModel::default());
        assert!(d.launch(&k, 0, &costs).is_err());
        assert!(d.launch(&k, MAX_TASKLETS + 1, &costs).is_err());
    }

    #[test]
    fn more_tasklets_hide_dma_latency() {
        // With 1 tasklet every DMA is exposed serially; with 14 the DMA
        // engine bound (sum of transfer costs) dominates, which is lower
        // than the serial bound because compute overlaps.
        let cost = CostTable::new(&CostModel::default());
        let k = ReadLoop {
            reads: 1400,
            row_bytes: 64,
            instrs_per_read: 40,
        };
        let mut d1 = Dpu::new(DpuId(0));
        let s1 = d1.launch(&k, 1, &cost).unwrap();
        let mut d14 = Dpu::new(DpuId(1));
        let s14 = d14.launch(&k, 14, &cost).unwrap();
        assert!(
            s14.cycles.0 * 3 < s1.cycles.0,
            "14 tasklets should be much faster: {} vs {}",
            s14.cycles,
            s1.cycles
        );
    }

    #[test]
    fn accounting_uses_max_of_bounds() {
        let cost = CostModel::default();
        // Compute-heavy kernel: pipeline bound dominates.
        let heavy = vec![
            TaskletStats {
                instrs: 10_000,
                dma_cycles: 10,
                ..Default::default()
            };
            14
        ];
        let s = Dpu::account(&heavy, &cost, 0);
        assert_eq!(s.cycles.0, 14 * 10_000);
        // DMA-heavy kernel: DMA engine occupancy bound dominates.
        let dma = vec![
            TaskletStats {
                instrs: 10,
                dma_cycles: 12_000,
                dma_engine_cycles: 10_000,
                ..Default::default()
            };
            14
        ];
        let s = Dpu::account(&dma, &cost, 0);
        assert_eq!(s.cycles.0, 14 * 10_000);
        // Single tasklet: serial bound dominates.
        let single = vec![TaskletStats {
            instrs: 1_000,
            dma_cycles: 5_000,
            ..Default::default()
        }];
        let s = Dpu::account(&single, &cost, 0);
        assert_eq!(s.cycles.0, 1_000 * PIPELINE_DEPTH + 5_000);
    }

    #[test]
    fn kernel_results_are_functional() {
        // Data written by the host is what the kernel reads back.
        struct Sum8 {
            expect: [u8; 8],
        }
        impl Kernel for Sum8 {
            fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
                if ctx.tasklet_id() != 0 {
                    return Ok(());
                }
                let mut buf = [0u8; 8];
                ctx.mram_read(0, &mut buf)?;
                if buf != self.expect {
                    return Err(SimError::KernelFault("mismatch".into()));
                }
                Ok(())
            }
        }
        let mut d = Dpu::new(DpuId(3));
        d.mram_mut()
            .host_write(0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        let k = Sum8 {
            expect: [1, 2, 3, 4, 5, 6, 7, 8],
        };
        d.launch(&k, 2, &CostTable::new(&CostModel::default()))
            .unwrap();
    }

    /// The launch accounting sees only counters: a whole-DPU program
    /// that reports what a two-phase kernel's tasklets are charged, and
    /// writes what they write, is that kernel to the simulator.
    #[test]
    fn a_program_reporting_a_kernels_counters_gets_its_launch_stats() {
        struct TwoPhase;
        impl Kernel for TwoPhase {
            fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
                let mut buf = [0u8; 64];
                ctx.mram_read(0, &mut buf)?;
                ctx.charges().charge_accumulate(16, 2);
                let t = ctx.tasklet_id() as u64;
                ctx.charges().charge_instrs(10 + t);
                Ok(())
            }
            fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
                let t = ctx.tasklet_id();
                ctx.mram_write(1024 + 8 * t as u32, &[t as u8; 8])?;
                ctx.charges().charge_loop(1);
                Ok(())
            }
        }
        struct ClosedForm;
        impl DpuProgram for ClosedForm {
            fn run_dpu(&self, pass: &mut DpuPass<'_>) -> Result<()> {
                let costs = pass.costs();
                let n_tasklets = pass.n_tasklets();
                let bank = pass.mram().committed_mut(1024 + 8 * n_tasklets);
                for t in 0..n_tasklets {
                    bank[1024 + 8 * t..][..8].fill(t as u8);
                }
                let (phase1, phase2) = pass.stats_mut();
                for (t, (p1, p2)) in phase1.iter_mut().zip(phase2).enumerate() {
                    costs.charge_dma(p1, 64, 1);
                    p1.instrs += 2 * costs.accumulate_instrs(false, 16) + 10 + t as u64;
                    costs.charge_dma(p2, 8, 1);
                    p2.instrs += costs.model().loop_overhead_instrs;
                }
                Ok(())
            }
        }
        let costs = CostTable::new(&CostModel::default());
        for n_tasklets in [1, 5, 14] {
            let (mut a, mut b) = (Dpu::new(DpuId(0)), Dpu::new(DpuId(0)));
            let interpreted = a.launch(&TwoPhase, n_tasklets, &costs).unwrap();
            let reported = b.launch(&ClosedForm, n_tasklets, &costs).unwrap();
            assert_eq!(interpreted, reported, "{n_tasklets} tasklets");
            assert_eq!(
                interpreted.energy_pj.to_bits(),
                reported.energy_pj.to_bits()
            );
            let mut out = (vec![0u8; 8 * n_tasklets], vec![0u8; 8 * n_tasklets]);
            a.mram().host_read(1024, &mut out.0).unwrap();
            b.mram().host_read(1024, &mut out.1).unwrap();
            assert_eq!(out.0, out.1);
        }
    }

    #[test]
    fn shared_wram_persists_across_tasklets() {
        struct Chain;
        impl Kernel for Chain {
            fn shared_wram_bytes(&self) -> usize {
                8
            }
            fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
                let t = ctx.tasklet_id() as u8;
                let shared = ctx.shared_wram();
                if t == 0 {
                    shared[0] = 41;
                } else if shared[0] != 41 {
                    return Err(SimError::KernelFault("shared region lost".into()));
                }
                Ok(())
            }
        }
        let mut d = Dpu::new(DpuId(0));
        d.launch(&Chain, 4, &CostTable::new(&CostModel::default()))
            .unwrap();
    }

    #[test]
    fn shared_wram_cannot_consume_everything() {
        struct Greedy;
        impl Kernel for Greedy {
            fn shared_wram_bytes(&self) -> usize {
                WRAM_CAPACITY
            }
            fn run(&self, _ctx: &mut TaskletCtx<'_>) -> Result<()> {
                Ok(())
            }
        }
        let mut d = Dpu::new(DpuId(0));
        assert!(matches!(
            d.launch(&Greedy, 1, &CostTable::new(&CostModel::default())),
            Err(SimError::WramExhausted { .. })
        ));
    }

    /// A kernel that keeps the first 4 KB of MRAM resident in shared
    /// WRAM behind a one-byte tag: the fill phase copies it (two chunks,
    /// dealt over the tasklets) unless the tag is already there, and
    /// the body reads the resident bytes without a DMA.
    struct Resident;
    impl Kernel for Resident {
        fn shared_wram_bytes(&self) -> usize {
            8 + 4096
        }
        fn tasklet_wram_bytes(&self) -> usize {
            2048
        }
        fn prepare(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
            if ctx.shared_wram()[0] == 1 {
                return Ok(());
            }
            for chunk in (ctx.tasklet_id()..2).step_by(ctx.n_tasklets()) {
                let mut buf = [0u8; 2048];
                ctx.mram_read(2048 * chunk as u32, &mut buf)?;
                ctx.shared_wram()[8 + 2048 * chunk..][..2048].copy_from_slice(&buf);
            }
            // The interpreter runs tasklets in order: the last one sets
            // the tag, after every chunk has landed.
            if ctx.tasklet_id() + 1 == ctx.n_tasklets() {
                ctx.shared_wram()[0] = 1;
            }
            Ok(())
        }
        fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
            if ctx.shared_wram()[8 + 4095] != 0xAB {
                return Err(SimError::KernelFault("resident byte lost".into()));
            }
            ctx.charges().charge_wram_rows(1);
            Ok(())
        }
    }

    /// WRAM outlives a launch: the first launch pays the fill — its own
    /// phase, at least the DMA engine's time for the copied bytes — and
    /// the second finds the block in place and pays nothing.
    #[test]
    fn a_fill_is_charged_once_and_wram_persists_across_launches() {
        let model = CostModel::default();
        let costs = CostTable::new(&model);
        let mut d = Dpu::new(DpuId(0));
        let mut block = vec![0u8; 4096];
        block[4095] = 0xAB;
        d.mram_mut().host_write(0, &block).unwrap();
        let first = d.launch(&Resident, 2, &costs).unwrap();
        let second = d.launch(&Resident, 2, &costs).unwrap();
        // Two tasklets, one 2048-byte chunk each: the engine serializes
        // them (2 x 1040 cycles) and that outlasts one tasklet's serial
        // path (4 issue instructions + 1101 cycles of latency).
        assert_eq!(first.fill_cycles.0, model.bulk_rows_dma_cycles(2048, 2).0);
        assert!(first.fill_cycles.0 > 4 * PIPELINE_DEPTH + model.dma_cycles(2048).0);
        assert_eq!(first.cycles.0, second.cycles.0 + first.fill_cycles.0);
        assert_eq!(first.totals.dma_bytes, 4096);
        assert_eq!(second.fill_cycles, Cycles(0));
        assert_eq!(second.totals.dma_transfers, 0);
        assert_eq!(second.totals.wram_rows, 2);
        assert_eq!(second.per_tasklet[1].wram_rows, 1);
    }

    /// The shared region must leave every tasklet what the program
    /// declares it needs, not just a byte.
    #[test]
    fn a_shared_region_that_starves_the_tasklets_is_rejected() {
        let costs = CostTable::new(&CostModel::default());
        let mut d = Dpu::new(DpuId(0));
        // 8 + 4096 shared, 2048 per tasklet: 29 tasklets' worth of WRAM
        // is free, 24 fit; make the region large enough that they don't.
        struct Wide;
        impl Kernel for Wide {
            fn shared_wram_bytes(&self) -> usize {
                WRAM_CAPACITY - 2 * 2048 + 8
            }
            fn tasklet_wram_bytes(&self) -> usize {
                2048
            }
            fn run(&self, _ctx: &mut TaskletCtx<'_>) -> Result<()> {
                Ok(())
            }
        }
        d.launch(&Wide, 1, &costs).unwrap();
        assert_eq!(
            d.launch(&Wide, 2, &costs),
            Err(SimError::WramExhausted {
                requested: WRAM_CAPACITY - 2 * 2048 + 8 + 2 * 2048,
                available: WRAM_CAPACITY,
            })
        );
    }

    #[test]
    fn energy_scales_with_work() {
        let cost = CostTable::new(&CostModel::default());
        let small = ReadLoop {
            reads: 140,
            row_bytes: 32,
            instrs_per_read: 10,
        };
        let large = ReadLoop {
            reads: 1400,
            row_bytes: 32,
            instrs_per_read: 10,
        };
        let e_small = Dpu::new(DpuId(0))
            .launch(&small, 14, &cost)
            .unwrap()
            .energy_pj;
        let e_large = Dpu::new(DpuId(1))
            .launch(&large, 14, &cost)
            .unwrap()
            .energy_pj;
        assert!(e_large > e_small * 8.0);
    }
}
