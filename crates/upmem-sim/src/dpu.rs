//! One DPU: tasklets, pipeline timing and kernel execution.
//!
//! Kernels are ordinary Rust values implementing [`Kernel`]. The
//! simulator runs each tasklet's body sequentially (for determinism) but
//! *accounts* time as the hardware would execute them concurrently:
//!
//! * the 11-deep single-issue pipeline retires at most one instruction
//!   per cycle across all tasklets, and a lone tasklet can only issue one
//!   instruction every 11 cycles;
//! * the MRAM DMA engine serializes transfers, overlapping them with
//!   other tasklets' compute;
//! * the modeled launch time is the maximum of the pipeline bound, the
//!   DMA bound, and the slowest single tasklet's serial critical path.

use crate::arch::{Cycles, DpuId, MAX_TASKLETS, PIPELINE_DEPTH, WRAM_CAPACITY};
use crate::cost::CostModel;
use crate::error::{Result, SimError};
use crate::mem::{Mram, Wram};
use crate::stats::{DpuRunStats, TaskletStats};

/// A DPU-side program.
///
/// One kernel value is shared by every tasklet of every launched DPU; the
/// per-tasklet entry point receives a [`TaskletCtx`] identifying which
/// DPU/tasklet is running and mediating all memory access and cycle
/// charging.
///
/// `Sync` is a supertrait because the host may fan a launch out across
/// host threads (see `PimConfig::host_threads`), with every worker
/// reading the same kernel value concurrently. Kernels are plain data in
/// practice (per-DPU task tables built before the launch), so the bound
/// is free. Kernel *results* belong in MRAM/WRAM, but a kernel may own
/// reusable per-DPU scratch buffers behind thread-safe interior
/// mutability (e.g. a per-`DpuId` `Mutex`): all tasklets of one DPU run
/// on one host thread, and concurrent workers only ever touch different
/// DPUs' entries, so such locks are uncontended by construction.
pub trait Kernel: Sync {
    /// Bytes of WRAM reserved as a region shared by all tasklets of a
    /// DPU (e.g. a software row cache). The remainder of WRAM is split
    /// evenly into per-tasklet private regions.
    fn shared_wram_bytes(&self) -> usize {
        0
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
    local: &'a mut [u8],
    charges: Charges<'a>,
}

/// The cycle/DMA accounting half of a [`TaskletCtx`], separable from
/// the MRAM borrow via [`TaskletCtx::split_reader`] so a kernel can
/// hold zero-copy MRAM views *while* charging for the transfers they
/// stand for; [`TaskletCtx::charges`] reaches the same counters
/// without a split. Each method takes a repeat count where kernels
/// charge in bulk: a single charge is the `n = 1` case.
#[derive(Debug)]
pub struct Charges<'a> {
    cost: &'a CostModel,
    stats: TaskletStats,
    /// One-entry memo `(len, dma_cycles, dma_engine_cycles)` for the
    /// dominant same-size DMA charge: embedding kernels issue thousands
    /// of row-sized transfers per launch, and the f64 cost-curve
    /// evaluation would otherwise dwarf the counter update. `len = 0`
    /// is never charged (empty DMAs fault first), so it marks "empty".
    dma_memo: (usize, u64, u64),
    /// Same for vector accumulates of a fixed element count
    /// (`u64::MAX` marks "empty").
    acc_memo: (u64, u64),
    /// Memo for quantized-u8 accumulates, kept separate from
    /// [`Self::acc_memo`] so kernels mixing fp32 cache rows and int8
    /// EMT rows do not thrash a single entry.
    acc_u8_memo: (u64, u64),
}

impl<'a> Charges<'a> {
    fn new(cost: &'a CostModel) -> Self {
        Charges {
            cost,
            stats: TaskletStats::default(),
            dma_memo: (0, 0, 0),
            acc_memo: (u64::MAX, 0),
            acc_u8_memo: (u64::MAX, 0),
        }
    }

    /// Charges `n` identical DMA transfers of `len` bytes each. Every
    /// counter increment is an integer, so one multiplied charge equals
    /// `n` single charges exactly — a kernel whose inner loop issues
    /// only same-shaped transfers can hoist the charging out of the
    /// loop without moving modeled time.
    #[inline]
    pub fn charge_dma(&mut self, len: usize, n: u64) {
        if n == 0 {
            return;
        }
        if self.dma_memo.0 != len {
            self.dma_memo = (
                len,
                self.cost.dma_cycles(len).0,
                self.cost.dma_engine_cycles(len).0,
            );
        }
        self.stats.dma_cycles += n * self.dma_memo.1;
        self.stats.dma_engine_cycles += n * self.dma_memo.2;
        self.stats.dma_transfers += n;
        self.stats.dma_bytes += n * len as u64;
        // Issuing a DMA costs a few pipeline instructions (address setup).
        self.stats.instrs += n * 4 * self.cost.int_op_cycles;
    }

    /// Charges `n` generic pipeline instructions (1 cycle slots each).
    #[inline]
    pub fn charge_instrs(&mut self, n: u64) {
        self.stats.instrs += n;
    }

    /// Charges `n` native 32-bit integer ALU operations.
    #[inline]
    pub fn charge_int_ops(&mut self, n: u64) {
        self.stats.instrs += n * self.cost.int_op_cycles;
    }

    /// Charges `n` software-emulated fp32 additions (the DPU has no FPU).
    #[inline]
    pub fn charge_fp32_adds(&mut self, n: u64) {
        self.stats.instrs += n * self.cost.fp32_add_cycles;
    }

    /// Charges `n` vector-accumulates of `n_elems` elements each: a
    /// fixed parse/address/branch cost plus packed-add work (two 32-bit
    /// lanes per instruction — embedding accumulation uses the DPU's
    /// native 64-bit integer path on fixed-point lanes).
    #[inline]
    pub fn charge_accumulate(&mut self, n_elems: u64, n: u64) {
        self.accumulate(false, n_elems, n);
    }

    /// Charges `n` *dequantizing* vector-accumulates of `n_elems`
    /// quantized-u8 elements each: same fixed cost as
    /// [`Charges::charge_accumulate`], but the per-element slope is
    /// [`CostModel::accumulate_per_elem_instrs_u8`] — eight 8-bit lanes
    /// unpack per 64-bit load, so the fused dequantize-accumulate loop
    /// retires fewer instructions per element than the fp32 path.
    #[inline]
    pub fn charge_accumulate_u8(&mut self, n_elems: u64, n: u64) {
        self.accumulate(true, n_elems, n);
    }

    /// The accumulate formula, on fp32 or quantized-u8 lanes. `n = 0`
    /// leaves the memo alone: a tasklet that never accumulates never
    /// evaluates the curve.
    #[inline]
    fn accumulate(&mut self, u8_lanes: bool, n_elems: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (memo, slope) = if u8_lanes {
            (
                &mut self.acc_u8_memo,
                self.cost.accumulate_per_elem_instrs_u8,
            )
        } else {
            (&mut self.acc_memo, self.cost.accumulate_per_elem_instrs)
        };
        if memo.0 != n_elems {
            let work = (slope * n_elems as f64).round() as u64;
            *memo = (n_elems, self.cost.accumulate_base_instrs + work);
        }
        self.stats.instrs += n * memo.1;
    }

    /// Charges loop bookkeeping for `iters` iterations of an
    /// embedding-style loop (address computation, compare, branch).
    #[inline]
    pub fn charge_loop(&mut self, iters: u64) {
        self.stats.instrs += iters * self.cost.loop_overhead_instrs;
    }
}

/// Read-only zero-copy window over the committed prefix of one DPU's
/// MRAM bank, obtained from [`TaskletCtx::split_reader`]. Unlike the
/// context methods, views taken here stay alive across further reads
/// and across [`Charges`] calls — multiple immutable borrows coexist.
///
/// The reader spans `[0, end)` bytes fixed at split time; requests
/// beyond that error instead of zero-extending (use
/// [`TaskletCtx::mram_read`] for reads past the planned layout).
#[derive(Debug, Clone, Copy)]
pub struct MramReader<'a> {
    data: &'a [u8],
}

impl<'a> MramReader<'a> {
    /// Borrows one DMA transfer's window: same alignment and size rules
    /// as [`Mram::check_dma`]. Charging is the caller's job
    /// ([`Charges::charge_dma`] with the same `len`).
    ///
    /// # Errors
    ///
    /// Unaligned/oversized requests and requests past the reader's end.
    #[inline]
    pub fn dma(&self, addr: u32, len: usize) -> Result<&'a [u8]> {
        if len > crate::arch::DMA_MAX_TRANSFER {
            return Err(SimError::DmaTooLarge { len });
        }
        self.window(addr, len)
    }

    /// Borrows an aligned span that may exceed the single-transfer DMA
    /// limit — the backing store is contiguous, so a multi-chunk read
    /// needs only one borrow. The caller must charge the same chunk
    /// series the copying path would ([`Charges::charge_dma`] per
    /// `DMA_MAX_TRANSFER`-sized chunk).
    ///
    /// # Errors
    ///
    /// Unaligned requests and requests past the reader's end.
    #[inline]
    pub fn window(&self, addr: u32, len: usize) -> Result<&'a [u8]> {
        let start = addr as usize;
        if !start.is_multiple_of(crate::arch::DMA_ALIGN)
            || !len.is_multiple_of(crate::arch::DMA_ALIGN)
        {
            return Err(SimError::UnalignedDma { addr, len });
        }
        let end = start + len;
        if end > self.data.len() {
            return Err(SimError::MramOutOfBounds {
                addr,
                len,
                capacity: self.data.len(),
            });
        }
        Ok(&self.data[start..end])
    }

    /// Every committed byte this reader sees, for kernels that index
    /// fixed-stride rows directly: each row access then needs only a
    /// range check against this slice. Per-row charging stays the
    /// caller's job, as does checking the row shape against
    /// [`Mram::check_dma`].
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.data
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

    /// Splits this context into a read-only MRAM window over the first
    /// `end` bytes plus the charge counters — disjoint borrows, so a
    /// kernel can keep rows, reference streams and offset arrays
    /// borrowed from MRAM *simultaneously* while charging for the
    /// transfers they stand for. The bank is grown (with zeros) to
    /// `end` once up front, exactly like a read of never-written MRAM.
    ///
    /// A kernel using `dma`/`window` plus the matching `charge_dma`
    /// calls is indistinguishable in modeled time from one using
    /// [`TaskletCtx::mram_read`].
    #[inline]
    pub fn split_reader(&mut self, end: usize) -> (MramReader<'_>, &mut Charges<'a>) {
        let (mram, _, charges) = self.split_reader_shared(end);
        (mram, charges)
    }

    /// Like [`TaskletCtx::split_reader`], but also hands out the shared
    /// WRAM region — for barrier-phase kernels that accumulate borrowed
    /// MRAM rows directly into shared accumulators.
    #[inline]
    pub fn split_reader_shared(
        &mut self,
        end: usize,
    ) -> (MramReader<'_>, &mut [u8], &mut Charges<'a>) {
        (
            MramReader {
                data: self.mram.frozen(end),
            },
            self.shared,
            &mut self.charges,
        )
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

    /// Zero-copy DMA write: borrows a writable MRAM window so the
    /// kernel serializes its result in place, with identical validation
    /// and identical DMA charges to [`TaskletCtx::mram_write`] —
    /// modeled time cannot tell the two apart. The caller must fill
    /// the whole window (it is the bytes "transferred" by the DMA).
    ///
    /// # Errors
    ///
    /// Propagates alignment/size/bounds violations from [`Mram`].
    #[inline]
    pub fn mram_view_mut(&mut self, addr: u32, len: usize) -> Result<&mut [u8]> {
        Mram::check_dma(addr, len)?;
        self.charges.charge_dma(len, 1);
        self.mram.dma_view_mut(addr, len)
    }

    /// DMA write sourced from the shared-WRAM region: copies
    /// `len` bytes at `shared_off` straight into MRAM without the
    /// caller staging them in a private buffer first (the two regions
    /// live behind the same `&mut self`, so a plain
    /// [`TaskletCtx::mram_write`] would force that extra copy).
    /// Validation and charges are identical to `mram_write`.
    ///
    /// # Errors
    ///
    /// Propagates alignment/size/bounds violations from [`Mram`].
    #[inline]
    pub fn mram_write_from_shared(
        &mut self,
        addr: u32,
        shared_off: usize,
        len: usize,
    ) -> Result<()> {
        self.mram
            .dma_write(addr, &self.shared[shared_off..shared_off + len])?;
        self.charges.charge_dma(len, 1);
        Ok(())
    }

    /// The cycle/DMA counters of this tasklet: every explicit charge a
    /// kernel makes goes through here (the same [`Charges`] that
    /// [`TaskletCtx::split_reader`] hands out beside an MRAM window).
    #[inline]
    pub fn charges(&mut self) -> &mut Charges<'a> {
        &mut self.charges
    }

    /// The WRAM region shared by all tasklets of this DPU.
    #[inline]
    pub fn shared_wram(&mut self) -> &mut [u8] {
        self.shared
    }

    /// This tasklet's private WRAM region.
    #[inline]
    pub fn local_wram(&mut self) -> &mut [u8] {
        self.local
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

    /// Runs `kernel` with `n_tasklets` tasklets and returns the modeled
    /// launch statistics.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] if `n_tasklets` is 0 or exceeds
    ///   [`MAX_TASKLETS`].
    /// * [`SimError::WramExhausted`] if the kernel's shared region leaves
    ///   no per-tasklet WRAM.
    /// * Any error returned by the kernel body.
    pub fn launch<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        n_tasklets: usize,
        cost: &CostModel,
    ) -> Result<DpuRunStats> {
        let mut out = DpuRunStats::default();
        self.launch_into(kernel, n_tasklets, cost, &mut out)?;
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
    pub fn launch_into<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        n_tasklets: usize,
        cost: &CostModel,
        out: &mut DpuRunStats,
    ) -> Result<()> {
        if n_tasklets == 0 || n_tasklets > MAX_TASKLETS {
            return Err(SimError::InvalidConfig(format!(
                "tasklets must be in 1..={MAX_TASKLETS}, got {n_tasklets}"
            )));
        }
        let shared_len = kernel.shared_wram_bytes();
        if shared_len >= WRAM_CAPACITY {
            return Err(SimError::WramExhausted {
                requested: shared_len,
                available: WRAM_CAPACITY,
            });
        }
        let local_len = (WRAM_CAPACITY - shared_len) / n_tasklets;
        if local_len == 0 {
            return Err(SimError::WramExhausted {
                requested: shared_len + n_tasklets,
                available: WRAM_CAPACITY,
            });
        }

        // Split WRAM: [shared | t0 local | t1 local | ...]. Tasklets run
        // sequentially, so re-borrowing per tasklet is safe and keeps the
        // shared region's contents visible across tasklets. Phase 2
        // (`finalize`) starts only after every tasklet completed phase 1
        // — the hardware barrier.
        let mut phase1 = [TaskletStats::default(); MAX_TASKLETS];
        let mut phase2 = [TaskletStats::default(); MAX_TASKLETS];
        for (phase, stats) in [(0usize, &mut phase1), (1, &mut phase2)] {
            for (t, slot) in stats.iter_mut().enumerate().take(n_tasklets) {
                let (shared, rest) = self
                    .wram
                    .slice_mut(0, WRAM_CAPACITY)?
                    .split_at_mut(shared_len);
                let local = &mut rest[t * local_len..(t + 1) * local_len];
                let mut ctx = TaskletCtx {
                    dpu: self.id,
                    tasklet: t,
                    n_tasklets,
                    mram: &mut self.mram,
                    shared,
                    local,
                    charges: Charges::new(cost),
                };
                if phase == 0 {
                    kernel.run(&mut ctx)?;
                } else {
                    kernel.finalize(&mut ctx)?;
                }
                *slot = ctx.charges.stats;
            }
        }

        // The barrier means phase times add up; the launch overhead is
        // charged once.
        let p1 = Self::account(&phase1[..n_tasklets], cost, cost.launch_overhead_cycles);
        let p2 = Self::account(&phase2[..n_tasklets], cost, 0);
        out.cycles = p1.cycles + p2.cycles;
        out.totals = p1.totals;
        out.totals.merge(&p2.totals);
        out.per_tasklet.clear();
        out.per_tasklet.extend_from_slice(&phase1[..n_tasklets]);
        for (a, b) in out.per_tasklet.iter_mut().zip(&phase2[..n_tasklets]) {
            a.merge(b);
        }
        out.energy_pj = p1.energy_pj + p2.energy_pj;
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
        assert!(d.launch(&k, 0, &CostModel::default()).is_err());
        assert!(d
            .launch(&k, MAX_TASKLETS + 1, &CostModel::default())
            .is_err());
    }

    #[test]
    fn more_tasklets_hide_dma_latency() {
        // With 1 tasklet every DMA is exposed serially; with 14 the DMA
        // engine bound (sum of transfer costs) dominates, which is lower
        // than the serial bound because compute overlaps.
        let cost = CostModel::default();
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
        d.launch(&k, 2, &CostModel::default()).unwrap();
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
        d.launch(&Chain, 4, &CostModel::default()).unwrap();
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
            d.launch(&Greedy, 1, &CostModel::default()),
            Err(SimError::WramExhausted { .. })
        ));
    }

    #[test]
    fn energy_scales_with_work() {
        let cost = CostModel::default();
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
