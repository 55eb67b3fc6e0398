//! Calibrated timing and energy cost model.
//!
//! All latencies the simulator reports flow through this single struct so
//! that the model can be recalibrated (or ablated) in one place. Defaults
//! are calibrated to the published UPMEM characterization literature and
//! the shapes reported in the UpDLRM paper:
//!
//! * **MRAM DMA** — latency grows slowly from 8 B to 32 B and more steeply
//!   afterwards (paper Fig. 3). We model `base + slope · size` with a
//!   large fixed `base`, the shape measured by the PrIM benchmarks
//!   (~77 cycles setup + ~0.5 cycles/byte).
//! * **Pipeline** — single-issue, 11-deep; a lone tasklet issues one
//!   instruction every 11 cycles, 11+ tasklets reach 1 IPC.
//! * **Host transfers** — per-byte CPU⇄MRAM costs; transfers to multiple
//!   DPUs proceed in parallel only when every buffer has the same size
//!   (paper §2.2), otherwise they serialize.
//! * **WRAM** — scratchpad accesses complete within the pipeline, so an
//!   operand that is already WRAM-resident costs nothing beyond the
//!   instructions that consume it ([`CostTable::charge_wram_rows`]);
//!   what WRAM costs is its 64 KB, divided by [`WramBudget`].

use crate::arch::{
    Cycles, Ps, DEFAULT_CLOCK_HZ, DMA_ALIGN, DMA_MAX_TRANSFER, PIPELINE_DEPTH, WRAM_CAPACITY,
};
use crate::stats::TaskletStats;

/// Tunable cost model for one [`PimSystem`](crate::host::PimSystem).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostModel {
    /// DPU clock frequency in Hz.
    pub clock_hz: u64,
    /// Fixed cycles charged per MRAM DMA transfer (setup + row activation).
    pub dma_base_cycles: u64,
    /// Additional cycles per byte moved by the MRAM DMA engine.
    pub dma_cycles_per_byte: f64,
    /// Cycles the (pipelined) DMA engine itself is occupied per
    /// transfer beyond the per-byte cost. The full `dma_base_cycles`
    /// setup latency is exposed to the *issuing tasklet*, but queued
    /// transfers from other tasklets overlap most of it.
    pub dma_engine_overhead_cycles: u64,
    /// Cycles per emulated 32-bit floating point add (DPUs have no FPU).
    pub fp32_add_cycles: u64,
    /// Fixed pipeline instructions per vector-accumulate operation
    /// (stream parsing, accumulator addressing, loop control).
    pub accumulate_base_instrs: u64,
    /// Additional instructions per accumulated element (packed 64-bit
    /// adds process two 32-bit lanes per op).
    pub accumulate_per_elem_instrs: f64,
    /// Additional instructions per accumulated element when the source
    /// operand is a quantized u8 row (eight 8-bit lanes unpack per
    /// 64-bit load, so the dequantize-accumulate loop retires fewer
    /// instructions per element than the fp32 path).
    pub accumulate_per_elem_instrs_u8: f64,
    /// Cycles per native 32-bit integer ALU op.
    pub int_op_cycles: u64,
    /// Fixed instruction overhead per embedding-style loop iteration
    /// (address computation, bounds check, branch).
    pub loop_overhead_instrs: u64,
    /// Fixed cycles charged per kernel launch on a DPU (boot + fault
    /// check + host round trip amortized per launch).
    pub launch_overhead_cycles: u64,
    /// Nanoseconds per byte of *total* CPU→MRAM traffic when buffers
    /// move in parallel (the host bus is shared by all DPUs; UPMEM's
    /// aggregate host→DPU bandwidth is a few GB/s).
    pub host_to_mram_ns_per_byte: f64,
    /// Nanoseconds per byte of *total* MRAM→CPU traffic when buffers
    /// move in parallel (the gather direction is markedly slower on
    /// UPMEM DIMMs).
    pub mram_to_host_ns_per_byte: f64,
    /// Bandwidth factor applied when per-DPU buffers differ in size and
    /// the transfers serialize (paper §2.2).
    pub ragged_bw_factor: f64,
    /// Fixed nanoseconds per host transfer *phase* (driver + rank setup).
    pub host_transfer_base_ns: f64,
    /// Energy: picojoules per byte moved by the MRAM DMA engine.
    pub dma_pj_per_byte: f64,
    /// Energy: picojoules per DPU pipeline instruction.
    pub instr_pj: f64,
    /// Energy: picojoules per byte of host⇄MRAM traffic.
    pub host_pj_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            clock_hz: DEFAULT_CLOCK_HZ,
            // PrIM-style DMA curve: ~77 cycle setup, ~0.5 cycles/byte.
            // 8 B -> 81, 32 B -> 93 (flat region), 64 B -> 109,
            // 2048 B -> 1101 (steep region), matching Fig. 3's shape.
            dma_base_cycles: 77,
            dma_cycles_per_byte: 0.5,
            dma_engine_overhead_cycles: 16,
            // Software-emulated fp32 add (no FPU on the DPU).
            fp32_add_cycles: 6,
            accumulate_base_instrs: 20,
            accumulate_per_elem_instrs: 0.5,
            accumulate_per_elem_instrs_u8: 0.25,
            int_op_cycles: 1,
            loop_overhead_instrs: 8,
            launch_overhead_cycles: 12_000,
            // Aggregate host->MRAM ~6.4 GB/s when parallel and
            // MRAM->host ~4.7 GB/s — the asymmetric figures the PrIM
            // characterization measured on real UPMEM DIMMs.
            host_to_mram_ns_per_byte: 0.156,
            mram_to_host_ns_per_byte: 0.21,
            ragged_bw_factor: 0.6,
            host_transfer_base_ns: 2_500.0,
            dma_pj_per_byte: 15.0,
            instr_pj: 8.0,
            host_pj_per_byte: 40.0,
        }
    }
}

impl CostModel {
    /// Latency cycles the issuing tasklet observes for one MRAM DMA
    /// transfer of `len` bytes.
    ///
    /// `len` must already satisfy the hardware constraints (8-byte
    /// aligned, `1..=2048`); the memory layer validates before charging.
    #[inline]
    pub fn dma_cycles(&self, len: usize) -> Cycles {
        debug_assert!(len > 0 && len <= DMA_MAX_TRANSFER);
        Cycles(self.dma_base_cycles + (self.dma_cycles_per_byte * len as f64).round() as u64)
    }

    /// Cycles the DMA engine itself is busy with one transfer of `len`
    /// bytes (the serialization bound across tasklets).
    #[inline]
    pub fn dma_engine_cycles(&self, len: usize) -> Cycles {
        debug_assert!(len > 0 && len <= DMA_MAX_TRANSFER);
        Cycles(
            self.dma_engine_overhead_cycles
                + (self.dma_cycles_per_byte * len as f64).round() as u64,
        )
    }

    /// Pipeline instructions of one vector-accumulate of `n_elems`
    /// elements: a fixed parse/address/branch cost plus packed-add work,
    /// at [`CostModel::accumulate_per_elem_instrs_u8`] per element on
    /// quantized-u8 lanes and [`CostModel::accumulate_per_elem_instrs`]
    /// otherwise.
    #[inline]
    pub fn accumulate_instrs(&self, u8_lanes: bool, n_elems: u64) -> u64 {
        let slope = if u8_lanes {
            self.accumulate_per_elem_instrs_u8
        } else {
            self.accumulate_per_elem_instrs
        };
        self.accumulate_base_instrs + (slope * n_elems as f64).round() as u64
    }

    /// Host→MRAM transfer time for one DPU buffer of `bytes` bytes.
    #[inline]
    pub fn host_to_mram_ns(&self, bytes: usize) -> f64 {
        bytes as f64 * self.host_to_mram_ns_per_byte
    }

    /// MRAM→host transfer time for one DPU buffer of `bytes` bytes.
    #[inline]
    pub fn mram_to_host_ns(&self, bytes: usize) -> f64 {
        bytes as f64 * self.mram_to_host_ns_per_byte
    }

    /// Checks the fields that price modeled time: a nonzero clock, a
    /// finite positive ragged-bandwidth factor, and ns figures that are
    /// finite, nonnegative and whose picoseconds fit a `u64`
    /// ([`Ps::checked_from_ns`]). Returns the first offending field.
    ///
    /// # Errors
    ///
    /// A message naming the field.
    pub fn check_times(&self) -> Result<(), String> {
        if self.clock_hz == 0 {
            return Err("clock_hz must be > 0".into());
        }
        if !(self.ragged_bw_factor.is_finite() && self.ragged_bw_factor > 0.0) {
            return Err(format!(
                "ragged_bw_factor must be finite and > 0, got {}",
                self.ragged_bw_factor
            ));
        }
        check_ns("host_to_mram_ns_per_byte", self.host_to_mram_ns_per_byte)?;
        check_ns("mram_to_host_ns_per_byte", self.mram_to_host_ns_per_byte)?;
        check_ns("host_transfer_base_ns", self.host_transfer_base_ns)
    }

    /// DMA-engine cycles for `rows` back-to-back row transfers of
    /// `row_bytes` each — the host-driven bulk path (EMT shard
    /// migration) mirror of `Charges::charge_dma`: every
    /// increment is an integer multiple of the single-transfer charge,
    /// so one bulk charge equals `rows` repeated charges exactly and
    /// modeled migration time stays bit-deterministic.
    #[inline]
    pub fn bulk_rows_dma_cycles(&self, row_bytes: usize, rows: u64) -> Cycles {
        if rows == 0 || row_bytes == 0 {
            return Cycles(0);
        }
        Cycles(rows * self.dma_engine_cycles(row_bytes).0)
    }
}

/// Refuses an ns figure that is not a time the picosecond clock can
/// hold: non-finite, negative, or past [`Ps::MAX`].
///
/// # Errors
///
/// A message naming `field` and its value.
pub fn check_ns(field: &str, ns: f64) -> Result<(), String> {
    match Ps::checked_from_ns(ns) {
        Some(_) => Ok(()),
        None => Err(format!(
            "{field} must be a finite, nonnegative time of at most {} ns, got {ns}",
            crate::arch::MAX_WHOLE_NS
        )),
    }
}

/// Longest accumulated vector with a tabled cost: one f32 row of the
/// largest single DMA transfer.
const TABLED_ELEMS: usize = DMA_MAX_TRANSFER / 4;

/// A [`CostModel`] with its per-launch curves evaluated ahead of time.
///
/// A [`PimSystem`](crate::host::PimSystem) builds one when it is
/// created and every launch charges from it, so the launch path does
/// integer table look-ups only: the f64 curve of a DMA transfer or a
/// vector accumulate is evaluated here, once per length. Both the
/// tasklet interpreter ([`Charges`](crate::dpu::Charges)) and
/// whole-DPU programs ([`DpuPass::costs`](crate::dpu::DpuPass::costs))
/// charge through [`CostTable::charge_dma`] and
/// [`CostTable::accumulate_instrs`], so the two cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    model: CostModel,
    /// `(dma_cycles, dma_engine_cycles)` of a legal transfer of `len`
    /// bytes at index `len / 8`; entry 0 (no transfer) is zero.
    dma: Vec<(u64, u64)>,
    /// `accumulate_instrs(false, n)` / `(true, n)` at index `n`.
    accumulate: Vec<[u64; 2]>,
}

impl CostTable {
    /// Evaluates `model`'s curves at every legal DMA length and every
    /// vector length up to one maximal f32 row.
    pub fn new(model: &CostModel) -> Self {
        let dma = (0..=DMA_MAX_TRANSFER / DMA_ALIGN)
            .map(|i| match i * DMA_ALIGN {
                0 => (0, 0),
                len => (model.dma_cycles(len).0, model.dma_engine_cycles(len).0),
            })
            .collect();
        let accumulate = (0..=TABLED_ELEMS as u64)
            .map(|n| {
                [
                    model.accumulate_instrs(false, n),
                    model.accumulate_instrs(true, n),
                ]
            })
            .collect();
        CostTable {
            model: model.clone(),
            dma,
            accumulate,
        }
    }

    /// The model the tables were built from.
    #[inline]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Adds `n` identical DMA transfers of `len` bytes each to `stats`:
    /// latency, engine occupancy, transfer and byte counts, and the few
    /// pipeline instructions that issue each transfer. Every increment
    /// is an integer, so one charge multiplied by `n` equals `n` single
    /// charges exactly.
    #[inline]
    pub fn charge_dma(&self, stats: &mut TaskletStats, len: usize, n: u64) {
        let (latency, engine) = if len.is_multiple_of(DMA_ALIGN) && len <= DMA_MAX_TRANSFER {
            self.dma[len / DMA_ALIGN]
        } else {
            // Not a transfer the memory layer would accept; charged by
            // the curve all the same.
            (
                self.model.dma_cycles(len).0,
                self.model.dma_engine_cycles(len).0,
            )
        };
        stats.dma_cycles += n * latency;
        stats.dma_engine_cycles += n * engine;
        stats.dma_transfers += n;
        stats.dma_bytes += n * len as u64;
        // Issuing a DMA costs a few pipeline instructions (address setup).
        stats.instrs += n * 4 * self.model.int_op_cycles;
    }

    /// Adds `n` row operands read from the WRAM-resident block to
    /// `stats` — the WRAM axis of the model. A resident row is not
    /// fetched: no DMA latency, no engine occupancy, no transfer or byte
    /// count and none of the instructions that issue a transfer; the
    /// accumulate that consumes the row already reads its operand from
    /// WRAM. Only the count moves.
    #[inline]
    pub fn charge_wram_rows(&self, stats: &mut TaskletStats, n: u64) {
        stats.wram_rows += n;
    }

    /// [`CostModel::accumulate_instrs`], from the table for every
    /// vector that fits one DMA transfer.
    #[inline]
    pub fn accumulate_instrs(&self, u8_lanes: bool, n_elems: u64) -> u64 {
        match self.accumulate.get(n_elems as usize) {
            Some(row) => row[usize::from(u8_lanes)],
            None => self.model.accumulate_instrs(u8_lanes, n_elems),
        }
    }

    /// Expected launch cycles one gather-reduce reference adds to a DPU
    /// whose `n_tasklets` tasklets share the references evenly: a loop
    /// iteration, an accumulate of `n_elems` elements and the read of
    /// its `row_len`-byte operand — from the WRAM-resident block with
    /// probability `hit_share`, otherwise one MRAM DMA. The charges are
    /// the ones a kernel makes ([`CostTable::charge_dma`],
    /// [`CostTable::charge_wram_rows`], [`CostTable::accumulate_instrs`]),
    /// mixed by `hit_share` and put through the launch accounting's
    /// three bounds (pipeline, DMA engine, one tasklet's serial path
    /// over `n_tasklets`), so an analytic estimator that prices a
    /// lookup here cannot drift from the simulated kernel.
    pub fn lookup_cycles(
        &self,
        row_len: usize,
        u8_lanes: bool,
        n_elems: u64,
        hit_share: f64,
        n_tasklets: usize,
    ) -> f64 {
        let reference = |resident: bool| {
            let mut st = TaskletStats {
                instrs: self.model.loop_overhead_instrs + self.accumulate_instrs(u8_lanes, n_elems),
                ..TaskletStats::default()
            };
            self.charge_dma(&mut st, row_len, u64::from(!resident));
            self.charge_wram_rows(&mut st, u64::from(resident));
            st
        };
        let (miss, hit) = (reference(false), reference(true));
        let hit_share = hit_share.clamp(0.0, 1.0);
        let mix = |of: fn(&TaskletStats) -> u64| {
            (1.0 - hit_share) * of(&miss) as f64 + hit_share * of(&hit) as f64
        };
        let instrs = mix(|s| s.instrs);
        let serial = instrs * PIPELINE_DEPTH as f64 + mix(|s| s.dma_cycles);
        instrs
            .max(mix(|s| s.dma_engine_cycles))
            .max(serial / n_tasklets.max(1) as f64)
    }
}

/// Stack bytes [`WramBudget`] reserves per tasklet.
pub const TASKLET_STACK_BYTES: usize = 512;

/// How a gather-reduce program divides one DPU's [`WRAM_CAPACITY`]: the
/// single account the shared accumulator block, the resident block and
/// the tasklet locals are all drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WramBudget {
    /// Private bytes per tasklet: one [`DMA_MAX_TRANSFER`]-byte staging
    /// chunk for its reference stream, one source row, one accumulator
    /// row and [`TASKLET_STACK_BYTES`] of stack.
    pub tasklet_bytes: usize,
    /// Private bytes of all tasklets together.
    pub locals_bytes: usize,
    /// Bytes of the shared accumulator block (zero without one).
    pub block_bytes: usize,
}

impl WramBudget {
    /// The budget of `n_tasklets` tasklets that gather `src_row_bytes`
    /// rows into `acc_row_bytes` accumulators beside a shared block of
    /// `block_bytes`.
    pub fn new(
        n_tasklets: usize,
        src_row_bytes: usize,
        acc_row_bytes: usize,
        block_bytes: usize,
    ) -> Self {
        let tasklet_bytes = DMA_MAX_TRANSFER + src_row_bytes + acc_row_bytes + TASKLET_STACK_BYTES;
        WramBudget {
            tasklet_bytes,
            locals_bytes: n_tasklets * tasklet_bytes,
            block_bytes,
        }
    }

    /// Bytes left for a WRAM-resident block once the tasklet locals and
    /// the shared block are placed (zero when those alone fill WRAM).
    pub fn resident_bytes(&self) -> usize {
        WRAM_CAPACITY.saturating_sub(self.locals_bytes + self.block_bytes)
    }

    /// Bytes the program needs with a resident block of
    /// `resident_bytes`; it fits a DPU when this is at most
    /// [`WRAM_CAPACITY`].
    pub fn needed(&self, resident_bytes: usize) -> usize {
        self.locals_bytes + self.block_bytes + resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables hold the curves' own values, for a model whose slopes
    /// make the rounding matter, inside and outside the tabled range.
    #[test]
    fn cost_table_matches_the_curves_it_tabulates() {
        let model = CostModel {
            dma_cycles_per_byte: 0.37,
            accumulate_per_elem_instrs: 0.3,
            accumulate_per_elem_instrs_u8: 0.15,
            int_op_cycles: 2,
            ..CostModel::default()
        };
        let table = CostTable::new(&model);
        assert_eq!(table.model(), &model);
        for len in (8..=DMA_MAX_TRANSFER).step_by(8) {
            let mut stats = TaskletStats::default();
            table.charge_dma(&mut stats, len, 3);
            let want = TaskletStats {
                instrs: 3 * 4 * 2,
                dma_cycles: 3 * model.dma_cycles(len).0,
                dma_engine_cycles: 3 * model.dma_engine_cycles(len).0,
                dma_transfers: 3,
                dma_bytes: 3 * len as u64,
                wram_rows: 0,
            };
            assert_eq!(stats, want, "len {len}");
        }
        let mut none = TaskletStats::default();
        table.charge_dma(&mut none, 0, 0);
        table.charge_dma(&mut none, 64, 0);
        assert_eq!(none, TaskletStats::default());
        for n in [0u64, 1, 2, 3, 7, 8, 511, 512, 513, 100_000] {
            for u8_lanes in [false, true] {
                assert_eq!(
                    table.accumulate_instrs(u8_lanes, n),
                    model.accumulate_instrs(u8_lanes, n),
                    "n {n} u8 {u8_lanes}"
                );
            }
        }
    }

    /// The WRAM axis: a resident row moves its own count and nothing
    /// else, so a launch's `wram_rows + row fetches` is its references.
    #[test]
    fn a_wram_row_is_charged_nothing_but_its_count() {
        let table = CostTable::new(&CostModel::default());
        let mut stats = TaskletStats::default();
        table.charge_wram_rows(&mut stats, 5);
        let want = TaskletStats {
            wram_rows: 5,
            ..TaskletStats::default()
        };
        assert_eq!(stats, want);
    }

    /// `lookup_cycles` is the launch accounting applied to the kernel's
    /// own per-reference charges, at both ends of the hit share and in
    /// between, on the default model at `N_c = 8`: 36 instructions, a
    /// 93-cycle DMA that occupies the engine for 32 — 4 instructions
    /// and the whole DMA fewer for a resident row.
    #[test]
    fn lookup_cycles_prices_the_kernels_own_charges() {
        let model = CostModel::default();
        let table = CostTable::new(&model);
        let instrs = (model.loop_overhead_instrs + model.accumulate_instrs(false, 8)) as f64;
        let issue = (4 * model.int_op_cycles) as f64;
        let (latency, engine) = (
            model.dma_cycles(32).0 as f64,
            model.dma_engine_cycles(32).0 as f64,
        );
        let depth = PIPELINE_DEPTH as f64;
        // One tasklet: the serial path.
        assert_eq!(
            table.lookup_cycles(32, false, 8, 0.0, 1),
            (instrs + issue) * depth + latency
        );
        assert_eq!(table.lookup_cycles(32, false, 8, 1.0, 1), instrs * depth);
        // Fourteen: the pipeline bound (36, then 32 instructions).
        assert_eq!(table.lookup_cycles(32, false, 8, 0.0, 14), instrs + issue);
        assert_eq!(table.lookup_cycles(32, false, 8, 1.0, 14), instrs);
        let half = table.lookup_cycles(32, false, 8, 0.5, 14);
        assert_eq!(half, instrs + issue / 2.0);
        // Wide rows: the DMA engine bound, which a hit share scales.
        assert_eq!(
            table.lookup_cycles(2048, false, 8, 0.0, 14),
            model.dma_engine_cycles(2048).0 as f64
        );
        assert!(engine < instrs + issue);
        // Out-of-range shares clamp.
        assert_eq!(table.lookup_cycles(32, false, 8, 7.0, 14), instrs);
    }

    #[test]
    fn wram_budget_accounts_every_byte_once() {
        let b = WramBudget::new(14, 32, 32, 0);
        assert_eq!(b.tasklet_bytes, 2048 + 32 + 32 + TASKLET_STACK_BYTES);
        assert_eq!(b.locals_bytes, 14 * b.tasklet_bytes);
        assert_eq!(b.resident_bytes(), WRAM_CAPACITY - b.locals_bytes);
        assert_eq!(b.needed(b.resident_bytes()), WRAM_CAPACITY);
        // A shared block comes out of the resident share, byte for byte.
        let with_block = WramBudget::new(14, 32, 32, 4096);
        assert_eq!(with_block.resident_bytes(), b.resident_bytes() - 4096);
        // Locals that fill WRAM leave nothing, and say how much they need.
        let wide = WramBudget::new(14, 2048, 2048, 0);
        assert_eq!(wide.resident_bytes(), 0);
        assert!(wide.needed(0) > WRAM_CAPACITY);
    }

    #[test]
    fn default_dma_curve_is_flat_then_steep() {
        // The paper's Fig. 3 observation: 8 B -> 32 B grows slowly,
        // beyond 32 B it grows "more dramatically".
        let m = CostModel::default();
        let ns = |len| m.dma_cycles(len).0 as f64;
        let (l8, l32, l128, l2048) = (ns(8), ns(32), ns(128), ns(2048));
        // Flat region: 4x the bytes costs < 1.2x the time.
        assert!(
            l32 / l8 < 1.2,
            "8->32B should be nearly flat: {l8} -> {l32}"
        );
        // Steep region: going 32 -> 2048 costs much more than 8 -> 32.
        let flat_slope = (l32 - l8) / 24.0;
        let steep_slope = (l2048 - l128) / 1920.0;
        assert!(steep_slope >= flat_slope * 0.9);
        assert!(l2048 / l32 > 5.0, "large transfers must be much slower");
    }

    #[test]
    fn dma_latency_monotonic_in_size() {
        let m = CostModel::default();
        let mut prev = Cycles::ZERO;
        for len in (8..=2048).step_by(8) {
            let c = m.dma_cycles(len);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn host_transfer_costs_scale_linearly() {
        let m = CostModel::default();
        assert!((m.host_to_mram_ns(2000) - 2.0 * m.host_to_mram_ns(1000)).abs() < 1e-9);
        assert!(m.mram_to_host_ns(64) > 0.0);
    }

    #[test]
    fn cost_model_serde_round_trip() {
        // A genuinely non-default model so every field must survive.
        let m = CostModel {
            clock_hz: 400_000_000,
            dma_cycles_per_byte: 0.75,
            ragged_bw_factor: 1.25,
            instr_pj: 9.5,
            ..CostModel::default()
        };
        let json = serde::json::to_string(&m);
        assert!(json.contains("\"clock_hz\""));
        let back: CostModel = serde::json::from_str(&json).unwrap();
        assert_eq!(back, m);
        // And the timing it computes is identical.
        assert_eq!(
            m.dma_cycles(512).to_ps(m.clock_hz),
            back.dma_cycles(512).to_ps(back.clock_hz)
        );
    }

    #[test]
    fn time_checks_name_the_first_bad_field() {
        assert_eq!(CostModel::default().check_times(), Ok(()));
        let bad = |m: CostModel| m.check_times().unwrap_err();
        let d = CostModel::default;
        assert!(bad(CostModel { clock_hz: 0, ..d() }).contains("clock_hz"));
        for f in [0.0, -0.6, f64::NAN] {
            let e = bad(CostModel {
                ragged_bw_factor: f,
                ..d()
            });
            assert!(e.contains("ragged_bw_factor"), "{e}");
        }
        for ns in [-1.0, f64::INFINITY, 1e300] {
            let e = bad(CostModel {
                host_transfer_base_ns: ns,
                ..d()
            });
            assert!(e.contains("host_transfer_base_ns"), "{e}");
        }
    }

    #[test]
    fn pim_config_serde_round_trip() {
        let cfg = crate::PimConfig::new(37, 12).with_cost(CostModel {
            launch_overhead_cycles: 7_777,
            ..CostModel::default()
        });
        let json = serde::json::to_string_pretty(&cfg);
        let back: crate::PimConfig = serde::json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
