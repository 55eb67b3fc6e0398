//! The DPU-side embedding kernel (stage 2 of Fig. 4).
//!
//! Each DPU holds one tile of one embedding table (its row partition ×
//! its column slice) plus, under cache-aware partitioning, a region of
//! cached partial-sum rows. Per batch, the host writes a *reference
//! stream* into MRAM and launches this kernel.
//!
//! ## Execution model
//!
//! The modeled DPU program runs `n_tasklets` tasklets. In the paper's
//! CSR format tasklet `t` owns the samples `s ≡ t (mod n_tasklets)`: per
//! sample it reads the two offsets, stages the reference array, fetches
//! and accumulates every referenced row and writes the partial-sum row.
//! In the dedup format the host deduplicates row references across the
//! batch; unique rows are dealt round-robin over the tasklets, which
//! accumulate them into a *shared* WRAM block (`n_samples x row_bytes`,
//! mutex-guarded on hardware — the accumulate cost covers it) and,
//! after a barrier, each write their share of the rows to MRAM.
//!
//! The simulator does not interpret that program tasklet by tasklet.
//! What lands in the output rows depends only on the reference stream,
//! and what each tasklet is charged is a closed form of the stream's
//! counts, so [`EmbeddingKernel`] is a [`DpuProgram`]: one pass per
//! launched DPU that validates and decodes the stream into flat row
//! offsets, derives every tasklet's counters from the offsets, and sums
//! the rows sample by sample straight into the output region. Stage 1
//! broadcasts one stream to every column slice of a partition, so the
//! kernel keeps its last decode and reuses it on a DPU whose stream
//! bytes compare equal. The tasklet-by-tasklet program survives as the
//! test oracle (`tests/stream_props.rs`), which must agree with this
//! pass in every output byte and every per-tasklet counter.
//!
//! ## Reference stream layout (little-endian `u32`, 8-byte padded)
//!
//! CSR (see [`build_stream`]):
//!
//! ```text
//! input_base: [n_samples + 1 reference end-offsets] [flat reference array]
//! ```
//!
//! Dedup:
//!
//! ```text
//! input_base: [n_tasklets + 1 stream end-offsets, bytes rel. to streams_base]
//! per tasklet: [n_entries] { [ref] [k] [k x global sample ids] } x n_entries
//! ```
//!
//! A `ref` with [`CACHE_REF_BIT`] set addresses the cache region
//! (slot within this partition's cached combination rows), otherwise
//! the EMT region.
//!
//! ## WRAM-resident rows
//!
//! A task may declare a prefix of each region resident
//! ([`ResidentRows`]): the modeled program keeps EMT slots
//! `0..emt_rows` and cache slots `0..cache_rows` in the shared WRAM
//! region, behind a tag naming what they are a copy of, and serves a
//! reference to such a slot from there — no MRAM DMA
//! ([`CostTable::charge_wram_rows`]). WRAM outlives a launch, so the
//! block is copied once: a launch that finds another tag in WRAM (the
//! first after a build, or after a migration flip changed bases and
//! epoch) spends a *fill phase* copying the two prefixes in
//! `DMA_MAX_TRANSFER` chunks dealt over the tasklets, then a barrier,
//! then the lookups. The reference word needs no residency bit: whether
//! a slot is resident is one compare against its region's threshold, a
//! launch argument. An empty [`ResidentRows`] is the paper's kernel —
//! the same code with both thresholds at zero.

use dlrm_model::quant::{self, QROW_HEADER_BYTES};
use dlrm_model::{simd, EmbedDtype, FxHashMap};
use std::cell::RefCell;
use upmem_sim::arch::{DMA_ALIGN, DMA_MAX_TRANSFER, MAX_TASKLETS, MRAM_CAPACITY};
use upmem_sim::{
    CostModel, CostTable, DpuId, DpuPass, DpuProgram, Mram, SimError, TaskletStats, WramBudget,
};

/// High bit of a reference word: set = cache region, clear = EMT region.
pub const CACHE_REF_BIT: u32 = 1 << 31;

/// Bytes of the tag that leads a resident block in shared WRAM: six
/// little-endian words — epoch, EMT base, cache base, resident EMT
/// rows, resident cache rows, [`RESIDENT_TAG_MAGIC`].
pub const RESIDENT_TAG_BYTES: usize = 24;

/// Last word of a resident block's tag; nonzero, so zeroed WRAM never
/// reads as a filled block.
pub const RESIDENT_TAG_MAGIC: u32 = 0x5752_414d; // "WRAM"

/// The WRAM-resident part of one DPU's rows: a prefix of each region's
/// slots (module docs). The default — nothing resident — is the
/// paper's kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentRows {
    /// EMT slots below this are served from WRAM.
    pub emt_rows: u32,
    /// Cache slots below this are served from WRAM.
    pub cache_rows: u32,
    /// Generation of the resident rows' MRAM contents. Whoever rewrites
    /// them (a migration flip) picks a value no earlier fill on this
    /// DPU used; a DPU whose WRAM holds another generation refills.
    pub epoch: u32,
}

impl ResidentRows {
    /// True when no row is resident.
    pub fn is_empty(&self) -> bool {
        self.emt_rows == 0 && self.cache_rows == 0
    }

    /// Bytes of shared WRAM the block takes — tag, EMT rows of
    /// `emt_row_bytes`, cache rows of `row_bytes` — or zero when empty.
    pub fn block_bytes(&self, emt_row_bytes: usize, row_bytes: usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        RESIDENT_TAG_BYTES
            + self.emt_rows as usize * emt_row_bytes
            + self.cache_rows as usize * row_bytes
    }
}

/// Per-DPU launch parameters for [`EmbeddingKernel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpuTask {
    /// MRAM base of the EMT tile (row-major `row_bytes` rows).
    pub emt_base: u32,
    /// MRAM base of the cached combination rows.
    pub cache_base: u32,
    /// MRAM base of the reference stream written by the host.
    pub input_base: u32,
    /// MRAM base of the output region (`n_samples` rows).
    pub output_base: u32,
    /// Which rows the DPU keeps in WRAM across launches.
    pub resident: ResidentRows,
}

impl DpuTask {
    /// The tag a resident block filled for this task carries.
    fn resident_tag(&self) -> [u8; RESIDENT_TAG_BYTES] {
        let words = [
            self.resident.epoch,
            self.emt_base,
            self.cache_base,
            self.resident.emt_rows,
            self.resident.cache_rows,
            RESIDENT_TAG_MAGIC,
        ];
        let mut tag = [0u8; RESIDENT_TAG_BYTES];
        for (dst, w) in tag.chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        tag
    }
}

/// The embedding lookup-and-reduce kernel.
///
/// Two stream formats are supported (see [`build_stream`]):
///
/// * **CSR** (`dedup = false`, the paper's IDX+OFFSET transfer): each
///   tasklet owns the samples `s ≡ tasklet_id (mod n_tasklets)`,
///   gathers their rows and writes the partial sums directly — no
///   barrier needed.
/// * **Dedup** (`dedup = true`, an extension): unique rows are dealt
///   round-robin to tasklets, accumulated into shared WRAM and written
///   back after a barrier.
///
/// Both run as one whole-DPU pass (module docs). The pass first checks
/// the task's row shapes with the DMA engine's own rule
/// ([`Mram::check_dma`] on the first EMT, cache and output row —
/// odd-sized or oversized rows and misaligned bases fail the launch
/// there), then every reference word goes through one decode
/// (`Rows::resolve`) to a bounds-checked row offset, before any row is
/// summed.
#[derive(Debug, Default)]
pub struct EmbeddingKernel {
    /// Bytes per *output* (and cache) row (`N_c * 4`), a multiple of 8.
    pub row_bytes: usize,
    /// Whether streams use the dedup format.
    pub dedup: bool,
    /// Storage dtype of the EMT tile. Cache rows, accumulators and
    /// output rows are always f32; only the EMT fetch (and its MRAM
    /// stride) changes under [`EmbedDtype::Int8`], where each row is a
    /// [`quant`]-format `[scale][min][u8 values]` record dequantized on
    /// the fly into the accumulate.
    pub dtype: EmbedDtype,
    /// Samples in the batch being launched — one value per launch, the
    /// same on every DPU.
    pub n_samples: u32,
    /// Registered DPUs; others return immediately.
    dpus: FxHashMap<DpuId, DpuTask>,
    /// The last stream decoded, for the DPUs that received the same
    /// bytes. A launch runs one DPU at a time, so one pass borrows it
    /// at a time.
    decoded: RefCell<Decoded>,
}

/// Where one DPU's reference words point: the EMT tile and the cached
/// partial-sum rows, each an MRAM base and a row stride in bytes.
#[derive(Debug, Clone, Copy)]
struct Rows {
    emt_base: u32,
    emt_stride: usize,
    cache_base: u32,
    cache_stride: usize,
    /// Whether EMT rows are stored as f32 (cache rows always are).
    emt_f32: bool,
    /// Slots of each region below which a row is WRAM-resident.
    resident: ResidentRows,
}

/// Set on a decoded row offset whose row is a quantized EMT record.
/// Offsets lie inside a 64 MB bank, so the bit is free.
const QUANT_ROW_BIT: u32 = 1 << 31;

impl Rows {
    /// The one reference decode: maps reference word `r` to its row's
    /// absolute byte offset in a bank of `bank_len` bytes, tagged with
    /// [`QUANT_ROW_BIT`] unless the row is stored as f32, and says
    /// whether the row is WRAM-resident — one compare of the slot with
    /// its region's threshold. A row past the bank fails with the error
    /// its DMA fetch would raise, resident or not: the block is a copy
    /// of rows that exist.
    #[inline]
    fn resolve(&self, r: u32, bank_len: usize) -> Result<(u32, bool), SimError> {
        let cached = r & CACHE_REF_BIT != 0;
        let slot = r & !CACHE_REF_BIT;
        let (base, stride, resident_below) = if cached {
            (self.cache_base, self.cache_stride, self.resident.cache_rows)
        } else {
            (self.emt_base, self.emt_stride, self.resident.emt_rows)
        };
        let off = slot as usize * stride;
        let abs = base as usize + off;
        if abs + stride > bank_len {
            return Err(SimError::MramOutOfBounds {
                addr: base.wrapping_add(off as u32),
                len: stride,
                capacity: bank_len,
            });
        }
        let tag = if cached || self.emt_f32 {
            0
        } else {
            QUANT_ROW_BIT
        };
        // `abs < bank_len <= MRAM_CAPACITY`, well below the tag bit.
        Ok((abs as u32 | tag, slot < resident_below))
    }
}

/// What [`Decoded::push_row`] found out about the row it decoded.
#[derive(Debug, Clone, Copy)]
struct RowKind {
    /// A quantized EMT record (else an f32 row).
    quantized: bool,
    /// Served from the WRAM-resident block (else fetched from MRAM).
    resident: bool,
}

fn u32_at(buf: &[u8], idx: usize) -> u32 {
    u32::from_le_bytes([
        buf[4 * idx],
        buf[4 * idx + 1],
        buf[4 * idx + 2],
        buf[4 * idx + 3],
    ])
}

/// `len` rounded up to the DMA grain.
const fn pad8(len: usize) -> usize {
    (len + DMA_ALIGN - 1) & !(DMA_ALIGN - 1)
}

/// The aligned window `[start, end)` a staged copy of `len` bytes at
/// `addr` reads, checked against the bank.
fn window(addr: usize, len: usize, bank_len: usize) -> Result<(usize, usize), SimError> {
    let start = addr & !(DMA_ALIGN - 1);
    let end = pad8(addr + len);
    if end > bank_len {
        return Err(SimError::MramOutOfBounds {
            addr: start as u32,
            len: end - start,
            capacity: bank_len,
        });
    }
    Ok((start, end))
}

/// Charges a contiguous `len`-byte MRAM read as the series of
/// `<= DMA_MAX_TRANSFER` chunks a staged copy would issue.
fn charge_chunked(costs: &CostTable, stats: &mut TaskletStats, len: usize) {
    costs.charge_dma(stats, DMA_MAX_TRANSFER, (len / DMA_MAX_TRANSFER) as u64);
    let rest = len % DMA_MAX_TRANSFER;
    costs.charge_dma(stats, rest, u64::from(rest > 0));
}

/// Everything a decode depends on besides the stream bytes, the bank's
/// length and the cost model: a held decode serves a DPU only under an
/// equal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DecodeKey {
    task: DpuTask,
    row_bytes: usize,
    dtype: EmbedDtype,
    dedup: bool,
    n_samples: u32,
    n_tasklets: usize,
}

/// One validated, decoded reference stream: the flat row offsets the
/// functional half sums, and the per-tasklet counters of the timing
/// half.
#[derive(Debug, Default)]
struct Decoded {
    /// The key decoded under and the model the counters were charged
    /// from; `None` while no complete decode is held — a decode that
    /// fails part-way leaves nothing to reuse.
    key: Option<(DecodeKey, CostModel)>,
    /// The stream region as decoded: every byte the decode read, from
    /// `input_base` rounded down to the DMA grain.
    bytes: Vec<u8>,
    /// Decoded row offsets ([`Rows::resolve`]). CSR: sample `s` sums
    /// `rows[ends[s]..ends[s + 1]]`. Dedup: unique entry `e` is
    /// `rows[e]`, added into the samples `users[ends[e]..ends[e + 1]]`,
    /// entries in tasklet order.
    rows: Vec<u32>,
    ends: Vec<u32>,
    users: Vec<u32>,
    /// One past the last byte of any decoded row.
    rows_end: usize,
    /// Phase-1 and phase-2 counters of every tasklet.
    stats: [[TaskletStats; MAX_TASKLETS]; 2],
    /// One row's accumulator (functional half).
    acc: Vec<f32>,
}

impl Decoded {
    /// Whether this decode was made under `key` and `cost` from the
    /// bytes `bank` holds, with every decoded row inside `bank`.
    fn serves(&self, key: &DecodeKey, cost: &CostModel, bank: &[u8]) -> bool {
        let start = key.task.input_base as usize & !(DMA_ALIGN - 1);
        matches!(&self.key, Some((k, c)) if k == key && c == cost)
            && self.rows_end <= bank.len()
            && bank.get(start..start + self.bytes.len()) == Some(&self.bytes[..])
    }

    fn reset(&mut self) {
        self.key = None;
        self.rows.clear();
        self.ends.clear();
        self.ends.push(0);
        self.users.clear();
        self.rows_end = 0;
        self.stats = Default::default();
    }

    /// Decodes reference word `r`, keeping the row's end for
    /// [`Decoded::serves`].
    #[inline]
    fn push_row(&mut self, rows: &Rows, r: u32, bank_len: usize) -> Result<RowKind, SimError> {
        let (row, resident) = rows.resolve(r, bank_len)?;
        let quantized = row & QUANT_ROW_BIT != 0;
        let stride = if quantized {
            rows.emt_stride
        } else {
            rows.cache_stride
        };
        self.rows_end = self.rows_end.max((row & !QUANT_ROW_BIT) as usize + stride);
        self.rows.push(row);
        Ok(RowKind {
            quantized,
            resident,
        })
    }

    /// CSR format: validates the offsets and every reference in sample
    /// order and charges tasklet `s mod n_tasklets` what serving sample
    /// `s` costs — its offsets window, its reference array as staged
    /// chunks, one row read (a DMA fetch, or a WRAM-resident operand)
    /// and accumulate per reference, and the output row.
    fn decode_csr(
        &mut self,
        key: &DecodeKey,
        rows: &Rows,
        bank: &[u8],
        costs: &CostTable,
    ) -> Result<(), SimError> {
        let cost = costs.model();
        let n_c = key.row_bytes / 4;
        let n_samples = key.n_samples as usize;
        let input = key.task.input_base as usize;
        let refs_base = input + pad8((n_samples + 1) * 4);
        let acc_f32 = costs.accumulate_instrs(false, n_c as u64);
        let acc_u8 = costs.accumulate_instrs(true, n_c as u64);
        let mut region_end = input & !(DMA_ALIGN - 1);
        for s in 0..n_samples {
            let st = &mut self.stats[0][s % key.n_tasklets];
            // offsets[s], offsets[s + 1]: the 8-byte request spans at
            // most 16 aligned bytes, always a single DMA.
            let oaddr = input + 4 * s;
            let (ostart, oend) = window(oaddr, 8, bank.len())?;
            costs.charge_dma(st, oend - ostart, 1);
            let start = u32_at(&bank[oaddr..], 0) as usize;
            let end = u32_at(&bank[oaddr..], 1) as usize;
            st.instrs += 4 * cost.int_op_cycles;
            if end < start {
                return Err(SimError::KernelFault(format!(
                    "sample {s}: offsets decrease ({start}..{end})"
                )));
            }
            region_end = region_end.max(oend);
            let n_refs = end - start;
            // References to quantized records, and the WRAM-resident
            // ones among the f32 rows and among the records.
            let (mut n_u8, mut hit_f32, mut hit_u8) = (0u64, 0u64, 0u64);
            if n_refs > 0 {
                // Reference array: charged as the chunk series of a
                // staged read of its aligned window.
                let raddr = refs_base + 4 * start;
                let (rstart, rend) = window(raddr, 4 * n_refs, bank.len())?;
                charge_chunked(costs, st, rend - rstart);
                region_end = region_end.max(rend);
                self.rows.reserve(n_refs);
                for word in bank[raddr..raddr + 4 * n_refs].chunks_exact(4) {
                    let r = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
                    let kind = self.push_row(rows, r, bank.len())?;
                    n_u8 += u64::from(kind.quantized);
                    hit_u8 += u64::from(kind.quantized & kind.resident);
                    hit_f32 += u64::from(!kind.quantized & kind.resident);
                }
            }
            self.ends.push(self.rows.len() as u32);
            // Every charge counter is an integer, so a row's read and
            // accumulate charged `n` times over is `n` single charges.
            // A resident row's read is its count; the rest are fetched,
            // and the output row is one more f32-row DMA.
            let st = &mut self.stats[0][s % key.n_tasklets];
            let n_f32 = n_refs as u64 - n_u8;
            st.instrs += (n_c / 2) as u64 * cost.int_op_cycles
                + (n_refs as u64 + 1) * cost.loop_overhead_instrs
                + n_f32 * acc_f32
                + n_u8 * acc_u8;
            costs.charge_wram_rows(st, hit_f32 + hit_u8);
            costs.charge_dma(st, rows.cache_stride, n_f32 - hit_f32 + 1);
            costs.charge_dma(st, rows.emt_stride, n_u8 - hit_u8);
        }
        self.keep_region(key, cost, bank, region_end);
        Ok(())
    }

    /// Dedup format: validates the header and every tasklet's entry
    /// stream in tasklet order. Phase 1 charges tasklet `t` its header
    /// read, its stream as staged chunks, one row read per entry (a
    /// DMA fetch, or a WRAM-resident operand) and one shared-WRAM
    /// accumulate per referencing sample (tasklet 0
    /// also zeroes the block); phase 2 charges the output rows
    /// `s ≡ t (mod n_tasklets)`.
    fn decode_dedup(
        &mut self,
        key: &DecodeKey,
        rows: &Rows,
        bank: &[u8],
        costs: &CostTable,
    ) -> Result<(), SimError> {
        let cost = costs.model();
        let n_c = key.row_bytes / 4;
        let n_samples = key.n_samples as usize;
        let n_tasklets = key.n_tasklets;
        let acc_f32 = costs.accumulate_instrs(false, n_c as u64);
        let acc_u8 = costs.accumulate_instrs(true, n_c as u64);
        // Header: stream end-offsets for every tasklet, one padded DMA
        // (`MAX_TASKLETS + 2` u32s fit a single transfer).
        let hwin = pad8((n_tasklets + 2) * 4);
        Mram::check_dma(key.task.input_base, hwin)?;
        let input = key.task.input_base as usize;
        let (_, streams_base) = window(input, hwin, bank.len())?;
        let hdr = &bank[input..streams_base];
        let mut region_end = streams_base;
        for t in 0..n_tasklets {
            let st = &mut self.stats[0][t];
            if t == 0 {
                st.instrs += (n_samples * n_c / 2) as u64 * cost.int_op_cycles;
            }
            costs.charge_dma(st, hwin, 1);
            st.instrs += 4 * cost.int_op_cycles;
            let (start, end) = (u32_at(hdr, t) as usize, u32_at(hdr, t + 1) as usize);
            if end < start {
                return Err(SimError::KernelFault(format!(
                    "tasklet {t}: stream ends before it starts ({start}..{end})"
                )));
            }
            let slen = end - start;
            if slen == 0 {
                continue;
            }
            let saddr = streams_base + start;
            let (sstart, send) = window(saddr, slen, bank.len())?;
            charge_chunked(costs, st, send - sstart);
            st.instrs += 2 * cost.int_op_cycles;
            region_end = region_end.max(send);
            let stream = &bank[saddr..saddr + slen];
            if slen < 4 {
                return Err(SimError::KernelFault("truncated stream entry".into()));
            }
            let n_entries = u32_at(stream, 0) as usize;
            let mut pos = 1usize; // u32 cursor
            for _ in 0..n_entries {
                if (pos + 2) * 4 > slen {
                    return Err(SimError::KernelFault("truncated stream entry".into()));
                }
                let r = u32_at(stream, pos);
                let k = u32_at(stream, pos + 1) as usize;
                pos += 2;
                if (pos + k) * 4 > slen {
                    return Err(SimError::KernelFault("truncated sample id list".into()));
                }
                // One read per unique row — a quantized record is
                // dequantized once, on the u8 accumulate charge — then
                // one accumulate per referencing sample.
                let kind = self.push_row(rows, r, bank.len())?;
                let st = &mut self.stats[0][t];
                st.instrs += cost.loop_overhead_instrs + k as u64 * acc_f32;
                if kind.quantized {
                    st.instrs += acc_u8;
                }
                if kind.resident {
                    costs.charge_wram_rows(st, 1);
                } else if kind.quantized {
                    costs.charge_dma(st, rows.emt_stride, 1);
                } else {
                    costs.charge_dma(st, rows.cache_stride, 1);
                }
                for j in 0..k {
                    let sample = u32_at(stream, pos + j);
                    if sample as usize >= n_samples {
                        return Err(SimError::KernelFault(format!(
                            "sample id {sample} out of range {n_samples}"
                        )));
                    }
                    self.users.push(sample);
                }
                self.ends.push(self.users.len() as u32);
                pos += k;
            }
        }
        // After the barrier each tasklet writes its share of the
        // per-sample rows from the shared accumulators to MRAM.
        for (t, st) in self.stats[1][..n_tasklets].iter_mut().enumerate() {
            let share = n_samples.saturating_sub(t).div_ceil(n_tasklets) as u64;
            costs.charge_dma(st, key.row_bytes, share);
            st.instrs += share * cost.loop_overhead_instrs;
        }
        self.keep_region(key, cost, bank, region_end);
        Ok(())
    }

    /// Completes a decode: keeps the stream region for later DPUs to
    /// compare against and marks the decode reusable.
    fn keep_region(&mut self, key: &DecodeKey, cost: &CostModel, bank: &[u8], region_end: usize) {
        let start = key.task.input_base as usize & !(DMA_ALIGN - 1);
        self.bytes.clear();
        self.bytes.extend_from_slice(&bank[start..region_end]);
        self.key = Some((*key, cost.clone()));
    }

    /// The functional half: sums the decoded rows into the `n_samples`
    /// output rows at `out_base` of `bank`, in reference order per
    /// sample (CSR) or entry order per tasklet stream (dedup) — the
    /// order the tasklet program accumulates in, so the rows are
    /// bit-equal to its.
    fn sum_into(&mut self, key: &DecodeKey, rows: &Rows, bank: &mut [u8]) {
        if key.n_samples == 0 {
            return;
        }
        let row_bytes = key.row_bytes;
        let out_base = key.task.output_base as usize;
        let Decoded {
            rows: offs,
            ends,
            users,
            acc,
            ..
        } = self;
        acc.resize(row_bytes / 4, 0.0);
        // The tier is read once per pass, not per sample or row.
        let tier = simd::dispatch();
        let spans = ends.windows(2).map(|w| w[0] as usize..w[1] as usize);
        if key.dedup {
            bank[out_base..out_base + key.n_samples as usize * row_bytes].fill(0);
            for (&row, users_of_row) in offs.iter().zip(spans) {
                // The row is fetched once and decoded to f32 once; it
                // is added into every referencing sample below.
                let abs = (row & !QUANT_ROW_BIT) as usize;
                if row & QUANT_ROW_BIT == 0 {
                    for (a, c) in acc.iter_mut().zip(bank[abs..].chunks_exact(4)) {
                        *a = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                    }
                } else {
                    // `Rows::resolve` checked that the whole record is
                    // in the bank.
                    let rec = &bank[abs..abs + rows.emt_stride];
                    let (scale, min) = quant::row_params(rec).expect("a record holds its header");
                    acc.fill(0.0);
                    tier.add_assign_dequant_u8(acc, &rec[QROW_HEADER_BYTES..], scale, min);
                }
                for &sample in &users[users_of_row] {
                    let dst = out_base + sample as usize * row_bytes;
                    tier.add_assign_into_le(&mut bank[dst..dst + row_bytes], acc);
                }
            }
            return;
        }
        for (s, refs) in spans.enumerate() {
            acc.fill(0.0);
            // One fused SIMD pass per sample that keeps the accumulator
            // in registers; on an int8 tile it dequantizes the tagged
            // offsets (quantized records) in place, in reference order.
            let refs = &offs[refs];
            if rows.emt_f32 {
                tier.sum_rows_le(acc, bank, refs);
            } else {
                tier.sum_rows_tagged_le(acc, bank, refs, QUANT_ROW_BIT);
            }
            let dst = &mut bank[out_base + s * row_bytes..][..row_bytes];
            for (b, a) in dst.chunks_exact_mut(4).zip(acc.iter()) {
                b.copy_from_slice(&a.to_le_bytes());
            }
        }
    }
}

impl EmbeddingKernel {
    /// Creates an f32 kernel for tiles of `row_bytes` bytes per row
    /// reading streams built with the same `dedup` flag.
    pub fn new(row_bytes: usize, dedup: bool) -> Self {
        Self::with_dtype(row_bytes, dedup, EmbedDtype::F32)
    }

    /// Creates a kernel whose EMT tile is stored as `dtype` rows.
    /// `row_bytes` is the f32 output/cache row size (`N_c * 4`)
    /// regardless of the EMT storage dtype.
    pub fn with_dtype(row_bytes: usize, dedup: bool, dtype: EmbedDtype) -> Self {
        EmbeddingKernel {
            row_bytes,
            dedup,
            dtype,
            ..Self::default()
        }
    }

    /// Bytes per EMT row as stored in MRAM (the EMT region stride).
    #[inline]
    pub fn emt_row_bytes(&self) -> usize {
        self.dtype.stored_row_bytes(self.row_bytes / 4)
    }

    /// Registers one DPU's launch parameters.
    pub fn set_task(&mut self, dpu: DpuId, task: DpuTask) {
        self.dpus.insert(dpu, task);
    }

    /// Every registered DPU's launch parameters, for repointing regions
    /// in place (the migration flip).
    pub fn tasks_mut(&mut self) -> impl Iterator<Item = &mut DpuTask> {
        self.dpus.values_mut()
    }

    /// One registered DPU's launch parameters.
    pub fn task_mut(&mut self, dpu: DpuId) -> Option<&mut DpuTask> {
        self.dpus.get_mut(&dpu)
    }

    /// [`wram_budget`] of this kernel's shape.
    fn wram_budget(&self, n_tasklets: usize, n_samples: usize) -> WramBudget {
        wram_budget(
            self.row_bytes,
            self.dtype,
            self.dedup,
            n_tasklets,
            n_samples,
        )
    }

    /// Brings the DPU's resident block up to date with `task`: nothing
    /// when WRAM already holds the block's tag; otherwise the fill —
    /// both region prefixes copied MRAM→WRAM behind the tag, in
    /// `DMA_MAX_TRANSFER` chunks dealt round-robin over the tasklets and
    /// charged to the fill phase, one DMA and one loop iteration each.
    fn fill_resident(
        &self,
        pass: &mut DpuPass<'_>,
        task: &DpuTask,
        rows: &Rows,
    ) -> Result<(), SimError> {
        let costs = pass.costs();
        let n_tasklets = pass.n_tasklets();
        let tag = task.resident_tag();
        let sources = [
            (
                rows.emt_base,
                rows.resident.emt_rows as usize * rows.emt_stride,
            ),
            (
                rows.cache_base,
                rows.resident.cache_rows as usize * rows.cache_stride,
            ),
        ];
        let (mram, shared, stats) = pass.fill_phase();
        let end = sources.map(|(base, len)| base as usize + len);
        let bank: &[u8] = mram.committed_mut(end[0].max(end[1]));
        for (base, len) in sources {
            window(base as usize, len, bank.len())?;
        }
        let (held, block) = shared.split_at_mut(RESIDENT_TAG_BYTES);
        let copies = sources.iter().scan(0, |at, &(base, len)| {
            let dst = *at..*at + len;
            *at += len;
            Some((&bank[base as usize..base as usize + len], dst))
        });
        if held == tag {
            // Between two fills the rows behind a tag do not change:
            // a host that rewrites them bumps the epoch. The functional
            // half reads them from MRAM on that footing.
            debug_assert!(copies.clone().all(|(src, dst)| block[dst] == *src));
            return Ok(());
        }
        let mut chunk = 0usize;
        for (src, dst) in copies {
            block[dst].copy_from_slice(src);
            for part in src.chunks(DMA_MAX_TRANSFER) {
                let st = &mut stats[chunk % n_tasklets];
                costs.charge_dma(st, part.len(), 1);
                st.instrs += costs.model().loop_overhead_instrs;
                chunk += 1;
            }
        }
        held.copy_from_slice(&tag);
        Ok(())
    }
}

impl DpuProgram for EmbeddingKernel {
    fn shared_wram_bytes(&self) -> usize {
        // The largest resident block of any registered DPU, then dedup
        // mode's shared accumulator block: one row per sample.
        let (emt, row) = (self.emt_row_bytes(), self.row_bytes);
        let resident = self.dpus.values().map(|t| t.resident.block_bytes(emt, row));
        resident.max().unwrap_or(0) + self.wram_budget(0, self.n_samples as usize).block_bytes
    }

    fn tasklet_wram_bytes(&self) -> usize {
        self.wram_budget(1, 0).tasklet_bytes
    }

    fn run_dpu(&self, pass: &mut DpuPass<'_>) -> Result<(), SimError> {
        let Some(&task) = self.dpus.get(&pass.dpu_id()) else {
            return Ok(());
        };
        let rows = Rows {
            emt_base: task.emt_base,
            emt_stride: self.emt_row_bytes(),
            cache_base: task.cache_base,
            cache_stride: self.row_bytes,
            emt_f32: self.dtype == EmbedDtype::F32,
            resident: task.resident,
        };
        // Every row fetch is one DMA of its region's stride from its
        // region's base plus a multiple of that stride, so the first
        // row's check covers the shape of all of them; the output rows
        // must also end inside the bank.
        Mram::check_dma(rows.emt_base, rows.emt_stride)?;
        Mram::check_dma(rows.cache_base, rows.cache_stride)?;
        let n_samples = self.n_samples as usize;
        let out_base = task.output_base as usize;
        let out_end = out_base + n_samples * self.row_bytes;
        if n_samples > 0 {
            Mram::check_dma(task.output_base, self.row_bytes)?;
            if out_end > MRAM_CAPACITY {
                let fit = (MRAM_CAPACITY - out_base) / self.row_bytes;
                return Err(SimError::MramOutOfBounds {
                    addr: (out_base + fit * self.row_bytes) as u32,
                    len: self.row_bytes,
                    capacity: MRAM_CAPACITY,
                });
            }
        }

        if !task.resident.is_empty() {
            self.fill_resident(pass, &task, &rows)?;
        }

        let costs = pass.costs();
        let n_tasklets = pass.n_tasklets();
        let key = DecodeKey {
            task,
            row_bytes: self.row_bytes,
            dtype: self.dtype,
            dedup: self.dedup,
            n_samples: self.n_samples,
            n_tasklets,
        };
        let mut decoded = self.decoded.borrow_mut();
        // The stream and the rows may lie anywhere in the committed
        // bank, which reaches at least to the output region (the layout
        // places it last).
        let bank: &[u8] = pass.mram().committed_mut(out_base);
        if !decoded.serves(&key, costs.model(), bank) {
            decoded.reset();
            if self.dedup {
                decoded.decode_dedup(&key, &rows, bank, costs)?;
            } else {
                decoded.decode_csr(&key, &rows, bank, costs)?;
            }
        }
        decoded.sum_into(&key, &rows, pass.mram().committed_mut(out_end));
        let (phase1, phase2) = pass.stats_mut();
        phase1.copy_from_slice(&decoded.stats[0][..n_tasklets]);
        phase2.copy_from_slice(&decoded.stats[1][..n_tasklets]);
        Ok(())
    }
}

/// How an [`EmbeddingKernel`] of this shape divides a DPU's WRAM between
/// `n_tasklets` tasklets' locals (a stream chunk, an EMT row at `dtype`,
/// an f32 accumulator row, stack) and, under `dedup`, the shared
/// accumulator block of `n_samples` rows — the one account the engine
/// sizes [`ResidentRows`] against and checks a batch against.
pub fn wram_budget(
    row_bytes: usize,
    dtype: EmbedDtype,
    dedup: bool,
    n_tasklets: usize,
    n_samples: usize,
) -> WramBudget {
    let block = if dedup { n_samples * row_bytes } else { 0 };
    WramBudget::new(
        n_tasklets,
        dtype.stored_row_bytes(row_bytes / 4),
        row_bytes,
        block,
    )
}

/// Builds one DPU's reference stream from per-sample reference lists —
/// the convenience form of [`StreamWriter`] for tests and benches (the
/// serving path fills one writer per table and never materializes
/// per-sample lists).
///
/// `refs_per_sample[s]` holds sample `s`'s encoded references (EMT slot
/// or cache slot with [`CACHE_REF_BIT`]).
///
/// * `dedup = false` (the paper's format): a CSR stream —
///   `offsets[n_samples + 1]` followed by the flat 4-byte reference
///   array, exactly the IDX+OFFSET transfer of Fig. 4.
/// * `dedup = true` (extension): references are deduplicated across the
///   whole batch — a row shared by several samples is fetched from MRAM
///   once. Unique entries `[ref][k][k sample ids]` are dealt
///   round-robin to the `n_tasklets` tasklet streams behind a
///   per-tasklet end-offset header.
///
/// Returns the bytes to write at `input_base` (8-byte padded).
pub fn build_stream(refs_per_sample: &[Vec<u32>], n_tasklets: usize, dedup: bool) -> Vec<u8> {
    let mut writer = StreamWriter::default();
    writer.begin(1, refs_per_sample.len());
    for refs in refs_per_sample {
        for &r in refs {
            writer.push(0, r);
        }
        writer.end_sample();
    }
    let mut out = Vec::new();
    writer.write_stream(0, n_tasklets, dedup, &mut out);
    out
}

/// Stage-1 routing's one-pass stream writer: the reference streams of
/// every row partition of one table, filled in sample order and kept in
/// CSR form — per partition a flat `u32` reference array plus each
/// sample's end offset, which *is* the paper's IDX+OFFSET stream up to
/// a byte copy.
///
/// Protocol per table: [`begin`](StreamWriter::begin), then per sample
/// any number of [`push`](StreamWriter::push)es followed by one
/// [`end_sample`](StreamWriter::end_sample), then one
/// [`write_stream`](StreamWriter::write_stream) per partition. Every
/// arena is grow-only, so a warm writer allocates nothing.
#[derive(Debug, Default)]
pub struct StreamWriter {
    /// Per partition: references in sample order (only the first
    /// `parts` are live).
    refs: Vec<Vec<u32>>,
    /// Row-major `parts x (n_samples + 1)` CSR offsets: row `p` starts
    /// with 0 and holds `refs[p].len()` as of the end of each sample.
    offsets: Vec<u32>,
    parts: usize,
    n_samples: usize,
    /// Samples closed by `end_sample` so far.
    closed: usize,
    /// Dedup format only: ref -> slot in `order`/`users`. Probed once
    /// per reference on the serving path, hence the fast hasher.
    index: FxHashMap<u32, usize>,
    /// Dedup: unique refs in first-seen order.
    order: Vec<u32>,
    /// Dedup: sample ids per unique ref, parallel to `order` (recycled
    /// lazily: only the first `order.len()` entries are live).
    users: Vec<Vec<u32>>,
    /// Dedup: per-tasklet u32 streams.
    streams: Vec<Vec<u32>>,
}

/// Appends `words` to `out` as little-endian bytes (a plain copy on
/// little-endian hosts once the loop is vectorized).
fn extend_le_words(out: &mut Vec<u8>, words: &[u32]) {
    let start = out.len();
    out.resize(start + words.len() * 4, 0);
    for (dst, w) in out[start..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

impl StreamWriter {
    /// Starts a table of `parts` row partitions and `n_samples` samples,
    /// discarding the previous table's references.
    pub fn begin(&mut self, parts: usize, n_samples: usize) {
        if self.refs.len() < parts {
            self.refs.resize_with(parts, Vec::new);
        }
        for refs in &mut self.refs[..parts] {
            refs.clear();
        }
        self.offsets.clear();
        self.offsets.resize(parts * (n_samples + 1), 0);
        self.parts = parts;
        self.n_samples = n_samples;
        self.closed = 0;
    }

    /// Appends reference word `r` to the current sample of partition
    /// `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part` is not below the `parts` of the last `begin`.
    #[inline]
    pub fn push(&mut self, part: usize, r: u32) {
        self.refs[..self.parts][part].push(r);
    }

    /// Closes the current sample in every partition.
    ///
    /// # Panics
    ///
    /// Panics when called more than `n_samples` times since `begin`.
    #[inline]
    pub fn end_sample(&mut self) {
        assert!(self.closed < self.n_samples, "more samples than begun");
        self.closed += 1;
        let stride = self.n_samples + 1;
        for (p, refs) in self.refs[..self.parts].iter().enumerate() {
            self.offsets[p * stride + self.closed] = refs.len() as u32;
        }
    }

    /// Serializes partition `part`'s stream into the caller-owned `out`
    /// (cleared first, capacity reused) in the format [`build_stream`]
    /// documents.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasklets` is 0, `part` is out of range or a sample
    /// is still open.
    pub fn write_stream(&mut self, part: usize, n_tasklets: usize, dedup: bool, out: &mut Vec<u8>) {
        assert!(n_tasklets > 0, "need at least one tasklet");
        assert_eq!(self.closed, self.n_samples, "unclosed samples");
        let stride = self.n_samples + 1;
        let offsets = &self.offsets[part * stride..(part + 1) * stride];
        let refs = &self.refs[..self.parts][part];
        out.clear();
        if !dedup {
            // CSR: offsets (n_samples + 1, 8-byte padded), then refs —
            // the writer's arrays as they are.
            let off_bytes = (offsets.len() * 4 + 7) & !7;
            let ref_bytes = (refs.len() * 4 + 7) & !7;
            out.reserve(off_bytes + ref_bytes);
            extend_le_words(out, offsets);
            out.resize(off_bytes, 0);
            extend_le_words(out, refs);
            out.resize(off_bytes + ref_bytes, 0);
            return;
        }
        let StreamWriter {
            index,
            order,
            users,
            streams,
            ..
        } = self;
        // Collect (ref -> sample ids), preserving first-seen order.
        index.clear();
        order.clear();
        for (s, w) in offsets.windows(2).enumerate() {
            for &r in &refs[w[0] as usize..w[1] as usize] {
                let slot = match index.entry(r) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let slot = order.len();
                        order.push(r);
                        if users.len() <= slot {
                            users.push(Vec::new());
                        }
                        users[slot].clear();
                        e.insert(slot);
                        slot
                    }
                };
                users[slot].push(s as u32);
            }
        }
        // Deal entries round-robin to tasklet streams. Each stream leads
        // with its entry count, which round-robin dealing fixes up front:
        // tasklet t gets entries t, t + n_tasklets, ...
        if streams.len() < n_tasklets {
            streams.resize_with(n_tasklets, Vec::new);
        }
        for (t, st) in streams.iter_mut().enumerate().take(n_tasklets) {
            st.clear();
            let count = if order.len() > t {
                (order.len() - t).div_ceil(n_tasklets)
            } else {
                0
            };
            st.push(count as u32);
        }
        for (i, r) in order.iter().enumerate() {
            let t = i % n_tasklets;
            let ids = &users[i];
            streams[t].push(*r);
            streams[t].push(ids.len() as u32);
            streams[t].extend_from_slice(ids);
        }
        // Header: a leading zero plus the end offset of each tasklet's
        // stream in bytes, zero-padded to n_tasklets + 2 words and then to
        // 8 bytes — both paddings are plain zero bytes, written by the
        // final resize.
        let header_bytes = ((n_tasklets + 2) * 4 + 7) & !7;
        let body_words: usize = streams[..n_tasklets].iter().map(Vec::len).sum();
        let body_bytes = (body_words * 4 + 7) & !7;
        out.reserve(header_bytes + body_bytes);
        out.extend_from_slice(&0u32.to_le_bytes());
        let mut acc = 0u32;
        for s in &streams[..n_tasklets] {
            acc += (s.len() * 4) as u32;
            out.extend_from_slice(&acc.to_le_bytes());
        }
        out.resize(header_bytes, 0);
        for s in &streams[..n_tasklets] {
            extend_le_words(out, s);
        }
        out.resize(header_bytes + body_bytes, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upmem_sim::{PimConfig, PimSystem};

    /// Loads a toy tile, runs the kernel, checks functional output.
    fn run_case(
        rows: &[[f32; 2]],
        refs_per_sample: &[Vec<u32>],
        n_tasklets: usize,
    ) -> Vec<[f32; 2]> {
        let row_bytes = 8;
        let mut sys = PimSystem::new(PimConfig::new(1, n_tasklets)).unwrap();
        let dpu = DpuId(0);
        let mut emt = Vec::new();
        for r in rows {
            emt.extend_from_slice(&r[0].to_le_bytes());
            emt.extend_from_slice(&r[1].to_le_bytes());
        }
        sys.load_mram(dpu, 0, &emt).unwrap();
        let input_base = 4096u32;
        let stream = build_stream(refs_per_sample, n_tasklets, true);
        sys.load_mram(dpu, input_base, &stream).unwrap();
        let output_base = 8192u32;
        let mut kernel = EmbeddingKernel::new(row_bytes, true);
        kernel.n_samples = refs_per_sample.len() as u32;
        kernel.set_task(
            dpu,
            DpuTask {
                emt_base: 0,
                cache_base: 2048,
                input_base,
                output_base,
                ..DpuTask::default()
            },
        );
        sys.launch_all(&kernel).unwrap();
        let (bufs, _) = sys
            .gather(&[(dpu, output_base, refs_per_sample.len() * row_bytes)])
            .unwrap();
        bufs[0]
            .chunks_exact(8)
            .map(|c| {
                [
                    f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                ]
            })
            .collect()
    }

    #[test]
    fn sums_single_sample() {
        let rows = [[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]];
        let out = run_case(&rows, &[vec![0, 2]], 2);
        assert_eq!(out[0], [101.0, 202.0]);
    }

    #[test]
    fn correct_across_tasklet_counts() {
        let rows = [[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]];
        let refs = vec![vec![0u32], vec![1], vec![2], vec![0, 1, 2]];
        for n_tasklets in [1, 2, 3, 8, 14] {
            let out = run_case(&rows, &refs, n_tasklets);
            assert_eq!(out[0], [1.0, 2.0], "tasklets={n_tasklets}");
            assert_eq!(out[1], [10.0, 20.0]);
            assert_eq!(out[2], [100.0, 200.0]);
            assert_eq!(out[3], [111.0, 222.0]);
        }
    }

    #[test]
    fn shared_rows_are_deduplicated_across_batch() {
        // Two samples both use row 0: the stream carries one entry with
        // k = 2 regardless of the tasklet count.
        let refs = vec![vec![0u32], vec![0u32]];
        for n_tasklets in [1usize, 2] {
            let stream = build_stream(&refs, n_tasklets, true);
            let header_bytes = ((n_tasklets + 2) * 4 + 7) & !7;
            let body = &stream[header_bytes..];
            let n_entries = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            assert_eq!(n_entries, 1, "tasklets={n_tasklets}");
            let k = u32::from_le_bytes([body[8], body[9], body[10], body[11]]);
            assert_eq!(k, 2);
        }
        let out = run_case(&[[5.0, 7.0]], &refs, 2);
        assert_eq!(out[0], [5.0, 7.0]);
        assert_eq!(out[1], [5.0, 7.0]);
    }

    #[test]
    fn csr_format_is_offsets_then_refs() {
        let refs = vec![vec![7u32, 9], vec![], vec![9]];
        let stream = build_stream(&refs, 4, false);
        // offsets [0, 2, 2, 3] = 16 bytes (already 8-aligned), refs
        // [7, 9, 9] padded to 16 bytes.
        assert_eq!(stream.len(), 32);
        let off: Vec<u32> = (0..4)
            .map(|i| u32::from_le_bytes(stream[4 * i..4 * i + 4].try_into().unwrap()))
            .collect();
        assert_eq!(off, vec![0, 2, 2, 3]);
        let refs_out: Vec<u32> = (4..7)
            .map(|i| u32::from_le_bytes(stream[4 * i..4 * i + 4].try_into().unwrap()))
            .collect();
        assert_eq!(refs_out, vec![7, 9, 9]);
    }

    /// Runs the same case in CSR (no-dedup) mode.
    fn run_case_csr(
        rows: &[[f32; 2]],
        refs_per_sample: &[Vec<u32>],
        n_tasklets: usize,
    ) -> Vec<[f32; 2]> {
        let row_bytes = 8;
        let mut sys = PimSystem::new(PimConfig::new(1, n_tasklets)).unwrap();
        let dpu = DpuId(0);
        let mut emt = Vec::new();
        for r in rows {
            emt.extend_from_slice(&r[0].to_le_bytes());
            emt.extend_from_slice(&r[1].to_le_bytes());
        }
        sys.load_mram(dpu, 0, &emt).unwrap();
        let input_base = 4096u32;
        sys.load_mram(
            dpu,
            input_base,
            &build_stream(refs_per_sample, n_tasklets, false),
        )
        .unwrap();
        let mut kernel = EmbeddingKernel::new(row_bytes, false);
        kernel.n_samples = refs_per_sample.len() as u32;
        kernel.set_task(
            dpu,
            DpuTask {
                emt_base: 0,
                cache_base: 2048,
                input_base,
                output_base: 8192,
                ..DpuTask::default()
            },
        );
        sys.launch_all(&kernel).unwrap();
        let (bufs, _) = sys
            .gather(&[(dpu, 8192, refs_per_sample.len() * row_bytes)])
            .unwrap();
        bufs[0]
            .chunks_exact(8)
            .map(|c| {
                [
                    f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                ]
            })
            .collect()
    }

    #[test]
    fn csr_mode_correct_across_tasklet_counts() {
        let rows = [[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]];
        let refs = vec![vec![0u32], vec![1], vec![2], vec![0, 1, 2], vec![]];
        for n_tasklets in [1, 2, 3, 8, 14] {
            let out = run_case_csr(&rows, &refs, n_tasklets);
            assert_eq!(out[0], [1.0, 2.0], "tasklets={n_tasklets}");
            assert_eq!(out[1], [10.0, 20.0]);
            assert_eq!(out[2], [100.0, 200.0]);
            assert_eq!(out[3], [111.0, 222.0]);
            assert_eq!(out[4], [0.0, 0.0]);
        }
    }

    #[test]
    fn csr_mode_is_cheaper_to_transfer_than_dedup_entries() {
        // The CSR stream carries 4 bytes per reference; the dedup format
        // carries 12+ for unshared rows.
        let refs: Vec<Vec<u32>> = (0..16u32).map(|i| vec![i, i + 16]).collect();
        let csr = build_stream(&refs, 8, false);
        let dedup = build_stream(&refs, 8, true);
        assert!(
            csr.len() < dedup.len(),
            "csr {} vs dedup {}",
            csr.len(),
            dedup.len()
        );
    }

    #[test]
    fn empty_samples_produce_zero_rows() {
        let rows = [[1.0, 2.0]];
        let out = run_case(&rows, &[vec![], vec![0]], 2);
        assert_eq!(out[0], [0.0, 0.0]);
        assert_eq!(out[1], [1.0, 2.0]);
    }

    #[test]
    fn cache_refs_read_the_cache_region() {
        let row_bytes = 8;
        let mut sys = PimSystem::new(PimConfig::new(1, 2)).unwrap();
        let dpu = DpuId(0);
        let cache_base = 1024u32;
        sys.load_mram(dpu, 0, &[0u8; 8]).unwrap();
        let mut cached = Vec::new();
        cached.extend_from_slice(&42.0f32.to_le_bytes());
        cached.extend_from_slice(&43.0f32.to_le_bytes());
        sys.load_mram(dpu, cache_base, &cached).unwrap();
        let refs = vec![vec![CACHE_REF_BIT]];
        let input_base = 4096;
        sys.load_mram(dpu, input_base, &build_stream(&refs, 2, true))
            .unwrap();
        let mut kernel = EmbeddingKernel::new(row_bytes, true);
        kernel.n_samples = 1;
        kernel.set_task(
            dpu,
            DpuTask {
                emt_base: 0,
                cache_base,
                input_base,
                output_base: 8192,
                ..DpuTask::default()
            },
        );
        sys.launch_all(&kernel).unwrap();
        let (bufs, _) = sys.gather(&[(dpu, 8192, 8)]).unwrap();
        let x = f32::from_le_bytes(bufs[0][0..4].try_into().unwrap());
        let y = f32::from_le_bytes(bufs[0][4..8].try_into().unwrap());
        assert_eq!((x, y), (42.0, 43.0));
    }

    #[test]
    fn more_reuse_means_fewer_dma_transfers() {
        // 8 samples all hitting the same row should cost far fewer MRAM
        // reads than 8 samples hitting distinct rows.
        let rows: Vec<[f32; 2]> = (0..8).map(|i| [i as f32, 0.0]).collect();
        let shared_refs: Vec<Vec<u32>> = (0..8).map(|_| vec![0u32]).collect();
        let distinct_refs: Vec<Vec<u32>> = (0..8).map(|i| vec![i as u32]).collect();

        let run_and_count = |refs: &[Vec<u32>]| {
            let mut sys = PimSystem::new(PimConfig::new(1, 4)).unwrap();
            let dpu = DpuId(0);
            let mut emt = Vec::new();
            for r in &rows {
                emt.extend_from_slice(&r[0].to_le_bytes());
                emt.extend_from_slice(&r[1].to_le_bytes());
            }
            sys.load_mram(dpu, 0, &emt).unwrap();
            sys.load_mram(dpu, 4096, &build_stream(refs, 4, true))
                .unwrap();
            let mut kernel = EmbeddingKernel::new(8, true);
            kernel.n_samples = refs.len() as u32;
            kernel.set_task(
                dpu,
                DpuTask {
                    emt_base: 0,
                    cache_base: 2048,
                    input_base: 4096,
                    output_base: 8192,
                    ..DpuTask::default()
                },
            );
            sys.launch_all(&kernel).unwrap().total_dma_transfers()
        };
        let shared = run_and_count(&shared_refs);
        let distinct = run_and_count(&distinct_refs);
        assert!(
            shared + 6 <= distinct,
            "shared {shared} vs distinct {distinct}"
        );
    }

    /// Launches one sample with an *empty* reference list on a task of
    /// the given shape: no row is ever fetched, so whatever fails is
    /// the up-front shape check.
    fn launch_rowless(
        row_bytes: usize,
        dtype: EmbedDtype,
        (emt_base, cache_base): (u32, u32),
        dedup: bool,
    ) -> Result<upmem_sim::LaunchReport, SimError> {
        let mut sys = PimSystem::new(PimConfig::new(1, 2)).unwrap();
        let dpu = DpuId(0);
        sys.load_mram(dpu, 8192, &build_stream(&[vec![]], 2, dedup))
            .unwrap();
        let mut kernel = EmbeddingKernel::with_dtype(row_bytes, dedup, dtype);
        kernel.n_samples = 1;
        kernel.set_task(
            dpu,
            DpuTask {
                emt_base,
                cache_base,
                input_base: 8192,
                output_base: 16384,
                ..DpuTask::default()
            },
        );
        sys.launch_all(&kernel)
    }

    #[test]
    fn bad_row_shapes_fail_the_launch_before_any_row_is_read() {
        use EmbedDtype::{Int8, F32};
        let max = DMA_MAX_TRANSFER;
        for dedup in [false, true] {
            // Sanity: the planner's shape launches fine without rows.
            launch_rowless(32, F32, (0, 4096), dedup).unwrap();
            launch_rowless(32, Int8, (0, 4096), dedup).unwrap();
            for (row_bytes, dtype, bases, bad) in [
                // Odd N_c: 12-byte rows are not a multiple of the DMA grain.
                (12, F32, (0, 4096), (0, 12)),
                // The cache row is checked even when the EMT record is fine
                // (N_c = 3 as int8: 8 + 3 -> 16-byte records, 12-byte cache rows).
                (12, Int8, (0, 4096), (4096, 12)),
                // One row over the single-transfer limit.
                (max + 8, F32, (0, 8192), (0, max + 8)),
                // Misaligned region bases.
                (32, F32, (4, 4096), (4, 32)),
                (32, F32, (0, 4100), (4100, 32)),
                (32, Int8, (12, 4096), (12, 16)),
            ] {
                let err = launch_rowless(row_bytes, dtype, bases, dedup).unwrap_err();
                let want = Mram::check_dma(bad.0, bad.1).unwrap_err();
                assert_eq!(err, want, "{row_bytes} B {dtype:?} rows at {bases:?}");
            }
        }
    }

    #[test]
    fn unknown_dpu_task_is_noop() {
        let mut sys = PimSystem::new(PimConfig::new(2, 2)).unwrap();
        let kernel = EmbeddingKernel::new(8, true); // no tasks registered
        let rep = sys.launch_all(&kernel).unwrap();
        assert_eq!(rep.total_dma_transfers(), 0);
    }

    /// Runs `rows` (dim 8) through one DPU with the given dtype and
    /// stream format, returning the per-sample outputs and the launch
    /// report.
    fn run_dim8(
        rows: &[Vec<f32>],
        refs_per_sample: &[Vec<u32>],
        dtype: EmbedDtype,
        dedup: bool,
    ) -> (Vec<Vec<f32>>, upmem_sim::LaunchReport) {
        let n_c = 8usize;
        let row_bytes = n_c * 4;
        let mut sys = PimSystem::new(PimConfig::new(1, 4)).unwrap();
        let dpu = DpuId(0);
        let mut emt = Vec::new();
        for r in rows {
            assert_eq!(r.len(), n_c);
            match dtype {
                EmbedDtype::F32 => {
                    for v in r {
                        emt.extend_from_slice(&v.to_le_bytes());
                    }
                }
                EmbedDtype::Int8 => {
                    let mut rec = vec![0u8; quant::quantized_row_bytes(n_c)];
                    quant::quantize_row_into(r, &mut rec).unwrap();
                    emt.extend_from_slice(&rec);
                }
            }
        }
        sys.load_mram(dpu, 0, &emt).unwrap();
        let input_base = 8192u32;
        sys.load_mram(dpu, input_base, &build_stream(refs_per_sample, 4, dedup))
            .unwrap();
        let output_base = 16384u32;
        let mut kernel = EmbeddingKernel::with_dtype(row_bytes, dedup, dtype);
        kernel.n_samples = refs_per_sample.len() as u32;
        kernel.set_task(
            dpu,
            DpuTask {
                emt_base: 0,
                cache_base: 4096,
                input_base,
                output_base,
                ..DpuTask::default()
            },
        );
        let rep = sys.launch_all(&kernel).unwrap();
        let (bufs, _) = sys
            .gather(&[(dpu, output_base, refs_per_sample.len() * row_bytes)])
            .unwrap();
        let outs = bufs[0]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect::<Vec<f32>>()
            .chunks_exact(n_c)
            .map(<[f32]>::to_vec)
            .collect();
        (outs, rep)
    }

    fn awkward_rows(n_rows: usize) -> Vec<Vec<f32>> {
        (0..n_rows)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 8 + j) as f32).sin() * 3.7 - 1.1)
                    .collect()
            })
            .collect()
    }

    /// Per-sample error budget: the sum of each referenced row's
    /// quantization bound (summation adds the per-row errors).
    fn int8_budget(rows: &[Vec<f32>], refs: &[u32]) -> f32 {
        refs.iter()
            .map(|&r| {
                let row = &rows[r as usize];
                let lo = row.iter().cloned().fold(f32::INFINITY, f32::min);
                let hi = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let max_abs = lo.abs().max(hi.abs());
                quant::max_abs_error_bound((hi - lo) / 255.0, max_abs)
            })
            .sum::<f32>()
            * 1.5
    }

    #[test]
    fn int8_csr_matches_f32_within_quant_bound() {
        let rows = awkward_rows(24);
        let refs: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![], vec![5], (0..24).collect()];
        let (f32_out, _) = run_dim8(&rows, &refs, EmbedDtype::F32, false);
        let (i8_out, _) = run_dim8(&rows, &refs, EmbedDtype::Int8, false);
        for (s, sample_refs) in refs.iter().enumerate() {
            let budget = int8_budget(&rows, sample_refs);
            for (a, b) in f32_out[s].iter().zip(&i8_out[s]) {
                assert!(
                    (a - b).abs() <= budget,
                    "sample {s}: |{a} - {b}| > {budget}"
                );
            }
        }
    }

    #[test]
    fn int8_dedup_matches_f32_within_quant_bound() {
        let rows = awkward_rows(16);
        let refs: Vec<Vec<u32>> = vec![vec![0, 3, 3, 7], vec![3], vec![], vec![15, 0]];
        let (f32_out, _) = run_dim8(&rows, &refs, EmbedDtype::F32, true);
        let (i8_out, _) = run_dim8(&rows, &refs, EmbedDtype::Int8, true);
        for (s, sample_refs) in refs.iter().enumerate() {
            let budget = int8_budget(&rows, sample_refs);
            for (a, b) in f32_out[s].iter().zip(&i8_out[s]) {
                assert!(
                    (a - b).abs() <= budget,
                    "sample {s}: |{a} - {b}| > {budget}"
                );
            }
        }
    }

    #[test]
    fn int8_csr_launch_is_strictly_cheaper_than_f32() {
        // For n_c = 8 an int8 row is 16 B vs 32 B f32, and the fused
        // dequantize-accumulate charges fewer instructions — both the
        // DMA-engine bound and the pipeline bound shrink, so the launch
        // must be strictly faster whichever bound binds.
        let rows = awkward_rows(64);
        let refs: Vec<Vec<u32>> = (0..32)
            .map(|s| (0..8).map(|j| (s + j * 3) % 64).collect())
            .collect();
        let (_, f32_rep) = run_dim8(&rows, &refs, EmbedDtype::F32, false);
        let (_, i8_rep) = run_dim8(&rows, &refs, EmbedDtype::Int8, false);
        assert!(
            i8_rep.wall_cycles.0 < f32_rep.wall_cycles.0,
            "int8 {} !< f32 {}",
            i8_rep.wall_cycles.0,
            f32_rep.wall_cycles.0
        );
        assert!(i8_rep.total_dma_bytes() < f32_rep.total_dma_bytes());
        assert!(i8_rep.total_instrs() < f32_rep.total_instrs());
    }

    #[test]
    fn int8_constant_rows_are_exact() {
        // scale = 0 rows reconstruct exactly, so integer-valued constant
        // rows must sum bit-exactly even through the quantized path.
        let rows: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 + 1.0; 8]).collect();
        let refs: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3], vec![2]];
        let (f32_out, _) = run_dim8(&rows, &refs, EmbedDtype::F32, false);
        let (i8_out, _) = run_dim8(&rows, &refs, EmbedDtype::Int8, false);
        assert_eq!(f32_out, i8_out);
    }
}
