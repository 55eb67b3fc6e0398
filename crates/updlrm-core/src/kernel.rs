//! The DPU-side embedding kernel (stage 2 of Fig. 4).
//!
//! Each DPU holds one tile of one embedding table (its row partition ×
//! its column slice) plus, under cache-aware partitioning, a region of
//! cached partial-sum rows. Per batch, the host writes a *reference
//! stream* into MRAM and launches this kernel.
//!
//! ## Execution model
//!
//! The host deduplicates row references across the whole batch
//! (pre-processing, Fig. 4 stage 1): a row needed by several samples is
//! fetched from MRAM exactly once. Unique rows are distributed
//! round-robin over the tasklets; every tasklet accumulates its rows
//! into a *shared* WRAM accumulator block (`n_samples x row_bytes`),
//! which on real hardware is guarded by per-accumulator mutexes (the
//! cost model charges that synchronization inside the accumulate cost).
//! Finally each tasklet writes its share of the per-sample partial-sum
//! rows to the MRAM output region.
//!
//! ## Reference stream layout (little-endian `u32`, 8-byte padded)
//!
//! ```text
//! input_base: [n_tasklets + 1 stream end-offsets, bytes rel. to streams_base]
//! per tasklet: [n_entries] { [ref] [k] [k x global sample ids] } x n_entries
//! ```
//!
//! A `ref` with [`CACHE_REF_BIT`] set addresses the cache region
//! (slot within this partition's cached combination rows), otherwise
//! the EMT region.

use dlrm_model::quant::{self, QROW_HEADER_BYTES};
use dlrm_model::{simd, EmbedDtype, FxHashMap};
use std::sync::Mutex;
use upmem_sim::arch::DMA_MAX_TRANSFER;
use upmem_sim::{Charges, DpuId, Kernel, Mram, SimError, TaskletCtx};

/// High bit of a reference word: set = cache region, clear = EMT region.
pub const CACHE_REF_BIT: u32 = 1 << 31;

/// Per-DPU launch parameters for [`EmbeddingKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpuTask {
    /// MRAM base of the EMT tile (row-major `row_bytes` rows).
    pub emt_base: u32,
    /// MRAM base of the cached combination rows.
    pub cache_base: u32,
    /// MRAM base of the reference stream written by the host.
    pub input_base: u32,
    /// MRAM base of the output region (`n_samples` rows).
    pub output_base: u32,
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
///   back after a barrier ([`Kernel::finalize`]).
///
/// Both fetch rows the same way: a tasklet run first checks the task's
/// row shape with the DMA engine's own rule ([`Mram::check_dma`] on
/// each region's first row — odd-sized or oversized rows and misaligned
/// bases fail the launch there), then every reference word goes through
/// one decode (`Rows::resolve`) to a bounds-checked row borrowed
/// straight out of MRAM.
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
    /// Registered DPUs; others return immediately. Probed by every
    /// tasklet run, hence the fast hasher.
    dpus: FxHashMap<DpuId, DpuEntry>,
}

/// One registered DPU: its launch parameters and its reusable tasklet
/// scratch. The scratch sits behind a `Mutex` only to satisfy
/// `Kernel: Sync`: all tasklets of one DPU run sequentially on one host
/// thread, and parallel launch workers own disjoint DPU sets, so every
/// lock is uncontended. Warmed buffers make steady-state runs
/// allocation free.
#[derive(Debug)]
struct DpuEntry {
    task: DpuTask,
    scratch: Mutex<TaskletScratch>,
}

/// Reusable buffers for one DPU's tasklets.
#[derive(Debug, Default)]
struct TaskletScratch {
    /// f32 accumulator (row decode / CSR sample accumulate).
    acc: Vec<f32>,
    /// Absolute MRAM byte offsets of one sample's rows, staged for the
    /// fused [`simd::sum_rows_le`] gather (CSR f32 arm).
    offs: Vec<usize>,
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
}

impl Rows {
    /// The one reference decode: maps reference word `r` to its row's
    /// absolute byte offset in a bank of `bank_len` bytes, plus whether
    /// the row is stored as f32 (else a quantized EMT record). A row
    /// past the bank fails with the error its DMA fetch would raise.
    #[inline]
    fn resolve(&self, r: u32, bank_len: usize) -> Result<(usize, bool), SimError> {
        let cached = r & CACHE_REF_BIT != 0;
        let (base, stride) = if cached {
            (self.cache_base, self.cache_stride)
        } else {
            (self.emt_base, self.emt_stride)
        };
        let off = (r & !CACHE_REF_BIT) as usize * stride;
        let abs = base as usize + off;
        if abs + stride > bank_len {
            return Err(SimError::MramOutOfBounds {
                addr: base.wrapping_add(off as u32),
                len: stride,
                capacity: bank_len,
            });
        }
        Ok((abs, cached || self.emt_f32))
    }
}

fn u32_at(buf: &[u8], idx: usize) -> u32 {
    u32::from_le_bytes([
        buf[4 * idx],
        buf[4 * idx + 1],
        buf[4 * idx + 2],
        buf[4 * idx + 3],
    ])
}

/// Charges a contiguous `len`-byte MRAM read as the series of
/// `<= DMA_MAX_TRANSFER` chunks a staged copy would issue.
fn charge_chunked(ch: &mut Charges<'_>, len: usize) {
    ch.charge_dma(DMA_MAX_TRANSFER, (len / DMA_MAX_TRANSFER) as u64);
    let rest = len % DMA_MAX_TRANSFER;
    ch.charge_dma(rest, u64::from(rest > 0));
}

/// Adds the quantized EMT record `qrow` into `acc`, dequantizing on the
/// fly.
#[inline]
fn add_dequant(acc: &mut [f32], qrow: &[u8]) -> Result<(), SimError> {
    let (scale, min) = quant::row_params(qrow).map_err(|e| SimError::KernelFault(e.to_string()))?;
    let q = &qrow[QROW_HEADER_BYTES..QROW_HEADER_BYTES + acc.len()];
    simd::add_assign_dequant_u8(acc, q, scale, min);
    Ok(())
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

    /// Registers one DPU's launch parameters, keeping its warmed
    /// scratch if it was registered before.
    pub fn set_task(&mut self, dpu: DpuId, task: DpuTask) {
        self.dpus
            .entry(dpu)
            .and_modify(|entry| entry.task = task)
            .or_insert_with(|| DpuEntry {
                task,
                scratch: Mutex::default(),
            });
    }

    /// Every registered DPU's launch parameters, for repointing regions
    /// in place (the migration flip).
    pub fn tasks_mut(&mut self) -> impl Iterator<Item = &mut DpuTask> {
        self.dpus.values_mut().map(|entry| &mut entry.task)
    }

    /// CSR mode: each tasklet serves its own samples end to end.
    ///
    /// The whole read side (offset pairs, reference arrays, embedding
    /// and cache rows) runs over a [`TaskletCtx::split_reader`] window:
    /// every array is borrowed straight out of MRAM with zero staging
    /// copies, while the matching DMA charges go through the split-off
    /// [`upmem_sim::Charges`] — the same charge sequence the copying
    /// path would issue, so modeled time is unchanged. The reader spans
    /// everything below the output region (EMT, cache, input — the
    /// layout places output last), which is exactly the kernel's read
    /// footprint.
    fn run_csr(
        &self,
        ctx: &mut TaskletCtx<'_>,
        task: DpuTask,
        rows: Rows,
        scr: &mut TaskletScratch,
    ) -> Result<(), SimError> {
        let t = ctx.tasklet_id();
        let n_tasklets = ctx.n_tasklets();
        let n_c = self.row_bytes / 4;
        let n_samples = self.n_samples as usize;
        let refs_base = task.input_base + (((n_samples + 1) * 4 + 7) & !7) as u32;
        let mut s = t;
        while s < n_samples {
            let (mram, ch) = ctx.split_reader(task.output_base as usize);
            // offsets[s], offsets[s+1]: the 8-byte request spans at most
            // 16 aligned bytes, always a single DMA.
            let oaddr = task.input_base + (4 * s) as u32;
            let ostart = oaddr & !7;
            let oend = (oaddr as usize + 8 + 7) & !7;
            let ow = mram.dma(ostart, oend - ostart as usize)?;
            ch.charge_dma(oend - ostart as usize, 1);
            let olead = (oaddr - ostart) as usize;
            let start = u32_at(&ow[olead..], 0) as usize;
            let end = u32_at(&ow[olead..], 1) as usize;
            ch.charge_int_ops(4);
            if end < start {
                return Err(SimError::KernelFault(format!(
                    "sample {s}: offsets decrease ({start}..{end})"
                )));
            }
            let n_refs = end - start;
            // Reference array: one contiguous borrow, charged as the
            // chunk series of a staged read.
            let raddr = refs_base + (4 * start) as u32;
            let rstart = raddr & !7;
            let rend = (raddr as usize + 4 * n_refs + 7) & !7;
            let window = rend - rstart as usize;
            let refs = if n_refs > 0 {
                charge_chunked(ch, window);
                &mram.window(rstart, window)?[(raddr - rstart) as usize..]
            } else {
                &[][..]
            };
            scr.acc.clear();
            scr.acc.resize(n_c, 0.0);
            ch.charge_int_ops((n_c / 2) as u64);
            // Rows are indexed straight out of the bank and their
            // fetch/accumulate/loop charges issued in bulk: every charge
            // counter is an integer, so one charge multiplied by `n`
            // and `n` single charges are the same sum.
            ch.charge_loop(n_refs as u64);
            let bank = mram.bytes();
            let mut n_u8 = 0u64;
            if rows.emt_f32 {
                // Every row has the same shape: resolve them all, then
                // accumulate in one fused SIMD pass that keeps the
                // accumulator in registers.
                scr.offs.clear();
                for i in 0..n_refs {
                    scr.offs.push(rows.resolve(u32_at(refs, i), bank.len())?.0);
                }
                simd::sum_rows_le(&mut scr.acc, bank, &scr.offs);
            } else {
                for i in 0..n_refs {
                    let (abs, f32_row) = rows.resolve(u32_at(refs, i), bank.len())?;
                    if f32_row {
                        simd::add_assign_le(&mut scr.acc, &bank[abs..abs + self.row_bytes]);
                    } else {
                        add_dequant(&mut scr.acc, &bank[abs..abs + rows.emt_stride])?;
                        n_u8 += 1;
                    }
                }
            }
            let n_f32 = n_refs as u64 - n_u8;
            ch.charge_dma(self.row_bytes, n_f32);
            ch.charge_dma(rows.emt_stride, n_u8);
            ch.charge_accumulate(n_c as u64, n_f32);
            ch.charge_accumulate_u8(n_c as u64, n_u8);
            let dst = ctx.mram_view_mut(
                task.output_base + (s * self.row_bytes) as u32,
                self.row_bytes,
            )?;
            for (b, a) in dst.chunks_exact_mut(4).zip(scr.acc.iter()) {
                b.copy_from_slice(&a.to_le_bytes());
            }
            ctx.charges().charge_loop(1);
            s += n_tasklets;
        }
        Ok(())
    }

    /// Dedup mode: unique rows dealt round-robin, accumulated into the
    /// shared WRAM block.
    fn run_dedup(
        &self,
        ctx: &mut TaskletCtx<'_>,
        task: DpuTask,
        rows: Rows,
        scr: &mut TaskletScratch,
    ) -> Result<(), SimError> {
        let t = ctx.tasklet_id();
        let n_tasklets = ctx.n_tasklets();
        let n_c = self.row_bytes / 4;
        let n_samples = self.n_samples as usize;
        let acc_bytes = n_samples * self.row_bytes;
        // As in `run_csr`, the read side (header, tasklet stream,
        // rows) is borrowed zero-copy from a split reader; the shared
        // accumulator block comes from the same split, so row views
        // stay alive across shared-WRAM accumulates. Charges mirror the
        // staged-copy path exactly.
        let (mram, shared, ch) = ctx.split_reader_shared(task.output_base as usize);
        let bank = mram.bytes();

        // Tasklet 0 zeroes the shared accumulator block (the others
        // wait at a barrier on real hardware; launch overhead covers it).
        if t == 0 {
            shared[..acc_bytes].fill(0);
            ch.charge_int_ops((n_samples * n_c / 2) as u64);
        }

        // Header: stream end-offsets for every tasklet (one padded DMA
        // window — `MAX_TASKLETS + 2` u32s fit a single transfer).
        let hwin = ((n_tasklets + 2) * 4 + 7) & !7;
        let hdr = mram.dma(task.input_base, hwin)?;
        ch.charge_dma(hwin, 1);
        ch.charge_int_ops(4);
        let streams_base = task.input_base + hwin as u32;
        let start = u32_at(hdr, t);
        let end = u32_at(hdr, t + 1);
        if end < start {
            return Err(SimError::KernelFault(format!(
                "tasklet {t}: stream ends before it starts ({start}..{end})"
            )));
        }

        // This tasklet's unique-row entries: one contiguous borrow,
        // charged as the chunk series of a staged read.
        let slen = (end - start) as usize;
        if slen > 0 {
            let saddr = streams_base + start;
            let sstart = saddr & !7;
            let send = (saddr as usize + slen + 7) & !7;
            let swin = send - sstart as usize;
            let sview = mram.window(sstart, swin)?;
            charge_chunked(ch, swin);
            let stream = &sview[(saddr - sstart) as usize..];
            let n_entries = u32_at(stream, 0) as usize;
            ch.charge_int_ops(2);
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
                // Resolve the row address, fetch it once, and decode it
                // to f32 once; it is added into every referencing
                // sample below.
                ch.charge_loop(1);
                let (abs, f32_row) = rows.resolve(r, bank.len())?;
                scr.acc.clear();
                if f32_row {
                    ch.charge_dma(self.row_bytes, 1);
                    scr.acc.extend(
                        bank[abs..abs + self.row_bytes]
                            .chunks_exact(4)
                            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
                    );
                } else {
                    // Quantized EMT row: fetch the narrow record and
                    // dequantize into the per-entry decode buffer (the
                    // dequantize cost rides on the u8 accumulate charge).
                    ch.charge_dma(rows.emt_stride, 1);
                    scr.acc.resize(n_c, 0.0);
                    add_dequant(&mut scr.acc, &bank[abs..abs + rows.emt_stride])?;
                    ch.charge_accumulate_u8(n_c as u64, 1);
                }
                // Accumulate into each referencing sample's shared row
                // (mutex-guarded on hardware; cost inside the charge).
                for j in 0..k {
                    let sample = u32_at(stream, pos + j) as usize;
                    if sample >= n_samples {
                        return Err(SimError::KernelFault(format!(
                            "sample id {sample} out of range {n_samples}"
                        )));
                    }
                    let off = sample * self.row_bytes;
                    let dst = &mut shared[off..off + self.row_bytes];
                    simd::add_assign_into_le(dst, &scr.acc);
                }
                ch.charge_accumulate(n_c as u64, k as u64);
                pos += k;
            }
        }

        Ok(())
    }
}

impl Kernel for EmbeddingKernel {
    fn shared_wram_bytes(&self) -> usize {
        // Dedup mode's shared accumulator block: one row per sample.
        if self.dedup {
            self.n_samples as usize * self.row_bytes
        } else {
            0
        }
    }

    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        let Some(entry) = self.dpus.get(&ctx.dpu_id()) else {
            return Ok(());
        };
        let task = entry.task;
        let rows = Rows {
            emt_base: task.emt_base,
            emt_stride: self.emt_row_bytes(),
            cache_base: task.cache_base,
            cache_stride: self.row_bytes,
            emt_f32: self.dtype == EmbedDtype::F32,
        };
        // Every row fetch is one DMA of its region's stride from its
        // region's base plus a multiple of that stride, so the first
        // row's check covers the shape of all of them.
        Mram::check_dma(rows.emt_base, rows.emt_stride)?;
        Mram::check_dma(rows.cache_base, rows.cache_stride)?;
        let scr = &mut entry.scratch.lock().unwrap_or_else(|e| e.into_inner());
        if self.dedup {
            self.run_dedup(ctx, task, rows, scr)
        } else {
            self.run_csr(ctx, task, rows, scr)
        }
    }

    fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        // Post-barrier phase (dedup mode only): each tasklet writes its
        // share of the per-sample output rows from the shared
        // accumulators to MRAM.
        if !self.dedup {
            return Ok(());
        }
        let Some(entry) = self.dpus.get(&ctx.dpu_id()) else {
            return Ok(());
        };
        let n_tasklets = ctx.n_tasklets();
        let mut s = ctx.tasklet_id();
        while s < self.n_samples as usize {
            let off = s * self.row_bytes;
            let dst = entry.task.output_base + off as u32;
            ctx.mram_write_from_shared(dst, off, self.row_bytes)?;
            ctx.charges().charge_loop(1);
            s += n_tasklets;
        }
        Ok(())
    }
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
