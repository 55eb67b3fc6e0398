//! Differential property tests for the reference stream, both ends of
//! it, against the layout in `kernel.rs`'s module docs written out
//! longhand.
//!
//! * The stage-1 stream writer, filled the way routing fills it — all
//!   partitions of a table at once, sample by sample — must produce,
//!   for every partition, the bytes of `build_stream` over that
//!   partition's per-sample lists and of the longhand layout.
//! * The stage-2 kernel, which borrows rows out of MRAM and charges in
//!   bulk, must produce the output rows *and* the per-tasklet counters
//!   of a kernel that stages every array with `mram_read`, fetches every
//!   row with its own DMA and issues every charge singly.

use dlrm_model::{quant, EmbedDtype};
use proptest::prelude::*;
use std::collections::HashMap;
use updlrm_core::kernel::StreamWriter;
use updlrm_core::{build_stream, DpuTask, EmbeddingKernel, CACHE_REF_BIT};
use upmem_sim::arch::DMA_MAX_TRANSFER;
use upmem_sim::{DpuId, DpuRunStats, Kernel, PimConfig, PimSystem, SimError, TaskletCtx};

fn pad8(out: &mut Vec<u8>) {
    out.resize((out.len() + 7) & !7, 0);
}

fn words(out: &mut Vec<u8>, ws: impl IntoIterator<Item = u32>) {
    for w in ws {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// The documented stream layout, one word at a time.
fn naive_stream(refs_per_sample: &[Vec<u32>], n_tasklets: usize, dedup: bool) -> Vec<u8> {
    let mut out = Vec::new();
    if !dedup {
        let mut end = 0u32;
        words(&mut out, [0]);
        for refs in refs_per_sample {
            end += refs.len() as u32;
            words(&mut out, [end]);
        }
        pad8(&mut out);
        words(&mut out, refs_per_sample.iter().flatten().copied());
        pad8(&mut out);
        return out;
    }
    // Unique refs in first-seen order, each with its sample ids.
    let mut slot_of: HashMap<u32, usize> = HashMap::new();
    let mut entries: Vec<(u32, Vec<u32>)> = Vec::new();
    for (s, refs) in refs_per_sample.iter().enumerate() {
        for &r in refs {
            let slot = *slot_of.entry(r).or_insert_with(|| {
                entries.push((r, Vec::new()));
                entries.len() - 1
            });
            entries[slot].1.push(s as u32);
        }
    }
    // Dealt round-robin; each tasklet stream leads with its entry count.
    let mut streams: Vec<Vec<u32>> = (0..n_tasklets)
        .map(|t| vec![entries.iter().skip(t).step_by(n_tasklets).count() as u32])
        .collect();
    for (i, (r, ids)) in entries.iter().enumerate() {
        let st = &mut streams[i % n_tasklets];
        st.push(*r);
        st.push(ids.len() as u32);
        st.extend_from_slice(ids);
    }
    let mut end = 0u32;
    words(&mut out, [0]);
    for st in &streams {
        end += 4 * st.len() as u32;
        words(&mut out, [end]);
    }
    out.resize(((n_tasklets + 2) * 4 + 7) & !7, 0);
    words(&mut out, streams.into_iter().flatten());
    pad8(&mut out);
    out
}

/// The embedding kernel written longhand: no borrowed views, no fused
/// gather, no bulk charges.
struct Longhand {
    n_c: usize,
    dedup: bool,
    int8: bool,
    n_samples: usize,
    task: DpuTask,
}

fn le_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

impl Longhand {
    fn row_bytes(&self) -> usize {
        self.n_c * 4
    }

    /// Copies `len` bytes at 4-byte-aligned `addr` out of MRAM the way
    /// a DPU program has to: the enclosing 8-byte-aligned window, one
    /// `mram_read` per `DMA_MAX_TRANSFER` chunk.
    fn staged(ctx: &mut TaskletCtx<'_>, addr: u32, len: usize) -> Result<Vec<u8>, SimError> {
        let start = addr & !7;
        let end = (addr as usize + len + 7) & !7;
        let mut window = vec![0u8; end - start as usize];
        for (i, chunk) in window.chunks_mut(DMA_MAX_TRANSFER).enumerate() {
            ctx.mram_read(start + (i * DMA_MAX_TRANSFER) as u32, chunk)?;
        }
        Ok(window[(addr - start) as usize..][..len].to_vec())
    }

    /// Fetches reference `r`'s row with a DMA of its own and decodes it
    /// to f32; also says whether it was a quantized EMT record.
    fn fetch(&self, ctx: &mut TaskletCtx<'_>, r: u32) -> Result<(Vec<f32>, bool), SimError> {
        let slot = (r & !CACHE_REF_BIT) as usize;
        let cached = r & CACHE_REF_BIT != 0;
        if cached || !self.int8 {
            let base = if cached {
                self.task.cache_base
            } else {
                self.task.emt_base
            };
            let mut row = vec![0u8; self.row_bytes()];
            ctx.mram_read(base + (slot * row.len()) as u32, &mut row)?;
            let vals = row
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()));
            return Ok((vals.collect(), false));
        }
        let mut rec = vec![0u8; quant::quantized_row_bytes(self.n_c)];
        ctx.mram_read(self.task.emt_base + (slot * rec.len()) as u32, &mut rec)?;
        let scale = f32::from_le_bytes(rec[0..4].try_into().unwrap());
        let min = f32::from_le_bytes(rec[4..8].try_into().unwrap());
        let vals = rec[8..8 + self.n_c].iter().map(|&q| min + scale * q as f32);
        Ok((vals.collect(), true))
    }

    fn run_csr(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        let n_c = self.n_c as u64;
        let refs_base = self.task.input_base + (((self.n_samples + 1) * 4 + 7) & !7) as u32;
        for s in (ctx.tasklet_id()..self.n_samples).step_by(ctx.n_tasklets()) {
            let ends = le_words(&Self::staged(ctx, self.task.input_base + 4 * s as u32, 8)?);
            ctx.charges().charge_int_ops(4);
            let (start, end) = (ends[0], ends[1]);
            let refs = if end > start {
                let bytes = 4 * (end - start) as usize;
                le_words(&Self::staged(ctx, refs_base + 4 * start, bytes)?)
            } else {
                Vec::new()
            };
            let mut acc = vec![0.0f32; self.n_c];
            ctx.charges().charge_int_ops(n_c / 2);
            for r in refs {
                ctx.charges().charge_loop(1);
                let (vals, quantized) = self.fetch(ctx, r)?;
                for (a, v) in acc.iter_mut().zip(vals) {
                    *a += v;
                }
                if quantized {
                    ctx.charges().charge_accumulate_u8(n_c, 1);
                } else {
                    ctx.charges().charge_accumulate(n_c, 1);
                }
            }
            let row: Vec<u8> = acc.iter().flat_map(|a| a.to_le_bytes()).collect();
            ctx.mram_write(self.task.output_base + (s * row.len()) as u32, &row)?;
            ctx.charges().charge_loop(1);
        }
        Ok(())
    }

    fn run_dedup(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        let n_c = self.n_c as u64;
        let rb = self.row_bytes();
        let t = ctx.tasklet_id();
        if t == 0 {
            ctx.shared_wram()[..self.n_samples * rb].fill(0);
            ctx.charges()
                .charge_int_ops(self.n_samples as u64 * n_c / 2);
        }
        let hwin = ((ctx.n_tasklets() + 2) * 4 + 7) & !7;
        let ends = le_words(&Self::staged(ctx, self.task.input_base, hwin)?);
        ctx.charges().charge_int_ops(4);
        let (start, end) = (ends[t], ends[t + 1]);
        if end == start {
            return Ok(());
        }
        let streams_base = self.task.input_base + hwin as u32;
        let stream = le_words(&Self::staged(
            ctx,
            streams_base + start,
            (end - start) as usize,
        )?);
        ctx.charges().charge_int_ops(2);
        let mut pos = 1;
        for _ in 0..stream[0] {
            let (r, k) = (stream[pos], stream[pos + 1] as usize);
            pos += 2;
            ctx.charges().charge_loop(1);
            let (vals, quantized) = self.fetch(ctx, r)?;
            if quantized {
                ctx.charges().charge_accumulate_u8(n_c, 1);
            }
            for &sample in &stream[pos..pos + k] {
                let dst = &mut ctx.shared_wram()[sample as usize * rb..][..rb];
                for (d, v) in dst.chunks_exact_mut(4).zip(&vals) {
                    let cur = f32::from_le_bytes((&*d).try_into().unwrap());
                    d.copy_from_slice(&(cur + v).to_le_bytes());
                }
                ctx.charges().charge_accumulate(n_c, 1);
            }
            pos += k;
        }
        Ok(())
    }
}

impl Kernel for Longhand {
    fn shared_wram_bytes(&self) -> usize {
        if self.dedup {
            self.n_samples * self.row_bytes()
        } else {
            0
        }
    }

    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        if self.dedup {
            self.run_dedup(ctx)
        } else {
            self.run_csr(ctx)
        }
    }

    fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        if !self.dedup {
            return Ok(());
        }
        let rb = self.row_bytes();
        for s in (ctx.tasklet_id()..self.n_samples).step_by(ctx.n_tasklets()) {
            let row = ctx.shared_wram()[s * rb..][..rb].to_vec();
            ctx.mram_write(self.task.output_base + (s * rb) as u32, &row)?;
            ctx.charges().charge_loop(1);
        }
        Ok(())
    }
}

const EMT_ROWS: usize = 200;
const CACHE_ROWS: usize = 60;
const TASK: DpuTask = DpuTask {
    emt_base: 0,
    cache_base: 8192,
    input_base: 16384,
    output_base: 32768,
};

/// Deterministic, fractional row values (so addition order matters).
fn row_values(region: usize, row: usize, n_c: usize) -> Vec<f32> {
    (0..n_c)
        .map(|j| ((region * 53 + row * 31 + j * 17) % 97) as f32 * 0.37 - 11.5)
        .collect()
}

/// Loads the tile, cache rows and `stream` into one fresh DPU, launches
/// `kernel` and returns the output region and the DPU's counters.
fn launch_on_fresh_dpu<K: Kernel>(
    kernel: &K,
    (n_c, int8, n_tasklets, n_samples): (usize, bool, usize, usize),
    stream: &[u8],
) -> (Vec<u8>, DpuRunStats) {
    let mut sys = PimSystem::new(PimConfig::new(1, n_tasklets)).unwrap();
    let dpu = DpuId(0);
    let mut emt = Vec::new();
    for row in 0..EMT_ROWS {
        let vals = row_values(0, row, n_c);
        if int8 {
            let mut rec = vec![0u8; quant::quantized_row_bytes(n_c)];
            quant::quantize_row_into(&vals, &mut rec).unwrap();
            emt.extend_from_slice(&rec);
        } else {
            emt.extend(vals.iter().flat_map(|v| v.to_le_bytes()));
        }
    }
    let cache: Vec<u8> = (0..CACHE_ROWS)
        .flat_map(|row| row_values(1, row, n_c))
        .flat_map(f32::to_le_bytes)
        .collect();
    sys.load_mram(dpu, TASK.emt_base, &emt).unwrap();
    sys.load_mram(dpu, TASK.cache_base, &cache).unwrap();
    sys.load_mram(dpu, TASK.input_base, stream).unwrap();
    let report = sys.launch_all(kernel).unwrap();
    let (out, _) = sys
        .gather(&[(dpu, TASK.output_base, n_samples * n_c * 4)])
        .unwrap();
    (out[0].clone(), report.per_dpu[0].1.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `samples[s]` is sample `s`'s `(slot, cached)` list; sample 0
    /// additionally gets `bulk` generated references, enough to push a
    /// reference array (CSR) or a tasklet stream (dedup) past one
    /// `DMA_MAX_TRANSFER` chunk. Empty samples and all-EMT, all-cache
    /// and mixed lists occur.
    #[test]
    fn kernel_matches_the_longhand_kernel_in_rows_and_counters(
        samples in prop::collection::vec(
            prop::collection::vec((0usize..EMT_ROWS, any::<bool>()), 0..12),
            1..9,
        ),
        bulk in (0usize..4).prop_map(|i| [0usize, 0, 90, 700][i]),
        n_c in (0usize..3).prop_map(|i| [2usize, 4, 8][i]),
        n_tasklets in 1usize..17,
    ) {
        let word = |slot: usize, cached: bool| {
            if cached {
                CACHE_REF_BIT | (slot % CACHE_ROWS) as u32
            } else {
                slot as u32
            }
        };
        let mut refs_per_sample: Vec<Vec<u32>> = samples
            .iter()
            .map(|s| s.iter().map(|&(slot, cached)| word(slot, cached)).collect())
            .collect();
        refs_per_sample[0].extend((0..bulk).map(|i| word(i * 7 % EMT_ROWS, i % 5 == 0)));
        let n_samples = refs_per_sample.len();
        for int8 in [false, true] {
            for dedup in [false, true] {
                let stream = build_stream(&refs_per_sample, n_tasklets, dedup);
                let shape = (n_c, int8, n_tasklets, n_samples);
                let dtype = if int8 { EmbedDtype::Int8 } else { EmbedDtype::F32 };
                let mut kernel = EmbeddingKernel::with_dtype(n_c * 4, dedup, dtype);
                kernel.n_samples = n_samples as u32;
                kernel.set_task(DpuId(0), TASK);
                let longhand = Longhand { n_c, dedup, int8, n_samples, task: TASK };
                let (rows, counters) = launch_on_fresh_dpu(&kernel, shape, &stream);
                let (want_rows, want_counters) = launch_on_fresh_dpu(&longhand, shape, &stream);
                prop_assert_eq!(rows, want_rows, "int8={} dedup={}", int8, dedup);
                prop_assert_eq!(counters, want_counters, "int8={} dedup={}", int8, dedup);
            }
        }
    }

    /// `table[s]` is sample `s`'s `(partition, ref)` list in routing
    /// order. Few distinct refs, so the dedup format sees sharing;
    /// empty samples and (with up to 5 partitions over short samples)
    /// empty partitions occur. The writer is reused across the two
    /// tables to check that `begin` leaves nothing behind.
    #[test]
    fn writer_matches_build_stream_and_the_documented_layout(
        tables in prop::collection::vec(
            (1usize..6, prop::collection::vec(
                prop::collection::vec((0usize..5, 0u32..12, any::<bool>()), 0..10),
                0..9,
            )),
            2..3,
        ),
        n_tasklets in 1usize..17,
    ) {
        let mut writer = StreamWriter::default();
        let mut out = Vec::new();
        for (parts, samples) in &tables {
            let mut per_part = vec![vec![Vec::new(); samples.len()]; *parts];
            writer.begin(*parts, samples.len());
            for (s, sample) in samples.iter().enumerate() {
                for &(p, slot, cached) in sample {
                    let r = if cached { CACHE_REF_BIT | slot } else { slot };
                    writer.push(p % parts, r);
                    per_part[p % parts][s].push(r);
                }
                writer.end_sample();
            }
            for (p, refs_per_sample) in per_part.iter().enumerate() {
                for dedup in [false, true] {
                    writer.write_stream(p, n_tasklets, dedup, &mut out);
                    prop_assert_eq!(&out, &build_stream(refs_per_sample, n_tasklets, dedup));
                    prop_assert_eq!(&out, &naive_stream(refs_per_sample, n_tasklets, dedup));
                }
            }
        }
    }
}
