//! Differential property tests for the reference stream, both ends of
//! it, against the layout in `kernel.rs`'s module docs written out
//! longhand.
//!
//! * The stage-1 stream writer, filled the way routing fills it — all
//!   partitions of a table at once, sample by sample — must produce,
//!   for every partition, the bytes of `build_stream` over that
//!   partition's per-sample lists and of the longhand layout.
//! * The stage-2 kernel, which runs a whole DPU in one pass — one
//!   decode per distinct stream, counters derived from the offsets,
//!   rows summed straight into the output region — must produce the
//!   output rows *and* the per-tasklet counters of the tasklet program
//!   it models, written as a [`Kernel`] the simulator interprets
//!   tasklet by tasklet: every array staged with `mram_read`, every row
//!   fetched with its own DMA, every charge issued singly. Streams with
//!   one fault must fail both the same way.
//! * The tasklet program has a real WRAM: when its task declares
//!   resident rows it copies them MRAM→WRAM chunk by chunk in a fill
//!   phase — unless the shared region already carries their tag — and
//!   serves a resident reference from those bytes, with no DMA. The
//!   kernel's counters, fill phase and rows must equal it there too,
//!   launch after launch.

use dlrm_model::{quant, EmbedDtype};
use proptest::prelude::*;
use std::collections::HashMap;
use updlrm_core::kernel::{StreamWriter, RESIDENT_TAG_BYTES, RESIDENT_TAG_MAGIC};
use updlrm_core::{build_stream, DpuTask, EmbeddingKernel, ResidentRows, CACHE_REF_BIT};
use upmem_sim::arch::{DMA_MAX_TRANSFER, MRAM_CAPACITY};
use upmem_sim::{
    CostModel, DpuId, DpuProgram, DpuRunStats, Kernel, PimConfig, PimSystem, SimError, TaskletCtx,
    TaskletStats, TASKLET_STACK_BYTES,
};

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

/// The embedding kernel written longhand, tasklet by tasklet: no shared
/// decode, no fused gather, no bulk charges, and a resident block that
/// lives in `ctx.shared_wram()`.
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

    /// Bytes per EMT row as stored.
    fn emt_row_bytes(&self) -> usize {
        if self.int8 {
            quant::quantized_row_bytes(self.n_c)
        } else {
            self.row_bytes()
        }
    }

    /// The resident block's layout in shared WRAM: `[tag | EMT slots
    /// 0..emt_rows | cache slots 0..cache_rows]`; returns the offsets
    /// of the two row arrays and the block's length (all zero when
    /// nothing is resident).
    fn resident_layout(&self) -> (usize, usize, usize) {
        let r = self.task.resident;
        if r.emt_rows == 0 && r.cache_rows == 0 {
            return (0, 0, 0);
        }
        let emt_at = RESIDENT_TAG_BYTES;
        let cache_at = emt_at + r.emt_rows as usize * self.emt_row_bytes();
        (
            emt_at,
            cache_at,
            cache_at + r.cache_rows as usize * self.row_bytes(),
        )
    }

    /// What the block's tag reads once it holds this task's rows.
    fn tag(&self) -> Vec<u8> {
        let r = self.task.resident;
        let mut tag = Vec::new();
        words(
            &mut tag,
            [
                r.epoch,
                self.task.emt_base,
                self.task.cache_base,
                r.emt_rows,
                r.cache_rows,
                RESIDENT_TAG_MAGIC,
            ],
        );
        tag
    }

    /// The fill phase: unless the tag is in place, tasklet `t` copies
    /// chunks `t, t + n_tasklets, ...` of the two resident row arrays,
    /// one `mram_read` each; the tasklet that runs last sets the tag.
    fn fill(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        let (emt_at, cache_at, end) = self.resident_layout();
        if end == 0 || ctx.shared_wram()[..RESIDENT_TAG_BYTES] == self.tag()[..] {
            return Ok(());
        }
        let arrays = [
            (self.task.emt_base, emt_at, cache_at - emt_at),
            (self.task.cache_base, cache_at, end - cache_at),
        ];
        let mut chunk = 0;
        for (base, at, len) in arrays {
            for off in (0..len).step_by(DMA_MAX_TRANSFER) {
                if chunk % ctx.n_tasklets() == ctx.tasklet_id() {
                    let mut buf = vec![0u8; DMA_MAX_TRANSFER.min(len - off)];
                    ctx.mram_read(base + off as u32, &mut buf)?;
                    ctx.shared_wram()[at + off..][..buf.len()].copy_from_slice(&buf);
                    ctx.charges().charge_loop(1);
                }
                chunk += 1;
            }
        }
        if ctx.tasklet_id() + 1 == ctx.n_tasklets() {
            let tag = self.tag();
            ctx.shared_wram()[..RESIDENT_TAG_BYTES].copy_from_slice(&tag);
        }
        Ok(())
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

    /// Reads reference `r`'s row — out of the resident block when its
    /// slot is below its region's threshold, else with a DMA of its own
    /// — and decodes it to f32; also says whether it was a quantized
    /// EMT record.
    fn fetch(&self, ctx: &mut TaskletCtx<'_>, r: u32) -> Result<(Vec<f32>, bool), SimError> {
        let slot = (r & !CACHE_REF_BIT) as usize;
        let cached = r & CACHE_REF_BIT != 0;
        let (emt_at, cache_at, _) = self.resident_layout();
        let (base, len, resident_below, at) = if cached {
            let below = self.task.resident.cache_rows;
            (self.task.cache_base, self.row_bytes(), below, cache_at)
        } else {
            let below = self.task.resident.emt_rows;
            (self.task.emt_base, self.emt_row_bytes(), below, emt_at)
        };
        let mut row = vec![0u8; len];
        if slot < resident_below as usize {
            row.copy_from_slice(&ctx.shared_wram()[at + slot * len..][..len]);
            ctx.charges().charge_wram_rows(1);
        } else {
            ctx.mram_read(base + (slot * len) as u32, &mut row)?;
        }
        if cached || !self.int8 {
            let vals = row
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()));
            return Ok((vals.collect(), false));
        }
        let rec = row;
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
            if end < start {
                return Err(SimError::KernelFault(format!(
                    "sample {s}: offsets decrease"
                )));
            }
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
        // The accumulator block follows the resident block.
        let acc_at = self.resident_layout().2;
        if t == 0 {
            ctx.shared_wram()[acc_at..][..self.n_samples * rb].fill(0);
            ctx.charges()
                .charge_int_ops(self.n_samples as u64 * n_c / 2);
        }
        let hwin = ((ctx.n_tasklets() + 2) * 4 + 7) & !7;
        let ends = le_words(&Self::staged(ctx, self.task.input_base, hwin)?);
        ctx.charges().charge_int_ops(4);
        let (start, end) = (ends[t], ends[t + 1]);
        if end < start {
            return Err(SimError::KernelFault(format!(
                "tasklet {t}: offsets decrease"
            )));
        }
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
                let dst = &mut ctx.shared_wram()[acc_at + sample as usize * rb..][..rb];
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
        let acc = if self.dedup {
            self.n_samples * self.row_bytes()
        } else {
            0
        };
        self.resident_layout().2 + acc
    }

    /// A stream chunk, an EMT row, an accumulator row and the stack.
    fn tasklet_wram_bytes(&self) -> usize {
        DMA_MAX_TRANSFER + self.emt_row_bytes() + self.row_bytes() + TASKLET_STACK_BYTES
    }

    fn prepare(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        self.fill(ctx)
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
        let acc_at = self.resident_layout().2;
        for s in (ctx.tasklet_id()..self.n_samples).step_by(ctx.n_tasklets()) {
            let row = ctx.shared_wram()[acc_at + s * rb..][..rb].to_vec();
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
    resident: ResidentRows {
        emt_rows: 0,
        cache_rows: 0,
        epoch: 0,
    },
};

/// Deterministic, fractional row values (so addition order matters),
/// different in every region of every DPU.
fn row_values(region: usize, row: usize, n_c: usize) -> Vec<f32> {
    (0..n_c)
        .map(|j| ((region * 53 + row * 31 + j * 17) % 97) as f32 * 0.37 - 11.5)
        .collect()
}

/// The tile shape of one case.
#[derive(Clone, Copy)]
struct Shape {
    n_c: usize,
    int8: bool,
    dedup: bool,
    n_tasklets: usize,
    n_samples: usize,
}

impl Shape {
    fn dtype(&self) -> EmbedDtype {
        if self.int8 {
            EmbedDtype::Int8
        } else {
            EmbedDtype::F32
        }
    }

    /// The kernel under test, with `task` registered on the first
    /// `n_dpus` DPUs.
    fn kernel(&self, task: DpuTask, n_dpus: usize) -> EmbeddingKernel {
        let mut kernel = EmbeddingKernel::with_dtype(self.n_c * 4, self.dedup, self.dtype());
        kernel.n_samples = self.n_samples as u32;
        for d in 0..n_dpus {
            kernel.set_task(DpuId(d as u32), task);
        }
        kernel
    }

    fn longhand(&self, task: DpuTask) -> Longhand {
        Longhand {
            n_c: self.n_c,
            dedup: self.dedup,
            int8: self.int8,
            n_samples: self.n_samples,
            task,
        }
    }

    /// `EMT_ROWS` tile rows (in this shape's dtype) and `CACHE_ROWS`
    /// cache rows of value family `seed`.
    fn regions(&self, seed: usize) -> (Vec<u8>, Vec<u8>) {
        let mut emt = Vec::new();
        for row in 0..EMT_ROWS {
            let vals = row_values(2 * seed, row, self.n_c);
            if self.int8 {
                let mut rec = vec![0u8; quant::quantized_row_bytes(self.n_c)];
                quant::quantize_row_into(&vals, &mut rec).unwrap();
                emt.extend_from_slice(&rec);
            } else {
                emt.extend(vals.iter().flat_map(|v| v.to_le_bytes()));
            }
        }
        let cache = (0..CACHE_ROWS)
            .flat_map(|row| row_values(2 * seed + 1, row, self.n_c))
            .flat_map(f32::to_le_bytes)
            .collect();
        (emt, cache)
    }

    /// A system of one DPU per stream — each with a tile and cache rows
    /// of its own, as the column slices of a partition have — with
    /// `streams[d]` loaded at DPU `d`'s `task.input_base`.
    fn fleet(&self, task: DpuTask, streams: &[&[u8]]) -> PimSystem {
        let mut sys = PimSystem::new(PimConfig::new(streams.len(), self.n_tasklets)).unwrap();
        for (d, stream) in streams.iter().enumerate() {
            let dpu = DpuId(d as u32);
            let (emt, cache) = self.regions(d);
            sys.load_mram(dpu, task.emt_base, &emt).unwrap();
            sys.load_mram(dpu, task.cache_base, &cache).unwrap();
            sys.load_mram(dpu, task.input_base, stream).unwrap();
        }
        sys
    }
}

/// Launches `program` on every DPU of `sys` and returns each DPU's
/// output region and counters.
fn launch<P: DpuProgram>(
    sys: &mut PimSystem,
    program: &P,
    task: DpuTask,
    shape: Shape,
) -> Result<Vec<(Vec<u8>, DpuRunStats)>, SimError> {
    let report = sys.launch_all(program)?;
    let out_len = shape.n_samples * shape.n_c * 4;
    Ok(report
        .per_dpu
        .into_iter()
        .map(|(dpu, stats)| {
            let (out, _) = sys.gather(&[(dpu, task.output_base, out_len)]).unwrap();
            (out[0].clone(), stats)
        })
        .collect())
}

/// The two kinds a malformed stream is refused with.
fn is_stream_fault(e: &SimError) -> bool {
    matches!(
        e,
        SimError::KernelFault(_) | SimError::MramOutOfBounds { .. }
    )
}

/// One reference word: an EMT slot, or a cache slot.
fn word(slot: usize, cached: bool) -> u32 {
    if cached {
        CACHE_REF_BIT | (slot % CACHE_ROWS) as u32
    } else {
        slot as u32
    }
}

/// Overwrites little-endian word `idx` of `stream`.
fn patch(stream: &mut [u8], idx: usize, w: u32) {
    stream[4 * idx..4 * idx + 4].copy_from_slice(&w.to_le_bytes());
}

/// The single-fault streams: `(what, task, bytes loaded at
/// task.input_base)`.
fn faulty_streams(shape: Shape) -> Vec<(&'static str, DpuTask, Vec<u8>)> {
    let good: Vec<Vec<u32>> = vec![vec![3, 5], vec![7], vec![9, 11, 13]];
    let build = |refs: &[Vec<u32>]| build_stream(refs, shape.n_tasklets, shape.dedup);

    // Offsets that decrease: sample 1's end below its start (CSR);
    // tasklet 0's stream end below its start (dedup; the header leads
    // with a zero, so the start is made non-zero instead).
    let mut decreasing = build(&good);
    if shape.dedup {
        patch(&mut decreasing, 0, 8);
        patch(&mut decreasing, 1, 4);
    } else {
        patch(&mut decreasing, 2, 1);
    }

    // A reference to the first EMT row past the 64 MB bank.
    let past_row = MRAM_CAPACITY / shape.dtype().stored_row_bytes(shape.n_c);
    let past_bank = build(&[vec![3], vec![past_row as u32], vec![5]]);

    // A stream laid over the last 64 bytes of the bank that announces
    // more references than fit before the bank ends.
    let long = build(&[(0..600).map(|i| word(i % EMT_ROWS, false)).collect()]);
    let tail_task = DpuTask {
        input_base: (MRAM_CAPACITY - 64) as u32,
        ..TASK
    };

    vec![
        ("decreasing offsets", TASK, decreasing),
        ("reference past the bank", TASK, past_bank),
        (
            "reference array truncated by the bank end",
            tail_task,
            long[..64].to_vec(),
        ),
    ]
}

/// A stream with one fault fails the launch the way the tasklet program
/// does, twice in a row, and the kernel that failed then serves a
/// well-formed stream it had decoded before the failures: a failed
/// decode leaves nothing to reuse, and does not spoil the kernel.
#[test]
fn single_fault_streams_fail_like_the_longhand_kernel_and_leave_no_memo() {
    let refs: Vec<Vec<u32>> = vec![vec![3, 5, word(4, true)], vec![], vec![9, 3, 13]];
    for (int8, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
        let shape = Shape {
            n_c: 8,
            int8,
            dedup,
            n_tasklets: 3,
            n_samples: refs.len(),
        };
        let good = build_stream(&refs, shape.n_tasklets, dedup);
        let want = launch(
            &mut shape.fleet(TASK, &[&good]),
            &shape.longhand(TASK),
            TASK,
            shape,
        )
        .unwrap();
        for (what, task, bytes) in faulty_streams(shape) {
            let case = format!("{what}, int8={int8} dedup={dedup}");
            let longhand = launch(
                &mut shape.fleet(task, &[&bytes]),
                &shape.longhand(task),
                task,
                shape,
            )
            .expect_err(&case);
            assert!(is_stream_fault(&longhand), "{case}: longhand {longhand}");

            let mut kernel = shape.kernel(TASK, 1);
            let mut sys = shape.fleet(TASK, &[&good]);
            assert_eq!(
                launch(&mut sys, &kernel, TASK, shape).unwrap(),
                want,
                "{case}"
            );
            kernel.set_task(DpuId(0), task);
            sys.load_mram(DpuId(0), task.input_base, &bytes).unwrap();
            for attempt in 0..2 {
                let err = launch(&mut sys, &kernel, task, shape).expect_err(&case);
                assert_eq!(
                    std::mem::discriminant(&err),
                    std::mem::discriminant(&longhand),
                    "{case}, attempt {attempt}: {err} vs longhand {longhand}"
                );
            }
            kernel.set_task(DpuId(0), TASK);
            sys.load_mram(DpuId(0), TASK.input_base, &good).unwrap();
            assert_eq!(
                launch(&mut sys, &kernel, TASK, shape).unwrap(),
                want,
                "{case}"
            );
        }
    }
}

/// The migration flip repoints a kernel's tasks at the other EMT/cache
/// region pair (`tasks_mut`) while the staged stream bytes stay what
/// they were: the rows must come from the new regions.
#[test]
fn repointed_bases_are_served_from_the_new_regions() {
    let refs: Vec<Vec<u32>> = vec![vec![3, 5, word(4, true)], vec![word(7, true)], vec![9, 3]];
    let flipped = DpuTask {
        emt_base: 65536,
        cache_base: 65536 + 8192,
        ..TASK
    };
    for (int8, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
        let shape = Shape {
            n_c: 4,
            int8,
            dedup,
            n_tasklets: 2,
            n_samples: refs.len(),
        };
        let stream = build_stream(&refs, shape.n_tasklets, dedup);
        let mut sys = shape.fleet(TASK, &[&stream]);
        let (emt, cache) = shape.regions(9);
        sys.load_mram(DpuId(0), flipped.emt_base, &emt).unwrap();
        sys.load_mram(DpuId(0), flipped.cache_base, &cache).unwrap();
        let mut kernel = shape.kernel(TASK, 1);
        let before = launch(&mut sys, &kernel, TASK, shape).unwrap();
        for task in kernel.tasks_mut() {
            (task.emt_base, task.cache_base) = (flipped.emt_base, flipped.cache_base);
        }
        let after = launch(&mut sys, &kernel, TASK, shape).unwrap();
        let want = launch(&mut sys, &shape.longhand(flipped), TASK, shape).unwrap();
        assert_eq!(after, want, "int8={int8} dedup={dedup}");
        assert_ne!(after[0].0, before[0].0, "the regions hold different rows");
    }
}

/// A task like `TASK` keeping the first `emt_rows` EMT slots and
/// `cache_rows` cache slots WRAM-resident, generation `epoch`.
fn resident_task(task: DpuTask, emt_rows: u32, cache_rows: u32, epoch: u32) -> DpuTask {
    DpuTask {
        resident: ResidentRows {
            emt_rows,
            cache_rows,
            epoch,
        },
        ..task
    }
}

/// References of `refs_per_sample` a task's resident rows serve: every
/// one in the CSR format, each distinct word once in the dedup format.
fn resident_refs(refs_per_sample: &[Vec<u32>], task: DpuTask, dedup: bool) -> u64 {
    let mut words: Vec<u32> = refs_per_sample.iter().flatten().copied().collect();
    if dedup {
        words.sort_unstable();
        words.dedup();
    }
    let resident = |&r: &u32| {
        let below = if r & CACHE_REF_BIT != 0 {
            task.resident.cache_rows
        } else {
            task.resident.emt_rows
        };
        r & !CACHE_REF_BIT < below
    };
    words.iter().filter(|r| resident(r)).count() as u64
}

/// The CI guard that nothing resident *is* the pre-change model: the
/// per-tasklet counters and launch cycles of a fixed case — 700
/// references in one sample (several stream chunks), an empty sample,
/// cache and EMT rows, three tasklets — as the parent of the
/// WRAM-residency change printed them, for both formats and dtypes.
#[test]
fn nothing_resident_is_the_pre_change_closed_form() {
    let mut refs: Vec<Vec<u32>> = vec![
        vec![3, 5, word(4, true)],
        vec![],
        vec![9, 3, 13],
        vec![word(7, true)],
    ];
    refs[0].extend((0..700).map(|i| word(i * 7 % EMT_ROWS, i % 5 == 0)));
    // (int8, dedup) -> launch cycles, then per tasklet [instrs,
    // dma_cycles, dma_engine_cycles, dma_transfers, dma_bytes].
    type Pinned = ((bool, bool), u64, [[u64; 5]; 3]);
    let pinned: [Pinned; 4] = [
        (
            (false, false),
            358_911,
            [
                [25404, 67467, 24096, 711, 25440],
                [24, 178, 56, 2, 48],
                [136, 538, 172, 6, 152],
            ],
        ),
        (
            (false, true),
            90_164,
            [
                [6378, 6547, 2704, 63, 3392],
                [6506, 6373, 2652, 61, 3352],
                [6290, 6353, 2632, 61, 3312],
            ],
        ),
        (
            (true, false),
            342_051,
            [
                [24280, 62971, 19600, 711, 16448],
                [24, 178, 56, 2, 48],
                [130, 514, 148, 6, 104],
            ],
        ),
        (
            (true, true),
            102_566,
            [
                [7588, 6107, 2264, 63, 2512],
                [7672, 5949, 2228, 61, 2504],
                [7456, 5929, 2208, 61, 2464],
            ],
        ),
    ];
    for ((int8, dedup), cycles, per_tasklet) in pinned {
        let shape = Shape {
            n_c: 8,
            int8,
            dedup,
            n_tasklets: 3,
            n_samples: refs.len(),
        };
        let stream = build_stream(&refs, shape.n_tasklets, dedup);
        let got = launch(
            &mut shape.fleet(TASK, &[&stream]),
            &shape.kernel(TASK, 1),
            TASK,
            shape,
        )
        .unwrap();
        let stats = &got[0].1;
        let want: Vec<TaskletStats> = per_tasklet
            .iter()
            .map(
                |&[instrs, dma_cycles, dma_engine_cycles, dma_transfers, dma_bytes]| TaskletStats {
                    instrs,
                    dma_cycles,
                    dma_engine_cycles,
                    dma_transfers,
                    dma_bytes,
                    wram_rows: 0,
                },
            )
            .collect();
        assert_eq!(stats.per_tasklet, want, "int8={int8} dedup={dedup}");
        assert_eq!(stats.cycles.0, cycles, "int8={int8} dedup={dedup}");
        assert_eq!(stats.fill_cycles.0, 0);
    }
}

/// A resident row is a fetch not made, one for one: against the same
/// launch with nothing resident, the WRAM reads are exactly the
/// references to resident slots, the DMA transfers fall by that many
/// (and the bytes by their rows'), the instructions by the 4 that
/// issue each transfer — and every output byte is the same.
#[test]
fn wram_rows_plus_row_fetches_are_the_references() {
    let mut refs: Vec<Vec<u32>> = vec![
        vec![3, 5, word(4, true), 150],
        vec![],
        vec![9, 3, 13, word(30, true)],
    ];
    refs[0].extend((0..300).map(|i| word(i * 7 % EMT_ROWS, i % 5 == 0)));
    let issue = 4 * CostModel::default().int_op_cycles;
    for (int8, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
        let shape = Shape {
            n_c: 8,
            int8,
            dedup,
            n_tasklets: 5,
            n_samples: refs.len(),
        };
        let stream = build_stream(&refs, shape.n_tasklets, dedup);
        let plain = launch(
            &mut shape.fleet(TASK, &[&stream]),
            &shape.kernel(TASK, 1),
            TASK,
            shape,
        )
        .unwrap();
        let task = resident_task(TASK, 40, 10, 1);
        let mut sys = shape.fleet(task, &[&stream]);
        let kernel = shape.kernel(task, 1);
        launch(&mut sys, &kernel, task, shape).unwrap(); // pays the fill
        let warm = launch(&mut sys, &kernel, task, shape).unwrap();
        let (plain, warm) = (&plain[0], &warm[0]);
        let case = format!("int8={int8} dedup={dedup}");
        assert_eq!(warm.0, plain.0, "{case}: output rows");
        let hits = resident_refs(&refs, task, dedup);
        assert!(hits > 0, "{case}");
        let (p, w) = (plain.1.totals, warm.1.totals);
        assert_eq!(w.wram_rows, hits, "{case}");
        assert_eq!(p.wram_rows, 0, "{case}");
        assert_eq!(w.dma_transfers + w.wram_rows, p.dma_transfers, "{case}");
        assert_eq!(w.instrs + issue * hits, p.instrs, "{case}");
        assert!(
            w.dma_bytes < p.dma_bytes && w.dma_cycles < p.dma_cycles,
            "{case}"
        );
        assert!(warm.1.cycles < plain.1.cycles, "{case}");
    }
}

/// The fill is visible and paid once per generation: the first launch
/// of a task with resident rows copies them in `DMA_MAX_TRANSFER`
/// chunks — here the DMA engine's occupancy by those chunks, straight
/// from the cost model's constants, outlasts any one tasklet — the
/// next launch pays nothing and differs from the first by exactly that
/// phase, and a new epoch pays again.
#[test]
fn the_fill_is_charged_exactly_once_per_generation() {
    let refs: Vec<Vec<u32>> = vec![vec![3, 5, word(4, true)], vec![150], vec![9, 3, 13]];
    let model = CostModel::default();
    for (int8, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
        let shape = Shape {
            n_c: 8,
            int8,
            dedup,
            n_tasklets: 3,
            n_samples: refs.len(),
        };
        let case = format!("int8={int8} dedup={dedup}");
        let stream = build_stream(&refs, shape.n_tasklets, dedup);
        let task = resident_task(TASK, EMT_ROWS as u32, CACHE_ROWS as u32, 1);
        // 200 EMT rows and 60 cache rows of 32 bytes (16 as int8).
        let arrays = [
            EMT_ROWS * shape.dtype().stored_row_bytes(shape.n_c),
            CACHE_ROWS * 32,
        ];
        let chunks: Vec<usize> = arrays
            .iter()
            .flat_map(|&len| {
                (0..len)
                    .step_by(DMA_MAX_TRANSFER)
                    .map(move |off| DMA_MAX_TRANSFER.min(len - off))
            })
            .collect();
        let engine: u64 = chunks.iter().map(|&c| model.dma_engine_cycles(c).0).sum();
        let mut sys = shape.fleet(task, &[&stream]);
        let mut kernel = shape.kernel(task, 1);
        let first = launch(&mut sys, &kernel, task, shape).unwrap();
        let second = launch(&mut sys, &kernel, task, shape).unwrap();
        let (first, second) = (&first[0].1, &second[0].1);
        assert_eq!(first.fill_cycles.0, engine, "{case}");
        assert_eq!(second.fill_cycles.0, 0, "{case}");
        assert_eq!(first.cycles.0, second.cycles.0 + engine, "{case}");
        assert_eq!(
            first.totals.dma_transfers,
            second.totals.dma_transfers + chunks.len() as u64,
            "{case}"
        );
        assert_eq!(
            first.totals.dma_bytes,
            second.totals.dma_bytes + arrays.iter().sum::<usize>() as u64,
            "{case}"
        );
        assert_eq!(first.totals.wram_rows, second.totals.wram_rows, "{case}");
        // The longhand program agrees on both launches.
        let mut oracle = shape.fleet(task, &[&stream]);
        let want_first = launch(&mut oracle, &shape.longhand(task), task, shape).unwrap();
        let want_second = launch(&mut oracle, &shape.longhand(task), task, shape).unwrap();
        assert_eq!(
            (first, second),
            (&want_first[0].1, &want_second[0].1),
            "{case}"
        );
        // A new generation of the same rows refills.
        for t in kernel.tasks_mut() {
            t.resident.epoch = 2;
        }
        let third = launch(&mut sys, &kernel, task, shape).unwrap();
        assert_eq!(third[0].1.fill_cycles.0, engine, "{case}");
    }
}

/// The planted stale-residency case. Two migrations in a row bring the
/// serving region back to where it started — same bases, same
/// thresholds — with *different rows* in it. Only the epoch tells the
/// DPU its resident copy is stale: after the flip both programs refill
/// and serve the new bytes. (Without the bump the tasklet program, which
/// really reads WRAM, serves the old ones — the test has teeth.)
#[test]
fn a_resident_row_rewritten_by_a_migration_is_served_new_after_the_flip() {
    let refs: Vec<Vec<u32>> = vec![vec![3, 5, word(4, true)], vec![word(7, true)], vec![9, 3]];
    for (int8, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
        let shape = Shape {
            n_c: 4,
            int8,
            dedup,
            n_tasklets: 2,
            n_samples: refs.len(),
        };
        let case = format!("int8={int8} dedup={dedup}");
        let stream = build_stream(&refs, shape.n_tasklets, dedup);
        let task = resident_task(TASK, 16, 8, 1);
        let flipped = resident_task(TASK, 16, 8, 3);
        let (emt, cache) = shape.regions(9);
        // What a fresh DPU holding the new rows serves.
        let mut fresh = shape.fleet(flipped, &[&stream]);
        fresh.load_mram(DpuId(0), TASK.emt_base, &emt).unwrap();
        fresh.load_mram(DpuId(0), TASK.cache_base, &cache).unwrap();
        let want = launch(&mut fresh, &shape.longhand(flipped), flipped, shape).unwrap();

        let mut sys = shape.fleet(task, &[&stream]);
        let mut oracle = shape.fleet(task, &[&stream]);
        let mut kernel = shape.kernel(task, 1);
        let before = launch(&mut sys, &kernel, task, shape).unwrap();
        let old = launch(&mut oracle, &shape.longhand(task), task, shape).unwrap();
        assert_eq!(before, old, "{case}");
        assert_ne!(before[0].0, want[0].0, "{case}: the two generations differ");
        for s in [&mut sys, &mut oracle] {
            s.load_mram(DpuId(0), TASK.emt_base, &emt).unwrap();
            s.load_mram(DpuId(0), TASK.cache_base, &cache).unwrap();
        }
        // No bump: the tasklet program still reads its old copy.
        let stale = launch(&mut oracle, &shape.longhand(task), task, shape).unwrap();
        assert_eq!(
            stale[0].0, old[0].0,
            "{case}: WRAM is not refreshed by an MRAM write"
        );
        // The flip bumps the epoch: both refill, both serve the new rows.
        for t in kernel.tasks_mut() {
            t.resident.epoch = 3;
        }
        let after = launch(&mut sys, &kernel, flipped, shape).unwrap();
        let after_oracle = launch(&mut oracle, &shape.longhand(flipped), flipped, shape).unwrap();
        assert_eq!(after, want, "{case}");
        assert_eq!(after_oracle, want, "{case}");
        assert!(after[0].1.fill_cycles.0 > 0, "{case}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `samples[s]` is sample `s`'s `(slot, cached)` list; sample 0
    /// additionally gets `bulk` generated references, enough to push a
    /// reference array (CSR) or a tasklet stream (dedup) past one
    /// `DMA_MAX_TRANSFER` chunk. Empty samples and all-EMT, all-cache
    /// and mixed lists occur.
    ///
    /// Each case is a whole launch over five DPUs holding different
    /// tiles, as the column slices of a partition do: all receive the
    /// same stream except DPU 2, whose stream has one reference changed
    /// (in the CSR format that is one byte). The kernel may decode once
    /// for the DPUs that share bytes but must notice the one that does
    /// not — every DPU's rows and counters, tasklet by tasklet, equal
    /// the longhand kernel's.
    #[test]
    fn kernel_matches_the_longhand_kernel_in_rows_and_counters(
        samples in prop::collection::vec(
            prop::collection::vec((0usize..EMT_ROWS, any::<bool>()), 0..12),
            1..9,
        ),
        bulk in (0usize..4).prop_map(|i| [0usize, 0, 90, 700][i]),
        n_c in (0usize..3).prop_map(|i| [2usize, 4, 8][i]),
        n_tasklets in 1usize..17,
        resident in (0usize..4).prop_map(|i| [(0u32, 0u32), (7, 5), (64, 0), (200, 60)][i]),
    ) {
        // Nothing resident (the paper's kernel), a few rows, one region
        // only, everything: the thresholds are launch arguments.
        let task = resident_task(TASK, resident.0, resident.1, 1);
        let mut refs_per_sample: Vec<Vec<u32>> = samples
            .iter()
            .map(|s| s.iter().map(|&(slot, cached)| word(slot, cached)).collect())
            .collect();
        refs_per_sample[0].extend((0..bulk).map(|i| word(i * 7 % EMT_ROWS, i % 5 == 0)));
        // Both region sizes are even, so the neighbouring slot exists.
        let mut altered = refs_per_sample.clone();
        if let Some(r) = altered.iter_mut().flatten().last() {
            *r ^= 1;
        }
        for int8 in [false, true] {
            for dedup in [false, true] {
                let shape = Shape { n_c, int8, dedup, n_tasklets, n_samples: samples.len() };
                let stream = build_stream(&refs_per_sample, n_tasklets, dedup);
                let odd_one = build_stream(&altered, n_tasklets, dedup);
                let streams = [&stream[..], &stream, &odd_one, &stream, &stream];
                // Two launches each: the first fills the resident block,
                // the second finds it in WRAM.
                let mut oracle = shape.fleet(task, &streams);
                let want = [(); 2].map(|()| {
                    launch(&mut oracle, &shape.longhand(task), task, shape).unwrap()
                });
                let filled = want[0].iter().all(|(_, stats)| stats.fill_cycles.0 > 0);
                prop_assert_eq!(filled, resident != (0, 0));
                prop_assert!(want[1].iter().all(|(_, stats)| stats.fill_cycles.0 == 0));
                let mut sys = shape.fleet(task, &streams);
                let kernel = shape.kernel(task, streams.len());
                for (nth, want) in want.iter().enumerate() {
                    let got = launch(&mut sys, &kernel, task, shape).unwrap();
                    for (d, (got, want)) in got.iter().zip(want).enumerate() {
                        prop_assert_eq!(
                            got, want,
                            "launch {} DPU {} int8={} dedup={}",
                            nth, d, int8, dedup
                        );
                    }
                }
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
