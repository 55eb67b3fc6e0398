//! Executed pipelined serving — the double-buffered batch schedule of
//! [`crate::pipeline`], run on the engine.
//!
//! [`UpdlrmEngine::serve`] drives a stream of [`QueryBatch`]es through
//! the three-stage pipeline using the two MRAM staging slots reserved
//! per DPU ([`crate::engine`]): batch `i` lands in slot `i % 2`, so
//! batch `i + 1`'s stage-1 scatter can be issued while batch `i` still
//! owns the other slot. That depth-2 schedule is the only one: the host
//! bus serializes all stage-1/stage-3 phases in batch order
//! (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) while stage-2 kernels overlap
//! them on the DPU array. The paper's back-to-back figure of the same
//! batches is reported next to it as
//! [`ServeReport::sequential_wall_ns`].
//!
//! The schedule calls the same three stage methods as
//! [`UpdlrmEngine::run_batch`] and takes its wall from the one
//! recurrence in [`crate::pipeline`], so the executed wall *is*
//! `pipelined_wall` of the collected breakdowns, and the pooled
//! embeddings are bit-identical to back-to-back `run_batch` calls
//! (both checked by `tests/serve_tests.rs`). The open-loop front-ends
//! serve one batch per call and time the overlap between calls on the
//! same [`PipelineClock`](crate::pipeline::PipelineClock).

use crate::engine::{EmbeddingBreakdown, UpdlrmEngine, STAGING_SLOTS};
use crate::error::Result;
use crate::pipeline::{pipelined_schedule, sequential_wall};
use crate::{stats::percentile, Ps};
use dlrm_model::{Matrix, QueryBatch};

/// The serve schedule, kept only so callers written against the old
/// schedule option still compile: every serve is double-buffered, so
/// the one value selects nothing
/// ([`UpdlrmConfig::with_pipeline_mode`](crate::UpdlrmConfig::with_pipeline_mode)
/// ignores it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PipelineMode {
    /// Batch `i + 1`'s stage-1 scatter overlaps batch `i`'s stage-2
    /// kernel via the two MRAM staging slots per DPU.
    #[default]
    DoubleBuf,
}

/// Aggregate statistics of one [`UpdlrmEngine::serve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeReport {
    /// Number of batches served.
    pub batches: usize,
    /// Total samples across all batches.
    pub samples: usize,
    /// Modeled wall-clock of the double-buffered schedule (ns).
    pub wall_ns: f64,
    /// Modeled wall-clock of the same batches run back to back (ns) —
    /// the paper's measurement mode, [`sequential_wall`].
    pub sequential_wall_ns: f64,
    /// Modeled throughput in samples per second.
    pub throughput_qps: f64,
    /// Median per-batch modeled latency (stage-1 issue → stage-3
    /// drain), nearest-rank.
    pub p50_latency_ns: f64,
    /// 95th-percentile per-batch modeled latency, nearest-rank.
    pub p95_latency_ns: f64,
    /// 99th-percentile per-batch modeled latency, nearest-rank.
    pub p99_latency_ns: f64,
}

/// Everything [`UpdlrmEngine::serve`] produces: per-batch pooled
/// embeddings and breakdowns, plus the schedule-level report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Pooled `batch x dim` embeddings, per batch then per table.
    pub pooled: Vec<Vec<Matrix>>,
    /// Per-batch stage breakdowns (same data `run_batch` returns).
    pub breakdowns: Vec<EmbeddingBreakdown>,
    /// Aggregate wall/throughput/latency statistics.
    pub report: ServeReport,
}

/// Reusable per-engine working memory for [`UpdlrmEngine::serve_stream`]
/// — the per-batch latency and breakdown lists. Cleared and refilled
/// each call, so steady-state serving allocates nothing here after
/// warm-up.
#[derive(Debug, Default)]
pub(crate) struct ServeScratch {
    latencies: Vec<Ps>,
    pub(crate) breakdowns: Vec<EmbeddingBreakdown>,
}

/// Assembles the aggregate [`ServeReport`] from a finished schedule's
/// scratch (sorts the latency list in place).
fn finish_report(batches: &[QueryBatch], scr: &mut ServeScratch, wall: Ps) -> ServeReport {
    let samples: usize = batches.iter().map(QueryBatch::batch_size).sum();
    scr.latencies.sort_unstable();
    ServeReport {
        batches: batches.len(),
        samples,
        wall_ns: wall.as_ns(),
        sequential_wall_ns: sequential_wall(&scr.breakdowns).as_ns(),
        throughput_qps: if wall > Ps::ZERO {
            samples as f64 / (wall.as_ns() * 1e-9)
        } else {
            0.0
        },
        p50_latency_ns: percentile(&scr.latencies, 0.50).as_ns(),
        p95_latency_ns: percentile(&scr.latencies, 0.95).as_ns(),
        p99_latency_ns: percentile(&scr.latencies, 0.99).as_ns(),
    }
}

impl UpdlrmEngine {
    /// Serves a stream of batches double-buffered (one batch per MRAM
    /// staging slot in flight), returning per-batch pooled embeddings
    /// and breakdowns plus a [`ServeReport`]. The executed wall equals
    /// [`pipelined_wall`](crate::pipeline::pipelined_wall) of the
    /// returned breakdowns exactly.
    ///
    /// This is a convenience wrapper over
    /// [`UpdlrmEngine::serve_stream`] that clones every batch's pooled
    /// embeddings into the returned [`ServeOutcome`]; latency-sensitive
    /// callers that can consume results in place should use
    /// `serve_stream` directly.
    ///
    /// # Errors
    ///
    /// Batch-level errors are as in [`UpdlrmEngine::run_batch`].
    pub fn serve(&mut self, batches: &[QueryBatch]) -> Result<ServeOutcome> {
        let mut pooled: Vec<Vec<Matrix>> = Vec::with_capacity(batches.len());
        let report = self.serve_stream(batches, |i, p, _| {
            debug_assert_eq!(i, pooled.len(), "sink fires in batch order");
            pooled.push(p.to_vec());
        })?;
        Ok(ServeOutcome {
            pooled,
            breakdowns: self.serve_scratch.breakdowns.clone(),
            report,
        })
    }

    /// The zero-allocation serving path: identical schedule, timing and
    /// numerics to [`UpdlrmEngine::serve`], but each batch's pooled
    /// embeddings are *lent* to `sink(batch_index, pooled, breakdown)`
    /// and recycled afterwards instead of being accumulated into a
    /// [`ServeOutcome`]. The sink fires once per batch in batch order
    /// (for the double-buffered schedule that is one batch behind the
    /// scatter of the following batch, exactly when its stage 3 drains).
    ///
    /// After warm-up (one serve over each staging slot, i.e. two
    /// batches) a steady-state call performs no heap allocation — the
    /// property pinned down by `tests/alloc_tests.rs`.
    ///
    /// The collected breakdowns remain available to the caller through
    /// the engine until the next serve; `serve` uses that to assemble
    /// its outcome.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UpdlrmEngine::serve`].
    pub fn serve_stream<F>(&mut self, batches: &[QueryBatch], sink: F) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        // Take the scratch out of the engine so stage methods can borrow
        // `self` mutably; restore it afterwards (on error it is simply
        // rebuilt — and re-warmed — by the next call).
        let mut scr = std::mem::take(&mut self.serve_scratch);
        let result = self.serve_doublebuf(batches, &mut scr, sink);
        self.serve_scratch = scr;
        if let Ok(report) = &result {
            // Serve-level telemetry: the executed wall plus what the same
            // batches would cost back-to-back — the difference is the
            // wall the pipeline overlap saved.
            self.metrics.record_serve(report);
        }
        result
    }

    /// Depth-2 double-buffered schedule: the three stage methods of
    /// [`UpdlrmEngine::run_batch`], interleaved so that the bus phases
    /// run in batch order (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) — batch
    /// `i`'s scatter reuses slot `i % 2`, which batch `i - 2` released
    /// when its stage 3 drained one iteration earlier. The wall and the
    /// per-batch latencies are then read off [`pipelined_schedule`] —
    /// the recurrence behind `pipelined_wall` — over the breakdowns
    /// measured here.
    fn serve_doublebuf<F>(
        &mut self,
        batches: &[QueryBatch],
        scr: &mut ServeScratch,
        mut sink: F,
    ) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        scr.breakdowns.clear();
        for i in 0..=batches.len() {
            if let Some(batch) = batches.get(i) {
                let mut bd = self.stage1(batch, i % STAGING_SLOTS)?;
                self.stage2(i % STAGING_SLOTS, &mut bd)?;
                scr.breakdowns.push(bd);
            }
            // Stage 3 of batch i - 1, one batch in flight behind i.
            if let Some(j) = i.checked_sub(1) {
                let bd = &mut scr.breakdowns[j];
                let pooled = self.stage3(j % STAGING_SLOTS, bd)?;
                sink(j, &pooled, bd);
                self.recycle_pooled(pooled);
            }
        }
        scr.latencies.clear();
        let latencies = &mut scr.latencies;
        let wall = pipelined_schedule(&scr.breakdowns, |d| latencies.push(d.drain - d.issue));
        Ok(finish_report(batches, scr, wall))
    }
}
