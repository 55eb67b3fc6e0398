//! Executed pipelined serving — the double-buffered batch schedule of
//! [`crate::pipeline`], run on the engine.
//!
//! [`UpdlrmEngine::serve`] drives a stream of [`QueryBatch`]es through
//! the three-stage pipeline using the two MRAM staging slots reserved
//! per DPU ([`crate::engine`]): batch `i` lands in slot `i % 2`, so
//! batch `i + 1`'s stage-1 scatter can be issued while batch `i` still
//! owns the other slot, exactly the depth-2 schedule that
//! [`pipelined_wall_ns`](crate::pipeline::pipelined_wall_ns) assumes.
//! The host bus serializes all stage-1/stage-3 phases in batch order
//! (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) while stage-2 kernels overlap
//! them on the DPU array.
//!
//! The schedule calls the same three stage methods as
//! [`UpdlrmEngine::run_batch`] and takes its wall from the one
//! recurrence in [`crate::pipeline`], so the executed wall *is*
//! `pipelined_wall_ns` of the collected breakdowns, and the pooled
//! embeddings are bit-identical to back-to-back `run_batch` calls
//! (both checked by `tests/serve_tests.rs`).

use crate::engine::{EmbeddingBreakdown, UpdlrmEngine, STAGING_SLOTS};
use crate::error::Result;
use crate::pipeline::{pipelined_schedule, sequential_wall_ns};
use crate::stats::percentile;
use dlrm_model::{Matrix, QueryBatch};

/// Batch schedule used by [`UpdlrmEngine::serve`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PipelineMode {
    /// Batches run back to back — stage 1 of batch `i + 1` waits for
    /// stage 3 of batch `i` (the paper's measurement mode).
    #[default]
    Sequential,
    /// Batch `i + 1`'s stage-1 scatter overlaps batch `i`'s stage-2
    /// kernel via the two MRAM staging slots per DPU.
    DoubleBuf,
}

impl PipelineMode {
    /// CLI spelling of the mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            PipelineMode::Sequential => "sequential",
            PipelineMode::DoubleBuf => "doublebuf",
        }
    }
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for PipelineMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "sequential" => Ok(PipelineMode::Sequential),
            "doublebuf" => Ok(PipelineMode::DoubleBuf),
            other => Err(format!(
                "unknown pipeline mode '{other}' (expected 'sequential' or 'doublebuf')"
            )),
        }
    }
}

/// Aggregate statistics of one [`UpdlrmEngine::serve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeReport {
    /// Schedule that was executed.
    pub mode: PipelineMode,
    /// Number of batches served.
    pub batches: usize,
    /// Total samples across all batches.
    pub samples: usize,
    /// Modeled wall-clock of the whole schedule (ns).
    pub wall_ns: f64,
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
    latencies: Vec<f64>,
    pub(crate) breakdowns: Vec<EmbeddingBreakdown>,
}

/// Assembles the aggregate [`ServeReport`] from a finished schedule's
/// scratch (sorts the latency list in place).
fn finish_report(
    mode: PipelineMode,
    batches: &[QueryBatch],
    scr: &mut ServeScratch,
    wall_ns: f64,
) -> ServeReport {
    let samples: usize = batches.iter().map(QueryBatch::batch_size).sum();
    scr.latencies
        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ServeReport {
        mode,
        batches: batches.len(),
        samples,
        wall_ns,
        throughput_qps: if wall_ns > 0.0 {
            samples as f64 / (wall_ns * 1e-9)
        } else {
            0.0
        },
        p50_latency_ns: percentile(&scr.latencies, 0.50),
        p95_latency_ns: percentile(&scr.latencies, 0.95),
        p99_latency_ns: percentile(&scr.latencies, 0.99),
    }
}

impl UpdlrmEngine {
    /// Serves a stream of batches under the configured
    /// [`PipelineMode`], returning per-batch pooled embeddings and
    /// breakdowns plus a [`ServeReport`].
    ///
    /// Under [`PipelineMode::DoubleBuf`] (one batch per MRAM staging
    /// slot in flight) the executed wall equals
    /// [`pipelined_wall_ns`](crate::pipeline::pipelined_wall_ns) of the
    /// returned breakdowns exactly; under [`PipelineMode::Sequential`]
    /// it equals [`sequential_wall_ns`].
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
        let mode = self.config().pipeline_mode;
        // Take the scratch out of the engine so stage methods can borrow
        // `self` mutably; restore it afterwards (on error it is simply
        // rebuilt — and re-warmed — by the next call).
        let mut scr = std::mem::take(&mut self.serve_scratch);
        let result = match mode {
            PipelineMode::DoubleBuf => self.serve_doublebuf(batches, &mut scr, sink),
            PipelineMode::Sequential => self.serve_sequential(batches, &mut scr, sink),
        };
        self.serve_scratch = scr;
        if let Ok(report) = &result {
            // Serve-level telemetry: the executed wall plus what the same
            // batches would cost back-to-back — the difference is the
            // wall the pipeline overlap saved.
            let sequential = sequential_wall_ns(&self.serve_scratch.breakdowns);
            self.metrics.record_serve(report, sequential);
        }
        result
    }

    /// Back-to-back schedule: each batch fully drains before the next
    /// one's stage 1 is issued. Wall equals `sequential_wall_ns`.
    fn serve_sequential<F>(
        &mut self,
        batches: &[QueryBatch],
        scr: &mut ServeScratch,
        mut sink: F,
    ) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        scr.breakdowns.clear();
        scr.latencies.clear();
        let mut wall = 0.0f64;
        for (i, batch) in batches.iter().enumerate() {
            let (pooled, bd) = self.run_batch(batch)?;
            // Matches `sequential_wall_ns`'s `map(total_ns).sum()` fold.
            wall += bd.total_ns();
            scr.latencies.push(bd.total_ns());
            scr.breakdowns.push(bd);
            sink(i, &pooled, &bd);
            self.recycle_pooled(pooled);
        }
        debug_assert_eq!(wall, sequential_wall_ns(&scr.breakdowns));
        Ok(finish_report(PipelineMode::Sequential, batches, scr, wall))
    }

    /// Depth-2 double-buffered schedule: the three stage methods of
    /// [`UpdlrmEngine::run_batch`], interleaved so that the bus phases
    /// run in batch order (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) — batch
    /// `i`'s scatter reuses slot `i % 2`, which batch `i - 2` released
    /// when its stage 3 drained one iteration earlier. The wall and the
    /// per-batch latencies are then read off [`pipelined_schedule`] —
    /// the recurrence behind `pipelined_wall_ns` — over the breakdowns
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
        let wall = pipelined_schedule(&scr.breakdowns, |issue, drain| {
            latencies.push(drain - issue);
        });
        Ok(finish_report(PipelineMode::DoubleBuf, batches, scr, wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_mode_round_trips_through_strings() {
        for mode in [PipelineMode::Sequential, PipelineMode::DoubleBuf] {
            let parsed: PipelineMode = mode.as_str().parse().expect("round trip");
            assert_eq!(parsed, mode);
            assert_eq!(format!("{mode}"), mode.as_str());
        }
        assert!("dbl".parse::<PipelineMode>().is_err());
    }
}
