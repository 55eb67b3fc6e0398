//! Executed pipelined serving — the double-buffered batch schedule that
//! [`crate::pipeline`] only models analytically.
//!
//! [`UpdlrmEngine::serve`] drives a stream of [`QueryBatch`]es through
//! the three-stage pipeline using the two MRAM staging slots reserved
//! per DPU ([`crate::engine`]): batch `i` lands in slot `i % 2`, so
//! batch `i + 1`'s stage-1 scatter can be issued while batch `i` still
//! owns the other slot, exactly the depth-2 schedule that
//! [`pipelined_wall_ns`] assumes.
//! The host bus serializes all stage-1/stage-3 phases in batch order
//! (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) while stage-2 kernels overlap
//! them on the DPU array.
//!
//! The headline invariant (checked by `tests/serve_tests.rs`): the
//! executed wall clock equals `pipelined_wall_ns` of the collected
//! per-batch breakdowns *exactly* (same recurrence, same operation
//! order — not approximately), and the pooled embeddings are
//! bit-identical to back-to-back [`UpdlrmEngine::run_batch`] calls.

use crate::engine::{EmbeddingBreakdown, UpdlrmEngine, STAGING_SLOTS};
use crate::error::{CoreError, Result};
use crate::pipeline::{pipelined_wall_ns, sequential_wall_ns};
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
    /// Effective batches in flight (the configured depth capped at the
    /// number of MRAM staging slots).
    pub queue_depth: usize,
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
/// — event-time vectors and the per-batch breakdown list. Cleared and
/// refilled each call, so steady-state serving allocates nothing here
/// after warm-up.
#[derive(Debug, Default)]
pub(crate) struct ServeScratch {
    s1_start: Vec<f64>,
    s1_done: Vec<f64>,
    s2_done: Vec<f64>,
    drain: Vec<f64>,
    latencies: Vec<f64>,
    pub(crate) breakdowns: Vec<EmbeddingBreakdown>,
}

/// Assembles the aggregate [`ServeReport`] from a finished schedule's
/// scratch (sorts the latency list in place).
fn finish_report(
    mode: PipelineMode,
    queue_depth: usize,
    batches: &[QueryBatch],
    scr: &mut ServeScratch,
    wall_ns: f64,
) -> ServeReport {
    let samples: usize = batches.iter().map(QueryBatch::batch_size).sum();
    scr.latencies
        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ServeReport {
        mode,
        queue_depth,
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
    /// [`PipelineMode`] and queue depth, returning per-batch pooled
    /// embeddings and breakdowns plus a [`ServeReport`].
    ///
    /// Under [`PipelineMode::DoubleBuf`] (with `queue_depth >= 2`) the
    /// executed wall equals
    /// [`pipelined_wall_ns`] of the
    /// returned breakdowns exactly; under [`PipelineMode::Sequential`]
    /// (or `queue_depth == 1`) it equals
    /// [`sequential_wall_ns`].
    ///
    /// This is a convenience wrapper over
    /// [`UpdlrmEngine::serve_stream`] that clones every batch's pooled
    /// embeddings into the returned [`ServeOutcome`]; latency-sensitive
    /// callers that can consume results in place should use
    /// `serve_stream` directly.
    ///
    /// # Errors
    ///
    /// `queue_depth == 0` is rejected with
    /// [`CoreError::InvalidConfig`]; batch-level errors are as in
    /// [`UpdlrmEngine::run_batch`].
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
        let queue_depth = self.config().queue_depth;
        let mode = self.config().pipeline_mode;
        if queue_depth == 0 {
            return Err(CoreError::InvalidConfig(
                "queue_depth must be >= 1 (0 admits no batch in flight)".into(),
            ));
        }
        let depth = queue_depth.min(STAGING_SLOTS);
        // Take the scratch out of the engine so stage methods can borrow
        // `self` mutably; restore it afterwards (on error it is simply
        // rebuilt — and re-warmed — by the next call).
        let mut scr = std::mem::take(&mut self.serve_scratch);
        let result = match (mode, depth) {
            (PipelineMode::DoubleBuf, d) if d >= 2 => self.serve_doublebuf(batches, &mut scr, sink),
            _ => self.serve_sequential(batches, mode, &mut scr, sink),
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
        mode: PipelineMode,
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
        Ok(finish_report(mode, 1, batches, scr, wall))
    }

    /// Depth-2 double-buffered schedule. The event bookkeeping below is
    /// a line-for-line mirror of
    /// [`pipelined_wall_ns`] — the
    /// same recurrence over the same measured stage times in the same
    /// f64 operation order — which is what makes the executed wall
    /// *exactly* equal to the analytic model.
    fn serve_doublebuf<F>(
        &mut self,
        batches: &[QueryBatch],
        scr: &mut ServeScratch,
        mut sink: F,
    ) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        let n = batches.len();
        scr.breakdowns.clear();
        scr.s1_start.clear();
        scr.s1_start.resize(n, 0.0);
        scr.s1_done.clear();
        scr.s1_done.resize(n, 0.0);
        scr.s2_done.clear();
        scr.s2_done.resize(n, 0.0);
        scr.drain.clear();
        scr.drain.resize(n, 0.0);

        let mut bus_free = 0.0f64; // when the host bus is next available
        let mut dpu_free = 0.0f64; // when the DPU array is next available
        let mut finish = 0.0f64;

        // Bus phases run in batch order: s1_0, s1_1, s3_0, s1_2, s3_1,
        // ... — batch i's scatter reuses slot i % 2, which batch i - 2
        // released when its stage 3 drained one iteration ago.
        for i in 0..n {
            // stage 1 of batch i.
            let routed = self.route_batch(&batches[i])?;
            let mut bd = routed.breakdown_seed();
            let scatter = self.scatter_streams(i % STAGING_SLOTS)?;
            bd.stage1_ns = scatter.wall_ns;
            bd.energy_pj += scatter.energy_pj;
            let start = bus_free;
            bus_free = start + bd.stage1_ns;
            scr.s1_start[i] = start;
            scr.s1_done[i] = bus_free;

            // stage 2 of batch i can start once its stage 1 landed and
            // the DPU array is free.
            let stage2 = self.launch_stage2(routed.batch_size, i % STAGING_SLOTS)?;
            stage2.fold_into(&mut bd);
            let start = scr.s1_done[i].max(dpu_free);
            dpu_free = start + bd.stage2_ns;
            scr.s2_done[i] = dpu_free;
            scr.breakdowns.push(bd);

            // stage 3 of batch i - 1 (its results are ready by now or
            // we wait for them); one batch in flight bounds staging.
            if i > 0 {
                let j = i - 1;
                bus_free = self.gather_one(batches, j, scr, bus_free, &mut sink)?;
                finish = finish.max(bus_free);
                scr.drain[j] = bus_free;
            }
        }
        // Drain the last batch's stage 3.
        if let Some(last) = n.checked_sub(1) {
            let end = self.gather_one(batches, last, scr, bus_free, &mut sink)?;
            finish = finish.max(end);
            scr.drain[last] = end;
        }
        debug_assert_eq!(finish, pipelined_wall_ns(&scr.breakdowns));

        scr.latencies.clear();
        for i in 0..n {
            scr.latencies.push(scr.drain[i] - scr.s1_start[i]);
        }
        Ok(finish_report(
            PipelineMode::DoubleBuf,
            STAGING_SLOTS,
            batches,
            scr,
            finish,
        ))
    }

    /// Gathers batch `j`'s partial sums out of its slot, fills in its
    /// breakdown, lends the pooled set to the sink, and returns when its
    /// stage 3 leaves the bus.
    fn gather_one<F>(
        &mut self,
        batches: &[QueryBatch],
        j: usize,
        scr: &mut ServeScratch,
        bus_free: f64,
        sink: &mut F,
    ) -> Result<f64>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        let b = batches[j].batch_size();
        let (pooled, combine_ns, report) = self.gather_combine(b, j % STAGING_SLOTS)?;
        scr.breakdowns[j].stage3_ns = report.wall_ns;
        scr.breakdowns[j].energy_pj += report.energy_pj;
        scr.breakdowns[j].combine_ns = combine_ns;
        self.metrics.record_batch(b, &scr.breakdowns[j]);
        let start = scr.s2_done[j].max(bus_free);
        let end = start + scr.breakdowns[j].stage3_ns;
        sink(j, &pooled, &scr.breakdowns[j]);
        self.recycle_pooled(pooled);
        Ok(end)
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
