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
//! The schedule calls the same stage methods as
//! [`UpdlrmEngine::run_batch`] and takes its wall from the one
//! recurrence in [`crate::pipeline`], so the executed wall *is*
//! `pipelined_wall` of the collected breakdowns, and the pooled
//! embeddings are bit-identical to back-to-back `run_batch` calls
//! (both checked by `tests/serve_tests.rs`). The open-loop front-ends
//! serve one batch per call and time the overlap between calls on the
//! same [`PipelineClock`](crate::pipeline::PipelineClock).
//!
//! The host overlaps batches too. A stream of two or more batches runs
//! each batch's stage 2 on the engine's one persistent DPU worker
//! thread, spawned by the first such stream and joined when the engine
//! drops. While the worker simulates batch `i`'s kernels, the calling
//! thread runs batch `i - 1`'s sink and routes batch `i + 1`. What
//! crosses is owned state only — the fleet, the launch groups and
//! scratch, the registry's launch cells — moved by value into a
//! one-slot hand-off and moved back; the batches themselves stay
//! borrowed on the calling thread. The fleet is on one thread at a
//! time, so every modeled number and every pooled row is what the same
//! calls make on one thread. A one-batch stream — every open-loop
//! front-end's call — has nothing to overlap and runs wholly on the
//! calling thread, as `run_batch` does.

use crate::engine::{DpuWorker, EmbeddingBreakdown, UpdlrmEngine, STAGING_SLOTS};
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
    /// With two or more batches, on a host where the process may use
    /// two or more cores, every batch's stage 2 runs on the engine's
    /// DPU worker thread (started by the first such call, joined when
    /// the engine drops) while the sink runs here; results are the
    /// same either way (module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`UpdlrmEngine::serve`].
    pub fn serve_stream<F>(&mut self, batches: &[QueryBatch], sink: F) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        // If the OS refuses a thread, this and every later stream is
        // served on the calling thread.
        let worker = match self.overlap && batches.len() >= 2 {
            true => self.worker.take().or_else(|| DpuWorker::spawn().ok()),
            false => None,
        };
        self.overlap &= batches.len() < 2 || worker.is_some();
        // Take the scratch out of the engine so stage methods can borrow
        // `self` mutably; restore it afterwards (on error it is simply
        // rebuilt — and re-warmed — by the next call).
        let mut scr = std::mem::take(&mut self.serve_scratch);
        let result = self.serve_doublebuf(batches, &mut scr, worker.as_ref(), sink);
        self.serve_scratch = scr;
        if worker.is_some() {
            self.worker = worker;
        }
        if let Ok(report) = &result {
            // Serve-level telemetry: the executed wall plus what the same
            // batches would cost back-to-back — the difference is the
            // wall the pipeline overlap saved.
            self.metrics.record_serve(report);
        }
        result
    }

    /// Depth-2 double-buffered schedule: the stage methods of
    /// [`UpdlrmEngine::run_batch`], interleaved so that the bus phases
    /// run in batch order (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) — batch
    /// `i`'s scatter reuses slot `i % 2`, which batch `i - 2` released
    /// when its stage 3 drained one iteration earlier. The wall and the
    /// per-batch latencies are then read off [`pipelined_schedule`] —
    /// the recurrence behind `pipelined_wall` — over the breakdowns
    /// measured here.
    ///
    /// Iteration `i` routes batch `i`, takes launch `i - 1` back from
    /// `worker`, scatters batch `i`, gathers batch `i - 1`, sends batch
    /// `i`'s launch and then runs batch `i - 1`'s sink, so the sink and
    /// the next route overlap the launch. Without a worker the launch
    /// runs in its place in that order. Every return after a send takes
    /// the launch back first, so the DPU side is home whenever this
    /// returns; a failed launch reports its error one iteration later,
    /// after batch `i - 1`'s sink.
    fn serve_doublebuf<F>(
        &mut self,
        batches: &[QueryBatch],
        scr: &mut ServeScratch,
        worker: Option<&DpuWorker>,
        mut sink: F,
    ) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        scr.breakdowns.clear();
        for i in 0..=batches.len() {
            let slot = i % STAGING_SLOTS;
            let routed = batches.get(i).map(|batch| self.route(batch, slot));
            if let (Some(w), 1..) = (worker, i) {
                scr.breakdowns.push(self.launch_join(w)?);
            }
            let mut bd = routed.transpose()?;
            if let Some(bd) = &mut bd {
                self.scatter(slot, bd)?;
            }
            // Stage 3 of batch i - 1, one batch in flight behind i.
            let gathered = match i.checked_sub(1) {
                Some(j) => Some((j, self.stage3(j % STAGING_SLOTS, &mut scr.breakdowns[j])?)),
                None => None,
            };
            if let Some(mut bd) = bd {
                match worker {
                    Some(w) => self.launch_away(w, slot, bd),
                    None => {
                        self.launch_here(slot, &mut bd)?;
                        scr.breakdowns.push(bd);
                    }
                }
            }
            if let Some((j, pooled)) = gathered {
                sink(j, &pooled, &scr.breakdowns[j]);
                self.recycle_pooled(pooled);
            }
        }
        scr.latencies.clear();
        let latencies = &mut scr.latencies;
        let wall = pipelined_schedule(&scr.breakdowns, |d| latencies.push(d.drain - d.issue));
        Ok(finish_report(batches, scr, wall))
    }
}

#[cfg(test)]
mod tests {
    use crate::telemetry::SchedSnapshot;
    use crate::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
    use dlrm_model::{EmbedDtype, EmbeddingTable, Matrix, QueryBatch, SparseInput};
    use upmem_sim::Ps;
    use workloads::{DatasetSpec, TraceConfig, Workload};

    /// Integer-valued tables, so pooled rows are exact in any order.
    fn setup(batches: usize) -> (Vec<EmbeddingTable>, Workload) {
        let spec = DatasetSpec::goodreads().scaled_down(5000);
        let workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: batches,
                ..TraceConfig::default()
            },
        );
        let tables = (0..2)
            .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t).unwrap())
            .collect();
        (tables, workload)
    }

    fn engine(config: &UpdlrmConfig, tables: &[EmbeddingTable], w: &Workload) -> UpdlrmEngine {
        UpdlrmEngine::from_workload(config.clone(), tables, w).unwrap()
    }

    /// Serves `batches` with stage 2 on the DPU worker (`hop`) or on
    /// the calling thread, collecting what the sink saw.
    fn serve(
        engine: &mut UpdlrmEngine,
        batches: &[QueryBatch],
        hop: bool,
    ) -> (crate::Result<super::ServeReport>, Vec<Vec<Matrix>>) {
        let mut pooled = Vec::new();
        engine.overlap = hop;
        let report = engine.serve_stream(batches, |i, p, _| {
            assert_eq!(i, pooled.len(), "the sink fires in batch order");
            pooled.push(p.to_vec());
        });
        (report, pooled)
    }

    /// A multi-batch stream served with stage 2 on the DPU worker
    /// returns what the same stream served on one thread returns:
    /// pooled rows, breakdowns, the report and the telemetry snapshot,
    /// for every strategy, dtype and telemetry setting, on an engine
    /// warmed up with a charged batch.
    #[test]
    fn worker_serve_equals_one_thread_serve() {
        let (tables, workload) = setup(5);
        let batches = &workload.batches;
        for strategy in [
            PartitionStrategy::Uniform,
            PartitionStrategy::NonUniform,
            PartitionStrategy::CacheAware,
        ] {
            for dtype in [EmbedDtype::F32, EmbedDtype::Int8] {
                for telemetry in [false, true] {
                    let case = format!("{strategy} {dtype:?} telemetry {telemetry}");
                    let mut config = UpdlrmConfig::with_dpus(16, strategy).with_embed_dtype(dtype);
                    config.telemetry = telemetry;
                    let [mut away, mut here] =
                        [(); 2].map(|()| engine(&config, &tables, &workload));
                    for e in [&mut away, &mut here] {
                        e.run_batch(&batches[0]).unwrap(); // pays the fill
                    }
                    let (report, pooled) = serve(&mut away, batches, true);
                    let (want_report, want_pooled) = serve(&mut here, batches, false);
                    assert_eq!(report.unwrap(), want_report.unwrap(), "{case}");
                    assert_eq!(pooled, want_pooled, "{case}");
                    assert_eq!(
                        away.serve_scratch.breakdowns, here.serve_scratch.breakdowns,
                        "{case}"
                    );
                    assert_eq!(away.metrics_snapshot(), here.metrics_snapshot(), "{case}");
                    assert_eq!(away.handoffs, batches.len() as u64, "{case}");
                    assert_eq!(here.handoffs, 0, "{case}");
                }
            }
        }
    }

    /// What is selected at run time is what runs: a multi-batch
    /// `serve_stream` hands every launch to the worker, and nothing
    /// else does — not `run_batch`, not a one-batch stream, not the
    /// per-batch calls `Scheduler::run` and the wall runtime's shards
    /// make (a tick, then a one-batch stream), and not a multi-batch
    /// stream on an engine that may not overlap (one core).
    #[test]
    fn only_multi_batch_streams_hand_launches_to_the_worker() {
        let (tables, workload) = setup(4);
        let batches = &workload.batches;
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
        let mut e = engine(&config, &tables, &workload);
        e.overlap = true;
        e.run_batch(&batches[0]).unwrap();
        e.serve_stream(&batches[..1], |_, _, _| {}).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let now = Ps(1_000_000) * (i as u64 + 1);
            e.on_tick(now, SchedSnapshot::default()).unwrap();
            e.serve_stream(std::slice::from_ref(batch), |_, _, _| {})
                .unwrap();
        }
        assert_eq!(e.handoffs, 0);
        assert!(e.worker.is_none(), "nothing has spawned the worker");

        e.serve_stream(batches, |_, _, _| {}).unwrap();
        assert_eq!(e.handoffs, batches.len() as u64);
        assert!(e.worker.is_some(), "the worker outlives the stream");
        e.serve_stream(&batches[..1], |_, _, _| {}).unwrap();
        e.run_batch(&batches[0]).unwrap();
        assert_eq!(e.handoffs, batches.len() as u64);

        let mut one_core = engine(&config, &tables, &workload);
        one_core.overlap = false;
        one_core.run_batch(&batches[0]).unwrap();
        let served = one_core.serve_stream(batches, |_, _, _| {}).unwrap();
        assert_eq!(served, e.serve_stream(batches, |_, _, _| {}).unwrap());
        assert_eq!(one_core.handoffs, 0);
        assert!(one_core.worker.is_none());
    }

    /// An invalid batch at position 3 fails the stream with the error
    /// its route reports on its own, after the launch in flight has
    /// come home: the telemetry then equals the one-thread serve's, and
    /// the engine serves a good stream as a fresh engine does.
    #[test]
    fn a_bad_batch_mid_stream_brings_the_dpu_side_home() {
        let (tables, workload) = setup(6);
        let mut batches = workload.batches.clone();
        let mut samples: Vec<Vec<u64>> = batches[3].sparse[1].iter().map(<[u64]>::to_vec).collect();
        samples[0].push(1 << 40);
        batches[3].sparse[1] = SparseInput::from_samples(samples);
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware).with_telemetry();
        let want = engine(&config, &tables, &workload)
            .run_batch(&batches[3])
            .unwrap_err()
            .to_string();

        let mut fresh = engine(&config, &tables, &workload);
        let (good, good_pooled) = serve(&mut fresh, &workload.batches, false);
        let good = good.unwrap();
        let mut snapshots = Vec::new();
        for hop in [true, false] {
            let mut e = engine(&config, &tables, &workload);
            let (err, sunk) = serve(&mut e, &batches, hop);
            assert_eq!(err.unwrap_err().to_string(), want, "hop {hop}");
            assert_eq!(sunk.len(), 2, "hop {hop}: batches 0 and 1 drained");
            e.dpu.get(); // panics unless the DPU side is home
            snapshots.push(e.metrics_snapshot());

            let (report, pooled) = serve(&mut e, &workload.batches, hop);
            assert_eq!(report.unwrap().batches, good.batches, "hop {hop}");
            assert_eq!(pooled, good_pooled, "hop {hop}");
        }
        assert_eq!(snapshots[0], snapshots[1]);
    }
}
