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
//! The host overlaps batches too, with one pipelined step that both
//! front-end shapes call. A step for batch `i + 1` routes it while
//! batch `i`'s launch is still in flight, takes that launch back,
//! gathers batch `i` and scatters batch `i + 1`, sends batch `i + 1`'s
//! launch and lends batch `i`'s pooled rows to the sink; with no batch
//! it is the drain. A stream is one step per batch and a drain;
//! [`UpdlrmEngine::serve_step`] carries the same order across calls,
//! one formed batch per call, for the scheduler's event loop and the
//! runtime's shard workers, and [`UpdlrmEngine::serve_flush`] is its
//! drain. A replan tick rides in the same step: the half of it that
//! touches no DPU runs before the route, and the half that needs the
//! fleet between the gather and the scatter. A step launches on the
//! engine's one persistent DPU worker thread — spawned by the first
//! step that uses it, joined when the engine drops — when the process
//! may use two or more cores and the serve has more than one batch to
//! overlap: every `serve_step`, and a stream of two or more batches.
//! While the worker simulates batch `i`'s kernels, the calling thread
//! runs batch `i - 1`'s sink and routes batch `i + 1`. What crosses is
//! owned state only — the fleet, the launch groups and scratch, the
//! registry's launch cells — moved by value into a one-slot hand-off
//! and moved back; the batches themselves stay borrowed on the calling
//! thread. The fleet is on one thread at a time, so every modeled
//! number and every pooled row is what the same calls make on one
//! thread. Without the worker the launch runs in its place in the step.
//!
//! A failed launch reports its error at the step that takes it back,
//! after the sink of the batch ahead of it, whichever thread ran it. A
//! step that fails takes the launch in flight back first, so the DPU
//! side is home and nothing is in flight whenever a step returns an
//! error; a tick in the step completes first. A failed route or launch
//! drops the batch it took back unsinked; once that batch is gathered
//! it reaches the sink, whatever fails after.

use crate::engine::{DpuWorker, EmbeddingBreakdown, UpdlrmEngine, STAGING_SLOTS};
use crate::error::{CoreError, Result};
use crate::pipeline::{pipelined_schedule, sequential_wall, Step};
use crate::telemetry::SchedSnapshot;
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
    /// DPU worker thread (started by the first call that uses it,
    /// joined when the engine drops) while the sink runs here; results
    /// are the same either way (module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`UpdlrmEngine::serve`], and
    /// [`CoreError::Invariant`] while a [`serve_step`](Self::serve_step)
    /// batch is in flight.
    pub fn serve_stream<F>(&mut self, batches: &[QueryBatch], sink: F) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        self.ensure_idle("serve_stream")?;
        let away = batches.len() >= 2 && self.dpu_worker_ready();
        // Take the scratch out of the engine so the steps can borrow
        // `self` mutably; restore it afterwards (on error it is simply
        // rebuilt — and re-warmed — by the next call).
        let mut scr = std::mem::take(&mut self.serve_scratch);
        let result = self.serve_doublebuf(batches, &mut scr, away, sink);
        self.serve_scratch = scr;
        if let Ok(report) = &result {
            // Serve-level telemetry: the executed wall plus what the same
            // batches would cost back-to-back — the difference is the
            // wall the pipeline overlap saved.
            self.metrics
                .record_serve(report.wall_ns, report.sequential_wall_ns);
        }
        result
    }

    /// Depth-2 double-buffered schedule: one [`pipelined
    /// step`](Self::pipelined_step) per batch and a drain, so the bus
    /// phases run in batch order (`s1_0, s1_1, s3_0, s1_2, s3_1, …`) —
    /// batch `i`'s scatter reuses the slot batch `i - 2` released when
    /// its stage 3 drained one step earlier. The wall and the per-batch
    /// latencies are then read off [`pipelined_schedule`] — the
    /// recurrence behind `pipelined_wall` — over the breakdowns
    /// measured here.
    fn serve_doublebuf<F>(
        &mut self,
        batches: &[QueryBatch],
        scr: &mut ServeScratch,
        away: bool,
        mut sink: F,
    ) -> Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        scr.breakdowns.clear();
        let breakdowns = &mut scr.breakdowns;
        let home = |_: &mut Self, _: Option<&EmbeddingBreakdown>| Ok(());
        for batch in batches.iter().map(Some).chain([None]) {
            self.pipelined_step(batch, away, home, |pooled, bd| {
                sink(breakdowns.len(), pooled, bd);
                breakdowns.push(*bd);
            })?;
        }
        scr.latencies.clear();
        let latencies = &mut scr.latencies;
        let wall = pipelined_schedule(&scr.breakdowns, |d| latencies.push(d.drain - d.issue));
        Ok(finish_report(batches, scr, wall))
    }

    /// Serves one batch of an open-loop front-end, as one step of a
    /// pipelined serve that spans calls (module docs): ticks the
    /// replanner to the launch instant `now` with the front-end's
    /// scheduler counts so far ([`UpdlrmEngine::on_tick`]), routes and
    /// scatters `batch` and sends its launch, and completes the batch
    /// the call before left in flight, lending its pooled rows and
    /// breakdown to `sink`. `batch` is left in flight, for the next
    /// call or [`serve_flush`](Self::serve_flush) to complete.
    ///
    /// A tick that flips or begins a migration (or declines one) keeps
    /// the batch in flight too. Its half that touches no DPU runs
    /// while that batch's kernels do, before `batch` is routed: the
    /// flip installs the staged placements, the replan is planned and
    /// the window consumed. Its other half runs once the launch is
    /// back, after the batch is gathered and recorded and before
    /// `batch` is scattered: the staged tiles are written, or the
    /// kernels repointed, and the tick is recorded. The fleet, the
    /// placement and the telemetry then see the operations of one batch
    /// served to completion per call, in the same order. Each completed
    /// batch is recorded as a one-batch serve, as a one-batch
    /// [`serve_stream`](Self::serve_stream) records it.
    ///
    /// Returns what the [`PipelineClock`](crate::pipeline::PipelineClock)
    /// places: `batch`'s stage 1 and the completed batch's stages 2
    /// and 3.
    ///
    /// # Errors
    ///
    /// As [`UpdlrmEngine::on_tick`] and [`UpdlrmEngine::run_batch`].
    /// An error leaves nothing in flight. The batch that was is dropped
    /// without reaching `sink` when its launch or `batch`'s route
    /// fails; when the tick's tile writes or `batch`'s scatter fail, it
    /// was gathered and recorded first, and reaches `sink`. A flip
    /// completes whatever else fails; a begin whose tile writes fail
    /// records nothing, and the old placement keeps serving.
    pub fn serve_step<F>(
        &mut self,
        now: Ps,
        counts: SchedSnapshot,
        batch: &QueryBatch,
        sink: F,
    ) -> Result<Step>
    where
        F: FnOnce(&[Matrix], &EmbeddingBreakdown),
    {
        let away = self.dpu_worker_ready();
        let tick = self.tick_host(now);
        if tick.is_some() && self.in_flight.is_some() {
            self.overlapped_ticks += 1;
        }
        let mut settled = None;
        let home = |engine: &mut Self, done: Option<&EmbeddingBreakdown>| {
            settled = done.map(|bd| engine.record_one_batch_serve(bd));
            match tick {
                Some(tick) => engine.tick_fleet(tick, now, &counts),
                None => Ok(()),
            }
        };
        let s1 = self.pipelined_step(Some(batch), away, home, sink)?;
        Ok(Step { settled, s1 })
    }

    /// Completes the batch [`serve_step`](Self::serve_step) left in
    /// flight, if any: lends its pooled rows and breakdown to `sink` and
    /// returns its stages 2 and 3. A front-end calls it once its last
    /// batch is formed.
    ///
    /// # Errors
    ///
    /// As [`UpdlrmEngine::run_batch`].
    pub fn serve_flush<F>(&mut self, sink: F) -> Result<Option<(Ps, Ps)>>
    where
        F: FnOnce(&[Matrix], &EmbeddingBreakdown),
    {
        let mut settled = None;
        let home = |engine: &mut Self, done: Option<&EmbeddingBreakdown>| {
            settled = done.map(|bd| engine.record_one_batch_serve(bd));
            Ok(())
        };
        self.pipelined_step(None, false, home, sink)?;
        Ok(settled)
    }

    /// Records `bd`'s batch as the one-batch serve it is — its wall is
    /// its three stages back to back, and nothing overlapped it — and
    /// returns its stages 2 and 3.
    fn record_one_batch_serve(&mut self, bd: &EmbeddingBreakdown) -> (Ps, Ps) {
        let wall = bd.total().as_ns();
        self.metrics.record_serve(wall, wall);
        (bd.stage2, bd.stage3)
    }

    /// The pipelined serve's one step (module docs). Routes `batch`
    /// into the staging slot the batch in flight does not hold, takes
    /// that batch's launch back, gathers it, runs `home` with the DPU
    /// side home, scatters `batch`, launches it — on the DPU worker
    /// when `away` — and lends the gathered batch's pooled rows to
    /// `sink`. `home` gets the gathered batch's breakdown, or `None`
    /// when nothing was gathered, and runs whatever else fails. Returns
    /// `batch`'s stage 1. With no batch it is the drain; with nothing
    /// in flight it gathers nothing.
    fn pipelined_step<H, F>(
        &mut self,
        batch: Option<&QueryBatch>,
        away: bool,
        home: H,
        sink: F,
    ) -> Result<Ps>
    where
        H: FnOnce(&mut Self, Option<&EmbeddingBreakdown>) -> Result<()>,
        F: FnOnce(&[Matrix], &EmbeddingBreakdown),
    {
        let slot = self
            .in_flight
            .as_ref()
            .map_or(0, |f| (f.slot + 1) % STAGING_SLOTS);
        let routed = batch.map(|batch| self.route(batch, slot)).transpose();
        // From here on the DPU side is home, whatever fails.
        let ahead = match self.in_flight.take() {
            Some(InFlight {
                slot,
                launched: Some(launched),
            }) => launched.map(|bd| Some((slot, bd))),
            Some(InFlight {
                slot,
                launched: None,
            }) => self.launch_join().map(|bd| Some((slot, bd))),
            None => Ok(None),
        };
        // A batch that fails its route drops the one ahead ungathered.
        let gathered = match (ahead, &routed) {
            (Ok(Some((j, mut bd))), Ok(_)) => self.stage3(j, &mut bd).map(|p| Some((p, bd))),
            (Err(e), _) => Err(e),
            (Ok(_), _) => Ok(None),
        };
        let done = match &gathered {
            Ok(Some((_, bd))) => Some(bd),
            _ => None,
        };
        let homed = home(self, done);
        let gathered = gathered?;
        // A gathered batch is recorded served, so it reaches the sink
        // whatever fails after the gather.
        let sent = routed
            .and_then(|bd| homed.map(|()| bd))
            .and_then(|bd| bd.map(|bd| self.send(slot, away, bd)).transpose());
        if let Some((pooled, bd)) = gathered {
            sink(&pooled, &bd);
            self.recycle_pooled(pooled);
        }
        Ok(sent?.unwrap_or(Ps::ZERO))
    }

    /// Scatters the batch routed into staging slot `slot`, whose
    /// breakdown is `bd`, and launches it — on the DPU worker when
    /// `away` — leaving it in flight. Returns its stage 1.
    fn send(&mut self, slot: usize, away: bool, mut bd: EmbeddingBreakdown) -> Result<Ps> {
        self.scatter(slot, &mut bd)?;
        let s1 = bd.stage1;
        let launched = match away {
            true => {
                self.launch_away(slot, bd);
                None
            }
            false => Some(self.launch_here(slot, &mut bd).map(|()| bd)),
        };
        self.in_flight = Some(InFlight { slot, launched });
        Ok(s1)
    }

    /// Replan ticks this engine has served with a
    /// [`serve_step`](Self::serve_step) batch in flight: every tick that
    /// flipped, began or declined a migration while the batch ahead of
    /// it was still away. Tests read it to check that those ticks took
    /// the overlapped path.
    #[doc(hidden)]
    pub fn overlapped_ticks(&self) -> u64 {
        self.overlapped_ticks
    }

    /// Whether this serve may send launches to the DPU worker, spawning
    /// it on first use. If the OS refuses the thread, this and every
    /// later serve runs its launches on the calling thread.
    fn dpu_worker_ready(&mut self) -> bool {
        if self.overlap && self.worker.is_none() {
            self.worker = DpuWorker::spawn().ok();
            self.overlap = self.worker.is_some();
        }
        self.overlap
    }

    /// Fails `what` while a [`serve_step`](Self::serve_step) batch is
    /// in flight: it holds a staging slot, and its launch may be on the
    /// DPU worker, so a caller that writes the fleet — a tick that acts
    /// writes tiles or repoints kernels — would write it while the
    /// launch is away. [`serve_step`](Self::serve_step) ticks with its
    /// batch in flight by writing only once the launch is back.
    pub(crate) fn ensure_idle(&self, what: &str) -> Result<()> {
        match self.in_flight {
            None => Ok(()),
            Some(_) => Err(CoreError::Invariant(format!(
                "{what} while a served batch is in flight: call serve_flush first"
            ))),
        }
    }
}

/// The batch a pipelined serve left between its stage 2 and its stage
/// 3: its staging slot and, unless its launch is on the DPU worker, the
/// launch's outcome — the breakdown through stage 2, or its error,
/// which the step that takes it back reports.
#[derive(Debug)]
pub(crate) struct InFlight {
    slot: usize,
    launched: Option<Result<EmbeddingBreakdown>>,
}

#[cfg(test)]
mod tests {
    use crate::engine::EmbeddingBreakdown;
    use crate::pipeline::Step;
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

    /// What `serve_step` calls saw and returned, and the engine after
    /// their flush.
    #[derive(Debug, PartialEq)]
    struct Stepped {
        sunk: Vec<(Vec<Matrix>, EmbeddingBreakdown)>,
        steps: Vec<Step>,
        flushed: Option<(Ps, Ps)>,
        snapshot: crate::Snapshot,
        drift: Option<crate::Snapshot>,
    }

    /// Serves `batches` as `Scheduler::run` drives an engine — one
    /// `serve_step` per batch at launch instants 1 ms apart, then the
    /// flush — with the launches on the DPU worker (`hop`) or here.
    fn step_through(engine: &mut UpdlrmEngine, batches: &[QueryBatch], hop: bool) -> Stepped {
        engine.overlap = hop;
        let mut sunk = Vec::new();
        let mut steps = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let now = Ps::from_whole_ns(1_000_000) * (i as u64 + 1);
            let counts = SchedSnapshot {
                batches: i as u64,
                ..SchedSnapshot::default()
            };
            let step = engine.serve_step(now, counts, batch, |p, bd| sunk.push((p.to_vec(), *bd)));
            steps.push(step.unwrap());
        }
        let flushed = engine.serve_flush(|p, bd| sunk.push((p.to_vec(), *bd)));
        Stepped {
            sunk,
            steps,
            flushed: flushed.unwrap(),
            snapshot: engine.metrics_snapshot(),
            drift: engine.drift_snapshot().cloned(),
        }
    }

    /// Open-loop serving through `serve_step` gives the same sink
    /// order, pooled rows, breakdowns, clock steps, telemetry and
    /// drift snapshot with the launches on the DPU worker as on the
    /// calling thread — for every strategy and dtype, with replanning
    /// off and at `periodic:4`, where ticks that flip or begin a
    /// migration keep the batch in flight and touch the fleet only
    /// once its launch is back. Without replanning the batches are also
    /// the closed-loop stream's.
    #[test]
    fn serve_steps_on_the_worker_equal_serve_steps_here() {
        use crate::ReplanPolicy;
        let (tables, workload) = setup(10);
        let batches = &workload.batches;
        for strategy in [
            PartitionStrategy::Uniform,
            PartitionStrategy::NonUniform,
            PartitionStrategy::CacheAware,
        ] {
            for dtype in [EmbedDtype::F32, EmbedDtype::Int8] {
                for replan in [
                    ReplanPolicy::Off,
                    ReplanPolicy::Periodic { every_batches: 4 },
                ] {
                    let case = format!("{strategy} {dtype:?} {replan}");
                    let config = UpdlrmConfig::with_dpus(16, strategy)
                        .with_embed_dtype(dtype)
                        .with_replan(replan)
                        .with_telemetry();
                    let [mut away, mut here] =
                        [(); 2].map(|()| engine(&config, &tables, &workload));
                    let got = step_through(&mut away, batches, true);
                    let want = step_through(&mut here, batches, false);
                    assert_eq!(got, want, "{case}");
                    assert_eq!(got.sunk.len(), batches.len(), "{case}");
                    assert_eq!(away.handoffs, batches.len() as u64, "{case}");
                    assert_eq!(here.handoffs, 0, "{case}");
                    let drift = &got.snapshot.drift;
                    if replan.enabled() {
                        assert!(drift.migrations_completed >= 1, "{case}: {drift:?}");
                        assert!(got.drift.is_some(), "{case}");
                    } else {
                        let mut closed = engine(&config, &tables, &workload);
                        let (report, pooled) = serve(&mut closed, batches, false);
                        report.unwrap();
                        let sunk: Vec<_> = got.sunk.iter().map(|(p, _)| p.clone()).collect();
                        assert_eq!(sunk, pooled, "{case}");
                        let bds: Vec<_> = got.sunk.iter().map(|&(_, bd)| bd).collect();
                        assert_eq!(bds, closed.serve_scratch.breakdowns, "{case}");
                    }
                }
            }
        }
    }

    /// An invalid batch at position 3 of a `serve_step` run fails its
    /// step with the error its route reports on its own, after the
    /// launch in flight (batch 2's) has come home and been dropped: the
    /// engine is idle, and its next run sinks what a fresh engine's
    /// does.
    #[test]
    fn a_bad_batch_mid_step_run_brings_the_dpu_side_home() {
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
        let fresh = step_through(
            &mut engine(&config, &tables, &workload),
            &workload.batches,
            false,
        );
        let fresh: Vec<_> = fresh.sunk.into_iter().map(|(p, _)| p).collect();
        for hop in [true, false] {
            let mut e = engine(&config, &tables, &workload);
            e.overlap = hop;
            let mut sunk = 0;
            for (i, batch) in batches.iter().enumerate().take(4) {
                let now = Ps::from_whole_ns(1_000_000) * (i as u64 + 1);
                let step = e.serve_step(now, SchedSnapshot::default(), batch, |_, _| sunk += 1);
                match i {
                    3 => assert_eq!(step.unwrap_err().to_string(), want, "hop {hop}"),
                    _ => assert!(step.is_ok(), "hop {hop}: batch {i}"),
                }
            }
            assert_eq!(sunk, 2, "hop {hop}: batches 0 and 1 drained, 2 dropped");
            e.dpu.get(); // panics unless the DPU side is home
            assert!(e.in_flight.is_none(), "hop {hop}");
            e.run_batch(&workload.batches[0]).unwrap();
            let again = step_through(&mut e, &workload.batches, hop);
            let again: Vec<_> = again.sunk.into_iter().map(|(p, _)| p).collect();
            assert_eq!(again, fresh, "hop {hop}");
        }
    }

    /// Panics unless every kernel task points at the serving region
    /// and carries the resident rows of its partition's placement at
    /// the current epoch.
    fn assert_kernels_follow_the_placement(e: &mut UpdlrmEngine, case: &str) {
        let (active, epoch) = (e.active_emt, e.resident_epoch);
        for g in &mut e.dpu.get_mut().launch_groups {
            let state = &e.tables[g.table];
            for p in (0..state.tiling.row_parts).filter(|&p| state.locs[p].0 == g.rank) {
                for c in 0..state.tiling.col_slices {
                    for kernel in &mut g.kernels {
                        let task = kernel.task_mut(state.dpu(p, c).1).unwrap();
                        assert_eq!(task.emt_base, state.regions.emt_bases[active], "{case}");
                        assert_eq!(task.cache_base, state.regions.cache_bases[active], "{case}");
                        let want = state.placement.resident[p].rows(epoch);
                        assert_eq!(task.resident, want, "{case}");
                    }
                }
            }
        }
    }

    /// A bad batch at the step whose tick flips a migration, with the
    /// batch ahead in flight: the step returns the batch's route error,
    /// drops the batch ahead unsinked with the DPU side home, and leaves
    /// the flip whole — the kernels point at the new region with the
    /// new placement's resident rows, and the next run sinks and returns
    /// what an engine that served to the same point, flushed and then
    /// flipped in lockstep does.
    #[test]
    fn a_bad_batch_at_a_flip_step_leaves_the_flip_whole() {
        use crate::ReplanPolicy;
        let (tables, workload) = setup(8);
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform)
            .with_replan(ReplanPolicy::Periodic { every_batches: 2 })
            .with_telemetry();
        let now = |i: usize| Ps::from_whole_ns(1_000_000) * (i as u64 + 1);
        let counts = SchedSnapshot::default();
        // The first step whose tick flips, on a good run.
        let mut probe = engine(&config, &tables, &workload);
        let flip = (0..workload.batches.len())
            .find(|&i| {
                let pending = probe.migration_in_flight();
                probe
                    .serve_step(now(i), counts, &workload.batches[i], |_, _| {})
                    .unwrap();
                pending && !probe.migration_in_flight()
            })
            .expect("a migration flips mid-run");
        assert!(flip >= 2, "the flip comes with a batch in flight");

        let mut batches = workload.batches.clone();
        let mut samples: Vec<Vec<u64>> = batches[flip].sparse[1]
            .iter()
            .map(<[u64]>::to_vec)
            .collect();
        samples[0].push(1 << 40);
        batches[flip].sparse[1] = SparseInput::from_samples(samples);
        let want = engine(&config, &tables, &workload)
            .run_batch(&batches[flip])
            .unwrap_err()
            .to_string();
        for hop in [true, false] {
            let case = format!("hop {hop}");
            let mut e = engine(&config, &tables, &workload);
            e.overlap = hop;
            let mut sunk = 0;
            for (i, batch) in batches.iter().enumerate().take(flip + 1) {
                let step = e.serve_step(now(i), counts, batch, |_, _| sunk += 1);
                match i == flip {
                    true => assert_eq!(step.unwrap_err().to_string(), want, "{case}"),
                    false => assert!(step.is_ok(), "{case}: batch {i}"),
                }
            }
            assert_eq!(sunk, flip - 1, "{case}: the batch ahead is dropped");
            assert_eq!(e.overlapped_ticks, 2, "{case}: the begin and the flip");
            e.dpu.get(); // panics unless the DPU side is home
            assert!(e.in_flight.is_none(), "{case}");
            assert!(!e.migration_in_flight(), "{case}: the flip happened");
            assert_eq!(e.metrics.snapshot().drift.migrations_completed, 1, "{case}");
            assert_kernels_follow_the_placement(&mut e, &case);

            let mut lockstep = engine(&config, &tables, &workload);
            lockstep.overlap = hop;
            for (i, batch) in batches.iter().enumerate().take(flip) {
                lockstep
                    .serve_step(now(i), counts, batch, |_, _| {})
                    .unwrap();
            }
            lockstep.serve_flush(|_, _| {}).unwrap();
            lockstep.on_tick(now(flip), counts).unwrap();
            assert_eq!(
                (e.active_emt, e.resident_epoch),
                (lockstep.active_emt, lockstep.resident_epoch),
                "{case}"
            );
            let got = step_through(&mut e, &workload.batches, hop);
            let want = step_through(&mut lockstep, &workload.batches, hop);
            assert_eq!(
                (got.sunk, got.steps, got.flushed),
                (want.sunk, want.steps, want.flushed),
                "{case}"
            );
        }
    }

    /// Tile writes that fail at the step whose tick begins a migration,
    /// with the batch ahead in flight: the step returns the write error,
    /// and the batch ahead — gathered and recorded served before the
    /// tick writes — still reaches the sink, so the sink and the
    /// registry count the same batches. No migration begins, and the
    /// DPU side is home.
    #[test]
    fn a_failed_tile_write_at_a_begin_step_still_sinks_the_batch_ahead() {
        use crate::error::CoreError;
        use crate::ReplanPolicy;
        use upmem_sim::{arch::MRAM_CAPACITY, SimError};
        let (tables, workload) = setup(8);
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform)
            .with_replan(ReplanPolicy::Periodic { every_batches: 2 })
            .with_telemetry();
        let now = |i: usize| Ps::from_whole_ns(1_000_000) * (i as u64 + 1);
        let counts = SchedSnapshot::default();
        // The first step whose tick begins a migration, on a good run.
        let mut probe = engine(&config, &tables, &workload);
        let begin = (0..workload.batches.len())
            .find(|&i| {
                probe
                    .serve_step(now(i), counts, &workload.batches[i], |_, _| {})
                    .unwrap();
                probe.migration_in_flight()
            })
            .expect("a migration begins mid-run");
        assert!(begin >= 1, "the begin comes with a batch in flight");

        for hop in [true, false] {
            let case = format!("hop {hop}");
            let mut e = engine(&config, &tables, &workload);
            e.overlap = hop;
            let mut sunk = 0;
            let batches = &workload.batches;
            for (i, batch) in batches.iter().enumerate().take(begin) {
                e.serve_step(now(i), counts, batch, |_, _| sunk += 1)
                    .unwrap();
            }
            // Point the region the migration writes past the end of MRAM.
            let inactive = e.active_emt ^ 1;
            for state in &mut e.tables {
                state.regions.emt_bases[inactive] = MRAM_CAPACITY as u32;
            }
            let err = e
                .serve_step(now(begin), counts, &batches[begin], |_, _| sunk += 1)
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Sim(SimError::MramOutOfBounds { .. })),
                "{case}: {err}"
            );
            assert_eq!(sunk, begin, "{case}: the batch ahead reached the sink");
            let snap = e.metrics.snapshot();
            assert_eq!(snap.serves, sunk as u64, "{case}: sink and registry agree");
            assert_eq!(snap.drift.replans_triggered, 0, "{case}");
            assert_eq!(e.overlapped_ticks, 1, "{case}: the begin");
            e.dpu.get(); // panics unless the DPU side is home
            assert!(e.in_flight.is_none(), "{case}");
            assert!(!e.migration_in_flight(), "{case}: no migration began");
        }
    }

    /// A `serve_step` batch in flight holds a staging slot, and its
    /// launch may be on the DPU worker: `run_batch`, `serve_stream` and
    /// a public tick that would replan refuse to run until the flush.
    #[test]
    fn an_engine_with_a_batch_in_flight_refuses_other_serves() {
        let (tables, workload) = setup(2);
        let batches = &workload.batches;
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform)
            .with_replan(crate::ReplanPolicy::Periodic { every_batches: 1 });
        let mut e = engine(&config, &tables, &workload);
        let counts = SchedSnapshot::default();
        e.serve_step(Ps(1), counts, &batches[0], |_, _| {}).unwrap();
        assert!(e.tick_acts(Ps(2)), "one routed batch makes a replan due");
        for err in [
            e.run_batch(&batches[1]).map(|_| ()),
            e.serve_stream(batches, |_, _, _| {}).map(|_| ()),
            e.on_tick(Ps(2), counts),
        ] {
            let err = err.unwrap_err().to_string();
            assert!(err.contains("in flight"), "{err}");
        }
        let tail = e.serve_flush(|_, _| {}).unwrap();
        assert!(tail.is_some());
        e.on_tick(Ps(2), counts).unwrap();
        e.run_batch(&batches[1]).unwrap();
    }

    /// What is selected at run time is what runs: a multi-batch
    /// `serve_stream` and every `serve_step` — every call a front-end
    /// makes, the wall runtime's shards included — hand their launches
    /// to the worker, and nothing else does: not `run_batch`, not a
    /// one-batch stream, and not a multi-batch stream on an engine that
    /// may not overlap (one core).
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
        step_through(&mut e, batches, true);
        assert_eq!(e.handoffs, 2 * batches.len() as u64);

        let mut one_core = engine(&config, &tables, &workload);
        one_core.overlap = false;
        one_core.run_batch(&batches[0]).unwrap();
        let served = one_core.serve_stream(batches, |_, _, _| {}).unwrap();
        assert_eq!(served, e.serve_stream(batches, |_, _, _| {}).unwrap());
        assert_eq!(one_core.handoffs, 0);
        assert!(one_core.worker.is_none());
    }

    /// The DPU worker runs each launch on the SIMD tier of the thread
    /// that sent it, so an override around a serve reaches stage 2 too.
    /// Every tier gives the same bits, so only the tier the worker
    /// records shows it; each tier is asked for, so a worker that kept
    /// its own tier fails on any host with two tiers, under
    /// `UPDLRM_FORCE_SCALAR=1` too.
    #[test]
    fn the_dpu_worker_runs_the_senders_simd_tier() {
        use dlrm_model::simd::{self, SimdTier};
        let (tables, workload) = setup(3);
        let batches = &workload.batches;
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
        let mut e = engine(&config, &tables, &workload);
        e.overlap = true;
        for t in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            let handoffs = e.handoffs;
            simd::with_tier(t, || e.serve_stream(batches, |_, _, _| {})).unwrap();
            assert_eq!(e.handoffs, handoffs + batches.len() as u64);
            assert_eq!(e.worker_tier, Some(simd::with_tier(t, simd::tier)));
            simd::with_tier(t, || step_through(&mut e, batches, true));
            assert_eq!(e.worker_tier, Some(simd::with_tier(t, simd::tier)));
        }
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
