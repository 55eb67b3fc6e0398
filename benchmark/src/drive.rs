//! One *system pass*: a workload's whole trace pushed through the
//! program the way its [`Drive`] says, from one call on the public API.

use std::hint::black_box;
use std::sync::Arc;

use updlrm::prelude::*;
use updlrm::runtime::RuntimeConfig;

use crate::shapes::{Drive, Inputs, Shape};

/// What an observer sees of one served batch.
pub struct BatchView<'a> {
    /// Global sample index pooled into each row, in row order.
    pub ids: &'a [u32],
    pub pooled: &'a [Matrix],
    pub breakdown: &'a EmbeddingBreakdown,
}

/// Hooks a pass calls from the serving sink. The timed phase uses
/// [`Quiet`]; the traced phase files spans; the verified pass compares
/// against the oracle. Static dispatch keeps the quiet path free.
pub trait Observer {
    /// A batch's pooled embeddings were just lent to the sink.
    fn batch(&mut self, view: &BatchView<'_>);
    /// The dense layers of batch `seq` just produced `ctr` (closed loop
    /// only — the open-loop drives stop at pooled embeddings).
    fn dense(&mut self, _seq: usize, _ctr: &[f32]) {}
}

/// Observer of the timed phase: keeps the results alive, nothing more.
pub struct Quiet;

impl Observer for Quiet {
    fn batch(&mut self, view: &BatchView<'_>) {
        black_box(view.pooled);
    }
    fn dense(&mut self, _seq: usize, ctr: &[f32]) {
        black_box(ctr);
    }
}

/// Outcome of one system pass, on both clocks' raw material.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Inferences offered to the system.
    pub requests: u64,
    /// Inferences that completed.
    pub completed: u64,
    /// Inferences shed or rejected by admission control.
    pub dropped: u64,
    /// Batches executed.
    pub batches: u64,
    /// Sum over `serve_stream` calls of the modeled pipeline wall (ns):
    /// the pipelined wall of the closed loop, the per-batch service
    /// times of the open loops.
    pub modeled_ns: f64,
    /// Modeled median / 99th-percentile latency (ns): per batch from
    /// stage-1 issue to stage-3 drain (closed loop), per request from
    /// its arrival stamp to its batch's drain (open loop).
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// The scheduler's report, for the open-loop drives.
    pub sched: Option<SchedReport>,
    /// Wall-clock measurements, for the runtime drive.
    pub wall: Option<WallStats>,
}

/// Everything a workload needs to run passes.
pub struct Runner<'a> {
    pub shape: Shape,
    pub inputs: &'a Inputs,
    pub model: Arc<Dlrm>,
    /// One engine; a `Vec` because `Runtime::run` takes its shards as a
    /// slice. The drift drive replaces it every pass.
    engines: Vec<UpdlrmEngine>,
    scheduler: Scheduler,
    telemetry: bool,
    /// Identity ids of the closed loop's pre-formed batches.
    closed_ids: Vec<u32>,
}

impl<'a> Runner<'a> {
    pub fn new(shape: Shape, inputs: &'a Inputs, model: Arc<Dlrm>, engine: UpdlrmEngine) -> Self {
        let telemetry = engine.config().telemetry;
        Runner {
            shape,
            inputs,
            model,
            engines: vec![engine],
            scheduler: Scheduler::new(shape.sched_config())
                .expect("the benchmark's scheduler configuration is valid"),
            telemetry,
            closed_ids: (0..shape.requests() as u32).collect(),
        }
    }

    pub fn engine(&self) -> &UpdlrmEngine {
        &self.engines[0]
    }

    pub fn engine_mut(&mut self) -> &mut UpdlrmEngine {
        &mut self.engines[0]
    }

    /// Whether engines the drift drive builds record telemetry; returns
    /// the previous setting.
    pub fn set_telemetry(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.telemetry, on)
    }

    /// Runs one system pass over `inputs.workload`.
    pub fn pass<O: Observer>(&mut self, obs: &mut O) -> Result<PassReport, String> {
        let inputs = self.inputs;
        let workload = &inputs.workload;
        match self.shape.drive {
            Drive::Closed => self.pass_closed(obs),
            Drive::Open { .. } => self.pass_sched(workload, obs),
            Drive::Drift { .. } => {
                self.engines[0] = self
                    .shape
                    .build_engine(&self.model, self.inputs, self.telemetry);
                self.pass_sched(workload, obs)
            }
            Drive::Wall => self.pass_runtime(workload, false, obs),
        }
    }

    fn pass_closed<O: Observer>(&mut self, obs: &mut O) -> Result<PassReport, String> {
        let batches = &self.inputs.workload.batches;
        let model = &self.model;
        let bs = self.shape.batch_size;
        let ids = &self.closed_ids;
        let mut dense_err = None;
        let report = self.engines[0]
            .serve_stream(batches, |i, pooled, bd| {
                obs.batch(&BatchView {
                    ids: &ids[i * bs..(i + 1) * bs],
                    pooled,
                    breakdown: bd,
                });
                match model.forward_with_pooled(&batches[i], pooled) {
                    Ok(ctr) => obs.dense(i, &ctr),
                    Err(e) => dense_err = Some(e.to_string()),
                }
            })
            .map_err(|e| e.to_string())?;
        if let Some(e) = dense_err {
            return Err(e);
        }
        Ok(PassReport {
            requests: report.samples as u64,
            completed: report.samples as u64,
            dropped: 0,
            batches: report.batches as u64,
            modeled_ns: report.wall_ns,
            p50_ns: report.p50_latency_ns,
            p99_ns: report.p99_latency_ns,
            sched: None,
            wall: None,
        })
    }

    /// The modeled event loop over `workload` — the served trace, or
    /// the same requests restamped at another rate (the ladder).
    pub fn pass_sched<O: Observer>(
        &mut self,
        workload: &Workload,
        obs: &mut O,
    ) -> Result<PassReport, String> {
        let mut modeled_ns = 0.0;
        let report = self
            .scheduler
            .run(&mut self.engines[0], workload, |_, ids, pooled, bd| {
                modeled_ns += bd.total_ns();
                obs.batch(&BatchView {
                    ids,
                    pooled,
                    breakdown: bd,
                });
            })
            .map_err(|e| e.to_string())?;
        Ok(sched_pass_report(&report, modeled_ns, None))
    }

    /// Real threads over `workload`: on the wall clock, or — when
    /// `deterministic` — oracle-locked to the modeled clock, where the
    /// report must equal [`Runner::pass_sched`]'s.
    pub fn pass_runtime<O: Observer>(
        &mut self,
        workload: &Workload,
        deterministic: bool,
        obs: &mut O,
    ) -> Result<PassReport, String> {
        let runtime = Runtime::new(RuntimeConfig {
            sched: self.shape.sched_config(),
            shards: 1,
            time_scale: 1.0,
            deterministic,
            ring_capacity: 64,
        })
        .map_err(|e| e.to_string())?;
        let report = runtime
            .run(&mut self.engines, workload, |_, ids, pooled, bd| {
                obs.batch(&BatchView {
                    ids,
                    pooled,
                    breakdown: bd,
                });
            })
            .map_err(|e| e.to_string())?;
        Ok(sched_pass_report(
            &report.sched,
            report.wall.modeled_service_ns,
            Some(report.wall),
        ))
    }
}

fn sched_pass_report(report: &SchedReport, modeled_ns: f64, wall: Option<WallStats>) -> PassReport {
    PassReport {
        requests: report.requests,
        completed: report.completed,
        dropped: report.shed + report.rejected,
        batches: report.batches,
        modeled_ns,
        p50_ns: report.p50_latency_ns,
        p99_ns: report.p99_latency_ns,
        sched: Some(*report),
        wall,
    }
}
