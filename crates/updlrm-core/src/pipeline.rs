//! Inter-batch pipelining of the three-stage embedding pipeline — an
//! extension beyond the paper (its evaluation runs batches back to
//! back; §6 lists further optimization of the inference pipeline as
//! future work).
//!
//! Stages 1 (CPU→DPU) and 3 (DPU→CPU) contend for the host memory bus,
//! while stage 2 runs on the DPU array — two distinct resources. Every
//! engine reserves two MRAM staging slots per DPU, so batch `i + 1`'s
//! stage 1 can overlap batch `i`'s stage 2. [`PipelineClock`] is the
//! one recurrence that times that depth-2 schedule, on the one modeled
//! clock: integer picoseconds ([`Ps`]), each stage time rounded once
//! where the simulator priced it. The closed-loop serve
//! ([`pipelined_wall`], `UpdlrmEngine::serve_stream`) feeds it every
//! batch at instant 0; the open-loop front-ends (the scheduler's event
//! loop, the oracle-locked runtime, the tenant fleet) feed it each
//! batch at its launch instant. Both place the same stage times by the
//! same integer sums, so a batch drains at the same instant in either.
//! [`sequential_wall`] is the paper's back-to-back figure of the same
//! batches.

use crate::engine::EmbeddingBreakdown;
use upmem_sim::Ps;

/// Wall-clock time of executing `batches` back to back without any
/// overlap (the paper's measurement mode).
pub fn sequential_wall(batches: &[EmbeddingBreakdown]) -> Ps {
    batches.iter().map(EmbeddingBreakdown::total).sum()
}

/// Wall-clock time with inter-batch pipelining under double buffering:
/// stage 2 of batch `i` may overlap bus transfers of neighboring
/// batches, but the bus serializes all stage-1/stage-3 phases and each
/// batch's stages stay ordered (1 → 2 → 3).
///
/// The schedule is work-conserving and processes bus phases in batch
/// order (stage 3 of batch `i` before stage 1 of batch `i + 2`), which
/// is what a host driver with a bounded MRAM staging area does.
pub fn pipelined_wall(batches: &[EmbeddingBreakdown]) -> Ps {
    pipelined_schedule(batches, |_| {})
}

/// [`PipelineClock`] fed every batch of a closed loop at instant 0:
/// returns the wall (the last drain) and reports each batch, in batch
/// order, as it drains. The executed serve takes its wall and
/// latencies from here.
pub(crate) fn pipelined_schedule(
    batches: &[EmbeddingBreakdown],
    mut on_drain: impl FnMut(Drained),
) -> Ps {
    let mut clock = PipelineClock::default();
    for bd in batches {
        if let Some(d) = clock.push(Ps::ZERO, bd.stages()) {
            on_drain(d);
        }
    }
    if let Some(d) = clock.finish() {
        on_drain(d);
    }
    clock.slot_free()
}

/// One batch's three stage durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stages {
    /// Stage 1: CPU→DPU scatter, on the host bus.
    pub s1: Ps,
    /// Stage 2: the lookup kernel, on the DPU array.
    pub s2: Ps,
    /// Stage 3: DPU→CPU gather, on the host bus.
    pub s3: Ps,
}

impl Stages {
    /// The three stages back to back.
    pub fn total(&self) -> Ps {
        self.s1 + self.s2 + self.s3
    }
}

/// A batch [`PipelineClock`] has finished placing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drained {
    /// The instant its stage 1 was issued on the bus.
    pub issue: Ps,
    /// The instant its stage 3 drained — its staging slot frees then.
    pub drain: Ps,
}

/// What one serve of an open-loop front-end told the [`PipelineClock`]:
/// its batch's stage 1, and the stages 2 and 3 of the batch ahead,
/// which this serve completed. The serve's own batch stays in flight
/// until the next serve, or the front-end's flush, reports it — through
/// [`UpdlrmEngine::serve_step`](crate::UpdlrmEngine::serve_step) and
/// [`serve_flush`](crate::UpdlrmEngine::serve_flush) on an engine.
/// [`PipelineClock::step`] places it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    /// Stages 2 and 3 `(s2, s3)` of the batch the serve before left in
    /// flight and this one completed, or `None` if none was in flight.
    pub settled: Option<(Ps, Ps)>,
    /// Stage 1 of this serve's batch.
    pub s1: Ps,
}

/// The depth-2 pipeline recurrence, one batch at a time.
///
/// Stage 2 serializes on the DPU array; stages 1 and 3 serialize on the
/// host bus; each batch's stages stay ordered. Two staging slots mean
/// batch `i` may start once batch `i − 2` has drained. On the bus a
/// batch's stage 1 goes before the pending stage 3 of the batch ahead
/// of it (`s1_0, s1_1, s3_0, s1_2, s3_1, …`), unless the batch
/// launches after that stage 3 would already have started.
///
/// A batch is placed in two halves: [`issue`](Self::issue) places its
/// stage 1, and with it the stage 3 of the batch ahead, and
/// [`settle`](Self::settle) its stages 2 and 3. Nothing in between
/// reads them: [`slot_free`](Self::slot_free), the next launch's
/// bound, is the drain of the batch ahead, which `issue` has placed.
/// [`push`](Self::push) is the two back to back.
///
/// Only two batches are ever in flight, so the state is four instants,
/// one issued batch and one pending stage 3: no arrays, no allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineClock {
    /// When the host bus is next free.
    bus_free: Ps,
    /// When the DPU array is next free.
    dpu_free: Ps,
    /// The batch issued but not yet settled: its issue instant and the
    /// instant its stage 1 ends.
    issued: Option<(Ps, Ps)>,
    /// The batch whose stage 3 is not yet on the bus: its issue
    /// instant, its stage-2 completion and its stage-3 length.
    pending: Option<(Ps, Ps, Ps)>,
    /// The drain of the batch before the pending one.
    slot_free: Ps,
}

impl PipelineClock {
    /// The instant a staging slot frees for the next batch: the drain
    /// of the batch before the pending one. No batch may launch
    /// earlier. After [`finish`](Self::finish), the last drain.
    pub fn slot_free(&self) -> Ps {
        self.slot_free
    }

    /// The instant the DPU array finishes the stage 2 of every batch
    /// settled so far.
    pub fn dpu_free(&self) -> Ps {
        self.dpu_free
    }

    /// Places a batch launched at `launch` (no earlier than
    /// [`slot_free`](Self::slot_free)) with stage times `stages`, and
    /// with it the pending stage 3 of the batch before. Returns that
    /// batch, now drained.
    pub fn push(&mut self, launch: Ps, stages: Stages) -> Option<Drained> {
        let drained = self.issue(launch, stages.s1);
        self.settle(stages.s2, stages.s3);
        drained
    }

    /// Places the stage 1 of a batch launched at `launch` (no earlier
    /// than [`slot_free`](Self::slot_free)) and the pending stage 3 of
    /// the batch before, and returns that batch, now drained. The batch
    /// stays issued until [`settle`](Self::settle).
    ///
    /// # Panics
    ///
    /// If the batch issued before is not yet settled.
    pub fn issue(&mut self, launch: Ps, s1: Ps) -> Option<Drained> {
        assert!(
            self.issued.is_none(),
            "issue before settling the batch ahead"
        );
        let mut drained = None;
        let pending = self.pending.take();
        if let Some(p @ (_, s2_done, _)) = pending {
            if launch > self.bus_free.max(s2_done) {
                drained = Some(self.stage3(p));
            }
        }
        let issue = launch.max(self.bus_free);
        self.bus_free = issue + s1;
        self.issued = Some((issue, self.bus_free));
        if drained.is_none() {
            drained = pending.map(|p| self.stage3(p));
        }
        drained
    }

    /// Places the stages 2 and 3 of the issued batch, which becomes the
    /// pending one.
    ///
    /// # Panics
    ///
    /// If no batch is issued.
    pub fn settle(&mut self, s2: Ps, s3: Ps) {
        let (issue, s1_end) = self.issued.take().expect("settle without an issued batch");
        self.dpu_free = s1_end.max(self.dpu_free) + s2;
        self.pending = Some((issue, self.dpu_free, s3));
    }

    /// Places one serve's [`Step`]: settles the batch it completed and
    /// issues its batch at `launch`. Returns the batch ahead, now
    /// drained.
    pub fn step(&mut self, launch: Ps, step: Step) -> Option<Drained> {
        if let Some((s2, s3)) = step.settled {
            self.settle(s2, s3);
        }
        self.issue(launch, step.s1)
    }

    /// Places the pending stage 3, if any, and returns that batch.
    ///
    /// # Panics
    ///
    /// If a batch is issued but not settled.
    pub fn finish(&mut self) -> Option<Drained> {
        assert!(
            self.issued.is_none(),
            "finish before settling the last batch"
        );
        self.pending.take().map(|p| self.stage3(p))
    }

    fn stage3(&mut self, (issue, s2_done, s3): (Ps, Ps, Ps)) -> Drained {
        let drain = s2_done.max(self.bus_free) + s3;
        self.bus_free = drain;
        self.slot_free = drain;
        Drained { issue, drain }
    }
}

/// Summary of the pipelining gain over a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineReport {
    /// Back-to-back wall time.
    pub sequential: Ps,
    /// Pipelined wall time.
    pub pipelined: Ps,
}

impl PipelineReport {
    /// Builds the report from per-batch breakdowns.
    pub fn from_batches(batches: &[EmbeddingBreakdown]) -> Self {
        PipelineReport {
            sequential: sequential_wall(batches),
            pipelined: pipelined_wall(batches),
        }
    }

    /// Speedup of pipelining (≥ 1.0).
    pub fn speedup(&self) -> f64 {
        if self.pipelined == Ps::ZERO {
            1.0
        } else {
            self.sequential.0 as f64 / self.pipelined.0 as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(s1: u64, s2: u64, s3: u64) -> EmbeddingBreakdown {
        EmbeddingBreakdown {
            stage1: Ps(s1),
            stage2: Ps(s2),
            stage3: Ps(s3),
            ..Default::default()
        }
    }

    fn stages(s1: u64, s2: u64, s3: u64) -> Stages {
        bd(s1, s2, s3).stages()
    }

    #[test]
    fn single_batch_has_no_overlap() {
        let b = [bd(10, 50, 20)];
        assert_eq!(pipelined_wall(&b), Ps(80));
        assert_eq!(sequential_wall(&b), Ps(80));
    }

    #[test]
    fn lookup_bound_trace_pipelines_to_stage2_sum() {
        // Stage 2 dominates: bus phases hide behind it entirely except
        // the lead-in and drain.
        let b = vec![bd(5, 100, 5); 4];
        assert_eq!(pipelined_wall(&b), Ps(5 + 400 + 5));
        assert!(pipelined_wall(&b) < sequential_wall(&b));
    }

    #[test]
    fn bus_bound_trace_pipelines_to_bus_sum() {
        let b = vec![bd(50, 5, 50); 4];
        let wall = pipelined_wall(&b);
        // The bus must carry 4 * 100; stage 2 hides inside.
        assert!(wall >= Ps(400));
        assert!(wall <= Ps(400 + 5), "wall {wall}");
    }

    #[test]
    fn pipelining_never_loses_to_sequential() {
        let traces = [
            vec![bd(10, 10, 10); 8],
            vec![bd(1, 100, 1), bd(100, 1, 100), bd(10, 10, 10)],
            vec![bd(0, 0, 0); 3],
        ];
        for b in &traces {
            assert!(pipelined_wall(b) <= sequential_wall(b));
        }
    }

    #[test]
    fn report_speedup_is_computed() {
        let b = vec![bd(30, 40, 30); 6];
        let r = PipelineReport::from_batches(&b);
        assert!(r.speedup() > 1.2, "speedup {}", r.speedup());
        let empty = PipelineReport::from_batches(&[]);
        assert_eq!(empty.speedup(), 1.0);
    }

    #[test]
    fn a_lone_batch_drains_after_its_three_stages() {
        let mut clock = PipelineClock::default();
        assert_eq!(clock.push(Ps(100), stages(3, 5, 7)), None);
        assert_eq!(clock.slot_free(), Ps(0), "the other slot is free");
        let d = clock.finish().expect("one batch pending");
        assert_eq!((d.issue, d.drain), (Ps(100), Ps(115)));
        assert_eq!(clock.slot_free(), Ps(115));
        assert_eq!(clock.finish(), None);
    }

    #[test]
    fn a_late_launch_drains_the_pending_batch_first() {
        let s = stages(10, 10, 10);
        // Batch 1 launches at 15, before batch 0's stage 3 could start
        // (its stage 2 ends at 20): s1_1 takes the bus 15..25 and s3_0
        // waits for it.
        let mut clock = PipelineClock::default();
        clock.push(Ps(0), s);
        let d0 = clock.push(Ps(15), s).expect("batch 0 placed");
        assert_eq!(d0.drain, Ps(35));
        // Batch 1 launching at 21 finds s3_0 already due at 20 and
        // on the bus from then on: s3_0 goes first.
        let mut clock = PipelineClock::default();
        clock.push(Ps(0), s);
        let d0 = clock.push(Ps(21), s).expect("batch 0 placed");
        assert_eq!(d0.drain, Ps(30));
        assert_eq!(clock.slot_free(), Ps(30));
        let d1 = clock.finish().expect("batch 1 pending");
        assert_eq!((d1.issue, d1.drain), (Ps(30), Ps(60)));
    }

    #[test]
    fn stages_stay_ordered_per_batch() {
        // A degenerate trace where stage 1 of batch 1 is huge: batch 1's
        // stage 2 cannot start before it, so the wall reflects it.
        let b = [bd(1, 1, 1), bd(1000, 1, 1)];
        assert!(pipelined_wall(&b) >= Ps(1001 + 1 + 1));
    }
}
