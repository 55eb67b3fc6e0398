//! Inter-batch pipelining of the three-stage embedding pipeline — an
//! extension beyond the paper (its evaluation runs batches back to
//! back; §6 lists further optimization of the inference pipeline as
//! future work).
//!
//! Stages 1 (CPU→DPU) and 3 (DPU→CPU) contend for the host memory bus,
//! while stage 2 runs on the DPU array — two distinct resources. Every
//! engine reserves two MRAM staging slots per DPU, so batch `i + 1`'s
//! stage 1 can overlap batch `i`'s stage 2. [`PipelineClock`] is the
//! one recurrence that times that depth-2 schedule: the closed-loop
//! serve ([`pipelined_wall_ns`], `UpdlrmEngine::serve_stream`) feeds it
//! every batch at instant 0 on an f64 clock, and the open-loop
//! front-ends (the scheduler's event loop, the oracle-locked runtime,
//! the tenant fleet) feed it each batch at its launch instant on the
//! integer-ns clock. [`sequential_wall_ns`] is the paper's back-to-back
//! figure of the same batches.

use crate::engine::EmbeddingBreakdown;

/// Wall-clock time of executing `batches` back to back without any
/// overlap (the paper's measurement mode).
pub fn sequential_wall_ns(batches: &[EmbeddingBreakdown]) -> f64 {
    batches.iter().map(EmbeddingBreakdown::total_ns).sum()
}

/// Wall-clock time with inter-batch pipelining under double buffering:
/// stage 2 of batch `i` may overlap bus transfers of neighboring
/// batches, but the bus serializes all stage-1/stage-3 phases and each
/// batch's stages stay ordered (1 → 2 → 3).
///
/// The schedule is work-conserving and processes bus phases in batch
/// order (stage 3 of batch `i` before stage 1 of batch `i + 2`), which
/// is what a host driver with a bounded MRAM staging area does.
pub fn pipelined_wall_ns(batches: &[EmbeddingBreakdown]) -> f64 {
    pipelined_schedule(batches, |_| {})
}

/// [`PipelineClock`] fed every batch of a closed loop at instant 0:
/// returns the wall (the last drain) and reports each batch, in batch
/// order, as it drains. The executed serve takes its wall and
/// latencies from here.
pub(crate) fn pipelined_schedule(
    batches: &[EmbeddingBreakdown],
    mut on_drain: impl FnMut(Drained<f64>),
) -> f64 {
    let mut clock = PipelineClock::default();
    for bd in batches {
        if let Some(d) = clock.push(0.0, Stages::of(bd)) {
            on_drain(d);
        }
    }
    if let Some(d) = clock.finish() {
        on_drain(d);
    }
    clock.slot_free()
}

/// An instant on one of the clocks the recurrence runs on: f64 ns for
/// the closed-loop serve, integer ns for the open-loop front-ends.
pub trait ClockTime: Copy + PartialOrd + Default {
    /// `self + d`; saturating on the integer clock.
    fn plus(self, d: Self) -> Self;
}

impl ClockTime for f64 {
    fn plus(self, d: f64) -> f64 {
        self + d
    }
}

impl ClockTime for u64 {
    fn plus(self, d: u64) -> u64 {
        self.saturating_add(d)
    }
}

/// The later of two instants (`a` on ties, like `f64::max` on the
/// non-negative, NaN-free times the clock sees).
fn later<T: ClockTime>(a: T, b: T) -> T {
    if b > a {
        b
    } else {
        a
    }
}

/// One batch's three stage durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stages<T> {
    /// Stage 1: CPU→DPU scatter, on the host bus.
    pub s1: T,
    /// Stage 2: the lookup kernel, on the DPU array.
    pub s2: T,
    /// Stage 3: DPU→CPU gather, on the host bus.
    pub s3: T,
}

impl<T: ClockTime> Stages<T> {
    /// The three stages back to back.
    pub fn total(&self) -> T {
        self.s1.plus(self.s2).plus(self.s3)
    }
}

impl Stages<f64> {
    /// The modeled stage times of one served batch.
    pub fn of(bd: &EmbeddingBreakdown) -> Self {
        Stages {
            s1: bd.stage1_ns,
            s2: bd.stage2_ns,
            s3: bd.stage3_ns,
        }
    }
}

/// A batch [`PipelineClock`] has finished placing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drained<T> {
    /// The instant its stage 1 was issued on the bus.
    pub issue: T,
    /// The instant its stage 3 drained — its staging slot frees then.
    pub drain: T,
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
/// Only two batches are ever in flight, so the state is four instants
/// and one pending stage 3: no arrays, no allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineClock<T> {
    /// When the host bus is next free.
    bus_free: T,
    /// When the DPU array is next free.
    dpu_free: T,
    /// The batch whose stage 3 is not yet on the bus: its issue
    /// instant, its stage-2 completion and its stage-3 length.
    pending: Option<(T, T, T)>,
    /// The drain of the batch before the pending one.
    slot_free: T,
}

impl<T: ClockTime> PipelineClock<T> {
    /// The instant a staging slot frees for the next batch: the drain
    /// of the batch before the pending one. No batch may launch
    /// earlier. After [`finish`](Self::finish), the last drain.
    pub fn slot_free(&self) -> T {
        self.slot_free
    }

    /// The instant the DPU array finishes the stage 2 of every batch
    /// placed so far.
    pub fn dpu_free(&self) -> T {
        self.dpu_free
    }

    /// Places a batch launched at `launch` (no earlier than
    /// [`slot_free`](Self::slot_free)) with stage times `stages`, and
    /// with it the pending stage 3 of the batch before. Returns that
    /// batch, now drained.
    pub fn push(&mut self, launch: T, stages: Stages<T>) -> Option<Drained<T>> {
        let mut drained = None;
        let pending = self.pending.take();
        if let Some(p @ (_, s2_done, _)) = pending {
            if launch > later(self.bus_free, s2_done) {
                drained = Some(self.stage3(p));
            }
        }
        let issue = later(launch, self.bus_free);
        self.bus_free = issue.plus(stages.s1);
        self.dpu_free = later(self.bus_free, self.dpu_free).plus(stages.s2);
        if drained.is_none() {
            drained = pending.map(|p| self.stage3(p));
        }
        self.pending = Some((issue, self.dpu_free, stages.s3));
        drained
    }

    /// Places the pending stage 3, if any, and returns that batch.
    pub fn finish(&mut self) -> Option<Drained<T>> {
        self.pending.take().map(|p| self.stage3(p))
    }

    fn stage3(&mut self, (issue, s2_done, s3): (T, T, T)) -> Drained<T> {
        let drain = later(s2_done, self.bus_free).plus(s3);
        self.bus_free = drain;
        self.slot_free = drain;
        Drained { issue, drain }
    }
}

/// Summary of the pipelining gain over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Back-to-back wall time (ns).
    pub sequential_ns: f64,
    /// Pipelined wall time (ns).
    pub pipelined_ns: f64,
}

impl PipelineReport {
    /// Builds the report from per-batch breakdowns.
    pub fn from_batches(batches: &[EmbeddingBreakdown]) -> Self {
        PipelineReport {
            sequential_ns: sequential_wall_ns(batches),
            pipelined_ns: pipelined_wall_ns(batches),
        }
    }

    /// Speedup of pipelining (≥ 1.0 up to scheduling rounding).
    pub fn speedup(&self) -> f64 {
        if self.pipelined_ns <= 0.0 {
            1.0
        } else {
            self.sequential_ns / self.pipelined_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(s1: f64, s2: f64, s3: f64) -> EmbeddingBreakdown {
        EmbeddingBreakdown {
            stage1_ns: s1,
            stage2_ns: s2,
            stage3_ns: s3,
            ..Default::default()
        }
    }

    #[test]
    fn single_batch_has_no_overlap() {
        let b = [bd(10.0, 50.0, 20.0)];
        assert_eq!(pipelined_wall_ns(&b), 80.0);
        assert_eq!(sequential_wall_ns(&b), 80.0);
    }

    #[test]
    fn lookup_bound_trace_pipelines_to_stage2_sum() {
        // Stage 2 dominates: bus phases hide behind it entirely except
        // the lead-in and drain.
        let b = vec![bd(5.0, 100.0, 5.0); 4];
        let wall = pipelined_wall_ns(&b);
        assert!((wall - (5.0 + 400.0 + 5.0)).abs() < 1e-9, "wall {wall}");
        assert!(wall < sequential_wall_ns(&b));
    }

    #[test]
    fn bus_bound_trace_pipelines_to_bus_sum() {
        let b = vec![bd(50.0, 5.0, 50.0); 4];
        let wall = pipelined_wall_ns(&b);
        // The bus must carry 4 * 100 ns; stage 2 hides inside.
        assert!(wall >= 400.0);
        assert!(wall <= 400.0 + 5.0 + 1e-9, "wall {wall}");
    }

    #[test]
    fn pipelining_never_loses_to_sequential() {
        let traces = [
            vec![bd(10.0, 10.0, 10.0); 8],
            vec![
                bd(1.0, 100.0, 1.0),
                bd(100.0, 1.0, 100.0),
                bd(10.0, 10.0, 10.0),
            ],
            vec![bd(0.0, 0.0, 0.0); 3],
        ];
        for b in &traces {
            assert!(pipelined_wall_ns(b) <= sequential_wall_ns(b) + 1e-9);
        }
    }

    #[test]
    fn report_speedup_is_computed() {
        let b = vec![bd(30.0, 40.0, 30.0); 6];
        let r = PipelineReport::from_batches(&b);
        assert!(r.speedup() > 1.2, "speedup {}", r.speedup());
        let empty = PipelineReport::from_batches(&[]);
        assert_eq!(empty.speedup(), 1.0);
    }

    #[test]
    fn a_lone_batch_drains_after_its_three_stages() {
        let mut clock = PipelineClock::<u64>::default();
        assert_eq!(
            clock.push(
                100,
                Stages {
                    s1: 3,
                    s2: 5,
                    s3: 7
                }
            ),
            None
        );
        assert_eq!(clock.slot_free(), 0, "the other slot is free");
        let d = clock.finish().expect("one batch pending");
        assert_eq!((d.issue, d.drain), (100, 115));
        assert_eq!(clock.slot_free(), 115);
        assert_eq!(clock.finish(), None);
    }

    #[test]
    fn a_late_launch_drains_the_pending_batch_first() {
        let s = Stages {
            s1: 10,
            s2: 10,
            s3: 10,
        };
        // Batch 1 launches at 15, before batch 0's stage 3 could start
        // (its stage 2 ends at 20): s1_1 takes the bus 15..25 and s3_0
        // waits for it.
        let mut clock = PipelineClock::<u64>::default();
        clock.push(0, s);
        let d0 = clock.push(15, s).expect("batch 0 placed");
        assert_eq!(d0.drain, 35);
        // Batch 1 launching at 21 finds s3_0 already due at 20 and
        // on the bus from then on: s3_0 goes first.
        let mut clock = PipelineClock::<u64>::default();
        clock.push(0, s);
        let d0 = clock.push(21, s).expect("batch 0 placed");
        assert_eq!(d0.drain, 30);
        assert_eq!(clock.slot_free(), 30);
        let d1 = clock.finish().expect("batch 1 pending");
        assert_eq!((d1.issue, d1.drain), (30, 60));
    }

    #[test]
    fn stages_stay_ordered_per_batch() {
        // A degenerate trace where stage 1 of batch 1 is huge: batch 1's
        // stage 2 cannot start before it, so the wall reflects it.
        let b = [bd(1.0, 1.0, 1.0), bd(1000.0, 1.0, 1.0)];
        let wall = pipelined_wall_ns(&b);
        assert!(wall >= 1001.0 + 1.0 + 1.0);
    }
}
