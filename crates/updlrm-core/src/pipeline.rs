//! Inter-batch pipelining of the three-stage embedding pipeline — an
//! extension beyond the paper (its evaluation runs batches back to
//! back; §6 lists further optimization of the inference pipeline as
//! future work).
//!
//! Stages 1 (CPU→DPU) and 3 (DPU→CPU) contend for the host memory bus,
//! while stage 2 runs on the DPU array — two distinct resources. With
//! double buffering in MRAM, batch `i+1`'s stage 1 can overlap batch
//! `i`'s stage 2. [`pipelined_wall_ns`] computes the exact wall time of
//! that schedule from per-batch breakdowns via a small event
//! simulation.

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
    pipelined_schedule(batches, |_, _| {})
}

/// The depth-2 recurrence behind [`pipelined_wall_ns`]: returns the
/// wall and reports, batch by batch in order, the instant its stage 1
/// was issued and the instant its stage 3 drained as
/// `on_drain(issue_ns, drain_ns)`. The executed double-buffered serve
/// takes its wall and latencies from here.
pub(crate) fn pipelined_schedule(
    batches: &[EmbeddingBreakdown],
    mut on_drain: impl FnMut(f64, f64),
) -> f64 {
    // Only two batches are ever in flight (batch i's and batch i - 1's),
    // so the recurrence needs no arrays and stays heap-free, which the
    // steady-state serve path relies on.
    let mut bus_free = 0.0f64; // when the host bus is next available
    let mut dpu_free = 0.0f64; // when the DPU array is next available
    let mut s1_issue_prev; // stage-1 issue of batch i - 1
    let mut s1_issue_cur = 0.0f64; // stage-1 issue of batch i
    let mut s2_done_prev; // s2_done of batch i - 1
    let mut s2_done_cur = 0.0f64; // s2_done of batch i
    let mut finish = 0.0f64;

    // Interleave bus phases in batch order: s1_0, s1_1, s3_0, s1_2,
    // s3_1, ... — i.e. before batch i's stage 3, batch i+1's stage 1
    // has been issued (double buffering depth 2).
    for i in 0..batches.len() {
        // stage 1 of batch i.
        let start = bus_free;
        bus_free = start + batches[i].stage1_ns;
        let s1_landed = bus_free;
        s1_issue_prev = s1_issue_cur;
        s1_issue_cur = start;

        // stage 2 of batch i can start once its stage 1 landed and the
        // DPU array is free.
        let start = s1_landed.max(dpu_free);
        dpu_free = start + batches[i].stage2_ns;
        s2_done_prev = s2_done_cur;
        s2_done_cur = dpu_free;

        // stage 3 of batch i - 1 (its results are ready by now or we
        // wait for them); keeping one batch in flight bounds staging.
        if i > 0 {
            let j = i - 1;
            let start = s2_done_prev.max(bus_free);
            bus_free = start + batches[j].stage3_ns;
            finish = finish.max(bus_free);
            on_drain(s1_issue_prev, bus_free);
        }
    }
    if let Some(last) = batches.len().checked_sub(1) {
        let start = s2_done_cur.max(bus_free);
        let drain = start + batches[last].stage3_ns;
        finish = finish.max(drain);
        on_drain(s1_issue_cur, drain);
    }
    finish
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
    fn stages_stay_ordered_per_batch() {
        // A degenerate trace where stage 1 of batch 1 is huge: batch 1's
        // stage 2 cannot start before it, so the wall reflects it.
        let b = [bd(1.0, 1.0, 1.0), bd(1000.0, 1.0, 1.0)];
        let wall = pipelined_wall_ns(&b);
        assert!(wall >= 1001.0 + 1.0 + 1.0);
    }
}
