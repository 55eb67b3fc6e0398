//! Property tests for the analytic pipeline model in `pipeline.rs`.
//!
//! The double-buffered schedule computed by `pipelined_wall` is the
//! contract the executed serving path (`serve.rs`) is checked against,
//! so the model itself gets fuzzed here: for arbitrary non-negative
//! stage times it must never lose to the sequential schedule, never
//! beat the resource lower bounds (the DPU array must run every stage
//! 2; the bus must carry every stage 1 and 3), degenerate to the
//! sequential wall for a single batch, and respond monotonically to
//! longer stages. Times are integer picoseconds, so every bound holds
//! exactly, with no slack for rounding.
//!
//! The clock's two halves get their own property: `issue` and `settle`
//! applied one batch late, as the scheduler's event loop applies them
//! when each batch's stage 2 is still in flight at the next launch,
//! place every batch where `push` does.

use proptest::prelude::*;
use updlrm_core::pipeline::{PipelineClock, Stages};
use updlrm_core::{pipelined_wall, sequential_wall, EmbeddingBreakdown, PipelineReport, Ps};

/// Stage times in picoseconds; generous enough to cover bus-bound,
/// lookup-bound, and zero-length batches.
const STAGE_PS: std::ops::Range<u64> = 0..5_000_000;

fn bd((s1, s2, s3): (u64, u64, u64)) -> EmbeddingBreakdown {
    EmbeddingBreakdown {
        stage1: Ps(s1),
        stage2: Ps(s2),
        stage3: Ps(s3),
        ..Default::default()
    }
}

fn batches() -> impl Strategy<Value = Vec<EmbeddingBreakdown>> {
    prop::collection::vec((STAGE_PS, STAGE_PS, STAGE_PS).prop_map(bd), 0..24)
}

proptest! {
    /// Overlap can only help: the pipelined schedule never loses to
    /// back-to-back execution.
    #[test]
    fn pipelined_never_exceeds_sequential(b in batches()) {
        prop_assert!(
            pipelined_wall(&b) <= sequential_wall(&b),
            "pipelined {} > sequential {}",
            pipelined_wall(&b),
            sequential_wall(&b)
        );
    }

    /// Resource lower bounds: the DPU array must serially run every
    /// stage 2, and the bus must serially carry every stage 1 and 3 —
    /// whichever is larger bounds the schedule from below.
    #[test]
    fn pipelined_respects_resource_lower_bounds(b in batches()) {
        let wall = pipelined_wall(&b);
        let dpu: Ps = b.iter().map(|x| x.stage2).sum();
        let bus: Ps = b.iter().map(|x| x.stage1 + x.stage3).sum();
        prop_assert!(wall >= dpu.max(bus), "wall {} < max(dpu {}, bus {})", wall, dpu, bus);
    }

    /// The critical path of the first batch's lead-in and the last
    /// batch's drain cannot be pipelined away.
    #[test]
    fn pipelined_respects_leadin_and_drain(b in batches()) {
        if b.is_empty() {
            return Ok(());
        }
        let wall = pipelined_wall(&b);
        let dpu: Ps = b.iter().map(|x| x.stage2).sum();
        let bound = b[0].stage1 + dpu + b[b.len() - 1].stage3;
        prop_assert!(wall >= bound, "wall {} < lead-in bound {}", wall, bound);
    }

    /// A single batch has nothing to overlap with: both schedules
    /// degenerate to stage1 + stage2 + stage3 exactly.
    #[test]
    fn single_batch_equals_sequential(t in (STAGE_PS, STAGE_PS, STAGE_PS)) {
        let b = [bd(t)];
        prop_assert_eq!(pipelined_wall(&b), sequential_wall(&b));
    }

    /// The sequential wall is a sum, hence permutation-invariant.
    #[test]
    fn sequential_is_permutation_invariant(b in batches(), rot in 0usize..24) {
        let mut rotated = b.clone();
        if !rotated.is_empty() {
            let mid = rot % rotated.len();
            rotated.rotate_left(mid);
        }
        prop_assert_eq!(sequential_wall(&b), sequential_wall(&rotated));
    }

    /// Growing any single stage of any batch never shrinks either wall.
    #[test]
    fn walls_are_monotone_in_stage_times(
        b in batches(),
        pick in (0usize..24, 0usize..3, STAGE_PS),
    ) {
        if b.is_empty() {
            return Ok(());
        }
        let (i, stage, extra) = pick;
        let mut grown = b.clone();
        let slot = &mut grown[i % b.len()];
        match stage {
            0 => slot.stage1 += Ps(extra),
            1 => slot.stage2 += Ps(extra),
            _ => slot.stage3 += Ps(extra),
        }
        prop_assert!(pipelined_wall(&grown) >= pipelined_wall(&b));
        prop_assert!(sequential_wall(&grown) >= sequential_wall(&b));
    }

    /// The report wraps the same two numbers and never reports a
    /// speedup below 1.
    #[test]
    fn report_is_consistent_with_walls(b in batches()) {
        let r = PipelineReport::from_batches(&b);
        prop_assert_eq!(r.sequential, sequential_wall(&b));
        prop_assert_eq!(r.pipelined, pipelined_wall(&b));
        prop_assert!(r.speedup() >= 1.0, "speedup {}", r.speedup());
    }

    /// `issue` at each launch and `settle` one batch late — just before
    /// the next batch's `issue`, or before `finish` — place every batch
    /// where `push` does. Launches come from the open loop's rule (no
    /// earlier than `slot_free`, plus a random gap), read off the
    /// one-batch-late clock after the batch ahead's `issue` only, which
    /// must equal the `push` clock's. Every `Drained`, every
    /// `slot_free` and every `dpu_free` are compared, over a bus-heavy
    /// or DPU-heavy scale per case with per-batch jitter.
    #[test]
    fn issue_then_settle_one_batch_late_equals_push(
        bus_scale in 0u64..4_000_000,
        dpu_scale in 0u64..4_000_000,
        batches in prop::collection::vec(
            ((0u64..500_000, 0u64..500_000, 0u64..500_000), 0u64..6_000_000),
            0..24,
        ),
    ) {
        let (mut push, mut late) = (PipelineClock::default(), PipelineClock::default());
        let mut unsettled: Option<Stages> = None;
        let mut now = Ps::ZERO;
        for &((a, b, c), gap) in &batches {
            let stages = Stages {
                s1: Ps(bus_scale / 2 + a),
                s2: Ps(dpu_scale + b),
                s3: Ps(bus_scale / 2 + c),
            };
            // The launch decision sees the late clock with the batch
            // ahead issued but not settled.
            prop_assert_eq!(late.slot_free(), push.slot_free());
            now = late.slot_free().max(now + Ps(gap));
            let dpu_free = push.dpu_free();
            let want = push.push(now, stages);
            if let Some(ahead) = unsettled.take() {
                late.settle(ahead.s2, ahead.s3);
                prop_assert_eq!(late.dpu_free(), dpu_free);
            }
            prop_assert_eq!(late.issue(now, stages.s1), want);
            prop_assert_eq!(late.slot_free(), push.slot_free());
            unsettled = Some(stages);
        }
        if let Some(ahead) = unsettled {
            late.settle(ahead.s2, ahead.s3);
        }
        prop_assert_eq!(late.dpu_free(), push.dpu_free());
        prop_assert_eq!(late.finish(), push.finish());
        prop_assert_eq!(late.slot_free(), push.slot_free());
    }
}
