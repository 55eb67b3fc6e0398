//! Integration tests for host transfer semantics and the two-phase
//! (barrier) kernel protocol.

use upmem_sim::{CostModel, DpuId, Kernel, PimConfig, PimSystem, Ps, SimError, TaskletCtx};

#[test]
fn broadcast_charges_bytes_once_per_group() {
    let mut sys = PimSystem::new(PimConfig::new(8, 4)).unwrap();
    let buf = vec![1u8; 4096];
    let all: Vec<DpuId> = sys.dpu_ids().collect();

    // Broadcast one buffer to 8 DPUs...
    let broadcast = sys
        .scatter_broadcast_with(std::iter::once((all.as_slice(), 0, buf.as_slice())))
        .unwrap();
    // ...versus scattering 8 copies.
    let per_dpu: Vec<(DpuId, u32, &[u8])> =
        all.iter().map(|&d| (d, 4096u32, buf.as_slice())).collect();
    let scatter = sys.scatter(&per_dpu).unwrap();

    assert_eq!(broadcast.bytes, 4096);
    assert_eq!(scatter.bytes, 8 * 4096);
    assert!(broadcast.wall < scatter.wall);

    // Functionally, every DPU received the broadcast buffer.
    for &d in &all {
        let (bufs, _) = sys.gather(&[(d, 0, 16)]).unwrap();
        assert_eq!(bufs[0], vec![1u8; 16]);
    }
}

#[test]
fn transfer_wall_time_uses_aggregate_bus() {
    // Doubling the DPU count at the same per-DPU buffer size doubles
    // total bytes and therefore the wall time (shared bus), minus the
    // fixed base — exactly, on the picosecond clock.
    let base = Ps::from_ns(CostModel::default().host_transfer_base_ns);
    let wall = |n_dpus: usize| {
        let mut sys = PimSystem::new(PimConfig::new(n_dpus, 1)).unwrap();
        let buf = vec![0u8; 8192];
        let transfers: Vec<(DpuId, u32, &[u8])> =
            sys.dpu_ids().map(|d| (d, 0u32, buf.as_slice())).collect();
        let transfers: Vec<(DpuId, u32, &[u8])> = transfers;
        sys.scatter(&transfers).unwrap().wall.0 - base.0
    };
    assert_eq!(wall(8), 2 * wall(4));
}

/// Kernel that writes in phase 1 and verifies cross-tasklet visibility
/// in phase 2 (i.e. the barrier works).
struct BarrierProbe;

impl Kernel for BarrierProbe {
    fn shared_wram_bytes(&self) -> usize {
        64
    }

    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        let t = ctx.tasklet_id();
        ctx.shared_wram()[t] = (t as u8) + 1;
        ctx.charges().charge_instrs(10);
        Ok(())
    }

    fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        // Every tasklet sees every other tasklet's phase-1 write.
        let n = ctx.n_tasklets();
        let shared = ctx.shared_wram();
        for (t, &cell) in shared.iter().enumerate().take(n) {
            if cell != (t as u8) + 1 {
                return Err(SimError::KernelFault(format!(
                    "tasklet {t}'s phase-1 write not visible at the barrier"
                )));
            }
        }
        ctx.charges().charge_instrs(5);
        Ok(())
    }
}

#[test]
fn finalize_runs_after_all_tasklets() {
    let mut sys = PimSystem::new(PimConfig::new(2, 8)).unwrap();
    let report = sys.launch_all(&BarrierProbe).unwrap();
    // Both phases' instructions are accounted.
    let per_dpu_instrs = report.per_dpu[0].1.totals.instrs;
    assert_eq!(per_dpu_instrs, 8 * (10 + 5));
}

/// Phase costs must add up (a barrier cannot overlap the phases).
struct TwoPhaseCost;

impl Kernel for TwoPhaseCost {
    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        ctx.charges().charge_instrs(1_000);
        Ok(())
    }
    fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        ctx.charges().charge_instrs(500);
        Ok(())
    }
}

struct OnePhaseCost;

impl Kernel for OnePhaseCost {
    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        ctx.charges().charge_instrs(1_500);
        Ok(())
    }
}

#[test]
fn phase_times_accumulate() {
    let mut a = PimSystem::new(PimConfig::new(1, 14)).unwrap();
    let two = a.launch_all(&TwoPhaseCost).unwrap().wall_cycles;
    let mut b = PimSystem::new(PimConfig::new(1, 14)).unwrap();
    let one = b.launch_all(&OnePhaseCost).unwrap().wall_cycles;
    // Same total instructions; the two-phase version can only be equal
    // or slower (it pays both pipeline fills but one launch overhead).
    assert!(two >= one, "two-phase {two} vs one-phase {one}");
}

#[test]
fn kernel_error_in_finalize_propagates() {
    struct FailLate;
    impl Kernel for FailLate {
        fn run(&self, _ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn finalize(&self, ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
            if ctx.tasklet_id() == 1 {
                return Err(SimError::KernelFault("late failure".into()));
            }
            Ok(())
        }
    }
    let mut sys = PimSystem::new(PimConfig::new(1, 4)).unwrap();
    let err = sys.launch_all(&FailLate).unwrap_err();
    assert!(matches!(err, SimError::KernelFault(_)));
}
