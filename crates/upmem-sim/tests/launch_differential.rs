//! Differential tests for the DPU-fleet launch path: a launch of any
//! subset of a ragged fleet — scrambled, with duplicate ids, after a
//! fault — must report, position by position, what a launch of the
//! whole fleet on a fresh system reports for the same DPUs, down to the
//! f64 bit patterns of `energy_pj`, with the wall the max and the
//! energy the launch-order sum of its entries. When DPUs fault, the
//! one earliest in launch order wins.

use upmem_sim::{
    Cycles, DpuId, Kernel, LaunchReport, PimConfig, PimSystem, Result, SimError, TaskletCtx,
};

const NR_DPUS: usize = 16;
const TASKLETS: usize = 4;

/// Mixed-work kernel: per-DPU/per-tasklet work skew plus MRAM traffic,
/// faulting on every DPU listed in `fault_on`.
struct MixedFleet {
    fault_on: Vec<DpuId>,
}

impl MixedFleet {
    fn healthy() -> Self {
        MixedFleet { fault_on: vec![] }
    }
}

impl Kernel for MixedFleet {
    fn run(&self, ctx: &mut TaskletCtx<'_>) -> Result<()> {
        if self.fault_on.contains(&ctx.dpu_id()) && ctx.tasklet_id() == 0 {
            return Err(SimError::KernelFault(format!(
                "dpu {} exploded",
                ctx.dpu_id().0
            )));
        }
        let skew = (ctx.dpu_id().0 as usize * 31 + ctx.tasklet_id() * 7) % 64;
        let mut buf = [0u8; 64];
        for i in 0..=skew {
            ctx.mram_read(((i % 8) * 64) as u32, &mut buf)?;
            ctx.charges().charge_accumulate(16, 1);
        }
        ctx.charges().charge_loop(skew as u64 + 1);
        Ok(())
    }
}

/// Builds a system whose per-DPU MRAM loads are deliberately ragged
/// (every DPU holds a different-sized region) so the transfer path the
/// fleet rides in on is the serialized one.
fn ragged_system() -> PimSystem {
    let mut sys = PimSystem::new(PimConfig::new(NR_DPUS, TASKLETS)).expect("valid config");
    for d in 0..NR_DPUS {
        let bytes = vec![d as u8; 512 + d * 64];
        sys.load_mram(DpuId(d as u32), 0, &bytes).expect("fits");
    }
    sys
}

/// Checks `report`, a healthy launch of `ids`, against a launch of
/// every DPU of a fresh ragged system.
fn assert_matches_whole_fleet(report: &LaunchReport, ids: &[DpuId], what: &str) {
    let all: Vec<DpuId> = (0..NR_DPUS as u32).map(DpuId).collect();
    let whole = ragged_system()
        .launch(&all, &MixedFleet::healthy())
        .unwrap();
    assert_eq!(
        report.per_dpu.len(),
        ids.len(),
        "{what}: one entry per position"
    );
    let (mut wall, mut energy) = (Cycles::ZERO, 0.0);
    for (&want_id, (id, stats)) in ids.iter().zip(&report.per_dpu) {
        assert_eq!(*id, want_id, "{what}: per-DPU order differs");
        let want = &whole.per_dpu[id.index()].1;
        assert_eq!(stats, want, "{what}: DPU {id:?} differs");
        assert_eq!(
            stats.energy_pj.to_bits(),
            want.energy_pj.to_bits(),
            "{what}: DPU {id:?} energy bits differ"
        );
        wall = wall.max(stats.cycles);
        energy += stats.energy_pj;
    }
    assert_eq!(report.wall_cycles, wall, "{what}: wall is not the max");
    assert_eq!(
        report.energy_pj.to_bits(),
        energy.to_bits(),
        "{what}: energy is not the launch-order sum"
    );
}

#[test]
fn subset_launch_order_is_preserved_across_threads() {
    // Launch a shuffled, non-contiguous subset: per_dpu must come back
    // in launch order (not DPU-id order).
    let ids = [DpuId(9), DpuId(2), DpuId(15), DpuId(4), DpuId(11)];
    let report = ragged_system()
        .launch(&ids, &MixedFleet::healthy())
        .unwrap();
    assert_matches_whole_fleet(&report, &ids, "subset");
}

#[test]
fn fault_surfaces_earliest_launch_position_on_every_thread_count() {
    // Two faulting DPUs; the launch order puts DPU 13 *before* DPU 5,
    // so position order (13 first), not id order (5 first), must win.
    let kernel = MixedFleet {
        fault_on: vec![DpuId(5), DpuId(13)],
    };
    let ids = [DpuId(7), DpuId(13), DpuId(0), DpuId(5), DpuId(2)];
    let mut sys = ragged_system();
    let err = sys.launch(&ids, &kernel).unwrap_err();
    assert_eq!(err, SimError::KernelFault("dpu 13 exploded".into()));
    // The fleet is not poisoned: a healthy launch still works and
    // still matches a fresh system's bit for bit.
    let healthy = sys.launch(&ids, &MixedFleet::healthy()).unwrap();
    assert_matches_whole_fleet(&healthy, &ids, "post-fault");
}

#[test]
fn duplicate_ids_fall_back_to_serial_and_stay_identical() {
    // A duplicate id runs its DPU once per occurrence: one per_dpu
    // entry per position, each equal to the DPU's own result.
    let ids = [DpuId(3), DpuId(8), DpuId(3), DpuId(1), DpuId(8)];
    let report = ragged_system()
        .launch(&ids, &MixedFleet::healthy())
        .unwrap();
    assert_matches_whole_fleet(&report, &ids, "dupes");
}

#[test]
fn duplicate_ids_with_fault_error_on_earliest_position() {
    // The earliest *position* referencing a faulting DPU reports, even
    // though a smaller faulting id occurs later in the list.
    let kernel = MixedFleet {
        fault_on: vec![DpuId(1), DpuId(8)],
    };
    let ids = [DpuId(3), DpuId(8), DpuId(3), DpuId(1), DpuId(8)];
    let err = ragged_system().launch(&ids, &kernel).unwrap_err();
    assert_eq!(err, SimError::KernelFault("dpu 8 exploded".into()));
}
