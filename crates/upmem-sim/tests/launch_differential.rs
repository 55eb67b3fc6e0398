//! Differential tests for the host-parallel DPU-fleet launch path:
//! whatever `host_threads` is set to, `launch` must produce
//! `LaunchReport`s that are bit-identical to the serial path — down to
//! the f64 bit patterns of `wall_ns` and `energy_pj` — and must keep
//! the serial path's error semantics (the *earliest* faulting launch
//! id wins) on mixed fleets with faulting DPUs, duplicate ids, and
//! ragged MRAM loads.

use upmem_sim::{DpuId, Kernel, LaunchReport, PimConfig, PimSystem, Result, SimError, TaskletCtx};

const NR_DPUS: usize = 16;
const TASKLETS: usize = 4;
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

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
fn ragged_system(host_threads: usize) -> PimSystem {
    let mut sys = PimSystem::new(PimConfig::new(NR_DPUS, TASKLETS).with_host_threads(host_threads))
        .expect("valid config");
    for d in 0..NR_DPUS {
        let bytes = vec![d as u8; 512 + d * 64];
        sys.load_mram(DpuId(d as u32), 0, &bytes).expect("fits");
    }
    sys
}

fn assert_bit_identical(a: &LaunchReport, b: &LaunchReport, what: &str) {
    assert_eq!(a, b, "{what}: structural mismatch");
    assert_eq!(a.wall, b.wall, "{what}: wall differs");
    assert_eq!(
        a.energy_pj.to_bits(),
        b.energy_pj.to_bits(),
        "{what}: energy_pj bits differ"
    );
    for ((id_a, s_a), (id_b, s_b)) in a.per_dpu.iter().zip(b.per_dpu.iter()) {
        assert_eq!(id_a, id_b, "{what}: per-DPU order differs");
        assert_eq!(
            s_a.energy_pj.to_bits(),
            s_b.energy_pj.to_bits(),
            "{what}: DPU {id_a:?} energy bits differ"
        );
    }
}

#[test]
fn thread_sweep_is_bit_identical_on_ragged_fleet() {
    let ids: Vec<DpuId> = (0..NR_DPUS as u32).map(DpuId).collect();
    let mut serial = ragged_system(1);
    let baseline = serial.launch(&ids, &MixedFleet::healthy()).unwrap();
    assert_eq!(baseline.per_dpu.len(), NR_DPUS);

    for threads in THREAD_SWEEP {
        let mut sys = ragged_system(threads);
        let report = sys.launch(&ids, &MixedFleet::healthy()).unwrap();
        assert_bit_identical(&baseline, &report, &format!("host_threads={threads}"));
    }
}

#[test]
fn subset_launch_order_is_preserved_across_threads() {
    // Launch a shuffled, non-contiguous subset: per_dpu must come back
    // in launch order (not DPU-id order) on every thread count.
    let ids = [DpuId(9), DpuId(2), DpuId(15), DpuId(4), DpuId(11)];
    let mut serial = ragged_system(1);
    let baseline = serial.launch(&ids, &MixedFleet::healthy()).unwrap();
    let order: Vec<DpuId> = baseline.per_dpu.iter().map(|(d, _)| *d).collect();
    assert_eq!(order, ids.to_vec());

    for threads in THREAD_SWEEP {
        let mut sys = ragged_system(threads);
        let report = sys.launch(&ids, &MixedFleet::healthy()).unwrap();
        assert_bit_identical(&baseline, &report, &format!("subset threads={threads}"));
    }
}

#[test]
fn fault_surfaces_earliest_launch_position_on_every_thread_count() {
    // Two faulting DPUs; the launch order puts DPU 13 *before* DPU 5,
    // so position order (13 first), not id order (5 first), must win.
    let kernel = MixedFleet {
        fault_on: vec![DpuId(5), DpuId(13)],
    };
    let ids = [DpuId(7), DpuId(13), DpuId(0), DpuId(5), DpuId(2)];
    for threads in THREAD_SWEEP {
        let mut sys = ragged_system(threads);
        let err = sys.launch(&ids, &kernel).unwrap_err();
        assert_eq!(
            err,
            SimError::KernelFault("dpu 13 exploded".into()),
            "host_threads={threads}"
        );
        // The fleet is not poisoned: a healthy launch still works and
        // still matches the serial report bit for bit.
        let healthy = sys.launch(&ids, &MixedFleet::healthy()).unwrap();
        let mut serial = ragged_system(1);
        let baseline = serial.launch(&ids, &MixedFleet::healthy()).unwrap();
        assert_bit_identical(
            &baseline,
            &healthy,
            &format!("post-fault threads={threads}"),
        );
    }
}

#[test]
fn duplicate_ids_fall_back_to_serial_and_stay_identical() {
    // Duplicate launch ids force the serial fallback; the report must
    // still be bit-identical across thread counts, with one per_dpu
    // entry per occurrence.
    let ids = [DpuId(3), DpuId(8), DpuId(3), DpuId(1), DpuId(8)];
    let mut serial = ragged_system(1);
    let baseline = serial.launch(&ids, &MixedFleet::healthy()).unwrap();
    assert_eq!(baseline.per_dpu.len(), ids.len());

    for threads in THREAD_SWEEP {
        let mut sys = ragged_system(threads);
        let report = sys.launch(&ids, &MixedFleet::healthy()).unwrap();
        assert_bit_identical(&baseline, &report, &format!("dupes threads={threads}"));
    }
}

#[test]
fn duplicate_ids_with_fault_error_on_earliest_position() {
    // Serial fallback + fault: the earliest *position* referencing a
    // faulting DPU reports, even though a smaller faulting id occurs
    // later in the list.
    let kernel = MixedFleet {
        fault_on: vec![DpuId(1), DpuId(8)],
    };
    let ids = [DpuId(3), DpuId(8), DpuId(3), DpuId(1), DpuId(8)];
    for threads in THREAD_SWEEP {
        let mut sys = ragged_system(threads);
        let err = sys.launch(&ids, &kernel).unwrap_err();
        assert_eq!(
            err,
            SimError::KernelFault("dpu 8 exploded".into()),
            "host_threads={threads}"
        );
    }
}
