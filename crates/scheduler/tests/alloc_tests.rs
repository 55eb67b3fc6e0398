//! Extends the repo's zero-allocation invariant to the scheduler: a
//! steady-state `Scheduler::run` sweep — event loop, admission queue,
//! batch assembly, engine pipeline and telemetry recording — performs
//! zero heap operations after warm-up. A counting `#[global_allocator]`
//! observes every alloc/realloc in this test binary.
//!
//! This file intentionally holds a single test: the allocation counter
//! is process-global, so concurrent tests would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlrm_model::EmbeddingTable;
use scheduler::{OverloadPolicy, SchedConfig, Scheduler};
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn setup(telemetry: bool) -> (UpdlrmEngine, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let num_tables = 2;
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches: 3,
            ..TraceConfig::default()
        },
    );
    // Bursty saturating-ish load: the batcher forms both full
    // size-triggered batches and partial deadline-triggered ones, so
    // the engine sees *varying* batch sizes — the case that used to
    // defeat shape-matched matrix-pool reuse.
    workload.stamp_arrivals(ArrivalProcess::bursty(2_000_000.0, 21));
    let tables: Vec<EmbeddingTable> = (0..num_tables)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64).unwrap())
        .collect();
    let mut config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
    config.telemetry = telemetry;
    config.batch_size = 32;
    let engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
    (engine, workload)
}

#[test]
fn steady_state_scheduler_run_is_allocation_free() {
    for (telemetry, policy) in [
        (false, OverloadPolicy::ShedOldest),
        (true, OverloadPolicy::ShedOldest),
        (true, OverloadPolicy::Block),
    ] {
        let (mut engine, workload) = setup(telemetry);
        let mut sched = Scheduler::new(SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 100_000,
            queue_cap: 48,
            policy,
        })
        .unwrap();

        // Warm-up: two full runs grow every buffer (queue, assembly
        // CSR, latency vector, histogram, the engine's staging and
        // recycled matrix pool) to its high-water mark.
        for _ in 0..2 {
            sched.run(&mut engine, &workload, |_, _, _, _| {}).unwrap();
        }

        let before = ALLOC_OPS.load(Ordering::SeqCst);
        let report = sched.run(&mut engine, &workload, |_, _, _, _| {}).unwrap();
        let after = ALLOC_OPS.load(Ordering::SeqCst);

        assert!(report.batches > 1);
        assert!(report.completed > 0);
        assert_eq!(
            after - before,
            0,
            "steady-state Scheduler::run allocated (telemetry {telemetry}, policy {policy}): \
             {} heap ops for {} batches",
            after - before,
            report.batches
        );
        if telemetry {
            let snap = engine.metrics_snapshot();
            assert_eq!(snap.sched.batches, 3 * report.batches);
            assert!(snap.sched.queue_depth_high_water > 0);
        }
    }
}
