//! An engine's DPU worker thread lives exactly as long as the engine:
//! the first multi-batch serve starts it and dropping the engine joins
//! it. Fifty engines, built and dropped one after another, each leave
//! no thread behind.
//!
//! This file holds a single test: it counts the process's threads by
//! name, so a concurrent test's engines would be counted too.
#![cfg(target_os = "linux")]

use dlrm_model::EmbeddingTable;
use std::time::{Duration, Instant};
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{DatasetSpec, TraceConfig, Workload};

/// Threads of this process named `dpu-worker` (Linux: one
/// `/proc/self/task/*/comm` per thread).
fn dpu_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "dpu-worker")
        .count()
}

/// Polls until `dpu_workers()` is `want` or a second has passed: a
/// joined thread can outlive its join in procfs for a moment.
fn settles_at(want: usize) -> usize {
    let start = Instant::now();
    loop {
        let n = dpu_workers();
        if n == want || start.elapsed() > Duration::from_secs(1) {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn dropping_an_engine_joins_its_dpu_worker() {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 1,
            num_batches: 2,
            ..TraceConfig::default()
        },
    );
    let tables = [EmbeddingTable::random_integer_valued(spec.num_items, 16, 3, 7).unwrap()];
    let config = UpdlrmConfig::with_dpus(8, PartitionStrategy::Uniform);
    // On one core the engine serves on the calling thread and spawns
    // nothing; the drop check below holds either way.
    let spawns = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    assert_eq!(dpu_workers(), 0);
    for i in 0..50 {
        let mut engine = UpdlrmEngine::from_workload(config.clone(), &tables, &workload).unwrap();
        engine
            .serve_stream(&workload.batches, |_, _, _| {})
            .unwrap();
        assert_eq!(dpu_workers(), usize::from(spawns), "engine {i} while alive");
        drop(engine);
        assert_eq!(settles_at(0), 0, "engine {i} left its worker running");
    }
}
