//! Proves what an engine build costs the host: memory in proportion to
//! the bytes it *writes*, not to the MRAM address space it reserves.
//! A byte-counting `#[global_allocator]` (wrapping the system
//! allocator) splits the build's requests by allocator entry point:
//! the DPU banks — two 2 MB staging reserves each — must come from
//! `alloc_zeroed` (untouched zero pages), and everything the build asks
//! of `alloc` and `realloc` together must stay near the size of the
//! tables. On Linux the process's resident set is checked as well, so
//! a bank that is zero-filled by hand after a lazy allocation fails
//! too.
//!
//! This file intentionally holds a single test: the counters are
//! process-global, so concurrent tests would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlrm_model::EmbeddingTable;
use updlrm_core::{PartitionStrategy, ReplanPolicy, UpdlrmConfig, UpdlrmEngine};
use workloads::{DatasetSpec, TraceConfig, Workload};

struct ByteCountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ZEROED_BYTES: AtomicU64 = AtomicU64::new(0);
static REALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ZEROED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

const MB: u64 = 1 << 20;
const NR_DPUS: usize = 64;
const NUM_TABLES: usize = 4;
const DIM: usize = 32;

/// `VmRSS` of this process in bytes; `None` where `/proc/self/status`
/// cannot be read (the RSS bound is then skipped, not failed).
fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn engine_build_costs_what_it_writes() {
    // The benchmark's `drift_replan` engine: 4 tables of 1,180 rows
    // (0.6 MB of embeddings) on 64 DPUs, replanning enabled, so every
    // bank lays out double-buffered EMT regions and two staging slots.
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            batch_size: 32,
            num_batches: 8,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    let mut config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::Uniform)
        .with_replan(ReplanPolicy::Periodic { every_batches: 4 });
    config.tasklets = 14;
    config.batch_size = 32;

    let rss_before = resident_bytes();
    let (alloc0, zeroed0, realloc0) = (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ZEROED_BYTES.load(Ordering::Relaxed),
        REALLOC_BYTES.load(Ordering::Relaxed),
    );
    let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
    let copied = ALLOC_BYTES.load(Ordering::Relaxed) - alloc0
        + REALLOC_BYTES.load(Ordering::Relaxed)
        - realloc0;
    let zeroed = ZEROED_BYTES.load(Ordering::Relaxed) - zeroed0;
    let rss_after = resident_bytes();

    // Every bank reserves two 2 MB reference-stream slots: the banks
    // alone are 4 MB x 64 DPUs of address space, requested zeroed.
    assert!(
        zeroed >= 4 * MB * NR_DPUS as u64,
        "banks must be requested through alloc_zeroed: {} MB zeroed",
        zeroed / MB
    );
    assert!(
        copied <= 16 * MB,
        "engine build asked alloc + realloc for {} MB (tables are 0.6 MB)",
        copied / MB
    );
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        let grown = after.saturating_sub(before);
        assert!(
            grown <= 48 * MB,
            "engine build made {} MB resident for 0.6 MB of tables",
            grown / MB
        );
    }

    // The engine behind the numbers is a working one.
    let (pooled, _) = engine.run_batch(&workload.batches[0]).unwrap();
    assert_eq!(pooled.len(), NUM_TABLES);
}
