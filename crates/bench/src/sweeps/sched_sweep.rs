//! Open-loop QPS sweep through the serving scheduler: the p99-vs-load
//! curve and its saturation knee.
//!
//! The sweep first probes engine capacity (a deliberately saturating
//! run whose achieved QPS *is* the service capacity, since the batcher
//! then always forms full batches), then offers Poisson load at fixed
//! multiples of that capacity. On modeled time the expected knee shape
//! is asserted, not eyeballed:
//!
//! 1. below capacity, achieved tracks offered and nothing is shed;
//! 2. above capacity, achieved plateaus at the probe's capacity while
//!    p99 latency grows and the shed counter goes nonzero;
//! 3. two runs of any load point produce identical `SchedReport`s
//!    (the scheduler is wall-clock-free).
//!
//! The rows are the golden `BENCH_sched.json` (see [`crate::protocol`]).

use crate::protocol::Sweep;
use dlrm_model::EmbeddingTable;
use scheduler::{OverloadPolicy, SchedConfig, SchedReport, Scheduler};
use serde::Serialize;
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 4;
const NR_DPUS: usize = 64;
const DIM: usize = 32;
const MAX_BATCH: usize = 32;
const MAX_WAIT_NS: u64 = 200_000;
const QUEUE_CAP: usize = 64;
const ARRIVAL_SEED: u64 = 7;

/// Offered load as percent of probed capacity.
const LOAD_PCT: [u64; 5] = [25, 50, 100, 200, 400];
const NUM_BATCHES: usize = 8;

#[derive(Serialize)]
struct Row {
    /// Offered load, percent of probed capacity (the row key).
    load_pct: u64,
    offered_qps: f64,
    achieved_qps: f64,
    completed: u64,
    shed: u64,
    batches: u64,
    mean_batch_size: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
}

fn build(num_batches: usize) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches,
            ..TraceConfig::default()
        },
    );
    let tables = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engine(tables: &[EmbeddingTable], workload: &Workload) -> UpdlrmEngine {
    let mut config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware);
    config.batch_size = MAX_BATCH;
    UpdlrmEngine::from_workload(config, tables, workload).expect("engine builds")
}

fn sched() -> Scheduler {
    Scheduler::new(SchedConfig {
        max_batch_size: MAX_BATCH,
        max_wait_ns: MAX_WAIT_NS,
        queue_cap: QUEUE_CAP,
        policy: OverloadPolicy::ShedOldest,
    })
    .expect("valid config")
}

fn run_once(eng: &mut UpdlrmEngine, workload: &Workload, s: &mut Scheduler) -> SchedReport {
    s.run(eng, workload, |_, _, _, _| {}).expect("runs")
}

/// Runs the sweep, asserting its gates, and returns its document.
pub fn run() -> Sweep {
    let (tables, base_workload) = build(NUM_BATCHES);

    // Capacity probe: offer load far above anything serveable; with a
    // shed-oldest queue the engine then runs back-to-back full batches,
    // so achieved QPS is its service capacity.
    let mut probe_wl = base_workload.clone();
    probe_wl.stamp_arrivals(ArrivalProcess::poisson(1e9, ARRIVAL_SEED));
    let mut eng = engine(&tables, &base_workload);
    let capacity_qps = run_once(&mut eng, &probe_wl, &mut sched()).achieved_qps;
    println!(
        "sched sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000, \
         max-batch {MAX_BATCH}, probed capacity {capacity_qps:.0} qps"
    );

    let mut rows = Vec::new();
    let mut reports: Vec<(u64, SchedReport)> = Vec::new();
    for pct in LOAD_PCT {
        let offered = capacity_qps * pct as f64 / 100.0;
        let mut wl = base_workload.clone();
        wl.stamp_arrivals(ArrivalProcess::poisson(offered, ARRIVAL_SEED));
        let mut s = sched();

        // Determinism identity: the scheduler runs on modeled time
        // only, so two runs agree exactly.
        let report = run_once(&mut eng, &wl, &mut s);
        assert_eq!(
            report,
            run_once(&mut eng, &wl, &mut s),
            "load {pct}%: reports differ across runs"
        );

        rows.push(Row {
            load_pct: pct,
            offered_qps: offered,
            achieved_qps: report.achieved_qps,
            completed: report.completed,
            shed: report.shed,
            batches: report.batches,
            mean_batch_size: report.mean_batch_size,
            p50_latency_us: report.p50_latency_ns / 1e3,
            p99_latency_us: report.p99_latency_ns / 1e3,
        });
        reports.push((pct, report));
    }

    // The knee itself, asserted on modeled time.
    let at = |pct: u64| &reports.iter().find(|(p, _)| *p == pct).unwrap().1;
    let lowest = at(LOAD_PCT[0]);
    let highest = at(LOAD_PCT[LOAD_PCT.len() - 1]);
    assert_eq!(lowest.shed, 0, "below capacity nothing is shed");
    assert!(
        highest.shed > 0,
        "above capacity the shed-oldest policy must drop load"
    );
    assert!(
        highest.p99_latency_ns > lowest.p99_latency_ns,
        "p99 must grow with load ({} vs {})",
        highest.p99_latency_ns,
        lowest.p99_latency_ns
    );
    assert!(
        highest.achieved_qps <= capacity_qps * 1.05,
        "achieved QPS must plateau at capacity ({} vs {capacity_qps})",
        highest.achieved_qps
    );
    // Overload points plateau at the same achieved throughput.
    let (a2, a4) = (at(200).achieved_qps, at(400).achieved_qps);
    assert!(
        (a4 - a2).abs() <= 0.10 * a2,
        "overloaded points must plateau together ({a2} vs {a4})"
    );
    println!("knee OK: plateau at {capacity_qps:.0} qps, p99 grows, shedding engages");

    let header = [
        ("bench", "sched_sweep".to_value()),
        ("dataset", "goodreads/2000".to_value()),
        ("nr_dpus", NR_DPUS.to_value()),
        ("num_tables", NUM_TABLES.to_value()),
        ("dim", DIM.to_value()),
        ("max_batch", MAX_BATCH.to_value()),
        ("max_wait_ns", MAX_WAIT_NS.to_value()),
        ("queue_cap", QUEUE_CAP.to_value()),
        ("policy", "shed-oldest".to_value()),
        ("capacity_qps", capacity_qps.to_value()),
    ];
    Sweep::new(
        "sched_sweep",
        "BENCH_sched.json",
        &["load_pct"],
        &header,
        &rows,
    )
}
