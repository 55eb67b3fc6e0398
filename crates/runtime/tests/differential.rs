//! The oracle lock (ISSUE 6 acceptance): `Runtime` in deterministic
//! mode must reproduce `Scheduler::run` **byte for byte** on the same
//! UPWL trace — identical batch composition in launch order, identical
//! pooled embeddings (bit-compared), identical `SchedReport`, identical
//! scheduler telemetry — for every overload policy (the case table
//! shared with the tenancy suite) and for 1, 2 and 4 shards.
//! Concurrency is allowed to change the clock, never the semantics.

#[path = "../../scheduler/tests/cases/mod.rs"]
mod cases;

use dlrm_model::EmbeddingTable;
use runtime::{Runtime, RuntimeConfig};
use scheduler::{OverloadPolicy, SchedConfig, SchedReport, Scheduler};
use updlrm_core::{PartitionStrategy, SchedSnapshot, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

const DIM: usize = 32;

fn setup(num_batches: usize, process: ArrivalProcess) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(process);
    let tables = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engine(tables: &[EmbeddingTable], workload: &Workload, max_batch: usize) -> UpdlrmEngine {
    let config = UpdlrmConfig {
        batch_size: max_batch,
        telemetry: true,
        ..UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform)
    };
    UpdlrmEngine::from_workload(config, tables, workload).unwrap()
}

/// One batch as the sink saw it: ids in launch order plus the pooled
/// embeddings reduced to raw bits (exact, not approximate, equality).
type BatchTrace = Vec<(usize, Vec<u32>, Vec<Vec<u32>>)>;

fn oracle(
    tables: &[EmbeddingTable],
    workload: &Workload,
    cfg: SchedConfig,
    max_batch: usize,
) -> (SchedReport, BatchTrace, Vec<u64>, SchedSnapshot) {
    let mut eng = engine(tables, workload, max_batch);
    let mut s = Scheduler::new(cfg).unwrap();
    let mut trace = BatchTrace::new();
    let report = s
        .run(&mut eng, workload, |seq, ids, pooled, _| {
            trace.push((seq, ids.to_vec(), pooled_bits(pooled)));
        })
        .unwrap();
    let sched_telemetry = eng.metrics_snapshot().sched;
    (report, trace, s.batch_histogram().to_vec(), sched_telemetry)
}

fn pooled_bits(pooled: &[dlrm_model::Matrix]) -> Vec<Vec<u32>> {
    pooled
        .iter()
        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn runtime_det(
    tables: &[EmbeddingTable],
    workload: &Workload,
    cfg: SchedConfig,
    max_batch: usize,
    shards: usize,
) -> (runtime::RuntimeReport, BatchTrace, SchedSnapshot) {
    let mut engines: Vec<UpdlrmEngine> = (0..shards)
        .map(|_| engine(tables, workload, max_batch))
        .collect();
    let rt = Runtime::new(RuntimeConfig {
        sched: cfg,
        shards,
        deterministic: true,
        ring_capacity: 4,
        ..RuntimeConfig::default()
    })
    .unwrap();
    let mut trace = BatchTrace::new();
    let report = rt
        .run(&mut engines, workload, |seq, ids, pooled, _| {
            trace.push((seq, ids.to_vec(), pooled_bits(pooled)));
        })
        .unwrap();
    // The front-end's counters land in shard 0's registry.
    let sched_telemetry = engines[0].metrics_snapshot().sched;
    (report, trace, sched_telemetry)
}

/// `assert_locked` on the shared table's case `name` (one `#[test]`
/// per case, so they run in parallel and fail by name).
fn assert_case_locked(name: &str) {
    let case = cases::CASES.iter().find(|c| c.name == name);
    assert_locked(case.unwrap_or_else(|| panic!("no differential case named '{name}'")));
}

fn assert_locked(case: &cases::Case) {
    let process = if case.bursty {
        ArrivalProcess::bursty(case.qps, case.seed)
    } else {
        ArrivalProcess::poisson(case.qps, case.seed)
    };
    let (cfg, max_batch) = (case.sched, case.sched.max_batch_size);
    let (tables, workload) = setup(3, process);
    let (oracle_report, oracle_trace, oracle_hist, oracle_telemetry) =
        oracle(&tables, &workload, cfg, max_batch);
    assert!(!oracle_trace.is_empty(), "oracle must form batches");
    case.assert_exercised(&oracle_report);
    assert_eq!(oracle_telemetry.batches, oracle_report.batches);
    for shards in [1usize, 2, 4] {
        let (rt_report, rt_trace, rt_telemetry) =
            runtime_det(&tables, &workload, cfg, max_batch, shards);
        assert_eq!(
            rt_telemetry, oracle_telemetry,
            "{} shards / {}: scheduler telemetry must be identical",
            shards, cfg.policy
        );
        assert_eq!(
            rt_report.sched, oracle_report,
            "{} shards / {}: report must be byte-identical",
            shards, cfg.policy
        );
        assert_eq!(
            rt_trace, oracle_trace,
            "{} shards / {}: batches and pooled embeddings must be byte-identical",
            shards, cfg.policy
        );
        assert_eq!(rt_report.batch_histogram, oracle_hist);
        assert_eq!(rt_report.batches_per_shard.len(), shards);
        assert_eq!(
            rt_report.batches_per_shard.iter().sum::<u64>(),
            oracle_report.batches
        );
        assert!(
            rt_report.wall.modeled_service_ns > 0.0 && rt_report.wall.measured_service_ns > 0.0,
            "measured-vs-modeled service walls must be recorded"
        );
    }
}

#[test]
fn deterministic_runtime_matches_oracle_under_light_load() {
    assert_case_locked("light load");
}

#[test]
fn deterministic_runtime_matches_oracle_under_shedding_saturation() {
    assert_case_locked("shedding saturation");
}

#[test]
fn deterministic_runtime_matches_oracle_when_rejecting() {
    assert_case_locked("rejecting bursts");
}

#[test]
fn deterministic_runtime_matches_oracle_when_blocking() {
    assert_case_locked("blocking saturation");
}

#[test]
fn deterministic_runtime_is_reproducible_across_runs() {
    let (tables, workload) = setup(2, ArrivalProcess::bursty(200_000.0, 23));
    let cfg = SchedConfig {
        max_batch_size: 32,
        max_wait_ns: 50_000,
        queue_cap: 64,
        policy: OverloadPolicy::ShedOldest,
    };
    let (a, ta, _) = runtime_det(&tables, &workload, cfg, 32, 2);
    let (b, tb, _) = runtime_det(&tables, &workload, cfg, 32, 2);
    assert_eq!(a.sched, b.sched);
    assert_eq!(ta, tb);
}
