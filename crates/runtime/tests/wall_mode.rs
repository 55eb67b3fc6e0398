//! Wall-clock mode behaviour (ISSUE 6): the runtime on a real clock
//! must conserve requests, produce finite measured statistics, spread
//! work across shards — and, the acceptance criterion, the modeled
//! oracle's latency percentiles must predict the *ordering* of measured
//! per-request latencies between configurations. Absolute wall numbers
//! are machine-dependent; orderings with 40x modeled separation are
//! not.

use dlrm_model::EmbeddingTable;
use runtime::{Runtime, RuntimeConfig, RuntimeReport};
use scheduler::{report_is_finite, OverloadPolicy, SchedConfig, Scheduler};
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

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
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engines(
    tables: &[EmbeddingTable],
    workload: &Workload,
    batch_size: usize,
    shards: usize,
) -> Vec<UpdlrmEngine> {
    (0..shards)
        .map(|_| {
            let config = UpdlrmConfig {
                batch_size,
                ..UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform)
            };
            UpdlrmEngine::from_workload(config, tables, workload).unwrap()
        })
        .collect()
}

fn run_wall(
    tables: &[EmbeddingTable],
    workload: &Workload,
    sched: SchedConfig,
    engine_batch: usize,
    shards: usize,
    time_scale: f64,
) -> RuntimeReport {
    let mut eng = engines(tables, workload, engine_batch, shards);
    let rt = Runtime::new(RuntimeConfig {
        sched,
        shards,
        time_scale,
        deterministic: false,
        ring_capacity: 8,
    })
    .unwrap();
    rt.run(&mut eng, workload, |_, _, _, _| {}).unwrap()
}

#[test]
fn wall_mode_conserves_requests_and_reports_finite_stats() {
    // Queue capacity above the whole trace: nothing may shed, so every
    // request completes no matter how the wall clock jitters.
    let (tables, workload) = setup(2, ArrivalProcess::poisson(500_000.0, 31));
    let sched = SchedConfig {
        max_batch_size: 64,
        max_wait_ns: 100_000,
        queue_cap: 256,
        policy: OverloadPolicy::ShedOldest,
    };
    for shards in [1usize, 2, 4] {
        let r = run_wall(&tables, &workload, sched, 64, shards, 20.0);
        assert_eq!(r.sched.completed, r.sched.requests, "{shards} shards");
        assert_eq!(r.sched.shed + r.sched.rejected, 0);
        assert_eq!(
            r.sched.completed + r.sched.shed + r.sched.rejected,
            r.sched.requests
        );
        assert!(report_is_finite(&r.sched), "{:?}", r.sched);
        assert!(r.sched.makespan_ns > 0.0, "measured makespan");
        assert!(r.sched.p95_latency_ns > 0.0, "measured latency");
        assert!(r.wall.wall_elapsed_ns > 0.0 && r.wall.measured_qps > 0.0);
        assert!(r.wall.modeled_service_ns > 0.0 && r.wall.measured_service_ns > 0.0);
        assert_eq!(r.batches_per_shard.len(), shards);
        assert_eq!(r.batches_per_shard.iter().sum::<u64>(), r.sched.batches);
        assert_eq!(
            r.batch_histogram.iter().sum::<u64>(),
            r.sched.batches,
            "histogram mass equals batch count"
        );
        if r.sched.batches >= shards as u64 {
            assert!(
                r.batches_per_shard.iter().all(|&b| b > 0),
                "round-robin uses every shard: {:?}",
                r.batches_per_shard
            );
        }
    }
}

#[test]
fn modeled_percentiles_predict_measured_latency_ordering() {
    // Two configurations whose only difference is the batching
    // deadline: 2 ms vs 40 ms, both far above the ~0.3-1 ms modeled
    // service per batch so the deadline (not the server) dominates
    // latency. The modeled oracle separates their p95 by ~17x; the
    // measured wall run must agree on the ordering.
    let (tables, workload) = setup(4, ArrivalProcess::poisson(2_000.0, 37));
    let hasty = SchedConfig {
        max_batch_size: 128,
        max_wait_ns: 2_000_000,
        queue_cap: 512,
        policy: OverloadPolicy::ShedOldest,
    };
    let patient = SchedConfig {
        max_wait_ns: 40_000_000,
        ..hasty
    };

    let modeled = |sched: SchedConfig| {
        let mut eng = engines(&tables, &workload, 64, 1);
        let mut s = Scheduler::new(sched).unwrap();
        s.run(&mut eng[0], &workload, |_, _, _, _| {}).unwrap()
    };
    let m_hasty = modeled(hasty);
    let m_patient = modeled(patient);
    assert!(
        m_patient.p95_latency_ns > m_hasty.p95_latency_ns * 4.0,
        "oracle must separate the configs: {} vs {}",
        m_patient.p95_latency_ns,
        m_hasty.p95_latency_ns
    );

    // Stretch modeled time 2x so host compute per batch (~1-10 ms on
    // one CPU) stays below the inter-launch gaps and the wall run
    // tracks the trace instead of its own compute cost.
    let w_hasty = run_wall(&tables, &workload, hasty, 64, 1, 2.0);
    let w_patient = run_wall(&tables, &workload, patient, 64, 1, 2.0);
    assert_eq!(w_hasty.sched.completed, w_hasty.sched.requests);
    assert_eq!(w_patient.sched.completed, w_patient.sched.requests);
    assert!(
        w_patient.sched.p95_latency_ns > w_hasty.sched.p95_latency_ns,
        "measured ordering must match the oracle: patient {} ns vs hasty {} ns \
         (modeled {} vs {})",
        w_patient.sched.p95_latency_ns,
        w_hasty.sched.p95_latency_ns,
        m_patient.p95_latency_ns,
        m_hasty.p95_latency_ns
    );
    assert!(
        w_patient.sched.p50_latency_ns > w_hasty.sched.p50_latency_ns,
        "median ordering too: {} vs {}",
        w_patient.sched.p50_latency_ns,
        w_hasty.sched.p50_latency_ns
    );
}

#[test]
fn wall_mode_rejects_closed_loop_and_mismatched_shards() {
    let (tables, workload) = setup(1, ArrivalProcess::poisson(1_000.0, 41));
    let rt = Runtime::new(RuntimeConfig {
        shards: 2,
        ..RuntimeConfig::default()
    })
    .unwrap();
    // 1 engine for 2 shards.
    let mut one = engines(&tables, &workload, 64, 1);
    assert!(rt.run(&mut one, &workload, |_, _, _, _| {}).is_err());

    // No arrival trace.
    let mut closed = workload.clone();
    closed.arrivals = workloads::ArrivalTrace::closed_loop();
    let mut two = engines(&tables, &closed, 64, 2);
    let err = rt.run(&mut two, &closed, |_, _, _, _| {}).unwrap_err();
    assert!(err.to_string().contains("arrival"), "{err}");
}

#[test]
fn a_failing_shard_reports_its_own_error() {
    // Shard 1's engine has one table for a two-table workload, so the
    // first batch it gets fails in stage 1. The run must return that
    // engine error — not the follow-on "worker exited" invariant a
    // later dispatch to the dead shard would report — and must not
    // hang, in both modes. Wall mode runs repeatedly: whether a drain
    // or a dispatch is first to meet the dead shard depends on the
    // thread schedule.
    let (tables, workload) = setup(2, ArrivalProcess::poisson(500_000.0, 43));
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut one_table = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 1,
            num_batches: 1,
            ..TraceConfig::default()
        },
    );
    one_table.stamp_arrivals(ArrivalProcess::poisson(500_000.0, 43));
    let sched = SchedConfig {
        max_batch_size: 16,
        max_wait_ns: 20_000,
        queue_cap: 256,
        policy: OverloadPolicy::ShedOldest,
    };
    for (deterministic, runs) in [(true, 1), (false, 20)] {
        for run in 0..runs {
            let mut eng = engines(&tables, &workload, 64, 1);
            eng.extend(engines(&tables[..1], &one_table, 64, 1));
            let rt = Runtime::new(RuntimeConfig {
                sched,
                shards: 2,
                time_scale: 5.0,
                deterministic,
                ring_capacity: 2,
            })
            .unwrap();
            let err = rt.run(&mut eng, &workload, |_, _, _, _| {}).unwrap_err();
            assert!(
                err.to_string().contains("sparse groups"),
                "deterministic = {deterministic}, run {run}: {err}"
            );
        }
    }
}
