//! Wall-clock mode behaviour (ISSUE 6): the runtime on a real clock
//! must conserve requests, produce finite measured statistics, spread
//! work across shards — and, the acceptance criterion, the modeled
//! oracle's latency percentiles must predict the *ordering* of measured
//! per-request latencies between configurations. Absolute wall numbers
//! are machine-dependent; orderings with 40x modeled separation are
//! not.

use std::collections::BTreeMap;

use dlrm_model::{EmbeddingTable, Matrix};
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

/// Each request's pooled rows, as bits, one `Vec` per table, keyed by
/// request id.
type RowsById = BTreeMap<u32, Vec<Vec<u32>>>;

fn keep_rows(rows: &mut RowsById, ids: &[u32], pooled: &[Matrix]) {
    for (k, &id) in ids.iter().enumerate() {
        let per_table = pooled
            .iter()
            .map(|m| m.row(k).iter().map(|v| v.to_bits()).collect())
            .collect();
        assert!(
            rows.insert(id, per_table).is_none(),
            "request {id} sunk twice"
        );
    }
}

#[test]
fn wall_mode_sinks_each_request_its_own_rows() {
    // A shard completes the batch the previous step left in flight, so
    // the rows a completion carries are that batch's, not the batch just
    // stepped. Wall mode forms its own batches, but each request's pooled
    // rows cannot depend on its batch mates: keyed by request id they
    // must equal `Scheduler::run`'s exactly (integer-valued tables sum
    // exactly in any order). Nothing may shed, so every request has rows.
    let sched = SchedConfig {
        max_batch_size: 16,
        max_wait_ns: 50_000,
        queue_cap: 1024,
        policy: OverloadPolicy::ShedOldest,
    };
    let saturating = ArrivalProcess::poisson(50_000_000.0, 53);
    let paced = ArrivalProcess::poisson(40_000.0, 59);
    let handoffs = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    for (arrivals, label) in [(saturating, "saturating"), (paced, "paced")] {
        let (tables, workload) = setup(4, arrivals);
        let mut oracle = RowsById::new();
        let mut eng = engines(&tables, &workload, 16, 1);
        Scheduler::new(sched)
            .unwrap()
            .run(&mut eng[0], &workload, |_, ids, pooled, _| {
                keep_rows(&mut oracle, ids, pooled)
            })
            .unwrap();
        assert_eq!(oracle.len(), workload.arrivals.times_ns.len());
        for shards in [1usize, 2] {
            for ring_capacity in [1usize, 8] {
                let case = format!("{label}, {shards} shards, ring {ring_capacity}");
                let mut eng = engines(&tables, &workload, 16, shards);
                let rt = Runtime::new(RuntimeConfig {
                    sched,
                    shards,
                    time_scale: 1.0,
                    deterministic: false,
                    ring_capacity,
                })
                .unwrap();
                let mut rows = RowsById::new();
                let r = rt
                    .run(&mut eng, &workload, |_, ids, pooled, _| {
                        keep_rows(&mut rows, ids, pooled)
                    })
                    .unwrap();
                assert_eq!(r.sched.completed, r.sched.requests, "{case}");
                assert!(rows == oracle, "{case}: rows differ from the oracle's");
                for (s, e) in eng.iter().enumerate() {
                    let want = if handoffs { r.batches_per_shard[s] } else { 0 };
                    assert_eq!(e.dpu_handoffs(), want, "{case}, shard {s}");
                }
            }
        }
    }
}

/// `workload` with request `id`'s first table-0 index moved past every
/// table's last row: whichever engine serves that request fails in
/// stage 1 with its own "out of range" error.
fn poison(workload: &mut Workload, id: usize) {
    let bs = workload.config.batch_size;
    let sparse = &mut workload.batches[id / bs].sparse[0];
    let first = sparse.offsets[id % bs];
    assert!(
        first < sparse.offsets[id % bs + 1],
        "request {id} has no lookup"
    );
    sparse.indices[first] = u64::MAX >> 1;
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
    //
    // Then a shard fails on a *later* batch: a request three quarters
    // into a saturating trace cannot be routed, so the engine that gets
    // it fails while, in wall mode, the batch ahead of it is usually
    // still in flight on that engine (the whole trace arrives at once
    // and the rings hold every batch, so a worker's ring runs dry only
    // at the end). The run must still return that
    // engine's error, after the batches before it have been sunk.
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

    let mut late = setup(8, ArrivalProcess::poisson(50_000_000.0, 47));
    let requests = late.1.arrivals.times_ns.len();
    poison(&mut late.1, requests * 3 / 4);
    let (tables, workload) = late;
    // Room for the whole trace: the poisoned request is never shed.
    let sched = SchedConfig {
        queue_cap: requests,
        ..sched
    };
    for (deterministic, runs) in [(true, 1), (false, 20)] {
        for run in 0..runs {
            let mut eng = engines(&tables, &workload, 64, 2);
            let rt = Runtime::new(RuntimeConfig {
                sched,
                shards: 2,
                time_scale: 1.0,
                deterministic,
                ring_capacity: 64,
            })
            .unwrap();
            let mut sunk = 0;
            let err = rt
                .run(&mut eng, &workload, |_, _, _, _| sunk += 1)
                .unwrap_err();
            assert!(
                err.to_string().contains("out of range"),
                "deterministic = {deterministic}, run {run}: {err}"
            );
            assert!(
                sunk > 0,
                "deterministic = {deterministic}, run {run}: no batch sunk"
            );
        }
    }
}
