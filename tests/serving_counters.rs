//! One front-end matrix for the telemetry snapshot's `sched` block.
//!
//! Every serving front-end — `Scheduler::run`, the oracle-locked wall
//! runtime at one and two shards, the free-running wall runtime and a
//! two-tenant fleet — runs under each overload policy. The block is
//! written once, from the report the front-end finishes, so it must
//! equal that report's counters, and its batch fills must match the
//! batches the sink saw (and the report's histogram, where there is
//! one). Across the matrix every counter is non-zero somewhere.

use updlrm::prelude::*;
use updlrm::tenancy::ArrivalKind;
use updlrm::updlrm_core::telemetry::{Accum, SchedSnapshot};

const POLICIES: [OverloadPolicy; 3] = [
    OverloadPolicy::ShedOldest,
    OverloadPolicy::RejectNew,
    OverloadPolicy::Block,
];
const MAX_BATCH: usize = 16;
const DPUS: usize = 16;
/// Bursts overflow the 24-slot queue and fill batches; the quiet
/// phases leave batches to their 1 ms deadline, and the end of the
/// trace to the drain flush.
const QPS: f64 = 50_000.0;
const SEED: u64 = 21;

fn sched_config(policy: OverloadPolicy) -> SchedConfig {
    SchedConfig {
        max_batch_size: MAX_BATCH,
        max_wait_ns: 1_000_000,
        queue_cap: 24,
        policy,
    }
}

fn setup() -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 3,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(ArrivalProcess::bursty(QPS, SEED));
    let tables = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t).unwrap())
        .collect();
    (tables, workload)
}

fn engine(tables: &[EmbeddingTable], workload: &Workload) -> UpdlrmEngine {
    let config = UpdlrmConfig {
        batch_size: MAX_BATCH,
        telemetry: true,
        ..UpdlrmConfig::with_dpus(DPUS, PartitionStrategy::NonUniform)
    };
    UpdlrmEngine::from_workload(config, tables, workload).unwrap()
}

/// The `sched` block a finished report stands for: the counters from
/// `r`, the batch fills from the sizes of the batches the sink saw.
fn expected(r: &SchedReport, sizes: &[usize]) -> SchedSnapshot {
    let mut batch_fill = Accum::default();
    for &size in sizes {
        batch_fill.record(size as f64);
    }
    SchedSnapshot {
        admitted: r.admitted,
        shed_oldest: r.shed,
        rejected_new: r.rejected,
        blocked: r.blocked,
        batches: r.batches,
        trigger_size: r.trigger_size,
        trigger_deadline: r.trigger_deadline,
        trigger_drain: r.trigger_drain,
        queue_depth_high_water: r.queue_high_water,
        batch_fill,
    }
}

/// `histogram(sizes)[k]` = batches of exactly `k` queries.
fn histogram(sizes: &[usize]) -> Vec<u64> {
    let mut hist = vec![0; MAX_BATCH + 1];
    for &size in sizes {
        hist[size] += 1;
    }
    hist
}

/// Runs `Runtime::run` on fresh engines; returns the report, the batch
/// sizes the sink saw and shard 0's snapshot.
fn runtime(
    tables: &[EmbeddingTable],
    workload: &Workload,
    cfg: RuntimeConfig,
) -> (RuntimeReport, Vec<usize>, Snapshot) {
    let mut engines: Vec<UpdlrmEngine> =
        (0..cfg.shards).map(|_| engine(tables, workload)).collect();
    let mut sizes = Vec::new();
    let report = Runtime::new(cfg)
        .unwrap()
        .run(&mut engines, workload, |_, ids, _, _| sizes.push(ids.len()))
        .unwrap();
    (report, sizes, engines[0].metrics_snapshot())
}

#[test]
fn every_front_end_records_its_finished_report() {
    let (tables, workload) = setup();
    let mut seen = SchedSnapshot::default();
    for policy in POLICIES {
        let cfg = sched_config(policy);

        // The modeled scheduler.
        let mut eng = engine(&tables, &workload);
        let mut sched = Scheduler::new(cfg).unwrap();
        let mut sizes = Vec::new();
        let report = sched
            .run(&mut eng, &workload, |_, ids, _, _| sizes.push(ids.len()))
            .unwrap();
        let snap = eng.metrics_snapshot().sched;
        assert_eq!(snap, expected(&report, &sizes), "Scheduler::run, {policy}");
        assert_eq!(sched.batch_histogram(), histogram(&sizes), "{policy}");
        seen.merge(&snap);

        // The wall runtime: oracle-locked at one and two shards, then
        // free-running on the real clock.
        for (shards, deterministic) in [(1, true), (2, true), (2, false)] {
            let what = format!("Runtime::run, {shards} shards, deterministic {deterministic}");
            let rt = RuntimeConfig {
                sched: cfg,
                shards,
                deterministic,
                ring_capacity: 4,
                ..RuntimeConfig::default()
            };
            let (report, mut sizes, snap) = runtime(&tables, &workload, rt);
            // Free-running completions arrive out of order; the fills
            // do not depend on the order.
            sizes.sort_unstable();
            assert_eq!(
                snap.sched,
                expected(&report.sched, &sizes),
                "{what}, {policy}"
            );
            assert_eq!(
                report.batch_histogram,
                histogram(&sizes),
                "{what}, {policy}"
            );
            // `Runtime::run` records its own runtime block too.
            assert_eq!(snap.runtime.shards, shards as u64, "{what}");
            assert_eq!(snap.runtime.deterministic, deterministic, "{what}");
            assert_eq!(
                snap.runtime.measured_qps, report.wall.measured_qps,
                "{what}"
            );
            assert_eq!(
                snap.runtime.wall_elapsed_ns, report.wall.wall_elapsed_ns,
                "{what}"
            );
            seen.merge(&snap.sched);
        }
    }
    // Every counter the block carries was exercised somewhere.
    let counters = [
        ("admitted", seen.admitted),
        ("shed_oldest", seen.shed_oldest),
        ("rejected_new", seen.rejected_new),
        ("blocked", seen.blocked),
        ("batches", seen.batches),
        ("trigger_size", seen.trigger_size),
        ("trigger_deadline", seen.trigger_deadline),
        ("trigger_drain", seen.trigger_drain),
        ("queue_depth_high_water", seen.queue_depth_high_water),
    ];
    for (name, count) in counters {
        assert!(count > 0, "no front-end exercised {name}: {seen:?}");
    }
}

#[test]
fn a_two_tenant_fleet_records_every_lane() {
    for policy in POLICIES {
        let tenant = |name: &str, seed: u64| TenantSpec {
            name: name.into(),
            qps: QPS,
            arrival: ArrivalKind::Bursty,
            num_batches: 3,
            max_batch: MAX_BATCH,
            max_wait_us: 1_000,
            queue_cap: 24,
            policy,
            seed,
            ..TenantSpec::default()
        };
        let cfg = FleetConfig {
            fleet_dpus: DPUS,
            telemetry: true,
            ..FleetConfig::default()
        };
        let mut fleet = TenantFleet::from_specs(&[tenant("a", 31), tenant("b", 32)], cfg).unwrap();
        let mut sizes = vec![Vec::new(); 2];
        let report = fleet
            .run(|tenant, _, ids, _, _| sizes[tenant].push(ids.len()))
            .unwrap();
        let mut want = SchedSnapshot::default();
        for (t, sizes) in report.tenants.iter().zip(&sizes) {
            want.merge(&expected(&t.sched, sizes));
        }
        assert_eq!(fleet.metrics_snapshot().sched, want, "{policy}");
        // The lanes' engines hold no scheduler counts of their own.
        for t in 0..2 {
            let lane = fleet.engine_mut(t).metrics_snapshot().sched;
            assert_eq!(lane, SchedSnapshot::default(), "{policy}");
        }
    }
}
