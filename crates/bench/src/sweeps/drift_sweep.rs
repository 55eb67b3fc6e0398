//! Drift-resilience bench: p99 under non-stationary traffic, with and
//! without live re-partitioning (DESIGN.md §4.11).
//!
//! Seven arms deploy the same naive uniform partition — each
//! contiguous hot set lands almost entirely on a single DPU — and
//! differ only in what they serve and whether the replanner runs:
//!
//! * `steady-replan` — traffic never drifts; the replanner's first
//!   refit balances the placement and later refits keep it balanced.
//!   This arm defines the p99 baseline.
//! * `rotate-replan` / `rotate-static` — the hot set rotates, walking
//!   the bottleneck across DPUs; the replan arm refits to the sliding
//!   window and migrates EMT shards mid-serving, the static arm keeps
//!   the deployment-time partition and the backlog compounds.
//! * `spike-replan` / `spike-static` — a flash crowd: popularity
//!   pinned to set 0 except for one long window that piles most
//!   lookups onto a different hot set (`rate_boost` stays 1.0 so the
//!   arrival stamps match the steady arm; only popularity moves).
//! * `diurnal-rotate-replan` / `diurnal-rotate-static` — the rotation
//!   with a sinusoidal rate curve on top: the daily peak offers
//!   1.4x the mean rate exactly while the hot set is mid-walk.
//!
//! Asserted on modeled time (the drift-resilience gate, a tier-1 test):
//!
//! 1. p99(replan arm) / p99(steady-replan) <= 2.0 for every drifting
//!    replan arm — replanning bounds the degradation;
//! 2. p99(static arm) / p99(steady-replan) > 2.0 for every drifting
//!    static control — the scenario really degrades, so gate 1 is not
//!    vacuously true;
//! 3. every replan arm actually migrated (counters nonzero), the
//!    static controls never did, and two runs of each arm produce
//!    identical reports + drift counters.
//!
//! The rows are the golden `BENCH_drift.json` (see [`crate::protocol`]).

use crate::protocol::Sweep;
use dlrm_model::EmbeddingTable;
use scheduler::{OverloadPolicy, SchedConfig, SchedReport, Scheduler};
use serde::{Serialize, Value};
use updlrm_core::{DriftSnapshot, PartitionStrategy, ReplanPolicy, UpdlrmConfig, UpdlrmEngine};
use workloads::{
    ArrivalProcess, DatasetSpec, DiurnalCurve, DriftSchedule, FlashCrowd, HotSetRotation,
    TraceConfig, Workload,
};

const NUM_TABLES: usize = 4;
/// 16 DPUs per table: the 32-wide rows tile into 4 column slices
/// (n_c = 8), leaving 4 row parts per table — enough that a stale hot
/// set concentrated on one row part visibly caps throughput.
const NR_DPUS: usize = 64;
const DIM: usize = 32;
const MAX_BATCH: usize = 32;
const MAX_WAIT_NS: u64 = 200_000;
const QUEUE_CAP: usize = 512;
const ARRIVAL_SEED: u64 = 7;

/// Hot-set geometry: 4 sets of 256 rows over goodreads/2000 (1180
/// rows), 60% of lookups redirected into the active set. A uniform
/// partition puts ~295 contiguous rows on each of the 4 row parts, so
/// each hot set lands almost entirely on one part — and rotation
/// walks that bottleneck across the parts.
const NUM_SETS: usize = 4;
const SET_SIZE: usize = 256;
const HOT_FRACTION: f64 = 0.6;
/// Offered load as a fraction of the balanced engine's probed
/// capacity: comfortably below a fit placement, above a stale one.
const LOAD_FRAC: f64 = 0.6;
/// Replanner cadence in served batches.
const REPLAN_EVERY: u64 = 4;
/// Rotation period in offered requests (so in modeled time it scales
/// with the probed capacity): several replan windows per rotation.
const ROT_REQUESTS: f64 = 512.0;
/// Flash crowd: piles `SPIKE_EXTRA_HOT` more of the traffic onto hot
/// set 2 (instead of the pinned set 0) for the middle half of the
/// trace. The rate multiplier stays 1.0 so the arrival stamps match
/// the steady arm exactly — only popularity concentration moves.
const SPIKE_TARGET_SET: usize = 2;
const SPIKE_EXTRA_HOT: f64 = 0.35;
/// Diurnal curve: two full cycles per trace, +/-40% around the mean
/// offered rate, riding on the same rotation as the rotate arms.
const DIURNAL_CYCLES: f64 = 2.0;
const DIURNAL_AMPLITUDE: f64 = 0.4;
/// The resilience gate shared by every drifting arm pair: each replan
/// arm must hold p99 within this factor of steady, and each static
/// control must exceed it (anti-vacuous).
const GATE_RATIO: f64 = 2.0;

/// Trace length: 32 generator batches x 64 samples = 2048 requests
/// per arm, i.e. four full rotations at `ROT_REQUESTS`.
const TRACE_BATCHES: usize = 32;

#[derive(Serialize)]
struct Row {
    /// Arm name (the row key).
    arm: String,
    offered_qps: f64,
    achieved_qps: f64,
    completed: u64,
    batches: u64,
    mean_batch_size: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    /// p99 relative to the steady-replan arm.
    p99_vs_steady: f64,
    replans_triggered: u64,
    replans_skipped: u64,
    migrations_completed: u64,
    rows_moved: u64,
    migrated_kb: f64,
    migration_us: f64,
}

fn drift(num_sets: usize, period_ns: u64) -> DriftSchedule {
    DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets,
            set_size: SET_SIZE,
            period_ns,
            hot_fraction: HOT_FRACTION,
        }),
        spikes: Vec::new(),
        diurnal: None,
    }
}

fn gen_sched(spec: &DatasetSpec, schedule: DriftSchedule, qps: f64) -> Workload {
    Workload::generate_drifting(
        spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches: TRACE_BATCHES,
            ..TraceConfig::default()
        },
        schedule,
        ArrivalProcess::poisson(qps, ARRIVAL_SEED),
    )
}

fn gen(spec: &DatasetSpec, num_sets: usize, period_ns: u64, qps: f64) -> Workload {
    gen_sched(spec, drift(num_sets, period_ns), qps)
}

/// All three arms deploy the same naive uniform partition; only
/// `replan` differs. The replanner's first refit upgrades it to a
/// frequency-balanced placement, the static arm keeps it forever.
fn engine(
    tables: &[EmbeddingTable],
    deploy: &Workload,
    strategy: PartitionStrategy,
    replan: bool,
) -> UpdlrmEngine {
    let mut config = UpdlrmConfig::with_dpus(NR_DPUS, strategy).with_telemetry();
    if replan {
        config = config.with_replan(ReplanPolicy::Periodic {
            every_batches: REPLAN_EVERY,
        });
    }
    config.batch_size = MAX_BATCH;
    UpdlrmEngine::from_workload(config, tables, deploy).expect("engine builds")
}

fn sched() -> Scheduler {
    Scheduler::new(SchedConfig {
        max_batch_size: MAX_BATCH,
        max_wait_ns: MAX_WAIT_NS,
        queue_cap: QUEUE_CAP,
        // Block, not shed: under a stale placement the queue backs up
        // and the backlog lands in the latency histogram instead of
        // being quietly dropped.
        policy: OverloadPolicy::Block,
    })
    .expect("valid config")
}

/// One arm, fresh engine (replanning mutates placement, so engines
/// are single-use). Returns the report and the drift counters.
fn run_arm(
    tables: &[EmbeddingTable],
    deploy: &Workload,
    wl: &Workload,
    strategy: PartitionStrategy,
    replan: bool,
) -> (SchedReport, DriftSnapshot) {
    let mut eng = engine(tables, deploy, strategy, replan);
    let report = sched().run(&mut eng, wl, |_, _, _, _| {}).expect("runs");
    (report, eng.metrics_snapshot().drift)
}

/// Runs the sweep, asserting its gates, and returns its document.
pub fn run() -> Sweep {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let tables: Vec<EmbeddingTable> = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();

    // Capacity probe: steady traffic offered far above anything
    // serveable to a frequency-balanced engine; back-to-back full
    // batches make achieved QPS the balanced service capacity — the
    // reference the load fraction is set against.
    let probe_wl = gen(&spec, 1, u64::MAX, 1e9);
    let (probe, _) = run_arm(
        &tables,
        &probe_wl,
        &probe_wl,
        PartitionStrategy::NonUniform,
        false,
    );
    let capacity_qps = probe.achieved_qps;
    let offered = capacity_qps * LOAD_FRAC;
    let period_ns = (ROT_REQUESTS / offered * 1e9) as u64;
    println!(
        "drift sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000, \
         {NUM_SETS}x{SET_SIZE} hot sets @ {HOT_FRACTION} hot, balanced capacity {capacity_qps:.0} qps, \
         offering {offered:.0} qps, rotating every {:.1} ms",
        period_ns as f64 / 1e6,
    );

    // The deployment-time trace the engines are fit to, and the two
    // serving traces. Steady = the same geometry with the rotation
    // pinned to set 0.
    let deploy_wl = gen(&spec, 1, u64::MAX, offered);
    let steady_wl = deploy_wl.clone();
    let rotate_wl = gen(&spec, NUM_SETS, period_ns, offered);

    // The offered trace span anchors the spike window and the diurnal
    // period, so both scenarios scale with the probed capacity the
    // same way the rotation period does.
    let span_ns = *steady_wl.arrivals.times_ns.last().expect("non-empty trace");
    let spike_sched = DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 1,
            set_size: SET_SIZE,
            period_ns: u64::MAX,
            hot_fraction: HOT_FRACTION,
        }),
        spikes: vec![FlashCrowd {
            start_ns: span_ns / 4,
            duration_ns: span_ns / 2,
            target_set: SPIKE_TARGET_SET,
            extra_hot: SPIKE_EXTRA_HOT,
            rate_boost: 1.0,
        }],
        diurnal: None,
    };
    let diurnal_sched = DriftSchedule {
        diurnal: Some(DiurnalCurve {
            period_ns: (span_ns as f64 / DIURNAL_CYCLES) as u64,
            amplitude: DIURNAL_AMPLITUDE,
        }),
        ..drift(NUM_SETS, period_ns)
    };
    let spike_wl = gen_sched(&spec, spike_sched, offered);
    let diurnal_wl = gen_sched(&spec, diurnal_sched, offered);

    let arms: [(&str, &Workload, bool); 7] = [
        ("steady-replan", &steady_wl, true),
        ("rotate-replan", &rotate_wl, true),
        ("rotate-static", &rotate_wl, false),
        ("spike-replan", &spike_wl, true),
        ("spike-static", &spike_wl, false),
        ("diurnal-rotate-replan", &diurnal_wl, true),
        ("diurnal-rotate-static", &diurnal_wl, false),
    ];

    let mut results: Vec<(&str, SchedReport, DriftSnapshot)> = Vec::new();
    for (arm, wl, replan) in arms {
        // Determinism identity: the whole serving path — including
        // mid-stream migration — runs on modeled time only, so two
        // runs agree exactly.
        let (report, dsnap) = run_arm(&tables, &deploy_wl, wl, PartitionStrategy::Uniform, replan);
        let (report_b, dsnap_b) =
            run_arm(&tables, &deploy_wl, wl, PartitionStrategy::Uniform, replan);
        assert_eq!(report, report_b, "{arm}: reports differ across runs");
        assert_eq!(dsnap, dsnap_b, "{arm}: drift counters differ across runs");

        results.push((arm, report, dsnap));
    }

    // The drift-resilience gate, asserted on modeled time: every
    // drifting replan arm holds p99 within GATE_RATIO of steady, and
    // every static control exceeds it (anti-vacuous).
    let at = |arm: &str| results.iter().find(|(a, _, _)| *a == arm).unwrap();
    let steady = &at("steady-replan").1;
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (arm, rep, dsnap) in &results {
        if *arm == "steady-replan" {
            continue;
        }
        let ratio = rep.p99_latency_ns / steady.p99_latency_ns;
        ratios.push((arm.to_string(), ratio));
        if arm.ends_with("-static") {
            assert_eq!(
                *dsnap,
                DriftSnapshot::default(),
                "{arm}: static control must not replan"
            );
            assert!(
                ratio > GATE_RATIO,
                "anti-vacuous gate: the {arm} control only degraded to \
                 {ratio:.2}x steady — the scenario no longer stresses placement"
            );
        } else {
            assert!(
                dsnap.migrations_completed >= 1 && dsnap.rows_moved > 0,
                "{arm} never migrated — the gate would be vacuous: {dsnap:?}"
            );
            assert!(
                ratio <= GATE_RATIO,
                "drift-resilience gate: p99 of {arm} is {ratio:.2}x steady \
                 (limit {GATE_RATIO}x)"
            );
        }
    }
    let rows: Vec<Row> = results
        .iter()
        .map(|(arm, report, dsnap)| Row {
            arm: arm.to_string(),
            offered_qps: offered,
            achieved_qps: report.achieved_qps,
            completed: report.completed,
            batches: report.batches,
            mean_batch_size: report.mean_batch_size,
            p50_latency_us: report.p50_latency_ns / 1e3,
            p99_latency_us: report.p99_latency_ns / 1e3,
            p99_vs_steady: ratios
                .iter()
                .find(|(a, _)| a == arm)
                .map_or(1.0, |(_, r)| *r),
            replans_triggered: dsnap.replans_triggered,
            replans_skipped: dsnap.replans_skipped,
            migrations_completed: dsnap.migrations_completed,
            rows_moved: dsnap.rows_moved,
            migrated_kb: dsnap.migrated_bytes as f64 / 1024.0,
            migration_us: dsnap.migration_ns / 1e3,
        })
        .collect();
    let gate_line = ratios
        .iter()
        .map(|(a, r)| format!("{a} {r:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "gate: p99 vs steady — {gate_line} (replan arms <= {GATE_RATIO}, \
         static controls > {GATE_RATIO})"
    );

    let p99_vs_steady = ratios
        .iter()
        .map(|(a, r)| (a.clone(), Value::Float(*r)))
        .collect();
    let header = [
        ("bench", "drift_sweep".to_value()),
        ("dataset", "goodreads/2000".to_value()),
        ("nr_dpus", NR_DPUS.to_value()),
        ("num_tables", NUM_TABLES.to_value()),
        ("dim", DIM.to_value()),
        ("max_batch", MAX_BATCH.to_value()),
        ("num_sets", NUM_SETS.to_value()),
        ("set_size", SET_SIZE.to_value()),
        ("hot_fraction", HOT_FRACTION.to_value()),
        ("load_frac", LOAD_FRAC.to_value()),
        ("replan_every_batches", REPLAN_EVERY.to_value()),
        ("rotation_period_ns", period_ns.to_value()),
        ("capacity_qps", capacity_qps.to_value()),
        ("offered_qps", offered.to_value()),
        ("spike_target_set", SPIKE_TARGET_SET.to_value()),
        ("spike_extra_hot", SPIKE_EXTRA_HOT.to_value()),
        ("diurnal_cycles", DIURNAL_CYCLES.to_value()),
        ("diurnal_amplitude", DIURNAL_AMPLITUDE.to_value()),
        ("gate_ratio", GATE_RATIO.to_value()),
        ("p99_vs_steady", Value::Object(p99_vs_steady)),
    ];
    Sweep::new("drift_sweep", "BENCH_drift.json", &["arm"], &header, &rows)
}
