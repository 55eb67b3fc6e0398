//! Noisy-neighbor bench: a steady victim tenant sharing one modeled
//! DPU fleet with a bursty adversary (DESIGN.md §4.12).
//!
//! Three arms serve the same victim trace:
//!
//! * `victim-solo` — the victim alone on the fleet. This arm defines
//!   the p99 baseline and the pooled-embedding bit stream that the
//!   shared arms must reproduce exactly.
//! * `duo-drr` — victim + adversary under weighted deficit round
//!   robin (the default isolation discipline; the victim carries
//!   double weight).
//! * `duo-fcfs` — same pair with arbitration off (global FCFS): the
//!   adversary's bursts walk straight into the victim's latency.
//!
//! Asserted on modeled time (the tenant-isolation gate, a tier-1 test):
//!
//! 1. p99(duo-drr victim) / p99(victim-solo) <= 1.5 — DRR bounds the
//!    noisy neighbor's damage;
//! 2. p99(duo-fcfs victim) / p99(victim-solo) > 1.5 — without
//!    arbitration the victim really degrades, so gate 1 is not
//!    vacuously true;
//! 3. the victim's pooled embeddings are bit-identical in all three
//!    arms (content isolation), the adversary actually sheds load
//!    (it is genuinely overloaded), and two runs of each arm
//!    serialize byte-identically.
//!
//! The rows are the golden `BENCH_tenants.json` (see [`crate::protocol`]).

use crate::protocol::Sweep;
use serde::Serialize;
use tenancy::{Arbitration, ArrivalKind, FleetConfig, FleetReport, TenantFleet, TenantSpec};

const FLEET_DPUS: usize = 16;
const QUANTUM_NS: u64 = 100_000;
/// The isolation gate: with DRR on, the adversary must not push the
/// victim's p99 beyond this factor of solo serving; with FCFS it must.
const GATE_RATIO: f64 = 1.5;

/// Steady Poisson tenant with double arbitration weight. Its 500 us
/// batching window keeps batches full at 10k qps.
fn victim() -> TenantSpec {
    TenantSpec {
        name: "victim".into(),
        qps: 10_000.0,
        num_batches: 10,
        max_wait_us: 500,
        weight: 2.0,
        seed: 11,
        ..TenantSpec::default()
    }
}

/// Bursty adversary offered 3x the victim's rate in 4x bursts — far
/// past its fleet share, so it sheds. `max_batch` 8 caps the
/// non-preemptible service quantum it can occupy the fleet with.
fn adversary() -> TenantSpec {
    TenantSpec {
        name: "adversary".into(),
        qps: 30_000.0,
        arrival: ArrivalKind::Bursty,
        num_batches: 30,
        max_wait_us: 200,
        max_batch: 8,
        weight: 1.0,
        seed: 12,
        ..TenantSpec::default()
    }
}

fn fleet_cfg(arbitration: Arbitration) -> FleetConfig {
    FleetConfig {
        fleet_dpus: FLEET_DPUS,
        quantum_ns: QUANTUM_NS,
        arbitration,
        telemetry: false,
        ..FleetConfig::default()
    }
}

/// One arm: fresh fleet (serving mutates engine state), returning the
/// report and the victim's pooled-embedding bit stream.
fn run_arm(specs: &[TenantSpec], arbitration: Arbitration) -> (FleetReport, Vec<u32>) {
    let mut fleet = TenantFleet::from_specs(specs, fleet_cfg(arbitration)).expect("fleet builds");
    let mut bits = Vec::new();
    let report = fleet
        .run(|tenant, _, _, pooled, _| {
            if tenant == 0 {
                for m in pooled {
                    bits.extend(m.as_slice().iter().map(|v| v.to_bits()));
                }
            }
        })
        .expect("fleet runs");
    (report, bits)
}

#[derive(Serialize)]
struct Row {
    /// Arm name (the row key).
    arm: String,
    victim_offered_qps: f64,
    victim_achieved_qps: f64,
    victim_completed: u64,
    victim_p50_latency_us: f64,
    victim_p99_latency_us: f64,
    /// Victim p99 relative to the victim-solo arm.
    victim_p99_vs_solo: f64,
    adversary_shed: u64,
    fleet_utilization: f64,
}

/// Runs the sweep, asserting its gates, and returns its document.
pub fn run() -> Sweep {
    let solo = [victim()];
    let duo = [victim(), adversary()];
    let arms: [(&str, &[TenantSpec], Arbitration); 3] = [
        ("victim-solo", &solo, Arbitration::Drr),
        ("duo-drr", &duo, Arbitration::Drr),
        ("duo-fcfs", &duo, Arbitration::Fcfs),
    ];
    println!(
        "tenants bench: victim 10k qps poisson (weight 2) vs adversary 30k qps bursty, \
         {FLEET_DPUS} DPUs, quantum {} us",
        QUANTUM_NS / 1000,
    );

    let mut results: Vec<(&str, FleetReport, Vec<u32>)> = Vec::new();
    for (arm, specs, arbitration) in arms {
        // Determinism identity: the whole fleet — batch formation,
        // arbitration, telemetry — runs on modeled time only, so two
        // runs serialize byte-identically.
        let (report, bits) = run_arm(specs, arbitration);
        let (report_b, bits_b) = run_arm(specs, arbitration);
        assert_eq!(
            serde::json::to_string_pretty(&report),
            serde::json::to_string_pretty(&report_b),
            "{arm}: reports differ across runs"
        );
        assert_eq!(bits, bits_b, "{arm}: embedding bits differ across runs");

        results.push((arm, report, bits));
    }

    // The tenant-isolation gate, asserted on modeled time.
    let at = |arm: &str| results.iter().find(|(a, _, _)| *a == arm).unwrap();
    let (_, solo_rep, solo_bits) = at("victim-solo");
    let (_, drr_rep, drr_bits) = at("duo-drr");
    let (_, fcfs_rep, fcfs_bits) = at("duo-fcfs");
    let solo_p99 = solo_rep.tenants[0].sched.p99_latency_ns;
    let ratio_drr = drr_rep.tenants[0].sched.p99_latency_ns / solo_p99;
    let ratio_fcfs = fcfs_rep.tenants[0].sched.p99_latency_ns / solo_p99;
    let rows: Vec<Row> = results
        .iter()
        .map(|(arm, report, _)| {
            let v = &report.tenants[0].sched;
            Row {
                arm: arm.to_string(),
                victim_offered_qps: v.offered_qps,
                victim_achieved_qps: v.achieved_qps,
                victim_completed: v.completed,
                victim_p50_latency_us: v.p50_latency_ns / 1e3,
                victim_p99_latency_us: v.p99_latency_ns / 1e3,
                victim_p99_vs_solo: v.p99_latency_ns / solo_p99,
                adversary_shed: report.tenants.get(1).map_or(0, |t| t.sched.shed),
                fleet_utilization: report.fleet_utilization,
            }
        })
        .collect();
    println!(
        "gate: victim p99 duo-drr {ratio_drr:.2}x solo (<= {GATE_RATIO} required), \
         duo-fcfs {ratio_fcfs:.2}x (> {GATE_RATIO} required)"
    );
    assert_eq!(
        solo_bits, drr_bits,
        "content isolation broken: duo-drr victim embeddings differ from solo"
    );
    assert_eq!(
        solo_bits, fcfs_bits,
        "content isolation broken: duo-fcfs victim embeddings differ from solo"
    );
    for (arm, rep, _) in [at("duo-drr"), at("duo-fcfs")] {
        assert!(
            rep.tenants[1].sched.shed > 0,
            "{arm}: the adversary never shed — it is not actually overloaded"
        );
    }
    assert!(
        ratio_drr <= GATE_RATIO,
        "tenant-isolation gate: DRR let the noisy neighbor push the victim's \
         p99 to {ratio_drr:.2}x solo (limit {GATE_RATIO}x)"
    );
    assert!(
        ratio_fcfs > GATE_RATIO,
        "anti-vacuous gate: without arbitration the victim only degraded to \
         {ratio_fcfs:.2}x solo — the adversary no longer stresses the fleet"
    );

    let header = [
        ("bench", "tenants".to_value()),
        ("fleet_dpus", FLEET_DPUS.to_value()),
        ("quantum_ns", QUANTUM_NS.to_value()),
        ("gate_ratio", GATE_RATIO.to_value()),
        ("victim_p99_ratio_drr", ratio_drr.to_value()),
        ("victim_p99_ratio_fcfs", ratio_fcfs.to_value()),
    ];
    Sweep::new("tenants", "BENCH_tenants.json", &["arm"], &header, &rows)
}
