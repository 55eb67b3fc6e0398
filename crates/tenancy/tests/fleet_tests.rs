//! Integration proofs for the multi-tenant fleet:
//!
//! * differential equality with the single-tenant `scheduler` event
//!   loop (one-tenant fleet == `Scheduler::run`, field for field and
//!   bit for bit);
//! * content isolation (per-tenant pooled embeddings bit-identical to
//!   the same tenant served alone);
//! * determinism (two same-seed runs serialize byte-identically);
//! * performance isolation (DRR bounds a victim's p99 under an
//!   adversarial neighbor; FCFS does not — both directions gated);
//! * weighted arbitration (heavier tenants see lower latency under
//!   saturation) and the capacity sweep's knee.

#[path = "../../scheduler/tests/cases/mod.rs"]
mod cases;

use dlrm_model::EmbeddingTable;
use scheduler::{report_is_finite, Scheduler};
use tenancy::{
    capacity_sweep, fleet_report_is_finite, Arbitration, ArrivalKind, FleetConfig, TenantFleet,
    TenantSpec,
};
use updlrm_core::{UpdlrmConfig, UpdlrmEngine};
use workloads::{TraceConfig, Workload};

const FLEET_DPUS: usize = 16;

fn fleet_cfg(arbitration: Arbitration) -> FleetConfig {
    FleetConfig {
        fleet_dpus: FLEET_DPUS,
        quantum_ns: 100_000,
        arbitration,
        telemetry: false,
        ..FleetConfig::default()
    }
}

/// Replicates `TenantFleet::from_specs`'s engine construction so the
/// differential test drives the *same* engine through the
/// single-tenant scheduler.
fn solo_engine_and_workload(spec: &TenantSpec) -> (UpdlrmEngine, Workload) {
    let dspec = spec.dataset_spec().unwrap();
    let mut workload = Workload::generate(
        &dspec,
        TraceConfig {
            num_tables: spec.num_tables,
            num_batches: spec.num_batches,
            seed: spec.seed,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(spec.arrival_process());
    let tables: Vec<EmbeddingTable> = (0..spec.num_tables)
        .map(|t| {
            EmbeddingTable::random_integer_valued(
                dspec.num_items,
                spec.dim,
                3,
                spec.seed.wrapping_add(t as u64),
            )
            .unwrap()
        })
        .collect();
    let config = UpdlrmConfig {
        batch_size: spec.max_batch,
        telemetry: true,
        embed_dtype: spec.dtype,
        ..UpdlrmConfig::with_dpus(FLEET_DPUS, spec.strategy)
    };
    let engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
    (engine, workload)
}

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

/// Pooled-embedding bit stream of one tenant across a whole run.
fn run_bits(fleet: &mut TenantFleet, tenants: usize) -> (Vec<Vec<u32>>, tenancy::FleetReport) {
    let mut bits = vec![Vec::new(); tenants];
    let report = fleet
        .run(|tenant, _, _, pooled, _| {
            for m in pooled {
                bits[tenant].extend(m.as_slice().iter().map(|v| v.to_bits()));
            }
        })
        .unwrap();
    (bits, report)
}

#[test]
fn one_tenant_fleet_equals_the_single_tenant_scheduler() {
    // The shared overload case table (every policy at saturation plus
    // a light-load control), telemetry on, for both arbitration
    // disciplines.
    for case in &cases::CASES {
        for arbitration in [Arbitration::Drr, Arbitration::Fcfs] {
            let spec = TenantSpec {
                name: "only".into(),
                qps: case.qps,
                arrival: if case.bursty {
                    ArrivalKind::Bursty
                } else {
                    ArrivalKind::Poisson
                },
                seed: case.seed,
                max_batch: case.sched.max_batch_size,
                max_wait_us: case.sched.max_wait_ns / 1_000,
                queue_cap: case.sched.queue_cap,
                policy: case.sched.policy,
                num_batches: 8,
                ..TenantSpec::default()
            };
            assert_eq!(spec.sched_config(), case.sched);
            let what = format!("{} / {arbitration:?}", case.name);

            let (mut engine, workload) = solo_engine_and_workload(&spec);
            let mut sched = Scheduler::new(spec.sched_config()).unwrap();
            let mut solo_bits: Vec<u32> = Vec::new();
            let solo = sched
                .run(&mut engine, &workload, |_, _, pooled, _| {
                    for m in pooled {
                        solo_bits.extend(m.as_slice().iter().map(|v| v.to_bits()));
                    }
                })
                .unwrap();
            case.assert_exercised(&solo);

            let cfg = FleetConfig {
                telemetry: true,
                ..fleet_cfg(arbitration)
            };
            let mut fleet = TenantFleet::from_specs(std::slice::from_ref(&spec), cfg).unwrap();
            let (bits, report) = run_bits(&mut fleet, 1);

            // Same batches, same embeddings, same latencies, same derived
            // stats — the whole report, field for field — and the same
            // scheduler telemetry in the fleet-wide snapshot, which the
            // fleet records from the lane's finished tally: the lane's
            // engine holds no scheduler counts.
            assert_eq!(bits[0], solo_bits, "{what}");
            assert_eq!(report.tenants[0].sched, solo, "{what}");
            let solo_telemetry = engine.metrics_snapshot().sched;
            assert_eq!(solo_telemetry.batches, solo.batches, "{what}");
            assert_eq!(
                fleet.engine_mut(0).metrics_snapshot().sched,
                Default::default(),
                "{what}"
            );
            assert_eq!(fleet.metrics_snapshot().sched, solo_telemetry, "{what}");
            assert!(fleet_report_is_finite(&report));
        }
    }
}

#[test]
fn shared_fleet_embeddings_are_bit_identical_to_solo_serving() {
    // Two deliberately heterogeneous tenants: different datasets,
    // strategies, dtypes, arrival processes and batching policies.
    let a = TenantSpec {
        name: "search".into(),
        qps: 40_000.0,
        dataset: "movie".into(),
        strategy: "ca".parse().unwrap(),
        num_batches: 6,
        seed: 21,
        ..TenantSpec::default()
    };
    let b = TenantSpec {
        name: "ads".into(),
        qps: 25_000.0,
        arrival: ArrivalKind::Bursty,
        dtype: dlrm_model::EmbedDtype::Int8,
        max_batch: 16,
        num_batches: 6,
        seed: 22,
        ..TenantSpec::default()
    };

    let mut duo =
        TenantFleet::from_specs(&[a.clone(), b.clone()], fleet_cfg(Arbitration::Drr)).unwrap();
    let (duo_bits, duo_report) = run_bits(&mut duo, 2);

    for (i, spec) in [a, b].into_iter().enumerate() {
        let mut solo =
            TenantFleet::from_specs(std::slice::from_ref(&spec), fleet_cfg(Arbitration::Drr))
                .unwrap();
        let (solo_bits, solo_report) = run_bits(&mut solo, 1);
        assert_eq!(
            duo_bits[i], solo_bits[0],
            "tenant '{}' pooled embeddings must not change when sharing",
            spec.name
        );
        // Admission and batch formation are untouched by sharing; only
        // completion-time statistics may move.
        let (d, s) = (&duo_report.tenants[i].sched, &solo_report.tenants[0].sched);
        assert_eq!(
            (d.admitted, d.shed, d.rejected),
            (s.admitted, s.shed, s.rejected)
        );
        assert_eq!((d.batches, d.completed), (s.batches, s.completed));
        assert_eq!(
            (d.trigger_size, d.trigger_deadline, d.trigger_drain),
            (s.trigger_size, s.trigger_deadline, s.trigger_drain)
        );
    }
}

#[test]
fn two_runs_serialize_byte_identically() {
    let specs = [victim(), adversary()];
    let mut cfg = fleet_cfg(Arbitration::Drr);
    cfg.telemetry = true;
    let jsons: Vec<(String, String)> = (0..2)
        .map(|_| {
            let mut fleet = TenantFleet::from_specs(&specs, cfg.clone()).unwrap();
            let (_, report) = run_bits(&mut fleet, 2);
            let snap = fleet.metrics_snapshot();
            assert_eq!(snap.schema_version, updlrm_core::SNAPSHOT_SCHEMA_VERSION);
            assert_eq!(snap.tenants.len(), 2, "v5 per-tenant breakout");
            assert_eq!(snap.tenants[0].name, "victim");
            assert_eq!(snap.tenants[1].name, "adversary");
            assert!(snap.tenants[0].completed > 0);
            (
                serde::json::to_string_pretty(&report),
                serde::json::to_string_pretty(&snap),
            )
        })
        .collect();
    assert_eq!(
        jsons[0].0, jsons[1].0,
        "fleet reports must be byte-identical"
    );
    assert_eq!(jsons[0].1, jsons[1].1, "snapshots must be byte-identical");

    // And the report round-trips through its serde derives.
    let back: tenancy::FleetReport = serde::json::from_str(&jsons[0].0).unwrap();
    assert_eq!(serde::json::to_string_pretty(&back), jsons[0].0);
}

#[test]
fn drr_bounds_the_victim_while_fcfs_degrades_it() {
    // The noisy-neighbor contract, same shape as benches/tenants.rs:
    // with arbitration on, a bursty adversary must not push the steady
    // victim's p99 beyond 1.5x its solo baseline; with FCFS the same
    // pair must blow past it (anti-vacuous in both directions).
    let mut solo = TenantFleet::from_specs(&[victim()], fleet_cfg(Arbitration::Drr)).unwrap();
    let (_, solo_report) = run_bits(&mut solo, 1);
    let solo_p99 = solo_report.tenants[0].sched.p99_latency_ns;
    assert!(solo_p99 > 0.0);

    let mut p99 = Vec::new();
    for arbitration in [Arbitration::Drr, Arbitration::Fcfs] {
        let mut duo =
            TenantFleet::from_specs(&[victim(), adversary()], fleet_cfg(arbitration)).unwrap();
        let (_, report) = run_bits(&mut duo, 2);
        assert!(
            report.fleet_utilization > 0.9,
            "the mix must saturate the fleet"
        );
        assert!(
            report.tenants[1].sched.shed > 0,
            "the adversary must overload itself"
        );
        p99.push(report.tenants[0].sched.p99_latency_ns);
    }
    let (drr, fcfs) = (p99[0], p99[1]);
    assert!(
        drr <= 1.5 * solo_p99,
        "DRR victim p99 {drr} must stay within 1.5x solo {solo_p99}"
    );
    assert!(
        fcfs > 1.5 * solo_p99,
        "FCFS victim p99 {fcfs} must degrade past 1.5x solo {solo_p99} (gate is vacuous otherwise)"
    );
    assert!(fcfs > drr, "arbitration must be doing the protecting");
}

#[test]
fn heavier_weights_buy_lower_latency_under_saturation() {
    // Two identical saturating tenants, 3:1 weights. Work conservation
    // means both complete the same batches eventually (equal busy
    // shares); the weight shows up where it should — latency.
    let mk = |name: &str, weight: f64| TenantSpec {
        name: name.into(),
        qps: 60_000.0,
        num_batches: 8,
        weight,
        seed: 5,
        ..TenantSpec::default()
    };
    let mut fleet = TenantFleet::from_specs(
        &[mk("heavy", 3.0), mk("light", 1.0)],
        fleet_cfg(Arbitration::Drr),
    )
    .unwrap();
    let (_, report) = run_bits(&mut fleet, 2);
    let (h, l) = (&report.tenants[0], &report.tenants[1]);
    assert_eq!(h.fleet_share_configured, 0.75);
    assert_eq!(l.fleet_share_configured, 0.25);
    // Identical specs complete identical work.
    assert_eq!(h.sched.completed, l.sched.completed);
    assert!(
        h.sched.p99_latency_ns < l.sched.p99_latency_ns,
        "3x weight must not lose on p99: heavy {} vs light {}",
        h.sched.p99_latency_ns,
        l.sched.p99_latency_ns
    );
    assert!(
        h.sched.mean_latency_ns < l.sched.mean_latency_ns,
        "heavy {} vs light {}",
        h.sched.mean_latency_ns,
        l.sched.mean_latency_ns
    );
    assert!(report_is_finite(&h.sched) && report_is_finite(&l.sched));
}

#[test]
fn interleaving_rotates_tenant_origins() {
    let specs = [victim(), adversary()];
    let mut on = fleet_cfg(Arbitration::Drr);
    on.telemetry = true;
    let mut off = on.clone();
    off.interleave = false;

    let mut fleet_on = TenantFleet::from_specs(&specs, on).unwrap();
    let (bits_on, r_on) = run_bits(&mut fleet_on, 2);
    let mut fleet_off = TenantFleet::from_specs(&specs, off).unwrap();
    let (bits_off, r_off) = run_bits(&mut fleet_off, 2);

    assert_eq!(r_on.tenants[0].dpu_offset, 0);
    assert_eq!(r_on.tenants[1].dpu_offset, FLEET_DPUS / 2);
    assert!(r_off.tenants.iter().all(|t| t.dpu_offset == 0));
    // The rotation is pure relabeling: modeled behavior is untouched.
    assert_eq!(bits_on, bits_off);
    assert_eq!(r_on.tenants[0].sched, r_off.tenants[0].sched);
    assert_eq!(r_on.tenants[1].sched, r_off.tenants[1].sched);
    assert!(
        r_on.fleet_imbalance >= 1.0,
        "telemetry on gives a real max/mean"
    );
}

#[test]
fn capacity_sweep_finds_the_fleet_size_knee() {
    let spec = TenantSpec {
        slo_p99_us: 900.0,
        ..victim()
    };
    let points = capacity_sweep(
        std::slice::from_ref(&spec),
        &fleet_cfg(Arbitration::Drr),
        &[4, 8, FLEET_DPUS],
    )
    .unwrap();
    assert_eq!(points.len(), 3);
    // 4 DPUs has no feasible tile shape for this catalog at all; the
    // sweep records that instead of aborting.
    assert!(
        !points[0].feasible && !points[0].all_slos_met,
        "{:?}",
        points[0]
    );
    assert!(
        points[1].feasible && !points[1].all_slos_met,
        "8 DPUs cannot hold a 900 us p99: {:?}",
        points[1]
    );
    assert!(points[2].all_slos_met, "{:?}", points[2]);
    assert!(points[2].tenants[0].p99_latency_ns < points[1].tenants[0].p99_latency_ns);
    // Serializable for `updlrm capacity --json`.
    let json = serde::json::to_string_pretty(&points);
    let back: Vec<tenancy::CapacityPoint> = serde::json::from_str(&json).unwrap();
    assert_eq!(back, points);
}

/// Tenants time-share the DPUs, and what each keeps WRAM-resident stays
/// put between its turns: a fleet built from specs gives every tenant
/// an equal share of the budget, so on one DPU the tenants' resident
/// blocks together with the larger tenant's tasklet locals and
/// accumulators stay within the 64 KB — and engines built as if each
/// had the DPUs to itself are turned away.
#[test]
fn two_tenants_resident_rows_fit_one_dpu_together() {
    use updlrm_core::ResidencyReport;
    // Tables large enough that a tenant alone would fill the budget.
    let specs = [victim(), adversary()].map(|spec| TenantSpec { scale: 500, ..spec });
    let mut fleet = TenantFleet::from_specs(&specs, fleet_cfg(Arbitration::Drr)).unwrap();
    let reports: Vec<ResidencyReport> = (0..specs.len())
        .map(|i| fleet.engine_mut(i).residency())
        .collect();
    let (solo, _) = solo_engine_and_workload(&specs[0]);
    let solo = solo.residency();
    let mut resident = 0;
    for r in &reports {
        assert!(r.max_rows > 0, "{r:?}");
        assert_eq!(r.budget_bytes, solo.budget_bytes / specs.len(), "{r:?}");
        assert!(r.max_bytes <= r.budget_bytes, "{r:?}");
        resident += r.max_bytes;
    }
    let transient = reports
        .iter()
        .map(|r| r.max_wram_bytes - r.max_bytes)
        .max()
        .unwrap();
    assert!(
        resident + transient <= ResidencyReport::WRAM_BYTES,
        "{resident} B resident + {transient} B transient"
    );
    // The shared fleet still serves.
    let report = fleet.run(|_, _, _, _, _| {}).unwrap();
    assert!(report.tenants.iter().all(|t| t.sched.completed > 0));

    // Two engines that each took the whole budget do not fit together.
    let parts = specs
        .iter()
        .map(|spec| {
            let (engine, workload) = solo_engine_and_workload(spec);
            (spec.clone(), workload, engine)
        })
        .collect();
    let err = TenantFleet::with_engines(fleet_cfg(Arbitration::Drr), parts).unwrap_err();
    assert!(err.to_string().contains("wram_tenants = 2"), "{err}");
}

#[test]
fn invalid_fleets_are_rejected() {
    let err = TenantFleet::from_specs(&[], fleet_cfg(Arbitration::Drr)).unwrap_err();
    assert!(err.to_string().contains("at least one tenant"), "{err}");

    let bad = TenantSpec {
        weight: 0.0,
        ..victim()
    };
    let err = TenantFleet::from_specs(&[bad], fleet_cfg(Arbitration::Drr)).unwrap_err();
    assert!(err.to_string().contains("weight"), "{err}");

    let mut cfg = fleet_cfg(Arbitration::Drr);
    cfg.fleet_dpus = 0;
    let err = TenantFleet::from_specs(&[victim()], cfg).unwrap_err();
    assert!(err.to_string().contains("dpus"), "{err}");
}
