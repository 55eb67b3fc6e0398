//! The multi-tenant fleet: N per-tenant engines, one shared modeled
//! DPU fleet, deterministic arbitration between them.
//!
//! ## Two-phase design
//!
//! Serving runs in two strictly separated phases per
//! [`TenantFleet::run`]:
//!
//! 1. **Formation + execution** (per tenant, in isolation): each
//!    tenant's arrival trace is replayed by the tenant's own
//!    single-tenant [`Scheduler`] — the one shared event loop, so
//!    admission order, overload policy and size/deadline/drain
//!    triggers are the solo scheduler's by construction — paced by a
//!    *virtual dedicated-fleet clock* (the depth-2 pipeline clock the
//!    tenant's own engine would run on if it had the whole fleet to
//!    itself). Every formed batch runs through the tenant's engine
//!    here, producing pooled embeddings and three modeled stage times.
//! 2. **Arbitration** (across tenants): the formed batches — each a
//!    ready instant and its stage times — are dispatched onto the
//!    shared fleet timeline under weighted deficit round robin or
//!    FCFS. The timeline is the same depth-2 [`PipelineClock`], on the
//!    same picosecond clock, that a single tenant's scheduler runs
//!    on: the fleet's DPUs and host bus are one
//!    pipeline with two staging slots, so one tenant's stage 1 may
//!    overlap another's stage 2. Completion times (and hence
//!    per-request latencies and SLO verdicts) come from this shared
//!    timeline.
//!
//! Because phase 1 never sees the other tenants, a tenant's batch
//! content and pooled embeddings are a pure function of its own spec —
//! *bit-identical* to the same tenant served alone on its own fleet
//! slice, and bit-identical to `scheduler::Scheduler` driving the same
//! engine (the differential tests enforce both). Arbitration can only
//! move completion times, which is exactly the degree of freedom the
//! noisy-neighbor isolation gates measure.
//!
//! ## WDRR accounting
//!
//! Tenant `i` holds a deficit counter. Each round-robin visit while it
//! has a ready batch credits `quantum_ns x weight_i`; the fleet then
//! serves its ready batches while the deficit covers their service
//! time (their three stage times summed), debiting as it goes. A
//! tenant with no ready batch at the end of its visit forfeits its
//! deficit (no banking credit while idle — a bursty tenant cannot save
//! up fleet time during its quiet phase). With every queue backlogged,
//! long-run fleet shares converge to `weight_i / sum(weights)`; a
//! victim's extra wait behind an adversary is bounded by the batches
//! in flight on the pipeline plus one adversary quantum, independent
//! of the adversary's backlog depth. The arbiter decides when the DPU
//! array has run every placed batch's stage 2, so a batch that turns
//! ready while the array is busy still competes for the next slot.
//!
//! All arbitration arithmetic is integer-ns; a fixed seed produces
//! byte-identical [`FleetReport`]s and telemetry snapshots.

use crate::spec::{Arbitration, FleetConfig, TenantSpec};
use dlrm_model::{EmbeddingTable, Matrix};
use placement::interleaved_offsets;
use scheduler::{SchedReport, Scheduler};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::pipeline::{PipelineClock, Stages};
use updlrm_core::telemetry::Snapshot;
use updlrm_core::{
    CoreError, MetricsRegistry, Ps, Result, TenantSnapshot, UpdlrmConfig, UpdlrmEngine,
};
use workloads::{TraceConfig, Workload};

/// One formed batch awaiting fleet dispatch: its phase-1 launch
/// instant, stage times and member range into the lane's flat
/// member-id buffer.
#[derive(Debug, Clone, Copy)]
struct FormedBatch {
    ready: Ps,
    stages: Stages,
    members: (u32, u32),
}

/// The shared fleet pipeline: the one depth-2 clock and the batch on it
/// whose stage 3 is not yet placed, as `(lane, batch)` indices.
#[derive(Debug, Default)]
struct Timeline {
    clock: PipelineClock,
    pending: Option<(usize, usize)>,
}

impl Timeline {
    /// Launches lane `i`'s next batch as early as a staging slot and its
    /// ready instant allow, which places the pending batch's stage 3 and
    /// completes it. Returns the arbiter's next decision instant: when
    /// the DPU array has run every placed batch's stage 2 (and a slot
    /// is free). Choosing the next batch then, among those ready by
    /// then, costs the array no idle time — its stage 1 may still have
    /// started earlier — and lets a batch that turns ready while the
    /// array is busy compete for the slot instead of queueing behind a
    /// batch committed the moment the slot freed.
    fn dispatch(&mut self, lanes: &mut [Lane], i: usize, head: &mut usize) -> Ps {
        let lane = &mut lanes[i];
        let b = lane.batches[*head];
        lane.busy += b.stages.total();
        let launch = self.clock.slot_free().max(b.ready);
        let drained = self.clock.push(launch, b.stages);
        if let (Some(d), Some((l, k))) = (drained, self.pending) {
            lanes[l].complete(k, d.drain);
        }
        self.pending = Some((i, *head));
        *head += 1;
        self.clock.slot_free().max(self.clock.dpu_free())
    }

    /// Places the last pending stage 3 and completes its batch.
    fn finish(&mut self, lanes: &mut [Lane]) {
        if let (Some(d), Some((l, k))) = (self.clock.finish(), self.pending.take()) {
            lanes[l].complete(k, d.drain);
        }
    }
}

/// Per-tenant serving state: spec, workload, engine, the tenant's own
/// [`Scheduler`] (admission queue, tally, assembly scratch) and the
/// formed-batch log the arbiter consumes (preallocated per run; the
/// event loops do not allocate).
#[derive(Debug)]
struct Lane {
    spec: TenantSpec,
    workload: Workload,
    engine: UpdlrmEngine,
    sched: Scheduler,
    dpu_offset: usize,
    batches: Vec<FormedBatch>,
    members: Vec<u32>,
    last_completion: Ps,
    busy: Ps,
}

impl Lane {
    /// Phase 1: the single-tenant scheduler's own loop over this
    /// tenant's trace and engine — paced by the tenant's virtual
    /// dedicated-fleet clock — with a sink that logs each formed
    /// batch's launch instant, service time and members for the
    /// arbiter.
    fn form_and_serve<F>(&mut self, tenant: usize, sink: &mut F) -> Result<()>
    where
        F: FnMut(usize, usize, &[u32], &[Matrix], &EmbeddingBreakdown),
    {
        let n = self.workload.arrivals.times_ns.len();
        self.batches.clear();
        self.batches.reserve(n);
        self.members.clear();
        self.members.reserve(n);
        self.last_completion = Ps::ZERO;
        self.busy = Ps::ZERO;
        let Lane {
            spec,
            sched,
            engine,
            workload,
            batches,
            members,
            ..
        } = self;
        sched
            .form(engine, workload, |launch, pooled, bd| {
                let start = members.len() as u32;
                members.extend_from_slice(launch.ids);
                batches.push(FormedBatch {
                    ready: launch.at,
                    stages: bd.stages(),
                    members: (start, members.len() as u32),
                });
                sink(tenant, launch.seq, launch.ids, pooled, bd);
            })
            .map_err(|e| match e {
                CoreError::InvalidConfig(m) => {
                    CoreError::InvalidConfig(format!("tenant '{}': {m}", spec.name))
                }
                other => other,
            })?;
        // Phase 1 timed every request against the dedicated clock; the
        // latencies that count come from the shared timeline.
        sched.tally_mut().latencies.clear();
        Ok(())
    }

    /// Books batch `k`'s requests as completed at `drain` on the
    /// shared timeline. Latency = shared completion − original arrival.
    fn complete(&mut self, k: usize, drain: Ps) {
        let (lo, hi) = self.batches[k].members;
        let ids = &self.members[lo as usize..hi as usize];
        let times = &self.workload.arrivals.times_ns;
        self.sched.tally_mut().complete(ids, times, drain);
        self.last_completion = drain;
    }
}

/// Per-tenant block of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Arbitration weight.
    pub weight: f64,
    /// p99 SLO in ns (`0` = no SLO).
    pub slo_p99_ns: f64,
    /// Completed requests whose shared-timeline latency exceeded the
    /// SLO (always 0 without an SLO).
    pub slo_violations: u64,
    /// `weight / sum(weights)`.
    pub fleet_share_configured: f64,
    /// This tenant's fraction of total fleet busy time.
    pub fleet_share_achieved: f64,
    /// DPU origin rotation applied to this tenant's partitions.
    pub dpu_offset: usize,
    /// Admission/batching counters and shared-timeline latency stats
    /// (same schema as the single-tenant scheduler report).
    pub sched: SchedReport,
}

/// Aggregate result of one [`TenantFleet::run`]. Fixed seeds and specs
/// produce byte-identical serializations.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// DPUs in the shared fleet.
    pub fleet_dpus: usize,
    /// Arbitration discipline (`"drr"` or `"fcfs"`).
    pub arbitration: String,
    /// Base DRR quantum, ns.
    pub quantum_ns: u64,
    /// Modeled instant the last batch drained, ns.
    pub makespan_ns: f64,
    /// Total fleet busy time across tenants — every batch's summed
    /// stage times — ns.
    pub total_busy_ns: f64,
    /// `total_busy / makespan` — shared-fleet duty cycle; above 1 when
    /// one batch's bus stages overlap another's kernel.
    pub fleet_utilization: f64,
    /// Max/mean of per-DPU aggregate kernel cycles across all tenants
    /// with their interleave rotations applied (`0` without telemetry).
    pub fleet_imbalance: f64,
    /// Per-tenant blocks, in spec order.
    pub tenants: Vec<TenantReport>,
}

/// True when every derived f64 statistic in `report` is finite (the
/// `--json` serialization contract).
pub fn fleet_report_is_finite(report: &FleetReport) -> bool {
    [
        report.makespan_ns,
        report.total_busy_ns,
        report.fleet_utilization,
        report.fleet_imbalance,
    ]
    .iter()
    .all(|v| v.is_finite())
        && report.tenants.iter().all(|t| {
            scheduler::report_is_finite(&t.sched)
                && t.fleet_share_configured.is_finite()
                && t.fleet_share_achieved.is_finite()
                && t.slo_p99_ns.is_finite()
        })
}

/// N tenants sharing one modeled DPU fleet. See the module docs for
/// the two-phase serving design.
#[derive(Debug)]
pub struct TenantFleet {
    cfg: FleetConfig,
    lanes: Vec<Lane>,
    metrics: MetricsRegistry,
}

impl TenantFleet {
    /// Builds a fleet of [`UpdlrmEngine`]s, one per spec: each
    /// tenant's catalog is generated from its dataset/seed (integer-
    /// valued rows, so pooled sums are order-exact), its tables
    /// partitioned across all `fleet_dpus` under its own strategy and
    /// dtype.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on an invalid spec or fleet
    /// config; engine construction errors propagate.
    pub fn from_specs(specs: &[TenantSpec], cfg: FleetConfig) -> Result<Self> {
        let mut parts = Vec::with_capacity(specs.len());
        for spec in specs {
            let dspec = spec.dataset_spec().map_err(CoreError::InvalidConfig)?;
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
                    .map_err(|e| CoreError::InvalidConfig(format!("tenant '{}': {e}", spec.name)))
                })
                .collect::<Result<_>>()?;
            // The tenants time-share the same DPUs, and a DPU's WRAM
            // outlives a launch: each tenant's resident rows get an
            // equal share of the budget so all of them fit at once.
            let config = UpdlrmConfig {
                batch_size: spec.max_batch,
                telemetry: cfg.telemetry,
                embed_dtype: spec.dtype,
                wram_tenants: specs.len(),
                ..UpdlrmConfig::with_dpus(cfg.fleet_dpus, spec.strategy)
            };
            let engine = UpdlrmEngine::from_workload(config, &tables, &workload)?;
            parts.push((spec.clone(), workload, engine));
        }
        Self::with_engines(cfg, parts)
    }

    /// Builds a fleet from pre-constructed engines (one per tenant) —
    /// the escape hatch for tiered or otherwise custom back-ends. Each
    /// workload must carry an open-loop arrival trace. The engines
    /// share the fleet's DPUs, so what they keep WRAM-resident must fit
    /// a DPU together (build each with
    /// [`UpdlrmConfig::wram_tenants`] set to the tenant count, as
    /// [`TenantFleet::from_specs`] does).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on empty tenant lists, invalid
    /// specs, an invalid fleet config, or engines whose WRAM demands
    /// add up to more than a DPU has.
    pub fn with_engines(
        cfg: FleetConfig,
        parts: Vec<(TenantSpec, Workload, UpdlrmEngine)>,
    ) -> Result<Self> {
        cfg.validate().map_err(CoreError::InvalidConfig)?;
        if parts.is_empty() {
            return Err(CoreError::InvalidConfig(
                "a tenant fleet needs at least one tenant".into(),
            ));
        }
        for (spec, _, _) in &parts {
            spec.validate().map_err(CoreError::InvalidConfig)?;
        }
        // One tenant runs at a time, so the tasklet locals and the
        // accumulator block are whoever's turn it is — the largest —
        // but every tenant's resident rows stay put between its turns.
        let reports: Vec<_> = parts.iter().map(|(_, _, e)| e.residency()).collect();
        let resident: usize = reports.iter().map(|r| r.max_bytes).sum();
        let transient = reports.iter().map(|r| r.max_wram_bytes - r.max_bytes).max();
        let needed = resident + transient.unwrap_or(0);
        let wram = updlrm_core::ResidencyReport::WRAM_BYTES;
        if resident > 0 && needed > wram {
            return Err(CoreError::InvalidConfig(format!(
                "the tenants' engines keep {resident} B of rows WRAM-resident on one DPU and need \
                 {needed} B of its {wram} B WRAM in all; build each with wram_tenants = {}",
                parts.len()
            )));
        }
        let offsets = if cfg.interleave {
            interleaved_offsets(parts.len(), cfg.fleet_dpus)
        } else {
            vec![0; parts.len()]
        };
        let metrics = MetricsRegistry::new(cfg.telemetry, cfg.fleet_dpus);
        let lanes = parts
            .into_iter()
            .zip(offsets)
            .map(|((spec, workload, engine), dpu_offset)| {
                Ok(Lane {
                    sched: Scheduler::new(spec.sched_config())?,
                    spec,
                    workload,
                    engine,
                    dpu_offset,
                    batches: Vec::new(),
                    members: Vec::new(),
                    last_completion: Ps::ZERO,
                    busy: Ps::ZERO,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(TenantFleet {
            cfg,
            lanes,
            metrics,
        })
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The fleet-level telemetry snapshot of the last [`run`](Self::run)
    /// (schema v6: per-tenant breakouts live in `tenants`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Borrow a tenant's engine (for per-tenant telemetry).
    pub fn engine_mut(&mut self, tenant: usize) -> &mut UpdlrmEngine {
        &mut self.lanes[tenant].engine
    }

    /// Serves every tenant's trace over the shared fleet.
    /// `sink(tenant, batch_seq, query_ids, pooled, breakdown)` fires
    /// once per formed batch, per tenant, in each tenant's launch
    /// order (tenants are served phase-1 in spec order).
    ///
    /// # Errors
    ///
    /// Spec/engine validation and engine serving errors propagate.
    pub fn run<F>(&mut self, mut sink: F) -> Result<FleetReport>
    where
        F: FnMut(usize, usize, &[u32], &[Matrix], &EmbeddingBreakdown),
    {
        self.metrics.reset();
        for (tenant, lane) in self.lanes.iter_mut().enumerate() {
            lane.form_and_serve(tenant, &mut sink)?;
        }
        self.arbitrate();
        Ok(self.build_report())
    }

    /// Phase 2: dispatch every formed batch onto the shared fleet
    /// pipeline. Integer ps throughout; `now` is the arbiter's decision
    /// instant ([`Timeline::dispatch`]).
    fn arbitrate(&mut self) {
        let nt = self.lanes.len();
        let total: usize = self.lanes.iter().map(|l| l.batches.len()).sum();
        let quantum: Vec<Ps> = self
            .lanes
            .iter()
            .map(|l| Ps::from_ns(self.cfg.quantum_ns as f64 * l.spec.weight).max(Ps(1)))
            .collect();
        let mut head = vec![0usize; nt];
        let mut deficit = vec![Ps::ZERO; nt];
        let mut timeline = Timeline::default();
        let mut now = Ps::ZERO;
        let mut rr = 0usize;
        let mut done = 0usize;
        while done < total {
            match self.cfg.arbitration {
                Arbitration::Fcfs => {
                    // Earliest-ready batch next; ties go to the lowest
                    // tenant index (strict < keeps the first winner).
                    let mut best: Option<(Ps, usize)> = None;
                    for (i, lane) in self.lanes.iter().enumerate() {
                        if let Some(b) = lane.batches.get(head[i]) {
                            if best.is_none_or(|(r, _)| b.ready < r) {
                                best = Some((b.ready, i));
                            }
                        }
                    }
                    let (_, i) = best.expect("done < total implies a pending batch");
                    now = now.max(timeline.dispatch(&mut self.lanes, i, &mut head[i]));
                    done += 1;
                }
                Arbitration::Drr => {
                    let mut any_ready = false;
                    let mut min_ready = Ps::MAX;
                    for (i, lane) in self.lanes.iter().enumerate() {
                        if let Some(b) = lane.batches.get(head[i]) {
                            min_ready = min_ready.min(b.ready);
                            any_ready |= b.ready <= now;
                        }
                    }
                    if !any_ready {
                        // Idle fleet: jump to the next ready instant.
                        now = now.max(min_ready);
                        continue;
                    }
                    for k in 0..nt {
                        let i = (rr + k) % nt;
                        match self.lanes[i].batches.get(head[i]) {
                            Some(b) if b.ready <= now => {}
                            _ => continue,
                        }
                        deficit[i] += quantum[i];
                        while let Some(&b) = self.lanes[i].batches.get(head[i]) {
                            let service = b.stages.total();
                            if b.ready > now || deficit[i] < service {
                                break;
                            }
                            deficit[i] = deficit[i] - service;
                            now = now.max(timeline.dispatch(&mut self.lanes, i, &mut head[i]));
                            done += 1;
                        }
                        // No banking while idle: forfeit leftover credit
                        // unless a ready batch is still waiting on it.
                        let still_ready = self.lanes[i]
                            .batches
                            .get(head[i])
                            .is_some_and(|b| b.ready <= now);
                        if !still_ready {
                            deficit[i] = Ps::ZERO;
                        }
                        rr = (i + 1) % nt;
                        break;
                    }
                }
            }
        }
        timeline.finish(&mut self.lanes);
    }

    /// Folds the lanes into a [`FleetReport`] and records each lane's
    /// finished scheduler counters and its per-tenant telemetry
    /// breakout (since schema v5).
    fn build_report(&mut self) -> FleetReport {
        let total_w: f64 = self.lanes.iter().map(|l| l.spec.weight).sum();
        let total_busy: Ps = self.lanes.iter().map(|l| l.busy).sum();
        let makespan = self
            .lanes
            .iter()
            .map(|l| l.last_completion)
            .max()
            .unwrap_or_default();
        let mut tenants = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            let slo = Ps::from_ns(lane.spec.slo_p99_us * 1_000.0);
            // The lane's report, finished on the shared timeline.
            let tally = lane.sched.tally_mut();
            debug_assert_eq!(tally.latencies.len(), lane.members.len());
            let r = tally.finish(lane.last_completion);
            self.metrics.record_sched(&tally.snapshot());
            let violations = if slo > Ps::ZERO {
                tally.latencies.iter().filter(|&&l| l > slo).count() as u64
            } else {
                0
            };
            let share_conf = lane.spec.weight / total_w;
            let share_ach = if total_busy > Ps::ZERO {
                lane.busy.0 as f64 / total_busy.0 as f64
            } else {
                0.0
            };
            // Fold the lane engine's stage/traffic/per-DPU counters into
            // the fleet registry, rotated to fleet DPU ids, so `--metrics`
            // writes one fleet-wide snapshot next to the per-tenant
            // breakout below.
            self.metrics
                .absorb(lane.engine.metrics_mut(), lane.dpu_offset);
            self.metrics.record_tenant(TenantSnapshot {
                name: lane.spec.name.clone(),
                weight: lane.spec.weight,
                admitted: r.admitted,
                shed: r.shed,
                rejected: r.rejected,
                blocked: r.blocked,
                completed: r.completed,
                batches: r.batches,
                slo_p99_ns: slo.as_ns(),
                slo_violations: violations,
                mean_latency_ns: r.mean_latency_ns,
                p50_latency_ns: r.p50_latency_ns,
                p95_latency_ns: r.p95_latency_ns,
                p99_latency_ns: r.p99_latency_ns,
                fleet_share_configured: share_conf,
                fleet_share_achieved: share_ach,
            });
            tenants.push(TenantReport {
                name: lane.spec.name.clone(),
                weight: lane.spec.weight,
                slo_p99_ns: slo.as_ns(),
                slo_violations: violations,
                fleet_share_configured: share_conf,
                fleet_share_achieved: share_ach,
                dpu_offset: lane.dpu_offset,
                sched: r,
            });
        }
        // The lanes' per-DPU cycles folded in above (none without telemetry).
        let per_dpu = self.metrics.snapshot().per_dpu;
        let cycles = per_dpu.iter().map(|d| d.cycles as f64);
        let mean = cycles.clone().sum::<f64>() / per_dpu.len() as f64;
        let imbalance = if mean > 0.0 {
            cycles.fold(0.0, f64::max) / mean
        } else {
            0.0
        };
        FleetReport {
            fleet_dpus: self.cfg.fleet_dpus,
            arbitration: self.cfg.arbitration.as_str().to_string(),
            quantum_ns: self.cfg.quantum_ns,
            makespan_ns: makespan.as_ns(),
            total_busy_ns: total_busy.as_ns(),
            fleet_utilization: if makespan > Ps::ZERO {
                total_busy.0 as f64 / makespan.0 as f64
            } else {
                0.0
            },
            fleet_imbalance: imbalance,
            tenants,
        }
    }
}

/// One fleet size evaluated by [`capacity_sweep`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CapacityPoint {
    /// Fleet size evaluated.
    pub fleet_dpus: usize,
    /// The engines could be built at all at this size (tiny fleets can
    /// have no feasible tile shape for a tenant's tables; such points
    /// report `false` here with empty `tenants` instead of aborting
    /// the sweep).
    pub feasible: bool,
    /// All tenants met their SLOs (and dropped nothing) at this size.
    pub all_slos_met: bool,
    /// Per-tenant verdicts (empty when infeasible).
    pub tenants: Vec<TenantCapacity>,
}

/// Per-tenant verdict at one swept fleet size.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantCapacity {
    /// Tenant name.
    pub name: String,
    /// Shared-timeline p99 at this fleet size, ns.
    pub p99_latency_ns: f64,
    /// The tenant's SLO, ns (`0` = none).
    pub slo_p99_ns: f64,
    /// Requests completed / offered.
    pub completed: u64,
    /// Offered requests.
    pub requests: u64,
    /// Requests shed or rejected under overload.
    pub dropped: u64,
    /// SLO met: p99 within bound and nothing dropped. Vacuously true
    /// without an SLO — a no-SLO tenant is allowed to shed under its
    /// own overload policy without failing the point.
    pub met: bool,
}

/// Answers "how many DPUs do these tenants need at these SLOs?" by
/// running the full two-phase fleet at each candidate size — engines
/// are rebuilt per size, so the existing tiling/partitioning cost
/// model prices every point. Candidates are evaluated in the order
/// given; the report for each carries per-tenant p99s and verdicts.
///
/// # Errors
///
/// Serving errors propagate; a *construction* failure at one size
/// (e.g. no feasible tiling on a tiny fleet) only marks that point
/// infeasible.
pub fn capacity_sweep(
    specs: &[TenantSpec],
    base: &FleetConfig,
    candidates: &[usize],
) -> Result<Vec<CapacityPoint>> {
    let mut points = Vec::with_capacity(candidates.len());
    for &fleet_dpus in candidates {
        let cfg = FleetConfig {
            fleet_dpus,
            ..base.clone()
        };
        let mut fleet = match TenantFleet::from_specs(specs, cfg) {
            Ok(fleet) => fleet,
            Err(e @ (CoreError::InvalidConfig(_) | CoreError::FleetNotDivisible { .. })) => {
                return Err(e)
            }
            Err(_) => {
                points.push(CapacityPoint {
                    fleet_dpus,
                    feasible: false,
                    all_slos_met: false,
                    tenants: Vec::new(),
                });
                continue;
            }
        };
        let report = fleet.run(|_, _, _, _, _| {})?;
        let tenants: Vec<TenantCapacity> = report
            .tenants
            .iter()
            .map(|t| {
                let dropped = t.sched.shed + t.sched.rejected;
                let met =
                    t.slo_p99_ns == 0.0 || (dropped == 0 && t.sched.p99_latency_ns <= t.slo_p99_ns);
                TenantCapacity {
                    name: t.name.clone(),
                    p99_latency_ns: t.sched.p99_latency_ns,
                    slo_p99_ns: t.slo_p99_ns,
                    completed: t.sched.completed,
                    requests: t.sched.requests,
                    dropped,
                    met,
                }
            })
            .collect();
        points.push(CapacityPoint {
            fleet_dpus,
            feasible: true,
            all_slos_met: tenants.iter().all(|t| t.met),
            tenants,
        });
    }
    Ok(points)
}
