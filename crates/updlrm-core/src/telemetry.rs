//! Fleet-wide telemetry: per-stage spans, per-DPU utilization counters
//! and cache-traffic statistics for the three-stage serving pipeline.
//!
//! The paper's argument is about *where* cycles and bytes go — EMT
//! lookup traffic vs partial-sum-cache traffic, per-DPU load balance
//! under the three partitioning strategies — so the engine can record,
//! per batch and per launch, everything needed to attribute a latency
//! change to a stage, a DPU, or a traffic stream.
//!
//! Two types split the job:
//!
//! * [`MetricsRegistry`] — the live recorder owned by the engine. All
//!   counter arenas (one [`upmem_sim::DpuCounters`] cell per DPU, the
//!   per-stage [`Accum`]s, the [`cooccur_cache::CacheTraffic`] cell)
//!   are preallocated at engine construction, so steady-state recording
//!   performs **zero heap allocation** — the same invariant the serving
//!   path itself upholds (DESIGN.md §4.5, proven together with it by
//!   `tests/alloc_tests.rs`). Telemetry is off by default; when
//!   disabled every record call is a single branch.
//! * [`Snapshot`] — a serde-serializable, order-stable copy of the
//!   registry taken *outside* the hot path. Every value in a snapshot
//!   outside the `runtime` block is a count or a *modeled* time (never
//!   a measured wall clock), so two runs with the same seed and flags
//!   produce byte-identical snapshots — which is what lets CI diff them
//!   against a committed golden (`tests/golden/metrics_snapshot.json`).
//!
//! Each block is counted in one place. The engine records the stage
//! spans, traffic, per-DPU cells and `drift` counters as it serves. The
//! serving front-ends record the rest once a run has drained:
//! `Scheduler::run`, `Runtime::run` and the tenant fleet add their
//! finished tally's `sched` counts ([`MetricsRegistry::record_sched`]),
//! `Runtime::run` writes `runtime`, and the fleet appends `tenants`.

use cooccur_cache::CacheTraffic;
use upmem_sim::{DpuCounters, Ps, PS_PER_NS};

use crate::engine::EmbeddingBreakdown;

/// Version stamp of the [`Snapshot`] schema; bump on any field change
/// so the CI golden diff fails loudly instead of silently reshaping.
///
/// v2 added the [`SchedSnapshot`] block (open-loop scheduler counters).
/// v3 added the [`RuntimeSnapshot`] block (measured-vs-modeled walls
/// from the wall-clock serving runtime; all zero on modeled-only runs).
/// v4 added the [`DriftSnapshot`] block (online replanning and EMT
/// shard-migration counters; all zero with `--replan off`).
/// v5 added the [`TenantSnapshot`] breakout (per-tenant admission,
/// latency, SLO and fleet-share statistics from the multi-tenant
/// fleet; an empty list outside `updlrm serve --tenants`).
/// v6 added [`DpuSnapshot::wram_rows`] (row reads served from
/// WRAM-resident rows; beside it `dma_transfers`/`mram_bytes` count
/// only what still went to MRAM, the one-off fills included).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 6;

/// Why the open-loop batcher closed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedTrigger {
    /// The queue reached `max_batch_size`.
    Size,
    /// The oldest queued request hit its `max_wait_ns` deadline.
    Deadline,
    /// The arrival stream ended and the queue was flushed.
    Drain,
}

/// Running distribution summary of one recurring quantity (a stage's
/// nanoseconds, a launch's imbalance index): count, sum and extrema.
/// Fixed-size so recording never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Accum {
    /// Observations folded in.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`0.0` before the first).
    pub min: f64,
    /// Largest observation (`0.0` before the first).
    pub max: f64,
}

impl Accum {
    /// Folds one observation into the summary.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean observation (`0.0` before the first).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds another summary into this one (count/sum add, extrema
    /// widen). Lossless for everything a snapshot reports.
    pub fn merge(&mut self, other: &Accum) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One DPU's accumulated utilization in a [`Snapshot`], in DPU-id order.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DpuSnapshot {
    /// DPU id (index into the fleet).
    pub dpu: u32,
    /// Kernel launches this DPU participated in.
    pub launches: u64,
    /// Total modeled cycles across those launches.
    pub cycles: u64,
    /// Total pipeline instructions issued.
    pub instrs: u64,
    /// Total MRAM DMA transfers issued.
    pub dma_transfers: u64,
    /// Total bytes moved over the MRAM DMA engine.
    pub mram_bytes: u64,
    /// Total row reads served from WRAM-resident rows (no MRAM DMA).
    pub wram_rows: u64,
    /// Mean tasklet occupancy over all launches (busy / provisioned).
    pub tasklet_occupancy: f64,
}

/// Cache hit/miss and traffic counters in a [`Snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSnapshot {
    /// Samples probed against the partial-sum cache.
    pub lookups: u64,
    /// Raw embedding-row references across those samples.
    pub refs: u64,
    /// Cached combination rows fetched (partial-sum traffic).
    pub hit_entries: u64,
    /// References covered by those cached combinations.
    pub covered_refs: u64,
    /// References falling through to EMT row fetches.
    pub residual_refs: u64,
    /// Fraction of references served from cached combinations.
    pub hit_rate: f64,
    /// Row fetches avoided versus looking up every reference.
    pub fetches_saved: u64,
}

/// Open-loop scheduler counters in a [`Snapshot`]: admission, overload
/// and batch-formation statistics, recorded once per serving run from
/// the front-end's finished tally ([`MetricsRegistry::record_sched`]).
/// Fixed-size, so recording never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SchedSnapshot {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests evicted by the shed-oldest overload policy.
    pub shed_oldest: u64,
    /// Requests dropped at the door by the reject-new policy.
    pub rejected_new: u64,
    /// Requests that found the queue full under the block policy and
    /// had to wait at the door.
    pub blocked: u64,
    /// Batches formed.
    pub batches: u64,
    /// Batches closed because the queue reached `max_batch_size`.
    pub trigger_size: u64,
    /// Batches closed by the oldest request's wait deadline.
    pub trigger_deadline: u64,
    /// Batches closed by the end-of-trace flush.
    pub trigger_drain: u64,
    /// Deepest the admission queue ever got.
    pub queue_depth_high_water: u64,
    /// Formed batch sizes (count, sum, extrema).
    pub batch_fill: Accum,
}

impl SchedSnapshot {
    /// Adds another run's counters: counts add, the queue high-water
    /// mark is the deeper of the two, batch fills merge.
    pub fn merge(&mut self, other: &SchedSnapshot) {
        self.admitted += other.admitted;
        self.shed_oldest += other.shed_oldest;
        self.rejected_new += other.rejected_new;
        self.blocked += other.blocked;
        self.batches += other.batches;
        self.trigger_size += other.trigger_size;
        self.trigger_deadline += other.trigger_deadline;
        self.trigger_drain += other.trigger_drain;
        self.queue_depth_high_water = self
            .queue_depth_high_water
            .max(other.queue_depth_high_water);
        self.batch_fill.merge(&other.batch_fill);
    }
}

/// Wall-clock serving-runtime measurements in a [`Snapshot`] — the one
/// block whose values are *measured* wall time alongside the modeled
/// quantity they correspond to. Modeled-only runs never populate it,
/// so it stays all-zero there and golden snapshots remain
/// byte-deterministic; wall-clock runs (`updlrm serve --runtime wall`)
/// carry machine-dependent values by design.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeSnapshot {
    /// Engine shards (worker threads) the runtime drove.
    pub shards: u64,
    /// Whether the run was locked to the modeled-time oracle.
    pub deterministic: bool,
    /// Wall nanoseconds per modeled nanosecond during trace replay.
    pub time_scale: f64,
    /// Measured wall time from runtime start to last completion (ns).
    pub wall_elapsed_ns: f64,
    /// Completed requests per second of measured wall time.
    pub measured_qps: f64,
    /// Sum of modeled pipeline walls across all batches (ns).
    pub modeled_service_ns: f64,
    /// Sum of measured `serve_stream` walls across the same batches
    /// (ns) — the measured-vs-modeled stage-wall comparison.
    pub measured_service_ns: f64,
    /// Measured median per-request latency (ns; wall clock).
    pub measured_p50_latency_ns: f64,
    /// Measured 95th-percentile per-request latency (ns).
    pub measured_p95_latency_ns: f64,
    /// Measured 99th-percentile per-request latency (ns).
    pub measured_p99_latency_ns: f64,
}

/// Online-replanning and EMT shard-migration counters in a
/// [`Snapshot`]. Every time is *modeled* nanoseconds — the migration
/// cost comes from the same DMA/bus charge arithmetic as serving — so
/// the block stays byte-deterministic and golden-diffable.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DriftSnapshot {
    /// Replans the policy triggered and the engine accepted (a
    /// background migration was started for each).
    pub replans_triggered: u64,
    /// Replans the policy triggered but the engine declined: the fresh
    /// plan did not fit the reserved capacity or changed nothing.
    pub replans_skipped: u64,
    /// Migrations whose atomic flip completed.
    pub migrations_completed: u64,
    /// EMT rows rewritten into the staging region across all
    /// migrations (counted per column-replica copy).
    pub rows_moved: u64,
    /// Bytes moved for those rows (read-out plus write-in).
    pub migrated_bytes: u64,
    /// Total modeled migration cost (ns) charged across all
    /// migrations.
    pub migration_ns: f64,
    /// Modeled time of the most recent flip (ns; 0 before the first).
    pub last_flip_ns: u64,
}

/// One tenant's breakout in a [`Snapshot`]: admission, latency, SLO
/// and fleet-share statistics recorded by the multi-tenant fleet
/// (`tenancy` crate) at end of run. Every value is a count or a
/// modeled time, so the block is byte-deterministic like the rest of
/// the snapshot.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantSnapshot {
    /// Tenant name (unique within the fleet).
    pub name: String,
    /// Configured arbitration weight (SLO share).
    pub weight: f64,
    /// Requests admitted into the tenant's queue.
    pub admitted: u64,
    /// Requests evicted by the tenant's shed-oldest policy.
    pub shed: u64,
    /// Requests dropped at the door by reject-new.
    pub rejected: u64,
    /// Requests held at the door by the block policy.
    pub blocked: u64,
    /// Requests that completed through the shared fleet.
    pub completed: u64,
    /// Batches the tenant's queue formed.
    pub batches: u64,
    /// The tenant's p99 latency target, ns (0 = no SLO).
    pub slo_p99_ns: f64,
    /// Completed requests whose latency exceeded the SLO target.
    pub slo_violations: u64,
    /// Mean completed-request latency, ns.
    pub mean_latency_ns: f64,
    /// Median completed-request latency, ns.
    pub p50_latency_ns: f64,
    /// 95th-percentile completed-request latency, ns.
    pub p95_latency_ns: f64,
    /// 99th-percentile completed-request latency, ns.
    pub p99_latency_ns: f64,
    /// Share of total fleet busy time the arbiter was configured to
    /// grant this tenant (`weight / sum of weights`).
    pub fleet_share_configured: f64,
    /// Share of total fleet busy time the tenant actually consumed.
    pub fleet_share_achieved: f64,
}

/// A deterministic, serializable copy of everything a
/// [`MetricsRegistry`] has recorded.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Whether telemetry was enabled (a disabled registry snapshots as
    /// all zeros).
    pub enabled: bool,
    /// `serve`/`serve_stream` calls recorded.
    pub serves: u64,
    /// Batches recorded (serve batches plus direct `run_batch` calls).
    pub batches: u64,
    /// Samples across those batches.
    pub samples: u64,
    /// Host-side routing span per batch (ns).
    pub route_ns: Accum,
    /// Stage-1 CPU→MRAM scatter span per batch (ns).
    pub stage1_ns: Accum,
    /// Stage-2 kernel span per batch (ns).
    pub stage2_ns: Accum,
    /// Stage-3 MRAM→CPU gather span per batch (ns).
    pub stage3_ns: Accum,
    /// Host-side combine span per batch (ns).
    pub combine_ns: Accum,
    /// Modeled energy across all recorded batches (pJ).
    pub energy_pj: f64,
    /// Executed wall across all recorded serves (ns).
    pub serve_wall_ns: f64,
    /// Back-to-back wall of the same batches (ns): what the serves
    /// would have cost without inter-batch overlap.
    pub sequential_wall_ns: f64,
    /// Wall saved by pipeline overlap across all serves
    /// (`sequential_wall_ns - serve_wall_ns`).
    pub overlap_saved_ns: f64,
    /// Bytes scattered CPU→MRAM in stage 1.
    pub stage1_bytes: u64,
    /// Bytes gathered MRAM→CPU in stage 3.
    pub stage3_bytes: u64,
    /// Stage-2 fleet launches recorded (one per batch).
    pub launches: u64,
    /// Per-launch load-imbalance index (slowest DPU cycles over mean;
    /// `1.0` = perfectly balanced).
    pub load_imbalance: Accum,
    /// Partial-sum cache hit/miss and traffic counters.
    pub cache: CacheSnapshot,
    /// Open-loop scheduler counters (all zero outside `updlrm serve`).
    pub sched: SchedSnapshot,
    /// Wall-clock runtime measurements (all zero outside
    /// `updlrm serve --runtime wall`).
    pub runtime: RuntimeSnapshot,
    /// Online-replanning counters (all zero with `--replan off`).
    pub drift: DriftSnapshot,
    /// Per-tenant breakout, in fleet tenant order (empty outside
    /// multi-tenant serving).
    pub tenants: Vec<TenantSnapshot>,
    /// Per-DPU utilization, ascending by DPU id. Empty when telemetry
    /// was disabled.
    pub per_dpu: Vec<DpuSnapshot>,
}

impl Snapshot {
    /// Sum of the three pipeline stages' mean spans (ns) — the paper's
    /// per-batch embedding-layer time.
    pub fn mean_stage_total_ns(&self) -> f64 {
        self.stage1_ns.mean() + self.stage2_ns.mean() + self.stage3_ns.mean()
    }
}

/// The engine's live telemetry recorder. See the module docs for the
/// allocation and determinism contracts.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Every total, held in the shape a snapshot reports it. Its
    /// `cache`, `launches`, `load_imbalance` and `per_dpu` stay empty:
    /// the two cells below record those, and
    /// [`MetricsRegistry::snapshot`] converts them.
    totals: Snapshot,
    cache: CacheTraffic,
    /// What stage 2 records.
    pub(crate) launch: LaunchCells,
}

/// The registry's stage-2 cells: the launch count, the per-launch
/// imbalance summary and one preallocated cell per DPU, indexed by DPU
/// id. Stage 2 records into nothing else, so a launch on the engine's
/// DPU worker takes these cells with it by value and brings them back
/// with its result (`crate::serve`); every other cell stays on the
/// serving thread.
#[derive(Debug, Default)]
pub(crate) struct LaunchCells {
    enabled: bool,
    launches: u64,
    load_imbalance: Accum,
    per_dpu: Vec<DpuCounters>,
}

impl LaunchCells {
    /// Records one stage-2 fleet launch's load-imbalance index.
    #[inline]
    pub(crate) fn record_launch(&mut self, imbalance: f64) {
        if self.enabled {
            self.launches += 1;
            self.load_imbalance.record(imbalance);
        }
    }

    /// Folds one DPU's launch statistics into its preallocated cell
    /// (a disabled registry has none).
    #[inline]
    pub(crate) fn record_dpu(&mut self, dpu: usize, stats: &upmem_sim::DpuRunStats) {
        if let Some(cell) = self.per_dpu.get_mut(dpu) {
            cell.record(stats);
        }
    }
}

impl MetricsRegistry {
    /// Creates a registry for a fleet of `nr_dpus` DPUs. When
    /// `enabled` is false no arena is allocated and every record call
    /// is a single branch.
    pub fn new(enabled: bool, nr_dpus: usize) -> Self {
        MetricsRegistry {
            totals: Snapshot {
                enabled,
                ..Snapshot::default()
            },
            cache: CacheTraffic::default(),
            launch: LaunchCells {
                enabled,
                per_dpu: if enabled {
                    vec![DpuCounters::default(); nr_dpus]
                } else {
                    Vec::new()
                },
                ..LaunchCells::default()
            },
        }
    }

    /// Whether this registry records anything.
    pub fn enabled(&self) -> bool {
        self.totals.enabled
    }

    /// The totals to record into, `None` when disabled.
    #[inline]
    fn on(&mut self) -> Option<&mut Snapshot> {
        self.totals.enabled.then_some(&mut self.totals)
    }

    /// Resets every counter to zero (the arenas stay allocated).
    pub fn reset(&mut self) {
        self.totals = Snapshot {
            enabled: self.totals.enabled,
            ..Snapshot::default()
        };
        self.cache = CacheTraffic::default();
        let cells = &mut self.launch;
        cells.launches = 0;
        cells.load_imbalance = Accum::default();
        cells.per_dpu.fill(DpuCounters::default());
    }

    /// Records one completed batch's stage breakdown.
    #[inline]
    pub(crate) fn record_batch(&mut self, batch_size: usize, bd: &EmbeddingBreakdown) {
        let Some(t) = self.on() else { return };
        t.batches += 1;
        t.samples += batch_size as u64;
        t.route_ns.record(bd.route.as_ns());
        t.stage1_ns.record(bd.stage1.as_ns());
        t.stage2_ns.record(bd.stage2.as_ns());
        t.stage3_ns.record(bd.stage3.as_ns());
        t.combine_ns.record(bd.combine.as_ns());
        t.energy_pj += bd.energy_pj;
    }

    /// Records one host⇄MRAM transfer phase (`to_mram` distinguishes
    /// stage 1 from stage 3).
    #[inline]
    pub(crate) fn record_transfer(&mut self, to_mram: bool, report: &upmem_sim::TransferReport) {
        let Some(t) = self.on() else { return };
        if to_mram {
            t.stage1_bytes += report.bytes;
        } else {
            t.stage3_bytes += report.bytes;
        }
    }

    /// Folds one batch's partial-sum cache lookup counters in.
    #[inline]
    pub(crate) fn record_cache_traffic(&mut self, batch: &CacheTraffic) {
        if self.enabled() {
            self.cache.merge(batch);
        }
    }

    /// Records one completed serve: its executed wall and the
    /// back-to-back wall of the same batches (ns).
    #[inline]
    pub(crate) fn record_serve(&mut self, wall_ns: f64, sequential_wall_ns: f64) {
        let Some(t) = self.on() else { return };
        t.serves += 1;
        t.serve_wall_ns += wall_ns;
        t.sequential_wall_ns += sequential_wall_ns;
        t.overlap_saved_ns += sequential_wall_ns - wall_ns;
    }

    /// Adds one finished serving run's scheduler counters — the
    /// snapshot its front-end's tally reports once the run has drained
    /// — to the totals ([`SchedSnapshot::merge`]).
    pub fn record_sched(&mut self, run: &SchedSnapshot) {
        if let Some(t) = self.on() {
            t.sched.merge(run);
        }
    }

    /// Records a wall-clock runtime's measured-vs-modeled summary.
    /// Last write wins — a registry describes one run.
    #[inline]
    pub fn record_runtime(&mut self, runtime: RuntimeSnapshot) {
        if let Some(t) = self.on() {
            t.runtime = runtime;
        }
    }

    /// Appends one tenant's end-of-run breakout. Called by the
    /// multi-tenant fleet once per tenant *after* the serving loop has
    /// drained (it allocates, so it must never run in steady state);
    /// tenants appear in the snapshot in recording order.
    pub fn record_tenant(&mut self, tenant: TenantSnapshot) {
        if let Some(t) = self.on() {
            t.tenants.push(tenant);
        }
    }

    /// Records a replan the engine accepted: a migration of
    /// `rows_moved` row copies (`bytes` total traffic) was started at
    /// a modeled cost of `migration`.
    #[inline]
    pub(crate) fn record_replan_begin(&mut self, rows_moved: u64, bytes: u64, migration: Ps) {
        let Some(t) = self.on() else { return };
        t.drift.replans_triggered += 1;
        t.drift.rows_moved += rows_moved;
        t.drift.migrated_bytes += bytes;
        t.drift.migration_ns += migration.as_ns();
    }

    /// Records a replan the policy triggered but the engine declined.
    #[inline]
    pub(crate) fn record_replan_skip(&mut self) {
        if let Some(t) = self.on() {
            t.drift.replans_skipped += 1;
        }
    }

    /// Records a completed migration flip at modeled instant `now`
    /// (kept in whole ns, rounded down).
    #[inline]
    pub(crate) fn record_migration_flip(&mut self, now: Ps) {
        let Some(t) = self.on() else { return };
        t.drift.migrations_completed += 1;
        t.drift.last_flip_ns = now.0 / PS_PER_NS;
    }

    /// Folds another registry's recorded telemetry into this one,
    /// rotating its per-DPU cells by `dpu_offset` (mod this fleet's
    /// size). The multi-tenant fleet uses this to aggregate each
    /// tenant engine's counters into one fleet-wide snapshot: stage
    /// spans, traffic and drift counters fold into fleet totals, while
    /// the per-tenant breakout keeps the per-lane split. An engine holds
    /// no scheduler or runtime counters — front-ends record those
    /// blocks themselves ([`record_sched`](Self::record_sched),
    /// [`record_runtime`](Self::record_runtime)) — so neither is
    /// merged. Called once per tenant after the serving loop has
    /// drained, never in steady state.
    pub fn absorb(&mut self, other: &MetricsRegistry, dpu_offset: usize) {
        if !other.enabled() {
            return;
        }
        if !self.enabled() {
            return;
        }
        let t = &mut self.totals;
        let o = &other.totals;
        t.serves += o.serves;
        t.batches += o.batches;
        t.samples += o.samples;
        t.route_ns.merge(&o.route_ns);
        t.stage1_ns.merge(&o.stage1_ns);
        t.stage2_ns.merge(&o.stage2_ns);
        t.stage3_ns.merge(&o.stage3_ns);
        t.combine_ns.merge(&o.combine_ns);
        t.energy_pj += o.energy_pj;
        t.serve_wall_ns += o.serve_wall_ns;
        t.sequential_wall_ns += o.sequential_wall_ns;
        t.overlap_saved_ns += o.overlap_saved_ns;
        t.stage1_bytes += o.stage1_bytes;
        t.stage3_bytes += o.stage3_bytes;
        let (d, od) = (&mut t.drift, &o.drift);
        d.replans_triggered += od.replans_triggered;
        d.replans_skipped += od.replans_skipped;
        d.migrations_completed += od.migrations_completed;
        d.rows_moved += od.rows_moved;
        d.migrated_bytes += od.migrated_bytes;
        d.migration_ns += od.migration_ns;
        d.last_flip_ns = d.last_flip_ns.max(od.last_flip_ns);
        self.cache.merge(&other.cache);
        let (cells, o) = (&mut self.launch, &other.launch);
        cells.launches += o.launches;
        cells.load_imbalance.merge(&o.load_imbalance);
        let n = cells.per_dpu.len();
        if n > 0 {
            for (i, c) in o.per_dpu.iter().enumerate() {
                cells.per_dpu[(i + dpu_offset) % n].merge(c);
            }
        }
    }

    /// Copies the registry into a deterministic, serializable
    /// [`Snapshot`]. Allocates (the per-DPU vector) — call it outside
    /// the serving loop.
    pub fn snapshot(&self) -> Snapshot {
        let c = &self.cache;
        Snapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            cache: CacheSnapshot {
                lookups: c.lookups,
                refs: c.refs,
                hit_entries: c.hit_entries,
                covered_refs: c.covered_refs,
                residual_refs: c.residual_refs,
                hit_rate: c.hit_rate(),
                fetches_saved: c.fetches_saved(),
            },
            launches: self.launch.launches,
            load_imbalance: self.launch.load_imbalance,
            per_dpu: self
                .launch
                .per_dpu
                .iter()
                .enumerate()
                .map(|(i, c)| DpuSnapshot {
                    dpu: i as u32,
                    launches: c.launches,
                    cycles: c.cycles,
                    instrs: c.instrs,
                    dma_transfers: c.dma_transfers,
                    mram_bytes: c.dma_bytes,
                    wram_rows: c.wram_rows,
                    tasklet_occupancy: c.occupancy(),
                })
                .collect(),
            ..self.totals.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_tracks_extrema_and_mean() {
        let mut a = Accum::default();
        assert_eq!(a.mean(), 0.0);
        a.record(3.0);
        a.record(1.0);
        a.record(5.0);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 5.0);
        assert_eq!(a.sum, 9.0);
        assert_eq!(a.mean(), 3.0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new(false, 8);
        m.record_batch(64, &EmbeddingBreakdown::default());
        m.launch.record_launch(1.5);
        m.record_transfer(true, &upmem_sim::TransferReport::default());
        let s = m.snapshot();
        assert!(!s.enabled);
        assert_eq!(s.batches, 0);
        assert_eq!(s.launches, 0);
        assert!(s.per_dpu.is_empty());
    }

    #[test]
    fn enabled_registry_accumulates_and_resets() {
        let mut m = MetricsRegistry::new(true, 2);
        let bd = EmbeddingBreakdown {
            stage1: Ps(10_000),
            stage2: Ps(20_000),
            stage3: Ps(30_000),
            route: Ps(1_000),
            combine: Ps(2_000),
            energy_pj: 100.0,
            ..EmbeddingBreakdown::default()
        };
        m.record_batch(4, &bd);
        m.record_batch(4, &bd);
        m.launch.record_launch(1.25);
        let s = m.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.samples, 8);
        assert_eq!(s.stage1_ns.sum, 20.0);
        assert_eq!(s.stage2_ns.mean(), 20.0);
        assert_eq!(s.energy_pj, 200.0);
        assert_eq!(s.load_imbalance.max, 1.25);
        assert_eq!(s.per_dpu.len(), 2);
        assert_eq!(s.mean_stage_total_ns(), 60.0);

        m.reset();
        let s = m.snapshot();
        assert!(s.enabled);
        assert_eq!(s.batches, 0);
        assert_eq!(s.per_dpu.len(), 2, "arena survives reset");
        assert_eq!(s.per_dpu[0].launches, 0);
    }

    #[test]
    fn sched_counters_accumulate_and_reset() {
        let fill = |count, sum, min, max| Accum {
            count,
            sum,
            min,
            max,
        };
        let a = SchedSnapshot {
            admitted: 3,
            shed_oldest: 1,
            rejected_new: 2,
            batches: 2,
            trigger_size: 1,
            trigger_deadline: 1,
            queue_depth_high_water: 7,
            batch_fill: fill(2, 76.0, 12.0, 64.0),
            ..SchedSnapshot::default()
        };
        let b = SchedSnapshot {
            admitted: 5,
            blocked: 4,
            batches: 1,
            trigger_drain: 1,
            queue_depth_high_water: 5,
            batch_fill: fill(1, 3.0, 3.0, 3.0),
            ..SchedSnapshot::default()
        };
        let mut m = MetricsRegistry::new(true, 1);
        m.record_sched(&a);
        assert_eq!(m.snapshot().sched, a, "one record is the run's counts");
        // Two runs into one registry: counts add, the high-water mark
        // is the deeper one, fills merge.
        m.record_sched(&b);
        let s = m.snapshot().sched;
        assert_eq!(s.admitted, 8);
        assert_eq!(s.shed_oldest, 1);
        assert_eq!(s.rejected_new, 2);
        assert_eq!(s.blocked, 4);
        assert_eq!(s.batches, 3);
        assert_eq!(
            (s.trigger_size, s.trigger_deadline, s.trigger_drain),
            (1, 1, 1)
        );
        assert_eq!(s.queue_depth_high_water, 7);
        assert_eq!(s.batch_fill, fill(3, 79.0, 3.0, 64.0));
        m.reset();
        assert_eq!(m.snapshot().sched, SchedSnapshot::default());

        // Disabled registries ignore sched records too.
        let mut off = MetricsRegistry::new(false, 1);
        off.record_sched(&a);
        assert_eq!(off.snapshot().sched, SchedSnapshot::default());
    }

    #[test]
    fn runtime_block_records_and_resets() {
        let mut m = MetricsRegistry::new(true, 1);
        assert_eq!(m.snapshot().runtime, RuntimeSnapshot::default());
        let rt = RuntimeSnapshot {
            shards: 2,
            deterministic: false,
            time_scale: 4.0,
            wall_elapsed_ns: 1e9,
            measured_qps: 1234.5,
            modeled_service_ns: 5e8,
            measured_service_ns: 7e8,
            measured_p50_latency_ns: 1e6,
            measured_p95_latency_ns: 2e6,
            measured_p99_latency_ns: 3e6,
        };
        m.record_runtime(rt);
        assert_eq!(m.snapshot().runtime, rt);
        m.reset();
        assert_eq!(m.snapshot().runtime, RuntimeSnapshot::default());

        // Disabled registries ignore runtime records too.
        let mut off = MetricsRegistry::new(false, 1);
        off.record_runtime(rt);
        assert_eq!(off.snapshot().runtime, RuntimeSnapshot::default());
    }

    #[test]
    fn drift_counters_accumulate_and_reset() {
        let mut m = MetricsRegistry::new(true, 1);
        m.record_replan_begin(100, 25_600, Ps(5_000_000));
        m.record_replan_begin(50, 12_800, Ps(2_500_000));
        m.record_replan_skip();
        m.record_migration_flip(Ps(123_456_789));
        let s = m.snapshot();
        assert_eq!(s.drift.replans_triggered, 2);
        assert_eq!(s.drift.replans_skipped, 1);
        assert_eq!(s.drift.migrations_completed, 1);
        assert_eq!(s.drift.rows_moved, 150);
        assert_eq!(s.drift.migrated_bytes, 38_400);
        assert_eq!(s.drift.migration_ns, 7_500.0);
        assert_eq!(s.drift.last_flip_ns, 123_456);
        m.reset();
        assert_eq!(m.snapshot().drift, DriftSnapshot::default());

        // Disabled registries ignore drift records too.
        let mut off = MetricsRegistry::new(false, 1);
        off.record_replan_begin(1, 1, Ps(1_000));
        off.record_migration_flip(Ps(9_000));
        assert_eq!(off.snapshot().drift, DriftSnapshot::default());
    }

    #[test]
    fn tenant_breakouts_record_in_order_and_reset() {
        let mut m = MetricsRegistry::new(true, 1);
        assert!(m.snapshot().tenants.is_empty());
        let a = TenantSnapshot {
            name: "victim".into(),
            weight: 2.0,
            admitted: 100,
            completed: 98,
            shed: 2,
            batches: 7,
            slo_p99_ns: 2e6,
            slo_violations: 1,
            p99_latency_ns: 1.5e6,
            fleet_share_configured: 0.4,
            fleet_share_achieved: 0.35,
            ..TenantSnapshot::default()
        };
        let b = TenantSnapshot {
            name: "adversary".into(),
            weight: 3.0,
            ..TenantSnapshot::default()
        };
        m.record_tenant(a.clone());
        m.record_tenant(b.clone());
        let s = m.snapshot();
        assert_eq!(s.tenants, vec![a, b], "recording order is snapshot order");
        m.reset();
        assert!(m.snapshot().tenants.is_empty());

        // Disabled registries ignore tenant records too.
        let mut off = MetricsRegistry::new(false, 1);
        off.record_tenant(TenantSnapshot::default());
        assert!(off.snapshot().tenants.is_empty());
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut m = MetricsRegistry::new(true, 3);
        m.record_batch(
            16,
            &EmbeddingBreakdown {
                stage1: Ps(1_500),
                stage2: Ps(2_500),
                stage3: Ps(3_500),
                ..EmbeddingBreakdown::default()
            },
        );
        m.launch.record_launch(1.1);
        m.record_tenant(TenantSnapshot {
            name: "solo".into(),
            weight: 1.0,
            completed: 42,
            ..TenantSnapshot::default()
        });
        let snap = m.snapshot();
        let text = serde::json::to_string_pretty(&snap);
        let back: Snapshot = serde::json::from_str(&text).expect("parses");
        assert_eq!(back, snap);
        // Serialization is deterministic: same snapshot, same bytes.
        assert_eq!(serde::json::to_string_pretty(&snap), text);
    }
}
