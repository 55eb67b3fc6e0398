//! The serializable [`PlacementPlan`] and its invariant checker.

use crate::error::{PlanError, Result};
use upmem_sim::cost::check_ns;
use upmem_sim::{CostModel, RankCostModel, RankTopology};

/// Schema version written into every serialized plan. Bump on any
/// incompatible change; loaders reject foreign versions (exit 2 at the
/// CLI, mirroring the telemetry snapshot contract). v2 (PR 23):
/// [`PlannerConfig::wram_resident_bytes`].
pub const PLAN_SCHEMA_VERSION: u64 = 2;

/// Host-cache tier tag in [`TablePlacement::tier_of_row`].
pub const TIER_HOST: u8 = 0;
/// Replicated-hot-shard tier tag.
pub const TIER_REPLICATED: u8 = 1;
/// Cold MRAM tier tag.
pub const TIER_COLD: u8 = 2;

/// Sentinel partition for rows replicated into every partition of a
/// table (same value as `updlrm_core::partition::REPLICATED_ROW_PART`).
pub const REPLICATED_ROW_PART: u32 = u32::MAX;
/// Sentinel partition for rows resident in the host-DRAM cache tier.
pub const HOST_ROW_PART: u32 = u32::MAX - 1;

/// One embedding table's shape in the catalog (Table 1 style).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TableDesc {
    /// Rows (items) in the table.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl TableDesc {
    /// Bytes of one f32 row.
    pub fn row_bytes(&self) -> usize {
        self.dim * 4
    }
}

/// A Table-1-style catalog: the tables the planner must place.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Catalog {
    /// Table shapes, in engine table order.
    pub tables: Vec<TableDesc>,
}

impl Catalog {
    /// A catalog of `tables` tables of identical `rows x dim` shape.
    pub fn homogeneous(tables: usize, rows: usize, dim: usize) -> Catalog {
        Catalog {
            tables: vec![TableDesc { rows, dim }; tables],
        }
    }

    /// Total f32 storage across all tables.
    pub fn total_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.rows * t.row_bytes()).sum()
    }
}

/// Planner inputs beyond the catalog and traffic profiles.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlannerConfig {
    /// Fleet shape to shard across.
    pub topology: RankTopology,
    /// Per-DPU MRAM bytes available for the EMT region (replica block +
    /// cold rows).
    pub emt_capacity_bytes: usize,
    /// Total host-DRAM bytes for the hot-cache tier, split evenly
    /// across tables.
    pub host_cache_bytes: usize,
    /// Hottest non-host rows replicated into every partition, per table.
    pub replicate_top: usize,
    /// Rank-level transfer/launch cost extension.
    pub rank_cost: RankCostModel,
    /// Per-rank PIM cost model (used by the plan's cost estimates).
    pub cost: CostModel,
    /// Batch size assumed by the cost estimates.
    pub batch_hint: usize,
    /// Average multi-hot reduction assumed by the cost estimates.
    pub avg_reduction_hint: f64,
    /// Host nanoseconds to probe the hot-cache index per reference.
    pub host_probe_ns: f64,
    /// Host nanoseconds per scalar add when combining host-tier rows.
    pub host_combine_ns_per_add: f64,
    /// Bytes of each DPU's WRAM the serving engine fills with its
    /// hottest rows (`UpdlrmConfig::wram_resident_bytes(dim)` of the
    /// engine the plan will be run on — it depends on that engine's
    /// tasklets, dtype, stream format and tenants, which the planner
    /// cannot know). The cost estimates read a partition's first
    /// `wram_resident_bytes / row bytes` slots from WRAM; `0`, the
    /// default, prices the paper's kernel, every reference one MRAM
    /// DMA. Placement does not depend on it.
    pub wram_resident_bytes: usize,
    /// Echoed into the plan; the planner is deterministic in all of its
    /// inputs, so equal seeds (and inputs) imply byte-identical plans.
    pub seed: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            topology: RankTopology {
                nr_ranks: 4,
                dpus_per_rank: 64,
            },
            emt_capacity_bytes: 48 << 20,
            host_cache_bytes: 1 << 20,
            replicate_top: 64,
            rank_cost: RankCostModel::default(),
            cost: CostModel::default(),
            batch_hint: 64,
            avg_reduction_hint: 100.0,
            host_probe_ns: 2.0,
            host_combine_ns_per_add: 0.1,
            wram_resident_bytes: 0,
            seed: 7,
        }
    }
}

impl PlannerConfig {
    /// Checks every field that prices modeled time — the PIM cost
    /// model's ([`CostModel::check_times`]), the rank charges
    /// ([`RankCostModel::check_times`]) and the host-tier charges: each
    /// must be a finite, nonnegative time the picosecond clock can hold,
    /// the clock nonzero and the ragged factor positive. The planner
    /// checks its inputs with it and [`PlacementPlan::from_json`] the
    /// plans it reads.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidConfig`] naming the first offending field.
    pub fn check_times(&self) -> Result<()> {
        self.cost
            .check_times()
            .and_then(|()| self.rank_cost.check_times())
            .and_then(|()| check_ns("host_probe_ns", self.host_probe_ns))
            .and_then(|()| check_ns("host_combine_ns_per_add", self.host_combine_ns_per_add))
            .map_err(PlanError::InvalidConfig)
    }
}

/// How the workload behind a plan was generated — enough for the CLI's
/// `run --plan FILE` to rebuild the identical workload and tables. The
/// planner itself never reads these fields.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanProvenance {
    /// Dataset scale-down factor (CLI `--scale`).
    pub scale: u64,
    /// Number of tables (CLI `--tables`).
    pub tables: usize,
    /// Trace batches (CLI `--batches`).
    pub batches: usize,
    /// Trace seed (CLI `--seed`).
    pub seed: u64,
    /// Embedding dimension.
    pub dim: usize,
}

impl Default for PlanProvenance {
    fn default() -> Self {
        PlanProvenance {
            scale: 200,
            tables: 8,
            batches: 10,
            seed: 7,
            dim: 32,
        }
    }
}

/// One table's tiered, sharded placement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TablePlacement {
    /// Rows in the table (lengths of the per-row vectors).
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Cold MRAM partitions (one fleet DPU each).
    pub parts: usize,
    /// Global fleet DPU index of each partition
    /// (`rank = dpu / dpus_per_rank`).
    pub dpus: Vec<usize>,
    /// Tier of each row: [`TIER_HOST`], [`TIER_REPLICATED`] or
    /// [`TIER_COLD`]. Redundant with the `part_of_row` sentinels (the
    /// invariant checker holds the two to each other); the engine reads
    /// only `part_of_row`.
    pub tier_of_row: Vec<u8>,
    /// Partition of each cold row; [`HOST_ROW_PART`] /
    /// [`REPLICATED_ROW_PART`] sentinels for the other tiers.
    pub part_of_row: Vec<u32>,
    /// Slot of each row: host-store index (host tier), replica-block
    /// slot shared by all partitions (replicated tier), or absolute EMT
    /// slot past the replica block (cold tier).
    pub slot_of_row: Vec<u32>,
    /// Host-tier rows in host-slot order.
    pub host_rows: Vec<u64>,
    /// Replicated rows in replica-block slot order.
    pub replicated_rows: Vec<u64>,
    /// Cold rows stored per partition.
    pub rows_per_part: Vec<u32>,
    /// Predicted accesses per partition (replicated mass spread evenly,
    /// matching the engine's routing).
    pub part_load: Vec<f64>,
    /// Fraction of this table's accesses absorbed by the host tier.
    pub host_mass: f64,
    /// Fraction of this table's accesses hitting the replicated tier.
    pub replica_mass: f64,
}

/// Analytic cost estimates the planner attaches to a plan. These model
/// per-batch phase walls under the rank cost extension; DESIGN.md §4.9
/// documents where they intentionally diverge from the simulated
/// engine's executed schedule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanCostEstimate {
    /// Modeled ns for one batch under this tiered plan.
    pub tiered_batch_ns: f64,
    /// Modeled ns for one batch with every row in cold MRAM on the same
    /// fleet: the `tiered_batch_ns` of the plan this planner makes of
    /// the catalog with no host tier and no replication.
    pub mram_batch_ns: f64,
    /// `tiered_batch_ns` per embedding lookup.
    pub tiered_ns_per_lookup: f64,
    /// `mram_batch_ns` per embedding lookup.
    pub mram_ns_per_lookup: f64,
    /// Access-weighted host-tier hit fraction across tables.
    pub host_mass: f64,
    /// Access-weighted replicated-tier fraction across tables.
    pub replica_mass: f64,
    /// Cold partitions across all tables under the tiered plan.
    pub parts_total: usize,
    /// Partitions the pure-MRAM baseline needs for the same catalog.
    pub mram_parts_total: usize,
    /// Expected ranks a batch touches under the tiered plan.
    pub ranks_touched: usize,
    /// Ranks a batch touches under the pure-MRAM baseline.
    pub mram_ranks_touched: usize,
}

/// A deterministic, serializable placement of every catalog row across
/// the host cache, replicated hot shards and cold MRAM partitions of a
/// multi-rank fleet.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlacementPlan {
    /// Always [`PLAN_SCHEMA_VERSION`] when produced by this build.
    pub schema_version: u64,
    /// The planner inputs that produced this plan.
    pub config: PlannerConfig,
    /// Workload generation parameters (CLI provenance).
    pub provenance: PlanProvenance,
    /// Per-table placements, in catalog order.
    pub tables: Vec<TablePlacement>,
    /// Fleet DPUs actually assigned.
    pub dpus_used: usize,
    /// Predicted access mass per rank (the balance invariant's subject).
    pub rank_load: Vec<f64>,
    /// EMT rows stored per rank.
    pub rank_rows: Vec<u64>,
    /// Largest single partition load handed to the rank packer — the
    /// greedy balance bound: `max(rank_load) - min(rank_load) <=
    /// balance_bound` whenever `rank_capacity_binding` is false.
    pub balance_bound: f64,
    /// True when the rank packer ever had to skip the least-loaded rank
    /// because its DPUs were full (the balance bound may not hold).
    pub rank_capacity_binding: bool,
    /// Analytic tiered-vs-pure-MRAM cost estimates.
    pub est: PlanCostEstimate,
}

impl PlacementPlan {
    /// Serializes the plan as pretty JSON. Field order is declaration
    /// order and every collection is a `Vec`, so equal plans produce
    /// byte-identical text.
    pub fn to_json(&self) -> String {
        let mut s = serde::json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Parses a plan, rejecting foreign schema versions before the
    /// typed decode (so a version bump fails with the version message,
    /// not a field error).
    ///
    /// # Errors
    ///
    /// [`PlanError::Parse`] for malformed JSON,
    /// [`PlanError::SchemaVersion`] for a readable file written by a
    /// different schema, [`PlanError::InvalidConfig`] for time
    /// constants [`PlannerConfig::check_times`] refuses.
    pub fn from_json(text: &str) -> Result<PlacementPlan> {
        let doc = serde::json::parse(text).map_err(|e| PlanError::Parse(e.to_string()))?;
        let found = match doc.get("schema_version") {
            Some(serde::Value::UInt(v)) => *v,
            Some(serde::Value::Int(v)) => *v as u64,
            _ => {
                return Err(PlanError::Parse(
                    "missing or non-integer schema_version".into(),
                ))
            }
        };
        if found != PLAN_SCHEMA_VERSION {
            return Err(PlanError::SchemaVersion {
                found,
                expected: PLAN_SCHEMA_VERSION,
            });
        }
        let plan: PlacementPlan =
            serde::json::from_str(text).map_err(|e| PlanError::Parse(e.to_string()))?;
        plan.config.check_times()?;
        Ok(plan)
    }

    /// Total embedding rows across the plan's tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Checks every structural invariant the proptests assert:
    ///
    /// 1. every row is placed exactly once, in exactly one tier, with
    ///    consistent tier/partition/slot encodings;
    /// 2. per-partition EMT capacity (replica block + cold rows) and the
    ///    host byte budget are respected, and each table replicates at
    ///    most `replicate_top` rows;
    /// 3. partition → DPU assignments are globally disjoint and within
    ///    the fleet;
    /// 4. cold slots are dense per partition and offset past the
    ///    replica block.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invariant`] naming the first violated invariant.
    pub fn check_invariants(&self) -> Result<()> {
        let err = |msg: String| Err(PlanError::Invariant(msg));
        let topo = self.config.topology;
        let mut seen_dpus = std::collections::HashSet::new();
        let mut host_bytes_total = 0usize;
        for (t, tp) in self.tables.iter().enumerate() {
            let rows = tp.rows;
            if tp.tier_of_row.len() != rows
                || tp.part_of_row.len() != rows
                || tp.slot_of_row.len() != rows
            {
                return err(format!("table {t}: per-row vector lengths != {rows}"));
            }
            if tp.dpus.len() != tp.parts
                || tp.rows_per_part.len() != tp.parts
                || tp.part_load.len() != tp.parts
            {
                return err(format!("table {t}: per-partition vector lengths != parts"));
            }
            let emt_rows_cap = self.config.emt_capacity_bytes / (tp.dim * 4);
            let replicas = tp.replicated_rows.len();
            if replicas > self.config.replicate_top {
                return err(format!(
                    "table {t}: {replicas} replicated rows exceed replicate_top {}",
                    self.config.replicate_top
                ));
            }
            for (p, &n) in tp.rows_per_part.iter().enumerate() {
                if replicas + n as usize > emt_rows_cap {
                    return err(format!(
                        "table {t} partition {p}: {replicas} replicas + {n} cold rows \
                         exceed the {emt_rows_cap}-row EMT capacity"
                    ));
                }
            }
            for &dpu in &tp.dpus {
                if dpu >= topo.nr_dpus() {
                    return err(format!("table {t}: DPU {dpu} outside the fleet"));
                }
                if !seen_dpus.insert(dpu) {
                    return err(format!("table {t}: DPU {dpu} assigned twice"));
                }
            }
            host_bytes_total += tp.host_rows.len() * tp.dim * 4;

            // Row-exactly-once with consistent encodings.
            let mut host_seen = vec![false; tp.host_rows.len()];
            let mut replica_seen = vec![false; replicas];
            let mut cold_slots: Vec<Vec<u32>> = vec![Vec::new(); tp.parts];
            for r in 0..rows {
                let (tier, part, slot) = (tp.tier_of_row[r], tp.part_of_row[r], tp.slot_of_row[r]);
                match tier {
                    TIER_HOST => {
                        if part != HOST_ROW_PART {
                            return err(format!("table {t} row {r}: host tier, part {part}"));
                        }
                        let s = slot as usize;
                        if s >= tp.host_rows.len() || tp.host_rows[s] != r as u64 {
                            return err(format!("table {t} row {r}: bad host slot {slot}"));
                        }
                        if std::mem::replace(&mut host_seen[s], true) {
                            return err(format!("table {t}: host slot {slot} used twice"));
                        }
                    }
                    TIER_REPLICATED => {
                        if part != REPLICATED_ROW_PART {
                            return err(format!("table {t} row {r}: replica tier, part {part}"));
                        }
                        let s = slot as usize;
                        if s >= replicas || tp.replicated_rows[s] != r as u64 {
                            return err(format!("table {t} row {r}: bad replica slot {slot}"));
                        }
                        if std::mem::replace(&mut replica_seen[s], true) {
                            return err(format!("table {t}: replica slot {slot} used twice"));
                        }
                    }
                    TIER_COLD => {
                        let p = part as usize;
                        if p >= tp.parts {
                            return err(format!("table {t} row {r}: cold partition {p} oob"));
                        }
                        if (slot as usize) < replicas {
                            return err(format!(
                                "table {t} row {r}: cold slot {slot} inside the replica block"
                            ));
                        }
                        cold_slots[p].push(slot);
                    }
                    other => return err(format!("table {t} row {r}: unknown tier {other}")),
                }
            }
            if !host_seen.iter().all(|&s| s) || !replica_seen.iter().all(|&s| s) {
                return err(format!("table {t}: unreferenced host/replica slot"));
            }
            for (p, slots) in cold_slots.iter_mut().enumerate() {
                if slots.len() != tp.rows_per_part[p] as usize {
                    return err(format!(
                        "table {t} partition {p}: rows_per_part {} but {} cold rows",
                        tp.rows_per_part[p],
                        slots.len()
                    ));
                }
                slots.sort_unstable();
                for (i, &s) in slots.iter().enumerate() {
                    if s as usize != replicas + i {
                        return err(format!(
                            "table {t} partition {p}: cold slots not dense past the replica block"
                        ));
                    }
                }
            }
        }
        if host_bytes_total > self.config.host_cache_bytes {
            return err(format!(
                "host tier stores {host_bytes_total} B, budget {} B",
                self.config.host_cache_bytes
            ));
        }
        if self.dpus_used != seen_dpus.len() || self.dpus_used > topo.nr_dpus() {
            return err(format!(
                "dpus_used {} vs {} assigned of {} fleet DPUs",
                self.dpus_used,
                seen_dpus.len(),
                topo.nr_dpus()
            ));
        }
        if self.rank_load.len() != topo.nr_ranks || self.rank_rows.len() != topo.nr_ranks {
            return err("per-rank vectors must cover every rank".into());
        }
        Ok(())
    }
}
