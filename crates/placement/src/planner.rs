//! The tiering + rank-sharding algorithm behind [`plan`].
//!
//! Per table, rows are split by access frequency into three tiers:
//! the hottest rows go to a host-DRAM cache (per-table byte budget),
//! the next-hottest into a replica block copied to every cold
//! partition, and the remainder into cold MRAM partitions packed
//! greedily by predicted load. Partitions from all tables are then
//! sharded across the fleet's ranks with a longest-processing-time
//! greedy that keeps per-rank access mass balanced whenever rank DPU
//! capacity is not binding.

use std::cmp::Ordering;

use crate::error::{PlanError, Result};
use crate::plan::{
    Catalog, PlacementPlan, PlanCostEstimate, PlanProvenance, PlannerConfig, TablePlacement,
    HOST_ROW_PART, PLAN_SCHEMA_VERSION, REPLICATED_ROW_PART, TIER_COLD, TIER_HOST, TIER_REPLICATED,
};
use upmem_sim::arch::DEFAULT_TASKLETS;
use upmem_sim::CostTable;
use workloads::FreqProfile;

/// Builds a deterministic tiered placement of `catalog` over
/// `config.topology`, driven by per-table traffic `profiles`.
///
/// The result embeds a default [`PlanProvenance`]; callers that know
/// how the workload was generated (the CLI) overwrite it before
/// serializing.
///
/// # Errors
///
/// [`PlanError::InvalidConfig`] for inconsistent inputs (empty catalog,
/// zero topology, profile/table mismatches, zero-sized tables),
/// [`PlanError::CapacityExceeded`] when a table's rows cannot fit one
/// EMT partition or the catalog needs more partitions than the fleet
/// has DPUs.
pub fn plan(
    catalog: &Catalog,
    profiles: &[FreqProfile],
    config: &PlannerConfig,
) -> Result<PlacementPlan> {
    validate(catalog, profiles, config)?;

    let num_tables = catalog.tables.len();
    let host_budget_per_table = config.host_cache_bytes / num_tables;
    let mut tables = Vec::with_capacity(num_tables);
    for (desc, profile) in catalog.tables.iter().zip(profiles) {
        tables.push(place_table(
            desc.rows,
            desc.dim,
            profile,
            host_budget_per_table,
            config,
        )?);
    }

    let packing = pack_ranks(&mut tables, config)?;
    let est = estimate(catalog, profiles, &tables, config)?;

    let plan = PlacementPlan {
        schema_version: PLAN_SCHEMA_VERSION,
        config: config.clone(),
        provenance: PlanProvenance::default(),
        tables,
        dpus_used: packing.dpus_used,
        rank_load: packing.rank_load,
        rank_rows: packing.rank_rows,
        balance_bound: packing.balance_bound,
        rank_capacity_binding: packing.rank_capacity_binding,
        est,
    };
    plan.check_invariants()?;
    Ok(plan)
}

fn validate(catalog: &Catalog, profiles: &[FreqProfile], config: &PlannerConfig) -> Result<()> {
    let bad = |msg: String| Err(PlanError::InvalidConfig(msg));
    if catalog.tables.is_empty() {
        return bad("catalog has no tables".into());
    }
    if profiles.len() != catalog.tables.len() {
        return bad(format!(
            "{} profiles for {} tables",
            profiles.len(),
            catalog.tables.len()
        ));
    }
    if config.topology.nr_ranks == 0 || config.topology.dpus_per_rank == 0 {
        return bad("fleet topology must have at least one rank and one DPU per rank".into());
    }
    // NaN must fail too, so compare through the negation.
    if config.batch_hint == 0
        || config.avg_reduction_hint.partial_cmp(&0.0) != Some(Ordering::Greater)
    {
        return bad("batch_hint and avg_reduction_hint must be positive".into());
    }
    config.check_times()?;
    for (t, (desc, profile)) in catalog.tables.iter().zip(profiles).enumerate() {
        if desc.rows == 0 || desc.dim == 0 {
            return bad(format!("table {t} has zero rows or dim"));
        }
        if profile.num_items() < desc.rows {
            return bad(format!(
                "table {t}: profile covers {} items, table has {} rows",
                profile.num_items(),
                desc.rows
            ));
        }
    }
    Ok(())
}

/// Per-row access mass, uniform when the in-range trace is empty so the
/// greedy packer still spreads rows.
fn row_mass(profile: &FreqProfile, rows: usize) -> Vec<f64> {
    let in_range: u64 = profile.counts()[..rows.min(profile.num_items())]
        .iter()
        .sum();
    if in_range == 0 {
        return vec![1.0 / rows as f64; rows];
    }
    (0..rows as u64)
        .map(|r| profile.count(r) as f64 / in_range as f64)
        .collect()
}

fn place_table(
    rows: usize,
    dim: usize,
    profile: &FreqProfile,
    host_budget_bytes: usize,
    config: &PlannerConfig,
) -> Result<TablePlacement> {
    let row_bytes = dim * 4;
    let mass = row_mass(profile, rows);
    // The satellite-1 shared guard: hottest *in-range* items first.
    let by_freq = profile.items_by_frequency_in_range(rows);
    debug_assert_eq!(by_freq.len(), rows);

    let host_cap = (host_budget_bytes / row_bytes).min(rows);
    let host_rows: Vec<u64> = by_freq[..host_cap].to_vec();
    let replicas = config.replicate_top.min(rows - host_cap);
    let replicated_rows: Vec<u64> = by_freq[host_cap..host_cap + replicas].to_vec();
    let cold = &by_freq[host_cap + replicas..];

    let emt_rows_cap = config.emt_capacity_bytes / row_bytes;
    let local_cap = emt_rows_cap.saturating_sub(replicas);
    if local_cap == 0 && !cold.is_empty() {
        return Err(PlanError::CapacityExceeded {
            what: format!("cold EMT rows ({row_bytes} B rows, {replicas} replicas)"),
            required: replicas + 1,
            available: emt_rows_cap,
        });
    }
    let parts = if cold.is_empty() {
        1
    } else {
        cold.len().div_ceil(local_cap)
    };

    let mut tier_of_row = vec![0u8; rows];
    let mut part_of_row = vec![0u32; rows];
    let mut slot_of_row = vec![0u32; rows];
    let mut host_mass = 0.0;
    for (s, &r) in host_rows.iter().enumerate() {
        tier_of_row[r as usize] = TIER_HOST;
        part_of_row[r as usize] = HOST_ROW_PART;
        slot_of_row[r as usize] = s as u32;
        host_mass += mass[r as usize];
    }
    let mut replica_mass = 0.0;
    for (s, &r) in replicated_rows.iter().enumerate() {
        tier_of_row[r as usize] = TIER_REPLICATED;
        part_of_row[r as usize] = REPLICATED_ROW_PART;
        slot_of_row[r as usize] = s as u32;
        replica_mass += mass[r as usize];
    }

    // Greedy least-loaded cold packing, hottest rows first, ties toward
    // the lowest partition index for determinism.
    let mut rows_per_part = vec![0u32; parts];
    let mut part_load = vec![0.0f64; parts];
    for &r in cold {
        let best = least_loaded_with_room(&part_load, &rows_per_part, 1, local_cap)
            .expect("parts sized to hold every cold row");
        tier_of_row[r as usize] = TIER_COLD;
        part_of_row[r as usize] = best as u32;
        slot_of_row[r as usize] = (replicas + rows_per_part[best] as usize) as u32;
        rows_per_part[best] += 1;
        part_load[best] += mass[r as usize];
    }
    // Replica refs route per sample (`(row + sample) % parts` in the
    // engine), spreading the replicated mass evenly in expectation.
    if replica_mass > 0.0 {
        let share = replica_mass / parts as f64;
        for l in &mut part_load {
            *l += share;
        }
    }

    Ok(TablePlacement {
        rows,
        dim,
        parts,
        dpus: Vec::new(), // filled by pack_ranks
        tier_of_row,
        part_of_row,
        slot_of_row,
        host_rows,
        replicated_rows,
        rows_per_part,
        part_load,
        host_mass,
        replica_mass,
    })
}

/// The bin with minimum `load` among those whose `used` units leave at
/// least `need` units of room under `capacity`; ties break toward the
/// lower index, so every greedy packer built on it is deterministic.
/// `None` when no bin has room.
pub fn least_loaded_with_room(
    load: &[f64],
    used: &[u32],
    need: u32,
    capacity: usize,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for p in 0..load.len() {
        if used[p] as usize + need as usize > capacity {
            continue;
        }
        match best {
            None => best = Some(p),
            Some(b) if load[p] < load[b] => best = Some(p),
            _ => {}
        }
    }
    best
}

struct RankPacking {
    dpus_used: usize,
    rank_load: Vec<f64>,
    rank_rows: Vec<u64>,
    balance_bound: f64,
    rank_capacity_binding: bool,
}

/// Longest-processing-time greedy over all tables' partitions: heaviest
/// partition first, each to the least-loaded rank with a free DPU.
fn pack_ranks(tables: &mut [TablePlacement], config: &PlannerConfig) -> Result<RankPacking> {
    let topo = config.topology;
    let parts_total: usize = tables.iter().map(|t| t.parts).sum();
    if parts_total > topo.nr_dpus() {
        return Err(PlanError::CapacityExceeded {
            what: "fleet DPUs".into(),
            required: parts_total,
            available: topo.nr_dpus(),
        });
    }

    let mut items: Vec<(f64, usize, usize)> = Vec::with_capacity(parts_total);
    for (t, tp) in tables.iter_mut().enumerate() {
        tp.dpus = vec![usize::MAX; tp.parts];
        for p in 0..tp.parts {
            items.push((tp.part_load[p], t, p));
        }
    }
    // Descending load; ties by (table, part) so the order — and thus the
    // plan — is deterministic despite float loads.
    items.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite loads")
            .then((a.1, a.2).cmp(&(b.1, b.2)))
    });

    let mut rank_load = vec![0.0f64; topo.nr_ranks];
    let mut rank_rows = vec![0u64; topo.nr_ranks];
    let mut used = vec![0u32; topo.nr_ranks];
    let mut binding = false;
    let balance_bound = items.first().map(|i| i.0).unwrap_or(0.0);
    for &(load, t, p) in &items {
        let global_min = rank_load.iter().copied().fold(f64::INFINITY, f64::min);
        let best = least_loaded_with_room(&rank_load, &used, 1, topo.dpus_per_rank)
            .expect("parts_total <= nr_dpus");
        if rank_load[best] > global_min {
            // A strictly less-loaded rank existed but was out of DPUs:
            // the LPT balance bound no longer applies.
            binding = true;
        }
        tables[t].dpus[p] = best * topo.dpus_per_rank + used[best] as usize;
        used[best] += 1;
        rank_load[best] += load;
        rank_rows[best] +=
            tables[t].replicated_rows.len() as u64 + tables[t].rows_per_part[p] as u64;
    }

    Ok(RankPacking {
        dpus_used: parts_total,
        rank_load,
        rank_rows,
        balance_bound,
        rank_capacity_binding: binding,
    })
}

/// Deterministic per-tenant DPU rotations that interleave N tenants'
/// table partitions across one shared fleet of `fleet_dpus` DPUs:
/// tenant `i`'s partition `p` lands on physical DPU
/// `(p + offsets[i]) % fleet_dpus`.
///
/// Each tenant's partitioner numbers its partitions from DPU 0, so
/// with no rotation every tenant's partition 0 — usually the hottest,
/// since row 0 starts the Zipf head — stacks on the *same* physical
/// DPU and the tenants' load imbalances compound. Spreading the
/// origins evenly (`offsets[i] = i * fleet_dpus / n`) decorrelates
/// them: the hot partitions land `fleet_dpus / n` DPUs apart, so the
/// fleet-aggregate per-DPU load flattens without touching any
/// tenant-local placement (the rotation is pure relabeling, which is
/// also why it cannot change any tenant's modeled service time).
///
/// # Panics
///
/// Panics when `num_tenants` is 0 or `fleet_dpus` is 0.
pub fn interleaved_offsets(num_tenants: usize, fleet_dpus: usize) -> Vec<usize> {
    assert!(num_tenants > 0, "need at least one tenant");
    assert!(fleet_dpus > 0, "need at least one DPU");
    (0..num_tenants)
        .map(|i| i * fleet_dpus / num_tenants % fleet_dpus)
        .collect()
}

/// Nanoseconds one reference adds to a partition's kernel, priced with
/// the charges the stage-2 kernel makes ([`CostTable::lookup_cycles`]):
/// a loop iteration, a `dim`-element accumulate and the row's read — a
/// WRAM-resident operand with probability `hit_share`, an MRAM DMA
/// otherwise — under the default tasklet count.
fn lookup_ns(costs: &CostTable, dim: usize, hit_share: f64) -> f64 {
    let cycles = costs.lookup_cycles(dim * 4, false, dim as u64, hit_share, DEFAULT_TASKLETS);
    cycles * 1e9 / costs.model().clock_hz as f64
}

/// One side of a [`PlanCostEstimate`]: the analytic per-batch time of
/// serving `tables` as placed, and the partition counts behind it.
struct SideEstimate {
    batch_ns: f64,
    parts_total: usize,
    ranks_touched: usize,
}

/// Analytic per-batch cost of one placement of the catalog: host probes
/// and combines for the host tier, then one scatter, the hottest
/// partition's kernel, and one gather. DESIGN.md §4.9 documents the
/// deliberate divergences from the simulated engine
/// (expected-partitions-touched vs the engine's all-partition gather,
/// no pipelining, no stream padding).
fn estimate_side(
    profiles: &[FreqProfile],
    tables: &[TablePlacement],
    config: &PlannerConfig,
) -> SideEstimate {
    let cost = &config.cost;
    let costs = CostTable::new(cost);
    let b = config.batch_hint as f64;
    let refs_per_table = b * config.avg_reduction_hint;

    let mut host_ns = 0.0;
    let mut parts_touched_total = 0usize;
    let mut gather_bytes = 0.0;
    let mut scatter_bytes = 0.0;
    let mut launch_ns = 0.0f64;
    let mut parts_total = 0usize;
    for (tp, profile) in tables.iter().zip(profiles) {
        parts_total += tp.parts;
        if tp.host_mass > 0.0 {
            // Every reference probes the hot-cache index; the hits are
            // combined on the host.
            host_ns += refs_per_table
                * (config.host_probe_ns
                    + tp.host_mass * tp.dim as f64 * config.host_combine_ns_per_add);
        }
        let pim_mass = (1.0 - tp.host_mass).max(0.0);
        let cold_mass = (pim_mass - tp.replica_mass).max(0.0);
        let cold_refs = (refs_per_table * cold_mass).ceil() as usize;
        // Replica refs cluster per sample (one partition per sample),
        // cold refs can each touch a distinct partition; the host tier
        // absorbs the rest. This is where a tiered plan saturates while
        // an untiered one keeps growing.
        let replica_parts = if tp.replica_mass > 0.0 {
            tp.parts.min(config.batch_hint)
        } else {
            0
        };
        let touched = tp.parts.min(replica_parts + cold_refs);
        parts_touched_total += touched;
        // Every touched partition stages output for the whole batch.
        gather_bytes += touched as f64 * b * (tp.dim * 4) as f64;
        scatter_bytes += refs_per_table * pim_mass * 4.0;
        // Kernel wall: the hottest partition's expected refs, the share
        // of the PIM traffic that lands on WRAM-resident slots (the
        // replica block first, then each partition's hottest cold
        // rows) read from there.
        let max_load = tp.part_load.iter().copied().fold(0.0, f64::max);
        let resident = config.wram_resident_bytes / (tp.dim * 4);
        let mass = row_mass(profile, tp.rows);
        let resident_mass: f64 = (0..tp.rows)
            .filter(|&r| tp.tier_of_row[r] != TIER_HOST && (tp.slot_of_row[r] as usize) < resident)
            .map(|r| mass[r])
            .sum();
        let hit_share = if pim_mass > 0.0 {
            resident_mass / pim_mass
        } else {
            0.0
        };
        let per_ref = lookup_ns(&costs, tp.dim, hit_share);
        launch_ns = launch_ns.max(refs_per_table * max_load * per_ref);
    }
    // The engine scatters, launches and gathers even when the host tier
    // served the whole batch, so at least one rank is always paid for.
    let ranks_touched = parts_touched_total.min(config.topology.nr_ranks).max(1);
    let rank_ns = config.rank_cost.rank_base_ns * ranks_touched as f64;
    let pim_ns = cost.host_transfer_base_ns
        + cost.host_to_mram_ns(scatter_bytes as usize)
        + rank_ns
        + launch_ns
        + config.rank_cost.rank_launch_ns * ranks_touched as f64
        + cost.host_transfer_base_ns
        + cost.mram_to_host_ns(gather_bytes as usize)
        + rank_ns;
    SideEstimate {
        batch_ns: host_ns + pim_ns,
        parts_total,
        ranks_touched,
    }
}

/// Analytic per-batch cost of the tiered plan vs the same catalog
/// placed by this planner with both hot tiers off — greedy cold
/// packing only, the pure-MRAM plan `placement_sweep` simulates beside
/// it — on the same fleet.
fn estimate(
    catalog: &Catalog,
    profiles: &[FreqProfile],
    tables: &[TablePlacement],
    config: &PlannerConfig,
) -> Result<PlanCostEstimate> {
    let tiered = estimate_side(profiles, tables, config);

    // A catalog the host tier holds whole can be planned with no EMT
    // room at all; its baseline still needs a partition that holds a row.
    let widest_row = catalog.tables.iter().map(|d| d.dim * 4).max().unwrap_or(0);
    let untiered = PlannerConfig {
        replicate_top: 0,
        emt_capacity_bytes: config.emt_capacity_bytes.max(widest_row),
        ..config.clone()
    };
    let cold_only = catalog
        .tables
        .iter()
        .zip(profiles)
        .map(|(desc, profile)| place_table(desc.rows, desc.dim, profile, 0, &untiered))
        .collect::<Result<Vec<_>>>()?;
    let mram = estimate_side(profiles, &cold_only, &untiered);

    let n = tables.len() as f64;
    let lookups = (config.batch_hint as f64 * config.avg_reduction_hint * n).max(1.0);
    Ok(PlanCostEstimate {
        tiered_batch_ns: tiered.batch_ns,
        mram_batch_ns: mram.batch_ns,
        tiered_ns_per_lookup: tiered.batch_ns / lookups,
        mram_ns_per_lookup: mram.batch_ns / lookups,
        host_mass: tables.iter().map(|tp| tp.host_mass).sum::<f64>() / n,
        replica_mass: tables.iter().map(|tp| tp.replica_mass).sum::<f64>() / n,
        parts_total: tiered.parts_total,
        mram_parts_total: mram.parts_total,
        ranks_touched: tiered.ranks_touched,
        mram_ranks_touched: mram.ranks_touched,
    })
}

#[cfg(test)]
mod tests {
    use super::interleaved_offsets;

    #[test]
    fn interleaved_offsets_spread_origins_and_decorrelate_hot_load() {
        assert_eq!(interleaved_offsets(1, 64), vec![0]);
        assert_eq!(interleaved_offsets(4, 64), vec![0, 16, 32, 48]);
        assert_eq!(interleaved_offsets(3, 8), vec![0, 2, 5]);
        // More tenants than DPUs still yields valid in-range offsets.
        let off = interleaved_offsets(10, 4);
        assert!(off.iter().all(|&o| o < 4));

        // Decorrelation: three tenants with identical skewed per-DPU
        // loads (hot partition 0). Stacked at offset 0 the hot loads
        // compound; rotated, the fleet aggregate flattens.
        let fleet = 12usize;
        let tenant_load: Vec<u64> = (0..fleet).map(|d| if d == 0 { 90 } else { 10 }).collect();
        let aggregate = |offsets: &[usize]| -> Vec<u64> {
            let mut agg = vec![0u64; fleet];
            for &o in offsets {
                for (d, &l) in tenant_load.iter().enumerate() {
                    agg[(d + o) % fleet] += l;
                }
            }
            agg
        };
        let imbalance = |agg: &[u64]| -> f64 {
            let max = *agg.iter().max().unwrap() as f64;
            let mean = agg.iter().sum::<u64>() as f64 / agg.len() as f64;
            max / mean
        };
        let stacked = imbalance(&aggregate(&[0; 3]));
        let interleaved = imbalance(&aggregate(&interleaved_offsets(3, fleet)));
        assert!(
            interleaved < stacked,
            "interleaving must flatten the aggregate: {interleaved} vs {stacked}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn interleaved_offsets_reject_zero_tenants() {
        interleaved_offsets(0, 8);
    }
}
