//! Row-to-partition assignment: uniform (§3.1), non-uniform (§3.2) and
//! cache-aware non-uniform (§3.3, Algorithm 1).
//!
//! All three strategies operate on the *row partitions* of a tiling
//! (each row partition is replicated across the tiling's column
//! slices). Their output is a [`RowAssignment`] mapping every table row
//! to a partition and a slot inside that partition's MRAM tile, plus
//! the predicted access load per partition used by workload-balance
//! analyses (Fig. 6).

use crate::error::{CoreError, Result};
use cooccur_cache::CacheListSet;
use workloads::FreqProfile;

/// Which partitioning strategy to run (paper's U / NU / CA, plus the
/// replication extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PartitionStrategy {
    /// §3.1 uniform: contiguous equal row blocks.
    Uniform,
    /// §3.2 non-uniform: greedy frequency-balanced bin packing.
    NonUniform,
    /// §3.3 cache-aware non-uniform: Algorithm 1, balancing EMT and
    /// partial-sum-cache traffic jointly.
    CacheAware,
    /// Extension: non-uniform packing with the hottest rows *replicated*
    /// into every partition, their lookups spread round-robin. Greedy
    /// bin packing cannot balance below the hottest single row's
    /// frequency (an LPT bound); replication removes that floor
    /// (`UpdlrmConfig::replicate_top` sets the replica count).
    Replicated,
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionStrategy::Uniform => write!(f, "U"),
            PartitionStrategy::NonUniform => write!(f, "NU"),
            PartitionStrategy::CacheAware => write!(f, "CA"),
            PartitionStrategy::Replicated => write!(f, "NU+R"),
        }
    }
}

/// Sentinel slot for rows that live in the partial-sum cache instead of
/// the EMT region (their embedding is only reachable through cached
/// combination rows).
pub const CACHED_ROW_SLOT: u32 = u32::MAX;

/// Sentinel partition for rows replicated into *every* partition (the
/// [`PartitionStrategy::Replicated`] extension); their `slot_of_row` is
/// the replica-block slot shared by all partitions.
pub const REPLICATED_ROW_PART: u32 = u32::MAX;

/// Assignment of every table row to a row partition.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RowAssignment {
    /// Partition of each row (`len == rows`): a partition index,
    /// [`REPLICATED_ROW_PART`], or — only in an assignment copied from
    /// a placement plan — `placement::HOST_ROW_PART`.
    pub part_of_row: Vec<u32>,
    /// Slot of each row inside its partition's EMT region (the host
    /// store, for a host-tier row), or [`CACHED_ROW_SLOT`] for
    /// cache-resident rows.
    pub slot_of_row: Vec<u32>,
    /// EMT rows stored per partition.
    pub rows_per_part: Vec<u32>,
    /// Predicted accesses per partition (frequency-weighted, after
    /// cache-benefit adjustment for CA) — the quantity Figs. 5/6 plot.
    pub part_load: Vec<f64>,
}

impl RowAssignment {
    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.rows_per_part.len()
    }

    /// Load imbalance: max partition load over mean (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = self.part_load.iter().cloned().fold(0.0f64, f64::max);
        let mean = self.part_load.iter().sum::<f64>() / self.part_load.len().max(1) as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    fn validate_capacity(&self, capacity_rows: usize) -> Result<()> {
        for (p, &used) in self.rows_per_part.iter().enumerate() {
            if used as usize > capacity_rows {
                return Err(CoreError::CapacityExceeded {
                    table: None,
                    partition: Some(p),
                    required: used as usize,
                    available: capacity_rows,
                });
            }
        }
        Ok(())
    }
}

/// §3.1 uniform partitioning: partition `p` holds the contiguous block
/// of rows `[p * n_r, (p+1) * n_r)`.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for zero partitions/rows;
/// [`CoreError::CapacityExceeded`] if a block exceeds `capacity_rows`.
pub fn uniform(
    rows: usize,
    parts: usize,
    capacity_rows: usize,
    profile: &FreqProfile,
) -> Result<RowAssignment> {
    check_inputs(rows, parts, profile)?;
    let n_r = rows.div_ceil(parts);
    let mut part_of_row = Vec::with_capacity(rows);
    let mut slot_of_row = Vec::with_capacity(rows);
    let mut rows_per_part = vec![0u32; parts];
    let mut part_load = vec![0.0f64; parts];
    for r in 0..rows {
        let p = r / n_r;
        part_of_row.push(p as u32);
        slot_of_row.push((r - p * n_r) as u32);
        rows_per_part[p] += 1;
        part_load[p] += profile.count(r as u64) as f64;
    }
    let a = RowAssignment {
        part_of_row,
        slot_of_row,
        rows_per_part,
        part_load,
    };
    a.validate_capacity(capacity_rows)?;
    Ok(a)
}

/// §3.2 non-uniform partitioning: rows sorted by descending access
/// frequency, each assigned to the least-loaded partition with spare
/// capacity (greedy bin packing with a fixed bin count).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for zero partitions/rows;
/// [`CoreError::CapacityExceeded`] when every partition is full.
pub fn non_uniform(
    rows: usize,
    parts: usize,
    capacity_rows: usize,
    profile: &FreqProfile,
) -> Result<RowAssignment> {
    check_inputs(rows, parts, profile)?;
    let mut part_of_row = vec![0u32; rows];
    let mut slot_of_row = vec![0u32; rows];
    let mut rows_per_part = vec![0u32; parts];
    let mut part_load = vec![0.0f64; parts];
    for item in profile.items_by_frequency_in_range(rows) {
        let r = item as usize;
        let p = least_loaded_with_room(&part_load, &rows_per_part, 1, capacity_rows).ok_or(
            CoreError::CapacityExceeded {
                table: None,
                partition: None,
                required: rows,
                available: capacity_rows * parts,
            },
        )?;
        part_of_row[r] = p as u32;
        slot_of_row[r] = rows_per_part[p];
        rows_per_part[p] += 1;
        part_load[p] += profile.count(item) as f64;
    }
    Ok(RowAssignment {
        part_of_row,
        slot_of_row,
        rows_per_part,
        part_load,
    })
}

/// Extension: non-uniform packing with the `replicate_top` hottest rows
/// replicated into every partition's *replica block* (slots
/// `0..replicate_top`, identical layout on every partition). Remaining
/// rows are packed greedily with slots starting after the block. The
/// returned `part_load` spreads a replicated row's frequency evenly,
/// matching the engine's round-robin routing.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for zero partitions/rows;
/// [`CoreError::CapacityExceeded`] when replica block + local rows
/// exceed `capacity_rows`.
pub fn replicated_non_uniform(
    rows: usize,
    parts: usize,
    capacity_rows: usize,
    profile: &FreqProfile,
    replicate_top: usize,
) -> Result<RowAssignment> {
    check_inputs(rows, parts, profile)?;
    let by_freq = profile.items_by_frequency_in_range(rows);
    let replicate_top = replicate_top.min(rows);
    if replicate_top > capacity_rows {
        return Err(CoreError::CapacityExceeded {
            table: None,
            partition: None,
            required: replicate_top,
            available: capacity_rows,
        });
    }
    let mut part_of_row = vec![0u32; rows];
    let mut slot_of_row = vec![0u32; rows];
    let mut rows_per_part = vec![0u32; parts];
    let mut part_load = vec![0.0f64; parts];

    // Replica block: the hottest *in-range* rows, same slot on every
    // partition. The profile may cover more items than the table has
    // rows (check_inputs only requires `num_items >= rows`), and
    // indexing `part_of_row[r]` with a foreign hot item used to panic —
    // `items_by_frequency_in_range` is the shared guard (also used by
    // the placement planner) that keeps them out.
    let mut is_replicated = vec![false; rows];
    for (slot, &item) in by_freq.iter().take(replicate_top).enumerate() {
        let r = item as usize;
        part_of_row[r] = REPLICATED_ROW_PART;
        slot_of_row[r] = slot as u32;
        is_replicated[r] = true;
        let share = profile.count(item) as f64 / parts as f64;
        for load in part_load.iter_mut() {
            *load += share;
        }
    }

    // Remaining rows: greedy packing into slots after the block.
    let local_capacity = capacity_rows - replicate_top;
    for &item in &by_freq {
        let r = item as usize;
        if is_replicated[r] {
            continue;
        }
        // Every partition stores the replica block beside its own rows.
        let p = least_loaded_with_room(&part_load, &rows_per_part, 1, local_capacity).ok_or(
            CoreError::CapacityExceeded {
                table: None,
                partition: None,
                required: rows,
                available: replicate_top + local_capacity * parts,
            },
        )?;
        part_of_row[r] = p as u32;
        slot_of_row[r] = replicate_top as u32 + rows_per_part[p];
        rows_per_part[p] += 1;
        part_load[p] += profile.count(item) as f64;
    }
    Ok(RowAssignment {
        part_of_row,
        slot_of_row,
        rows_per_part,
        part_load,
    })
}

/// Output of [`cache_aware`]: the row assignment plus which cache lists
/// were actually placed (and where).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheAwareAssignment {
    /// Row assignment (cache-resident rows carry [`CACHED_ROW_SLOT`]).
    pub rows: RowAssignment,
    /// The cache lists that fit; order preserved from the input set.
    pub placed_lists: CacheListSet,
    /// Partition of each placed list (aligned with `placed_lists`).
    pub list_part: Vec<u32>,
    /// Cache combination rows used per partition.
    pub cache_rows_per_part: Vec<u32>,
}

/// §3.3 Algorithm 1 — cache-aware non-uniform partitioning.
///
/// Faithful to the paper's pseudocode:
/// 1. sort `obj_freq` descending (line 2);
/// 2. for each cache list (line 4): `benefit = list[-1]` (line 5);
///    place the whole list on the partition with the lowest running
///    `part_count` that has cache capacity left (line 6); charge each
///    item's frequency (line 9) and credit the benefit (line 10);
/// 3. every cache-miss item goes to the lowest-`part_count` partition
///    with EMT capacity left (lines 11–15).
///
/// Lists that fit nowhere degrade gracefully: their items are treated
/// as cache misses (the paper assumes sufficient capacity).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for zero partitions/rows;
/// [`CoreError::CapacityExceeded`] when EMT space runs out.
pub fn cache_aware(
    rows: usize,
    parts: usize,
    emt_capacity_rows: usize,
    cache_capacity_rows: usize,
    profile: &FreqProfile,
    cache_res: &CacheListSet,
) -> Result<CacheAwareAssignment> {
    check_inputs(rows, parts, profile)?;
    let mut part_of_row = vec![0u32; rows];
    let mut slot_of_row = vec![0u32; rows];
    let mut rows_per_part = vec![0u32; parts];
    let mut cache_rows_per_part = vec![0u32; parts];
    let mut part_count = vec![0.0f64; parts];
    let mut is_cached = vec![false; rows];
    let mut placed = CacheListSet::default();
    let mut list_part = Vec::new();

    // Lines 4-10: place each cache list.
    for list in &cache_res.lists {
        if list.items.iter().any(|&i| i as usize >= rows) {
            continue; // defensive: ignore lists referencing foreign items
        }
        let need = list.num_combinations() as u32;
        let p =
            least_loaded_with_room(&part_count, &cache_rows_per_part, need, cache_capacity_rows);
        let Some(p) = p else {
            continue; // no cache room anywhere: items fall through to EMT
        };
        for &item in &list.items {
            let r = item as usize;
            part_of_row[r] = p as u32;
            slot_of_row[r] = CACHED_ROW_SLOT;
            is_cached[r] = true;
            part_count[p] += profile.count(item) as f64; // line 9
        }
        part_count[p] -= list.benefit; // line 10
        cache_rows_per_part[p] += need;
        list_part.push(p as u32);
        placed.lists.push(list.clone());
    }

    // Lines 11-15: place cache-miss items by descending frequency.
    for item in profile.items_by_frequency_in_range(rows) {
        let r = item as usize;
        if is_cached[r] {
            continue;
        }
        let p = least_loaded_with_room(&part_count, &rows_per_part, 1, emt_capacity_rows)
            .ok_or_else(|| CoreError::CapacityExceeded {
                table: None,
                partition: None,
                required: is_cached.iter().filter(|&&c| !c).count(),
                available: emt_capacity_rows * parts,
            })?;
        part_of_row[r] = p as u32;
        slot_of_row[r] = rows_per_part[p];
        rows_per_part[p] += 1;
        part_count[p] += profile.count(item) as f64;
    }

    let rows_assignment = RowAssignment {
        part_of_row,
        slot_of_row,
        rows_per_part,
        part_load: part_count,
    };
    Ok(CacheAwareAssignment {
        rows: rows_assignment,
        placed_lists: placed,
        list_part,
        cache_rows_per_part,
    })
}

fn check_inputs(rows: usize, parts: usize, profile: &FreqProfile) -> Result<()> {
    if rows == 0 || parts == 0 {
        return Err(CoreError::InvalidConfig(format!(
            "rows ({rows}) and partitions ({parts}) must be nonzero"
        )));
    }
    if profile.num_items() < rows {
        return Err(CoreError::InvalidConfig(format!(
            "frequency profile covers {} items but table has {rows} rows",
            profile.num_items()
        )));
    }
    Ok(())
}

/// The partition with minimum load among those with at least `need`
/// units of room under `capacity`. Ties break toward the lower index.
fn least_loaded_with_room(load: &[f64], used: &[u32], need: u32, capacity: usize) -> Option<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cooccur_cache::CacheList;

    /// A profile where item popularity decays steeply (item 0 hottest)
    /// but no single item exceeds a balanced bin's share, so greedy
    /// packing can in principle balance it.
    fn skewed_profile(rows: usize) -> FreqProfile {
        let mut p = FreqProfile::new(rows);
        for i in 0..rows {
            let count = (rows - i) * 10;
            for _ in 0..count {
                p.record(i as u64);
            }
        }
        p
    }

    #[test]
    fn uniform_assigns_contiguous_blocks() {
        let p = skewed_profile(10);
        let a = uniform(10, 2, 100, &p).unwrap();
        assert_eq!(a.part_of_row, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        assert_eq!(a.slot_of_row, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        assert_eq!(a.rows_per_part, vec![5, 5]);
    }

    #[test]
    fn uniform_is_imbalanced_on_skewed_data() {
        let p = skewed_profile(64);
        let a = uniform(64, 8, 100, &p).unwrap();
        assert!(
            a.imbalance() > 1.5,
            "skew should surface: {}",
            a.imbalance()
        );
    }

    #[test]
    fn non_uniform_balances_skewed_data() {
        // The Fig. 6 claim: NU makes accesses per partition much more
        // balanced than U on a skewed trace.
        let p = skewed_profile(64);
        let u = uniform(64, 8, 100, &p).unwrap();
        let nu = non_uniform(64, 8, 100, &p).unwrap();
        assert!(nu.imbalance() < u.imbalance());
        assert!(nu.imbalance() < 1.5, "NU imbalance {}", nu.imbalance());
    }

    #[test]
    fn non_uniform_places_every_row_exactly_once() {
        let p = skewed_profile(37);
        let a = non_uniform(37, 4, 100, &p).unwrap();
        assert_eq!(a.part_of_row.len(), 37);
        let total: u32 = a.rows_per_part.iter().sum();
        assert_eq!(total, 37);
        // slots within a partition are unique and dense
        for part in 0..4u32 {
            let mut slots: Vec<u32> = (0..37)
                .filter(|&r| a.part_of_row[r] == part)
                .map(|r| a.slot_of_row[r])
                .collect();
            slots.sort_unstable();
            let expect: Vec<u32> = (0..slots.len() as u32).collect();
            assert_eq!(slots, expect);
        }
    }

    #[test]
    fn non_uniform_respects_capacity() {
        let p = skewed_profile(10);
        // capacity 3 rows x 2 parts = 6 < 10 rows -> error
        assert!(matches!(
            non_uniform(10, 2, 3, &p),
            Err(CoreError::CapacityExceeded { .. })
        ));
        // capacity 5 exactly fits
        let a = non_uniform(10, 2, 5, &p).unwrap();
        assert_eq!(a.rows_per_part, vec![5, 5]);
    }

    #[test]
    fn uniform_rejects_overfull_blocks() {
        let p = skewed_profile(10);
        assert!(matches!(
            uniform(10, 2, 4, &p),
            Err(CoreError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn zero_inputs_rejected() {
        let p = skewed_profile(4);
        assert!(uniform(0, 2, 10, &p).is_err());
        assert!(non_uniform(4, 0, 10, &p).is_err());
        let small = FreqProfile::new(2);
        assert!(uniform(4, 2, 10, &small).is_err());
    }

    fn two_lists() -> CacheListSet {
        CacheListSet {
            lists: vec![
                CacheList {
                    items: vec![0, 1],
                    benefit: 500.0,
                },
                CacheList {
                    items: vec![2, 3],
                    benefit: 300.0,
                },
            ],
        }
    }

    #[test]
    fn cache_aware_places_lists_and_misses() {
        let p = skewed_profile(16);
        let ca = cache_aware(16, 4, 100, 16, &p, &two_lists()).unwrap();
        assert_eq!(ca.placed_lists.lists.len(), 2);
        assert_eq!(ca.list_part.len(), 2);
        // Cached rows carry the sentinel slot.
        for r in 0..4usize {
            assert_eq!(ca.rows.slot_of_row[r], CACHED_ROW_SLOT, "row {r}");
        }
        // Non-cached rows have real slots.
        for r in 4..16usize {
            assert_ne!(ca.rows.slot_of_row[r], CACHED_ROW_SLOT);
        }
        // Every partition's EMT slots dense.
        let total_emt: u32 = ca.rows.rows_per_part.iter().sum();
        assert_eq!(total_emt, 12);
        // Cache rows: each 2-item list has 3 combos.
        assert_eq!(ca.cache_rows_per_part.iter().sum::<u32>(), 6);
    }

    #[test]
    fn cache_aware_credits_benefit() {
        // With a huge benefit, the partition hosting the list should end
        // up with *less* accounted load than its raw frequency sum, so
        // the next assignments gravitate toward it.
        let p = skewed_profile(8);
        let lists = CacheListSet {
            lists: vec![CacheList {
                items: vec![0, 1],
                benefit: 1e6,
            }],
        };
        let ca = cache_aware(8, 2, 100, 8, &p, &lists).unwrap();
        let cache_part = ca.list_part[0] as usize;
        // Load was credited far below zero, so everything else piles on.
        assert!(ca.rows.part_load[cache_part] < ca.rows.part_load[1 - cache_part]);
    }

    #[test]
    fn cache_aware_without_capacity_degrades_to_non_uniform() {
        let p = skewed_profile(16);
        let ca = cache_aware(16, 4, 100, 0, &p, &two_lists()).unwrap();
        assert!(ca.placed_lists.is_empty());
        assert_eq!(ca.rows.rows_per_part.iter().sum::<u32>(), 16);
        assert!(ca.rows.slot_of_row.iter().all(|&s| s != CACHED_ROW_SLOT));
        // And the result is balanced like NU.
        let nu = non_uniform(16, 4, 100, &p).unwrap();
        assert!((ca.rows.imbalance() - nu.imbalance()).abs() < 0.5);
    }

    #[test]
    fn cache_aware_balances_combined_load() {
        // The point of Alg. 1: after caching, combined (EMT + cache)
        // accesses stay balanced. Compare against naively running NU and
        // piling both lists onto one partition.
        let p = skewed_profile(64);
        let lists = CacheListSet {
            lists: vec![
                CacheList {
                    items: vec![0, 1, 2],
                    benefit: 800.0,
                },
                CacheList {
                    items: vec![3, 4],
                    benefit: 400.0,
                },
            ],
        };
        let ca = cache_aware(64, 8, 100, 16, &p, &lists).unwrap();
        // Lists land on different partitions (both are load magnets).
        assert_ne!(ca.list_part[0], ca.list_part[1]);
        assert!(
            ca.rows.imbalance() < 1.6,
            "CA imbalance {}",
            ca.rows.imbalance()
        );
    }

    #[test]
    fn cache_aware_ignores_out_of_range_lists() {
        let p = skewed_profile(8);
        let lists = CacheListSet {
            lists: vec![CacheList {
                items: vec![100, 101],
                benefit: 1.0,
            }],
        };
        let ca = cache_aware(8, 2, 100, 8, &p, &lists).unwrap();
        assert!(ca.placed_lists.is_empty());
    }

    #[test]
    fn strategy_display_matches_paper_tags() {
        assert_eq!(PartitionStrategy::Uniform.to_string(), "U");
        assert_eq!(PartitionStrategy::NonUniform.to_string(), "NU");
        assert_eq!(PartitionStrategy::CacheAware.to_string(), "CA");
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;

    /// One dominant item plus a flat tail: greedy NU cannot balance
    /// below the dominant item's frequency.
    fn dominated_profile(rows: usize, hot_count: u32) -> FreqProfile {
        let mut p = FreqProfile::new(rows);
        for _ in 0..hot_count {
            p.record(0);
        }
        for i in 1..rows {
            p.record(i as u64);
        }
        p
    }

    #[test]
    fn replication_beats_greedy_packing_on_a_dominant_row() {
        let rows = 64;
        let p = dominated_profile(rows, 1000);
        let nu = non_uniform(rows, 8, rows, &p).unwrap();
        let rep = replicated_non_uniform(rows, 8, rows, &p, 4).unwrap();
        assert!(nu.imbalance() > 3.0, "NU floor: {}", nu.imbalance());
        assert!(rep.imbalance() < 1.5, "NU+R: {}", rep.imbalance());
        // Load is conserved.
        let total: f64 = p.total_accesses() as f64;
        assert!((rep.part_load.iter().sum::<f64>() - total).abs() < 1e-6);
    }

    #[test]
    fn replica_block_layout_is_shared_and_local_slots_offset() {
        let rows = 16;
        let p = dominated_profile(rows, 50);
        let rep = replicated_non_uniform(rows, 4, rows, &p, 3).unwrap();
        // The three hottest rows carry the sentinel partition and slots 0..3.
        let mut replica_slots: Vec<u32> = (0..rows)
            .filter(|&r| rep.part_of_row[r] == REPLICATED_ROW_PART)
            .map(|r| rep.slot_of_row[r])
            .collect();
        replica_slots.sort_unstable();
        assert_eq!(replica_slots, vec![0, 1, 2]);
        // Every local slot starts after the replica block.
        for r in 0..rows {
            if rep.part_of_row[r] != REPLICATED_ROW_PART {
                assert!(
                    rep.slot_of_row[r] >= 3,
                    "row {r} slot {}",
                    rep.slot_of_row[r]
                );
            }
        }
        assert_eq!(rep.rows_per_part.iter().sum::<u32>() as usize, rows - 3);
    }

    #[test]
    fn replication_capacity_is_checked() {
        let p = dominated_profile(16, 10);
        assert!(matches!(
            replicated_non_uniform(16, 2, 4, &p, 5),
            Err(CoreError::CapacityExceeded { .. })
        ));
        // replicate_top larger than the table clamps gracefully.
        let all = replicated_non_uniform(8, 2, 16, &p, 100).unwrap();
        assert_eq!(all.rows_per_part.iter().sum::<u32>(), 0);
    }

    /// Regression: a frequency profile may cover more items than the
    /// table has rows (`check_inputs` only requires `num_items >= rows`),
    /// and the hottest items can be the out-of-range ones. The replica
    /// block used to index `part_of_row` with them and panic; it must
    /// skip them and replicate the hottest *in-range* rows instead.
    #[test]
    fn replication_skips_out_of_range_profile_items() {
        let rows = 8;
        let mut p = FreqProfile::new(16);
        // Items 8..16 (outside the table) are the hottest.
        for i in 8..16u64 {
            for _ in 0..100 {
                p.record(i);
            }
        }
        for i in 0..8u64 {
            for _ in 0..=(i as usize) {
                p.record(i);
            }
        }
        let rep = replicated_non_uniform(rows, 2, rows, &p, 3).unwrap();
        // Exactly the 3 hottest in-range rows (7, 6, 5) are replicated.
        let replicated: Vec<usize> = (0..rows)
            .filter(|&r| rep.part_of_row[r] == REPLICATED_ROW_PART)
            .collect();
        assert_eq!(replicated, vec![5, 6, 7]);
        // Every other row got a real partition and an offset slot.
        assert_eq!(rep.rows_per_part.iter().sum::<u32>() as usize, rows - 3);
        for r in 0..rows {
            if rep.part_of_row[r] != REPLICATED_ROW_PART {
                assert!(rep.slot_of_row[r] >= 3);
            }
        }
        // Only in-range frequency mass is distributed.
        let in_range: f64 = (0..8u64).map(|i| p.count(i) as f64).sum();
        assert!((rep.part_load.iter().sum::<f64>() - in_range).abs() < 1e-6);
    }

    #[test]
    fn zero_replicas_degenerates_to_non_uniform_balance() {
        let p = dominated_profile(32, 5);
        let nu = non_uniform(32, 4, 32, &p).unwrap();
        let rep = replicated_non_uniform(32, 4, 32, &p, 0).unwrap();
        assert!((nu.imbalance() - rep.imbalance()).abs() < 0.2);
    }
}
