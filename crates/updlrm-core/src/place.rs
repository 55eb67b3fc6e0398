//! Where one table's rows live: the single path from a strategy and a
//! profile to a [`Placement`] (DESIGN.md §4.11).
//!
//! The engine builds every table with [`place`], and the replanner
//! refits every table with the same function — only the profile (the
//! sliding window instead of the fit trace) and the capacities (the
//! staged MRAM regions instead of the configured bounds) differ. A
//! placement plan's assignment goes through the same tail
//! ([`Placement::new`]), so the replica block and the WRAM-resident
//! prefixes of every engine come from one place.

use crate::config::UpdlrmConfig;
use crate::error::Result;
use crate::kernel::CACHE_REF_BIT;
use crate::partition::{self, CacheAwareAssignment, PartitionStrategy, RowAssignment};
use crate::replan::PartLists;
use crate::residency::{self, PartResidency};
use crate::tiling::Tiling;
use cooccur_cache::{CacheListSet, PartialSumCache};
use dlrm_model::EmbeddingTable;
use workloads::FreqProfile;

/// One table's placement: what every EMT slot and every cache slot of
/// each partition holds, and which of them its DPUs keep in WRAM. A
/// build installs one; a migration stages one in the inactive regions
/// and installs it at the flip.
pub(crate) struct Placement {
    /// Row → (partition, slot). Beyond the partitioners' sentinels a
    /// plan-built table marks host-tier rows with
    /// [`placement::HOST_ROW_PART`]; their slot indexes the host store.
    pub(crate) assignment: RowAssignment,
    /// Rows replicated into every partition, in replica-slot order.
    pub(crate) replicas: Vec<u32>,
    /// The partial-sum cache; `None` outside cache-aware placement.
    pub(crate) cache: Option<CachePlacement>,
    /// Per row partition: the slot prefixes its DPUs keep WRAM-resident.
    pub(crate) resident: Vec<PartResidency>,
}

impl Placement {
    /// Whether `other` writes the same tiles and tasks as `self`: every
    /// row in the same (partition, slot), the same replica block, the
    /// same cache entry routes and the same WRAM-resident prefixes. The
    /// predicted loads the two were fitted with do not count: windows
    /// with one ranking but different totals give one layout.
    pub(crate) fn same_layout(&self, other: &Placement) -> bool {
        let (a, b) = (&self.assignment, &other.assignment);
        fn routes(c: &CachePlacement) -> (&[(u32, u32)], usize) {
            (&c.entry_route, c.placed_lists)
        }
        let prefix = |r: &PartResidency| (r.emt_rows, r.cache_rows);
        a.part_of_row == b.part_of_row
            && a.slot_of_row == b.slot_of_row
            && self.replicas == other.replicas
            && self.cache.as_ref().map(routes) == other.cache.as_ref().map(routes)
            && self
                .resident
                .iter()
                .map(prefix)
                .eq(other.resident.iter().map(prefix))
    }
}

/// The cache half of a cache-aware [`Placement`].
pub(crate) struct CachePlacement {
    pub(crate) store: PartialSumCache,
    /// Per store entry: `(partition, CACHE_REF_BIT | cache slot)` — where
    /// a hit on the entry goes and the reference word it becomes.
    pub(crate) entry_route: Vec<(u32, u32)>,
    pub(crate) cache_rows_per_part: Vec<u32>,
    pub(crate) placed_lists: usize,
}

impl CachePlacement {
    /// Inverts the entry routes into per-partition slot order: element
    /// `s` of `out.part(p)` is the store entry at slot `s` of partition
    /// `p`'s cache region.
    pub(crate) fn entries_in_parts(&self, out: &mut PartLists) {
        out.reset(&self.cache_rows_per_part);
        for (e, &(p, word)) in self.entry_route.iter().enumerate() {
            out.set(p as usize, (word & !CACHE_REF_BIT) as usize, e as u32);
        }
    }
}

/// Places one table: Algorithm 1's strategy `match`, the only one in
/// the crate. `capacity` is `(EMT, cache)` rows per partition — the
/// configured bounds at build, the staged regions' sizes at a refit —
/// and `lists` the (truncated) mined list set a cache-aware placement
/// draws from (ignored by the other strategies). The cache rows are
/// summed from `table` and the WRAM-resident prefixes weighed by
/// `profile`, the traffic the placement is fit to.
///
/// # Errors
///
/// Partitioner errors (a placement that cannot fit `capacity`) and
/// cache lists the store cannot materialize. A refit treats any error
/// as "decline this replan".
pub(crate) fn place(
    config: &UpdlrmConfig,
    tiling: &Tiling,
    strategy: PartitionStrategy,
    table: &EmbeddingTable,
    profile: &FreqProfile,
    lists: &CacheListSet,
    (emt_cap_rows, cache_cap_rows): (usize, usize),
) -> Result<Placement> {
    let (rows, parts) = (table.rows(), tiling.row_parts);
    let (assignment, cache) = match strategy {
        PartitionStrategy::Uniform => (
            partition::uniform(rows, parts, emt_cap_rows, profile)?,
            None,
        ),
        PartitionStrategy::NonUniform => (
            partition::non_uniform(rows, parts, emt_cap_rows, profile)?,
            None,
        ),
        PartitionStrategy::Replicated => (
            partition::replicated_non_uniform(
                rows,
                parts,
                emt_cap_rows,
                profile,
                config.replicate_top,
            )?,
            None,
        ),
        PartitionStrategy::CacheAware => {
            let ca =
                partition::cache_aware(rows, parts, emt_cap_rows, cache_cap_rows, profile, lists)?;
            let store = PartialSumCache::materialize(&ca.placed_lists, table)?;
            let (entry_route, slot_refs) = cache_entry_routes(&ca, profile);
            let cache = CachePlacement {
                store,
                entry_route,
                cache_rows_per_part: ca.cache_rows_per_part,
                placed_lists: ca.placed_lists.lists.len(),
            };
            (ca.rows, Some((cache, slot_refs)))
        }
    };
    let placement = Placement::new(config, tiling, assignment, cache, Some(profile));
    Ok(placement)
}

impl Placement {
    /// The tail every placement ends in: the replica block read off
    /// `assignment`, and every partition's WRAM-resident slot prefixes
    /// ([`residency::plan_table`] at this engine's budget and row
    /// strides) — weighed by `profile`, or by slot order without one
    /// (a plan's assignment). `cache` comes with, per partition, the
    /// references the profile expects each cache slot to serve.
    pub(crate) fn new(
        config: &UpdlrmConfig,
        tiling: &Tiling,
        assignment: RowAssignment,
        cache: Option<(CachePlacement, Vec<Vec<f64>>)>,
        profile: Option<&FreqProfile>,
    ) -> Placement {
        let replicas = replica_block(&assignment);
        let (cache, slot_refs) = cache.unzip();
        let resident = residency::plan_table(
            &assignment,
            replicas.len(),
            slot_refs.as_deref().unwrap_or_default(),
            profile,
            (
                config.embed_dtype.stored_row_bytes(tiling.n_c),
                tiling.row_bytes(),
            ),
            config.wram_resident_bytes(tiling.n_c),
        );
        Placement {
            assignment,
            replicas,
            cache,
            resident,
        }
    }
}

/// The replicated rows of `assignment` in replica-slot order (the
/// shared block layout every partition stores at its region start).
fn replica_block(assignment: &RowAssignment) -> Vec<u32> {
    let mut replicas: Vec<(u32, u32)> = assignment
        .part_of_row
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == partition::REPLICATED_ROW_PART)
        .map(|(r, _)| (assignment.slot_of_row[r], r as u32))
        .collect();
    replicas.sort_unstable();
    replicas.into_iter().map(|(_, r)| r).collect()
}

/// Assigns cache slots for a cache-aware placement and returns each
/// store entry's route (see [`CachePlacement::entry_route`]) — entries
/// in the store's (list-major, mask-minor) order — with, per partition,
/// the references `profile` expects each slot to serve, descending.
/// Within a partition slots go to the combinations in descending
/// expected references ([`residency::entry_refs`]; ties in entry
/// order), so that the hottest cached rows form a prefix of the region.
fn cache_entry_routes(
    ca: &CacheAwareAssignment,
    profile: &FreqProfile,
) -> (Vec<(u32, u32)>, Vec<Vec<f64>>) {
    let parts = ca.cache_rows_per_part.len();
    // Per partition: (expected references, entry).
    let mut ranked: Vec<Vec<(f64, u32)>> = ca
        .cache_rows_per_part
        .iter()
        .map(|&n| Vec::with_capacity(n as usize))
        .collect();
    let (mut counts, mut refs) = (Vec::new(), Vec::new());
    let mut entry = 0u32;
    for (list, &p) in ca.placed_lists.lists.iter().zip(&ca.list_part) {
        counts.clear();
        counts.extend(list.items.iter().map(|&i| profile.count(i) as f64));
        let fetches = counts.iter().sum::<f64>() - list.benefit;
        residency::entry_refs(&counts, fetches, &mut refs);
        for &r in &refs {
            ranked[p as usize].push((r, entry));
            entry += 1;
        }
    }
    let mut entry_route = vec![(0u32, 0u32); entry as usize];
    let mut slot_refs = Vec::with_capacity(parts);
    for (p, entries) in ranked.iter_mut().enumerate() {
        entries.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (slot, &(_, e)) in entries.iter().enumerate() {
            entry_route[e as usize] = (p as u32, CACHE_REF_BIT | slot as u32);
        }
        slot_refs.push(entries.iter().map(|&(r, _)| r).collect());
    }
    (entry_route, slot_refs)
}
