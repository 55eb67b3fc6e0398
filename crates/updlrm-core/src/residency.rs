//! Which rows each DPU keeps WRAM-resident (DESIGN.md §7, "The WRAM
//! axis").
//!
//! Stage 2 pays one MRAM DMA per reference although a DPU has 64 KB of
//! WRAM and the reference stream is heavily skewed. The kernel can keep
//! a *prefix* of each region's slots in WRAM across launches
//! ([`ResidentRows`]); this module decides, per row partition, how long
//! the two prefixes are.
//!
//! * **Order.** A prefix is worth keeping only if the hot rows come
//!   first. The non-uniform and cache-aware partitioners already hand
//!   out EMT slots in descending profile frequency. Cache slots are
//!   handed out in descending *expected reference count* of their
//!   combination (`entry_refs`) by the engine, for this purpose (in
//!   store order the resident cache rows are whichever came first, and
//!   `pool_heavy`'s gain falls from 19% to 15%).
//! * **Budget.** The bytes [`upmem_sim::WramBudget`] leaves once the
//!   tasklet locals and the dedup accumulator block are placed, divided
//!   by the engines sharing the DPU
//!   ([`UpdlrmConfig::wram_tenants`](crate::UpdlrmConfig)).
//! * **Choice.** `pick_prefixes`: the pair of prefix lengths that
//!   covers the most expected references within the budget, exactly
//!   (every EMT length is tried against the longest cache prefix that
//!   still fits), from the same frequency profile the partitioner was
//!   fit to.

use crate::kernel::{ResidentRows, RESIDENT_TAG_BYTES};
use crate::partition::{RowAssignment, CACHED_ROW_SLOT, REPLICATED_ROW_PART};
use workloads::FreqProfile;

/// Expected references to each of a cache list's `2^k - 1` combination
/// rows, in mask order, from what a profile knows: each item's count
/// and the list's row fetches (`fetches` = the item counts' sum minus
/// the list's measured benefit — what Algorithm 1 charges the owning
/// partition).
///
/// A combination is read at most as often as its rarest item occurs;
/// the rows share `fetches` in proportion to that bound.
pub(crate) fn entry_refs(item_counts: &[f64], fetches: f64, out: &mut Vec<f64>) {
    let in_mask = |mask: usize| {
        let items = item_counts.iter().enumerate();
        items.filter(move |(j, _)| mask & (1 << j) != 0)
    };
    out.clear();
    out.extend(
        (1usize..1 << item_counts.len())
            .map(|mask| in_mask(mask).fold(f64::INFINITY, |m, (_, &c)| m.min(c))),
    );
    let bound: f64 = out.iter().sum();
    if bound > 0.0 {
        // Between "always together" and "never together".
        let c_max = item_counts.iter().copied().fold(0.0f64, f64::max);
        let scale = fetches.clamp(c_max, item_counts.iter().sum()) / bound;
        out.iter_mut().for_each(|e| *e *= scale);
    }
}

/// The resident prefixes of one partition and what they are expected to
/// cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PartResidency {
    /// Resident EMT slots.
    pub(crate) emt_rows: u32,
    /// Resident cache slots.
    pub(crate) cache_rows: u32,
    /// Expected references (profile counts) the resident rows serve.
    pub(crate) covered: f64,
}

impl PartResidency {
    /// The kernel's view, stamped with the fill generation.
    pub(crate) fn rows(&self, epoch: u32) -> ResidentRows {
        ResidentRows {
            emt_rows: self.emt_rows,
            cache_rows: self.cache_rows,
            epoch,
        }
    }
}

/// The prefix lengths `(i, j)` of `emt` and `cache` — expected
/// references per slot, in slot order — that cover the most references
/// with `RESIDENT_TAG_BYTES + i * emt_stride + j * row_bytes <=
/// budget_bytes`. Exact over prefix pairs: every `i` is tried with the
/// longest `j` that still fits. Slots nobody is expected to reference
/// are not kept (a longer prefix that covers no more is not taken), so
/// an all-zero profile keeps nothing.
pub(crate) fn pick_prefixes(
    emt: &[f64],
    emt_stride: usize,
    cache: &[f64],
    row_bytes: usize,
    budget_bytes: usize,
) -> PartResidency {
    let Some(budget) = budget_bytes.checked_sub(RESIDENT_TAG_BYTES) else {
        return PartResidency::default();
    };
    // cache_cover[j] = references covered by the first j cache slots.
    let mut cache_cover = Vec::with_capacity(cache.len().min(budget / row_bytes) + 1);
    cache_cover.push(0.0f64);
    for &c in cache.iter().take(budget / row_bytes) {
        cache_cover.push(cache_cover.last().expect("seeded") + c);
    }
    let mut best = PartResidency::default();
    let mut emt_cover = 0.0f64;
    for i in 0..=emt.len().min(budget / emt_stride) {
        if i > 0 {
            emt_cover += emt[i - 1];
        }
        let fit = ((budget - i * emt_stride) / row_bytes).min(cache_cover.len() - 1);
        // Shortest cache prefix with the same cover: drop trailing
        // zero-count slots.
        let mut j = fit;
        while j > 0 && cache_cover[j - 1] == cache_cover[fit] {
            j -= 1;
        }
        let covered = emt_cover + cache_cover[j];
        if covered > best.covered {
            best = PartResidency {
                emt_rows: i as u32,
                cache_rows: j as u32,
                covered,
            };
        }
    }
    best
}

/// Picks every partition's resident prefixes for one table.
///
/// `cache_refs[p]` holds partition `p`'s expected references per cache
/// slot (empty without a cache). With a `profile`, EMT slot `s` of
/// partition `p` weighs its row's count (a replicated row's, spread
/// over the partitions it is routed across); without one — a plan-built
/// engine, whose plan orders slots hottest-first but carries no counts
/// — every stored row weighs the same, so the longest prefix that fits
/// is kept and `covered` means nothing.
pub(crate) fn plan_table(
    assignment: &RowAssignment,
    n_replicas: usize,
    cache_refs: &[Vec<f64>],
    profile: Option<&FreqProfile>,
    (emt_stride, row_bytes): (usize, usize),
    budget_bytes: usize,
) -> Vec<PartResidency> {
    let parts = assignment.num_parts();
    if budget_bytes <= RESIDENT_TAG_BYTES {
        return vec![PartResidency::default(); parts];
    }
    // Only slots that could fit matter.
    let horizon = (budget_bytes - RESIDENT_TAG_BYTES) / emt_stride;
    let mut emt: Vec<Vec<f64>> = assignment
        .rows_per_part
        .iter()
        .map(|&n| vec![0.0; (n_replicas + n as usize).min(horizon)])
        .collect();
    match profile {
        None => emt.iter_mut().for_each(|w| w.fill(1.0)),
        Some(profile) => {
            let rows = assignment.part_of_row.iter().zip(&assignment.slot_of_row);
            for (r, (&p, &slot)) in rows.enumerate() {
                if slot == CACHED_ROW_SLOT || slot as usize >= horizon {
                    continue;
                }
                let count = profile.count(r as u64) as f64;
                if p == REPLICATED_ROW_PART {
                    for w in &mut emt {
                        w[slot as usize] = count / parts as f64;
                    }
                } else if let Some(w) = emt.get_mut(p as usize) {
                    // (A host-tier row's sentinel partition is no index.)
                    w[slot as usize] = count;
                }
            }
        }
    }
    let no_cache = Vec::new();
    (0..parts)
        .map(|p| {
            let cache = cache_refs.get(p).unwrap_or(&no_cache);
            pick_prefixes(&emt[p], emt_stride, cache, row_bytes, budget_bytes)
        })
        .collect()
}

/// Share of `profile`'s accesses to the first `rows` items that go to
/// the `k` most-referenced of them — what the tile-shape search expects
/// `k` resident rows to serve, before any placement exists.
pub(crate) fn top_rows_share(profile: &FreqProfile, rows: usize, k: usize) -> f64 {
    let in_range = &profile.counts()[..rows.min(profile.num_items())];
    let total: u64 = in_range.iter().sum();
    if total == 0 || k == 0 {
        return 0.0;
    }
    let mut counts = in_range.to_vec();
    if k < counts.len() {
        counts.select_nth_unstable_by(k, |a, b| b.cmp(a));
        counts.truncate(k);
    }
    counts.iter().sum::<u64>() as f64 / total as f64
}

/// What an engine keeps WRAM-resident, for `updlrm run`'s summary and
/// the tests ([`UpdlrmEngine::residency`](crate::UpdlrmEngine::residency)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyReport {
    /// Bytes of each DPU's WRAM this engine may fill with resident rows
    /// (the derived budget, after the division among
    /// [`UpdlrmConfig::wram_tenants`](crate::UpdlrmConfig)).
    pub budget_bytes: usize,
    /// Largest resident block on any DPU, tag included.
    pub max_bytes: usize,
    /// Most resident rows (EMT + cache) on any DPU.
    pub max_rows: usize,
    /// Most bytes of WRAM any DPU needs in all — tasklet locals, the
    /// dedup accumulator block at the staged batch capacity and the
    /// resident block; at most `WRAM_CAPACITY`.
    pub max_wram_bytes: usize,
    /// Share of stage-2 row reads the profile the engine was fit to
    /// expects the resident rows to serve; `None` when the engine was
    /// built without a profile (from a placement plan).
    pub predicted_hit_share: Option<f64>,
}

impl ResidencyReport {
    /// Bytes of WRAM a DPU has; the bound on
    /// [`ResidencyReport::max_wram_bytes`].
    pub const WRAM_BYTES: usize = upmem_sim::arch::WRAM_CAPACITY;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn refs(counts: &[f64], fetches: f64) -> Vec<f64> {
        let mut out = Vec::new();
        entry_refs(counts, fetches, &mut out);
        out
    }

    #[test]
    fn entry_refs_sum_to_the_fetches_and_rank_by_the_rarest_item() {
        // The estimates sum to the fetches, a combination weighs what
        // its rarest item allows, and a hotter item's combinations
        // outweigh a colder one's.
        let mixed = refs(&[90.0, 60.0, 10.0], 110.0);
        assert!((mixed.iter().sum::<f64>() - 110.0).abs() < 1e-9);
        assert!(mixed[0] > mixed[1] && mixed[1] > mixed[3]);
        // {0,1} is bounded by item 1, every mask with item 2 by item 2.
        assert_eq!(mixed[2], mixed[1]);
        assert!(mixed[3..].iter().all(|&e| e == mixed[3]));
        // Nothing referenced: nothing expected. Fetches outside what the
        // counts allow (a replan window against trace-scale benefits)
        // clamp instead of failing.
        assert_eq!(refs(&[0.0, 0.0], 0.0), vec![0.0; 3]);
        assert!((refs(&[5.0, 5.0], -3.0).iter().sum::<f64>() - 5.0).abs() < 1e-9);
        assert!((refs(&[5.0, 5.0], 99.0).iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn top_rows_share_is_the_mass_of_the_hottest_rows() {
        let mut profile = FreqProfile::new(6);
        for (item, n) in [(0u64, 1), (1, 50), (2, 9), (3, 30), (5, 10)] {
            (0..n).for_each(|_| profile.record(item));
        }
        assert_eq!(top_rows_share(&profile, 6, 0), 0.0);
        assert_eq!(top_rows_share(&profile, 6, 1), 0.5);
        assert_eq!(top_rows_share(&profile, 6, 2), 0.8);
        assert_eq!(top_rows_share(&profile, 6, 99), 1.0);
        // Only the table's own rows count.
        assert_eq!(top_rows_share(&profile, 3, 1), 50.0 / 60.0);
        assert_eq!(top_rows_share(&FreqProfile::new(4), 4, 2), 0.0);
    }

    #[test]
    fn prefixes_trade_the_two_regions_by_what_they_cover() {
        let tag = RESIDENT_TAG_BYTES;
        // Room for four 32-byte rows: the cache's top two beat EMT's tail.
        let emt = [9.0, 8.0, 1.0, 1.0];
        let cache = [7.0, 6.0, 0.5];
        let got = pick_prefixes(&emt, 32, &cache, 32, tag + 4 * 32);
        assert_eq!((got.emt_rows, got.cache_rows, got.covered), (2, 2, 30.0));
        // Half-size EMT records: six of them fit beside one cache row,
        // which is worth more than the two records it displaces.
        let got = pick_prefixes(&[5.0; 8], 16, &[11.0, 1.0], 32, tag + 4 * 32);
        assert_eq!((got.emt_rows, got.cache_rows, got.covered), (6, 1, 41.0));
        // An unsorted region (uniform partitioning): a prefix still pays
        // when a hot row sits behind a cold one.
        let got = pick_prefixes(&[0.0, 50.0, 0.0], 32, &[], 32, tag + 96);
        assert_eq!((got.emt_rows, got.cache_rows), (2, 0));
        // Nothing referenced, or no room behind the tag: nothing kept.
        assert_eq!(
            pick_prefixes(&[0.0; 4], 32, &[0.0; 4], 32, 4096),
            PartResidency::default()
        );
        assert_eq!(
            pick_prefixes(&emt, 32, &cache, 32, tag + 31),
            PartResidency::default()
        );
        assert_eq!(
            pick_prefixes(&emt, 32, &cache, 32, tag - 1),
            PartResidency::default()
        );
    }

    proptest! {
        /// The pick fits the budget and no other pair of prefixes covers
        /// more.
        #[test]
        fn the_pick_is_the_best_prefix_pair_that_fits(
            emt in prop::collection::vec(0u32..50, 0..24),
            cache in prop::collection::vec(0u32..50, 0..24),
            int8 in any::<bool>(),
            budget in 0usize..900,
        ) {
            let emt: Vec<f64> = emt.into_iter().map(f64::from).collect();
            let cache: Vec<f64> = cache.into_iter().map(f64::from).collect();
            let (emt_stride, row_bytes) = (if int8 { 16 } else { 32 }, 32);
            let got = pick_prefixes(&emt, emt_stride, &cache, row_bytes, budget);
            let bytes = |i: usize, j: usize| RESIDENT_TAG_BYTES + i * emt_stride + j * row_bytes;
            let cover = |i: usize, j: usize| {
                emt[..i].iter().sum::<f64>() + cache[..j].iter().sum::<f64>()
            };
            let (gi, gj) = (got.emt_rows as usize, got.cache_rows as usize);
            if gi + gj > 0 {
                prop_assert!(bytes(gi, gj) <= budget);
            }
            prop_assert_eq!(got.covered, cover(gi, gj));
            for i in 0..=emt.len() {
                for j in 0..=cache.len() {
                    if bytes(i, j) <= budget {
                        prop_assert!(cover(i, j) <= got.covered, "({}, {}) beats the pick", i, j);
                    }
                }
            }
        }
    }
}
