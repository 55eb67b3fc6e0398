//! Functional partial-sum cache storage and lookup.
//!
//! Indexes every combination row of a [`CacheListSet`] over an
//! embedding table and answers, for a sample's index list, which cached
//! partial sums can serve it and which indices remain for regular EMT
//! lookups. The fundamental correctness invariant — cache rows plus
//! residual rows reconstruct the exact full reduction — is what the
//! property tests of this crate pin down.
//!
//! The store holds no row: an entry is a (list, mask) pair, and its
//! partial sum is computed from the table's rows by
//! [`PartialSumCache::entry_sum_into`] whenever it is needed — by the
//! engine's tile writer, straight into the MRAM slice that serves it.

use crate::mine::{CacheList, CacheListSet};
use dlrm_model::{simd, EmbeddingTable, ModelError, Result};
use std::ops::Range;

/// Result of a cache lookup for one sample.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheHit {
    /// Entry indices of the matched combinations (see
    /// [`PartialSumCache::entry_items`]).
    pub entries: Vec<usize>,
    /// Sample indices not covered by any cached combination.
    pub residual: Vec<u64>,
}

impl CacheHit {
    /// Memory accesses saved versus looking up every index (one cache
    /// read replaces `k` row reads).
    pub fn accesses_saved(&self, sample_len: usize) -> usize {
        sample_len - (self.entries.len() + self.residual.len())
    }
}

/// Running hit/miss and traffic counters for partial-sum cache lookups
/// — a fixed-size `Copy` cell a serving loop folds every sample's
/// [`CacheHit`] into, so cache telemetry needs no heap allocation.
///
/// The counters speak in *row fetches*: one matched cache entry is one
/// cached-combination row read, one residual index is one EMT row read.
/// Multiplying by the row size gives the two traffic streams the
/// cache-aware partitioner balances (UpDLRM Algorithm 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTraffic {
    /// Samples probed against the cache.
    pub lookups: u64,
    /// Raw embedding-row references across those samples.
    pub refs: u64,
    /// Cached combination rows fetched (partial-sum traffic).
    pub hit_entries: u64,
    /// References covered by those cached combinations.
    pub covered_refs: u64,
    /// References falling through to EMT row fetches.
    pub residual_refs: u64,
}

impl CacheTraffic {
    /// Folds one sample's lookup result into the running counters.
    pub fn record(&mut self, sample_len: usize, hit: &CacheHit) {
        self.lookups += 1;
        self.refs += sample_len as u64;
        self.hit_entries += hit.entries.len() as u64;
        self.residual_refs += hit.residual.len() as u64;
        self.covered_refs += (sample_len - hit.residual.len()) as u64;
    }

    /// Adds another cell's counters (a serving loop counts a batch
    /// locally and folds it in once).
    pub fn merge(&mut self, other: &CacheTraffic) {
        self.lookups += other.lookups;
        self.refs += other.refs;
        self.hit_entries += other.hit_entries;
        self.covered_refs += other.covered_refs;
        self.residual_refs += other.residual_refs;
    }

    /// Fraction of references served from cached combinations
    /// (`0.0` before the first reference).
    pub fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.covered_refs as f64 / self.refs as f64
        }
    }

    /// Row fetches avoided versus looking up every reference: covered
    /// references minus the cache rows read in their place.
    pub fn fetches_saved(&self) -> u64 {
        self.covered_refs - self.hit_entries
    }
}

/// Reusable working state for [`PartialSumCache::lookup_into`]. One
/// scratch serves caches of any size; every field is grow-only and all
/// zero (or empty) between calls.
#[derive(Debug, Default)]
pub struct LookupScratch {
    /// Mask accumulated per cache list for the current sample,
    /// direct-mapped by list index.
    mask_of_list: Vec<u32>,
    /// One bit per cache list with a nonzero mask. Walking its set bits
    /// visits the touched lists in ascending order — the (list, mask)
    /// entry order — in O(lists / 64 + touched) with no sort.
    touched_bits: Vec<u64>,
    /// Single-item entries serving repeated cached indices, in sample
    /// order.
    repeats: Vec<usize>,
}

/// Partial-sum cache index for one embedding table: which combination
/// entries exist and which items each one sums. Four flat arrays, so
/// its size and its heap allocations do not grow with the number of
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSumCache {
    /// item -> packed `(list << 5 | bit) + 1` (0 = not cached),
    /// direct-mapped over the table's rows. Read once per sample index
    /// on the serving path, so this trades one word per table row
    /// (under 1% of the row data itself) for a branch-free probe.
    item_pos: Vec<u32>,
    /// Entry index of each list's `mask = 1` row, then the entry count.
    /// Entries are list-major, mask-minor and complete, so `(l, mask)`
    /// lives at `list_base[l] + mask - 1`.
    list_base: Vec<usize>,
    /// Every list's items, list after list, in list order.
    items: Vec<u64>,
    /// Where each list's items start in `items`, then `items.len()`.
    item_starts: Vec<usize>,
    dim: usize,
}

/// A cache list holds at most [`CacheList::MAX_ITEMS`] (20) items, so the
/// bit position fits in the low 5 bits of the packed `item_pos` word.
const POS_BIT_WIDTH: u32 = 5;

impl PartialSumCache {
    /// Indexes all `2^k - 1` combination entries of every list over
    /// `table`. No row is summed here: see
    /// [`PartialSumCache::entry_sum_into`].
    ///
    /// # Errors
    ///
    /// Fails if any listed item is out of range for `table`.
    pub fn materialize(lists: &CacheListSet, table: &EmbeddingTable) -> Result<Self> {
        let mut item_pos = vec![0u32; table.rows()];
        let mut list_base = Vec::with_capacity(lists.lists.len() + 1);
        let mut items = Vec::with_capacity(lists.lists.iter().map(|l| l.items.len()).sum());
        let mut item_starts = Vec::with_capacity(lists.lists.len() + 1);
        let mut entries = 0usize;
        for (l, list) in lists.lists.iter().enumerate() {
            if list.items.len() > CacheList::MAX_ITEMS {
                return Err(ModelError::InvalidConfig(format!(
                    "cache list of {} items would need 2^{} combination rows",
                    list.items.len(),
                    list.items.len()
                )));
            }
            for (bit, &item) in list.items.iter().enumerate() {
                let slot = item_pos.get_mut(item as usize).ok_or_else(|| {
                    ModelError::InvalidConfig(format!(
                        "cache list item {item} out of range for {} table rows",
                        table.rows()
                    ))
                })?;
                *slot = ((l as u32) << POS_BIT_WIDTH | bit as u32) + 1;
            }
            list_base.push(entries);
            item_starts.push(items.len());
            items.extend_from_slice(&list.items);
            entries += list.num_combinations();
        }
        list_base.push(entries);
        item_starts.push(items.len());
        Ok(PartialSumCache {
            item_pos,
            list_base,
            items,
            item_starts,
            dim: table.dim(),
        })
    }

    /// Number of combination entries (entry indices are `0..` this, in
    /// list-major, mask-minor order).
    pub fn num_entries(&self) -> usize {
        *self
            .list_base
            .last()
            .expect("list_base ends with the entry count")
    }

    /// The list entry `e` belongs to, as an index into the
    /// originating [`CacheListSet`].
    pub fn entry_list(&self, e: usize) -> usize {
        assert!(e < self.num_entries(), "entry {e} out of range");
        self.list_base.partition_point(|&base| base <= e) - 1
    }

    /// Bitmask over its list's items selecting entry `e`'s combination.
    pub fn entry_mask(&self, e: usize) -> u32 {
        (e - self.list_base[self.entry_list(e)] + 1) as u32
    }

    /// Entry `e`'s items, in list order.
    pub fn entry_items(&self, e: usize) -> impl Iterator<Item = u64> + '_ {
        let l = self.entry_list(e);
        let mask = e - self.list_base[l] + 1;
        let list = &self.items[self.item_starts[l]..self.item_starts[l + 1]];
        list.iter()
            .enumerate()
            .filter(move |&(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &i)| i)
    }

    /// Writes columns `cols` of entry `e`'s partial sum into `out`
    /// (`cols.len()` wide): zero, then each item's row slice added in
    /// list order — per element the additions
    /// [`EmbeddingTable::partial_sum`] makes, so the result is that
    /// sum's `cols`, bit for bit. `table` must be the table the cache
    /// was indexed over.
    ///
    /// # Errors
    ///
    /// Fails if an item is out of range for `table`.
    pub fn entry_sum_into(
        &self,
        e: usize,
        table: &EmbeddingTable,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        out.fill(0.0);
        for i in self.entry_items(e) {
            simd::add_assign(out, &table.row(i)?[cols.clone()]);
        }
        Ok(())
    }

    /// Embedding dimension of the cached rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total storage bytes of the cached rows.
    pub fn storage_bytes(&self) -> usize {
        self.num_entries() * self.dim * 4
    }

    /// Splits a sample's index list into cached combinations and
    /// residual indices.
    ///
    /// For each cache list, the intersection with the sample maps to
    /// exactly one combination row (its bitmask); intersections of size
    /// one are served from the cache too (the single-item combination is
    /// cached), everything else becomes residual EMT lookups. See
    /// [`PartialSumCache::lookup_into`] for the order of the result.
    pub fn lookup(&self, sample: &[u64]) -> CacheHit {
        let mut out = CacheHit::default();
        self.lookup_into(sample, &mut LookupScratch::default(), &mut out);
        out
    }

    /// [`PartialSumCache::lookup`] writing into a caller-owned
    /// [`CacheHit`] (cleared first, capacity reused) via reusable
    /// working state — the zero-allocation form used by the serving
    /// path, one pass over the sample plus a walk of the touched lists.
    ///
    /// The order of the result is part of the contract (it fixes the
    /// f32 summation order downstream):
    ///
    /// 1. `entries` starts with one combination per touched list, in
    ///    ascending (list, mask) order;
    /// 2. then, for every *repeated* occurrence of a cached index (a
    ///    sample may name a row twice; the mask can only count it
    ///    once), that item's single-item entry, in sample order;
    /// 3. `residual` holds the uncached indices in sample order,
    ///    repeats included.
    pub fn lookup_into(&self, sample: &[u64], scratch: &mut LookupScratch, out: &mut CacheHit) {
        out.entries.clear();
        out.residual.clear();
        let n_lists = self.list_base.len() - 1;
        let n_words = n_lists.div_ceil(64);
        if scratch.mask_of_list.len() < n_lists {
            scratch.mask_of_list.resize(n_lists, 0);
            scratch.touched_bits.resize(n_words, 0);
        }
        for &i in sample {
            // One array read per index; uncached items (and indices past
            // the direct map, which only happens for corrupt samples the
            // downstream lookup rejects anyway) go to the residual list.
            match self.item_pos.get(i as usize).copied().unwrap_or(0) {
                0 => out.residual.push(i),
                packed => {
                    let l = ((packed - 1) >> POS_BIT_WIDTH) as usize;
                    let bit = 1u32 << ((packed - 1) & ((1 << POS_BIT_WIDTH) - 1));
                    let m = &mut scratch.mask_of_list[l];
                    if *m & bit != 0 {
                        scratch.repeats.push(self.list_base[l] + bit as usize - 1);
                    } else {
                        *m |= bit;
                        scratch.touched_bits[l / 64] |= 1 << (l % 64);
                    }
                }
            }
        }
        for (w, word) in scratch.touched_bits[..n_words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let l = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mask = std::mem::take(&mut scratch.mask_of_list[l]);
                out.entries.push(self.list_base[l] + mask as usize - 1);
            }
        }
        out.entries.append(&mut scratch.repeats);
    }

    /// Reconstructs a sample's full reduction from a lookup — reference
    /// combining logic used by tests and the CPU-side aggregator.
    pub fn reduce_with_table(&self, hit: &CacheHit, table: &EmbeddingTable) -> Result<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        let mut row = vec![0.0f32; self.dim];
        for &e in &hit.entries {
            self.entry_sum_into(e, table, 0..self.dim, &mut row)?;
            simd::add_assign(&mut acc, &row);
        }
        let residual_sum = table.partial_sum(&hit.residual)?;
        simd::add_assign(&mut acc, &residual_sum);
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmbeddingTable {
        EmbeddingTable::random_integer_valued(32, 4, 3, 99).unwrap()
    }

    fn lists() -> CacheListSet {
        CacheListSet {
            lists: vec![
                CacheList {
                    items: vec![1, 2, 3],
                    benefit: 10.0,
                },
                CacheList {
                    items: vec![7, 8],
                    benefit: 5.0,
                },
            ],
        }
    }

    fn items(c: &PartialSumCache, e: usize) -> Vec<u64> {
        c.entry_items(e).collect()
    }

    #[test]
    fn materializes_all_combinations() {
        let c = PartialSumCache::materialize(&lists(), &table()).unwrap();
        assert_eq!(c.num_entries(), 7 + 3);
        assert_eq!(c.storage_bytes(), 10 * 4 * 4);
        // List-major, mask-minor.
        let lm: Vec<(usize, u32)> = (0..c.num_entries())
            .map(|e| (c.entry_list(e), c.entry_mask(e)))
            .collect();
        let want: Vec<(usize, u32)> = (1..8)
            .map(|m| (0, m))
            .chain((1..4).map(|m| (1, m)))
            .collect();
        assert_eq!(lm, want);
        assert_eq!(items(&c, 3), [3]);
        assert_eq!(items(&c, 4), [1, 3]);
        assert_eq!(items(&c, 6), [1, 2, 3]);
        assert_eq!(items(&c, 9), [7, 8]);
        let empty = PartialSumCache::materialize(&CacheListSet::default(), &table()).unwrap();
        assert_eq!(empty.num_entries(), 0);
        assert!(empty.lookup(&[1, 2]).entries.is_empty());
    }

    #[test]
    fn combination_vectors_are_sums() {
        let t = table();
        let c = PartialSumCache::materialize(&lists(), &t).unwrap();
        let mut row = vec![f32::NAN; 4];
        for e in 0..c.num_entries() {
            let expect = t.partial_sum(&items(&c, e)).unwrap();
            c.entry_sum_into(e, &t, 0..4, &mut row).unwrap();
            assert_eq!(row, expect);
            let mut slice = [f32::NAN; 2];
            c.entry_sum_into(e, &t, 1..3, &mut slice).unwrap();
            assert_eq!(slice, expect[1..3]);
        }
    }

    #[test]
    fn lookup_splits_cached_and_residual() {
        let c = PartialSumCache::materialize(&lists(), &table()).unwrap();
        // Paper's Fig. 7 example shape: 4 and 5 cached together, 1 not.
        let hit = c.lookup(&[1, 2, 20]);
        assert_eq!(hit.entries.len(), 1);
        assert_eq!(hit.residual, vec![20]);
        assert_eq!(hit.accesses_saved(3), 1);
        assert_eq!(items(&c, hit.entries[0]), vec![1, 2]);
    }

    #[test]
    fn lookup_spanning_two_lists() {
        let c = PartialSumCache::materialize(&lists(), &table()).unwrap();
        let hit = c.lookup(&[1, 3, 7, 8, 30]);
        assert_eq!(hit.entries.len(), 2);
        assert_eq!(hit.residual, vec![30]);
        assert_eq!(hit.accesses_saved(5), 2);
    }

    #[test]
    fn reduce_reconstructs_full_sum() {
        let t = table();
        let c = PartialSumCache::materialize(&lists(), &t).unwrap();
        let sample = [1u64, 2, 3, 7, 20, 25];
        let hit = c.lookup(&sample);
        let via_cache = c.reduce_with_table(&hit, &t).unwrap();
        let direct = t.partial_sum(&sample).unwrap();
        assert_eq!(via_cache, direct);
    }

    #[test]
    fn repeated_indices_are_each_served_once() {
        let t = table();
        let c = PartialSumCache::materialize(&lists(), &t).unwrap();
        let sample = [2u64, 1, 20, 1, 7, 20, 2, 1];
        let hit = c.lookup(&sample);
        // Ordered (list, mask) entries first, then one single-item
        // entry per repeat in sample order; residual keeps its repeats.
        let served: Vec<Vec<u64>> = hit.entries.iter().map(|&e| items(&c, e)).collect();
        assert_eq!(served, [&[1, 2][..], &[7], &[1], &[2], &[1]]);
        assert_eq!(hit.residual, vec![20, 20]);
        assert_eq!(
            c.reduce_with_table(&hit, &t).unwrap(),
            t.partial_sum(&sample).unwrap()
        );
    }

    #[test]
    fn empty_sample_is_all_residual() {
        let c = PartialSumCache::materialize(&lists(), &table()).unwrap();
        let hit = c.lookup(&[]);
        assert!(hit.entries.is_empty());
        assert!(hit.residual.is_empty());
        assert_eq!(hit.accesses_saved(0), 0);
    }

    #[test]
    fn cache_traffic_counts_rows_and_rates() {
        let c = PartialSumCache::materialize(&lists(), &table()).unwrap();
        let mut traffic = CacheTraffic::default();
        assert_eq!(traffic.hit_rate(), 0.0);

        // [1, 2, 20]: one cached combination covering 2 refs, 1 residual.
        let hit = c.lookup(&[1, 2, 20]);
        traffic.record(3, &hit);
        // [1, 3, 7, 8, 30]: two combinations covering 4 refs, 1 residual.
        let hit = c.lookup(&[1, 3, 7, 8, 30]);
        traffic.record(5, &hit);

        assert_eq!(traffic.lookups, 2);
        assert_eq!(traffic.refs, 8);
        assert_eq!(traffic.hit_entries, 3);
        assert_eq!(traffic.covered_refs, 6);
        assert_eq!(traffic.residual_refs, 2);
        assert_eq!(traffic.fetches_saved(), 3);
        assert!((traffic.hit_rate() - 6.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_list_is_rejected() {
        let big = CacheListSet {
            lists: vec![CacheList {
                items: (0..21).collect(),
                benefit: 0.0,
            }],
        };
        assert!(PartialSumCache::materialize(&big, &table()).is_err());
    }

    #[test]
    fn out_of_range_item_is_rejected() {
        let bad = CacheListSet {
            lists: vec![CacheList {
                items: vec![1000, 1001],
                benefit: 0.0,
            }],
        };
        assert!(PartialSumCache::materialize(&bad, &table()).is_err());
    }
}
