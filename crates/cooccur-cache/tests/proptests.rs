//! Property tests for the partial-sum cache: the cache must never change
//! the result of a reduction, only the number of memory accesses.

use cooccur_cache::{CacheHit, CacheList, CacheListSet, LookupScratch, PartialSumCache};
use dlrm_model::EmbeddingTable;
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a set of disjoint cache lists over items `0..n`.
fn disjoint_lists(n: u64) -> impl Strategy<Value = CacheListSet> {
    disjoint_lists_up_to(n, 4)
}

/// Strategy: fewer than `max_lists` disjoint cache lists over `0..n`.
fn disjoint_lists_up_to(n: u64, max_lists: usize) -> impl Strategy<Value = CacheListSet> {
    prop::collection::vec(1usize..5, 0..max_lists).prop_map(move |sizes| {
        let mut next = 0u64;
        let mut lists = Vec::new();
        for s in sizes {
            let items: Vec<u64> = (next..next + s as u64 + 1).take_while(|&i| i < n).collect();
            next += s as u64 + 1;
            if items.len() >= 2 {
                lists.push(CacheList {
                    items,
                    benefit: 1.0,
                });
            }
        }
        CacheListSet { lists }
    })
}

/// `lookup_into` written from its doc comment with no index structures:
/// per-list intersection -> mask -> linear search of the entries, then
/// the single-item entry of every repeated cached index, in sample order.
fn naive_lookup(lists: &CacheListSet, cache: &PartialSumCache, sample: &[u64]) -> CacheHit {
    let find = |list: usize, mask: u32| {
        (0..cache.num_entries())
            .position(|e| cache.entry_list(e) == list && cache.entry_mask(e) == mask)
            .expect("every (list, mask) combination is materialized")
    };
    let pos = |i: u64| {
        lists.lists.iter().enumerate().find_map(|(l, list)| {
            let bit = list.items.iter().position(|&x| x == i)?;
            Some((l, bit))
        })
    };
    let mut hit = CacheHit::default();
    for (l, list) in lists.lists.iter().enumerate() {
        let mask = (0..list.items.len())
            .filter(|&b| sample.contains(&list.items[b]))
            .fold(0u32, |m, b| m | 1 << b);
        if mask != 0 {
            hit.entries.push(find(l, mask));
        }
    }
    for (n, &i) in sample.iter().enumerate() {
        match pos(i) {
            Some((l, bit)) if sample[..n].contains(&i) => hit.entries.push(find(l, 1 << bit)),
            Some(_) => {}
            None => hit.residual.push(i),
        }
    }
    hit
}

/// Table rows of the naive-reference test: room for 150 disjoint lists.
const ROWS: u64 = 400;

proptest! {
    /// `lookup_into` (with a scratch reused across differently sized
    /// caches, up to 150 lists so the touched-list bitmap spans several
    /// words) equals the naive reference — entry order, residual order
    /// — on samples with repeats, uncached items and indices past the
    /// table, and reconstructs the direct reduction whenever that
    /// exists.
    #[test]
    fn lookup_matches_naive_reference(
        lists in disjoint_lists_up_to(ROWS, 150),
        other in disjoint_lists(ROWS),
        sample in prop::collection::vec(0u64..ROWS + 20, 0..120),
        seed in any::<u64>(),
    ) {
        let table = EmbeddingTable::random_integer_valued(ROWS as usize, 8, 4, seed).unwrap();
        let mut scratch = LookupScratch::default();
        let mut hit = CacheHit::default();
        for set in [&other, &lists, &other] {
            let cache = PartialSumCache::materialize(set, &table).unwrap();
            cache.lookup_into(&sample, &mut scratch, &mut hit);
            prop_assert_eq!(&hit, &naive_lookup(set, &cache, &sample));
            if sample.iter().all(|&i| i < ROWS) {
                let via_cache = cache.reduce_with_table(&hit, &table).unwrap();
                prop_assert_eq!(via_cache, table.partial_sum(&sample).unwrap());
            }
        }
    }

    /// Every cached combination is bit-equal to the table's own
    /// left-to-right partial sum of its items, whole or one column
    /// slice at a time — on real-valued rows, where f32 addition does
    /// not associate, so the order in which `entry_sum_into` adds rows
    /// is part of its contract.
    #[test]
    fn materialized_entries_equal_partial_sums_bit_for_bit(
        lists in disjoint_lists_up_to(64, 8),
        seed in any::<u64>(),
        log_n_c in 0u32..4,
    ) {
        let n_c = 1usize << log_n_c;
        let table = EmbeddingTable::random(64, 8, 0.5, seed).unwrap();
        let cache = PartialSumCache::materialize(&lists, &table).unwrap();
        let combos: usize = lists.lists.iter().map(|l| l.num_combinations()).sum();
        prop_assert_eq!(cache.num_entries(), combos);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut slice = vec![0f32; n_c];
        for e in 0..cache.num_entries() {
            let items: Vec<u64> = cache.entry_items(e).collect();
            let list = &lists.lists[cache.entry_list(e)];
            prop_assert_eq!(items.len(), cache.entry_mask(e).count_ones() as usize);
            prop_assert!(items.iter().all(|i| list.items.contains(i)));
            let want = table.partial_sum(&items).unwrap();
            for c in 0..8 / n_c {
                let cols = c * n_c..(c + 1) * n_c;
                cache.entry_sum_into(e, &table, cols.clone(), &mut slice).unwrap();
                prop_assert_eq!(bits(&slice), bits(&want[cols]), "entry {}", e);
            }
        }
    }

    /// Cached reduction == direct reduction, for any sample.
    #[test]
    fn cache_never_changes_results(
        lists in disjoint_lists(64),
        sample in prop::collection::hash_set(0u64..64, 0..24),
        seed in any::<u64>(),
    ) {
        let table = EmbeddingTable::random_integer_valued(64, 8, 4, seed).unwrap();
        let cache = PartialSumCache::materialize(&lists, &table).unwrap();
        let sample: Vec<u64> = sample.into_iter().collect();
        let hit = cache.lookup(&sample);
        let via_cache = cache.reduce_with_table(&hit, &table).unwrap();
        let direct = table.partial_sum(&sample).unwrap();
        prop_assert_eq!(via_cache, direct);
    }

    /// A lookup never *increases* memory accesses, and covered+residual
    /// partitions the sample.
    #[test]
    fn lookup_partitions_sample(
        lists in disjoint_lists(64),
        sample in prop::collection::hash_set(0u64..64, 0..24),
    ) {
        let table = EmbeddingTable::random_integer_valued(64, 4, 2, 1).unwrap();
        let cache = PartialSumCache::materialize(&lists, &table).unwrap();
        let sample: Vec<u64> = sample.into_iter().collect();
        let hit = cache.lookup(&sample);
        prop_assert!(hit.entries.len() + hit.residual.len() <= sample.len().max(hit.residual.len()));
        // Every covered item + every residual item = the sample, exactly once.
        let mut covered: Vec<u64> = hit.residual.clone();
        for &e in &hit.entries {
            covered.extend(cache.entry_items(e));
        }
        let covered_set: HashSet<u64> = covered.iter().copied().collect();
        let sample_set: HashSet<u64> = sample.iter().copied().collect();
        prop_assert_eq!(covered.len(), covered_set.len(), "double coverage");
        prop_assert_eq!(covered_set, sample_set);
    }

    /// Truncation keeps a prefix and never exceeds the budget.
    #[test]
    fn truncate_respects_budget(lists in disjoint_lists(64), budget in 0usize..4096) {
        let mut set = lists;
        let dim = 8;
        set.truncate_to_bytes(budget, dim);
        prop_assert!(set.total_storage_bytes(dim) <= budget);
    }
}
