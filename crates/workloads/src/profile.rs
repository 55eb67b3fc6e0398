//! Access-frequency profiling — the `obj_freq` input of Algorithm 1.
//!
//! UpDLRM's non-uniform and cache-aware partitioners consume the
//! historical access frequency of every item. This module builds that
//! profile from a trace, and computes the row-block histograms of the
//! paper's Fig. 5 (8 blocks, showing up to ~340x imbalance) plus skew
//! metrics used throughout the evaluation.

use dlrm_model::SparseInput;

/// Per-item access counts for one embedding table.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FreqProfile {
    counts: Vec<u64>,
    total: u64,
}

impl FreqProfile {
    /// An all-zero profile over `num_items` items.
    pub fn new(num_items: usize) -> Self {
        FreqProfile {
            counts: vec![0; num_items],
            total: 0,
        }
    }

    /// Resets every count to zero in place, keeping the item range (and
    /// the allocation) — how a sliding window starts its next period.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Builds a profile by counting every index in `inputs`.
    ///
    /// Out-of-range indices are ignored (they cannot occur in traces
    /// produced by this workspace but may in user-supplied ones).
    pub fn from_inputs<'a>(
        num_items: usize,
        inputs: impl IntoIterator<Item = &'a SparseInput>,
    ) -> Self {
        let mut p = Self::new(num_items);
        for input in inputs {
            p.record_input(input);
        }
        p
    }

    /// Adds one sparse input's accesses to the profile.
    pub fn record_input(&mut self, input: &SparseInput) {
        for &i in &input.indices {
            if let Some(c) = self.counts.get_mut(i as usize) {
                *c += 1;
                self.total += 1;
            }
        }
    }

    /// Adds a single access.
    pub fn record(&mut self, item: u64) {
        if let Some(c) = self.counts.get_mut(item as usize) {
            *c += 1;
            self.total += 1;
        }
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.counts.len()
    }

    /// Total recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Access count of one item (0 for out-of-range).
    pub fn count(&self, item: u64) -> u64 {
        self.counts.get(item as usize).copied().unwrap_or(0)
    }

    /// Borrow the raw per-item counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Item ids sorted by descending frequency (ties by id) — the
    /// "sort obj_freq in descending order" step of Algorithm 1.
    pub fn items_by_frequency(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.counts.len() as u64).collect();
        ids.sort_by_key(|&i| (std::cmp::Reverse(self.counts[i as usize]), i));
        ids
    }

    /// The `k` hottest items: [`FreqProfile::items_by_frequency`]'s
    /// first `k` (all of them when `k` exceeds the profile), found by
    /// selecting them and sorting only those — not the whole table.
    pub fn hottest(&self, k: usize) -> Vec<u64> {
        let key = |&i: &u64| (std::cmp::Reverse(self.counts[i as usize]), i);
        let mut ids: Vec<u64> = (0..self.counts.len() as u64).collect();
        if k < ids.len() {
            if k > 0 {
                ids.select_nth_unstable_by_key(k - 1, key);
            }
            ids.truncate(k);
        }
        ids.sort_unstable_by_key(key);
        ids
    }

    /// [`FreqProfile::items_by_frequency`] restricted to items `< rows`.
    ///
    /// A profile may legitimately cover more items than a table has rows
    /// (partitioners only require `num_items() >= rows`), and the
    /// hottest items can be the out-of-range ones. Every placement
    /// routine that indexes per-row state by hot item must go through
    /// this shared guard — the partitioners' replica blocks and the
    /// placement planner's tier assignment both used to duplicate the
    /// skip inline, and one copy once indexed out of bounds and panicked.
    pub fn items_by_frequency_in_range(&self, rows: usize) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..self.counts.len().min(rows) as u64).collect();
        ids.sort_by_key(|&i| (std::cmp::Reverse(self.counts[i as usize]), i));
        ids
    }

    /// Total accesses per row block when rows are split into
    /// `num_blocks` contiguous equal blocks (Fig. 5's histogram).
    pub fn block_histogram(&self, num_blocks: usize) -> Vec<u64> {
        if num_blocks == 0 || self.counts.is_empty() {
            return Vec::new();
        }
        let n = self.counts.len();
        let mut hist = vec![0u64; num_blocks];
        for (i, &c) in self.counts.iter().enumerate() {
            let b = (i * num_blocks / n).min(num_blocks - 1);
            hist[b] += c;
        }
        hist
    }

    /// Max/min ratio across `num_blocks` blocks — the paper quotes
    /// ~340x for its most skewed dataset. Empty blocks count as 1
    /// access to keep the ratio finite.
    pub fn block_skew(&self, num_blocks: usize) -> f64 {
        let hist = self.block_histogram(num_blocks);
        if hist.is_empty() {
            return 1.0;
        }
        let max = *hist.iter().max().expect("nonempty") as f64;
        let min = *hist.iter().min().expect("nonempty") as f64;
        max / min.max(1.0)
    }

    /// Merges another profile (e.g. from another table replica) into
    /// this one.
    ///
    /// # Panics
    ///
    /// Panics if the item counts differ.
    pub fn merge(&mut self, other: &FreqProfile) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "profile size mismatch"
        );
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;
    use crate::trace::{TraceConfig, Workload};

    #[test]
    fn counts_every_index() {
        let input = SparseInput::from_samples([vec![0u64, 1, 1], vec![2]]);
        let p = FreqProfile::from_inputs(4, [&input]);
        assert_eq!(p.counts(), &[1, 2, 1, 0]);
        assert_eq!(p.total_accesses(), 4);
        assert_eq!(p.count(1), 2);
    }

    #[test]
    fn clear_equals_a_new_profile_over_the_same_items() {
        let input = SparseInput::from_samples([vec![0u64, 1, 1], vec![2]]);
        let mut p = FreqProfile::from_inputs(4, [&input]);
        p.clear();
        assert_eq!(p, FreqProfile::new(4));
    }

    #[test]
    fn out_of_range_indices_ignored() {
        let input = SparseInput::from_samples([vec![99u64]]);
        let p = FreqProfile::from_inputs(4, [&input]);
        assert_eq!(p.total_accesses(), 0);
    }

    #[test]
    fn items_by_frequency_sorts_descending_stable() {
        let mut p = FreqProfile::new(4);
        for _ in 0..5 {
            p.record(2);
        }
        for _ in 0..5 {
            p.record(0);
        }
        p.record(3);
        let order = p.items_by_frequency();
        assert_eq!(order, vec![0, 2, 3, 1]); // ties broken by id
    }

    /// The selected prefix is the sorted order's prefix for every `k`,
    /// ties at the cut included: equal counts keep id order.
    #[test]
    fn hottest_is_the_sorted_prefix() {
        // 300 items over 7 counts: long runs of ties, scattered by id.
        let n = 300;
        let mut p = FreqProfile::new(n);
        for i in 0..n as u64 {
            for _ in 0..(i * 37 + 11) % 7 {
                p.record(i);
            }
        }
        let sorted = p.items_by_frequency();
        for k in [0, 1, 2, 5, 43, 44, 150, 299, 300, 301, 1000] {
            assert_eq!(p.hottest(k), sorted[..k.min(n)], "k = {k}");
        }
        assert!(FreqProfile::new(0).hottest(3).is_empty());
    }

    #[test]
    fn items_by_frequency_in_range_drops_foreign_items() {
        // Items 4..8 (outside a 4-row table) are the hottest.
        let mut p = FreqProfile::new(8);
        for i in 4..8u64 {
            for _ in 0..100 {
                p.record(i);
            }
        }
        p.record(2);
        p.record(2);
        p.record(0);
        let order = p.items_by_frequency_in_range(4);
        assert_eq!(order, vec![2, 0, 1, 3]);
        assert!(order.iter().all(|&i| i < 4));
        // With rows >= num_items it degenerates to the unrestricted sort.
        assert_eq!(p.items_by_frequency_in_range(8), p.items_by_frequency());
        assert_eq!(p.items_by_frequency_in_range(100), p.items_by_frequency());
    }

    #[test]
    fn block_histogram_partitions_all_accesses() {
        let mut p = FreqProfile::new(16);
        for i in 0..16 {
            for _ in 0..=i {
                p.record(i as u64);
            }
        }
        let hist = p.block_histogram(4);
        assert_eq!(hist.len(), 4);
        assert_eq!(hist.iter().sum::<u64>(), p.total_accesses());
        // Later blocks hold higher-id items which we made hotter.
        assert!(hist[3] > hist[0]);
    }

    #[test]
    fn skewed_dataset_shows_large_block_skew() {
        // The Fig. 5 observation: heavily skewed datasets show orders of
        // magnitude difference between the hottest and coldest block.
        let spec = DatasetSpec::movie().scaled_down(100);
        let w = Workload::generate(
            &spec,
            TraceConfig {
                num_batches: 8,
                ..TraceConfig::default()
            },
        );
        let p = FreqProfile::from_inputs(spec.num_items, w.table_inputs(0));
        let skew = p.block_skew(8);
        assert!(
            skew > 50.0,
            "movie-like trace should be heavily skewed, got {skew}"
        );
    }

    #[test]
    fn balanced_dataset_shows_no_block_skew() {
        let spec = DatasetSpec::balanced_synthetic(4096, 50.0);
        let w = Workload::generate(
            &spec,
            TraceConfig {
                num_batches: 8,
                ..TraceConfig::default()
            },
        );
        let p = FreqProfile::from_inputs(spec.num_items, w.table_inputs(0));
        assert!(p.block_skew(8) < 1.3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FreqProfile::new(3);
        a.record(0);
        let mut b = FreqProfile::new(3);
        b.record(0);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 1]);
        assert_eq!(a.total_accesses(), 3);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_rejects_mismatched_sizes() {
        let mut a = FreqProfile::new(3);
        a.merge(&FreqProfile::new(4));
    }

    #[test]
    fn empty_profile_edge_cases() {
        let p = FreqProfile::new(0);
        assert!(p.block_histogram(8).is_empty());
        assert_eq!(p.block_skew(8), 1.0);
        assert!(p.items_by_frequency().is_empty());
    }
}
