//! Item co-occurrence graph.
//!
//! GRACE (Ye et al., ASPLOS'23) identifies frequently co-accessed item
//! combinations from a graph whose nodes are items and whose edge
//! weights count how often two items appear in the same sample. Like
//! GRACE, we restrict the graph to the hottest items — cold items cannot
//! amortize cached partial sums.
//!
//! The graph is not held as a set of edges. Recording a sample stores
//! all of the sample's distinct hot ranks in one flat arena; edge
//! weights are counted on demand, one adjacency row at a time, by
//! [`crate::CacheListSet::mine`], which only ever asks for the rows of
//! the seeds it reaches. Memory is the arena, an index of the same size
//! and one row, whatever the number of nonzero edges; the caller bounds
//! the arena by how many samples it records
//! ([`CooccurGraph::stored_ranks`]), so every stored sample is whole.

use workloads::FreqProfile;

/// Co-occurrence graph over the `hot_set_size` most frequent items.
#[derive(Debug, Clone)]
pub struct CooccurGraph {
    /// Table row -> hot rank + 1 (0 = not hot), direct-mapped over the
    /// profile's rows: one array read per sample index.
    rank_of_row: Vec<u32>,
    /// Hot items in rank order.
    hot_items: Vec<u64>,
    /// Hot ranks the profile counted at least once — a prefix, since
    /// ranks run hottest first. Only these may seed a list.
    seed_ranks: usize,
    /// Every recorded sample's hot ranks — ascending, distinct, all of
    /// them — back to back. Samples with fewer than two hot ranks hold
    /// no pair and are not stored.
    sample_ranks: Vec<u32>,
    /// Where each stored sample's run starts in `sample_ranks`, plus the
    /// end of the last one.
    run_starts: Vec<usize>,
    /// The current sample's hot ranks, one bit per rank (reused; all
    /// clear between samples).
    marks: Vec<u64>,
}

impl CooccurGraph {
    /// Creates a graph tracking the `hot_set_size` most frequent items
    /// of `profile`.
    pub fn new(profile: &FreqProfile, hot_set_size: usize) -> Self {
        let hot_items = profile.hottest(hot_set_size);
        let mut rank_of_row = vec![0u32; profile.num_items()];
        for (r, &i) in hot_items.iter().enumerate() {
            rank_of_row[i as usize] = r as u32 + 1;
        }
        let seed_ranks = hot_items.partition_point(|&i| profile.count(i) > 0);
        CooccurGraph {
            rank_of_row,
            seed_ranks,
            sample_ranks: Vec::new(),
            run_starts: vec![0],
            marks: vec![0; hot_items.len().div_ceil(64)],
            hot_items,
        }
    }

    /// Number of hot items tracked.
    pub fn hot_set_size(&self) -> usize {
        self.hot_items.len()
    }

    /// The hot items, hottest first.
    pub fn hot_items(&self) -> &[u64] {
        &self.hot_items
    }

    /// Number of hot ranks that may seed a list: those the profile
    /// counted at least once (ranks `0..seed_ranks()`).
    pub fn seed_ranks(&self) -> usize {
        self.seed_ranks
    }

    /// Item id of a hot rank.
    pub fn rank_item(&self, rank: u32) -> u64 {
        self.hot_items[rank as usize]
    }

    /// Records one sample's index list: every pair of distinct hot
    /// items in the sample gains one unit of edge weight (an item named
    /// twice still occurs once — it does not co-occur with itself).
    ///
    /// The sample's hot ranks are marked in a bitmap and read back a
    /// word at a time, which yields them ascending and distinct without
    /// a sort.
    pub fn record_sample(&mut self, sample: &[u64]) {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &i in sample {
            let Some(rank) = self
                .rank_of_row
                .get(i as usize)
                .and_then(|r| r.checked_sub(1))
            else {
                continue;
            };
            let word = rank as usize / 64;
            self.marks[word] |= 1 << (rank % 64);
            lo = lo.min(word);
            hi = hi.max(word);
        }
        if lo > hi {
            return;
        }
        let start = self.sample_ranks.len();
        for (w, marks) in (lo..).zip(&mut self.marks[lo..=hi]) {
            let mut bits = std::mem::take(marks);
            while bits != 0 {
                self.sample_ranks
                    .push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if self.sample_ranks.len() - start < 2 {
            self.sample_ranks.truncate(start);
        } else {
            self.run_starts.push(self.sample_ranks.len());
        }
    }

    /// Hot ranks held by the stored samples (the arena's length) — what
    /// [`crate::CacheListSet::from_trace`] holds to
    /// [`crate::MinerConfig::rank_budget`].
    pub fn stored_ranks(&self) -> usize {
        self.sample_ranks.len()
    }

    /// Records every sample of an iterator of CSR inputs.
    pub fn record_inputs<'a>(
        &mut self,
        inputs: impl IntoIterator<Item = &'a dlrm_model::SparseInput>,
    ) {
        for input in inputs {
            for s in input.iter() {
                self.record_sample(s);
            }
        }
    }

    /// Stored sample `s`'s ranks.
    fn run(&self, s: usize) -> &[u32] {
        &self.sample_ranks[self.run_starts[s]..self.run_starts[s + 1]]
    }

    /// Every stored sample's ranks, in recording order.
    fn runs(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.run_starts
            .windows(2)
            .map(|w| &self.sample_ranks[w[0]..w[1]])
    }

    /// Co-occurrence count of two hot ranks: a scan of the stored
    /// samples (the miner counts whole adjacency rows instead).
    pub fn edge(&self, a: u32, b: u32) -> u64 {
        if a == b {
            return 0;
        }
        self.runs()
            .filter(|run| run.binary_search(&a).is_ok() && run.binary_search(&b).is_ok())
            .count() as u64
    }

    /// Indexes the stored samples by the ranks they hold, in one
    /// counting pass over the arena.
    pub(crate) fn samples_by_rank(&self) -> SamplesByRank {
        let mut starts = vec![0usize; self.hot_items.len() + 1];
        for &r in &self.sample_ranks {
            starts[r as usize + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut next = starts.clone();
        let mut samples = vec![0u32; self.sample_ranks.len()];
        for (s, run) in self.runs().enumerate() {
            for &r in run {
                // A stored sample holds two ranks or more, so a count
                // past `u32` would need a 32 GB arena first.
                samples[next[r as usize]] = s as u32;
                next[r as usize] += 1;
            }
        }
        SamplesByRank { starts, samples }
    }

    /// Writes the adjacency row of `rank` into `row` (`hot_set_size()`
    /// wide): `row[b]` becomes the weight of edge `(rank, b)`. Walks
    /// only the stored samples that hold `rank`.
    ///
    /// This loop is most of a cache-aware build: a whole sample is a run
    /// of ≈ 236 ranks on `pool_heavy`, and the hottest seeds are in
    /// nearly every run. Four increments per step keep the row pointer
    /// in a register across them (one at a time, it was reloaded for
    /// each): ≈ 0.7 instead of ≈ 0.95 ns per increment on a 2-vCPU
    /// Xeon.
    pub(crate) fn count_row(&self, rank: u32, index: &SamplesByRank, row: &mut [u32]) {
        let r = rank as usize;
        row.fill(0);
        for &s in &index.samples[index.starts[r]..index.starts[r + 1]] {
            let mut quads = self.run(s as usize).chunks_exact(4);
            for q in &mut quads {
                row[q[0] as usize] += 1;
                row[q[1] as usize] += 1;
                row[q[2] as usize] += 1;
                row[q[3] as usize] += 1;
            }
            for &b in quads.remainder() {
                row[b as usize] += 1;
            }
        }
        row[r] = 0;
    }
}

/// Which stored samples hold each hot rank (CSR over ranks) — what lets
/// [`CooccurGraph::count_row`] count one adjacency row without passing
/// over the samples that cannot contribute to it.
#[derive(Debug)]
pub(crate) struct SamplesByRank {
    /// `samples[starts[r]..starts[r + 1]]` are the samples holding `r`.
    starts: Vec<usize>,
    samples: Vec<u32>,
}

impl SamplesByRank {
    /// `n(rank)`: the stored samples holding `rank` — the population
    /// every edge weight `w(rank, b)` is counted over.
    pub(crate) fn occurrences(&self, rank: u32) -> usize {
        let r = rank as usize;
        self.starts[r + 1] - self.starts[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::SparseInput;

    fn profile_with_counts(counts: &[u64]) -> FreqProfile {
        let mut p = FreqProfile::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                p.record(i as u64);
            }
        }
        p
    }

    /// Every adjacency row, `H x H`.
    fn all_rows(g: &CooccurGraph) -> Vec<u32> {
        let h = g.hot_set_size();
        let index = g.samples_by_rank();
        let mut rows = vec![0; h * h];
        for (a, row) in rows.chunks_mut(h).enumerate() {
            g.count_row(a as u32, &index, row);
        }
        rows
    }

    #[test]
    fn hot_set_selects_most_frequent() {
        let p = profile_with_counts(&[5, 1, 9, 3]);
        let g = CooccurGraph::new(&p, 2);
        assert_eq!(g.hot_items(), &[2, 0]);
        assert_eq!(g.seed_ranks(), 2);
        // Ranks past the profile's nonzero counts are hot but seed nothing.
        let p = profile_with_counts(&[5, 0, 9, 0]);
        let g = CooccurGraph::new(&p, 4);
        assert_eq!(g.hot_items(), &[2, 0, 1, 3]);
        assert_eq!(g.seed_ranks(), 2);
    }

    #[test]
    fn pairs_are_counted_symmetrically() {
        let p = profile_with_counts(&[3, 3, 3]);
        let mut g = CooccurGraph::new(&p, 3);
        g.record_sample(&[0, 1]);
        g.record_sample(&[1, 0]);
        assert_eq!(g.edge(0, 1), 2);
        assert_eq!(g.edge(1, 0), 2);
        assert_eq!(g.edge(0, 2), 0);
        assert_eq!(all_rows(&g), [0, 2, 0, 2, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn cold_items_are_ignored() {
        let p = profile_with_counts(&[9, 8, 1, 1]);
        let mut g = CooccurGraph::new(&p, 2);
        g.record_sample(&[0, 1, 2, 3]);
        g.record_sample(&[0, 2, 99]);
        assert_eq!(g.edge(0, 1), 1);
        assert_eq!(all_rows(&g), [0, 1, 1, 0]);
    }

    #[test]
    fn triple_sample_counts_all_pairs() {
        let p = profile_with_counts(&[2, 2, 2]);
        let mut g = CooccurGraph::new(&p, 3);
        g.record_sample(&[0, 1, 2]);
        assert_eq!(all_rows(&g), [0, 1, 1, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn counted_rows_match_edges() {
        let p = profile_with_counts(&[9, 8, 7, 6, 5]);
        let mut g = CooccurGraph::new(&p, 5);
        g.record_sample(&[0, 2, 4]);
        g.record_sample(&[2, 3]);
        g.record_sample(&[4, 3, 2]);
        g.record_sample(&[1]); // no pair: not stored
        let index = g.samples_by_rank();
        let n: Vec<usize> = (0..5).map(|r| index.occurrences(r)).collect();
        assert_eq!(n, [1, 0, 3, 2, 2], "stored samples per rank");
        let mut row = vec![100u32; 5]; // stale contents are overwritten
        for a in 0..5u32 {
            g.count_row(a, &index, &mut row);
            for b in 0..5u32 {
                assert_eq!(u64::from(row[b as usize]), g.edge(a, b), "edge ({a}, {b})");
            }
        }
    }

    /// A sample with far more hot items than any list is recorded
    /// whole: all of its pairs count.
    #[test]
    fn oversized_sample_counts_every_pair() {
        let n = 134;
        let p = profile_with_counts(&vec![1; n]);
        let mut g = CooccurGraph::new(&p, n);
        let sample: Vec<u64> = (0..n as u64).rev().collect();
        g.record_sample(&sample);
        assert_eq!(g.run_starts, [0, n]);
        assert_eq!(g.sample_ranks, (0..n as u32).collect::<Vec<_>>());
        let rows = all_rows(&g);
        for a in 0..n {
            for b in 0..n {
                assert_eq!(rows[a * n + b], u32::from(a != b), "edge ({a}, {b})");
            }
        }
    }

    /// The arena holds every stored sample's ranks and nothing of a
    /// sample with fewer than two, and a sample leaves no marks behind.
    #[test]
    fn stored_ranks_count_the_stored_samples() {
        let p = profile_with_counts(&[9, 8, 7, 6, 5, 4]);
        let mut g = CooccurGraph::new(&p, 6);
        g.record_sample(&[2, 0, 1, 2]);
        g.record_sample(&[3, 99]); // one hot rank: not stored
        g.record_sample(&[4, 0]);
        assert_eq!(g.stored_ranks(), 5);
        assert_eq!(g.run_starts, [0, 3, 5]);
        assert_eq!(g.sample_ranks, [0, 1, 2, 0, 4]);
        g.record_sample(&[5, 3]);
        assert_eq!(g.sample_ranks[5..], [3, 5]);
    }

    #[test]
    fn neighbors_sorted_by_weight() {
        let p = profile_with_counts(&[4, 4, 4, 4]);
        let mut g = CooccurGraph::new(&p, 4);
        g.record_sample(&[0, 1]);
        g.record_sample(&[0, 1]);
        g.record_sample(&[0, 2]);
        assert_eq!(all_rows(&g)[..4], [0, 2, 1, 0]);
        // The miner grows a seed's list strongest neighbour first.
        let set = crate::CacheListSet::mine(&g, &crate::MinerConfig::default());
        assert_eq!(set.lists[0].items, [0, 1, 2]);
    }

    #[test]
    fn record_inputs_walks_every_sample() {
        let p = profile_with_counts(&[2, 2, 2]);
        let mut g = CooccurGraph::new(&p, 3);
        let input = SparseInput::from_samples([vec![0u64, 1], vec![1, 2]]);
        g.record_inputs([&input]);
        assert_eq!(g.edge(0, 1), 1);
        assert_eq!(g.edge(1, 2), 1);
    }
}
