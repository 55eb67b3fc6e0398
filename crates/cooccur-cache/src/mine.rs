//! Greedy cache-list mining (the GRACE role).
//!
//! Extracts small sets of items that frequently co-occur; each set
//! becomes a *cache list* whose `2^k - 1` partial-sum combinations are
//! cached (paper §3.3: "a cache list of {a, b, c} means partial sums
//! a, b, c, a+b, a+c, b+c and a+b+c are cached"). Each list carries a
//! `benefit` — the estimated reduction in memory accesses — which is the
//! `list[-1]` input consumed by Algorithm 1.

use crate::graph::CooccurGraph;
use dlrm_model::SparseInput;
use workloads::FreqProfile;

/// One mined cache list.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheList {
    /// The co-occurring items (2..=max_list_len of them, distinct).
    pub items: Vec<u64>,
    /// Estimated memory accesses saved per generated batch window —
    /// Algorithm 1 subtracts this from the owning partition's load.
    pub benefit: f64,
}

impl CacheList {
    /// Most items a list may hold: its `2^k - 1` combination rows are
    /// all materialized, and the cache packs an item's position in its
    /// list into 5 bits.
    pub const MAX_ITEMS: usize = 20;

    /// Number of cached combination rows for this list (`2^k - 1`).
    pub fn num_combinations(&self) -> usize {
        (1usize << self.items.len()) - 1
    }

    /// Bytes of cache storage this list needs at embedding dimension
    /// `dim` (f32 rows, one per combination).
    pub fn storage_bytes(&self, dim: usize) -> usize {
        self.num_combinations() * dim * 4
    }
}

/// Parameters of the miner.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MinerConfig {
    /// Track co-occurrence among this many hottest items.
    pub hot_set_size: usize,
    /// Maximum items per cache list (storage is 2^k - 1 rows, so keep
    /// small; GRACE uses similarly small combinations).
    pub max_list_len: usize,
    /// Minimum co-occurrence weight for a neighbor to join a list, as a
    /// fraction of the seed item's own occurrences: `w(a, b) / n(a)`,
    /// both counted over the samples recorded into the graph.
    pub min_edge_fraction: f64,
    /// Maximum number of lists to emit.
    pub max_lists: usize,
    /// Maximum trace samples fed into graph construction (mining cost
    /// control only: edge weights and their bar are counted over the
    /// same samples, and benefits are measured on the full trace). It
    /// also sizes the graph's arena: recording stops early once the
    /// arena holds [`MinerConfig::rank_budget`] ranks.
    pub max_samples: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            hot_set_size: 4096,
            max_list_len: 4,
            min_edge_fraction: 0.10,
            max_lists: 768,
            max_samples: 4096,
        }
    }
}

impl MinerConfig {
    /// Hot ranks of graph arena per `max_samples` slot. A sample keeps
    /// all of its hot ranks; the budget is shared, so wide samples may
    /// spend it before `max_samples` is reached.
    pub const RANKS_PER_SAMPLE: usize = 64;

    /// Hot ranks at which recording stops: `RANKS_PER_SAMPLE ×
    /// max_samples` (1 MB of arena at the defaults; the sample that
    /// reaches it may overshoot by its own width).
    pub fn rank_budget(&self) -> usize {
        self.max_samples.saturating_mul(Self::RANKS_PER_SAMPLE)
    }

    /// Checks the fields a trace cannot be mined without: a nonempty
    /// hot set, and lists of 2 to [`CacheList::MAX_ITEMS`] items.
    ///
    /// # Errors
    ///
    /// Names the offending field, its value and the allowed range.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.hot_set_size == 0 {
            return Err("miner.hot_set_size is 0, must be at least 1".into());
        }
        if !(2..=CacheList::MAX_ITEMS).contains(&self.max_list_len) {
            return Err(format!(
                "miner.max_list_len is {}, must be in 2..={}",
                self.max_list_len,
                CacheList::MAX_ITEMS
            ));
        }
        Ok(())
    }
}

/// The miner's output: disjoint cache lists, strongest first.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheListSet {
    /// Mined lists ordered by descending benefit.
    pub lists: Vec<CacheList>,
}

impl CacheListSet {
    /// Mines one table's cache lists from its trace and measures their
    /// benefit on it: the first `config.max_samples` samples of `inputs`
    /// build the co-occurrence graph (fewer if its arena reaches
    /// [`MinerConfig::rank_budget`] ranks first: the sample that reaches
    /// it is the last recorded), [`CacheListSet::mine`] clusters
    /// it, and [`CacheListSet::measure_benefit`] scores the lists on the
    /// whole of `inputs`. `config` is taken as given — check it with
    /// [`MinerConfig::validate`] first: an empty hot set or lists of
    /// fewer than two items mine nothing, and lists of more than
    /// [`CacheList::MAX_ITEMS`] cannot be materialized.
    pub fn from_trace<'a>(
        profile: &FreqProfile,
        inputs: impl IntoIterator<Item = &'a SparseInput>,
        config: &MinerConfig,
    ) -> CacheListSet {
        let inputs: Vec<&SparseInput> = inputs.into_iter().collect();
        let mut set = {
            let mut graph = CooccurGraph::new(profile, config.hot_set_size);
            let rank_budget = config.rank_budget();
            let samples = inputs.iter().flat_map(|input| input.iter());
            for sample in samples.take(config.max_samples) {
                if graph.stored_ranks() >= rank_budget {
                    break;
                }
                graph.record_sample(sample);
            }
            CacheListSet::mine(&graph, config)
        };
        set.measure_benefit(inputs);
        set
    }

    /// Mines cache lists from a co-occurrence graph.
    ///
    /// Greedy clustering: seed with the hottest unassigned item, grow
    /// with its strongest unassigned neighbors `b` whose edge weight
    /// clears `min_edge_fraction` of the seed's occurrences —
    /// `w(seed, b) >= min_edge_fraction × n(seed)`, both counted over
    /// the graph's stored samples — and emit if at least two items
    /// cluster. The profile ranks the seeds; the bar does not depend on
    /// how many samples the graph was fed.
    ///
    /// Edge weights are counted lazily: one adjacency row per seed the
    /// loop actually grows from, into one reused buffer. Ranks already
    /// in a list, and those past the end of the loop (`max_lists`
    /// reached, or a zero-frequency seed), never have a row counted.
    pub fn mine(graph: &CooccurGraph, config: &MinerConfig) -> CacheListSet {
        let h = graph.hot_set_size();
        let mut assigned = vec![false; h];
        let index = graph.samples_by_rank();
        let mut row = vec![0u32; h];
        let mut neighbors = Vec::with_capacity(config.max_list_len);
        let mut lists = Vec::new();
        for seed in 0..graph.seed_ranks() {
            if lists.len() >= config.max_lists {
                break;
            }
            if assigned[seed] {
                continue;
            }
            graph.count_row(seed as u32, &index, &mut row);
            // Edge weights count co-occurrences among the stored samples,
            // so the bar is a fraction of the seed's occurrences there.
            let seed_runs = index.occurrences(seed as u32);
            let threshold = (seed_runs as f64 * config.min_edge_fraction).max(1.0);
            strongest_neighbors(
                &row,
                &assigned,
                threshold,
                config.max_list_len.saturating_sub(1),
                &mut neighbors,
            );
            let Some(&(min_edge, _)) = neighbors.last() else {
                continue;
            };
            assigned[seed] = true;
            let mut items = vec![graph.rank_item(seed as u32)];
            for &(_, n) in &neighbors {
                assigned[n as usize] = true;
                items.push(graph.rank_item(n));
            }
            // Benefit: every time the whole group co-occurs, k reads
            // collapse into one — (k-1) saved per co-occurrence. The
            // weakest pairwise edge lower-bounds group co-occurrence.
            let benefit = min_edge as f64 * neighbors.len() as f64;
            lists.push(CacheList { items, benefit });
        }
        let mut set = CacheListSet { lists };
        set.sort_by_benefit();
        set
    }

    /// Stable sort, strongest list first.
    fn sort_by_benefit(&mut self) {
        self.lists.sort_by(|a, b| {
            b.benefit
                .partial_cmp(&a.benefit)
                .expect("benefits are finite")
        });
    }

    /// Replaces each list's estimated benefit with one *measured* on a
    /// trace: the number of memory accesses the cache would actually
    /// save (distinct covered items minus one cache read, per sample
    /// and list — a repeated item is served again from its single-item
    /// entry, so it saves nothing).
    ///
    /// Items are table rows: the item -> slot map is one word per row up
    /// to the largest listed item.
    pub fn measure_benefit<'a>(&mut self, inputs: impl IntoIterator<Item = &'a SparseInput>) {
        // item -> slot + 1 (0 = not listed; lists are disjoint), where a
        // slot is the item's place among all listed items.
        let rows = self
            .lists
            .iter()
            .flat_map(|list| &list.items)
            .max()
            .map_or(0, |&max| max as usize + 1);
        let mut slot_of_item = vec![0u32; rows];
        let mut list_of_slot = Vec::with_capacity(self.lists.iter().map(|l| l.items.len()).sum());
        for (l, list) in self.lists.iter().enumerate() {
            for &i in &list.items {
                list_of_slot.push(l as u32);
                slot_of_item[i as usize] = list_of_slot.len() as u32;
            }
        }
        // A list's first item in a sample costs the one cache read;
        // every further distinct one is a saved access. `last_sample[l]`
        // (`slot_sample[s]`) is the 1-based ordinal of the last sample
        // that touched list `l` (slot `s`).
        let mut saved = vec![0u64; self.lists.len()];
        let mut last_sample = vec![0u64; self.lists.len()];
        let mut slot_sample = vec![0u64; list_of_slot.len()];
        let mut ordinal = 0u64;
        for input in inputs {
            for sample in input.iter() {
                ordinal += 1;
                for &i in sample {
                    let Some(s) = slot_of_item
                        .get(i as usize)
                        .and_then(|&packed| packed.checked_sub(1))
                    else {
                        continue;
                    };
                    let s = s as usize;
                    if slot_sample[s] == ordinal {
                        continue;
                    }
                    slot_sample[s] = ordinal;
                    let l = list_of_slot[s] as usize;
                    if last_sample[l] == ordinal {
                        saved[l] += 1;
                    } else {
                        last_sample[l] = ordinal;
                    }
                }
            }
        }
        for (list, s) in self.lists.iter_mut().zip(saved) {
            list.benefit = s as f64;
        }
        self.sort_by_benefit();
    }

    /// Total cache storage at dimension `dim` for every list.
    pub fn total_storage_bytes(&self, dim: usize) -> usize {
        self.lists.iter().map(|l| l.storage_bytes(dim)).sum()
    }

    /// Keeps only the highest-benefit prefix fitting in `budget_bytes`
    /// at dimension `dim` — the paper's 40%/70%/100% cache-capacity
    /// sensitivity knob.
    pub fn truncate_to_bytes(&mut self, budget_bytes: usize, dim: usize) {
        let mut used = 0usize;
        let mut keep = 0usize;
        for list in &self.lists {
            let sz = list.storage_bytes(dim);
            if used + sz > budget_bytes {
                break;
            }
            used += sz;
            keep += 1;
        }
        self.lists.truncate(keep);
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when no lists were mined.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }
}

/// The up to `k` strongest eligible neighbors of the seed whose
/// adjacency row is `row`, as `(weight, rank)`, strongest first: weight
/// descending, then rank ascending — the first `k` eligible entries of
/// the row sorted in that order. Eligible means not yet assigned and a
/// weight of at least `threshold` (which is at least 1, so absent edges
/// and the seed's own zero cell never qualify).
fn strongest_neighbors(
    row: &[u32],
    assigned: &[bool],
    threshold: f64,
    k: usize,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    // Weights are integers, so `w >= threshold` is `w >= ceil(threshold)`
    // (the cast saturates). Once `k` are held, a later rank must beat
    // the weakest strictly: on a tie the lower rank stays.
    let mut floor = threshold.ceil() as u64;
    // Nearly every cell is below the floor; a block's maximum (a
    // vectorized reduction) dismisses it without a branch per cell.
    const BLOCK: usize = 32;
    for (block, cells) in row.chunks(BLOCK).enumerate() {
        let max = cells.iter().fold(0, |m, &w| m.max(w));
        if u64::from(max) < floor {
            continue;
        }
        for (n, &w) in (block * BLOCK..).zip(cells) {
            if u64::from(w) < floor || assigned[n] {
                continue;
            }
            if out.len() == k {
                out.pop();
            }
            let at = out.partition_point(|&(held, _)| held >= w);
            out.insert(at, (w, n as u32));
            if out.len() == k {
                floor = u64::from(out[k - 1].0) + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use workloads::FreqProfile;

    /// Builds a graph where items {0,1,2} strongly co-occur and {3,4}
    /// weakly.
    fn clustered_graph() -> CooccurGraph {
        let mut p = FreqProfile::new(8);
        for i in 0..5u64 {
            for _ in 0..(100 - i * 10) {
                p.record(i);
            }
        }
        let mut g = CooccurGraph::new(&p, 8);
        for _ in 0..50 {
            g.record_sample(&[0, 1, 2]);
        }
        for _ in 0..5 {
            g.record_sample(&[3, 4]);
        }
        g
    }

    #[test]
    fn mines_the_planted_cluster() {
        let g = clustered_graph();
        let set = CacheListSet::mine(&g, &MinerConfig::default());
        assert!(!set.is_empty());
        let first: HashSet<u64> = set.lists[0].items.iter().copied().collect();
        assert_eq!(first, HashSet::from([0, 1, 2]));
    }

    #[test]
    fn lists_are_disjoint() {
        let g = clustered_graph();
        let set = CacheListSet::mine(&g, &MinerConfig::default());
        let mut seen = HashSet::new();
        for l in &set.lists {
            for &i in &l.items {
                assert!(seen.insert(i), "item {i} appears in two lists");
            }
        }
    }

    #[test]
    fn weak_edges_are_rejected() {
        // Items 3 and 4 are each recorded in 50 samples and meet in 5
        // of them: w(3, 4) / n(3) = w(3, 4) / n(4) = 0.1.
        let mut g = clustered_graph();
        for k in 0..45u64 {
            g.record_sample(&[3, 5 + k % 2]);
            g.record_sample(&[4, 7]);
        }
        for (fraction, joined) in [(0.9, false), (0.1, true)] {
            let cfg = MinerConfig {
                min_edge_fraction: fraction,
                ..MinerConfig::default()
            };
            let set = CacheListSet::mine(&g, &cfg);
            let together = set.lists.iter().any(|l| {
                let s: HashSet<u64> = l.items.iter().copied().collect();
                s.contains(&3) && s.contains(&4)
            });
            assert_eq!(together, joined, "min_edge_fraction {fraction}");
        }
    }

    /// The bar is a fraction of the seed's occurrences among the
    /// samples the graph recorded, not of its profile count: a pair
    /// that always co-occurs is listed however small a prefix of the
    /// profiled trace was recorded.
    #[test]
    fn threshold_counts_the_recorded_samples_only() {
        let mut p = FreqProfile::new(4);
        for _ in 0..1000 {
            p.record(0);
            p.record(1);
        }
        let mut g = CooccurGraph::new(&p, 4);
        for _ in 0..10 {
            g.record_sample(&[0, 1]);
        }
        let cfg = MinerConfig {
            min_edge_fraction: 0.5,
            ..MinerConfig::default()
        };
        let set = CacheListSet::mine(&g, &cfg);
        assert_eq!(set.len(), 1);
        assert_eq!(set.lists[0].items, [0, 1]);
    }

    /// Recording stops once the arena holds `RANKS_PER_SAMPLE ×
    /// max_samples` ranks: the sample that reaches the budget is the
    /// last one recorded, though `max_samples` has room for another,
    /// and a pair seen only after it never becomes an edge.
    #[test]
    fn recording_stops_exactly_at_the_rank_budget() {
        let config = MinerConfig {
            max_samples: 3,
            ..MinerConfig::default()
        };
        assert_eq!(config.rank_budget(), 192);
        for (second, pair_listed) in [(92u64, false), (91, true)] {
            let input = SparseInput::from_samples([
                (0..100u64).collect(),
                (0..second).collect(),
                vec![200u64, 201],
            ]);
            let profile = FreqProfile::from_inputs(300, [&input]);
            let set = CacheListSet::from_trace(&profile, [&input], &config);
            let listed = set.lists.iter().any(|l| l.items.contains(&200));
            assert_eq!(listed, pair_listed, "100 + {second} ranks recorded first");
        }
    }

    #[test]
    fn max_list_len_is_respected() {
        let g = clustered_graph();
        let cfg = MinerConfig {
            max_list_len: 2,
            ..MinerConfig::default()
        };
        let set = CacheListSet::mine(&g, &cfg);
        assert!(set.lists.iter().all(|l| l.items.len() <= 2));
    }

    #[test]
    fn validate_names_the_field_and_its_range() {
        let default = MinerConfig::default();
        let hot = |hot_set_size| MinerConfig {
            hot_set_size,
            ..default
        };
        let len = |max_list_len| MinerConfig {
            max_list_len,
            ..default
        };
        for ok in [default, hot(1), len(2), len(CacheList::MAX_ITEMS)] {
            assert_eq!(ok.validate(), Ok(()));
        }
        assert_eq!(
            hot(0).validate().unwrap_err(),
            "miner.hot_set_size is 0, must be at least 1"
        );
        for bad in [0, 1, 21] {
            assert_eq!(
                len(bad).validate().unwrap_err(),
                format!("miner.max_list_len is {bad}, must be in 2..=20")
            );
        }
    }

    /// The neighbour scan against the definition it replaces: sort the
    /// eligible cells by (weight descending, rank ascending), take `k`.
    #[test]
    fn strongest_neighbors_is_a_prefix_of_the_sorted_row() {
        // Ties across a block edge, a run of equal weights longer than
        // `k`, cells at and one below the threshold, assigned cells.
        let mut row = vec![0u32; 100];
        for (n, w) in [
            (3, 5),
            (30, 9),
            (31, 5),
            (32, 5),
            (33, 9),
            (64, 5),
            (70, 4),
            (99, 9),
        ] {
            row[n] = w;
        }
        let mut assigned = vec![false; 100];
        assigned[33] = true;
        let mut got = Vec::new();
        for threshold in [1.0, 4.0, 4.5, 5.0, 5.1, 9.0, 9.5, 1e30] {
            for k in 0..8 {
                let mut want: Vec<(u32, u32)> = row
                    .iter()
                    .enumerate()
                    .filter(|&(n, &w)| !assigned[n] && f64::from(w) >= threshold)
                    .map(|(n, &w)| (w, n as u32))
                    .collect();
                want.sort_by_key(|&(w, n)| (std::cmp::Reverse(w), n));
                want.truncate(k);
                strongest_neighbors(&row, &assigned, threshold, k, &mut got);
                assert_eq!(got, want, "threshold {threshold}, k {k}");
            }
        }
    }

    #[test]
    fn combination_count_is_exponential() {
        let l = CacheList {
            items: vec![1, 2, 3],
            benefit: 0.0,
        };
        assert_eq!(l.num_combinations(), 7);
        assert_eq!(l.storage_bytes(32), 7 * 32 * 4);
    }

    #[test]
    fn measured_benefit_counts_real_savings() {
        let g = clustered_graph();
        let mut set = CacheListSet::mine(&g, &MinerConfig::default());
        // A sample containing all of {0,1,2} saves 2 accesses; one with
        // {0,1} saves 1; disjoint samples save 0.
        let input = SparseInput::from_samples([vec![0u64, 1, 2], vec![0, 1], vec![5, 6]]);
        set.measure_benefit([&input]);
        let cluster = set
            .lists
            .iter()
            .find(|l| l.items.contains(&0))
            .expect("cluster list");
        assert_eq!(cluster.benefit, 3.0);
    }

    /// The cache serves `[1, 1, 2]` as the {1, 2} entry plus the {1}
    /// entry for the repeat: two references for three lookups, one
    /// saved — not two.
    #[test]
    fn measured_benefit_counts_a_repeated_item_once() {
        let mut set = CacheListSet {
            lists: vec![CacheList {
                items: vec![1, 2],
                benefit: 0.0,
            }],
        };
        let input = SparseInput::from_samples([vec![1u64, 1, 2], vec![2, 2], vec![2, 1, 2, 1]]);
        set.measure_benefit([&input]);
        assert_eq!(set.lists[0].benefit, 2.0);
    }

    #[test]
    fn truncate_to_bytes_keeps_best_prefix() {
        let mut set = CacheListSet {
            lists: vec![
                CacheList {
                    items: vec![0, 1],
                    benefit: 10.0,
                }, // 3 rows
                CacheList {
                    items: vec![2, 3],
                    benefit: 5.0,
                }, // 3 rows
            ],
        };
        let dim = 4; // one row = 16 bytes, one list = 48 bytes
        set.truncate_to_bytes(50, dim);
        assert_eq!(set.len(), 1);
        assert_eq!(set.lists[0].items, vec![0, 1]);
        let mut empty = CacheListSet::default();
        empty.truncate_to_bytes(0, dim);
        assert!(empty.is_empty());
    }

    #[test]
    fn benefit_ordering_is_descending() {
        let g = clustered_graph();
        let set = CacheListSet::mine(
            &g,
            &MinerConfig {
                min_edge_fraction: 0.01,
                ..Default::default()
            },
        );
        for w in set.lists.windows(2) {
            assert!(w[0].benefit >= w[1].benefit);
        }
    }
}
