//! Differential test of the cache-list build path against the
//! implementation it replaced.
//!
//! [`oracle`] is the previous miner, kept verbatim as the reference: a
//! hash map of edge weights filled by a pair loop per sample, an
//! adjacency list per rank sorted by (weight descending, rank
//! ascending), a greedy walk of those lists, and a benefit measurement
//! that builds one map per sample. Its edits follow the real path's:
//! a row named twice in a sample occurs once, both in the graph (its
//! hot ranks are deduplicated) and in the measured benefit (a repeat
//! saves no access); and a seed's edge threshold is a fraction of its
//! occurrences among the recorded samples the edges are counted over,
//! not of its profile count; and a recorded sample keeps all of its hot
//! ranks (no stride), recording ending once the recorded samples hold
//! 64 ranks per `max_samples` slot. The real path — rank arena,
//! adjacency rows counted per seed, top-k row scan, direct-mapped
//! benefit — must
//! emit byte-identical `CacheListSet` JSON: same lists, same item order,
//! same benefits, same final order.

use cooccur_cache::{CacheListSet, CooccurGraph, MinerConfig};
use dlrm_model::SparseInput;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use workloads::FreqProfile;

mod oracle {
    use cooccur_cache::{CacheList, CacheListSet, MinerConfig};
    use dlrm_model::{FxHashMap, FxHashSet, SparseInput};
    use workloads::FreqProfile;

    /// Which of the miner's edge cases a run went through, so the
    /// property test can show it is not vacuous.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Coverage {
        /// The rank budget ended recording before `max_samples` did.
        pub rank_budget_cut: bool,
        /// A sample named a hot row more than once.
        pub repeats: bool,
        /// `max_samples` was smaller than the trace.
        pub budget_cut: bool,
        /// Two neighbours of one seed had equal weight.
        pub weight_tie: bool,
        /// A neighbour's weight equalled the threshold exactly.
        pub at_threshold: bool,
        /// A neighbour's weight was one short of the threshold.
        pub below_threshold: bool,
        /// The seed loop ended on `max_lists`.
        pub max_lists_cut: bool,
        /// The seed loop ended on a zero-frequency seed.
        pub zero_freq_cut: bool,
    }

    pub struct Graph {
        hot_rank: FxHashMap<u64, u32>,
        hot_items: Vec<u64>,
        edges: FxHashMap<(u32, u32), u64>,
        freq: Vec<u64>,
        /// Per rank, the recorded samples holding it that hold a pair.
        occurrences: Vec<u64>,
        /// Hot ranks held by the recorded samples that hold a pair.
        stored_ranks: usize,
    }

    impl Graph {
        pub fn new(profile: &FreqProfile, hot_set_size: usize) -> Self {
            let hot_items: Vec<u64> = profile
                .items_by_frequency()
                .into_iter()
                .take(hot_set_size)
                .collect();
            let hot_rank = hot_items
                .iter()
                .enumerate()
                .map(|(r, &i)| (i, r as u32))
                .collect();
            let freq = hot_items.iter().map(|&i| profile.count(i)).collect();
            Graph {
                hot_rank,
                occurrences: vec![0; hot_items.len()],
                hot_items,
                edges: FxHashMap::default(),
                freq,
                stored_ranks: 0,
            }
        }

        pub fn record_sample(&mut self, sample: &[u64], cov: &mut Coverage) {
            let mut hot: Vec<u32> = sample
                .iter()
                .filter_map(|i| self.hot_rank.get(i).copied())
                .collect();
            hot.sort_unstable();
            let with_repeats = hot.len();
            hot.dedup(); // a row does not co-occur with itself
            cov.repeats |= hot.len() < with_repeats;
            if hot.len() >= 2 {
                self.stored_ranks += hot.len();
                for &a in &hot {
                    self.occurrences[a as usize] += 1;
                }
            }
            for (k, &a) in hot.iter().enumerate() {
                for &b in &hot[k + 1..] {
                    *self.edges.entry((a, b)).or_insert(0) += 1;
                }
            }
        }

        pub fn edge(&self, a: u32, b: u32) -> u64 {
            let key = (a.min(b), a.max(b));
            self.edges.get(&key).copied().unwrap_or(0)
        }

        fn adjacency(&self) -> Vec<Vec<(u32, u64)>> {
            let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); self.hot_items.len()];
            for (&(a, b), &w) in &self.edges {
                adj[a as usize].push((b, w));
                adj[b as usize].push((a, w));
            }
            for n in &mut adj {
                n.sort_by_key(|&(r, w)| (std::cmp::Reverse(w), r));
            }
            adj
        }
    }

    pub fn mine(graph: &Graph, config: &MinerConfig, cov: &mut Coverage) -> CacheListSet {
        let adjacency = graph.adjacency();
        let mut assigned: FxHashSet<u32> = FxHashSet::default();
        let mut lists = Vec::new();
        for seed in 0..graph.hot_items.len() as u32 {
            if lists.len() >= config.max_lists {
                cov.max_lists_cut = true;
                break;
            }
            if assigned.contains(&seed) {
                continue;
            }
            let seed_freq = graph.freq[seed as usize];
            if seed_freq == 0 {
                cov.zero_freq_cut = true;
                break;
            }
            let seed_runs = graph.occurrences[seed as usize];
            let threshold = (seed_runs as f64 * config.min_edge_fraction).max(1.0);
            let mut members = vec![seed];
            let mut min_edge = u64::MAX;
            let mut last_w = None;
            for &(n, w) in &adjacency[seed as usize] {
                if members.len() >= config.max_list_len {
                    break;
                }
                cov.below_threshold |= (w + 1) as f64 == threshold;
                if assigned.contains(&n) || (w as f64) < threshold {
                    continue;
                }
                cov.at_threshold |= w as f64 == threshold;
                cov.weight_tie |= last_w == Some(w);
                last_w = Some(w);
                members.push(n);
                min_edge = min_edge.min(w);
            }
            if members.len() < 2 {
                continue;
            }
            assigned.extend(members.iter().copied());
            let benefit = min_edge as f64 * (members.len() as f64 - 1.0);
            lists.push(CacheList {
                items: members
                    .iter()
                    .map(|&r| graph.hot_items[r as usize])
                    .collect(),
                benefit,
            });
        }
        lists.sort_by(|a, b| {
            b.benefit
                .partial_cmp(&a.benefit)
                .expect("benefits are finite")
        });
        CacheListSet { lists }
    }

    pub fn measure_benefit<'a>(
        set: &mut CacheListSet,
        inputs: impl IntoIterator<Item = &'a SparseInput>,
    ) {
        let mut item_to_list: FxHashMap<u64, usize> = FxHashMap::default();
        for (l, list) in set.lists.iter().enumerate() {
            for &i in &list.items {
                item_to_list.insert(i, l);
            }
        }
        let mut saved = vec![0u64; set.lists.len()];
        for input in inputs {
            for sample in input.iter() {
                let mut matched: FxHashMap<usize, u64> = FxHashMap::default();
                let distinct: FxHashSet<u64> = sample.iter().copied().collect();
                for i in &distinct {
                    if let Some(&l) = item_to_list.get(i) {
                        *matched.entry(l).or_insert(0) += 1;
                    }
                }
                for (l, k) in matched {
                    if k >= 2 {
                        saved[l] += k - 1;
                    }
                }
            }
        }
        for (list, s) in set.lists.iter_mut().zip(saved) {
            list.benefit = s as f64;
        }
        set.lists.sort_by(|a, b| {
            b.benefit
                .partial_cmp(&a.benefit)
                .expect("benefits are finite")
        });
    }

    /// The budgeted record loop (`max_samples` samples, or until the
    /// recorded samples hold 64 hot ranks per sample slot), `mine`,
    /// `measure_benefit`.
    pub fn from_trace(
        profile: &FreqProfile,
        inputs: &[SparseInput],
        config: &MinerConfig,
    ) -> (CacheListSet, Coverage) {
        let mut cov = Coverage::default();
        let mut graph = Graph::new(profile, config.hot_set_size);
        let mut budget = config.max_samples;
        let rank_budget = config.max_samples.saturating_mul(64);
        'record: for input in inputs {
            for sample in input.iter() {
                if budget == 0 {
                    cov.budget_cut = true;
                    break 'record;
                }
                if graph.stored_ranks >= rank_budget {
                    cov.rank_budget_cut = true;
                    break 'record;
                }
                graph.record_sample(sample, &mut cov);
                budget -= 1;
            }
        }
        let mut set = mine(&graph, config, &mut cov);
        measure_benefit(&mut set, inputs);
        (set, cov)
    }
}

/// One generated mining problem.
struct Case {
    rows: usize,
    inputs: Vec<SparseInput>,
    config: MinerConfig,
}

/// A skewed trace with planted co-occurring groups, all from `seed`.
///
/// Rows are drawn as `rows * u^3` (low ids hot); each sample also pulls
/// in whole planted groups, which is what gives edges weights near a
/// seed's frequency, equal-weight neighbours and full lists. Sample
/// sizes reach past 64 hot items, so a small `max_samples` can run out
/// of rank budget first; hot sets run from a few ranks to past the
/// table, and `max_lists`, `max_samples` and the zero-frequency tail
/// each end the seed loop in some cases.
fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = [24usize, 150, 400, 700][rng.random_range(0..4)];
    let group_len = rng.random_range(2..6usize);
    let groups = rng.random_range(1..rows / group_len / 2 + 1);
    // Groups tile the low rows when `spread` is 1 and are scattered
    // over the table otherwise.
    let spread = rng.random_range(1..3usize);
    let group = |g: usize| (0..group_len).map(move |m| ((g * group_len + m) * spread) as u64);
    let distinct = rng.random_bool(0.6);
    let max_sample = [6usize, 40, 200][rng.random_range(0..3)];
    let n_inputs = rng.random_range(1..5usize);
    let batch = rng.random_range(1..40usize);
    let inputs: Vec<SparseInput> = (0..n_inputs)
        .map(|_| {
            SparseInput::from_samples((0..batch).map(|_| {
                let mut sample: Vec<u64> = Vec::new();
                for _ in 0..rng.random_range(0..3usize) {
                    // Skewed group choice, so popular groups repeat.
                    let u: f64 = rng.random_range(0.0..1.0);
                    let g = (groups as f64 * u * u) as usize;
                    // Sometimes only a prefix of the group shows up.
                    let take = rng.random_range(1..group_len + 1);
                    sample.extend(group(g).take(take));
                }
                for _ in 0..rng.random_range(0..max_sample) {
                    let u: f64 = rng.random_range(0.0..1.0);
                    sample.push((rows as f64 * u * u * u) as u64);
                }
                if distinct {
                    let mut seen = HashSet::new();
                    sample.retain(|&i| seen.insert(i));
                }
                sample
            }))
        })
        .collect();
    let total = n_inputs * batch;
    let config = MinerConfig {
        hot_set_size: [5usize, 100, 128, 129, 300, 384, 1000][rng.random_range(0..7)],
        max_list_len: rng.random_range(2..7usize),
        min_edge_fraction: [0.0, 0.05, 0.1, 0.25, 0.5, 1.0][rng.random_range(0..6)],
        max_lists: [1usize, 3, 20, 40, 768][rng.random_range(0..5)],
        max_samples: if rng.random_bool(0.3) {
            rng.random_range(1..total + 1)
        } else {
            4096
        },
    };
    Case {
        rows,
        inputs,
        config,
    }
}

fn run(case: &Case) -> (String, String, oracle::Coverage) {
    let profile = FreqProfile::from_inputs(case.rows, &case.inputs);
    let real = CacheListSet::from_trace(&profile, &case.inputs, &case.config);
    let (want, cov) = oracle::from_trace(&profile, &case.inputs, &case.config);
    (
        serde::json::to_string(&real),
        serde::json::to_string(&want),
        cov,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The whole build path — budgeted recording, mining, measured
    /// benefit — emits the oracle's lists byte for byte.
    #[test]
    fn build_path_matches_the_hash_map_oracle(seed in any::<u64>()) {
        let (real, want, _) = run(&case(seed));
        prop_assert_eq!(real, want);
    }

    /// Edge weights answered from the stored samples equal the oracle's
    /// edge map, including after wide and repeated samples.
    #[test]
    fn edges_match_the_oracle(seed in any::<u64>()) {
        let case = case(seed);
        let profile = FreqProfile::from_inputs(case.rows, &case.inputs);
        let hot = case.config.hot_set_size.min(40);
        let mut real = CooccurGraph::new(&profile, hot);
        let mut want = oracle::Graph::new(&profile, hot);
        let mut cov = oracle::Coverage::default();
        for sample in case.inputs.iter().flat_map(|i| i.iter()) {
            real.record_sample(sample);
            want.record_sample(sample, &mut cov);
        }
        for a in 0..real.hot_set_size() as u32 {
            for b in 0..real.hot_set_size() as u32 {
                prop_assert_eq!(real.edge(a, b), want.edge(a, b), "edge ({}, {})", a, b);
            }
        }
    }
}

/// The generator reaches every case the miner treats specially; the
/// seeds are fixed, so this cannot rot silently into a vacuous test.
#[test]
fn generated_cases_cover_the_miners_edge_cases() {
    let mut rank_budget_cut = 0;
    let mut repeats = 0;
    let mut budget_cut = 0;
    let mut weight_tie = 0;
    let mut at_threshold = 0;
    let mut below_threshold = 0;
    let mut zero_freq_cut = 0;
    let mut max_lists_cut = 0;
    let mut hot_past_table = 0;
    let mut nonempty = 0;
    for seed in 0..400u64 {
        let case = case(seed);
        let (real, want, cov) = run(&case);
        assert_eq!(real, want, "seed {seed}");
        rank_budget_cut += cov.rank_budget_cut as u32;
        repeats += cov.repeats as u32;
        budget_cut += cov.budget_cut as u32;
        weight_tie += cov.weight_tie as u32;
        at_threshold += cov.at_threshold as u32;
        below_threshold += cov.below_threshold as u32;
        zero_freq_cut += cov.zero_freq_cut as u32;
        max_lists_cut += cov.max_lists_cut as u32;
        hot_past_table += (case.config.hot_set_size > case.rows) as u32;
        nonempty += (want.len() > r#"{"lists":[]}"#.len()) as u32;
    }
    for (what, n) in [
        ("rank budget ends recording", rank_budget_cut),
        ("repeated hot row in a sample", repeats),
        ("max_samples below the trace", budget_cut),
        ("equal-weight neighbours", weight_tie),
        ("weight exactly at the threshold", at_threshold),
        ("weight one below the threshold", below_threshold),
        ("zero-frequency tail ends the loop", zero_freq_cut),
        ("max_lists ends the loop", max_lists_cut),
        ("hot_set_size above the table", hot_past_table),
        ("nonempty result", nonempty),
    ] {
        assert!(n >= 3, "{what}: only {n} of 400 generated cases");
    }
}

/// A sample that names a hot row twice: the row gets no edge to itself,
/// its other pairs count once, and no mined list repeats an item.
#[test]
fn repeated_row_in_a_sample_is_one_occurrence() {
    let rows = 12usize;
    let samples: Vec<Vec<u64>> = (0..20).map(|_| vec![7, 7, 9]).collect();
    let inputs = vec![SparseInput::from_samples(samples)];
    let profile = FreqProfile::from_inputs(rows, &inputs);
    let mut graph = CooccurGraph::new(&profile, rows);
    graph.record_inputs(&inputs);
    let rank = |item: u64| {
        graph
            .hot_items()
            .iter()
            .position(|&i| i == item)
            .expect("hot") as u32
    };
    assert_eq!(graph.edge(rank(7), rank(7)), 0, "self edge");
    assert_eq!(graph.edge(rank(7), rank(9)), 20, "(7, 9) once per sample");
    let set = CacheListSet::mine(&graph, &MinerConfig::default());
    assert_eq!(set.len(), 1);
    for list in &set.lists {
        let distinct: HashSet<u64> = list.items.iter().copied().collect();
        assert_eq!(distinct.len(), list.items.len(), "{:?}", list.items);
    }
    let mut items = set.lists[0].items.clone();
    items.sort_unstable();
    assert_eq!(items, [7, 9]);
}
