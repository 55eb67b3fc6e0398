//! Multi-hot trace synthesis.
//!
//! Generates the inference request stream a recommendation service
//! would see: batches of samples, each carrying one multi-hot index
//! list per embedding table. Index draws follow the spec's Zipf
//! popularity with planted co-occurrence clusters (so that partial-sum
//! cache mining has real structure to discover), and per-sample list
//! lengths average to the spec's `Avg.Reduction`.

use crate::arrival::{ArrivalProcess, ArrivalTrace};
use crate::drift::{ActiveHotSet, DriftSchedule};
use crate::spec::DatasetSpec;
use crate::zipf::ZipfSampler;
use dlrm_model::{QueryBatch, SparseInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Shape of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceConfig {
    /// Embedding tables per model (the paper duplicates each dataset
    /// into 8 EMTs).
    pub num_tables: usize,
    /// Samples per batch (the paper uses 64).
    pub batch_size: usize,
    /// Number of batches (the paper samples 12,800 inferences = 200
    /// batches of 64).
    pub num_batches: usize,
    /// Dense features per sample (13, Criteo-style).
    pub num_dense: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            num_tables: 8,
            batch_size: 64,
            num_batches: 10,
            num_dense: 13,
            seed: 0xDA7A,
        }
    }
}

impl TraceConfig {
    /// The paper's evaluation shape: 8 tables, batch 64, 12,800
    /// inferences (200 batches).
    pub fn paper_eval(seed: u64) -> Self {
        TraceConfig {
            num_tables: 8,
            batch_size: 64,
            num_batches: 200,
            num_dense: 13,
            seed,
        }
    }
}

/// A generated workload: the spec it came from plus the request batches.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Originating dataset specification.
    pub spec: DatasetSpec,
    /// Generation parameters.
    pub config: TraceConfig,
    /// The request stream.
    pub batches: Vec<QueryBatch>,
    /// Per-query arrival timestamps (empty = closed-loop).
    pub arrivals: ArrivalTrace,
    /// Non-stationary schedule the trace was generated under (None =
    /// stationary workload, saved as an empty drift block).
    pub drift: Option<DriftSchedule>,
}

impl Workload {
    /// Synthesizes a workload from `spec` deterministically in
    /// `config.seed`.
    pub fn generate(spec: &DatasetSpec, config: TraceConfig) -> Workload {
        let batches = synthesize_batches(spec, config, |_| None);
        Workload {
            spec: spec.clone(),
            config,
            batches,
            arrivals: ArrivalTrace::closed_loop(),
            drift: None,
        }
    }

    /// Synthesizes a non-stationary (UPWL v3) workload: arrivals come
    /// from `process` warped by the schedule's rate modulation, and
    /// each sample's index draws are redirected into the hot set active
    /// at that sample's arrival time. Deterministic in `config.seed`
    /// and the process seed.
    ///
    /// # Panics
    ///
    /// Panics when the schedule fails [`DriftSchedule::validate`]
    /// against `spec.num_items` or when `process` is closed-loop —
    /// drift is a function of arrival time, so there must be one.
    /// Callers (CLI, benches) validate first.
    pub fn generate_drifting(
        spec: &DatasetSpec,
        config: TraceConfig,
        drift: DriftSchedule,
        process: ArrivalProcess,
    ) -> Workload {
        drift
            .validate(spec.num_items)
            .expect("drift schedule must validate against the spec");
        assert!(
            !process.is_closed_loop(),
            "drifting workloads need open-loop arrivals"
        );
        let num_queries = config.batch_size * config.num_batches;

        // Warp the base arrival gaps by the rate multiplier evaluated
        // at the warped clock: dt' = dt / m(t'). A spike compresses
        // gaps (flash crowd), the diurnal curve stretches and squeezes
        // them sinusoidally.
        let base = ArrivalTrace::generate(process, num_queries);
        let mut times_ns = Vec::with_capacity(num_queries);
        let mut prev_base = 0u64;
        let mut t = 0.0f64;
        let mut last = 0u64;
        for &tb in &base.times_ns {
            let dt = tb.saturating_sub(prev_base) as f64;
            prev_base = tb;
            t += dt / drift.rate_multiplier(t.round() as u64);
            // Same strictly-increasing integer stamping as
            // `ArrivalTrace::generate`: a rate boost can compress a
            // warped gap below 1 ns, so floor at `previous + 1`.
            last = (t.round() as u64).max(last + 1);
            times_ns.push(last);
        }
        let arrivals = ArrivalTrace { process, times_ns };

        let batches =
            synthesize_batches(spec, config, |k| drift.active_hot_set(arrivals.times_ns[k]));
        Workload {
            spec: spec.clone(),
            config,
            batches,
            arrivals,
            drift: Some(drift),
        }
    }

    /// Total queries (samples) across all batches.
    pub fn num_queries(&self) -> usize {
        self.batches.iter().map(QueryBatch::batch_size).sum()
    }

    /// Stamps every query with an arrival time drawn from `process`,
    /// replacing any existing arrival trace. Timestamps are in
    /// batch-major query order (query `k` lives in batch
    /// `k / batch_size`, sample `k % batch_size`).
    pub fn stamp_arrivals(&mut self, process: ArrivalProcess) {
        self.arrivals = ArrivalTrace::generate(process, self.num_queries());
    }

    /// Total lookups across all batches and tables.
    pub fn total_lookups(&self) -> usize {
        self.batches
            .iter()
            .map(|b| {
                b.sparse
                    .iter()
                    .map(SparseInput::total_lookups)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Empirical average reduction over the generated trace.
    pub fn measured_avg_reduction(&self) -> f64 {
        let samples: usize = self
            .batches
            .iter()
            .map(|b| b.sparse.iter().map(SparseInput::batch_size).sum::<usize>())
            .sum();
        if samples == 0 {
            0.0
        } else {
            self.total_lookups() as f64 / samples as f64
        }
    }

    /// Iterator over all sparse inputs of one table across batches.
    pub fn table_inputs(&self, table: usize) -> impl Iterator<Item = &SparseInput> + '_ {
        self.batches.iter().map(move |b| &b.sparse[table])
    }
}

/// The batch loop both generators share: one `StdRng` seeded from
/// `config.seed` draws each batch's dense features, then each table's
/// samples; query `k` (batch-major) draws its indices under `hot(k)`.
fn synthesize_batches(
    spec: &DatasetSpec,
    config: TraceConfig,
    hot: impl Fn(usize) -> Option<ActiveHotSet>,
) -> Vec<QueryBatch> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let items = ZipfSampler::new(spec.num_items, spec.zipf_theta);
    let clusters = ClusterPlan::new(spec);
    (0..config.num_batches)
        .map(|b| {
            let dense: Vec<f32> = (0..config.batch_size * config.num_dense)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            let sparse: Vec<SparseInput> = (0..config.num_tables)
                .map(|_| {
                    SparseInput::from_samples(
                        (0..config.batch_size)
                            .map(|s| {
                                let k = b * config.batch_size + s;
                                sample_multi_hot(spec, &items, &clusters, hot(k), &mut rng)
                            })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            QueryBatch::new(dense, config.num_dense, sparse)
                .expect("generated batches are valid by construction")
        })
        .collect()
}

/// Where the planted co-occurrence clusters live in the item space.
#[derive(Debug)]
struct ClusterPlan {
    /// Number of clusters (0 disables co-occurrence).
    num_clusters: usize,
    cluster_size: usize,
    cluster_rate: f64,
    sampler: Option<ZipfSampler>,
}

impl ClusterPlan {
    fn new(spec: &DatasetSpec) -> ClusterPlan {
        let clustered_items = (spec.num_items as f64 * spec.cooccur.clustered_fraction) as usize;
        let num_clusters = clustered_items / spec.cooccur.cluster_size.max(1);
        let sampler = (num_clusters > 0 && spec.cooccur.cluster_rate > 0.0)
            .then(|| ZipfSampler::new(num_clusters, spec.zipf_theta.max(0.5)));
        ClusterPlan {
            num_clusters,
            cluster_size: spec.cooccur.cluster_size,
            cluster_rate: spec.cooccur.cluster_rate,
            sampler,
        }
    }

    /// Items of cluster `c`: consecutive ids among the most popular.
    fn members(&self, c: u64) -> impl Iterator<Item = u64> {
        let start = c * self.cluster_size as u64;
        start..start + self.cluster_size as u64
    }
}

/// Draws one sample's distinct multi-hot index list. With `hot` set,
/// each draw is redirected uniformly into the active hot set with the
/// schedule's probability before the Zipf/cluster machinery runs; with
/// `hot = None` it makes no redirect draw, so a drifting trace whose
/// schedule sets no hot set draws the stationary batches
/// (`drifting_without_hot_sets_draws_the_stationary_batches`).
fn sample_multi_hot(
    spec: &DatasetSpec,
    items: &ZipfSampler,
    clusters: &ClusterPlan,
    hot: Option<ActiveHotSet>,
    rng: &mut StdRng,
) -> Vec<u64> {
    // Per-sample length: uniform in [0.5, 1.5] * avg so the mean matches
    // the spec while lengths vary as in real traces.
    let target = (spec.avg_reduction * rng.random_range(0.5..1.5))
        .round()
        .max(1.0) as usize;
    let target = target.min(spec.num_items);
    let mut out = Vec::with_capacity(target);
    let mut seen = HashSet::with_capacity(target * 2);
    let mut attempts = 0usize;
    let max_attempts = target * 20 + 64;
    while out.len() < target && attempts < max_attempts {
        attempts += 1;
        if let Some(h) = hot {
            if h.hot_fraction > 0.0 && rng.random_bool(h.hot_fraction) {
                let item = h.start_row + rng.random_range(0..h.rows);
                if seen.insert(item) {
                    out.push(item);
                }
                continue;
            }
        }
        let take_cluster = clusters
            .sampler
            .as_ref()
            .is_some_and(|_| rng.random_bool(clusters.cluster_rate));
        if take_cluster {
            let c = clusters.sampler.as_ref().expect("checked").sample(rng);
            debug_assert!((c as usize) < clusters.num_clusters);
            for item in clusters.members(c) {
                if out.len() >= target {
                    break;
                }
                if seen.insert(item) {
                    out.push(item);
                }
            }
        } else {
            let item = items.sample(rng);
            if seen.insert(item) {
                out.push(item);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec::goodreads().scaled_down(1000) // 2360 items
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let cfg = TraceConfig {
            num_batches: 2,
            ..TraceConfig::default()
        };
        let a = Workload::generate(&spec, cfg);
        let b = Workload::generate(&spec, cfg);
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn measured_reduction_tracks_spec() {
        let spec = small_spec();
        let cfg = TraceConfig {
            num_batches: 6,
            ..TraceConfig::default()
        };
        let w = Workload::generate(&spec, cfg);
        let measured = w.measured_avg_reduction();
        assert!(
            (measured - spec.avg_reduction).abs() < spec.avg_reduction * 0.15,
            "measured {measured} vs spec {}",
            spec.avg_reduction
        );
    }

    #[test]
    fn indices_in_range_and_distinct_per_sample() {
        let spec = small_spec();
        let w = Workload::generate(
            &spec,
            TraceConfig {
                num_batches: 2,
                ..TraceConfig::default()
            },
        );
        for b in &w.batches {
            for s in &b.sparse {
                for sample_idx in 0..s.batch_size() {
                    let sample = s.sample(sample_idx);
                    assert!(sample.iter().all(|&i| (i as usize) < spec.num_items));
                    let set: HashSet<u64> = sample.iter().copied().collect();
                    assert_eq!(set.len(), sample.len(), "duplicate index in sample");
                }
            }
        }
    }

    #[test]
    fn shape_matches_config() {
        let spec = small_spec();
        let cfg = TraceConfig {
            num_tables: 3,
            batch_size: 16,
            num_batches: 4,
            num_dense: 5,
            seed: 1,
        };
        let w = Workload::generate(&spec, cfg);
        assert_eq!(w.batches.len(), 4);
        for b in &w.batches {
            assert_eq!(b.sparse.len(), 3);
            assert_eq!(b.batch_size(), 16);
            assert_eq!(b.dense.len(), 16 * 5);
        }
    }

    #[test]
    fn balanced_synthetic_has_no_skew() {
        // With theta = 0 the most popular block should see roughly the
        // same traffic as the least popular one.
        let spec = DatasetSpec::balanced_synthetic(1024, 40.0);
        let w = Workload::generate(
            &spec,
            TraceConfig {
                num_batches: 8,
                ..TraceConfig::default()
            },
        );
        let mut counts = vec![0u64; 1024];
        for b in &w.batches {
            for s in &b.sparse {
                for &i in &s.indices {
                    counts[i as usize] += 1;
                }
            }
        }
        let head: u64 = counts[..128].iter().sum();
        let tail: u64 = counts[896..].iter().sum();
        let ratio = head as f64 / tail.max(1) as f64;
        assert!(ratio < 1.5, "balanced trace too skewed: {ratio}");
    }

    #[test]
    fn cooccurrence_is_planted() {
        // Items of the same cluster should co-occur far more often than
        // random pairs: check pair (0, 1) vs (0, large non-cluster id).
        let mut spec = small_spec();
        spec.cooccur.cluster_rate = 0.6;
        let w = Workload::generate(
            &spec,
            TraceConfig {
                num_batches: 8,
                ..TraceConfig::default()
            },
        );
        let mut co01 = 0u64;
        let mut co0x = 0u64;
        let far = (spec.num_items - 10) as u64;
        for b in &w.batches {
            for s in &b.sparse {
                for smp in s.iter() {
                    let has0 = smp.contains(&0);
                    if has0 && smp.contains(&1) {
                        co01 += 1;
                    }
                    if has0 && smp.contains(&far) {
                        co0x += 1;
                    }
                }
            }
        }
        assert!(
            co01 > co0x * 3,
            "cluster pair co-occurs {co01}, random pair {co0x}"
        );
    }

    #[test]
    fn drifting_generation_is_deterministic_and_concentrated() {
        use crate::drift::{DriftSchedule, HotSetRotation};
        let spec = small_spec();
        let cfg = TraceConfig {
            num_tables: 2,
            num_batches: 6,
            ..TraceConfig::default()
        };
        let drift = DriftSchedule {
            rotation: Some(HotSetRotation {
                num_sets: 4,
                set_size: 256,
                period_ns: 2_000_000,
                hot_fraction: 0.9,
            }),
            ..DriftSchedule::default()
        };
        let process = ArrivalProcess::poisson(50_000.0, 3);
        let a = Workload::generate_drifting(&spec, cfg, drift.clone(), process);
        let b = Workload::generate_drifting(&spec, cfg, drift.clone(), process);
        assert_eq!(a, b);
        assert_eq!(a.arrivals.len(), a.num_queries());
        assert!(a.arrivals.times_ns.windows(2).all(|w| w[0] < w[1]));
        // Each query's indices should concentrate in the hot set active
        // at its arrival time.
        let mut in_hot = 0u64;
        let mut total = 0u64;
        for (bi, batch) in a.batches.iter().enumerate() {
            for sp in &batch.sparse {
                for (s, sample) in sp.iter().enumerate() {
                    let k = bi * cfg.batch_size + s;
                    let h = drift.active_hot_set(a.arrivals.times_ns[k]).unwrap();
                    total += sample.len() as u64;
                    in_hot += sample
                        .iter()
                        .filter(|&&i| i >= h.start_row && i < h.start_row + h.rows)
                        .count() as u64;
                }
            }
        }
        // Distinct-draw dedup within a sample dilutes the redirect
        // probability, so the realized share sits below hot_fraction.
        let frac = in_hot as f64 / total as f64;
        assert!(frac > 0.55, "hot-set concentration too low: {frac}");
        // Stationary generation is untouched by the drift machinery.
        assert_eq!(Workload::generate(&spec, cfg).drift, None);
    }

    #[test]
    fn drifting_without_hot_sets_draws_the_stationary_batches() {
        use crate::drift::{DiurnalCurve, DriftSchedule};
        let spec = small_spec();
        let cfg = TraceConfig {
            num_tables: 3,
            num_batches: 5,
            ..TraceConfig::default()
        };
        // A diurnal-only schedule warps arrivals but redirects no draw.
        let drift = DriftSchedule {
            diurnal: Some(DiurnalCurve {
                period_ns: 1_000_000,
                amplitude: 0.5,
            }),
            ..DriftSchedule::default()
        };
        let process = ArrivalProcess::poisson(50_000.0, 3);
        let drifting = Workload::generate_drifting(&spec, cfg, drift.clone(), process);
        assert!(drifting
            .arrivals
            .times_ns
            .iter()
            .all(|&t| drift.active_hot_set(t).is_none()));
        assert_eq!(drifting.batches, Workload::generate(&spec, cfg).batches);
    }

    #[test]
    fn paper_eval_config_is_12800_inferences() {
        let c = TraceConfig::paper_eval(0);
        assert_eq!(c.batch_size * c.num_batches, 12_800);
        assert_eq!(c.num_tables, 8);
    }
}
