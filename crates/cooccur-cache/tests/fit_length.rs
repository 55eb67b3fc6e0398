//! Mined lists do not collapse as the fit trace grows.
//!
//! A longer trace of the same distribution is more evidence, not less,
//! so extending the trace a cache is fit to must not cost it lists or
//! hits. The benchmark's `open_loop` shape (MetaFBGEMM1 at 1/200, 8
//! tables, batches of 64) is fit to 40, 80, 160, 320 and 640 batches —
//! each a prefix of the next — and every cache serves the same 40
//! held-out batches drawn after them.
//!
//! When a seed's edge threshold was a fraction of its whole-profile
//! count while its edges were counted over the first `max_samples`
//! recorded samples only, the bar rose with the trace: the lists fell
//! from 6,144 at 80 batches to 5,758 at 160, 520 at 320 and 48 at 640,
//! and the held-out hit rate from 0.83 to 0.04. Now they stay at 6,144
//! and the hit rate at 0.84.

use cooccur_cache::{
    CacheHit, CacheListSet, CacheTraffic, LookupScratch, MinerConfig, PartialSumCache,
};
use dlrm_model::EmbeddingTable;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

const FIT_BATCHES: [usize; 5] = [40, 80, 160, 320, 640];
const SERVED_BATCHES: usize = 40;
const TABLES: usize = 8;

#[test]
fn longer_fit_traces_keep_their_lists_and_hit_rate() {
    let spec = DatasetSpec::meta_fbgemm1().scaled_down(200);
    let longest = FIT_BATCHES[FIT_BATCHES.len() - 1];
    let trace = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: TABLES,
            batch_size: 64,
            num_batches: longest + SERVED_BATCHES,
            num_dense: 13,
            seed: 11,
        },
    );
    let (fit, served) = trace.batches.split_at(longest);
    // The lookup reads no row: a one-column table of the right height.
    let table = EmbeddingTable::zeros(spec.num_items, 1).unwrap();
    let (mut scratch, mut hit) = (LookupScratch::default(), CacheHit::default());
    let mut fits = Vec::new();
    for n in FIT_BATCHES {
        let (mut lists, mut traffic) = (0, CacheTraffic::default());
        for t in 0..TABLES {
            let inputs = || fit[..n].iter().map(|b| &b.sparse[t]);
            let profile = FreqProfile::from_inputs(spec.num_items, inputs());
            let set = CacheListSet::from_trace(&profile, inputs(), &MinerConfig::default());
            lists += set.len();
            let cache = PartialSumCache::materialize(&set, &table).unwrap();
            for sample in served.iter().flat_map(|b| b.sparse[t].iter()) {
                cache.lookup_into(sample, &mut scratch, &mut hit);
                traffic.record(sample.len(), &hit);
            }
        }
        fits.push((n, lists, traffic.hit_rate()));
    }
    let (_, _, first_hit_rate) = fits[0];
    assert!(first_hit_rate > 0.2, "the caches serve: {fits:?}");
    for w in fits.windows(2) {
        assert!(w[1].1 >= w[0].1, "lists fell with a longer fit: {fits:?}");
    }
    for &(n, _, hit_rate) in &fits {
        assert!(
            (hit_rate - first_hit_rate).abs() <= 0.01,
            "{n} batches: hit rate {hit_rate:.4} vs {first_hit_rate:.4} at 40: {fits:?}"
        );
    }
}
