//! Shape tests: assert the *qualitative* claims of every paper figure
//! at quick scale, using the same experiment code the binaries run.
//! (Absolute numbers are simulator outputs; see EXPERIMENTS.md.)

use bench::experiments;
use bench::setup::{EvalConfig, EvalSetup};
use updlrm_core::PartitionStrategy;
use workloads::DatasetSpec;

fn quick() -> EvalConfig {
    EvalConfig::quick()
}

#[test]
fn fig3_shape_flat_then_steep() {
    let rows = experiments::fig3();
    let by_size = |s: usize| {
        rows.iter()
            .find(|r| r.size_bytes == s)
            .expect("size")
            .latency_ns
    };
    // Paper: 8 -> 32 B nearly flat, then dramatic growth.
    assert!(by_size(32) / by_size(8) < 1.25);
    assert!(by_size(2048) / by_size(32) > 5.0);
    // Monotone.
    for w in rows.windows(2) {
        assert!(w[1].latency_ns >= w[0].latency_ns);
    }
}

#[test]
fn table1_matches_spec() {
    let rows = experiments::table1(quick());
    assert_eq!(rows.len(), 6);
    for r in &rows {
        let err = (r.measured_avg_reduction - r.spec_avg_reduction).abs();
        assert!(
            err < r.spec_avg_reduction * 0.2,
            "{}: measured {} vs spec {}",
            r.short,
            r.measured_avg_reduction,
            r.spec_avg_reduction
        );
    }
    // Hotness categories ordered by reduction.
    assert!(rows[0].spec_avg_reduction < rows[2].spec_avg_reduction);
    assert!(rows[2].spec_avg_reduction < rows[4].spec_avg_reduction);
}

#[test]
fn fig5_shape_heavy_block_skew() {
    let rows = experiments::fig5(quick());
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert_eq!(r.blocks.len(), 8);
        // Paper: orders-of-magnitude imbalance (up to ~340x); at quick
        // scale demand at least a strong skew.
        assert!(r.skew > 20.0, "{} skew only {}", r.dataset, r.skew);
        // The first block (most popular items) dominates.
        let max = *r.blocks.iter().max().expect("nonempty");
        assert_eq!(r.blocks[0], max);
    }
}

#[test]
fn fig6_shape_caching_unbalances_naive_placement() {
    let r = experiments::fig6(quick()).expect("fig6");
    // Caching cuts total traffic substantially (paper: ~40%).
    assert!(r.cache_reduction > 0.15, "reduction {}", r.cache_reduction);
    // NU is balanced; naive cache placement breaks the balance;
    // Algorithm 1 restores it.
    assert!(r.nu_imbalance() < 1.15);
    assert!(r.naive_imbalance() > r.nu_imbalance() + 0.05);
    assert!(r.ca_imbalance() < r.naive_imbalance());
}

#[test]
fn fig8_shape_system_ordering() {
    // One dataset per hotness class to keep runtime in check.
    for spec in [DatasetSpec::amazon_clothes(), DatasetSpec::goodreads()] {
        let row = experiments::fig8_one(&spec, quick()).expect("fig8");
        let s = row.speedups();
        // Hybrid loses to CPU; UpDLRM beats CPU and FAE.
        assert!(s[1] < 1.0, "{}: hybrid {}", row.dataset, s[1]);
        assert!(s[3] > 1.0, "{}: updlrm {}", row.dataset, s[3]);
        assert!(
            s[3] > s[2] * 0.95,
            "{}: updlrm {} vs fae {}",
            row.dataset,
            s[3],
            s[2]
        );
        assert!(s[2] > 1.0, "{}: fae {}", row.dataset, s[2]);
    }
}

#[test]
fn fig8_shape_high_hot_gains_most() {
    let low = experiments::fig8_one(&DatasetSpec::amazon_clothes(), quick()).expect("low hot");
    let high = experiments::fig8_one(&DatasetSpec::goodreads2(), quick()).expect("high hot");
    assert!(
        high.speedups()[3] > low.speedups()[3],
        "high hot {} should out-speedup low hot {}",
        high.speedups()[3],
        low.speedups()[3]
    );
}

#[test]
fn fig9_shape_ca_beats_nu_beats_u_on_hot_data() {
    let rows = experiments::fig9(&[DatasetSpec::goodreads()], quick()).expect("fig9");
    for n_c in [2usize, 4, 8] {
        let get = |tag: &str| {
            rows.iter()
                .find(|r| r.strategy == tag && r.n_c == n_c)
                .expect("row")
                .speedup()
        };
        let (u, nu, ca) = (get("U"), get("NU"), get("CA"));
        assert!(nu > u, "N_c {n_c}: NU {nu} vs U {u}");
        assert!(ca >= nu * 0.98, "N_c {n_c}: CA {ca} vs NU {nu}");
    }
}

#[test]
fn fig10_shape_stage3_grows_with_nc() {
    let rows = experiments::fig10(quick()).expect("fig10");
    for tag in ["U", "NU", "CA"] {
        let frac = |n_c: usize| {
            rows.iter()
                .find(|r| r.strategy == tag && r.n_c == n_c)
                .expect("row")
                .stage3_frac
        };
        assert!(
            frac(8) > frac(2),
            "{tag}: stage3 share should grow with N_c: {} -> {}",
            frac(2),
            frac(8)
        );
    }
    // Stage 2 dominates the embedding time for U/NU (the paper's
    // bottleneck claim), and CA reduces the total.
    let total = |tag: &str, n_c: usize| {
        rows.iter()
            .find(|r| r.strategy == tag && r.n_c == n_c)
            .expect("row")
            .total_ns
    };
    for n_c in [2usize, 4, 8] {
        assert!(total("CA", n_c) <= total("NU", n_c) * 1.02);
        assert!(total("NU", n_c) < total("U", n_c));
    }
}

#[test]
fn fig11_shape_linear_small_saturating_large() {
    let rows = experiments::fig11(quick()).expect("fig11");
    let t = |red: usize, size: usize| {
        rows.iter()
            .find(|r| r.avg_reduction == red && r.lookup_bytes == size)
            .expect("point")
            .lookup_us
    };
    // Growth factor from reduction 50 to 300 per lookup size.
    let growth_8 = t(300, 8) / t(50, 8);
    let growth_128 = t(300, 128) / t(50, 128);
    assert!(growth_8 > 2.5, "8 B should grow strongly: {growth_8}");
    assert!(
        growth_128 < growth_8 * 0.75,
        "128 B should saturate: {growth_128} vs {growth_8}"
    );
    // At high reduction, small lookups are the slowest (many tiny DMAs).
    assert!(t(300, 8) > t(300, 64));
}

/// §3.3 as a fidelity assertion, at the standard scale EXPERIMENTS.md
/// reports: the paper cuts lookup time by 17% / 22% / 26% at 40% / 70%
/// / 100% capacity. The reduction must not fall as capacity grows and
/// must reach the paper's 26% with the whole cache (32% / 34% / 34%
/// here; an overshoot is reported there, not tuned away).
#[test]
fn cache_capacity_shape_more_cache_less_lookup() {
    let rows = experiments::cache_capacity(EvalConfig::standard()).expect("cache capacity");
    assert_eq!(rows.len(), 4);
    let reductions: Vec<f64> = rows.iter().map(|r| r.reduction_vs_no_cache).collect();
    for w in rows.windows(2) {
        assert!(
            w[1].lookup_ns <= w[0].lookup_ns,
            "lookup time grew with capacity: reductions {reductions:?}"
        );
    }
    assert!(
        reductions[3] >= 0.26,
        "full cache cuts lookup time by {:.1}%, the paper 26%",
        reductions[3] * 100.0
    );
}

#[test]
fn energy_shape_pim_saves_energy() {
    let rows = experiments::energy(&[DatasetSpec::goodreads()], quick()).expect("energy");
    assert!(
        rows[0].updlrm_uj < rows[0].cpu_uj,
        "PIM should save embedding energy"
    );
}

#[test]
fn updlrm_matches_cpu_functionally_at_harness_scale() {
    let setup = EvalSetup::build(&DatasetSpec::goodreads(), quick()).expect("setup");
    let mut cpu = setup.cpu().expect("cpu");
    let mut updlrm = setup
        .updlrm(PartitionStrategy::CacheAware, None)
        .expect("updlrm");
    use baselines::InferenceBackend;
    let batch = &setup.workload.batches[0];
    let (a, _) = cpu.run_batch(batch).expect("cpu run");
    let (b, _) = updlrm.run_batch(batch).expect("updlrm run");
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-4, "outputs diverge: {x} vs {y}");
    }
}
