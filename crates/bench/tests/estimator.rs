//! Validates the Eq. 1 analytic cost estimator against the measured
//! simulator: the estimator exists to *rank* tile shapes (the §3.1
//! exhaustive search), so its ordering must broadly agree with the
//! measured embedding times.

use baselines::InferenceBackend;
use bench::setup::{EvalConfig, EvalSetup};
use updlrm_core::{PartitionStrategy, TilingProblem};
use upmem_sim::CostModel;
use workloads::DatasetSpec;

#[test]
fn estimator_ranking_agrees_with_measurement_on_extremes() {
    let eval = EvalConfig::quick();
    let setup = EvalSetup::build(&DatasetSpec::goodreads(), eval).expect("setup");
    let problem = TilingProblem {
        rows: setup.spec.num_items,
        cols: 32,
        dpus: eval.nr_dpus / 8,
        batch_size: 64,
        avg_reduction: setup.workload.measured_avg_reduction(),
        emt_capacity_bytes: 48 << 20,
        tasklets: eval.tasklets,
        // `EvalSetup::updlrm` measures the paper's kernel.
        wram_hit_share: 0.0,
    };
    let cost = CostModel::default();

    let mut estimated = Vec::new();
    let mut measured = Vec::new();
    for n_c in [2usize, 4, 8] {
        let tiling = problem.tiling_for_nc(n_c, &cost).expect("feasible");
        estimated.push((n_c, tiling.est_cost_ns));
        let mut backend = setup
            .updlrm(PartitionStrategy::NonUniform, Some(n_c))
            .expect("backend");
        let mut total = 0.0;
        for batch in &setup.workload.batches {
            let (_, report) = backend.run_batch(batch).expect("run");
            total += report.pim.expect("pim").total_ns();
        }
        measured.push((n_c, total));
    }

    // The estimator's best and worst choices must match measurement's
    // best and worst (full rank agreement is not required of a
    // closed-form model, extreme agreement is).
    let arg_min = |v: &[(usize, f64)]| {
        v.iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty")
            .0
    };
    let arg_max = |v: &[(usize, f64)]| {
        v.iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty")
            .0
    };
    assert_eq!(
        arg_min(&estimated),
        arg_min(&measured),
        "estimator best {estimated:?} vs measured {measured:?}"
    );
    assert_eq!(
        arg_max(&estimated),
        arg_max(&measured),
        "estimator worst {estimated:?} vs measured {measured:?}"
    );
}

#[test]
fn auto_nc_is_never_the_worst_choice() {
    let eval = EvalConfig::quick();
    for spec in [DatasetSpec::amazon_clothes(), DatasetSpec::goodreads2()] {
        let setup = EvalSetup::build(&spec, eval).expect("setup");
        let measure = |n_c: Option<usize>| {
            let mut backend = setup
                .updlrm(PartitionStrategy::NonUniform, n_c)
                .expect("backend");
            let mut total = 0.0;
            for batch in &setup.workload.batches {
                let (_, report) = backend.run_batch(batch).expect("run");
                total += report.embedding_ns;
            }
            total
        };
        let auto = measure(None);
        let worst = [2usize, 4, 8]
            .into_iter()
            .map(|n| measure(Some(n)))
            .fold(0.0f64, f64::max);
        assert!(
            auto < worst,
            "{}: auto {auto} should beat the worst fixed choice {worst}",
            spec.short
        );
    }
}
