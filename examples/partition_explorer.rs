//! Partition explorer: compare the three EMT partitioning strategies on
//! any of the paper's datasets.
//!
//! ```text
//! cargo run --release --example partition_explorer -- read2
//! cargo run --release --example partition_explorer -- movie
//! ```
//!
//! Prints the Eq. 1–3 tiling search, per-partition loads and the
//! resulting workload-balance statistics for U, NU and CA.

use updlrm::cooccur_cache::{CacheListSet, CooccurGraph};
use updlrm::prelude::*;
use updlrm::updlrm_core::{cache_aware, non_uniform, uniform, TilingProblem};

fn spec_by_name(name: &str) -> Option<DatasetSpec> {
    let spec = match name {
        "clo" => DatasetSpec::amazon_clothes(),
        "home" => DatasetSpec::amazon_home(),
        "meta1" => DatasetSpec::meta_fbgemm1(),
        "meta2" => DatasetSpec::meta_fbgemm2(),
        "read" => DatasetSpec::goodreads(),
        "read2" => DatasetSpec::goodreads2(),
        "movie" => DatasetSpec::movie(),
        "twitch" => DatasetSpec::twitch(),
        _ => return None,
    };
    Some(spec)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "read".to_string());
    let Some(full_spec) = spec_by_name(&name) else {
        eprintln!("unknown dataset '{name}'; try clo|home|meta1|meta2|read|read2|movie|twitch");
        std::process::exit(2);
    };
    let spec = full_spec.scaled_down(200);
    println!(
        "dataset {name}: {} items (scaled from {}), avg reduction {:.1}, zipf theta {}",
        spec.num_items, full_spec.num_items, spec.avg_reduction, spec.zipf_theta
    );

    // Profile a trace.
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 1,
            num_batches: 16,
            ..TraceConfig::default()
        },
    );
    let profile = FreqProfile::from_inputs(spec.num_items, workload.table_inputs(0));
    println!(
        "trace: {} accesses, 8-block skew {:.0}x",
        profile.total_accesses(),
        profile.block_skew(8)
    );

    // The Eq. 1-3 tiling search over one 32-DPU group.
    let problem = TilingProblem {
        rows: spec.num_items,
        cols: 32,
        dpus: 32,
        batch_size: 64,
        avg_reduction: spec.avg_reduction,
        emt_capacity_bytes: 48 << 20,
        tasklets: 14,
        // The paper's kernel: no row WRAM-resident.
        wram_hit_share: 0.0,
    };
    let cost = CostModel::default();
    println!("\nEq. 1-3 tiling candidates (32 DPUs per table):");
    for n_c in [2usize, 4, 6, 8] {
        match problem.tiling_for_nc(n_c, &cost) {
            Ok(t) => println!(
                "  N_c = {n_c}: {} row parts x {} col slices, N_r = {}, est. cost {:.1} us",
                t.row_parts,
                t.col_slices,
                t.n_r,
                t.est_cost_ns / 1e3
            ),
            Err(e) => println!("  N_c = {n_c}: infeasible ({e})"),
        }
    }
    let best = problem.search(&cost)?;
    println!("  -> chosen: N_c = {}", best.n_c);

    // Partition with each strategy at the chosen shape.
    let parts = best.row_parts;
    let cap = spec.num_items;
    let u = uniform(spec.num_items, parts, cap, &profile)?;
    let nu = non_uniform(spec.num_items, parts, cap, &profile)?;

    let mut graph = CooccurGraph::new(&profile, 2048);
    graph.record_inputs(workload.table_inputs(0));
    let mut lists = CacheListSet::mine(&graph, &MinerConfig::default());
    lists.measure_benefit(workload.table_inputs(0));
    let ca = cache_aware(spec.num_items, parts, cap, cap, &profile, &lists)?;

    println!("\nper-partition predicted load ({} partitions):", parts);
    println!("{:>6}  {:>12}  {:>12}  {:>12}", "part", "U", "NU", "CA");
    for p in 0..parts {
        println!(
            "{:>6}  {:>12.0}  {:>12.0}  {:>12.0}",
            p, u.part_load[p], nu.part_load[p], ca.rows.part_load[p]
        );
    }
    println!(
        "\nimbalance (max/mean): U {:.2}, NU {:.2}, CA {:.2}",
        u.imbalance(),
        nu.imbalance(),
        ca.rows.imbalance()
    );
    println!(
        "cache: {} lists placed, {} combination rows, {:.1}% of accesses saved",
        ca.placed_lists.lists.len(),
        ca.cache_rows_per_part.iter().sum::<u32>(),
        100.0 * ca.placed_lists.lists.iter().map(|l| l.benefit).sum::<f64>()
            / profile.total_accesses() as f64
    );
    Ok(())
}
