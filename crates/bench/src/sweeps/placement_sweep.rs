//! Table-scale sweep through the tiered placement planner: where does
//! tiering beat pure MRAM as embedding tables grow 10–100x past
//! today's Table-1 sizes?
//!
//! For each scale multiplier the sweep plans the same Zipf-profiled
//! catalog twice — once with the host-DRAM hot cache and replicated
//! hot shards enabled, once forced pure-cold (everything in MRAM
//! partitions) — then serves an identical trace through an
//! [`UpdlrmEngine`] built from each plan and compares *modeled* batch
//! time. The knee shape is asserted, not eyeballed:
//!
//! 1. at every scale the tiered plan is no slower than pure MRAM;
//! 2. the absolute modeled time saved per batch grows with scale (a
//!    fixed-size hot tier keeps absorbing the Zipf head while the
//!    MRAM-only plan pays the EMT walk for all of it);
//! 3. by 10x and beyond, tiering wins by at least 1.3x;
//! 4. the planner's own cost estimate agrees with the simulated
//!    engine on *which* plan wins at every scale, and from 10x on
//!    within a factor of 1.5 on by how much, decaying likewise.
//!
//! The rows are the golden `BENCH_placement.json` (see [`crate::protocol`]).

use crate::protocol::Sweep;
use dlrm_model::EmbeddingTable;
use placement::{plan, Catalog, PlacementPlan, PlannerConfig};
use serde::Serialize;
use updlrm_core::{UpdlrmConfig, UpdlrmEngine};
use upmem_sim::RankTopology;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

const NUM_TABLES: usize = 2;
const DIM: usize = 32;
const NUM_BATCHES: usize = 2;
/// Scale 1x = goodreads/5000 (472 rows/table), today's CI-sized table.
const BASE_DIVISOR: usize = 5000;
const NR_RANKS: usize = 4;
const DPUS_PER_RANK: usize = 16;
/// Hot tier stays fixed while tables grow: 512 host-cached rows/table
/// worth of DRAM plus the 64 hottest rows replicated on every DPU.
const HOST_CACHE_BYTES: usize = NUM_TABLES * 512 * DIM * 4;
const REPLICATE_TOP: usize = 64;
const EMT_CAPACITY_BYTES: usize = 2 << 20;

/// Table-size multipliers over the 1x base catalog.
const SCALES: [u64; 4] = [1, 10, 30, 100];

#[derive(Serialize)]
struct Row {
    /// Nominal table-size multiplier (the row key).
    scale: u64,
    rows_per_table: usize,
    catalog_mb: f64,
    host_rows: usize,
    replicated_rows: usize,
    cold_rows: usize,
    /// Modeled embedding time per batch, simulated engine.
    tiered_batch_us: f64,
    mram_batch_us: f64,
    modeled_speedup: f64,
    /// The planner's own a-priori estimate of the same ratio, and of
    /// the two batch times behind it (host probes and combines
    /// included, which the modeled stage-1..3 times leave out —
    /// DESIGN.md §4.9).
    est_speedup: f64,
    est_tiered_batch_us: f64,
    est_mram_batch_us: f64,
}

fn build(scale: u64) -> (DatasetSpec, Workload, Vec<EmbeddingTable>) {
    let divisor = (BASE_DIVISOR / scale as usize).max(1);
    let spec = DatasetSpec::goodreads().scaled_down(divisor);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches: NUM_BATCHES,
            ..TraceConfig::default()
        },
    );
    let tables = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (spec, workload, tables)
}

/// The engine every plan of the sweep is served on.
fn engine_config(workload: &Workload) -> UpdlrmConfig {
    UpdlrmConfig {
        batch_size: workload.config.batch_size,
        ..UpdlrmConfig::default()
    }
}

fn planner_config(tiered: bool, workload: &Workload) -> PlannerConfig {
    PlannerConfig {
        // What the planner's estimate is told about the traffic and the
        // engine is what the simulated run then serves, on that engine.
        batch_hint: workload.config.batch_size,
        avg_reduction_hint: workload.measured_avg_reduction(),
        wram_resident_bytes: engine_config(workload).wram_resident_bytes(DIM),
        topology: RankTopology {
            nr_ranks: NR_RANKS,
            dpus_per_rank: DPUS_PER_RANK,
        },
        emt_capacity_bytes: EMT_CAPACITY_BYTES,
        host_cache_bytes: if tiered { HOST_CACHE_BYTES } else { 0 },
        replicate_top: if tiered { REPLICATE_TOP } else { 0 },
        ..PlannerConfig::default()
    }
}

/// Modeled embedding ns/batch when the workload is served through the
/// given plan.
fn modeled_batch_ns(p: &PlacementPlan, tables: &[EmbeddingTable], workload: &Workload) -> f64 {
    let mut eng = UpdlrmEngine::from_plan(engine_config(workload), p, tables)
        .expect("plan fits the simulated fleet");
    let mut total = 0.0;
    for b in &workload.batches {
        let (_, bd) = eng.run_batch(b).expect("batch serves");
        total += bd.total_ns();
    }
    total / workload.batches.len() as f64
}

/// Runs the sweep, asserting its gates, and returns its document.
pub fn run() -> Sweep {
    println!(
        "placement sweep: {NUM_TABLES} tables, dim {DIM}, {NR_RANKS} ranks x \
         {DPUS_PER_RANK} DPUs, fixed hot tier ({} host rows + top-{REPLICATE_TOP} \
         replicated)",
        HOST_CACHE_BYTES / (DIM * 4),
    );

    let mut rows = Vec::new();
    for scale in SCALES {
        let (spec, workload, tables) = build(scale);
        let catalog = Catalog::homogeneous(NUM_TABLES, spec.num_items, DIM);
        let profiles: Vec<FreqProfile> = (0..NUM_TABLES)
            .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
            .collect();
        let tiered_cfg = planner_config(true, &workload);
        let mram_cfg = planner_config(false, &workload);

        let tiered_plan = plan(&catalog, &profiles, &tiered_cfg).expect("tiered plan");
        let mram_plan = plan(&catalog, &profiles, &mram_cfg).expect("pure-MRAM plan");
        // Determinism identity.
        assert_eq!(
            tiered_plan.to_json(),
            plan(&catalog, &profiles, &tiered_cfg)
                .expect("replan")
                .to_json(),
            "scale {scale}x: plans differ across runs"
        );

        let tiered_ns = modeled_batch_ns(&tiered_plan, &tables, &workload);
        let mram_ns = modeled_batch_ns(&mram_plan, &tables, &workload);
        let est_speedup =
            tiered_plan.est.mram_batch_ns / tiered_plan.est.tiered_batch_ns.max(f64::MIN_POSITIVE);

        let host: usize = tiered_plan.tables.iter().map(|t| t.host_rows.len()).sum();
        let rep: usize = tiered_plan
            .tables
            .iter()
            .map(|t| t.replicated_rows.len())
            .sum();
        let cold = tiered_plan.total_rows() - host - rep;
        rows.push(Row {
            scale,
            rows_per_table: spec.num_items,
            catalog_mb: catalog.total_bytes() as f64 / (1 << 20) as f64,
            host_rows: host,
            replicated_rows: rep,
            cold_rows: cold,
            tiered_batch_us: tiered_ns / 1e3,
            mram_batch_us: mram_ns / 1e3,
            modeled_speedup: mram_ns / tiered_ns,
            est_speedup,
            est_tiered_batch_us: tiered_plan.est.tiered_batch_ns / 1e3,
            est_mram_batch_us: tiered_plan.est.mram_batch_ns / 1e3,
        });
    }

    // The knee itself, asserted on modeled time.
    for r in &rows {
        assert!(
            r.tiered_batch_us <= r.mram_batch_us * 1.001,
            "scale {}x: tiering must never lose to pure MRAM ({:.1} vs {:.1} us)",
            r.scale,
            r.tiered_batch_us,
            r.mram_batch_us
        );
        assert!(
            (r.est_speedup > 1.0) == (r.modeled_speedup > 1.0)
                || (r.modeled_speedup - 1.0).abs() < 0.05,
            "scale {}x: planner estimate ({:.2}x) and simulation ({:.2}x) disagree on the winner",
            r.scale,
            r.est_speedup,
            r.modeled_speedup
        );
    }
    // The knee: below it the fixed hot tier holds essentially the whole
    // catalog (tiering wins trivially, pure MRAM wastes the fleet's
    // parallelism on a table that fits a handful of partitions); past it
    // cold mass dominates and the win settles onto the Zipf-head
    // asymptote — smaller, but still decisive at 10-100x.
    for w in rows.windows(2) {
        assert!(
            w[1].modeled_speedup <= w[0].modeled_speedup * 1.05,
            "speedup must decay toward the Zipf-head asymptote as tables outgrow \
             the hot tier ({:.2}x at {}x vs {:.2}x at {}x)",
            w[0].modeled_speedup,
            w[0].scale,
            w[1].modeled_speedup,
            w[1].scale
        );
        let cold_frac = |r: &Row| r.cold_rows as f64 / (r.rows_per_table * NUM_TABLES) as f64;
        assert!(
            cold_frac(&w[1]) >= cold_frac(&w[0]),
            "the cold fraction must grow as tables outgrow the fixed hot tier"
        );
    }
    for r in rows.iter().filter(|r| r.scale >= 10) {
        assert!(
            r.modeled_speedup >= 1.3,
            "scale {}x: past the knee tiering must still win by 1.3x+ (got {:.2}x)",
            r.scale,
            r.modeled_speedup
        );
    }
    // The planner's a-priori estimate against the same simulation. Past
    // the knee it must stay within a factor of 1.5 of the modeled win
    // and decay with it.
    // The 1x row is left out: there the host tier serves everything, and
    // the estimate counts its probes and combines, which the modeled
    // stage-1..3 time does not.
    for r in rows.iter().filter(|r| r.scale >= 10) {
        let off = r.est_speedup / r.modeled_speedup;
        assert!(
            (1.0 / 1.5..1.5).contains(&off),
            "scale {}x: planner estimate {:.2}x vs simulated {:.2}x",
            r.scale,
            r.est_speedup,
            r.modeled_speedup
        );
    }
    let est_at = |scale: u64| rows.iter().find(|r| r.scale == scale).unwrap().est_speedup;
    assert!(
        est_at(100) < est_at(10),
        "the estimated win must decay past the knee like the simulated one \
         ({:.2}x at 10x, {:.2}x at 100x)",
        est_at(10),
        est_at(100)
    );
    println!("knee OK: tiering never loses, decays to a 1.3x+ Zipf-head win at 10-100x");

    let header = [
        ("bench", "placement_sweep".to_value()),
        ("dataset", "goodreads, scaled".to_value()),
        ("num_tables", NUM_TABLES.to_value()),
        ("dim", DIM.to_value()),
        ("nr_ranks", NR_RANKS.to_value()),
        ("dpus_per_rank", DPUS_PER_RANK.to_value()),
        ("host_cache_bytes", HOST_CACHE_BYTES.to_value()),
        ("replicate_top", REPLICATE_TOP.to_value()),
        ("num_batches", NUM_BATCHES.to_value()),
    ];
    Sweep::new(
        "placement_sweep",
        "BENCH_placement.json",
        &["scale"],
        &header,
        &rows,
    )
}
