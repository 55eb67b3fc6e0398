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
//!    engine on *which* plan wins at every scale.
//!
//! The *measured* number tracked across PRs is host wall time of
//! `placement::plan` per catalog row — the planner is on the serving
//! control path (replanning on traffic shift), so its throughput is a
//! software cost worth gating. It lands in `BENCH_placement.json` at
//! the repo root. Flags (same protocol as `sched_sweep`):
//!
//! * `--smoke` — two scales, short window
//! * `--check FILE` — compare against FILE's rows; exit nonzero on a
//!   >20% ns/row regression; do not write output
//! * `--baseline-label S` — label adopted rows when FILE had no baseline
//! * `--out FILE` — output path (default: repo-root JSON)

use std::hint::black_box;

use bench::timing;
use dlrm_model::EmbeddingTable;
use placement::{plan, Catalog, PlacementPlan, PlannerConfig};
use serde::Value;
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

struct Sweep {
    /// Table-size multipliers over the 1x base catalog.
    scales: &'static [u64],
    window_ms: u64,
}

const FULL: Sweep = Sweep {
    scales: &[1, 10, 30, 100],
    window_ms: 200,
};
// Smoke keeps the endpoints so the knee direction is still checked;
// ns/row amortizes over catalog rows, so rows are comparable to the
// committed full sweep's at the same scale.
const SMOKE: Sweep = Sweep {
    scales: &[1, 100],
    window_ms: 30,
};

#[derive(serde::Serialize)]
struct Row {
    /// Nominal table-size multiplier (the baseline key).
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
    /// The planner's own a-priori estimate of the same ratio.
    est_speedup: f64,
    /// Host wall time of `placement::plan` per catalog row (the
    /// software cost this bench tracks across PRs).
    measured_ns_per_row: f64,
    /// ns/row of the carried baseline row, 0.0 when none matched.
    baseline_ns_per_row: f64,
    /// baseline / measured; 0.0 when no baseline row matched.
    speedup_vs_baseline: f64,
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

fn planner_config(tiered: bool) -> PlannerConfig {
    PlannerConfig {
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
    let config = UpdlrmConfig {
        batch_size: workload.config.batch_size,
        ..UpdlrmConfig::default()
    };
    let mut eng =
        UpdlrmEngine::from_plan(config, p, tables).expect("plan fits the simulated fleet");
    let mut total = 0.0;
    for b in &workload.batches {
        let (_, bd) = eng.run_batch(b).expect("batch serves");
        total += bd.total_ns();
    }
    total / workload.batches.len() as f64
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// scale -> measured ns/row, hand-parsed so schema drift across PRs
/// never breaks reading old files.
fn parse_rows(rows: &Value) -> Vec<(u64, f64)> {
    let Value::Array(rows) = rows else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|r| {
            let scale = num(r.get("scale")?)? as u64;
            let ns = num(r.get("measured_ns_per_row")?)?;
            Some((scale, ns))
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut check: Option<String> = None;
    let mut baseline_label = "previous run".to_string();
    let default_out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_placement.json")
        .to_string_lossy()
        .into_owned();
    let mut out_path = default_out;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = Some(args.next().expect("--check needs a file")),
            "--baseline-label" => {
                baseline_label = args.next().expect("--baseline-label needs a value")
            }
            "--out" => out_path = args.next().expect("--out needs a file"),
            "--bench" => {} // passed by `cargo bench`
            other => eprintln!("ignoring unknown arg {other}"),
        }
    }
    let sweep = if smoke { SMOKE } else { FULL };

    // Cargo runs bench binaries from the package directory, so resolve
    // relative paths against the repo root — CI passes plain
    // `BENCH_placement.json` and means the committed file.
    let rooted = |p: String| {
        if std::path::Path::new(&p).is_relative() {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(&p)
                .to_string_lossy()
                .into_owned()
        } else {
            p
        }
    };
    let check = check.map(rooted);
    let out_path = rooted(out_path);

    let baseline_src = check.clone().unwrap_or_else(|| out_path.clone());
    let old: Option<Value> = std::fs::read_to_string(&baseline_src)
        .ok()
        .and_then(|s| serde::json::from_str(&s).ok());
    // In check mode a missing or malformed baseline is a failure, not a
    // free pass — CI relies on this to keep the committed trajectory
    // file honest.
    if check.is_some() {
        let usable = old
            .as_ref()
            .and_then(|v| v.get("rows"))
            .map(parse_rows)
            .is_some_and(|rows| !rows.is_empty());
        if !usable {
            eprintln!("check: baseline {baseline_src} is missing, malformed, or has no rows");
            std::process::exit(1);
        }
    }
    let (baseline_rows, baseline_value, label) = match &old {
        Some(v) => {
            let rows = v.get("rows").map(parse_rows).unwrap_or_default();
            if rows.is_empty() {
                (Vec::new(), None, baseline_label.clone())
            } else {
                (rows, v.get("rows").cloned(), baseline_label.clone())
            }
        }
        None => (Vec::new(), None, baseline_label.clone()),
    };

    println!(
        "placement sweep: {NUM_TABLES} tables, dim {DIM}, {NR_RANKS} ranks x \
         {DPUS_PER_RANK} DPUs, fixed hot tier ({} host rows + top-{REPLICATE_TOP} \
         replicated){}",
        HOST_CACHE_BYTES / (DIM * 4),
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for &scale in sweep.scales {
        let (spec, workload, tables) = build(scale);
        let catalog = Catalog::homogeneous(NUM_TABLES, spec.num_items, DIM);
        let profiles: Vec<FreqProfile> = (0..NUM_TABLES)
            .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
            .collect();
        let tiered_cfg = planner_config(true);
        let mram_cfg = planner_config(false);

        let tiered_plan = plan(&catalog, &profiles, &tiered_cfg).expect("tiered plan");
        let mram_plan = plan(&catalog, &profiles, &mram_cfg).expect("pure-MRAM plan");
        // Determinism identity before anything is timed.
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

        let m = timing::run_with_window(&format!("plan/scale{scale}"), sweep.window_ms, || {
            black_box(
                plan(
                    black_box(&catalog),
                    black_box(&profiles),
                    black_box(&tiered_cfg),
                )
                .expect("plans"),
            );
        });
        let total_rows = catalog.total_bytes() / (DIM * 4);
        let measured = m.mean_ns / total_rows as f64;
        let base = baseline_rows
            .iter()
            .find(|(s, _)| *s == scale)
            .map(|(_, ns)| *ns)
            .unwrap_or(0.0);
        let speedup_vs_baseline = if base > 0.0 { base / measured } else { 0.0 };

        let host: usize = tiered_plan.tables.iter().map(|t| t.host_rows.len()).sum();
        let rep: usize = tiered_plan
            .tables
            .iter()
            .map(|t| t.replicated_rows.len())
            .sum();
        let cold = tiered_plan.total_rows() - host - rep;
        println!(
            "  scale {scale:>3}x  {:>7} rows/table  tiered {:>9.1} us  mram {:>9.1} us  \
             ({:.2}x modeled, {:.2}x planner est)  {measured:>7.1} ns/row{}",
            spec.num_items,
            tiered_ns / 1e3,
            mram_ns / 1e3,
            mram_ns / tiered_ns,
            est_speedup,
            if base > 0.0 {
                format!("  {speedup_vs_baseline:.2}x vs baseline")
            } else {
                String::new()
            }
        );
        if base > 0.0 && measured > base * 1.20 {
            regressions.push(format!(
                "scale {scale}x: {measured:.1} ns/row vs baseline {base:.1} (+{:.0}%)",
                (measured / base - 1.0) * 100.0
            ));
        }
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
            measured_ns_per_row: measured,
            baseline_ns_per_row: base,
            speedup_vs_baseline,
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
    println!("knee OK: tiering never loses, decays to a 1.3x+ Zipf-head win at 10-100x");

    if let Some(path) = check {
        if regressions.is_empty() {
            println!("check vs {path}: OK (no >20% ns/row regression)");
            return;
        }
        eprintln!("check vs {path}: REGRESSION");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }

    let mut doc: Vec<(String, Value)> = vec![
        ("bench".into(), Value::Str("placement_sweep".into())),
        ("dataset".into(), Value::Str("goodreads, scaled".into())),
        ("num_tables".into(), Value::UInt(NUM_TABLES as u64)),
        ("dim".into(), Value::UInt(DIM as u64)),
        ("nr_ranks".into(), Value::UInt(NR_RANKS as u64)),
        ("dpus_per_rank".into(), Value::UInt(DPUS_PER_RANK as u64)),
        (
            "host_cache_bytes".into(),
            Value::UInt(HOST_CACHE_BYTES as u64),
        ),
        ("replicate_top".into(), Value::UInt(REPLICATE_TOP as u64)),
        ("num_batches".into(), Value::UInt(NUM_BATCHES as u64)),
        ("smoke".into(), Value::Bool(smoke)),
        (
            "rows".into(),
            Value::Array(rows.iter().map(serde::Serialize::to_value).collect()),
        ),
    ];
    if let Some(b) = baseline_value {
        doc.push(("baseline_label".into(), Value::Str(label)));
        doc.push(("baseline_rows".into(), b));
    }
    let json = serde::json::to_string_pretty(&Value::Object(doc));
    match std::fs::write(&out_path, json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("warning: cannot write {out_path}: {e}"),
    }
}
