//! `updlrm` — command-line driver for the reproduction.
//!
//! ```text
//! updlrm run   [--dataset read] [--backend updlrm|cpu|hybrid|fae]
//!              [--strategy u|nu|ca|nur] [--dpus 256] [--nc auto|N]
//!              [--scale 200] [--batches 10] [--seed 7]
//!              [--embed-dtype f32|int8] [--json FILE] [--metrics FILE]
//! updlrm run   --plan FILE [--dataset read] [--backend updlrm]
//!              [--embed-dtype f32|int8] [--json FILE] [--metrics FILE]
//! updlrm plan  --out FILE [--dataset read] [--scale 200] [--tables 8]
//!              [--batches 10] [--seed 7] [--ranks 4] [--dpus-per-rank 64]
//!              [--emt-kb N] [--host-kb N] [--replicate-top 64]
//! updlrm plan  --load FILE
//! updlrm serve --qps N [--arrival poisson|bursty] [--max-batch 64]
//!              [--max-wait-us 200] [--policy block|shed-oldest|reject-new]
//!              [--queue-cap N] [--runtime modeled|wall] [--shards N]
//!              [--time-scale X] [--deterministic] [--dataset read]
//!              [--strategy u|nu|ca|nur] [--dpus 256] [--scale 200]
//!              [--batches 10] [--seed 7]
//!              [--workload-v3 FILE] [--replan off|periodic:N]
//!              [--drift-snapshot FILE] [--json FILE] [--metrics FILE]
//! updlrm serve --tenants FILE.toml [--no-isolation] [--quantum-us N]
//!              [--dpus N] [--json FILE] [--metrics FILE]
//! updlrm capacity --tenants FILE.toml [--min-dpus 8] [--max-dpus 256]
//!              [--no-isolation] [--quantum-us N] [--json FILE]
//! updlrm stats --metrics FILE
//! updlrm trace [--dataset movie] [--scale 200] [--batches 10]
//!              [--arrival poisson|bursty --qps N]
//!              [--rotate SETS:ROWS:PERIOD_US:HOT]
//!              [--spike START_US:DUR_US:SET:EXTRA:BOOST]
//!              [--diurnal PERIOD_US:AMPLITUDE] --out trace.upwl
//! updlrm info  [--dataset read]
//! ```
//!
//! A flag a subcommand does not read is an error (exit 2), not ignored.
//! `--nc` is `auto` (the Eq. 1 search) or a divisor `N` of the
//! embedding dim (32) that leaves each table a DPU per column slice; a
//! `--dpus` / `--nc` that admits no tiling exits 2 naming them.
//! `--replan periodic:N` refits every table's placement every `N`
//! served batches.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use updlrm::prelude::*;
use updlrm::updlrm_core::CoreError;

fn usage() -> ! {
    eprintln!(
        "usage:\n  updlrm run   [--dataset TAG] [--backend updlrm|cpu|hybrid|fae] \
         [--strategy u|nu|ca|nur] [--dpus N] [--nc auto|N] [--scale N] [--batches N] [--seed N] \
         [--embed-dtype f32|int8] [--json FILE] [--metrics FILE]\n  \
         updlrm run   --plan FILE [--dataset TAG] [--backend updlrm] [--embed-dtype f32|int8] \
         [--json FILE] [--metrics FILE]\n  \
         updlrm plan  --out FILE [--dataset TAG] [--scale N] [--tables N] [--batches N] [--seed N] \
         [--ranks N] [--dpus-per-rank N] [--emt-kb N] [--host-kb N] [--replicate-top N]\n  \
         updlrm plan  --load FILE\n  \
         updlrm serve --qps N [--arrival poisson|bursty] [--max-batch N] [--max-wait-us N] \
         [--policy block|shed-oldest|reject-new] [--queue-cap N] \
         [--runtime modeled|wall] [--shards N] [--time-scale X] [--deterministic] \
         [--dataset TAG] [--strategy u|nu|ca|nur] [--dpus N] [--scale N] [--batches N] [--seed N] \
         [--workload-v3 FILE] [--replan off|periodic:N] \
         [--drift-snapshot FILE] [--json FILE] [--metrics FILE]\n  \
         updlrm serve --tenants FILE.toml [--no-isolation] [--quantum-us N] [--dpus N] \
         [--json FILE] [--metrics FILE]\n  \
         updlrm capacity --tenants FILE.toml [--min-dpus N] [--max-dpus N] [--no-isolation] \
         [--quantum-us N] [--json FILE]\n  \
         updlrm stats --metrics FILE\n  \
         updlrm trace [--dataset TAG] [--scale N] [--batches N] [--seed N] \
         [--arrival poisson|bursty --qps N] [--rotate SETS:ROWS:PERIOD_US:HOT] \
         [--spike START_US:DUR_US:SET:EXTRA:BOOST] [--diurnal PERIOD_US:AMPLITUDE] --out FILE\n  \
         updlrm info  [--dataset TAG]\n\nTAG: clo home meta1 meta2 read read2 movie twitch\n\
         --nc: auto, or a divisor N of the embedding dim (32) that leaves each table a DPU per \
         column slice (32 / N)"
    );
    std::process::exit(2)
}

struct Args {
    flags: HashMap<String, String>,
}

/// Flags that take no value (presence alone turns them on).
const BARE_FLAGS: &[&str] = &["deterministic", "no-isolation"];

/// Every form of every subcommand with the flags it reads (the union
/// of its space-separated lists) — what [`Args::expect_form`] checks a
/// command line against before the subcommand runs.
const FORMS: &[(&str, &[&str])] = &[
    ("run", &[RUN_FLAGS]),
    // The plan fixes the fleet, the tiling, the placement and the trace
    // (its provenance), so `run`'s flags for those are refused here.
    (
        "run --plan",
        &["plan dataset backend embed-dtype json metrics"],
    ),
    ("plan", &[PLAN_FLAGS]),
    ("serve", &[SERVE_FLAGS]),
    ("serve --runtime wall", &[SERVE_FLAGS, WALL_FLAGS]),
    ("serve --tenants", &[TENANT_FLAGS, "dpus json metrics"]),
    ("capacity", &[TENANT_FLAGS, "min-dpus max-dpus json"]),
    ("stats", &["metrics"]),
    ("trace", &[TRACE_FLAGS]),
    ("info", &["dataset"]),
];
const RUN_FLAGS: &str =
    "dataset backend strategy dpus nc scale batches seed embed-dtype json metrics";
const PLAN_FLAGS: &str = "out load dataset scale tables batches seed ranks dpus-per-rank emt-kb \
    host-kb replicate-top";
const SERVE_FLAGS: &str = "qps arrival max-batch max-wait-us policy queue-cap runtime dataset \
    strategy dpus scale batches seed workload-v3 replan drift-snapshot json metrics";
const WALL_FLAGS: &str = "shards time-scale deterministic";
const TENANT_FLAGS: &str = "tenants no-isolation quantum-us";
const TRACE_FLAGS: &str = "dataset scale batches seed arrival qps rotate spike diurnal out";

/// Whether `name` is in one of the space-separated flag `lists`.
fn reads(lists: &[&str], name: &str) -> bool {
    lists.iter().any(|l| l.split(' ').any(|f| f == name))
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                usage()
            };
            let value = if BARE_FLAGS.contains(&name) {
                "true".to_string()
            } else {
                it.next().cloned().unwrap_or_else(|| usage())
            };
            if flags.insert(name.to_string(), value).is_some() {
                eprintln!("--{name} is given more than once");
                std::process::exit(2)
            }
        }
        Args { flags }
    }

    /// Exits 2 unless every flag given is one that `form` (a key of
    /// [`FORMS`]) reads. A flag that belongs to a sibling form of the
    /// same subcommand is pointed there instead of called unknown.
    fn expect_form(&self, form: &str) {
        let Some((_, allowed)) = FORMS.iter().find(|(f, _)| *f == form) else {
            usage()
        };
        // The alphabetically first offender, so the message is stable.
        let stray = self.flags.keys().map(String::as_str);
        let Some(name) = stray.filter(|n| !reads(allowed, n)).min() else {
            return;
        };
        let sub = form.split(' ').next();
        let sibling = FORMS
            .iter()
            .find(|(f, lists)| f.split(' ').next() == sub && reads(lists, name));
        match sibling {
            Some((other, _)) => eprintln!(
                "--{name} does not apply to `updlrm {form}` (it is a `updlrm {other}` flag)"
            ),
            None => eprintln!("unknown flag --{name} for `updlrm {form}`"),
        }
        std::process::exit(2)
    }

    fn flag_set(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn str(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// `--scale` (default 200), the factor the dataset's rows are cut
    /// by; exits 2 on 0, which `DatasetSpec::scaled_down` would read as
    /// full scale.
    fn scale(&self) -> usize {
        let scale = self.num("scale", 200);
        if scale == 0 {
            eprintln!("--scale must be >= 1 (it divides the dataset's row count)");
            std::process::exit(2)
        }
        scale
    }

    fn num(&self, name: &str, default: usize) -> usize {
        match self.flags.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{name} expects a number, got '{v}'");
                std::process::exit(2)
            }),
        }
    }

    /// A required flag that must parse as a finite, strictly positive
    /// float (rates, i.e. `--qps`).
    fn positive_float(&self, name: &str) -> f64 {
        let Some(v) = self.flags.get(name) else {
            eprintln!("--{name} is required");
            usage()
        };
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => x,
            _ => {
                eprintln!("--{name} expects a positive number, got '{v}'");
                std::process::exit(2)
            }
        }
    }
}

/// `value`, the flag `--name` in `unit`s, times `factor`; exits 2
/// naming the flag when the product does not fit a `usize`.
fn scale_or_exit(name: &str, value: usize, factor: usize, unit: &str) -> usize {
    value.checked_mul(factor).unwrap_or_else(|| {
        eprintln!(
            "--{name} {value} is too large (at most {} {unit})",
            usize::MAX / factor
        );
        std::process::exit(2)
    })
}

/// `--NAME`'s microseconds in ns, or exit 2 naming the flag when modeled
/// time — a `u64` of picoseconds — cannot hold them.
fn micros_or_exit(name: &str, us: usize) -> u64 {
    let max_us = MAX_WHOLE_NS / 1_000;
    match u64::try_from(us) {
        Ok(us) if us <= max_us => us * 1_000,
        _ => {
            eprintln!("--{name} {us} is too large (at most {max_us} us of modeled time)");
            std::process::exit(2)
        }
    }
}

/// Builds the arrival process for `serve` / `trace --arrival` from
/// `--arrival` (default poisson) and the already-parsed `--qps`.
fn arrival_or_exit(args: &Args, qps: f64) -> ArrivalProcess {
    let seed = args.num("seed", 7) as u64;
    match args.str("arrival", "poisson").as_str() {
        "poisson" => ArrivalProcess::poisson(qps, seed),
        "bursty" => ArrivalProcess::bursty(qps, seed),
        other => {
            eprintln!("unknown arrival process '{other}' (want poisson or bursty)");
            usage()
        }
    }
}

fn spec_or_exit(args: &Args) -> DatasetSpec {
    let tag = args.str("dataset", "read");
    match DatasetSpec::by_short_tag(&tag) {
        Some(s) => s,
        None => {
            eprintln!("unknown dataset '{tag}'");
            usage()
        }
    }
}

/// Generates the dataset, trace and model a command runs on: shaped by
/// `plan`'s provenance when one is given (so `run --plan` rebuilds the
/// workload the plan was made for), by the CLI flags otherwise.
fn build_setting(
    args: &Args,
    plan: Option<&PlacementPlan>,
) -> Result<(DatasetSpec, Workload, Arc<Dlrm>), Box<dyn std::error::Error>> {
    let prov = match plan {
        Some(p) => p.provenance.clone(),
        None => PlanProvenance {
            scale: args.scale() as u64,
            tables: 8,
            batches: args.num("batches", 10),
            seed: args.num("seed", 7) as u64,
            dim: 32,
        },
    };
    let spec = spec_or_exit(args).scaled_down(prov.scale as usize);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: prov.tables,
            num_batches: prov.batches,
            seed: prov.seed,
            ..TraceConfig::default()
        },
    );
    let model = Arc::new(dlrm_for(&spec, prov.tables, prov.dim, prov.seed)?);
    Ok((spec, workload, model))
}

/// The CLI's fixed DLRM shape (13 dense features, 64 / 64-16 MLPs)
/// over `tables` embedding tables of `spec.num_items` rows.
fn dlrm_for(
    spec: &DatasetSpec,
    tables: usize,
    dim: usize,
    seed: u64,
) -> Result<Dlrm, updlrm::dlrm_model::ModelError> {
    Dlrm::new(DlrmConfig {
        num_dense: 13,
        embedding_dim: dim,
        table_rows: vec![spec.num_items; tables],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed,
    })
}

/// Per-stage breakdown section of the `--json` report — the JSON mirror
/// of the text output's "PIM stages" line, so the JSON report is a
/// superset of what the terminal prints (present for every PIM-backed
/// run).
#[derive(serde::Serialize)]
struct StagesJson {
    /// Mean stage-1 (CPU→MRAM scatter) time per batch, microseconds.
    stage1_us: f64,
    /// Mean stage-2 (DPU kernel) time per batch, microseconds.
    stage2_us: f64,
    /// Mean stage-3 (MRAM→CPU gather) time per batch, microseconds.
    stage3_us: f64,
    /// Mean host routing time per batch, microseconds.
    route_us: f64,
    /// Mean host combine time per batch, microseconds.
    combine_us: f64,
    /// Stage 1's share of the embedding wall, percent.
    stage1_pct: f64,
    /// Stage 2's share of the embedding wall, percent.
    stage2_pct: f64,
    /// Stage 3's share of the embedding wall, percent.
    stage3_pct: f64,
    /// Slowest-over-mean DPU lookup cycles (1.0 = balanced).
    lookup_imbalance: f64,
    /// Wall that inter-batch pipelining saves, percent.
    pipelining_savings_pct: f64,
}

impl StagesJson {
    /// Builds the section from an accumulated breakdown over `n >= 1`
    /// batches and the stream's pipelining estimate.
    fn from_totals(pim: &EmbeddingBreakdown, n: f64, pr: &PipelineReport) -> StagesJson {
        let t = pim.total_ns();
        let pct = |stage: Ps| {
            if t > 0.0 {
                100.0 * stage.as_ns() / t
            } else {
                0.0
            }
        };
        let us = |time: Ps| time.as_ns() / n / 1e3;
        StagesJson {
            stage1_us: us(pim.stage1),
            stage2_us: us(pim.stage2),
            stage3_us: us(pim.stage3),
            route_us: us(pim.route),
            combine_us: us(pim.combine),
            stage1_pct: pct(pim.stage1),
            stage2_pct: pct(pim.stage2),
            stage3_pct: pct(pim.stage3),
            lookup_imbalance: pim.lookup_imbalance,
            pipelining_savings_pct: (1.0 - 1.0 / pr.speedup()) * 100.0,
        }
    }
}

/// Serve-schedule section of the `--json` report.
#[derive(serde::Serialize)]
struct ServeJson {
    wall_ns: f64,
    sequential_wall_ns: f64,
    throughput_qps: f64,
    p50_latency_ns: f64,
    p95_latency_ns: f64,
    p99_latency_ns: f64,
    speedup_vs_sequential: f64,
}

/// Prints what `engine` keeps WRAM-resident on its DPUs and how many
/// of the run's row reads (`pim`, summed over its batches) that served.
fn print_residency(r: &ResidencyReport, pim: &EmbeddingBreakdown) {
    assert!(
        r.max_wram_bytes <= ResidencyReport::WRAM_BYTES,
        "a DPU's WRAM is over-committed: {r:?}"
    );
    if r.max_rows == 0 {
        println!("  WRAM-resident rows: none (every row read is an MRAM DMA)");
        return;
    }
    let predicted = match r.predicted_hit_share {
        Some(share) => format!("{:.1}%", 100.0 * share),
        None => "n/a (no profile)".to_string(),
    };
    println!(
        "  WRAM-resident rows: up to {} rows / {} B per DPU of a {} B budget ({} B of {} B WRAM \
         committed); profile-predicted hit share {predicted}",
        r.max_rows,
        r.max_bytes,
        r.budget_bytes,
        r.max_wram_bytes,
        ResidencyReport::WRAM_BYTES,
    );
    println!(
        "    stage 2 read {} rows from WRAM beside {} MRAM DMA transfers; the fill took {} cycles on \
         the slowest DPU",
        pim.wram_rows, pim.dma_transfers, pim.wram_fill_cycles,
    );
}

/// Machine-readable mirror of a `run` invocation (`--json FILE`).
#[derive(Default, serde::Serialize)]
struct RunJson {
    backend: String,
    dataset: String,
    strategy: String,
    dpus: usize,
    batches: usize,
    mean_embedding_us: f64,
    mean_dense_us: f64,
    mean_total_us: f64,
    stages: Option<StagesJson>,
    serve: Option<ServeJson>,
}

impl RunJson {
    /// Prints the run's per-batch means and fills the report's derived
    /// sections from them: `total` is summed over the run's batches,
    /// `breakdowns` holds their PIM stage splits (empty for the CPU/GPU
    /// backends).
    fn fill_means(&mut self, total: &LatencyReport, breakdowns: &[EmbeddingBreakdown]) {
        // `--batches 0` is a legal (if degenerate) run: divide by at
        // least one so every derived mean serializes as a finite zero,
        // never 0/0 = NaN (the vendored serde would emit a "NaN" string
        // that no typed parse accepts).
        let n = (self.batches as f64).max(1.0);
        println!("per-batch mean:");
        println!("  embedding: {:10.1} us", total.embedding_ns / n / 1e3);
        println!("  dense:     {:10.1} us", total.dense_ns / n / 1e3);
        println!("  transfer:  {:10.1} us", total.transfer_ns / n / 1e3);
        println!("  total:     {:10.1} us", total.total_ns() / n / 1e3);
        self.mean_embedding_us = total.embedding_ns / n / 1e3;
        self.mean_dense_us = total.dense_ns / n / 1e3;
        self.mean_total_us = total.total_ns() / n / 1e3;
        if let Some(pim) = &total.pim {
            let t = pim.total_ns().max(f64::MIN_POSITIVE);
            println!(
                "  PIM stages: s1 {:.0}% / s2 {:.0}% / s3 {:.0}%  (imbalance {:.2})",
                100.0 * pim.stage1.as_ns() / t,
                100.0 * pim.stage2.as_ns() / t,
                100.0 * pim.stage3.as_ns() / t,
                pim.lookup_imbalance,
            );
            let pr = PipelineReport::from_batches(breakdowns);
            println!(
                "  inter-batch pipelining saves {:.1}%",
                (1.0 - 1.0 / pr.speedup()) * 100.0
            );
            self.stages = Some(StagesJson::from_totals(pim, n, &pr));
        }
    }

    /// Writes the `--json` report and, when `--metrics` asked for one,
    /// the engine's telemetry snapshot.
    fn write(
        &self,
        args: &Args,
        snapshot: impl FnOnce() -> Snapshot,
    ) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(path) = args.flags.get("json") {
            std::fs::write(path, serde::json::to_string_pretty(self))?;
            println!("wrote {path}");
        }
        if let Some(path) = args.flags.get("metrics") {
            write_metrics(path, &snapshot())?;
        }
        Ok(())
    }
}

fn write_metrics(path: &str, snapshot: &Snapshot) -> Result<(), Box<dyn std::error::Error>> {
    let mut text = serde::json::to_string_pretty(snapshot);
    text.push('\n');
    std::fs::write(path, text)?;
    println!("wrote {path}");
    Ok(())
}

fn sum_breakdowns(breakdowns: &[EmbeddingBreakdown]) -> EmbeddingBreakdown {
    let mut total = EmbeddingBreakdown::default();
    for bd in breakdowns {
        total.accumulate(bd);
    }
    total
}

fn strategy_or_exit(args: &Args) -> PartitionStrategy {
    match args.str("strategy", "ca").parse() {
        Ok(strategy) => strategy,
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }
}

/// Reads and validates a placement plan, refusing foreign schema
/// versions with exit 2 before any field-level decoding (the same
/// contract `stats` applies to metrics snapshots).
fn load_plan_or_exit(path: &str) -> PlacementPlan {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read placement plan {path}: {e}");
            std::process::exit(2)
        }
    };
    match PlacementPlan::from_json(&text) {
        Ok(p) => p,
        Err(PlanError::SchemaVersion { found, expected }) => {
            eprintln!(
                "placement plan {path} has schema v{found}, but this binary reads v{expected}; \
                 regenerate it with `updlrm plan --out {path}`",
            );
            std::process::exit(2)
        }
        Err(e) => {
            eprintln!("invalid placement plan {path}: {e}");
            std::process::exit(2)
        }
    }
}

fn print_plan_summary(path: &str, plan: &PlacementPlan) {
    let host: usize = plan.tables.iter().map(|t| t.host_rows.len()).sum();
    let rep: usize = plan.tables.iter().map(|t| t.replicated_rows.len()).sum();
    let total = plan.total_rows();
    let parts: usize = plan.tables.iter().map(|t| t.parts).sum();
    println!(
        "placement plan {path} (schema v{}, planner seed {})",
        plan.schema_version, plan.config.seed,
    );
    println!(
        "  fleet: {} ranks x {} DPUs, {} DPUs used across {} cold partitions",
        plan.config.topology.nr_ranks, plan.config.topology.dpus_per_rank, plan.dpus_used, parts,
    );
    println!(
        "  tiers: {} host / {} replicated / {} cold of {} rows over {} tables",
        host,
        rep,
        total - host - rep,
        total,
        plan.tables.len(),
    );
    println!(
        "  estimate: tiered {:.1} us vs pure-MRAM {:.1} us per batch ({:.2}x), \
         {} of {} ranks touched",
        plan.est.tiered_batch_ns / 1e3,
        plan.est.mram_batch_ns / 1e3,
        plan.est.mram_batch_ns / plan.est.tiered_batch_ns.max(f64::MIN_POSITIVE),
        plan.est.ranks_touched,
        plan.config.topology.nr_ranks,
    );
    println!(
        "  rank balance: bound {:.1}, capacity binding {}",
        plan.balance_bound, plan.rank_capacity_binding,
    );
}

/// Parses `--nc` (default auto): `None` lets the tiler choose the
/// column count, a number fixes it.
fn nc_or_exit(args: &Args) -> Option<usize> {
    match args.str("nc", "auto").as_str() {
        "auto" => None,
        v => Some(v.parse().unwrap_or_else(|_| {
            eprintln!("--nc expects auto or a number, got '{v}'");
            std::process::exit(2)
        })),
    }
}

/// `built`, unless it failed for want of a feasible tiling: that is a
/// usage error of `--dpus` (and of `--nc`, when given), so it exits 2
/// naming them.
fn tiling_or_exit<T>(args: &Args, built: Result<T, CoreError>) -> Result<T, CoreError> {
    if let Err(e @ CoreError::NoFeasibleTiling { .. }) = &built {
        let nc = match args.flags.get("nc") {
            Some(nc) => format!(" with --nc {nc}"),
            None => String::new(),
        };
        eprintln!("--dpus {}{nc}: {e}", args.num("dpus", 256));
        std::process::exit(2)
    }
    built
}

/// Parses `--embed-dtype` (default f32) into the EMT storage dtype.
fn embed_dtype_or_exit(args: &Args) -> EmbedDtype {
    let v = args.str("embed-dtype", "f32");
    match EmbedDtype::parse(&v) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2)
        }
    }
}

fn cmd_plan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.flags.get("load") {
        let plan = load_plan_or_exit(path);
        print_plan_summary(path, &plan);
        return Ok(());
    }
    let Some(out) = args.flags.get("out") else {
        eprintln!("plan needs --out FILE (write a new plan) or --load FILE (inspect one)");
        usage()
    };
    let scale = args.scale();
    let spec = spec_or_exit(args).scaled_down(scale);
    let num_tables = args.num("tables", 8);
    let num_batches = args.num("batches", 10);
    let seed = args.num("seed", 7) as u64;
    let dim = 32;
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches,
            seed,
            ..TraceConfig::default()
        },
    );
    let profiles: Vec<FreqProfile> = (0..num_tables)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();
    let catalog = Catalog::homogeneous(num_tables, spec.num_items, dim);
    let defaults = PlannerConfig::default();
    let kb = |name: &str, default_bytes: usize| {
        scale_or_exit(name, args.num(name, default_bytes / 1024), 1024, "KB")
    };
    let config = PlannerConfig {
        topology: RankTopology {
            nr_ranks: args.num("ranks", defaults.topology.nr_ranks),
            dpus_per_rank: args.num("dpus-per-rank", defaults.topology.dpus_per_rank),
        },
        emt_capacity_bytes: kb("emt-kb", defaults.emt_capacity_bytes),
        host_cache_bytes: kb("host-kb", defaults.host_cache_bytes),
        replicate_top: args.num("replicate-top", defaults.replicate_top),
        // `run --plan` serves the plan on a default-configured engine.
        wram_resident_bytes: UpdlrmConfig::default().wram_resident_bytes(dim),
        seed,
        ..defaults
    };
    let mut plan = plan_placement(&catalog, &profiles, &config)?;
    plan.provenance = PlanProvenance {
        scale: scale as u64,
        tables: num_tables,
        batches: num_batches,
        seed,
        dim,
    };
    std::fs::write(out, plan.to_json())?;
    println!("wrote {out}");
    print_plan_summary(out, &plan);
    Ok(())
}

/// `updlrm run`. The PIM backend serves the trace once through the
/// engine's double-buffered schedule and reports its wall next to the
/// back-to-back wall of the same batches. With `--plan FILE` the engine
/// executes that placement plan on the workload rebuilt from its
/// provenance instead of partitioning the tables itself; every other
/// flag means the same.
fn cmd_run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let backend_name = args.str("backend", "updlrm");
    // Placement plans and fleet telemetry live in the PIM embedding
    // engine; the CPU/GPU baselines have no DPUs to place rows on or
    // report on.
    let pim_only = [
        ("plan", args.flag_set("plan")),
        ("metrics", args.flag_set("metrics")),
    ];
    let misused = pim_only
        .iter()
        .find(|(_, set)| *set && backend_name != "updlrm");
    if let Some((flag, _)) = misused {
        eprintln!("--{flag} requires --backend updlrm (got '{backend_name}')");
        std::process::exit(2)
    }
    let plan = args
        .flags
        .get("plan")
        .map(|path| (path.as_str(), load_plan_or_exit(path)));
    let (spec, workload, model) = build_setting(args, plan.as_ref().map(|(_, p)| p))?;
    let strategy = strategy_or_exit(args);
    let mut config = UpdlrmConfig::with_dpus(args.num("dpus", 256), strategy);
    config.embed_dtype = embed_dtype_or_exit(args);
    config.n_c = nc_or_exit(args);
    config.telemetry = args.flag_set("metrics");
    let mut report_json = RunJson {
        backend: backend_name.clone(),
        dataset: spec.short.to_string(),
        strategy: args.str("strategy", "ca"),
        dpus: config.nr_dpus,
        batches: workload.batches.len(),
        ..RunJson::default()
    };
    if let Some((path, plan)) = &plan {
        report_json.strategy = "plan".to_string();
        report_json.dpus = plan.dpus_used;
        println!(
            "UpDLRM (tiered plan) on {} ({} items/table, {} batches of {})",
            spec.name,
            spec.num_items,
            workload.batches.len(),
            workload.config.batch_size,
        );
        print_plan_summary(path, plan);
    }
    let mem = CpuMemoryModel::default();
    if backend_name == "updlrm" {
        // The one place the two engine constructors differ.
        let mut engine = match &plan {
            Some((_, plan)) => UpdlrmEngine::from_plan(config, plan, model.tables())?,
            None => {
                print_run_header("UpDLRM", &spec, &workload);
                let built = UpdlrmEngine::from_workload(config, model.tables(), &workload);
                tiling_or_exit(args, built)?
            }
        };
        let mut breakdowns = Vec::with_capacity(workload.batches.len());
        let served = engine.serve_stream(&workload.batches, |_, _, bd| breakdowns.push(*bd))?;
        report_json.serve = Some(print_serve(&served));
        let pim_total = sum_breakdowns(&breakdowns);
        let total = if plan.is_some() {
            // A plan describes only the embedding layer: no dense
            // layers are modeled.
            let lookups = pim_total.cache_hits + pim_total.emt_lookups;
            if lookups > 0 {
                println!(
                    "  tier routing: {} host hits, {} PIM lookups ({:.1}% served from host DRAM)",
                    pim_total.cache_hits,
                    pim_total.emt_lookups,
                    100.0 * pim_total.cache_hits as f64 / lookups as f64,
                );
            }
            LatencyReport {
                embedding_ns: pim_total.total_ns(),
                pim: Some(pim_total),
                ..LatencyReport::default()
            }
        } else {
            let mut total = LatencyReport::default();
            for (batch, bd) in workload.batches.iter().zip(&breakdowns) {
                total.accumulate(&UpdlrmBackend::latency_report(&model, &mem, batch, *bd));
            }
            total
        };
        report_json.fill_means(&total, &breakdowns);
        print_residency(&engine.residency(), &pim_total);
        return report_json.write(args, || engine.metrics_snapshot());
    }
    let profiles: Vec<FreqProfile> = (0..workload.config.num_tables)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();
    let mut backend: Box<dyn InferenceBackend> = match backend_name.as_str() {
        "cpu" => Box::new(DlrmCpu::new(model.clone(), &profiles, mem)?),
        "hybrid" => Box::new(DlrmHybrid::new(
            model.clone(),
            &profiles,
            mem,
            GpuModel::default(),
        )?),
        "fae" => Box::new(Fae::new(
            model.clone(),
            &profiles,
            mem,
            GpuModel::default(),
            0.85,
        )?),
        other => {
            eprintln!("unknown backend '{other}'");
            usage()
        }
    };

    print_run_header(backend.name(), &spec, &workload);
    let mut total = LatencyReport::default();
    let mut breakdowns = Vec::with_capacity(workload.batches.len());
    for batch in &workload.batches {
        let (_, report) = backend.run_batch(batch)?;
        total.accumulate(&report);
        breakdowns.extend(report.pim);
    }
    report_json.fill_means(&total, &breakdowns);
    report_json.write(args, || {
        unreachable!("--metrics was validated to require the updlrm backend")
    })
}

fn print_run_header(backend: &str, spec: &DatasetSpec, workload: &Workload) {
    println!(
        "{backend} on {} ({} items/table, avg reduction {:.1}, {} batches of {})",
        spec.name,
        spec.num_items,
        workload.measured_avg_reduction(),
        workload.batches.len(),
        workload.config.batch_size,
    );
}

/// Prints a served trace's schedule — the executed double-buffered wall
/// next to the back-to-back wall of the same batches — and returns its
/// `--json` section.
fn print_serve(served: &ServeReport) -> ServeJson {
    let speedup = if served.wall_ns > 0.0 {
        served.sequential_wall_ns / served.wall_ns
    } else {
        1.0
    };
    println!(
        "UpDLRM serving {} batches double-buffered (2 staging slots)",
        served.batches,
    );
    println!(
        "  wall {:.1} us (back-to-back {:.1} us, {speedup:.2}x)  throughput {:.0} samples/s",
        served.wall_ns / 1e3,
        served.sequential_wall_ns / 1e3,
        served.throughput_qps,
    );
    println!(
        "  latency p50 {:.1} us  p95 {:.1} us  p99 {:.1} us",
        served.p50_latency_ns / 1e3,
        served.p95_latency_ns / 1e3,
        served.p99_latency_ns / 1e3,
    );
    ServeJson {
        wall_ns: served.wall_ns,
        sequential_wall_ns: served.sequential_wall_ns,
        throughput_qps: served.throughput_qps,
        p50_latency_ns: served.p50_latency_ns,
        p95_latency_ns: served.p95_latency_ns,
        p99_latency_ns: served.p99_latency_ns,
        speedup_vs_sequential: speedup,
    }
}

/// Machine-readable mirror of a `serve` invocation (`--json FILE`).
/// With the default `--runtime modeled` everything inside is
/// modeled-time derived, so the file is byte-identical across runs with
/// the same flags; a `--runtime wall` run adds the `runtime` section,
/// whose measured wall-clock numbers vary run to run.
#[derive(serde::Serialize)]
struct SchedJson {
    dataset: String,
    strategy: String,
    dpus: usize,
    arrival: String,
    offered_qps: f64,
    max_batch: usize,
    max_wait_us: usize,
    queue_cap: usize,
    policy: String,
    report: SchedReport,
    /// `batch_hist[k]` = batches launched with exactly `k` queries.
    batch_hist: Vec<u64>,
    /// Present only for `--runtime wall`: measured statistics from the
    /// concurrent runtime next to the modeled oracle it is locked to.
    runtime: Option<RuntimeJson>,
}

/// The wall-clock section of [`SchedJson`].
#[derive(serde::Serialize)]
struct RuntimeJson {
    shards: usize,
    time_scale: f64,
    deterministic: bool,
    wall: WallStats,
    /// What the modeled-time oracle (`Scheduler::run`) predicts for the
    /// same trace and policy.
    modeled_report: SchedReport,
    batches_per_shard: Vec<u64>,
}

/// Loads and parses a `--tenants FILE.toml`, applying the CLI
/// overrides (`--dpus`, `--quantum-us`, `--no-isolation`), or exits 2.
fn tenants_file_or_exit(args: &Args, path: &str) -> TenantsFile {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--tenants {path}: {e}");
            std::process::exit(2)
        }
    };
    let mut file = match parse_tenants_toml(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("--tenants {path}: {e}");
            std::process::exit(2)
        }
    };
    if args.flag_set("dpus") {
        file.fleet.fleet_dpus = args.num("dpus", file.fleet.fleet_dpus);
    }
    if args.flag_set("quantum-us") {
        file.fleet.quantum_ns = micros_or_exit("quantum-us", args.num("quantum-us", 0));
    }
    if args.flag_set("no-isolation") {
        file.fleet.arbitration = Arbitration::Fcfs;
    }
    if let Err(e) = file.fleet.validate() {
        eprintln!("--tenants {path}: {e}");
        std::process::exit(2)
    }
    file
}

/// Exits 2 unless a fleet of `dpus` DPUs divides into every tenant's
/// table groups (each tenant engine spreads its tables over the whole
/// fleet), naming `source`: the flag or file the count came from.
fn tenant_fleet_or_exit(source: &str, dpus: usize, tenants: &[TenantSpec]) {
    if let Some(t) = tenants.iter().find(|t| !dpus.is_multiple_of(t.num_tables)) {
        eprintln!(
            "{source}: {dpus} dpus not divisible into the {} table groups of tenant '{}'",
            t.num_tables, t.name
        );
        std::process::exit(2)
    }
}

/// A tenant's SLO verdict as the serve and stats printers show it.
fn slo_label(slo_p99_ns: f64, violations: u64) -> String {
    if slo_p99_ns > 0.0 {
        format!("slo {:.0} us ({violations} violations)", slo_p99_ns / 1e3)
    } else {
        "no slo".to_string()
    }
}

/// `updlrm serve --tenants FILE.toml`: the mixed multi-tenant workload
/// end to end on one shared modeled fleet.
fn cmd_serve_tenants(args: &Args, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut file = tenants_file_or_exit(args, path);
    let metrics_path = args.flags.get("metrics").cloned();
    if metrics_path.is_some() {
        file.fleet.telemetry = true;
    }
    let dpus = file.fleet.fleet_dpus;
    let source = match args.flag_set("dpus") {
        true => format!("--dpus {dpus}"),
        false => format!("--tenants {path} (fleet dpus = {dpus})"),
    };
    tenant_fleet_or_exit(&source, dpus, &file.tenants);
    let mut fleet = match TenantFleet::from_specs(&file.tenants, file.fleet.clone()) {
        Err(e @ CoreError::NoFeasibleTiling { .. }) => {
            eprintln!("{source}: {e}");
            std::process::exit(2)
        }
        built => built?,
    };
    let report = fleet.run(|_, _, _, _, _| {})?;

    println!(
        "multi-tenant serve: {} tenants on a {}-DPU fleet [{}], makespan {:.1} ms, \
         fleet utilization {:.2}",
        report.tenants.len(),
        report.fleet_dpus,
        report.arbitration,
        report.makespan_ns / 1e6,
        report.fleet_utilization,
    );
    for t in &report.tenants {
        let slo = slo_label(t.slo_p99_ns, t.slo_violations);
        println!(
            "  {} (w {:.1}, dpu offset {}): p50 {:.1} us  p99 {:.1} us  {}  \
             share {:.2} (configured {:.2})",
            t.name,
            t.weight,
            t.dpu_offset,
            t.sched.p50_latency_ns / 1e3,
            t.sched.p99_latency_ns / 1e3,
            slo,
            t.fleet_share_achieved,
            t.fleet_share_configured,
        );
        println!(
            "    {} batches, {} completed / {} offered ({} shed, {} rejected, {} blocked)",
            t.sched.batches,
            t.sched.completed,
            t.sched.requests,
            t.sched.shed,
            t.sched.rejected,
            t.sched.blocked,
        );
    }
    if let Some(path) = args.flags.get("json") {
        std::fs::write(path, serde::json::to_string_pretty(&report))?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        write_metrics(path, &fleet.metrics_snapshot())?;
    }
    Ok(())
}

/// `updlrm capacity --tenants FILE.toml`: answers "how many DPUs do
/// these tenants need at these SLOs?" with a doubling sweep of fleet
/// sizes through the full cost model.
fn cmd_capacity(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.flags.get("tenants").cloned() else {
        eprintln!("updlrm capacity needs --tenants FILE.toml");
        std::process::exit(2)
    };
    let file = tenants_file_or_exit(args, &path);
    let min_dpus = args.num("min-dpus", 8);
    let max_dpus = args.num("max-dpus", 256);
    if min_dpus == 0 || min_dpus > max_dpus {
        eprintln!("need 1 <= --min-dpus <= --max-dpus (got {min_dpus}..{max_dpus})");
        std::process::exit(2)
    }
    // Every size swept is --min-dpus doubled or --max-dpus.
    for (flag, dpus) in [("min-dpus", min_dpus), ("max-dpus", max_dpus)] {
        tenant_fleet_or_exit(&format!("--{flag} {dpus}"), dpus, &file.tenants);
    }
    let mut candidates = Vec::new();
    let mut c = min_dpus;
    while c < max_dpus {
        candidates.push(c);
        c = c.saturating_mul(2);
    }
    candidates.push(max_dpus);

    let points = capacity_sweep(&file.tenants, &file.fleet, &candidates)?;
    println!(
        "capacity sweep for {} tenants [{}], fleets {}..{} DPUs:",
        file.tenants.len(),
        file.fleet.arbitration,
        min_dpus,
        max_dpus,
    );
    for p in &points {
        if !p.feasible {
            println!(
                "  {:>5} DPUs: infeasible (no tile shape fits)",
                p.fleet_dpus
            );
            continue;
        }
        let verdict = if p.all_slos_met { "PASS" } else { "fail" };
        let detail: Vec<String> = p
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{} p99 {:.0} us{}",
                    t.name,
                    t.p99_latency_ns / 1e3,
                    if t.met { "" } else { " *" }
                )
            })
            .collect();
        println!(
            "  {:>5} DPUs: {}  ({})",
            p.fleet_dpus,
            verdict,
            detail.join(", ")
        );
    }
    if let Some(json_path) = args.flags.get("json") {
        std::fs::write(json_path, serde::json::to_string_pretty(&points))?;
        println!("wrote {json_path}");
    }
    match points.iter().find(|p| p.all_slos_met) {
        Some(p) => {
            println!(
                "smallest swept fleet meeting every SLO: {} DPUs",
                p.fleet_dpus
            );
        }
        None => {
            println!("no swept fleet size up to {max_dpus} DPUs meets every SLO");
            std::process::exit(1)
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.flags.get("tenants").cloned() {
        return cmd_serve_tenants(args, &path);
    }
    let workload_path = args.flags.get("workload-v3").cloned();
    if workload_path.is_some() && (args.flag_set("qps") || args.flag_set("arrival")) {
        eprintln!(
            "--workload-v3 replays the file's stamped arrivals; --qps/--arrival do not apply"
        );
        std::process::exit(2)
    }
    let max_batch = args.num("max-batch", 64);
    if max_batch == 0 {
        eprintln!("--max-batch must be >= 1 (a batcher that forms empty batches serves nothing)");
        std::process::exit(2)
    }
    let max_wait_us = args.num("max-wait-us", 200);
    if max_wait_us == 0 {
        eprintln!("--max-wait-us must be >= 1 (a zero deadline degenerates to batch-of-one)");
        std::process::exit(2)
    }
    let max_wait_ns = micros_or_exit("max-wait-us", max_wait_us);
    let queue_cap = args.num("queue-cap", 4 * max_batch);
    if queue_cap == 0 {
        eprintln!("--queue-cap must be >= 1 (a zero-length queue admits nothing)");
        std::process::exit(2)
    }
    let policy: OverloadPolicy = match args.str("policy", "shed-oldest").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    };

    let replan: ReplanPolicy = match args.str("replan", "off").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--replan: {e}");
            std::process::exit(2)
        }
    };
    let drift_snapshot_path = args.flags.get("drift-snapshot").cloned();
    if drift_snapshot_path.is_some() && !replan.enabled() {
        eprintln!("--drift-snapshot needs --replan (a static placement never migrates)");
        std::process::exit(2)
    }

    let runtime_mode = args.str("runtime", "modeled");
    let shards = args.num("shards", 1);
    let deterministic = args.flag_set("deterministic");
    let time_scale = if args.flag_set("time-scale") {
        args.positive_float("time-scale")
    } else {
        1.0
    };
    match runtime_mode.as_str() {
        "modeled" => {}
        "wall" => {
            if shards == 0 {
                eprintln!(
                    "--shards must be >= 1 (a runtime with no engine workers serves nothing)"
                );
                std::process::exit(2)
            }
        }
        other => {
            eprintln!("unknown runtime '{other}' (want modeled or wall)");
            usage()
        }
    }

    let (spec, workload, model) = if let Some(path) = &workload_path {
        // A stamped UPWL file replayed as-is: the loader
        // already validated the drift schedule against the embedded
        // spec's row count, and a file without arrivals cannot be
        // served open-loop.
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("--workload-v3 {path}: {e}");
                std::process::exit(2)
            }
        };
        let workload = match Workload::load(&mut file) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("--workload-v3 {path}: {e}");
                std::process::exit(2)
            }
        };
        if workload.arrivals.process.is_closed_loop() {
            eprintln!(
                "--workload-v3 {path}: the trace has no arrival stamps; regenerate it with \
                 `updlrm trace --qps N` (serving needs open-loop arrivals)"
            );
            std::process::exit(2)
        }
        let spec = workload.spec.clone();
        let seed = args.num("seed", 7) as u64;
        let model = Arc::new(dlrm_for(&spec, workload.config.num_tables, 32, seed)?);
        (spec, workload, model)
    } else {
        let qps = args.positive_float("qps");
        let process = arrival_or_exit(args, qps);
        let (spec, mut workload, model) = build_setting(args, None)?;
        workload.stamp_arrivals(process);
        (spec, workload, model)
    };
    let process = workload.arrivals.process;
    let qps = process.offered_qps().unwrap_or(0.0);

    let mut config = UpdlrmConfig::with_dpus(args.num("dpus", 256), strategy_or_exit(args));
    // The batcher never forms more than `max_batch` queries, so size the
    // engine's staging slots to exactly that.
    config.batch_size = max_batch;
    config.replan = replan;
    let metrics_path = args.flags.get("metrics").cloned();
    // Replanning implies telemetry: the drift counters (and the
    // mid-migration snapshot `--drift-snapshot` writes) live in the
    // metrics registry.
    config.telemetry = metrics_path.is_some() || replan.enabled();
    let sched_config = SchedConfig {
        max_batch_size: max_batch,
        max_wait_ns,
        queue_cap,
        policy,
    };

    // One identical engine per shard (a single one under `--runtime
    // modeled`); only engine 0 carries telemetry (the snapshot is a
    // single registry, not a fleet merge).
    let mut engines: Vec<UpdlrmEngine> = (0..shards)
        .map(|i| {
            let mut c = config.clone();
            c.telemetry &= i == 0;
            tiling_or_exit(
                args,
                UpdlrmEngine::from_workload(c, model.tables(), &workload),
            )
        })
        .collect::<Result<_, _>>()?;
    let mut sched = Scheduler::new(sched_config)?;
    let (report, batch_hist, runtime) = if runtime_mode == "wall" {
        // The modeled oracle first — same trace, same policy, telemetry
        // off so the measured engines own the metrics registry — then
        // the concurrent runtime on `--shards` engine workers. In
        // `--deterministic` mode the runtime must reproduce the oracle's
        // `SchedReport` byte for byte.
        let mut oracle_config = config.clone();
        oracle_config.telemetry = false;
        let mut oracle = UpdlrmEngine::from_workload(oracle_config, model.tables(), &workload)?;
        let modeled = sched.run(&mut oracle, &workload, |_, _, _, _| {})?;
        let rt = Runtime::new(RuntimeConfig {
            sched: sched_config,
            shards,
            time_scale,
            deterministic,
            ring_capacity: 64,
        })?;
        let r = rt.run(&mut engines, &workload, |_, _, _, _| {})?;
        println!(
            "wall-clock serve on {} ({} arrivals, {} shard{}, time-scale {:.0}x, {})",
            spec.name,
            r.sched.requests,
            shards,
            if shards == 1 { "" } else { "s" },
            time_scale,
            if deterministic {
                "deterministic"
            } else {
                "free-running"
            },
        );
        println!(
            "  measured: {:.0} qps over {:.1} ms of wall time; latencies below are {} time",
            r.wall.measured_qps,
            r.wall.wall_elapsed_ns / 1e6,
            if deterministic {
                "modeled"
            } else {
                "measured wall"
            },
        );
        let runtime = RuntimeJson {
            shards,
            time_scale,
            deterministic,
            wall: r.wall,
            modeled_report: modeled,
            batches_per_shard: r.batches_per_shard,
        };
        (r.sched, r.batch_histogram, Some(runtime))
    } else {
        let report = sched.run(&mut engines[0], &workload, |_, _, _, _| {})?;
        println!(
            "open-loop serve on {} ({} arrivals, {} over {:.1} ms of modeled time)",
            spec.name,
            report.requests,
            process.tag(),
            report.makespan_ns / 1e6,
        );
        (report, sched.batch_histogram().to_vec(), None)
    };
    let engine = &engines[0];

    println!(
        "  load: offered {:.0} qps  achieved {:.0} qps",
        report.offered_qps, report.achieved_qps,
    );
    println!(
        "  latency: mean {:.1} us  p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  max {:.1} us",
        report.mean_latency_ns / 1e3,
        report.p50_latency_ns / 1e3,
        report.p95_latency_ns / 1e3,
        report.p99_latency_ns / 1e3,
        report.max_latency_ns / 1e3,
    );
    println!(
        "  batching: {} batches, mean fill {:.1}/{}  (size {} / deadline {} / drain {})",
        report.batches,
        report.mean_batch_size,
        max_batch,
        report.trigger_size,
        report.trigger_deadline,
        report.trigger_drain,
    );
    println!(
        "  admission [{}]: {} admitted, {} shed, {} rejected, {} blocked, queue high-water {}/{}",
        policy,
        report.admitted,
        report.shed,
        report.rejected,
        report.blocked,
        report.queue_high_water,
        queue_cap,
    );
    if replan.enabled() {
        let d = engine.metrics_snapshot().drift;
        println!(
            "  replan [{}]: {} replans ({} skipped), {} migrations, {} rows / {:.1} KB moved, \
             {:.1} us migrating",
            replan,
            d.replans_triggered,
            d.replans_skipped,
            d.migrations_completed,
            d.rows_moved,
            d.migrated_bytes as f64 / 1e3,
            d.migration_ns / 1e3,
        );
    }
    if let Some(rt) = &runtime {
        println!(
            "  shards: batches per shard {:?}; service walls: modeled {:.2} ms vs measured \
             {:.2} ms per run",
            rt.batches_per_shard,
            rt.wall.modeled_service_ns / 1e6,
            rt.wall.measured_service_ns / 1e6,
        );
        println!(
            "  modeled oracle: {:.0} qps achieved, p50 {:.1} us  p95 {:.1} us  p99 {:.1} us",
            rt.modeled_report.achieved_qps,
            rt.modeled_report.p50_latency_ns / 1e3,
            rt.modeled_report.p95_latency_ns / 1e3,
            rt.modeled_report.p99_latency_ns / 1e3,
        );
        if deterministic {
            if report == rt.modeled_report {
                println!(
                    "  oracle lock: OK — wall runtime reproduced the modeled scheduler byte \
                     for byte"
                );
            } else {
                eprintln!("warning: deterministic wall run diverged from the modeled oracle");
            }
        }
    }

    if let Some(path) = args.flags.get("json") {
        let json = SchedJson {
            dataset: spec.short.to_string(),
            strategy: args.str("strategy", "ca"),
            dpus: args.num("dpus", 256),
            arrival: process.tag().to_string(),
            offered_qps: qps,
            max_batch,
            max_wait_us,
            queue_cap,
            policy: policy.to_string(),
            report,
            batch_hist,
            runtime,
        };
        std::fs::write(path, serde::json::to_string_pretty(&json))?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        write_metrics(path, &engine.metrics_snapshot())?;
    }
    if let Some(path) = &drift_snapshot_path {
        match engine.drift_snapshot() {
            Some(snap) => {
                std::fs::write(path, serde::json::to_string_pretty(snap))?;
                println!("wrote {path}");
            }
            None => {
                eprintln!(
                    "no migration was triggered, so there is no mid-migration snapshot to \
                     write; serve longer or lower the --replan period/threshold"
                );
                std::process::exit(1)
            }
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.flags.get("metrics") else {
        eprintln!("stats needs --metrics FILE (a snapshot written by `updlrm run --metrics`)");
        usage()
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read metrics snapshot {path}: {e}");
        std::process::exit(2)
    });
    let invalid = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("invalid metrics snapshot {path}: {e}");
        std::process::exit(2)
    };
    // The version is read off the untyped document first: a snapshot
    // from an older schema lacks fields this binary's `Snapshot` has,
    // so the typed decode would fail on one of those instead.
    let doc = serde::json::parse(&text).unwrap_or_else(|e| invalid(&e));
    let found = match doc.get("schema_version") {
        Some(serde::Value::UInt(v)) => *v,
        _ => invalid(&"missing or non-integer schema_version"),
    };
    if found != u64::from(SNAPSHOT_SCHEMA_VERSION) {
        eprintln!(
            "metrics snapshot {path} has schema v{found}, but this binary reads v{}; \
             regenerate it with `updlrm run --metrics {path}`",
            SNAPSHOT_SCHEMA_VERSION,
        );
        std::process::exit(2)
    }
    let snap: Snapshot = serde::Deserialize::from_value(&doc).unwrap_or_else(|e| invalid(&e));
    println!(
        "metrics snapshot {path} (schema v{}, telemetry {})",
        snap.schema_version,
        if snap.enabled { "on" } else { "off" },
    );
    println!(
        "  recorded: {} serves, {} batches, {} samples",
        snap.serves, snap.batches, snap.samples,
    );
    println!(
        "  stage means/batch: route {:8.1} us | s1 {:8.1} us | s2 {:8.1} us | s3 {:8.1} us | combine {:8.1} us",
        snap.route_ns.mean() / 1e3,
        snap.stage1_ns.mean() / 1e3,
        snap.stage2_ns.mean() / 1e3,
        snap.stage3_ns.mean() / 1e3,
        snap.combine_ns.mean() / 1e3,
    );
    let t = snap.mean_stage_total_ns();
    if t > 0.0 {
        println!(
            "  stage shares: s1 {:.0}% / s2 {:.0}% / s3 {:.0}%",
            100.0 * snap.stage1_ns.mean() / t,
            100.0 * snap.stage2_ns.mean() / t,
            100.0 * snap.stage3_ns.mean() / t,
        );
    }
    if snap.serves > 0 && snap.sequential_wall_ns > 0.0 {
        println!(
            "  pipeline: executed wall {:.1} us vs {:.1} us back-to-back ({:.1}% saved by overlap)",
            snap.serve_wall_ns / 1e3,
            snap.sequential_wall_ns / 1e3,
            100.0 * snap.overlap_saved_ns / snap.sequential_wall_ns,
        );
    }
    println!(
        "  load imbalance: mean {:.3}  max {:.3}  over {} launches",
        snap.load_imbalance.mean(),
        snap.load_imbalance.max,
        snap.launches,
    );
    if snap.cache.refs > 0 {
        println!(
            "  cache: {} lookups, {:.1}% of {} refs covered, {} partial-sum rows fetched, {} row fetches saved",
            snap.cache.lookups,
            100.0 * snap.cache.hit_rate,
            snap.cache.refs,
            snap.cache.hit_entries,
            snap.cache.fetches_saved,
        );
    }
    println!(
        "  traffic: {:.2} MB scattered CPU→MRAM (stage 1), {:.2} MB gathered MRAM→CPU (stage 3)",
        snap.stage1_bytes as f64 / 1e6,
        snap.stage3_bytes as f64 / 1e6,
    );
    let wram_rows: u64 = snap.per_dpu.iter().map(|d| d.wram_rows).sum();
    if wram_rows > 0 {
        let dma: u64 = snap.per_dpu.iter().map(|d| d.dma_transfers).sum();
        println!(
            "  WRAM: {wram_rows} row reads served from resident rows beside {dma} MRAM DMA transfers",
        );
    }
    if snap.sched.batches > 0 {
        println!(
            "  scheduler: {} admitted, {} shed, {} rejected, {} blocked, queue high-water {}",
            snap.sched.admitted,
            snap.sched.shed_oldest,
            snap.sched.rejected_new,
            snap.sched.blocked,
            snap.sched.queue_depth_high_water,
        );
        println!(
            "  batching: {} batches, mean fill {:.1} (size {} / deadline {} / drain {})",
            snap.sched.batches,
            snap.sched.batch_fill.mean(),
            snap.sched.trigger_size,
            snap.sched.trigger_deadline,
            snap.sched.trigger_drain,
        );
    }
    if snap.runtime.shards > 0 {
        println!(
            "  wall runtime: {} shard{} (time-scale {:.0}x, {}), {:.0} qps measured over {:.1} ms",
            snap.runtime.shards,
            if snap.runtime.shards == 1 { "" } else { "s" },
            snap.runtime.time_scale,
            if snap.runtime.deterministic {
                "deterministic"
            } else {
                "free-running"
            },
            snap.runtime.measured_qps,
            snap.runtime.wall_elapsed_ns / 1e6,
        );
        println!(
            "  wall latency: p50 {:.1} us  p95 {:.1} us  p99 {:.1} us; \
             service walls modeled {:.2} ms vs measured {:.2} ms",
            snap.runtime.measured_p50_latency_ns / 1e3,
            snap.runtime.measured_p95_latency_ns / 1e3,
            snap.runtime.measured_p99_latency_ns / 1e3,
            snap.runtime.modeled_service_ns / 1e6,
            snap.runtime.measured_service_ns / 1e6,
        );
    }
    for t in &snap.tenants {
        println!(
            "  tenant {} (w {:.1}): {} admitted ({} shed, {} rejected), {} completed in {} batches",
            t.name, t.weight, t.admitted, t.shed, t.rejected, t.completed, t.batches,
        );
        let slo = slo_label(t.slo_p99_ns, t.slo_violations);
        println!(
            "    p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  {slo}  \
             fleet share {:.2} (configured {:.2})",
            t.p50_latency_ns / 1e3,
            t.p95_latency_ns / 1e3,
            t.p99_latency_ns / 1e3,
            t.fleet_share_achieved,
            t.fleet_share_configured,
        );
    }
    if !snap.per_dpu.is_empty() {
        let cycles: Vec<u64> = snap.per_dpu.iter().map(|d| d.cycles).collect();
        let total: u64 = cycles.iter().sum();
        let occ = snap
            .per_dpu
            .iter()
            .map(|d| d.tasklet_occupancy)
            .sum::<f64>()
            / snap.per_dpu.len() as f64;
        println!(
            "  fleet: {} DPUs, {:.2} Mcycles total, mean tasklet occupancy {:.2}, \
             busiest/idlest DPU {} / {} cycles",
            snap.per_dpu.len(),
            total as f64 / 1e6,
            occ,
            cycles.iter().max().unwrap_or(&0),
            cycles.iter().min().unwrap_or(&0),
        );
    }
    Ok(())
}

/// A colon-separated flag value split into the fields its `hint`
/// names (`SETS:ROWS:…`); every malformed field exits 2 naming the flag.
struct Fields<'a> {
    flag: &'a str,
    value: &'a str,
    hint: &'a str,
    parts: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    fn split(flag: &'a str, value: &'a str, hint: &'a str) -> Self {
        let parts: Vec<&str> = value.split(':').collect();
        if parts.len() != hint.split(':').count() {
            eprintln!("--{flag} expects {hint}, got '{value}'");
            std::process::exit(2)
        }
        Fields {
            flag,
            value,
            hint,
            parts,
        }
    }

    fn refuse(&self, i: usize, want: &str) -> ! {
        let name = self.hint.split(':').nth(i).unwrap_or_default();
        let (flag, part, value) = (self.flag, self.parts[i], self.value);
        eprintln!("--{flag}: {name} '{part}' in '{value}' must be {want}");
        std::process::exit(2)
    }

    /// Field `i` as an unsigned integer (a count or an index).
    fn count(&self, i: usize) -> usize {
        self.parts[i]
            .parse()
            .unwrap_or_else(|_| self.refuse(i, "an unsigned integer"))
    }

    /// Field `i` as a float; the schedule's own validation bounds it.
    fn float(&self, i: usize) -> f64 {
        self.parts[i]
            .parse()
            .unwrap_or_else(|_| self.refuse(i, "a number"))
    }

    /// Field `i`, microseconds, in ns: refused unless it is finite,
    /// non-negative and within what modeled time can hold (the bound
    /// of [`micros_or_exit`]).
    fn micros(&self, i: usize) -> u64 {
        let max_us = MAX_WHOLE_NS / 1_000;
        match self.parts[i].parse::<f64>() {
            Ok(us) if us.is_finite() && (0.0..=max_us as f64).contains(&us) => {
                (us * 1_000.0) as u64
            }
            _ => self.refuse(i, &format!("0 to {max_us} us of modeled time")),
        }
    }
}

/// Builds the UPWL v3 drift schedule from `--rotate` / `--spike` /
/// `--diurnal`, or `None` when no drift flag is present. Validates the
/// schedule against the dataset's row count (exit 2 on a hot set that
/// does not fit — the same check the loader applies).
fn parse_drift(args: &Args, spec: &DatasetSpec) -> Option<DriftSchedule> {
    let mut drift = DriftSchedule::default();
    if let Some(v) = args.flags.get("rotate") {
        let f = Fields::split("rotate", v, "SETS:ROWS:PERIOD_US:HOT_FRACTION");
        drift.rotation = Some(HotSetRotation {
            num_sets: f.count(0),
            set_size: f.count(1),
            period_ns: f.micros(2),
            hot_fraction: f.float(3),
        });
    }
    if let Some(v) = args.flags.get("spike") {
        let f = Fields::split("spike", v, "START_US:DUR_US:SET:EXTRA_HOT:RATE_BOOST");
        drift.spikes.push(FlashCrowd {
            start_ns: f.micros(0),
            duration_ns: f.micros(1),
            target_set: f.count(2),
            extra_hot: f.float(3),
            rate_boost: f.float(4),
        });
    }
    if let Some(v) = args.flags.get("diurnal") {
        let f = Fields::split("diurnal", v, "PERIOD_US:AMPLITUDE");
        drift.diurnal = Some(DiurnalCurve {
            period_ns: f.micros(0),
            amplitude: f.float(1),
        });
    }
    if drift.is_trivial() {
        return None;
    }
    if let Err(e) = drift.validate(spec.num_items) {
        eprintln!("invalid drift schedule: {e}");
        std::process::exit(2)
    }
    Some(drift)
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_or_exit(args).scaled_down(args.scale());
    let trace_config = TraceConfig {
        num_batches: args.num("batches", 10),
        seed: args.num("seed", 7) as u64,
        ..TraceConfig::default()
    };
    let workload = if let Some(drift) = parse_drift(args, &spec) {
        // Drift is a function of arrival time, so a v3 trace always
        // carries an open-loop arrival process (`--qps` is required).
        let qps = args.positive_float("qps");
        Workload::generate_drifting(&spec, trace_config, drift, arrival_or_exit(args, qps))
    } else {
        let mut workload = Workload::generate(&spec, trace_config);
        if args.flags.contains_key("arrival") || args.flags.contains_key("qps") {
            // `--arrival` defaults to poisson, but a rate is always needed.
            let qps = args.positive_float("qps");
            workload.stamp_arrivals(arrival_or_exit(args, qps));
        }
        workload
    };
    let out = args.flags.get("out").cloned().unwrap_or_else(|| usage());
    let mut file = std::fs::File::create(&out)?;
    workload.save(&mut file)?;
    let arrivals = if workload.arrivals.process.is_closed_loop() {
        "closed-loop".to_string()
    } else {
        format!(
            "{} arrivals at {:.0} qps offered",
            workload.arrivals.process.tag(),
            workload.arrivals.process.offered_qps().unwrap_or(0.0),
        )
    };
    let drifting = if workload.drift.is_some() {
        ", drifting"
    } else {
        ""
    };
    println!(
        "wrote {} ({} batches, {} lookups, {} items/table, {arrivals}, UPWL v3{drifting}) to {out}",
        spec.name,
        workload.batches.len(),
        workload.total_lookups(),
        spec.num_items,
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_or_exit(args);
    println!("{} ({})", spec.name, spec.short);
    println!("  category:       {}", spec.hotness);
    println!("  avg reduction:  {}", spec.avg_reduction);
    println!("  items:          {}", spec.num_items);
    println!("  zipf theta:     {}", spec.zipf_theta);
    println!(
        "  table size:     {:.1} MB at 32 dims",
        spec.table_bytes(32) as f64 / 1e6
    );
    println!(
        "  co-occurrence:  clusters of {}, rate {}, fraction {}",
        spec.cooccur.cluster_size, spec.cooccur.cluster_rate, spec.cooccur.clustered_fraction
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage();
    };
    let args = Args::parse(rest);
    args.expect_form(match cmd.as_str() {
        "run" if args.flag_set("plan") => "run --plan",
        "serve" if args.flag_set("tenants") => "serve --tenants",
        "serve" if args.str("runtime", "modeled") == "wall" => "serve --runtime wall",
        other => other,
    });
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "plan" => cmd_plan(&args),
        "serve" => cmd_serve(&args),
        "capacity" => cmd_capacity(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "info" => cmd_info(&args),
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
