//! The repository's structural lint gates, as data.
//!
//! Each deletion of a second copy — a type, a path, a clock — left a
//! gate behind: a name that must not come back, a call that exists
//! exactly N times, a name that lives in one file only. [`GATES`] is
//! the one list of them, and [`safe_outside_simd`] and
//! [`record_sample_never_sorts`] are the two gates a pattern list
//! cannot say. `lint_gates_hold` scans the tree as `grep -r` reads it:
//! every file under each path, this file excepted. `every_gate_can_fail`
//! plants each pattern of each row in a temp tree, so a pattern that
//! can never match fails here too.

use std::path::{Path, PathBuf};

/// What a row demands of the lines that hold one of its patterns.
enum Expect {
    /// No line.
    Absent,
    /// Exactly this many lines.
    Exactly(usize),
    /// At least one line, and every one in these files.
    OnlyIn(&'static [&'static str]),
}

use Expect::{Absent, Exactly, OnlyIn};

/// One row: no part of it is a regular expression.
struct Gate {
    gate: &'static str,
    /// Literal substrings; a line holding any of them is a hit.
    patterns: &'static [&'static str],
    /// Files or directories under the repo root; a `*` component
    /// stands for every entry of its directory.
    paths: &'static [&'static str],
    expect: Expect,
    /// The deleted code the row keeps out, and where it is described.
    keeps_out: &'static str,
}

const CORE: &[&str] = &["crates/updlrm-core/src"];
const SOURCES: &[&str] = &["crates/*/src", "src"];
const LAUNCH: &[&str] = &["crates/upmem-sim/src", "crates/updlrm-core/src", "src"];
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
const SIMD: &[&str] = &["crates/dlrm-model/src/simd.rs"];

/// A row that holds one stage method to exactly `n` definitions.
const fn one_stage(pattern: &'static [&'static str], n: usize) -> Gate {
    Gate {
        gate: "One stage sequence",
        patterns: pattern,
        paths: CORE,
        expect: Exactly(n),
        keeps_out: "a second copy of a stage method: `run_batch` and every serve call \
                    the one `route` / `scatter` / `stage2` / `stage3` sequence, and \
                    `PipelineClock::stage3` is the other `fn stage3` (DESIGN.md §4.4)",
    }
}

const GATES: &[Gate] = &[
    Gate {
        gate: "One placement path",
        patterns: &["plan_rows", "TableFlip", "CacheFlip", "TileSource"],
        paths: CORE,
        expect: Absent,
        keeps_out: "the second strategy match and its flip types: build, refit and \
                    plan-load produce one `Placement` from `place` (DESIGN.md §4.11)",
    },
    Gate {
        gate: "One placement path",
        patterns: &["partition::cache_aware("],
        paths: CORE,
        expect: Exactly(1),
        keeps_out: "a second call of the cache-aware partitioner",
    },
    Gate {
        gate: "One placement path",
        patterns: &["PartialSumCache::materialize("],
        paths: CORE,
        expect: Exactly(1),
        keeps_out: "a second call of the partial-sum store",
    },
    Gate {
        gate: "One stage sequence",
        patterns: &[
            "RoutedBatch",
            "Stage2Report",
            "fold_into",
            "breakdown_seed",
            "gather_one",
            "s1_done",
        ],
        paths: CORE,
        expect: Absent,
        keeps_out: "the serve's copies of the stage methods and of the breakdown \
                    bookkeeping: `run_batch` and the serve call one sequence (DESIGN.md §4.4)",
    },
    Gate {
        gate: "One stage sequence",
        patterns: &[
            "PipelineMode::Sequential",
            "serve_sequential",
            "engine_free =",
        ],
        paths: SOURCES,
        expect: Absent,
        keeps_out: "the back-to-back schedule and the open-loop loops' single modeled \
                    server (DESIGN.md §4.7)",
    },
    Gate {
        gate: "One stage sequence",
        patterns: &["bus_free"],
        paths: SOURCES,
        expect: OnlyIn(&["crates/updlrm-core/src/pipeline.rs"]),
        keeps_out: "a second copy of the depth-2 schedule recurrence",
    },
    Gate {
        gate: "One modeled clock",
        patterns: &[
            "ClockTime",
            "service_stages",
            "Stages<f64>",
            "stage1_ns: f64",
            "PipelineClock<",
        ],
        paths: SOURCES,
        expect: Absent,
        keeps_out: "a second (f64 or whole-ns) clock: modeled time is integer \
                    picoseconds on one `PipelineClock` (DESIGN.md §4.4, §7)",
    },
    Gate {
        gate: "One modeled clock",
        patterns: &["ceil() as u64"],
        paths: &["crates/scheduler/src", "crates/updlrm-core/src"],
        expect: Absent,
        keeps_out: "a stage time rounded again after its source",
    },
    Gate {
        gate: "One record per serving counter",
        patterns: &["record_sched_"],
        paths: &["crates", "src", "tests"],
        expect: Absent,
        keeps_out: "the per-event scheduler hooks: the snapshot's blocks are recorded \
                    from the reports the front-ends finish (DESIGN.md §4.6)",
    },
    Gate {
        gate: "One record per serving counter",
        patterns: &["fn metrics_mut"],
        paths: &["crates/scheduler/src/event_loop.rs"],
        expect: Absent,
        keeps_out: "the registry on the `Serve` trait",
    },
    Gate {
        gate: "One record per serving counter",
        patterns: &["MetricsRegistry::new", ".absorb("],
        paths: &["crates/runtime/src"],
        expect: Absent,
        keeps_out: "the runtime batcher's private registry",
    },
    Gate {
        gate: "One record per serving counter",
        patterns: &["RuntimeSnapshot {"],
        paths: &["src/bin/updlrm.rs"],
        expect: Absent,
        keeps_out: "a runtime block assembled by the CLI",
    },
    Gate {
        gate: "One pass per run",
        patterns: &[
            "struct Passes",
            "MeasuredJson",
            "\"iters\"",
            "\"warmup\"",
            ".serve(&",
        ],
        paths: &["src/bin/updlrm.rs"],
        expect: Absent,
        keeps_out: "the CLI's host timer and repeated passes: `run` serves its trace \
                    once with one `serve_stream` call, and host time is `benchmark/`'s",
    },
    Gate {
        gate: "One pass per run",
        patterns: &["fn parse_strategy"],
        paths: &["crates/tenancy"],
        expect: Absent,
        keeps_out: "a second strategy parser beside `PartitionStrategy::from_str`",
    },
    Gate {
        gate: "One reader per input file",
        patterns: &[
            "extern \"C\"",
            "TableView",
            "PackedTables",
            "fn import_text_trace",
        ],
        paths: &["crates", "src"],
        expect: Absent,
        keeps_out: "the packed-table view and the text-trace importer (DESIGN.md §4.10)",
    },
    Gate {
        gate: "One reader per input file",
        patterns: &[
            "load_packed",
            "save_packed",
            "write_packed",
            "PackError",
            "UPTB",
            "cmd_pack",
            "tables_mut",
        ],
        paths: &["crates/*/src", "src", "examples"],
        expect: Absent,
        keeps_out: "the packed-table format, `updlrm pack` and `run --tables`: tables \
                    are generated from (dataset, scale, seed), never loaded",
    },
    Gate {
        gate: "One launch path",
        patterns: &["run_fleet_parallel", "disjoint_dpu_refs", "TryLockError"],
        paths: LAUNCH,
        expect: Absent,
        keeps_out: "the per-launch worker fan-out, its disjoint-borrow split and the \
                    kernel's lock fallback: a launch runs whole on one thread (DESIGN.md §4.3)",
    },
    Gate {
        gate: "One launch path",
        patterns: &["thread::scope", "spawn_scoped"],
        paths: LAUNCH,
        expect: OnlyIn(&["crates/updlrm-core/src/engine/build.rs"]),
        keeps_out: "a scoped fan-out per launch: the launch fan-out stays deleted, and a \
                    thread scope is allowed only at build grain, over a cold build's \
                    per-table work of tens to hundreds of ms (DESIGN.md §4.3)",
    },
    Gate {
        gate: "One launch path",
        patterns: &["host_threads"],
        paths: LAUNCH,
        expect: Exactly(2),
        keeps_out: "the worker-count field: only the two `with_host_threads` no-op \
                    shims remain, for callers written against the old knob",
    },
    Gate {
        gate: "One launch path",
        patterns: &["pub fn with_host_threads(self, _"],
        paths: LAUNCH,
        expect: Exactly(2),
        keeps_out: "a `with_host_threads` that reads its argument",
    },
    Gate {
        gate: "One replan trigger",
        patterns: &[
            "ReplanPolicy::Imbalance",
            "window_imbalance",
            "\"imbalance:",
            "imbalance:T",
            "drift_snapshot_mut",
        ],
        paths: SOURCES,
        expect: Absent,
        keeps_out: "the load-imbalance trigger, its window metric, its CLI spelling and \
                    the snapshot's mutable accessor: one `periodic:N` trigger, ticked \
                    through `on_tick(now, counts)` (DESIGN.md §4.11)",
    },
    Gate {
        gate: "Serve-only DLRM",
        patterns: &[
            "train_batch",
            "SgdConfig",
            "TrainStats",
            "bce_loss",
            "forward_cached",
            "LinearGrads",
            "MlpCache",
            "apply_grads",
            "fn backward",
            "fn transpose",
            "fn hsplit",
        ],
        paths: &["crates/*/src", "src", "examples"],
        expect: Absent,
        keeps_out: "the backward pass, the optimizer, the loss and the matrix ops only \
                    they called: the model is a fixed input to serving (DESIGN.md §2)",
    },
    Gate {
        gate: "Whole samples, recorded without a sort",
        patterns: &["MAX_PAIR_SPAN"],
        paths: &["crates/cooccur-cache/src"],
        expect: Absent,
        keeps_out: "the miner's per-sample span cap and its stride: a recorded sample \
                    keeps every hot rank, under a rank budget",
    },
    Gate {
        gate: "Whole samples, recorded without a sort",
        patterns: &[
            "FxHashMap",
            "FxHashSet",
            "fn adjacency",
            "fn neighbors_by_weight",
        ],
        paths: &[
            "crates/cooccur-cache/src/graph.rs",
            "crates/cooccur-cache/src/mine.rs",
        ],
        expect: Absent,
        keeps_out: "the miner's edge map: the hash-map miner lives only in \
                    `crates/cooccur-cache/tests/miner_oracle.rs`",
    },
    Gate {
        gate: "Whole samples, recorded without a sort",
        patterns: &["rank_freq", "freq:"],
        paths: &["crates/cooccur-cache/src/graph.rs"],
        expect: Absent,
        keeps_out: "the whole-profile frequency as the edge bar: the profile ranks \
                    seeds, and a seed's bar counts its recorded samples",
    },
    Gate {
        gate: "Whole samples, recorded without a sort",
        patterns: &["CacheListSet::mine("],
        paths: &["crates/updlrm-core/src", "crates/bench/src"],
        expect: Absent,
        keeps_out: "a caller of the miner that bypasses `from_trace`",
    },
    Gate {
        gate: "One embedding engine",
        patterns: &[
            "TieredEngine",
            "mram_view",
            "scatter_broadcast(",
            "BatchServer",
        ],
        paths: EVERYWHERE,
        expect: Absent,
        keeps_out: "the second (tiered) engine, the runtime's serving trait and the \
                    simulator's caller-less MRAM views: a plan is served by \
                    `UpdlrmEngine::from_plan` (DESIGN.md §4.9)",
    },
    Gate {
        gate: "One whole-DPU kernel pass",
        patterns: &["fn run_csr", "fn run_dedup", "TaskletScratch"],
        paths: &["crates/updlrm-core/src/kernel.rs"],
        expect: Absent,
        keeps_out: "the tasklet-by-tasklet kernel: it lives only in \
                    `crates/updlrm-core/tests/stream_props.rs` as the `Longhand` oracle",
    },
    Gate {
        gate: "One cost table",
        patterns: &["fn charge_"],
        paths: &["crates/upmem-sim/src/dpu.rs"],
        expect: Exactly(8),
        keeps_out: "a charge beside the eight formulas, each of which takes a count",
    },
    Gate {
        gate: "One cost table",
        patterns: &["round()"],
        paths: &["crates/upmem-sim/src/dpu.rs"],
        expect: Absent,
        keeps_out: "a cost curve outside `cost.rs`'s `CostTable`",
    },
    Gate {
        gate: "One WRAM account",
        patterns: &["wram_tenants", "wram-"],
        paths: &["src/bin/updlrm.rs"],
        expect: Absent,
        keeps_out: "a CLI switch for WRAM residency: `UpdlrmConfig::wram_tenants = 0` \
                    (library only) is the paper's kernel",
    },
    Gate {
        gate: "One WRAM account",
        patterns: &["tasklets * 64"],
        paths: CORE,
        expect: Absent,
        keeps_out: "a second WRAM account beside `kernel::wram_budget`",
    },
    Gate {
        gate: "One WRAM account",
        patterns: &["WramBudget"],
        paths: &["crates/placement", "crates/bench", "src"],
        expect: Absent,
        keeps_out: "an estimator that derives its own WRAM budget: estimators are told \
                    `UpdlrmConfig::wram_resident_bytes`",
    },
    Gate {
        gate: "One WRAM account",
        patterns: &["prefill_resident"],
        paths: EVERYWHERE,
        expect: OnlyIn(&[
            "crates/runtime/src/lib.rs",
            "crates/updlrm-core/src/engine/launch.rs",
        ]),
        keeps_out: "a second caller of the fill outside modeled time: only the wall \
                    runtime fills its shards beyond the first that way (DESIGN.md §4.8)",
    },
    one_stage(&["fn route("], 1),
    one_stage(&["fn scatter("], 1),
    one_stage(&["fn stage2("], 1),
    one_stage(&["fn stage3("], 2),
    one_stage(&["fn run_batch("], 1),
    one_stage(&["fn serve_doublebuf"], 1),
    one_stage(&["fn pipelined_schedule("], 1),
    one_stage(&["fn recycle_pooled("], 1),
    Gate {
        gate: "One stage sequence",
        patterns: &[
            "Sequential",
            "pipeline_mode =",
            "--pipeline",
            "saturating_add(service",
        ],
        paths: &["crates/updlrm-core/src", "crates/scheduler/src", "src"],
        expect: Absent,
        keeps_out: "the back-to-back schedule, its flag and the scheduler's own \
                    service clock: one schedule, one clock (DESIGN.md §4.4)",
    },
    Gate {
        gate: "One modeled clock",
        patterns: &["PipelineClock"],
        paths: &["crates/*/src"],
        expect: OnlyIn(&[
            "crates/scheduler/src/event_loop.rs",
            "crates/tenancy/src/fleet.rs",
            "crates/updlrm-core/src/engine.rs",
            "crates/updlrm-core/src/pipeline.rs",
            "crates/updlrm-core/src/serve.rs",
        ]),
        keeps_out: "a front-end that keeps modeled time without the one depth-2 clock",
    },
    Gate {
        gate: "One tile writer",
        patterns: &["fn write_tiles"],
        paths: CORE,
        expect: Exactly(1),
        keeps_out: "a second MRAM tile writer: the initial load and the migration \
                    scatter share `write_tiles`",
    },
    Gate {
        gate: "One tile writer",
        patterns: &["fn build_emt_tile", "fn build_cache_tile"],
        paths: CORE,
        expect: Absent,
        keeps_out: "the per-region tile builders `write_tiles` replaced",
    },
    Gate {
        gate: "One tile writer",
        patterns: &["CacheEntry", "Vec<f32>"],
        paths: &["crates/cooccur-cache/src/store.rs"],
        expect: Exactly(1),
        keeps_out: "a host copy of each cached row: the partial-sum store keeps none, \
                    and only `reduce_with_table` returns a row",
    },
    Gate {
        gate: "One tile writer",
        patterns: &["resize("],
        paths: &["crates/upmem-sim/src/mem.rs"],
        expect: Absent,
        keeps_out: "an MRAM bank whose growth writes the bytes it adds",
    },
    Gate {
        gate: "One bench protocol, no host clock",
        patterns: &[
            "fn num(",
            "fn parse_rows(",
            "--baseline-label",
            "--smoke",
            "timing::",
            "Instant::now",
        ],
        paths: &["crates/bench/benches", "crates/bench/src"],
        expect: Absent,
        keeps_out: "per-bench flag parsers and host timers: the sweeps share \
                    `bench::protocol` and read only the modeled clock",
    },
    Gate {
        gate: "One bench protocol, no host clock",
        patterns: &[
            "measured_",
            "baseline_",
            "speedup_vs_baseline",
            "telemetry_overhead_pct",
            "\"simd\"",
            "wall_ms",
        ],
        paths: &[
            "BENCH_drift.json",
            "BENCH_pipeline.json",
            "BENCH_placement.json",
            "BENCH_sched.json",
            "BENCH_steady_state.json",
            "BENCH_tenants.json",
        ],
        expect: Absent,
        keeps_out: "host time in a committed sweep document: host time is \
                    `benchmark/`'s",
    },
    Gate {
        gate: "One matrix product",
        patterns: &["axpy"],
        paths: &[
            "crates/dlrm-model/src/tensor.rs",
            "crates/dlrm-model/src/mlp.rs",
        ],
        expect: Absent,
        keeps_out: "the axpy-per-`k` matmul: every product is `simd::gemm`",
    },
    Gate {
        gate: "One matrix product",
        patterns: &["hconcat", "dense.clone()"],
        paths: &["crates/dlrm-model/src/model.rs"],
        expect: Exactly(2),
        keeps_out: "a concatenation on the serving path: the two hits are the test \
                    oracle that `forward_with_pooled` is compared with",
    },
    Gate {
        gate: "One matrix product",
        patterns: &["fmadd", "mul_add"],
        paths: &["crates/dlrm-model/src"],
        expect: Absent,
        keeps_out: "a fused multiply-add, which would round differently on each tier \
                    (DESIGN.md §4.10)",
    },
    Gate {
        gate: "One source per SIMD primitive",
        patterns: &[
            "_mm_",
            "_mm256_",
            "_mm512_",
            "vld1q",
            "std::arch::x86_64::*",
            "std::arch::aarch64::*",
        ],
        paths: SIMD,
        expect: Absent,
        keeps_out: "hand-written intrinsics: each tier is the one body compiled for it",
    },
    Gate {
        gate: "One source per SIMD primitive",
        patterns: &["unsafe"],
        paths: SIMD,
        expect: Exactly(2),
        keeps_out: "an `unsafe` beyond the two calls into a `#[target_feature]` copy",
    },
    Gate {
        gate: "One SIMD tier per process",
        patterns: &["force_tier", "test_tier_lock", "TIER.store"],
        paths: EVERYWHERE,
        expect: Absent,
        keeps_out: "a store to the process's tier after detection and the lock its \
                    tests took: an override is `simd::with_tier`, per thread and in \
                    scope (DESIGN.md §4.10)",
    },
    Gate {
        gate: "Deleted knobs stay shims",
        patterns: &[
            "queue_depth(",
            "queue_depth:",
            "queue_depth =",
            "\"queue_depth\"",
            "queue-depth",
        ],
        paths: EVERYWHERE,
        expect: Exactly(2),
        keeps_out: "a queue depth that does anything: only the no-op \
                    `with_queue_depth` and its one test caller remain, kept because \
                    `benchmark/src/shapes.rs` still calls it",
    },
    Gate {
        gate: "One CLI table",
        patterns: &["[--dataset", "[--seed", "_FLAGS: &str", "BARE_FLAGS"],
        paths: &["src/bin"],
        expect: Absent,
        keeps_out: "a hand-written usage or synopsis and per-form flag lists: every flag, \
                    form and literal default is a row of `FLAGS` / `FORMS` in \
                    `src/bin/updlrm.rs`, and the usage is generated from them",
    },
    Gate {
        gate: "One Serve shape",
        patterns: &[
            "pub tail:",
            "tail: None",
            "tail: Some",
            "From<Stages> for Step",
        ],
        paths: &["crates/*/src"],
        expect: Absent,
        keeps_out: "a server that reports its batch whole: every `Serve` returns its batch's \
                    stage 1 and reports stages 2 and 3 with the next launch or the flush \
                    (DESIGN.md §4.7)",
    },
    Gate {
        gate: "One placement path",
        patterns: &["fn least_loaded_with_room"],
        paths: &["crates"],
        expect: OnlyIn(&["crates/placement/src/planner.rs"]),
        keeps_out: "a second least-loaded scan: NU, CA and both plan packers call the \
                    planner's",
    },
];

/// The repo root.
fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The existing files and directories `path` names under `root`.
fn expand(root: &Path, path: &str) -> Vec<PathBuf> {
    let mut found = vec![root.to_path_buf()];
    for part in path.split('/') {
        found = found
            .iter()
            .flat_map(|dir| match part {
                "*" => entries(dir),
                _ => vec![dir.join(part)],
            })
            .filter(|p| p.exists())
            .collect();
    }
    found
}

/// A directory's entries, sorted (none if it is not a directory).
fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut all: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.expect("readable entry").path()).collect())
        .unwrap_or_default();
    all.sort();
    all
}

/// Every regular file under `paths`, as `grep -r` reads them (symlinks
/// inside a directory are not followed), without this file.
fn files(root: &Path, paths: &[&str]) -> Vec<PathBuf> {
    fn walk(path: PathBuf, out: &mut Vec<PathBuf>) {
        let Ok(meta) = path.symlink_metadata() else {
            return;
        };
        if meta.is_dir() {
            entries(&path).into_iter().for_each(|p| walk(p, out));
        } else if meta.is_file() {
            out.push(path);
        }
    }
    let this = repo().join(file!());
    let mut out = Vec::new();
    for path in paths {
        expand(root, path)
            .into_iter()
            .for_each(|p| walk(p, &mut out));
    }
    out.retain(|p| *p != this);
    out
}

/// One matching line: the file relative to `root`, the line number and
/// the line.
struct Hit {
    file: String,
    line: usize,
    text: String,
}

/// The lines of the files under `paths` that hold any of `patterns`.
fn hits(root: &Path, paths: &[&str], patterns: &[&str]) -> Vec<Hit> {
    let mut out = Vec::new();
    for path in files(root, paths) {
        let bytes = std::fs::read(&path).expect("readable file");
        let file = path.strip_prefix(root).unwrap_or(&path);
        for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
            let text = String::from_utf8_lossy(line);
            if patterns.iter().any(|p| text.contains(p)) {
                out.push(Hit {
                    file: file.display().to_string(),
                    line: i + 1,
                    text: text.trim().to_string(),
                });
            }
        }
    }
    out
}

/// Why `gate` fails on the tree at `root`, or `None` if it holds.
fn violation(gate: &Gate, root: &Path) -> Option<String> {
    let hits = hits(root, gate.paths, gate.patterns);
    let held = match gate.expect {
        Absent => hits.is_empty(),
        Exactly(n) => hits.len() == n,
        OnlyIn(files) => !hits.is_empty() && hits.iter().all(|h| files.contains(&&*h.file)),
    };
    if held {
        return None;
    }
    let wanted = match gate.expect {
        Absent => "no line".to_string(),
        Exactly(n) => format!("exactly {n} lines"),
        OnlyIn(files) => format!("lines only in {files:?}"),
    };
    let found: Vec<String> = hits
        .iter()
        .map(|h| format!("  {}:{}: {}", h.file, h.line, h.text))
        .collect();
    Some(format!(
        "lint gate \"{}\": {:?} under {:?} must match {wanted}, found {}:\n{}\n\
         (it keeps out {})",
        gate.gate,
        gate.patterns,
        gate.paths,
        hits.len(),
        found.join("\n"),
        gate.keeps_out,
    ))
}

/// "Safe outside simd.rs": the repository's only `unsafe` is the two
/// calls into a `#[target_feature]` copy in `dlrm_model::simd`, and
/// every other crate root forbids `unsafe_code`.
fn safe_outside_simd(root: &Path) -> Option<String> {
    let simd = "crates/dlrm-model/src/simd.rs";
    let mut bad: Vec<String> = hits(root, SOURCES, &["unsafe"])
        .into_iter()
        .filter(|h| h.file.ends_with(".rs") && h.file != simd && !h.text.contains("unsafe_code"))
        .map(|h| format!("  {}:{}: {}", h.file, h.line, h.text))
        .collect();
    for lib in [
        expand(root, "crates/*/src/lib.rs"),
        expand(root, "src/lib.rs"),
    ]
    .concat()
    {
        let text = std::fs::read_to_string(&lib).expect("readable crate root");
        let file = lib.strip_prefix(root).unwrap_or(&lib).display().to_string();
        let forbids = text
            .lines()
            .any(|l| l.starts_with("#![forbid(unsafe_code)]"));
        if file != "crates/dlrm-model/src/lib.rs" && !forbids {
            bad.push(format!("  {file} does not forbid unsafe_code"));
        }
    }
    (!bad.is_empty()).then(|| {
        format!(
            "lint gate \"Safe outside simd.rs\": `unsafe` outside {simd}, or a crate root \
             without #![forbid(unsafe_code)]:\n{}\n(the runtime's rings are std's bounded \
             channel, DESIGN.md §4.8)",
            bad.join("\n")
        )
    })
}

/// "Whole samples, recorded without a sort": `record_sample` reads the
/// ranks back from a bitmap, ascending and distinct, so its body (from
/// its signature up to the first line that is `    }`) never sorts or
/// dedups.
fn record_sample_never_sorts(root: &Path) -> Option<String> {
    let graph = "crates/cooccur-cache/src/graph.rs";
    let text = std::fs::read_to_string(root.join(graph)).unwrap_or_default();
    let body: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.contains("fn record_sample("))
        .take_while(|l| *l != "    }")
        .collect();
    let sorts: Vec<&str> = body
        .iter()
        .copied()
        .filter(|l| {
            ["sort_unstable", ".sort(", "dedup"]
                .iter()
                .any(|p| l.contains(p))
        })
        .collect();
    if body.is_empty() {
        Some(format!(
            "lint gate \"Whole samples, recorded without a sort\": no `fn record_sample(` in {graph}"
        ))
    } else if !sorts.is_empty() {
        Some(format!(
            "lint gate \"Whole samples, recorded without a sort\": record_sample in {graph} \
             sorts or dedups:\n  {}",
            sorts.join("\n  ")
        ))
    } else {
        None
    }
}

#[test]
fn lint_gates_hold() {
    let failures: Vec<String> = GATES
        .iter()
        .filter_map(|g| violation(g, repo()))
        .chain(safe_outside_simd(repo()))
        .chain(record_sample_never_sorts(repo()))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// A tree under the temp directory that removes itself.
struct TempTree(PathBuf);

impl TempTree {
    fn new(name: &str) -> TempTree {
        let dir = std::env::temp_dir().join(format!("updlrm-lint-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempTree(dir)
    }

    /// Writes `text` to `file` under the tree, directories included.
    fn write(&self, file: &str, text: &str) {
        let path = self.0.join(file);
        std::fs::create_dir_all(path.parent().expect("a parent")).expect("dirs");
        std::fs::write(path, text).expect("write");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn every_gate_can_fail() {
    for (i, gate) in GATES.iter().enumerate() {
        // The row's first path, `*` made concrete; a directory gets a
        // new file, a file path is written itself.
        let path = gate.paths[0].replace('*', "planted");
        let file = if Path::new(&path).extension().is_some() {
            path
        } else {
            format!("{path}/planted.rs")
        };
        let copies = match gate.expect {
            Absent | OnlyIn(_) => 1,
            Exactly(n) => n + 1,
        };
        for pattern in gate.patterns {
            let line = format!("let planted = {pattern};\n");
            let tree = TempTree::new(&format!("row{i}"));
            tree.write(&file, &line.repeat(copies));
            assert!(
                violation(gate, &tree.0).is_some(),
                "row {i} (\"{}\") holds with {copies} planted {pattern:?} in {file}",
                gate.gate,
            );
        }
    }

    let tree = TempTree::new("unsafe");
    tree.write("crates/planted/src/lib.rs", "#![forbid(unsafe_code)]\n");
    assert_eq!(safe_outside_simd(&tree.0), None, "a clean crate passes");
    tree.write("crates/planted/src/raw.rs", "unsafe { planted() }\n");
    assert!(safe_outside_simd(&tree.0).is_some(), "an unsafe block");
    tree.write("crates/planted/src/raw.rs", "\n");
    tree.write("crates/planted/src/lib.rs", "//! No forbid.\n");
    assert!(
        safe_outside_simd(&tree.0).is_some(),
        "a root without forbid"
    );

    let tree = TempTree::new("record_sample");
    let graph = "crates/cooccur-cache/src/graph.rs";
    let body = "    fn record_sample(&mut self) {\n        self.ranks.extend(bits);\n    }\n";
    tree.write(graph, body);
    assert_eq!(
        record_sample_never_sorts(&tree.0),
        None,
        "a bitmap read passes"
    );
    tree.write(graph, &body.replace("extend(bits)", "sort_unstable()"));
    assert!(record_sample_never_sorts(&tree.0).is_some(), "a sort");
    tree.write(graph, "fn other() {}\n");
    assert!(record_sample_never_sorts(&tree.0).is_some(), "no body");
}
