//! Integration tests for the `updlrm` command-line binary.

use std::process::Command;

fn updlrm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_updlrm"))
}

#[test]
fn info_prints_dataset_facts() {
    let out = updlrm()
        .args(["info", "--dataset", "read2"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GoodReads2"));
    assert!(text.contains("374.08"));
    assert!(text.contains("2360650"));
}

#[test]
fn run_reports_latency_breakdown() {
    let out = updlrm()
        .args([
            "run",
            "--dataset",
            "movie",
            "--strategy",
            "nu",
            "--dpus",
            "32",
            "--scale",
            "1000",
            "--batches",
            "2",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UpDLRM on Movie"));
    assert!(text.contains("embedding:"));
    assert!(text.contains("PIM stages"));
}

#[test]
fn run_supports_every_backend() {
    for backend in ["cpu", "hybrid", "fae"] {
        let out = updlrm()
            .args([
                "run",
                "--dataset",
                "clo",
                "--backend",
                backend,
                "--scale",
                "2000",
                "--batches",
                "1",
            ])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn run_rejects_unknown_backends_naming_them() {
    // `hetero` was a backend until its module was deleted; it is now an
    // unknown name like any other.
    for backend in ["hetero", "gpu"] {
        let out = updlrm()
            .args([
                "run",
                "--dataset",
                "clo",
                "--scale",
                "2000",
                "--batches",
                "1",
            ])
            .args(["--backend", backend])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{backend}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown backend '{backend}'")),
            "stderr: {err}"
        );
    }
}

#[test]
fn trace_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cli-trace.upwl");
    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "twitch",
            "--scale",
            "2000",
            "--batches",
            "2",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut f = std::fs::File::open(&path).expect("trace file written");
    let loaded = updlrm::workloads::Workload::load(&mut f).expect("valid UPWL file");
    assert_eq!(loaded.batches.len(), 2);
    assert_eq!(loaded.spec.name, "Twitch");
    std::fs::remove_file(&path).ok();
}

/// Small, fast `run` argument prefix shared by the flag tests.
const QUICK_RUN: [&str; 9] = [
    "run",
    "--dataset",
    "read",
    "--dpus",
    "32",
    "--scale",
    "1000",
    "--batches",
    "2",
];

#[test]
fn run_and_serve_refuse_the_deleted_host_threads_flag() {
    // Every launch runs on the calling thread, so there is no worker
    // count to set.
    for (args, form) in [
        (&["run"][..], "updlrm run"),
        (&["serve", "--qps", "1000"][..], "updlrm serve"),
    ] {
        let out = updlrm()
            .args(args)
            .args(["--host-threads", "1"])
            .output()
            .expect("updlrm");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown flag --host-threads") && err.contains(form),
            "args {args:?}: stderr {err}"
        );
    }
}

#[test]
fn unknown_flags_are_rejected_naming_the_flag_and_subcommand() {
    // A flag the subcommand does not read (typo or borrowed from another
    // subcommand) must not be silently dropped.
    for (args, flag, form) in [
        (&["run", "--bathces", "1"][..], "--bathces", "updlrm run"),
        (
            &["info", "--nonsense", "3"][..],
            "--nonsense",
            "updlrm info",
        ),
        (
            &["serve", "--qps", "1000", "--embed-dtype", "int8"][..],
            "--embed-dtype",
            "updlrm serve",
        ),
        (
            &["stats", "--metrics", "x", "--json", "y"][..],
            "--json",
            "updlrm stats",
        ),
    ] {
        let out = updlrm().args(args).output().expect("updlrm");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains(form),
            "args {args:?}: stderr {err}"
        );
    }
}

#[test]
fn a_repeated_flag_is_rejected_naming_it() {
    // The second value used to overwrite the first without a word.
    for (args, flag) in [
        (&["run", "--seed", "1", "--seed", "2"][..], "--seed"),
        (
            &[
                "serve",
                "--qps",
                "1000",
                "--runtime",
                "wall",
                "--deterministic",
                "--deterministic",
            ][..],
            "--deterministic",
        ),
    ] {
        let out = updlrm().args(args).output().expect("updlrm");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "args {args:?}: stderr {err}");
    }
}

#[test]
fn run_pipeline_doublebuf_reports_serving_stats() {
    let out = updlrm().args(QUICK_RUN).output().expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Every PIM run serves double-buffered and reports the executed
    // wall next to the back-to-back wall of the same batches.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("double-buffered"), "stdout: {text}");
    assert!(text.contains("back-to-back"), "stdout: {text}");
    assert!(text.contains("throughput"), "stdout: {text}");
    assert!(text.contains("p95"), "stdout: {text}");
    assert!(text.contains("per-batch mean"), "stdout: {text}");
}

#[test]
fn run_rejects_bad_pipeline() {
    // There is one schedule, so there is no schedule flag to set.
    for mode in ["turbo", "doublebuf", "sequential"] {
        let out = updlrm()
            .args(QUICK_RUN)
            .args(["--pipeline", mode])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "--pipeline {mode}");
        assert!(
            out.stdout.is_empty(),
            "--pipeline {mode} must not run anything"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --pipeline"), "{err}");
    }
}

#[test]
fn json_report_reflects_flags() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run-report.json");
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--json"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("json written");
    assert!(!json.contains("\"pipeline\""), "{json}");
    assert!(json.contains("\"throughput_qps\""), "{json}");
    assert!(json.contains("\"serve\": {\n    \"wall_ns\": "), "{json}");
    assert!(json.contains("\"sequential_wall_ns\": "), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_snapshot_is_deterministic_across_runs() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("metrics-a.json");
    let b = dir.join("metrics-b.json");
    for path in [&a, &b] {
        let out = updlrm()
            .args(QUICK_RUN)
            .args(["--seed", "7", "--metrics"])
            .arg(path)
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let first = std::fs::read(&a).expect("snapshot a");
    let second = std::fs::read(&b).expect("snapshot b");
    assert!(
        first == second,
        "same-seed metrics snapshots must be byte-identical"
    );
    // The snapshot carries only modeled values and counts.
    let text = String::from_utf8(first).expect("utf8 json");
    assert!(text.contains("\"schema_version\": 6"), "{text}");
    assert!(text.contains("\"per_dpu\""), "{text}");
    assert!(text.contains("\"load_imbalance\""), "{text}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn stats_pretty_prints_a_snapshot() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics-stats.json");
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--metrics"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = updlrm()
        .arg("stats")
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("stats");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schema v6"), "stdout: {text}");
    assert!(text.contains("stage shares"), "stdout: {text}");
    assert!(text.contains("load imbalance"), "stdout: {text}");
    assert!(text.contains("fleet: 32 DPUs"), "stdout: {text}");
    // The run served its trace and recorded serve-level overlap
    // statistics.
    assert!(text.contains("saved by overlap"), "stdout: {text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_requires_the_updlrm_backend() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--backend", "cpu", "--metrics", "/tmp/never-written.json"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --backend updlrm"));
}

#[test]
fn stats_without_metrics_flag_exits_with_usage() {
    let out = updlrm().arg("stats").output().expect("stats");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics"));
}

#[test]
fn json_report_is_a_superset_of_the_text_breakdown() {
    // Every PIM-backed run prints the "PIM stages" line, so its --json
    // report must carry the per-stage breakdown too.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, extra) in [
        ("stages-updlrm.json", &["--json"][..]),
        ("stages-uniform.json", &["--strategy", "u", "--json"][..]),
    ] {
        let path = dir.join(name);
        let out = updlrm()
            .args(QUICK_RUN)
            .args(extra)
            .arg(&path)
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&path).expect("json written");
        for field in [
            "\"stages\": {",
            "\"stage1_us\"",
            "\"stage2_pct\"",
            "\"lookup_imbalance\"",
            "\"pipelining_savings_pct\"",
        ] {
            assert!(json.contains(field), "{name} missing {field}: {json}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Runs `args` with `--metrics` into `name` under the test temp dir and
/// returns (stdout, snapshot text).
fn run_with_metrics(args: &[&str], name: &str) -> (String, String) {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let out = updlrm()
        .args(args)
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = std::fs::read_to_string(&path).expect("metrics written");
    std::fs::remove_file(&path).ok();
    (String::from_utf8_lossy(&out.stdout).into_owned(), metrics)
}

/// The residency report's fill line ("... the fill took N cycles ...").
fn fill_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.contains("the fill took"))
        .unwrap_or_else(|| panic!("no fill line in: {stdout}"))
}

#[test]
fn a_doublebuf_run_serves_its_trace_once() {
    // The double-buffered run used to serve the trace twice and report
    // the warm second pass: "serves": 2, "batches": 4 and a 0-cycle fill.
    let run = [&QUICK_RUN[..], &["--seed", "7"]].concat();
    let (dbl, metrics) = run_with_metrics(&run, "once-dbl.json");
    assert!(
        metrics.contains("\"serves\": 1,\n  \"batches\": 2,"),
        "{metrics}"
    );
    assert!(
        fill_line(&dbl).contains("the fill took 14624 cycles"),
        "{dbl}"
    );

    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/placement_plan.json"
    );
    let (_, metrics) = run_with_metrics(
        &["run", "--dataset", "read", "--plan", plan],
        "once-plan-dbl.json",
    );
    assert!(
        metrics.contains("\"serves\": 1,\n  \"batches\": 2,"),
        "{metrics}"
    );
}

#[test]
fn run_has_no_host_timer_flags() {
    for flag in ["--iters", "--warmup"] {
        let out = updlrm()
            .args(QUICK_RUN)
            .args([flag, "2"])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag}: stderr {err}");
    }
}

#[test]
fn run_accepts_the_long_strategy_spellings() {
    // A tenants file always accepted `strategy = "uniform"`; the CLI
    // used to refuse the same word.
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--strategy", "uniform"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--strategy", "zigzag"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy 'zigzag'"));
}

/// Small, fast `serve` argument prefix shared by the open-loop tests.
const QUICK_SERVE: [&str; 11] = [
    "serve",
    "--dataset",
    "read",
    "--dpus",
    "32",
    "--scale",
    "1000",
    "--batches",
    "3",
    "--qps",
    "300000",
];

#[test]
fn serve_reports_load_latency_and_admission() {
    let out = updlrm()
        .args(QUICK_SERVE)
        .args(["--arrival", "bursty", "--policy", "shed-oldest"])
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("open-loop serve"), "stdout: {text}");
    assert!(text.contains("offered"), "stdout: {text}");
    assert!(text.contains("achieved"), "stdout: {text}");
    assert!(text.contains("p99"), "stdout: {text}");
    assert!(text.contains("admission [shed-oldest]"), "stdout: {text}");
}

#[test]
fn serve_rejects_bad_flags_with_usage() {
    // Missing --qps entirely.
    let out = updlrm().args(["serve"]).output().expect("serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--qps"));

    for (bad, needle) in [
        (&["--qps", "0"][..], "--qps"),
        (&["--qps", "-3"][..], "--qps"),
        (&["--qps", "fast"][..], "--qps"),
        (&["--qps", "1000", "--arrival", "uniform"][..], "arrival"),
        (&["--qps", "1000", "--max-batch", "0"][..], "max-batch"),
        (&["--qps", "1000", "--max-wait-us", "0"][..], "max-wait-us"),
        (&["--qps", "1000", "--queue-cap", "0"][..], "queue-cap"),
        (&["--qps", "1000", "--policy", "drop-all"][..], "policy"),
    ] {
        let out = updlrm().arg("serve").args(bad).output().expect("serve");
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {bad:?}: stderr {err}");
    }
}

/// The smallest microsecond count whose nanoseconds do not fit a u64.
fn overflowing_micros() -> String {
    (u64::MAX / 1_000 + 1).to_string()
}

#[test]
fn serve_rejects_a_max_wait_that_overflows_nanoseconds() {
    // Wrapped, this deadline came out at 384 ns and every batch closed
    // on it; a debug build panicked instead.
    let us = overflowing_micros();
    let out = updlrm()
        .args(["serve", "--qps", "1000", "--max-wait-us", &us])
        .args(["--batches", "2", "--dpus", "64"])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--max-wait-us"), "stderr {err}");
}

#[test]
fn serve_tenants_rejects_a_quantum_that_overflows_nanoseconds() {
    let us = overflowing_micros();
    let out = updlrm()
        .args(["serve", "--tenants"])
        .arg(tenants_toml())
        .args(["--quantum-us", &us])
        .output()
        .expect("serve --tenants");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--quantum-us"), "stderr {err}");
}

/// The smallest microsecond count whose picoseconds — modeled time's
/// unit — do not fit a u64, though its nanoseconds do.
fn micros_past_the_modeled_clock() -> String {
    (u64::MAX / 1_000_000 + 1).to_string()
}

#[test]
fn serve_rejects_waits_and_quanta_past_the_modeled_clock() {
    let us = micros_past_the_modeled_clock();
    let tenants = tenants_toml();
    let tenants = tenants.to_str().expect("utf-8 path");
    for (flag, args) in [
        (
            "--max-wait-us",
            vec!["serve", "--qps", "1000", "--batches", "2", "--max-wait-us"],
        ),
        (
            "--quantum-us",
            vec!["serve", "--tenants", tenants, "--quantum-us"],
        ),
    ] {
        let out = updlrm().args(args).arg(&us).output().expect("serve");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}: nothing may run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "stderr {err}");
    }
}

#[test]
fn serve_rejects_a_trace_stamped_past_the_modeled_clock() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cli-trace-past-the-clock.upwl");
    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "read",
            "--scale",
            "5000",
            "--batches",
            "2",
        ])
        .args(["--qps", "10000", "--out"])
        .arg(&path)
        .output()
        .expect("trace");
    assert!(out.status.success());
    let mut workload = {
        let mut f = std::fs::File::open(&path).expect("trace written");
        updlrm::workloads::Workload::load(&mut f).expect("valid trace")
    };
    *workload.arrivals.times_ns.last_mut().expect("stamped") = u64::MAX / 1_000 + 1;
    let mut f = std::fs::File::create(&path).expect("rewrite trace");
    workload.save(&mut f).expect("save");
    drop(f);
    let out = updlrm()
        .args(["serve", "--workload-v3"])
        .arg(&path)
        .args(["--max-batch", "32", "--dpus", "16", "--strategy", "u"])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--workload-v3") && err.contains("arrival time"),
        "stderr {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_runtime_flags_are_validated() {
    // Wall-only flags must be rejected under the default modeled
    // runtime, and the wall runtime rejects nonsense shapes.
    for (bad, needle) in [
        (&["--qps", "1000", "--runtime", "hourglass"][..], "runtime"),
        (&["--qps", "1000", "--shards", "2"][..], "--runtime wall"),
        (&["--qps", "1000", "--deterministic"][..], "--runtime wall"),
        (
            &["--qps", "1000", "--time-scale", "2"][..],
            "--runtime wall",
        ),
        (
            &["--qps", "1000", "--runtime", "wall", "--shards", "0"][..],
            "--shards",
        ),
        (
            &["--qps", "1000", "--runtime", "wall", "--time-scale", "0"][..],
            "time-scale",
        ),
    ] {
        let out = updlrm().arg("serve").args(bad).output().expect("serve");
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {bad:?}: stderr {err}");
    }
}

#[test]
fn serve_runtime_wall_deterministic_locks_to_the_oracle() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("serve-wall.json");
    let out = updlrm()
        .args(QUICK_SERVE)
        .args([
            "--seed",
            "7",
            "--runtime",
            "wall",
            "--shards",
            "2",
            "--deterministic",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wall-clock serve"), "stdout: {text}");
    assert!(text.contains("2 shards"), "stdout: {text}");
    assert!(
        text.contains("oracle lock: OK"),
        "deterministic wall run must reproduce the modeled scheduler: {text}"
    );
    assert!(text.contains("service walls"), "stdout: {text}");
    let body = std::fs::read_to_string(&json).expect("wall json");
    for field in [
        "\"runtime\"",
        "\"shards\": 2",
        "\"deterministic\": true",
        "\"measured_qps\"",
        "\"modeled_report\"",
        "\"batches_per_shard\"",
    ] {
        assert!(body.contains(field), "missing {field}: {body}");
    }
    assert!(
        !body.contains("NaN") && !body.contains("inf"),
        "wall json must stay finite: {body}"
    );
    std::fs::remove_file(&json).ok();
}

#[test]
fn run_with_zero_batches_emits_finite_json() {
    // Regression (ISSUE 6): an empty run used to divide by zero batch
    // counts and leak NaN into `--json`, which the vendored serde
    // renders as an unparseable bare token.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("run-zero.json");
    let out = updlrm()
        .args([
            "run",
            "--dataset",
            "read",
            "--dpus",
            "32",
            "--scale",
            "1000",
            "--batches",
            "0",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("zero-batch json");
    assert!(
        !body.contains("NaN") && !body.contains("inf"),
        "zero-batch json must stay finite: {body}"
    );
    assert!(body.contains("\"mean_total_us\": 0.0"), "{body}");
    std::fs::remove_file(&json).ok();
}

#[test]
fn serve_fully_shed_json_stays_finite() {
    // Offered load ~1000x capacity with a tiny queue: nearly every
    // arrival is shed, and whatever statistics remain must still be
    // finite numbers in the emitted JSON (satellite of ISSUE 6).
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("serve-shed.json");
    let out = updlrm()
        .args([
            "serve",
            "--dataset",
            "read",
            "--dpus",
            "32",
            "--scale",
            "1000",
            "--batches",
            "2",
            "--qps",
            "50000000",
            "--queue-cap",
            "8",
            "--max-batch",
            "8",
            "--policy",
            "shed-oldest",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("shed json");
    assert!(
        !body.contains("NaN") && !body.contains("inf"),
        "shed json must stay finite: {body}"
    );
    assert!(body.contains("\"shed\""), "{body}");
    std::fs::remove_file(&json).ok();
}

#[test]
fn serve_json_and_metrics_are_deterministic_across_runs() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths = [
        (dir.join("serve-a.json"), dir.join("serve-a-metrics.json")),
        (dir.join("serve-b.json"), dir.join("serve-b-metrics.json")),
    ];
    for (json, metrics) in &paths {
        let out = updlrm()
            .args(QUICK_SERVE)
            .args(["--seed", "7", "--json"])
            .arg(json)
            .arg("--metrics")
            .arg(metrics)
            .output()
            .expect("serve");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read(&paths[0].0).expect("json a");
    let b = std::fs::read(&paths[1].0).expect("json b");
    assert!(a == b, "same-seed serve --json must be byte-identical");
    let text = String::from_utf8(a).expect("utf8 json");
    for field in [
        "\"offered_qps\"",
        "\"achieved_qps\"",
        "\"p99_latency_ns\"",
        "\"batch_hist\"",
        "\"policy\": \"shed-oldest\"",
    ] {
        assert!(text.contains(field), "missing {field}: {text}");
    }
    let a = std::fs::read(&paths[0].1).expect("metrics a");
    let b = std::fs::read(&paths[1].1).expect("metrics b");
    assert!(a == b, "same-seed serve --metrics must be byte-identical");
    // The scheduler counters made it into the engine snapshot.
    let text = String::from_utf8(a).expect("utf8 json");
    assert!(text.contains("\"sched\""), "{text}");
    assert!(text.contains("\"trigger_size\""), "{text}");
    for (json, metrics) in &paths {
        std::fs::remove_file(json).ok();
        std::fs::remove_file(metrics).ok();
    }
}

#[test]
fn stats_rejects_snapshots_from_other_schema_versions() {
    // Regression: `stats` used to print whatever parsed, silently
    // misreading snapshots written by older/newer binaries.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics-doctored.json");
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--metrics"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("snapshot");
    assert!(text.contains("\"schema_version\": 6"), "{text}");
    let doctored = text.replace("\"schema_version\": 6", "\"schema_version\": 1");
    std::fs::write(&path, doctored).expect("doctor snapshot");
    let out = updlrm()
        .arg("stats")
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("stats");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("schema v1"), "stderr: {err}");
    assert!(err.contains("reads v6"), "stderr: {err}");

    // Regression: the version was compared only after the typed decode,
    // so a real older snapshot — one that lacks a field — died on
    // "missing field" (exit 1), and so did anything unreadable. Each
    // case now exits 2 with a message that names the file.
    let stats = |text: Option<&str>| {
        match text {
            Some(text) => std::fs::write(&path, text).expect("write snapshot"),
            None => std::fs::remove_file(&path).expect("remove snapshot"),
        }
        let out = updlrm()
            .arg("stats")
            .arg("--metrics")
            .arg(&path)
            .output()
            .expect("stats");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "stderr: {err}");
        assert!(err.contains("metrics-doctored.json"), "stderr: {err}");
        err
    };
    let older = text
        .replace("\"schema_version\": 6", "\"schema_version\": 4")
        .replace("  \"enabled\": true,\n", "");
    assert_ne!(older.len(), text.len(), "a field was removed");
    let err = stats(Some(&older));
    assert!(err.contains("schema v4"), "stderr: {err}");
    assert!(err.contains("reads v6"), "stderr: {err}");
    let err = stats(Some(&text.replace("  \"enabled\": true,\n", "")));
    assert!(err.contains("invalid metrics snapshot"), "stderr: {err}");
    let err = stats(Some("[]"));
    assert!(err.contains("invalid metrics snapshot"), "stderr: {err}");
    let err = stats(None);
    assert!(
        err.contains("cannot read metrics snapshot"),
        "stderr: {err}"
    );
}

#[test]
fn trace_with_arrivals_emits_a_v2_file_that_round_trips() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cli-trace-arrivals.upwl");
    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "movie",
            "--scale",
            "2000",
            "--batches",
            "2",
            "--arrival",
            "bursty",
            "--qps",
            "250000",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bursty arrivals at 250000 qps"));
    let mut f = std::fs::File::open(&path).expect("trace file written");
    let loaded = updlrm::workloads::Workload::load(&mut f).expect("valid UPWL v3 file");
    assert_eq!(loaded.arrivals.len(), loaded.num_queries());
    assert_eq!(loaded.arrivals.process.tag(), "bursty");

    // --arrival without --qps is an error, not a silent default rate.
    let out = updlrm()
        .args(["trace", "--arrival", "poisson", "--out", "/tmp/never.upwl"])
        .output()
        .expect("trace");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--qps"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_arguments_exit_nonzero() {
    let out = updlrm()
        .args(["run", "--dataset", "nope"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let out = updlrm().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let out = updlrm().output().expect("run");
    assert!(!out.status.success());
}

/// Flags that regenerate `tests/golden/placement_plan.json` exactly.
const GOLDEN_PLAN_FLAGS: [&str; 21] = [
    "plan",
    "--dataset",
    "read",
    "--scale",
    "5000",
    "--tables",
    "2",
    "--batches",
    "2",
    "--seed",
    "7",
    "--ranks",
    "2",
    "--dpus-per-rank",
    "4",
    "--emt-kb",
    "24",
    "--host-kb",
    "12",
    "--replicate-top",
    "24",
];

#[test]
fn plan_generation_is_deterministic_and_inspectable() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("plan-a.json");
    let b = dir.join("plan-b.json");
    for path in [&a, &b] {
        let out = updlrm()
            .args(GOLDEN_PLAN_FLAGS)
            .arg("--out")
            .arg(path)
            .output()
            .expect("plan");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("fleet: 2 ranks x 4 DPUs"), "stdout: {text}");
        assert!(text.contains("tiers:"), "stdout: {text}");
        assert!(text.contains("estimate: tiered"), "stdout: {text}");
    }
    let first = std::fs::read(&a).expect("plan a");
    let second = std::fs::read(&b).expect("plan b");
    assert!(
        first == second,
        "same-flag placement plans must be byte-identical"
    );
    // Inspect mode reads the plan back and re-prints the same summary.
    let out = updlrm()
        .args(["plan", "--load"])
        .arg(&a)
        .output()
        .expect("plan --load");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schema v2, planner seed 7"), "stdout: {text}");
    assert!(text.contains("rank balance"), "stdout: {text}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

/// `plan` with the golden flags, `flag`'s value replaced by `value`.
fn plan_with(flag: &str, value: &str) -> std::process::Output {
    let mut args = GOLDEN_PLAN_FLAGS.to_vec();
    let at = args.iter().position(|a| *a == flag).expect("a golden flag") + 1;
    args[at] = value;
    let out = std::env::temp_dir()
        .join("updlrm-cli-test")
        .join("never-written.json");
    updlrm()
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("plan")
}

#[test]
fn plan_rejects_an_emt_budget_that_overflows_bytes() {
    // Wrapped, 2^54 KB came out at 0 bytes and the planner reported
    // "capacity exceeded ... only 0 available".
    let out = plan_with("--emt-kb", "18014398509481984");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--emt-kb"), "stderr {err}");
}

#[test]
fn plan_rejects_a_host_budget_that_overflows_bytes() {
    // Wrapped, this came out at 1024 bytes and a plan was written.
    let out = plan_with("--host-kb", "18014398509481985");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--host-kb"), "stderr {err}");
}

#[test]
fn golden_placement_plan_matches_checked_in_file() {
    // The golden plan locks the planner's full serialized output: any
    // intentional change must regenerate the file (same flags as
    // GOLDEN_PLAN_FLAGS) and show up in review as a diff.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plan-golden.json");
    let out = updlrm()
        .args(GOLDEN_PLAN_FLAGS)
        .arg("--out")
        .arg(&path)
        .output()
        .expect("plan");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read(&path).expect("regenerated plan");
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/placement_plan.json"
    ))
    .expect("checked-in golden plan");
    assert!(
        fresh == golden,
        "regenerated plan diverges from tests/golden/placement_plan.json; \
         if intentional, regenerate it with `updlrm {}` --out tests/golden/placement_plan.json",
        GOLDEN_PLAN_FLAGS[1..].join(" ")
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_and_run_reject_foreign_schema_versions() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plan-doctored.json");
    let out = updlrm()
        .args(GOLDEN_PLAN_FLAGS)
        .arg("--out")
        .arg(&path)
        .output()
        .expect("plan");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("plan");
    assert!(text.contains("\"schema_version\": 2"), "{text}");
    let doctored = text.replace("\"schema_version\": 2", "\"schema_version\": 99");
    std::fs::write(&path, doctored).expect("doctor plan");
    for args in [
        vec!["plan", "--load"],
        vec!["run", "--dataset", "read", "--plan"],
    ] {
        let out = updlrm().args(&args).arg(&path).output().expect("doctored");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("schema v99"), "stderr: {err}");
        assert!(err.contains("reads v2"), "stderr: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_time_constants_the_modeled_clock_cannot_hold_are_refused() {
    // Trusted unchecked, a rank setup of -1e9 ns printed a negative
    // wall, one of 1e300 ns a 300-digit wall, and a rank launch of
    // -1e12 ns a -138,426,410x overlap.
    let golden = std::fs::read_to_string("tests/golden/placement_plan.json").expect("golden");
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plan-bad-times.json");
    for (field, value, wrong) in [
        ("rank_base_ns", "1500.0", "-1e9"),
        ("rank_base_ns", "1500.0", "1e300"),
        ("rank_launch_ns", "500.0", "-1e12"),
        ("clock_hz", "350000000", "0"),
        ("ragged_bw_factor", "0.6", "0.0"),
        ("host_probe_ns", "2.0", "-2.0"),
    ] {
        let from = format!("\"{field}\": {value}");
        assert!(golden.contains(&from), "{from}");
        let doctored = golden.replace(&from, &format!("\"{field}\": {wrong}"));
        std::fs::write(&path, doctored).expect("doctor plan");
        for args in [
            vec!["plan", "--load"],
            vec!["run", "--dataset", "read", "--plan"],
        ] {
            let out = updlrm().args(&args).arg(&path).output().expect("doctored");
            assert_eq!(out.status.code(), Some(2), "{field} = {wrong}: {args:?}");
            assert!(out.stdout.is_empty(), "{field} = {wrong}: nothing may run");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(field), "{field} = {wrong}: stderr {err}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_with_plan_serves_the_tiered_engine() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan_path = dir.join("plan-run.json");
    let json_path = dir.join("plan-run-report.json");
    let metrics_path = dir.join("plan-run-metrics.json");
    let out = updlrm()
        .args(GOLDEN_PLAN_FLAGS)
        .arg("--out")
        .arg(&plan_path)
        .output()
        .expect("plan");
    assert!(out.status.success());
    let out = updlrm()
        .args(["run", "--dataset", "read", "--plan"])
        .arg(&plan_path)
        .arg("--json")
        .arg(&json_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("run --plan");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UpDLRM (tiered plan)"), "stdout: {text}");
    assert!(text.contains("tier routing:"), "stdout: {text}");
    assert!(text.contains("host hits"), "stdout: {text}");
    let json = std::fs::read_to_string(&json_path).expect("report json");
    assert!(json.contains("\"strategy\": \"plan\""), "{json}");
    assert!(json.contains("\"dpus\": 6"), "{json}");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics");
    assert!(metrics.contains("\"per_dpu\""), "{metrics}");
    // The plan is an input to the one engine, so the serving flags apply
    // to it like to any other run (they used to be dropped or refused).
    let out = updlrm()
        .args(["run", "--dataset", "read", "--plan"])
        .arg(&plan_path)
        .args(["--embed-dtype", "int8", "--json"])
        .arg(&json_path)
        .output()
        .expect("run --plan --embed-dtype int8");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("double-buffered"), "stdout: {text}");
    let json = std::fs::read_to_string(&json_path).expect("report json");
    assert!(json.contains("\"strategy\": \"plan\""), "{json}");
    assert!(json.contains("\"speedup_vs_sequential\""), "{json}");
    assert!(!json.contains("\"serve\": null"), "{json}");
    // A tiered backend other than updlrm is a contradiction: exit 2.
    let out = updlrm()
        .args(["run", "--dataset", "read", "--backend", "cpu", "--plan"])
        .arg(&plan_path)
        .output()
        .expect("run --plan with a contradicting flag");
    assert_eq!(out.status.code(), Some(2));
    for p in [&plan_path, &json_path, &metrics_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn run_with_a_plan_refuses_the_flags_the_plan_fixes() {
    // The plan carries the fleet, the tiling, the placement and the
    // trace's provenance, so these flags could change nothing under
    // --plan: each is refused, naming it.
    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/placement_plan.json"
    );
    for (flag, value) in [
        ("--dpus", "8"),
        ("--nc", "3"),
        ("--strategy", "u"),
        ("--scale", "500"),
        ("--batches", "3"),
        ("--seed", "9"),
    ] {
        let out = updlrm()
            .args(["run", "--dataset", "read", "--plan", plan, flag, value])
            .output()
            .expect("run --plan");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr {err}");
        assert!(out.stdout.is_empty(), "{flag} must not run anything");
        assert!(
            err.contains(flag) && err.contains("updlrm run --plan"),
            "{flag}: stderr {err}"
        );
    }
}

#[test]
fn golden_plan_run_snapshot_matches_checked_in_file() {
    // Recorded with the pre-merge tiered engine: the only artifact that
    // pins a plan-built engine's modeled per-stage, per-DPU numbers.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plan-run-golden.json");
    let out = updlrm()
        .args(["run", "--dataset", "read", "--plan"])
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/placement_plan.json"
        ))
        .args(["--metrics"])
        .arg(&path)
        .output()
        .expect("run --plan");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("tier routing: 12005 host hits, 51470 PIM lookups"),
        "stdout: {text}"
    );
    let fresh = std::fs::read(&path).expect("regenerated snapshot");
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/plan_run_snapshot.json"
    ))
    .expect("checked-in golden snapshot");
    assert!(
        fresh == golden,
        "plan-run snapshot diverges from tests/golden/plan_run_snapshot.json; if intentional, \
         regenerate it with `updlrm run --dataset read --plan tests/golden/placement_plan.json \
         --metrics tests/golden/plan_run_snapshot.json`"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_then_serve_replans_a_v3_workload() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("drift.upwl");
    let snap_path = dir.join("drift_snap.json");

    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "read",
            "--scale",
            "5000",
            "--batches",
            "4",
            "--qps",
            "10000",
            "--rotate",
            "4:64:2000:0.8",
        ])
        .arg("--out")
        .arg(&trace_path)
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("UPWL v3, drifting"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = updlrm()
        .args([
            "serve",
            "--max-batch",
            "32",
            "--dpus",
            "128",
            "--strategy",
            "u",
            "--replan",
            "periodic:8",
        ])
        .arg("--workload-v3")
        .arg(&trace_path)
        .arg("--drift-snapshot")
        .arg(&snap_path)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replan [periodic:8]"), "stdout: {text}");
    let snap = std::fs::read_to_string(&snap_path).expect("drift snapshot");
    assert!(snap.contains("\"replans_triggered\": 1"), "{snap}");
    assert!(snap.contains("\"migrations_completed\": 0"), "{snap}");
    for p in [&trace_path, &snap_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn serve_rejects_doctored_v3_with_out_of_range_hot_sets() {
    use updlrm::prelude::*;

    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("doctored.upwl");

    // A structurally valid v3 file whose drift schedule points its hot
    // sets far beyond the table: save() writes it (no exit path there),
    // the loader must reject it, and the CLI must surface exit 2.
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_batches: 1,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(ArrivalProcess::poisson(10_000.0, 7));
    workload.drift = Some(DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 64,
            set_size: 1 << 20,
            period_ns: 1_000_000,
            hot_fraction: 0.5,
        }),
        spikes: Vec::new(),
        diurnal: None,
    });
    let mut file = std::fs::File::create(&path).expect("create");
    workload.save(&mut file).expect("save");
    drop(file);

    let out = updlrm()
        .args(["serve", "--dpus", "128"])
        .arg("--workload-v3")
        .arg(&path)
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2), "doctored v3 must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rows"), "stderr: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_rejects_a_count_that_lies_about_the_file() {
    // Regression: 150 bytes — a valid v3 header, one batch announced,
    // its dense vector 1 << 60 floats long — used to abort the process
    // (SIGABRT, "memory allocation of … bytes failed") inside the loader.
    let mut bytes = b"UPWL".to_vec();
    bytes.extend(3u32.to_le_bytes());
    for text in ["m", "m"] {
        bytes.extend(1u32.to_le_bytes());
        bytes.extend(text.as_bytes());
    }
    bytes.extend(1u32.to_le_bytes()); // hotness: medium
    for spec in [
        40.0f64.to_bits(),
        1000,
        0.9f64.to_bits(),
        4,
        0.5f64.to_bits(),
        0.5f64.to_bits(),
    ] {
        bytes.extend(spec.to_le_bytes());
    }
    for config in [8u64, 32, 1, 13, 7] {
        bytes.extend(config.to_le_bytes());
    }
    bytes.extend(0u32.to_le_bytes()); // closed loop,
    bytes.extend(0u64.to_le_bytes()); // no arrival stamps
    for empty in [0u32, 0, 0] {
        bytes.extend(empty.to_le_bytes()); // no rotation, spikes or diurnal curve
    }
    bytes.extend(1u64.to_le_bytes()); // one batch
    bytes.extend((1u64 << 60).to_le_bytes()); // of 2^60 dense values
    assert_eq!(bytes.len(), 150);

    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("huge.upwl");
    std::fs::write(&path, bytes).expect("write");
    let out = updlrm()
        .args(["serve", "--max-batch", "32", "--dpus", "8"])
        .arg("--workload-v3")
        .arg(&path)
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2), "a lying count must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("huge.upwl"), "stderr: {err}");
    // The file must get past the version check to reach the count.
    assert!(!err.contains("version"), "stderr: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn scale_zero_is_rejected_by_every_subcommand_that_reads_it() {
    // `DatasetSpec::scaled_down(0)` means full scale: `trace --scale 0`
    // wrote 2,360,650 items per table.
    let out_path = std::env::temp_dir()
        .join("updlrm-cli-test")
        .join("scale-zero-never-written");
    let out_path = out_path.to_str().expect("utf-8 temp path");
    for args in [
        &["run", "--batches", "1"][..],
        &["plan", "--out", out_path],
        &["serve", "--qps", "1000", "--batches", "1"],
        &["trace", "--batches", "1", "--out", out_path],
    ] {
        let out = updlrm()
            .args(args)
            .args(["--scale", "0"])
            .output()
            .expect("updlrm");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {err}");
        assert!(
            err.contains("--scale must be >= 1"),
            "{args:?}: stderr {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(!std::path::Path::new(out_path).exists(), "{args:?} wrote");
    }
}

#[test]
fn tables_are_generated_never_loaded() {
    // There is no packed-table file: `pack` is no subcommand and `run`
    // reads no `--tables`. Both exit 2 and write nothing.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("never-packed.uptb");
    let path = path.to_str().expect("utf-8 temp path");
    for args in [
        &["pack", "--out", path][..],
        &["run", "--scale", "5000", "--batches", "1", "--tables", path],
    ] {
        let out = updlrm().args(args).output().expect("updlrm");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(!std::path::Path::new(path).exists(), "{args:?} wrote");
    }
}

#[test]
fn a_malformed_nc_exits_2_naming_the_flag() {
    // Like every numeric flag, a malformed `--nc` is a usage error that
    // names the flag, not a run error ("invalid digit found in string").
    for nc in ["x", "-1"] {
        let out = updlrm()
            .args(QUICK_RUN)
            .args(["--nc", nc])
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--nc {nc}: stderr {err}");
        assert!(err.contains("--nc expects"), "--nc {nc}: stderr {err}");
        assert!(out.stdout.is_empty(), "--nc {nc}: nothing may run");
    }
}

#[test]
fn an_infeasible_tiling_exits_2_naming_dpus_and_nc() {
    // 64 DPUs over 8 tables leave 8 per table: no N_c of 0, 3 or 64
    // tiles a 32-wide table on them, and 8 DPUs leave one per table,
    // which no column count fits. Both are choices of the command line.
    for (args, named) in [
        (
            &["--scale", "5000", "--dpus", "64", "--nc", "0"][..],
            "--dpus 64 with --nc 0: ",
        ),
        (
            &["--scale", "5000", "--dpus", "64", "--nc", "3"],
            "--dpus 64 with --nc 3: ",
        ),
        (
            &["--scale", "5000", "--dpus", "64", "--nc", "64"],
            "--dpus 64 with --nc 64: ",
        ),
        (&["--dpus", "8"], "--dpus 8: "),
    ] {
        let out = updlrm()
            .args(["run", "--batches", "1"])
            .args(args)
            .output()
            .expect("run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {err}");
        assert!(err.starts_with(named), "{args:?}: stderr {err}");
        assert!(err.contains("no feasible tiling"), "{args:?}: stderr {err}");
    }
}

#[test]
fn drift_flags_refuse_fields_they_used_to_coerce() {
    // A field is refused, not cast: 4.7 sets is not 4, a negative start
    // is not 0, set 1.9 is not set 1, and 1e30 us does not saturate.
    let out_path = std::env::temp_dir()
        .join("updlrm-cli-test")
        .join("coerced-drift-never-written.upwl");
    let out_path = out_path.to_str().expect("utf-8 temp path");
    for (drift, flag, field) in [
        (&["--rotate", "4.7:100:100:0.5"][..], "--rotate", "SETS"),
        (
            &["--rotate", "4:100:100:0.5", "--spike", "-10:5:0:0.5:2"],
            "--spike",
            "START_US",
        ),
        (
            &["--rotate", "4:100:100:0.5", "--spike", "10:5:1.9:0.5:2"],
            "--spike",
            "SET",
        ),
        (&["--rotate", "4:100:1e30:0.5"], "--rotate", "PERIOD_US"),
    ] {
        let out = updlrm()
            .args(["trace", "--scale", "5000", "--batches", "1"])
            .args(["--qps", "1000"])
            .args(drift)
            .args(["--out", out_path])
            .output()
            .expect("trace");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{drift:?}: stderr {err}");
        assert!(
            err.contains(&format!("{flag}: {field} ")),
            "{drift:?}: stderr {err}"
        );
        assert!(!std::path::Path::new(out_path).exists(), "{drift:?} wrote");
    }
}

#[test]
fn serve_replan_flag_is_validated() {
    // Unknown policy spelling, and the deleted load-imbalance trigger:
    // exit 2, listing the policies there are.
    for policy in ["sometimes", "imbalance:2.0"] {
        let out = updlrm()
            .args(["serve", "--qps", "1000", "--replan", policy])
            .output()
            .expect("serve");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{policy}: stderr {err}");
        assert!(
            err.contains("'off'") && err.contains("'periodic:N'"),
            "{policy}: stderr {err}"
        );
        assert!(out.stdout.is_empty(), "{policy}: nothing may run");
    }
    // A drift snapshot without a replanner can never exist.
    let out = updlrm()
        .args([
            "serve",
            "--qps",
            "1000",
            "--drift-snapshot",
            "/tmp/nope.json",
        ])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
}

/// Runs `serve` with `args` plus `--metrics`, returning stdout and the
/// parsed snapshot.
fn serve_with_metrics(
    args: &[&str],
    extra: &[&str],
    tag: &str,
) -> (String, updlrm::prelude::Snapshot) {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join(format!("{tag}-metrics.json"));
    let out = updlrm()
        .args(args)
        .args(extra)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "{tag} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_file(&metrics).ok();
    let snapshot = serde::json::from_str(&text).expect("parse snapshot");
    (String::from_utf8_lossy(&out.stdout).into_owned(), snapshot)
}

const WALL_LOCKED: [&str; 3] = ["--runtime", "wall", "--deterministic"];

#[test]
fn serve_wall_deterministic_records_the_modeled_sched_telemetry() {
    // Regression: the wall runtime's batcher kept its own copy of the
    // admission accounting that recorded no telemetry, so an
    // oracle-locked wall run wrote an all-zero "sched" block.
    let args: Vec<&str> = QUICK_SERVE
        .iter()
        .copied()
        .chain(["--seed", "7", "--arrival", "bursty"])
        .chain(["--max-batch", "32", "--queue-cap", "48"])
        .collect();
    let (_, modeled) = serve_with_metrics(&args, &[], "sched-modeled");
    let (text, wall) = serve_with_metrics(&args, &WALL_LOCKED, "sched-wall");
    assert!(text.contains("oracle lock: OK"), "stdout: {text}");
    // Batches overlap on the engine's depth-2 pipeline: the burst sheds
    // 80 of the 192 it admits.
    assert_eq!(modeled.sched.admitted, 192, "{:?}", modeled.sched);
    assert_eq!(modeled.sched.shed_oldest, 80, "{:?}", modeled.sched);
    assert_eq!(wall.sched, modeled.sched);
}

#[test]
fn serve_wall_replans_like_the_modeled_scheduler() {
    // The CI drift trace: the wall runtime's workers tick their engine
    // at every launch instant, with the batcher's counts so far, so an
    // oracle-locked run migrates exactly as the modeled scheduler does
    // and writes the same mid-migration snapshot, `sched` block too.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("drift-wall.upwl");
    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "read",
            "--scale",
            "5000",
            "--batches",
            "6",
            "--seed",
            "7",
            "--qps",
            "10000",
            "--rotate",
            "4:64:2000:0.8",
            "--out",
        ])
        .arg(&trace_path)
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = trace_path.to_str().expect("utf8 temp path");
    let args = [
        "serve",
        "--workload-v3",
        trace,
        "--max-batch",
        "32",
        "--dpus",
        "128",
        "--strategy",
        "u",
        "--replan",
        "periodic:8",
    ];
    let snapshot_modeled = dir.join("drift-modeled.json");
    let snapshot_wall = dir.join("drift-wall.json");
    let drift_flag = |path: &std::path::Path| {
        let path = path.to_str().expect("utf8 temp path").to_string();
        ["--drift-snapshot".to_string(), path]
    };
    let modeled_extra = drift_flag(&snapshot_modeled);
    let modeled_extra: Vec<&str> = modeled_extra.iter().map(String::as_str).collect();
    let wall_extra = drift_flag(&snapshot_wall);
    let wall_extra: Vec<&str> = WALL_LOCKED
        .iter()
        .copied()
        .chain(wall_extra.iter().map(String::as_str))
        .collect();
    let (_, modeled) = serve_with_metrics(&args, &modeled_extra, "replan-modeled");
    let (text, wall) = serve_with_metrics(&args, &wall_extra, "replan-wall");
    std::fs::remove_file(&trace_path).ok();
    assert!(text.contains("oracle lock: OK"), "stdout: {text}");
    assert!(text.contains("replan [periodic:8]"), "stdout: {text}");
    assert!(
        modeled.drift.migrations_completed > 0,
        "{:?}",
        modeled.drift
    );
    assert_eq!(wall.drift, modeled.drift);
    let read = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).expect("drift snapshot written");
        std::fs::remove_file(path).ok();
        text
    };
    let (modeled_snap, wall_snap) = (read(&snapshot_modeled), read(&snapshot_wall));
    let parsed: updlrm::prelude::Snapshot =
        serde::json::from_str(&modeled_snap).expect("parse drift snapshot");
    assert!(parsed.sched.batches > 0, "{:?}", parsed.sched);
    assert_eq!(wall_snap, modeled_snap, "the two fronts' drift snapshots");
}

fn tenants_toml() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/tenants.toml")
}

#[test]
fn serve_tenants_runs_the_example_fleet() {
    let out = updlrm()
        .args(["serve", "--tenants"])
        .arg(tenants_toml())
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("search"), "stdout: {text}");
    assert!(text.contains("ads"), "stdout: {text}");
    assert!(text.contains("drr"), "stdout: {text}");
    assert!(text.contains("p99"), "stdout: {text}");
}

#[test]
fn serve_tenants_json_is_deterministic() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("tenants-a.json");
    let b = dir.join("tenants-b.json");
    for path in [&a, &b] {
        let out = updlrm()
            .args(["serve", "--tenants"])
            .arg(tenants_toml())
            .arg("--json")
            .arg(path)
            .output()
            .expect("serve");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let ja = std::fs::read_to_string(&a).expect("read a");
    let jb = std::fs::read_to_string(&b).expect("read b");
    assert_eq!(ja, jb, "same tenants file must serialize byte-identically");
    let report: updlrm::prelude::FleetReport =
        serde::json::from_str(&ja).expect("parse fleet report");
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.tenants[0].name, "search");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn serve_tenants_rejects_incompatible_flags() {
    // Single-tenant workload flags cannot combine with a tenants file.
    for extra in [
        ["--qps", "1000"],
        ["--replan", "periodic:4"],
        ["--runtime", "wall"],
        ["--dataset", "movie"],
    ] {
        let out = updlrm()
            .args(["serve", "--tenants"])
            .arg(tenants_toml())
            .args(extra)
            .output()
            .expect("serve");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{extra:?} should be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // --no-isolation only makes sense with --tenants.
    let out = updlrm()
        .args(["serve", "--qps", "1000", "--no-isolation"])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn tenant_fleet_sizes_that_cannot_hold_the_tables_exit_2_naming_their_source() {
    // Each tenant engine spreads its 2 tables over the whole fleet: 2
    // DPUs leave one per table, which no tiling fits, and 3 do not
    // divide into 2 groups. Either is an input error, not a runtime one.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let odd = dir.join("odd-fleet-tenants.toml");
    let example = std::fs::read_to_string(tenants_toml()).expect("example");
    assert!(example.contains("dpus = 16\n"));
    std::fs::write(&odd, example.replace("dpus = 16\n", "dpus = 3\n")).expect("write");
    let odd_path = odd.to_str().expect("utf-8 path").to_string();
    let example_path = tenants_toml().to_str().expect("utf-8 path").to_string();
    for (args, named, why) in [
        (
            vec!["serve", "--tenants", &example_path, "--dpus", "2"],
            "--dpus 2".to_string(),
            "no feasible tiling",
        ),
        (
            vec!["serve", "--tenants", &example_path, "--dpus", "3"],
            "--dpus 3".to_string(),
            "not divisible",
        ),
        (
            vec!["serve", "--tenants", &odd_path],
            format!("--tenants {odd_path}"),
            "not divisible",
        ),
        (
            vec![
                "capacity",
                "--tenants",
                &example_path,
                "--min-dpus",
                "1",
                "--max-dpus",
                "4",
            ],
            "--min-dpus 1".to_string(),
            "not divisible",
        ),
        (
            vec!["capacity", "--tenants", &example_path, "--max-dpus", "13"],
            "--max-dpus 13".to_string(),
            "not divisible",
        ),
    ] {
        let out = updlrm().args(&args).output().expect("updlrm");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert!(
            err.contains(&named) && err.contains(why),
            "{args:?}: stderr {err}"
        );
    }
    std::fs::remove_file(&odd).ok();
}

#[test]
fn serve_tenants_rejects_bad_toml() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad-tenants.toml");
    std::fs::write(&path, "[fleet]\ndpus = 16\nwibble = 3\n").expect("write");
    let out = updlrm()
        .args(["serve", "--tenants"])
        .arg(&path)
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("wibble"), "stderr should name the key: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn capacity_sweeps_fleet_sizes() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("capacity.json");
    let out = updlrm()
        .args(["capacity", "--tenants"])
        .arg(tenants_toml())
        .args(["--min-dpus", "8", "--max-dpus", "16", "--json"])
        .arg(&json)
        .output()
        .expect("capacity");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("16 DPUs"), "stdout: {text}");
    assert!(
        text.contains("smallest swept fleet meeting every SLO: 16 DPUs"),
        "stdout: {text}"
    );
    let text = std::fs::read_to_string(&json).expect("read json");
    let points: Vec<updlrm::prelude::CapacityPoint> =
        serde::json::from_str(&text).expect("parse capacity points");
    assert_eq!(points.len(), 2);
    assert!(!points[0].all_slos_met, "8 DPUs should miss the SLO");
    assert!(points[1].all_slos_met, "16 DPUs should meet the SLO");
    std::fs::remove_file(&json).ok();

    // Without a tenants file the command cannot run.
    let out = updlrm().arg("capacity").output().expect("capacity");
    assert_eq!(out.status.code(), Some(2));
}
