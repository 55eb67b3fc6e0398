//! Two-clock benchmark of the UpDLRM reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! builds the workload's inputs from the seed, runs it through the
//! repository's public API, verifies the outputs against a private
//! oracle, prints every metric as `name value unit`, and ends with one
//! JSON object on the last line of standard output. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` is the
//! separate traced run with the per-layer metrics. See `README.md`.

mod drive;
mod harness;
mod layers;
mod names;
mod reference;
mod shapes;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use updlrm::prelude::simd;

use crate::harness::{RunResult, MIN_PAIRS};
use crate::names::{MetricDef, END_TO_END};
use crate::shapes::{Shape, SHAPES};
use crate::spans::escape;

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 2.0;

const USAGE: &str = "usage: updlrm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       updlrm-benchmark --repeat-check [--seed N] [--seconds S]
       updlrm-benchmark --smoke [--seed N]
workloads: pool_heavy pool_int8 route_heavy open_loop drift_replan wall_rt";

#[derive(Debug, PartialEq)]
enum Mode {
    One { workload: String, trace: bool },
    RepeatCheck,
    Smoke,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let (mut repeat_check, mut smoke) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("--seed {v}: not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--repeat-check" => repeat_check = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = match (repeat_check, smoke, workload) {
        (true, false, None) => Mode::RepeatCheck,
        (false, true, None) => Mode::Smoke,
        (false, false, Some(workload)) => Mode::One { workload, trace },
        _ => return Err("pick one of --workload NAME, --repeat-check, --smoke".to_string()),
    };
    let seconds = seconds.unwrap_or(if mode == Mode::Smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// What the numbers were measured on. Host metrics only compare across
/// runs with the same fingerprint.
fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("simd_tier", simd::tier_name().to_string()),
        ("rustc", rustc),
        (
            "UPDLRM_FORCE_SCALAR",
            std::env::var("UPDLRM_FORCE_SCALAR").unwrap_or_else(|_| "unset".to_string()),
        ),
        ("seed", seed.to_string()),
    ]
}

/// The one-line JSON object that ends a run's standard output.
fn result_json(r: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, (def, value)) in r.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(def.name),
            value,
            escape(def.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Runs one workload in this process and prints its report.
fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let shape = Shape::by_name(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let print = fingerprint(seed);
    let nproc: usize = print[0].1.parse().unwrap_or(1);
    let need = shape.threads_needed();
    if need > nproc {
        return Err(format!(
            "{name} keeps {need} threads busy but only {nproc} are available; refusing to start"
        ));
    }
    println!(
        "workload {name} trace {} seconds {seconds}",
        u8::from(trace)
    );
    for (k, v) in &print {
        println!("fingerprint {k} {v}");
    }
    let result = if trace {
        harness::run_traced(shape, seed, seconds, &print)?
    } else {
        harness::run_end_to_end(shape, seed, seconds)?
    };
    for note in &result.notes {
        println!("note {note}");
    }
    for (def, value) in &result.metrics {
        println!("{} {} {}", def.name, value, def.unit);
    }
    println!("{}", result_json(&result));
    Ok(result.correct)
}

/// A child run's parsed result line.
#[derive(Debug, PartialEq)]
struct Parsed {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Parses the result line this program prints (and only that shape).
fn parse_result(line: &str) -> Option<Parsed> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for part in body.split("\"value\": ").skip(1) {
        let value: f64 = part[..part.find(',')?].trim().parse().ok()?;
        metrics.push(value);
    }
    let names: Vec<&str> = body
        .split("\": {\"value\"")
        .filter_map(|p| p.rsplit('"').next())
        .collect();
    (names.len() == metrics.len() + 1).then(|| Parsed {
        correct,
        metrics: names[..metrics.len()]
            .iter()
            .map(|n| n.to_string())
            .zip(metrics)
            .collect(),
    })
}

/// Runs one workload in a child process (peak RSS is per process, so
/// runs that are compared must not share one) and parses its result.
fn run_child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(parse_result)
        .ok_or_else(|| format!("{name} printed no result line"))
}

/// Whether two values of `def` from runs of the same code agree:
/// modeled metrics exactly, measured ones within the metric's bound.
fn agrees(def: &MetricDef, a: f64, b: f64) -> bool {
    let rule = def.rule.expect("end-to-end metrics carry a rule");
    if rule.exact_on_repeat {
        a == b
    } else {
        let (better, worse) = if rule.higher_is_better {
            (a.max(b), a.min(b))
        } else {
            (a.min(b), a.max(b))
        };
        (worse - better).abs() <= rule.bound * better.abs()
    }
}

/// `--repeat-check`: every workload twice with the same seed; each
/// end-to-end metric must agree with itself.
fn repeat_check(seed: u64, seconds: f64) -> Result<bool, String> {
    println!("workload metric first second bound verdict");
    let mut all_ok = true;
    for shape in &SHAPES {
        let a = run_child(shape.name, seed, seconds, false)?;
        let b = run_child(shape.name, seed, seconds, false)?;
        all_ok &= a.correct && b.correct;
        for def in END_TO_END {
            let get = |p: &Parsed| {
                p.metrics
                    .iter()
                    .find(|(n, _)| n == def.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{} printed no {}", shape.name, def.name))
            };
            let (va, vb) = (get(&a)?, get(&b)?);
            let rule = def.rule.expect("end-to-end metrics carry a rule");
            let ok = agrees(def, va, vb);
            all_ok &= ok;
            println!(
                "{} {} {va} {vb} {} {}",
                shape.name,
                def.name,
                if rule.exact_on_repeat {
                    "exact".to_string()
                } else {
                    format!("{}", rule.bound)
                },
                if ok { "ok" } else { "DISAGREES" }
            );
        }
    }
    Ok(all_ok)
}

/// `--smoke`: every workload, both trace modes, short timed phase; the
/// checks are enforced, the bounds are not.
fn smoke(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all_ok = true;
    for shape in &SHAPES {
        for trace in [false, true] {
            let r = run_child(shape.name, seed, seconds, trace)?;
            println!(
                "{} trace {} {} ({} metrics)",
                shape.name,
                u8::from(trace),
                if r.correct { "correct" } else { "INCORRECT" },
                r.metrics.len()
            );
            all_ok &= r.correct;
        }
    }
    Ok(all_ok)
}

/// Pins glibc's mmap threshold at its initial value. Left alone, the
/// threshold adapts to the sizes a process frees, so the second and
/// third cold build of a run sometimes reuse the first one's pages and
/// sometimes fault fresh ones in — `setup_s` of the cheap workloads
/// then flips between two values a factor of three apart. Pinned, every
/// build gets its large buffers from the kernel, like the first build
/// of a fresh process does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const INITIAL_MMAP_THRESHOLD: i32 = 128 * 1024;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain integers, touches only allocator parameters, and is called
    // here before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, INITIAL_MMAP_THRESHOLD) };
    if ok != 1 {
        eprintln!("warning: mallopt(M_MMAP_THRESHOLD) failed; setup_s may be bimodal");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.mode {
        Mode::One { workload, trace } => run_one(workload, args.seed, args.seconds, *trace),
        Mode::RepeatCheck => repeat_check(args.seed, args.seconds),
        Mode::Smoke => smoke(args.seed, args.seconds),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("checks failed (need at least {MIN_PAIRS} timed pairs and correct outputs)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload open_loop --seed 11 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                mode: Mode::One {
                    workload: "open_loop".into(),
                    trace: true
                },
                seed: 11,
                seconds: 10.0
            }
        );
        let d = args("--workload wall_rt").unwrap();
        assert_eq!((d.seed, d.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
        assert_eq!(args("--smoke").unwrap().seconds, SMOKE_SECONDS);
        assert_eq!(
            args("--repeat-check --seed 3").unwrap().mode,
            Mode::RepeatCheck
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload",
            "--workload a --trace 2",
            "--workload a --seed x",
            "--workload a --seconds 0",
            "--workload a --seconds nan",
            "--workload a --smoke",
            "--smoke --repeat-check",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.8127), (END_TO_END[1], 0.1234567890123)],
            notes: Vec::new(),
        };
        let line = result_json(&r);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(!line.contains('\n'));
        let p = parse_result(&line).unwrap();
        assert!(p.correct);
        assert_eq!(
            p.metrics,
            vec![
                ("setup_s".to_string(), 0.8127),
                ("host_rel_speed".to_string(), 0.1234567890123)
            ]
        );
        assert!(parse_result("not a result").is_none());
    }

    #[test]
    fn agreement_follows_direction_and_bound() {
        let by = |n: &str| END_TO_END.iter().find(|d| d.name == n).unwrap();
        let speed = by("host_rel_speed");
        let bound = speed.rule.unwrap().bound;
        assert!(agrees(speed, 1.0, 1.0 - 0.9 * bound));
        assert!(!agrees(speed, 1.0, 1.0 - 1.1 * bound));
        let modeled = by("modeled_ns_per_sample");
        assert!(agrees(modeled, 5.0, 5.0));
        assert!(!agrees(modeled, 5.0, 5.000001));
    }
}
