//! One benchmark run: build the inputs from the seed, set the system
//! up, verify a pass against the oracle, measure, and hand back the
//! metrics. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` is the separate traced run that yields the
//! per-layer metrics and the trace file.

use std::sync::Arc;
use std::time::Instant;

use updlrm::prelude::*;
use updlrm::scheduler::BatchPolicy;

use crate::drive::{BatchView, Observer, PassReport, Quiet, Runner};
use crate::layers::{self, Attributed, TransferRig};
use crate::names::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::reference::Reference;
use crate::shapes::{Drive, Inputs, Shape, DIM, LADDER_QPS, SLO_P99_NS, WALL_PACED_QPS};
use crate::spans::Tracer;
use crate::stats::{iqr_share, median, median_of, quartiles, sorted};

/// Cold builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewer timed pairs than this is not a measurement.
pub const MIN_PAIRS: usize = 10;
/// The timed phase runs for `--seconds`, and on until it holds
/// `MIN_PAIRS` pairs — but never longer than this multiple of
/// `--seconds`, after which the run is refused.
const MAX_OVERRUN: f64 = 6.0;
/// Closed-loop batches whose CTR output is compared with the model's
/// own forward pass.
const CTR_SAMPLED_BATCHES: usize = 2;
/// Shares of `--seconds` the traced run spends on its three budgeted
/// phases: traced/untraced pairs, telemetry on/off pairs, isolation
/// replays. The rest is left for the single-shot measurements
/// (`open_loop`'s ladder, `wall_rt`'s paced run).
const TRACED_PAIRS_SHARE: f64 = 0.4;
const TELEMETRY_SHARE: f64 = 0.15;
const REPLAY_SHARE: f64 = 0.25;
/// Replays the replay share is split over.
const REPLAY_SLOTS: f64 = 12.0;

/// What a finished run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable side notes (quartiles, ladder rows, trace path).
    pub notes: Vec<String>,
}

/// Observer of the verified pass: checks every pooled row against the
/// oracle, sums the modeled UpDLRM latency, and (closed loop, f32)
/// checks the CTR output of a few batches against `Dlrm::forward`.
struct Verify<'r> {
    reference: &'r Reference,
    model: Arc<Dlrm>,
    workload: &'r Workload,
    mem: CpuMemoryModel,
    flops_per_sample: u64,
    check_ctr: bool,
    record_formed: bool,
    failed: u64,
    errors: Vec<String>,
    /// Σ per batch of what `UpdlrmBackend::run_batch` reports: the
    /// embedding stages with host routing and combination, plus the
    /// dense layers on the host CPU.
    updlrm_ns: f64,
    formed: Vec<Vec<u32>>,
}

impl<'r> Verify<'r> {
    fn new(
        reference: &'r Reference,
        shape: &Shape,
        model: Arc<Dlrm>,
        workload: &'r Workload,
        record_formed: bool,
    ) -> Self {
        let flops_per_sample =
            model.bottom_mlp().flops_per_sample() + model.top_mlp().flops_per_sample();
        Verify {
            reference,
            model,
            workload,
            mem: shape.cpu_memory_model(),
            flops_per_sample,
            // Quantized rows pool to slightly different values, so the
            // CTR of an int8 engine is not `forward`'s bit-for-bit.
            check_ctr: shape.dtype == EmbedDtype::F32,
            record_formed,
            failed: 0,
            errors: Vec::new(),
            updlrm_ns: 0.0,
            formed: Vec::new(),
        }
    }
}

impl Observer for Verify<'_> {
    fn batch(&mut self, view: &BatchView<'_>) {
        self.failed += self
            .reference
            .verify_batch(view.ids.iter().map(|&i| i as usize), view.pooled);
        let flops = self.flops_per_sample * view.ids.len() as u64;
        self.updlrm_ns += view.breakdown.total_with_host_ns() + self.mem.mlp_ns(flops);
        if self.record_formed {
            self.formed.push(view.ids.to_vec());
        }
    }

    fn dense(&mut self, seq: usize, ctr: &[f32]) {
        if !self.check_ctr || seq >= CTR_SAMPLED_BATCHES {
            return;
        }
        match self.model.forward(&self.workload.batches[seq]) {
            Ok(want) => {
                let wrong = want.len().abs_diff(ctr.len())
                    + want
                        .iter()
                        .zip(ctr)
                        .filter(|(w, g)| w.to_bits() != g.to_bits())
                        .count();
                self.failed += wrong as u64;
            }
            Err(e) => self.errors.push(format!("reference forward failed: {e}")),
        }
    }
}

/// Observer of a traced pass: files `pass/batch` and `pass/dense`
/// spans from the sink. A batch span runs from the previous boundary to
/// the moment the batch's pooled embeddings reach the sink.
struct Traced<'t> {
    tracer: &'t mut Tracer,
    mark: u64,
}

impl Observer for Traced<'_> {
    fn batch(&mut self, _view: &BatchView<'_>) {
        let now = self.tracer.now_ns();
        self.tracer.leaf("pass/batch", self.mark, now);
        self.mark = now;
    }

    fn dense(&mut self, _seq: usize, _ctr: &[f32]) {
        let now = self.tracer.now_ns();
        self.tracer.leaf("pass/dense", self.mark, now);
        self.mark = now;
    }
}

/// The verified pass of a workload and what it established.
struct Verdict {
    report: PassReport,
    /// Inferences that failed verification or were shed/rejected.
    failed: u64,
    errors: Vec<String>,
    updlrm_ns: f64,
    formed: Vec<Vec<u32>>,
    /// Telemetry of the pass, when the engine recorded any.
    snapshot: Snapshot,
}

/// Runs the workload's trace once with every output checked. Modeled
/// quantities of this pass are the run's modeled metrics.
fn verified_pass(
    runner: &mut Runner<'_>,
    reference: &Reference,
    record_formed: bool,
) -> Result<Verdict, String> {
    let shape = runner.shape;
    let inputs = runner.inputs;
    let mut verify = Verify::new(
        reference,
        &shape,
        runner.model.clone(),
        &inputs.workload,
        record_formed,
    );
    let mut errors = Vec::new();
    runner.engine_mut().reset_metrics();
    let mut snapshot = None;
    let report = match shape.drive {
        Drive::Wall => {
            // Oracle lock first: real threads on the modeled clock must
            // reproduce the event loop's report exactly.
            let det = runner.pass_runtime(&inputs.workload, true, &mut verify)?;
            snapshot = Some(runner.engine().metrics_snapshot());
            let oracle = runner.pass_sched(&inputs.workload, &mut Quiet)?;
            if det.sched != oracle.sched {
                errors.push("deterministic Runtime::run departed from Scheduler::run".to_string());
                verify.failed += det.requests;
            }
            det
        }
        Drive::Drift { .. } => {
            // The replanner's counters live in the telemetry registry,
            // so this one pass builds its engine with telemetry on.
            let was = runner.set_telemetry(true);
            let report = runner.pass(&mut verify);
            runner.set_telemetry(was);
            report?
        }
        _ => runner.pass(&mut verify)?,
    };
    let snapshot = snapshot.unwrap_or_else(|| runner.engine().metrics_snapshot());
    if let Drive::Drift { .. } = shape.drive {
        if snapshot.drift.migrations_completed == 0 {
            errors.push("drift_replan completed no migration".to_string());
        }
    }
    if report.completed + report.dropped != report.requests {
        errors.push(format!(
            "{} requests offered, {} completed, {} dropped",
            report.requests, report.completed, report.dropped
        ));
    }
    errors.append(&mut verify.errors);
    Ok(Verdict {
        failed: (verify.failed + report.dropped).min(report.requests),
        report,
        errors,
        updlrm_ns: verify.updlrm_ns,
        formed: verify.formed,
        snapshot,
    })
}

/// Modeled DLRM-CPU latency of the whole trace (ns). The CPU model is
/// additive over samples, so the batching does not matter.
fn cpu_modeled_ns(shape: &Shape, model: &Arc<Dlrm>, inputs: &Inputs) -> Result<f64, String> {
    let profiles = layers::profile(model, &inputs.workload);
    let cpu = DlrmCpu::new(model.clone(), &profiles, shape.cpu_memory_model())
        .map_err(|e| e.to_string())?;
    Ok(inputs
        .workload
        .batches
        .iter()
        .map(|b| cpu.embedding_ns(b) + cpu.dense_ns(b.batch_size()))
        .sum())
}

/// One timed system pass followed, one for one, by a reference pass.
struct Pair {
    sys_ns: f64,
    ref_ns: f64,
    report: PassReport,
}

fn timed_pair<O: Observer>(
    runner: &mut Runner<'_>,
    reference: &mut Reference,
    obs: &mut O,
) -> Result<Pair, String> {
    let inputs = runner.inputs;
    let t = Instant::now();
    let report = runner.pass(obs)?;
    let sys_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    reference.pass(&inputs.workload);
    let ref_ns = t.elapsed().as_nanos() as f64;
    Ok(Pair {
        sys_ns,
        ref_ns,
        report,
    })
}

/// The pairs of one timed phase and the checks every pass must hold.
#[derive(Default)]
struct Pairs {
    sys_ns: Vec<f64>,
    ref_ns: Vec<f64>,
    walls: Vec<WallStats>,
    attempted: u64,
    failed: u64,
}

impl Pairs {
    fn push(&mut self, pair: Pair) {
        self.sys_ns.push(pair.sys_ns);
        self.ref_ns.push(pair.ref_ns);
        self.tally(&pair.report);
        if let Some(w) = pair.report.wall {
            self.walls.push(w);
        }
    }

    /// Counts a pass whose timing is used elsewhere. Timed passes are
    /// not re-verified row by row; a pass that loses or drops a request
    /// still counts against the run.
    fn tally(&mut self, report: &PassReport) {
        self.attempted += report.requests;
        self.failed += report.requests - report.completed;
    }

    fn len(&self) -> usize {
        self.sys_ns.len()
    }

    /// `reference_ns / system_ns` per pair.
    fn rel_speeds(&self) -> Vec<f64> {
        self.ref_ns
            .iter()
            .zip(&self.sys_ns)
            .map(|(r, s)| r / s)
            .collect()
    }
}

/// Appends system/reference pairs to `pairs` for `seconds`, and on
/// until `min_pairs` were added; refuses when that takes more than
/// `MAX_OVERRUN` times the budget.
fn timed_phase(
    runner: &mut Runner<'_>,
    reference: &mut Reference,
    seconds: f64,
    min_pairs: usize,
    pairs: &mut Pairs,
) -> Result<(), String> {
    let before = pairs.len();
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let added = pairs.len() - before;
        if elapsed >= seconds && added >= min_pairs {
            return Ok(());
        }
        if elapsed >= seconds * MAX_OVERRUN {
            return Err(format!(
                "only {added} timed pairs in {elapsed:.1} s (need {min_pairs}); refusing to report"
            ));
        }
        pairs.push(timed_pair(runner, reference, &mut Quiet)?);
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `--trace 0`: every end-to-end metric, tracing off.
pub fn run_end_to_end(shape: Shape, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = shape.generate(seed);

    // Cold builds: tables and model, profile + mine + partition + MRAM
    // load, warm-up. Each starts from nothing and then feeds its share
    // of the timed phase, together with a reference built afresh: how
    // fast a build runs depends on where its memory happened to land,
    // so one run samples several placements on both sides of the ratio.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut pairs = Pairs::default();
    let mut first = None;
    let mut notes = Vec::new();
    for build in 0..SETUP_REPEATS {
        let t = Instant::now();
        let model = shape.model(seed);
        let mut engine = shape.build_engine(&model, &inputs, false);
        shape.warm_up(&mut engine, &inputs);
        setup_s.push(t.elapsed().as_secs_f64());

        let mut reference = Reference::new(
            &model,
            &inputs.workload,
            shape.dtype,
            shape.reference_sweeps,
        );
        let mut runner = Runner::new(shape, &inputs, model.clone(), engine);
        // One untimed full pass per build lets the drive's own scratch
        // (scheduler queues, runtime rings) reach its steady size; on
        // the first build it is the verified pass.
        if build == 0 {
            let verdict = verified_pass(&mut runner, &reference, false)?;
            first = Some((verdict, cpu_modeled_ns(&shape, &model, &inputs)?));
        } else {
            runner.pass(&mut Quiet)?;
        }
        let before = pairs.len();
        timed_phase(
            &mut runner,
            &mut reference,
            seconds / SETUP_REPEATS as f64,
            MIN_PAIRS.div_ceil(SETUP_REPEATS),
            &mut pairs,
        )?;
        notes.push(format!(
            "build {build}: setup {:.3} s, {} pairs, system pass {:.3} ms, reference pass {:.3} ms",
            setup_s[build],
            pairs.len() - before,
            median_of(&pairs.sys_ns[before..]) / 1e6,
            median_of(&pairs.ref_ns[before..]) / 1e6,
        ));
    }
    let (verdict, cpu_ns) = first.expect("at least one cold build ran");

    let rel = pairs.rel_speeds();
    notes.push(format!(
        "timed pairs {} rel_speed_iqr_pct {:.2}",
        pairs.len(),
        100.0 * iqr_share(&rel).unwrap_or(0.0),
    ));

    let completed = verdict.report.completed.max(1) as f64;
    let mut m = Metrics::default();
    m.set("setup_s", median_of(&setup_s));
    m.set("host_rel_speed", median_of(&rel));
    m.set(
        "modeled_ns_per_sample",
        verdict.report.modeled_ns / completed,
    );
    m.set("modeled_speedup_vs_cpu", cpu_ns / verdict.updlrm_ns);
    m.set("modeled_p50_us", verdict.report.p50_ns / 1e3);
    m.set("modeled_p99_us", verdict.report.p99_ns / 1e3);
    m.set("peak_rss_mb", peak_rss_mb()?);

    for e in &verdict.errors {
        notes.push(format!("error: {e}"));
    }
    let failed = verdict.failed + pairs.failed;
    Ok(RunResult {
        correct: failed == 0 && verdict.errors.is_empty(),
        attempted: verdict.report.requests + pairs.attempted,
        failed,
        metrics: m.finish(END_TO_END)?,
        notes,
    })
}

/// `--trace 1`: the traced run. Records spans around the benchmark's
/// own calls into each layer, derives every per-layer metric, and
/// writes `out/<workload>.trace.json`.
pub fn run_traced(
    shape: Shape,
    seed: u64,
    seconds: f64,
    fingerprint: &[(&str, String)],
) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let mut notes = Vec::new();

    // Set-up, one span per step. Profiling and mining happen inside
    // `from_workload`; they are replayed alone first so each gets its
    // own span, then the engine build is timed whole.
    let setup = tracer.begin("setup");
    let (inputs, generate_ns) = tracer.time("setup/generate", || shape.generate(seed));
    let (model, _) = tracer.time("setup/tables", || shape.model(seed));
    let fit = inputs.fit_trace();
    let (profiles, profile_ns) = tracer.time("setup/profile", || layers::profile(&model, fit));
    let (caches, mine_ns) = tracer.time("setup/mine", || {
        layers::mine(&shape, &model, fit, &profiles)
    });
    let (mut engine, build_ns) = tracer.time("setup/engine_build", || {
        shape.build_engine(&model, &inputs, false)
    });
    tracer.time("setup/warmup", || shape.warm_up(&mut engine, &inputs));
    tracer.end(setup);

    // A second engine with telemetry on: the exact counts, and the
    // "on" side of the telemetry-overhead pairs.
    let mut engine_on = shape.build_engine(&model, &inputs, true);
    shape.warm_up(&mut engine_on, &inputs);

    let mut reference = Reference::new(
        &model,
        &inputs.workload,
        shape.dtype,
        shape.reference_sweeps,
    );
    let cpu_ns = cpu_modeled_ns(&shape, &model, &inputs)?;
    let mut runner = Runner::new(shape, &inputs, model.clone(), engine);
    let mut runner_on = Runner::new(shape, &inputs, model.clone(), engine_on);

    let verdict = verified_pass(&mut runner_on, &reference, true)?;
    let snap = &verdict.snapshot;
    let requests = verdict.report.requests.max(1) as f64;
    let completed = verdict.report.completed.max(1) as f64;
    let lookups = inputs.workload.total_lookups().max(1) as f64;

    // Phase A: system/reference pairs, alternately untraced and traced.
    let mut untraced = Pairs::default();
    let mut traced = Pairs::default();
    let started = Instant::now();
    let budget = seconds * TRACED_PAIRS_SHARE;
    let mut pass_no = 0u32;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= budget && untraced.len() >= MIN_PAIRS / 2 {
            break;
        }
        if elapsed >= seconds * MAX_OVERRUN {
            return Err(format!(
                "only {} untraced pairs in {elapsed:.1} s; refusing to report",
                untraced.len()
            ));
        }
        untraced.push(timed_pair(&mut runner, &mut reference, &mut Quiet)?);

        pass_no += 1;
        tracer.set_pass(pass_no);
        let pass = tracer.begin("pass");
        let mut obs = Traced {
            mark: tracer.now_ns(),
            tracer: &mut tracer,
        };
        let report = runner.pass(&mut obs)?;
        let sys_ns = tracer.end(pass) as f64;
        let ((), ref_ns) = tracer.time("pass/reference", || reference.pass(&inputs.workload));
        tracer.set_pass(0);
        traced.push(Pair {
            sys_ns,
            ref_ns: ref_ns as f64,
            report,
        });
    }
    let pass_ns = median_of(&untraced.sys_ns);
    let rel_untraced = untraced.rel_speeds();
    let rel_traced = traced.rel_speeds();

    // Phase B: telemetry off/on system passes, interleaved, so the
    // overhead is a ratio within a pair and not a difference of windows.
    let mut on_over_off = Vec::new();
    let started = Instant::now();
    while on_over_off.len() < 3 || started.elapsed().as_secs_f64() < seconds * TELEMETRY_SHARE {
        let off = timed_pair(&mut runner, &mut reference, &mut Quiet)?;
        let on = timed_pair(&mut runner_on, &mut reference, &mut Quiet)?;
        // Normalizing each side by its own reference pass cancels a
        // speed change between the two passes of a pair.
        on_over_off.push((on.sys_ns / on.ref_ns) / (off.sys_ns / off.ref_ns));
        untraced.tally(&off.report);
        untraced.tally(&on.report);
    }

    // Isolation replays.
    let slot = seconds * REPLAY_SHARE / REPLAY_SLOTS;
    let workload = &inputs.workload;
    let mut attributed = Attributed::default();
    let mut m = Metrics::default();

    let cache_ns = if caches.is_empty() {
        0.0
    } else {
        layers::replay(
            &mut tracer,
            "replay/cooccur.lookup_ns_per_sample",
            slot,
            || layers::cache_lookups(&caches, workload),
        )
    };
    attributed.cache_lookup_ns = cache_ns;
    m.set("cooccur.lookup_ns_per_sample", cache_ns / requests);

    let n_c = runner.engine().table_report(0).tiling.n_c;
    let le = layers::le_tables(&model);
    let sum_rows_ns = layers::replay(
        &mut tracer,
        "replay/dlrm.sum_rows_ns_per_lookup",
        slot,
        || layers::sum_rows(&le, n_c, DIM, workload),
    );
    drop(le);
    m.set("dlrm.sum_rows_ns_per_lookup", sum_rows_ns / lookups);
    let dequant_ns = if shape.dtype == EmbedDtype::Int8 {
        let quant = layers::quant_tables(&model);
        layers::replay(
            &mut tracer,
            "replay/dlrm.dequant_ns_per_lookup",
            slot,
            || layers::dequant_rows(&quant, DIM, workload),
        )
    } else {
        0.0
    };
    m.set("dlrm.dequant_ns_per_lookup", dequant_ns / lookups);
    attributed.accumulate_ns = if shape.dtype == EmbedDtype::Int8 {
        dequant_ns
    } else {
        sum_rows_ns
    };

    let pooled = layers::oracle_pooled(&reference, workload);
    let dense_ns = layers::replay(&mut tracer, "replay/dlrm.dense_ns_per_sample", slot, || {
        layers::dense(&model, workload, &pooled)
    });
    drop(pooled);
    m.set("dlrm.dense_ns_per_sample", dense_ns / requests);
    if shape.drive == Drive::Closed {
        attributed.dense_ns = dense_ns;
    }

    let mut rig = TransferRig::new(
        snap.stage1_bytes,
        snap.stage3_bytes,
        verdict.report.batches as usize,
    );
    attributed.scatter_ns =
        layers::replay(&mut tracer, "replay/upmem.scatter_ns_per_kb", slot, || {
            rig.scatter_pass()
        });
    attributed.gather_ns =
        layers::replay(&mut tracer, "replay/upmem.gather_ns_per_kb", slot, || {
            rig.gather_pass()
        });
    // Each batch launches every table's kernel on its own DPU group;
    // together they cover the fleet once.
    attributed.launch_ns =
        layers::replay(&mut tracer, "replay/upmem.launch_ns_per_dpu", slot, || {
            rig.launch_pass()
        });
    m.set(
        "upmem.scatter_ns_per_kb",
        attributed.scatter_ns / rig.scatter_kb_per_pass(),
    );
    m.set(
        "upmem.gather_ns_per_kb",
        attributed.gather_ns / rig.gather_kb_per_pass(),
    );
    m.set(
        "upmem.launch_ns_per_dpu",
        attributed.launch_ns / rig.launches_per_pass(),
    );
    drop(rig);

    let run_batch_ns = layers::replay(
        &mut tracer,
        "replay/core.run_batch_ns_per_sample",
        slot,
        || layers::run_batches(runner.engine_mut(), workload),
    );
    m.set("core.run_batch_ns_per_sample", run_batch_ns / requests);

    let sched = verdict.report.sched;
    if let Some(sched) = &sched {
        let times = &workload.arrivals.times_ns;
        let service_ns = (verdict.report.modeled_ns / sched.batches.max(1) as f64).ceil() as u64;
        let mut policy = BatchPolicy::new(shape.sched_config()).map_err(|e| e.to_string())?;
        attributed.policy_ns = layers::replay(
            &mut tracer,
            "replay/sched.policy_ns_per_request",
            slot,
            || {
                layers::policy_loop(&mut policy, times, service_ns);
            },
        );
        let mut out = QueryBatch::default();
        attributed.assemble_ns = layers::replay(
            &mut tracer,
            "replay/sched.assemble_ns_per_request",
            slot,
            || layers::assemble(workload, &verdict.formed, &mut out),
        );
    }
    m.set(
        "sched.policy_ns_per_request",
        attributed.policy_ns / requests,
    );
    m.set(
        "sched.assemble_ns_per_request",
        attributed.assemble_ns / requests,
    );

    let (ring_hop_ns, ring_xthread_ns) = if let Drive::Wall = shape.drive {
        (
            layers::replay(&mut tracer, "replay/runtime.ring_hop_ns", slot, || {
                layers::ring_same_thread()
            }) / layers::RING_HOPS as f64,
            layers::replay(&mut tracer, "replay/runtime.ring_xthread_ns", slot, || {
                layers::ring_ping_pong()
            }) / layers::RING_HOPS as f64,
        )
    } else {
        (0.0, 0.0)
    };
    m.set("runtime.ring_hop_ns", ring_hop_ns);
    m.set("runtime.ring_xthread_ns", ring_xthread_ns);

    // The drift drive pays an engine build inside every pass.
    let build_in_pass_ns = match shape.drive {
        Drive::Drift { .. } => build_ns as f64,
        _ => 0.0,
    };
    m.set(
        "core.unattributed_share",
        1.0 - (attributed.total_ns() + build_in_pass_ns) / pass_ns,
    );

    // workloads
    m.set("workloads.generate_s", generate_ns as f64 / 1e9);
    m.set("workloads.profile_s", profile_ns as f64 / 1e9);
    m.set("workloads.lookups_per_sample", lookups / requests);
    m.set("cooccur.mine_s", mine_ns as f64 / 1e9);
    m.set("core.engine_build_s", build_ns as f64 / 1e9);

    // Exact counts of the verified pass, from its telemetry snapshot.
    let refs = snap.cache.refs.max(1) as f64;
    m.set("cooccur.hit_rate", snap.cache.hit_rate);
    m.set(
        "cooccur.fetches_saved_share",
        snap.cache.fetches_saved as f64 / refs,
    );
    let dpu_sum = |f: fn(&updlrm::updlrm_core::telemetry::DpuSnapshot) -> u64| -> f64 {
        snap.per_dpu.iter().map(f).sum::<u64>() as f64
    };
    let instrs = dpu_sum(|d| d.instrs);
    m.set("upmem.instrs_per_sample", instrs / completed);
    m.set(
        "upmem.dma_transfers_per_sample",
        dpu_sum(|d| d.dma_transfers) / completed,
    );
    m.set(
        "upmem.mram_bytes_per_sample",
        dpu_sum(|d| d.mram_bytes) / completed,
    );
    m.set(
        "upmem.stage1_bytes_per_sample",
        snap.stage1_bytes as f64 / completed,
    );
    m.set(
        "upmem.stage3_bytes_per_sample",
        snap.stage3_bytes as f64 / completed,
    );
    let busy: Vec<f64> = snap
        .per_dpu
        .iter()
        .filter(|d| d.launches > 0)
        .map(|d| d.tasklet_occupancy)
        .collect();
    m.set(
        "upmem.tasklet_occupancy",
        busy.iter().sum::<f64>() / busy.len().max(1) as f64,
    );
    m.set(
        "upmem.host_ns_per_instr",
        if instrs > 0.0 { pass_ns / instrs } else { 0.0 },
    );
    m.set("core.route_ns_per_sample", snap.route_ns.sum / completed);
    m.set("core.stage1_ns_per_sample", snap.stage1_ns.sum / completed);
    m.set("core.stage2_ns_per_sample", snap.stage2_ns.sum / completed);
    m.set("core.stage3_ns_per_sample", snap.stage3_ns.sum / completed);
    m.set(
        "core.combine_ns_per_sample",
        snap.combine_ns.sum / completed,
    );
    m.set(
        "core.overlap_saved_share",
        if snap.sequential_wall_ns > 0.0 {
            snap.overlap_saved_ns / snap.sequential_wall_ns
        } else {
            0.0
        },
    );
    m.set("core.load_imbalance", snap.load_imbalance.mean());
    m.set(
        "core.telemetry_overhead_pct",
        100.0 * (median_of(&on_over_off) - 1.0),
    );
    m.set(
        "core.host_over_modeled",
        pass_ns / verdict.report.modeled_ns,
    );
    m.set("core.replans", snap.drift.replans_triggered as f64);
    m.set("core.migrations", snap.drift.migrations_completed as f64);
    m.set("core.rows_moved", snap.drift.rows_moved as f64);
    m.set("core.migrated_bytes", snap.drift.migrated_bytes as f64);
    m.set(
        "core.migration_ns_share",
        sched.map_or(0.0, |s| snap.drift.migration_ns / s.makespan_ns),
    );

    // scheduler
    let max_batch = shape.sched_config().max_batch_size as f64;
    m.set(
        "sched.mean_batch_fill",
        sched.map_or(0.0, |s| s.mean_batch_size / max_batch),
    );
    m.set(
        "sched.deadline_trigger_share",
        sched.map_or(0.0, |s| s.trigger_deadline as f64 / s.batches.max(1) as f64),
    );
    m.set(
        "sched.queue_high_water",
        sched.map_or(0.0, |s| s.queue_high_water as f64),
    );
    m.set(
        "sched.shed_share",
        sched.map_or(0.0, |s| (s.shed + s.rejected) as f64 / requests),
    );
    m.set("sched.achieved_qps", sched.map_or(0.0, |s| s.achieved_qps));

    // open_loop's capacity ladder: one modeled run per rate.
    let mut max_qps_in_slo = 0.0;
    if let Drive::Open { .. } = shape.drive {
        let mut restamped = inputs.workload.clone();
        for qps in LADDER_QPS {
            restamped.stamp_arrivals(ArrivalProcess::poisson(qps, seed));
            let r = runner.pass_sched(&restamped, &mut Quiet)?;
            let inside = r.p99_ns <= SLO_P99_NS && r.dropped == 0;
            if inside {
                max_qps_in_slo = qps;
            }
            notes.push(format!(
                "ladder {qps:.0} qps: modeled p99 {:.1} us, dropped {}, {}",
                r.p99_ns / 1e3,
                r.dropped,
                if inside { "inside SLO" } else { "outside SLO" }
            ));
        }
    }
    m.set("sched.max_qps_in_slo", max_qps_in_slo);

    // runtime: saturated passes of phase A, plus one paced run for
    // measured latency.
    let wall_median = |f: fn(&WallStats) -> f64| -> f64 {
        median_of(&untraced.walls.iter().map(f).collect::<Vec<_>>())
    };
    m.set(
        "runtime.overhead_share",
        wall_median(|w| 1.0 - w.measured_service_ns / w.wall_elapsed_ns),
    );
    m.set(
        "runtime.service_over_modeled",
        wall_median(|w| w.measured_service_ns / w.modeled_service_ns),
    );
    m.set("runtime.wall_qps", wall_median(|w| w.measured_qps));
    let (mut wall_p50_us, mut wall_p99_us) = (0.0, 0.0);
    if let Drive::Wall = shape.drive {
        let mut paced = inputs.workload.clone();
        paced.stamp_arrivals(ArrivalProcess::poisson(WALL_PACED_QPS, seed));
        let r = runner.pass_runtime(&paced, false, &mut Quiet)?;
        // In wall mode the report's latency statistics are measured.
        wall_p50_us = r.p50_ns / 1e3;
        wall_p99_us = r.p99_ns / 1e3;
        untraced.tally(&r);
    }
    m.set("runtime.wall_p50_us", wall_p50_us);
    m.set("runtime.wall_p99_us", wall_p99_us);

    m.set("baselines.cpu_modeled_ns_per_sample", cpu_ns / requests);

    // harness
    let per_s = sorted(
        &untraced
            .sys_ns
            .iter()
            .map(|ns| completed / (ns / 1e9))
            .collect::<Vec<_>>(),
    );
    let (q1, q3) = quartiles(&per_s).unwrap_or((0.0, 0.0));
    m.set("harness.host_samples_per_s", median(&per_s).unwrap_or(0.0));
    m.set("harness.host_samples_per_s_q1", q1);
    m.set("harness.host_samples_per_s_q3", q3);
    m.set(
        "harness.ref_ns_per_lookup",
        median_of(&untraced.ref_ns) / reference.lookups_per_pass().max(1) as f64,
    );
    m.set("harness.pairs", untraced.len() as f64);
    m.set(
        "harness.rel_speed_iqr_pct",
        100.0 * iqr_share(&rel_untraced).unwrap_or(0.0),
    );
    m.set(
        "harness.tracing_overhead_pct",
        100.0 * (median_of(&rel_untraced) / median_of(&rel_traced) - 1.0),
    );

    // Trace file, and the invariant its `pass` spans must satisfy: self
    // time plus children equals the duration, i.e. no pass's children
    // outlast it (self time saturates at zero).
    let mut errors = verdict.errors;
    for (i, (span, covered)) in tracer.spans().iter().zip(tracer.children_ns()).enumerate() {
        if span.name == "pass" && covered > span.duration_ns() {
            errors.push(format!("pass span {i}: children outlast the pass"));
        }
    }
    for (name, ns, count) in tracer.self_time_by_name() {
        notes.push(format!(
            "self time {name}: {:.3} ms over {count} spans",
            ns as f64 / 1e6
        ));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.json", shape.name));
    let mut meta: Vec<(&str, String)> = fingerprint.to_vec();
    meta.push(("workload", shape.name.to_string()));
    std::fs::write(&path, tracer.to_chrome_json(&meta))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "trace {} ({} spans)",
        path.display(),
        tracer.spans().len()
    ));

    for e in &errors {
        notes.push(format!("error: {e}"));
    }
    let failed = verdict.failed + untraced.failed + traced.failed;
    Ok(RunResult {
        correct: failed == 0 && errors.is_empty(),
        attempted: verdict.report.requests + untraced.attempted + traced.attempted,
        failed,
        metrics: m.finish(PER_LAYER)?,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool_heavy-shaped workload small enough for a unit test.
    fn tiny() -> Shape {
        Shape {
            batch_size: 16,
            num_batches: 3,
            ..Shape::by_name("pool_heavy").unwrap()
        }
    }

    /// `modeled_speedup_vs_cpu` is computed from the verified pass's
    /// breakdowns and the CPU model's public cost functions instead of
    /// a second engine behind `InferenceBackend`; both routes must give
    /// the same two sums.
    #[test]
    fn speedup_formula_matches_the_backend_trait() {
        let shape = tiny();
        let inputs = shape.generate(3);
        let model = shape.model(3);
        let mem = shape.cpu_memory_model();

        let profiles = layers::profile(&model, &inputs.workload);
        let mut cpu = DlrmCpu::new(model.clone(), &profiles, mem.clone()).unwrap();
        let mut pim = UpdlrmBackend::from_workload(
            shape.engine_config(false),
            model.clone(),
            &inputs.workload,
            mem,
        )
        .unwrap();
        let (mut cpu_trait, mut pim_trait) = (0.0, 0.0);
        for batch in &inputs.workload.batches {
            cpu_trait += cpu.run_batch(batch).unwrap().1.total_ns();
            pim_trait += pim.run_batch(batch).unwrap().1.total_ns();
        }

        let reference = Reference::new(
            &model,
            &inputs.workload,
            shape.dtype,
            shape.reference_sweeps,
        );
        let engine = shape.build_engine(&model, &inputs, false);
        let mut runner = Runner::new(shape, &inputs, model.clone(), engine);
        let verdict = verified_pass(&mut runner, &reference, false).unwrap();
        let cpu_formula = cpu_modeled_ns(&shape, &model, &inputs).unwrap();

        assert_eq!(verdict.failed, 0, "{:?}", verdict.errors);
        assert!(verdict.errors.is_empty(), "{:?}", verdict.errors);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs();
        assert!(
            close(cpu_formula, cpu_trait),
            "{cpu_formula} vs {cpu_trait}"
        );
        assert!(
            close(verdict.updlrm_ns, pim_trait),
            "{} vs {pim_trait}",
            verdict.updlrm_ns
        );
    }

    /// A wrong pooled row is counted, once per inference, and makes the
    /// run incorrect.
    #[test]
    fn verify_observer_counts_wrong_inferences() {
        let shape = tiny();
        let inputs = shape.generate(4);
        let model = shape.model(4);
        let reference = Reference::new(
            &model,
            &inputs.workload,
            shape.dtype,
            shape.reference_sweeps,
        );
        let mut verify = Verify::new(&reference, &shape, model, &inputs.workload, true);
        let mut pooled = reference.pooled_for_batch(&inputs.workload, 1);
        let ids: Vec<u32> = (16..32).collect();
        let breakdown = EmbeddingBreakdown::default();
        verify.batch(&BatchView {
            ids: &ids,
            pooled: &pooled,
            breakdown: &breakdown,
        });
        assert_eq!(verify.failed, 0);
        pooled[3].row_mut(5)[0] += 1.0;
        verify.batch(&BatchView {
            ids: &ids,
            pooled: &pooled,
            breakdown: &breakdown,
        });
        assert_eq!(verify.failed, 1);
        assert_eq!(verify.formed, vec![ids.clone(), ids]);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
