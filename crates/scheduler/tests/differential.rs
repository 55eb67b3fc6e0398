//! The tentpole correctness property (ISSUE 5): the scheduler is a
//! *front-end*, not a numerics path. For any fixed seed/config, feeding
//! the formed batch sequence through the event loop must produce pooled
//! embeddings bit-identical to calling `serve_stream` directly on the
//! same batch sequence with a fresh engine — queueing and batching
//! decide *when* work runs, never *what* it computes.
//!
//! A second property pins the host pipelining of `Scheduler::run`: its
//! batch `i`'s kernels are in flight while it serves batch `i + 1`,
//! across replan ticks too — a flip, a begun migration or a declined
//! one. It must produce exactly what serving each batch to completion
//! in its own call produces.

use dlrm_model::{EmbedDtype, EmbeddingTable, Matrix, QueryBatch, SparseInput};
use scheduler::{
    assemble_into, EventLoop, Launch, OverloadPolicy, SchedConfig, SchedReport, Scheduler, Serve,
    Tally,
};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::pipeline::Step;
use updlrm_core::telemetry::Snapshot;
use updlrm_core::{PartitionStrategy, Ps, ReplanPolicy, Result, UpdlrmConfig, UpdlrmEngine};
use workloads::{
    ArrivalProcess, DatasetSpec, DriftSchedule, HotSetRotation, TraceConfig, Workload,
};

const DIM: usize = 32;

fn setup(process: ArrivalProcess) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 3,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(process);
    let tables = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engine(tables: &[EmbeddingTable], workload: &Workload, max_batch: usize) -> UpdlrmEngine {
    let config = UpdlrmConfig {
        batch_size: max_batch,
        ..UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
    };
    UpdlrmEngine::from_workload(config, tables, workload).unwrap()
}

fn assert_bit_identical(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{ctx}: col mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Scheduler-formed batches vs a direct `serve_stream` over the same
/// sequence, across load regimes (partial deadline batches, full size
/// batches, shed traffic) and both arrival processes.
#[test]
fn scheduler_pooled_embeddings_match_direct_serve_stream() {
    for (process, cfg) in [
        (
            // Low load: deadline-triggered partial batches.
            ArrivalProcess::poisson(2_000.0, 11),
            SchedConfig {
                max_batch_size: 32,
                max_wait_ns: 500_000,
                queue_cap: 64,
                policy: OverloadPolicy::ShedOldest,
            },
        ),
        (
            // Saturation: size-triggered full batches plus shedding.
            ArrivalProcess::poisson(50_000_000.0, 12),
            SchedConfig {
                max_batch_size: 32,
                max_wait_ns: 100_000,
                queue_cap: 48,
                policy: OverloadPolicy::ShedOldest,
            },
        ),
        (
            // Bursty mid load with blocking: mixed batch sizes.
            ArrivalProcess::bursty(300_000.0, 13),
            SchedConfig {
                max_batch_size: 16,
                max_wait_ns: 200_000,
                queue_cap: 24,
                policy: OverloadPolicy::Block,
            },
        ),
    ] {
        let (tables, workload) = setup(process);

        // Scheduler run: capture each formed batch's query ids and a
        // clone of its pooled embeddings.
        let mut eng = engine(&tables, &workload, cfg.max_batch_size);
        let mut sched = Scheduler::new(cfg).unwrap();
        let mut formed: Vec<Vec<u32>> = Vec::new();
        let mut pooled_seen: Vec<Vec<Matrix>> = Vec::new();
        let report = sched
            .run(&mut eng, &workload, |seq, ids, pooled, _| {
                assert_eq!(seq, formed.len(), "sink fires in launch order");
                formed.push(ids.to_vec());
                pooled_seen.push(pooled.to_vec());
            })
            .unwrap();
        assert_eq!(report.batches as usize, formed.len());
        assert!(
            report.batches > 1,
            "want a multi-batch sequence: {report:?}"
        );
        // What the core-count gate chose is what ran: with two or more
        // cores every batch's launch went to the DPU worker, with one
        // none did.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = if cores >= 2 { report.batches } else { 0 };
        assert_eq!(eng.dpu_handoffs(), want, "{cores} cores: {eng:?}");
        assert_eq!(format!("{eng:?}").contains("dpu_worker: true"), cores >= 2);

        // Reference: assemble the same batch sequence and serve it
        // directly on a fresh engine.
        let batches: Vec<QueryBatch> = formed
            .iter()
            .map(|ids| {
                let mut b = QueryBatch {
                    sparse: vec![SparseInput::default(); workload.config.num_tables],
                    ..QueryBatch::default()
                };
                assemble_into(&workload, ids, &mut b);
                b.validate().unwrap();
                b
            })
            .collect();
        let mut reference = engine(&tables, &workload, cfg.max_batch_size);
        let mut pooled_ref: Vec<Vec<Matrix>> = Vec::new();
        reference
            .serve_stream(&batches, |_, pooled, _| pooled_ref.push(pooled.to_vec()))
            .unwrap();

        assert_eq!(pooled_seen.len(), pooled_ref.len());
        for (bi, (a, b)) in pooled_seen.iter().zip(&pooled_ref).enumerate() {
            assert_eq!(a.len(), b.len());
            for (t, (ma, mb)) in a.iter().zip(b).enumerate() {
                assert_bit_identical(ma, mb, &format!("{process:?} batch {bi} table {t}"));
            }
        }
    }
}

/// The assembled batch is exactly the queries' rows from the source
/// workload, in pop order.
#[test]
fn assemble_into_copies_the_right_samples() {
    let (_, workload) = setup(ArrivalProcess::poisson(1_000.0, 1));
    let bs = workload.config.batch_size;
    let nd = workload.config.num_dense;
    let ids = [0u32, 65, 3, (bs as u32) * 2 + 7];
    let mut out = QueryBatch {
        sparse: vec![SparseInput::default(); workload.config.num_tables],
        ..QueryBatch::default()
    };
    assemble_into(&workload, &ids, &mut out);
    out.validate().unwrap();
    assert_eq!(out.batch_size(), ids.len());
    for (row, &id) in ids.iter().enumerate() {
        let (bi, si) = (id as usize / bs, id as usize % bs);
        assert_eq!(
            &out.dense[row * nd..(row + 1) * nd],
            &workload.batches[bi].dense[si * nd..(si + 1) * nd]
        );
        for t in 0..workload.config.num_tables {
            assert_eq!(
                out.sparse[t].sample(row),
                workload.batches[bi].sparse[t].sample(si),
                "table {t} row {row}"
            );
        }
    }
}

/// What one open-loop run produced: the report, every sink call's
/// `(seq, ids, pooled, breakdown)` in order, and the engine's telemetry
/// and mid-migration snapshot afterwards.
type Run = (
    SchedReport,
    Vec<(usize, Vec<u32>, Vec<Matrix>, EmbeddingBreakdown)>,
    Snapshot,
    Option<Snapshot>,
);

/// Serves each formed batch to completion in its own call: tick at the
/// launch instant, then a one-batch `serve_stream`. Like every server,
/// it reports the batch's stages 2 and 3 with the next call or the
/// flush.
struct Lockstep<'a> {
    engine: &'a mut UpdlrmEngine,
    workload: &'a Workload,
    batch: QueryBatch,
    sunk: Vec<(usize, Vec<u32>, Vec<Matrix>, EmbeddingBreakdown)>,
    awaited: Option<(Ps, Ps)>,
}

impl Serve for Lockstep<'_> {
    fn serve(&mut self, launch: &Launch<'_>, tally: &Tally) -> Result<Step> {
        self.engine.on_tick(launch.at, tally.snapshot())?;
        assemble_into(self.workload, launch.ids, &mut self.batch);
        let (mut bd, sunk) = (EmbeddingBreakdown::default(), &mut self.sunk);
        self.engine
            .serve_stream(std::slice::from_ref(&self.batch), |_, pooled, b| {
                sunk.push((launch.seq, launch.ids.to_vec(), pooled.to_vec(), *b));
                bd = *b;
            })?;
        let stages = bd.stages();
        Ok(Step {
            settled: self.awaited.replace((stages.s2, stages.s3)),
            s1: stages.s1,
        })
    }

    fn flush(&mut self) -> Result<Option<(Ps, Ps)>> {
        Ok(self.awaited.take())
    }
}

/// `Scheduler::run` — every batch's kernels in flight across calls, on
/// the DPU worker when the process may use two or more cores — equals
/// serving every batch to completion in its own call: the same report,
/// sink calls in the same order with the same pooled rows and
/// breakdowns and the same telemetry snapshot. Over {U, NU, CA} × {f32,
/// int8} with telemetry on and replan off, on a saturating trace where
/// batches overlap. CI runs this file under `taskset -c 0` too, where
/// `Scheduler::run` serves on one thread: both sides of the gate are
/// checked against the same reference.
#[test]
fn pipelined_scheduler_run_equals_serving_each_batch_in_its_own_call() {
    assert_pipelined_equals_lockstep(ReplanPolicy::Off);
}

/// Every replan tick of a `Scheduler::run` — a flip, a begun migration
/// or a declined one — is served with the batch ahead still in flight,
/// and the run still equals serving each batch to completion in its own
/// call, mid-migration drift snapshot included. At `periodic:2` on a
/// rotating hot set, over {U, NU, CA} × {f32, int8}.
#[test]
fn replan_ticks_are_served_with_the_batch_ahead_in_flight() {
    assert_pipelined_equals_lockstep(ReplanPolicy::Periodic { every_batches: 2 });
}

/// Runs a saturating trace whose hot set rotates through
/// `pipelined_and_lockstep` with `replan`, for {U, NU, CA} × {f32,
/// int8}, and asserts the two runs are equal and not vacuous.
fn assert_pipelined_equals_lockstep(replan: ReplanPolicy) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let drift = DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 4,
            set_size: 64,
            period_ns: 300_000,
            hot_fraction: 0.8,
        }),
        spikes: Vec::new(),
        diurnal: None,
    };
    let workload = Workload::generate_drifting(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 8,
            ..TraceConfig::default()
        },
        drift,
        ArrivalProcess::poisson(400_000.0, 5),
    );
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    for strategy in [
        PartitionStrategy::Uniform,
        PartitionStrategy::NonUniform,
        PartitionStrategy::CacheAware,
    ] {
        for dtype in [EmbedDtype::F32, EmbedDtype::Int8] {
            let case = format!("{strategy} {dtype:?} {replan}");
            let config = UpdlrmConfig {
                batch_size: 32,
                ..UpdlrmConfig::with_dpus(16, strategy)
                    .with_embed_dtype(dtype)
                    .with_replan(replan)
                    .with_telemetry()
            };
            let (pipelined, lockstep, eng) =
                pipelined_and_lockstep(&config, &tables, &workload, SATURATING);
            assert!(pipelined == lockstep, "{case}: the two runs differ");

            // Anti-vacuous: the load saturates the engine, so each batch
            // launches as soon as a staging slot frees, and the
            // replanner migrated mid-run, more than once.
            let (report, d) = (&pipelined.0, &pipelined.2.drift);
            assert!(report.batches > 4, "{case}: {report:?}");
            assert!(report.shed > 0, "{case}: {report:?}");
            assert_eq!(d.migrations_completed >= 2, replan.enabled(), "{case}");
            assert_eq!(pipelined.3.is_some(), replan.enabled(), "{case}");
            let acted = d.migrations_completed + d.replans_triggered + d.replans_skipped;
            assert_eq!(eng.overlapped_ticks(), acted, "{case}: {d:?}");
        }
    }
}

/// Runs `workload` through `Scheduler::run` and through the `Lockstep`
/// server, each on a fresh engine built with `config`. Returns both
/// runs and the pipelined run's engine.
fn pipelined_and_lockstep(
    config: &UpdlrmConfig,
    tables: &[EmbeddingTable],
    workload: &Workload,
    cfg: SchedConfig,
) -> (Run, Run, UpdlrmEngine) {
    let build = || UpdlrmEngine::from_workload(config.clone(), tables, workload).unwrap();
    let mut eng = build();
    let mut sunk = Vec::new();
    let report = Scheduler::new(cfg)
        .unwrap()
        .run(&mut eng, workload, |seq, ids, pooled, bd| {
            sunk.push((seq, ids.to_vec(), pooled.to_vec(), *bd));
        })
        .unwrap();
    let pipelined: Run = (
        report,
        sunk,
        eng.metrics_snapshot(),
        eng.drift_snapshot().cloned(),
    );

    let mut reference = build();
    let mut core = EventLoop::new(cfg).unwrap();
    let mut server = Lockstep {
        engine: &mut reference,
        workload,
        batch: QueryBatch {
            sparse: vec![SparseInput::default(); workload.config.num_tables],
            ..QueryBatch::default()
        },
        sunk: Vec::new(),
        awaited: None,
    };
    let trace = &workload.arrivals;
    let mut arrivals = (0u32..).zip(trace.times_ns.iter().copied());
    let makespan = core.run(trace, || arrivals.next(), &mut server).unwrap();
    let sunk = std::mem::take(&mut server.sunk);
    reference.metrics_mut().record_sched(&core.tally.snapshot());
    let lockstep: Run = (
        core.tally.finish(makespan),
        sunk,
        reference.metrics_snapshot(),
        reference.drift_snapshot().cloned(),
    );
    (pipelined, lockstep, eng)
}

/// The saturating scheduler configuration of the replan properties.
const SATURATING: SchedConfig = SchedConfig {
    max_batch_size: 32,
    max_wait_ns: 100_000,
    queue_cap: 64,
    policy: OverloadPolicy::ShedOldest,
};

/// The decline path with the batch ahead in flight: on a trace whose
/// every query is the same sample, a window ranks rows as the build's
/// profile did, so a refit reproduces the serving layout and is
/// declined (NU declines every replan; CA migrates once, then declines).
/// `Scheduler::run` still equals serving each batch in its own call —
/// report, sink rows, breakdowns, telemetry and drift snapshot — for NU
/// and CA, which refit with their own strategy.
#[test]
fn declined_replans_equal_serving_each_batch_in_its_own_call() {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 8,
            ..TraceConfig::default()
        },
    );
    let first: Vec<Vec<u64>> = workload.batches[0]
        .sparse
        .iter()
        .map(|s| s.sample(0).to_vec())
        .collect();
    for batch in &mut workload.batches {
        let b = batch.batch_size();
        for (sparse, sample) in batch.sparse.iter_mut().zip(&first) {
            *sparse = SparseInput::from_samples(vec![sample.clone(); b]);
        }
    }
    workload.stamp_arrivals(ArrivalProcess::poisson(400_000.0, 5));
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    for strategy in [PartitionStrategy::NonUniform, PartitionStrategy::CacheAware] {
        let config = UpdlrmConfig {
            batch_size: 32,
            ..UpdlrmConfig::with_dpus(16, strategy)
                .with_replan(ReplanPolicy::Periodic { every_batches: 2 })
                .with_telemetry()
        };
        let (pipelined, lockstep, eng) =
            pipelined_and_lockstep(&config, &tables, &workload, SATURATING);
        assert!(pipelined == lockstep, "{strategy}: the two runs differ");
        let d = &pipelined.2.drift;
        assert!(d.replans_skipped >= 2, "{strategy}: {d:?}");
        let acted = d.migrations_completed + d.replans_triggered + d.replans_skipped;
        assert_eq!(eng.overlapped_ticks(), acted, "{strategy}: {d:?}");
    }
}
