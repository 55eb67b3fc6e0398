//! # scheduler — open-loop serving front-end on modeled time
//!
//! The engine (`updlrm_core`) is closed-loop: callers hand it
//! pre-formed batches and it reports how long the pipeline took. This
//! crate adds the missing front half of a serving system — *arrivals*,
//! *queueing* and *batch formation* — as a deterministic discrete-event
//! simulation that runs entirely on modeled time:
//!
//! * queries arrive according to the workload's
//!   [`ArrivalTrace`](workloads::ArrivalTrace) (UPWL v3);
//! * a bounded admission queue absorbs them, applying an
//!   [`OverloadPolicy`] when full;
//! * a deadline-aware dynamic batcher closes a batch when it reaches
//!   `max_batch_size` **or** when the oldest queued query has waited
//!   `max_wait_ns` (plus a final drain flush at end of trace);
//! * each formed batch runs through
//!   [`UpdlrmEngine::serve_step`](updlrm_core::UpdlrmEngine::serve_step),
//!   and its three modeled stage times are placed on the engine's
//!   depth-2 pipeline clock: batch `i + 1`'s stage 1 overlaps batch
//!   `i`'s stage 2 through the two MRAM staging slots. The host
//!   overlaps them too: the call that serves batch `i + 1` routes it
//!   while batch `i`'s kernels run on the engine's DPU worker, then
//!   completes batch `i` and runs its sink;
//! * per-request latency = queue wait + batch wait + modeled pipeline
//!   time, i.e. `batch completion − arrival`.
//!
//! No wall clock enters any computation, so a fixed seed and
//! configuration produce bit-identical [`SchedReport`]s, pooled
//! embeddings and telemetry snapshots across runs and machines — the
//! same determinism contract the rest of the repo upholds (DESIGN.md
//! §4.7). Steady-state runs are also allocation-free after warm-up:
//! the queue, the assembly scratch and the latency buffer are
//! preallocated and recycled (`tests/alloc_tests.rs`).
//!
//! All event times are **integer picoseconds** end to end — the engine's
//! one modeled clock ([`Ps`]): arrivals (integer ns in
//! the trace) and the wait deadline are scaled to ps exactly, stage
//! times arrive in ps, and the loop never does f64 arithmetic on an
//! instant, so the size/deadline/drain trigger attribution is an exact
//! integer comparison rather than an ulp-sensitive float equality. A
//! `u64` of ps spans 213 days; traces whose arrivals do not fit are
//! refused ([`check_servable`]). f64 appears only in [`SchedReport`]'s
//! derived statistics, which report ns.
//!
//! The loop itself is [`EventLoop`] (module [`event_loop`]): one copy,
//! parameterised by where arrivals come from and how a formed batch is
//! served. [`Scheduler`] is its slice-fed, in-thread instance; the
//! tenant fleet's lanes and the oracle-locked wall runtime are the
//! other two. The batch-forming decisions live in the clock-agnostic
//! [`BatchPolicy`], which the free-running wall
//! batcher also drives, with real timestamps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event_loop;
pub mod policy;

use dlrm_model::{Matrix, QueryBatch};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::pipeline::Step;
use updlrm_core::{CoreError, Ps, Result, UpdlrmEngine};
use workloads::Workload;

pub use event_loop::{check_servable, EventLoop, Launch, Serve, Tally};
pub use policy::{AdmitOutcome, BatchPolicy, LaunchPlan};

/// What to do with a new arrival when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Hold the arrival at the door until a slot frees (its latency
    /// keeps accruing from the original arrival time). Nothing is
    /// dropped: every request eventually completes.
    Block,
    /// Evict the oldest queued request to make room (the evicted
    /// request is counted shed and never completes). Keeps the queue
    /// full of the freshest traffic — the classic tail-latency play.
    #[default]
    ShedOldest,
    /// Drop the new arrival on the floor (counted rejected).
    RejectNew,
}

impl OverloadPolicy {
    /// CLI spelling of the policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedOldest => "shed-oldest",
            OverloadPolicy::RejectNew => "reject-new",
        }
    }
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "shed-oldest" => Ok(OverloadPolicy::ShedOldest),
            "reject-new" => Ok(OverloadPolicy::RejectNew),
            other => Err(format!(
                "unknown overload policy '{other}' (expected 'block', 'shed-oldest' or 'reject-new')"
            )),
        }
    }
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Batcher and admission-queue parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Close a batch as soon as this many queries are queued. Must not
    /// exceed twice the engine's configured `batch_size` (the staged
    /// MRAM capacity `route` enforces).
    pub max_batch_size: usize,
    /// Close a batch once its oldest query has waited this long (ns of
    /// modeled time).
    pub max_wait_ns: u64,
    /// Admission-queue capacity; arrivals beyond it hit the
    /// [`OverloadPolicy`].
    pub queue_cap: usize,
    /// What happens to arrivals when the queue is full.
    pub policy: OverloadPolicy,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            max_batch_size: 64,
            max_wait_ns: 200_000, // 200 us
            queue_cap: 256,
            policy: OverloadPolicy::default(),
        }
    }
}

impl SchedConfig {
    /// Checks the parameters for internal consistency.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on a zero batch size, zero wait or
    /// zero queue capacity.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch_size == 0 {
            return Err(CoreError::InvalidConfig(
                "max_batch_size must be >= 1".into(),
            ));
        }
        if self.max_wait_ns == 0 {
            return Err(CoreError::InvalidConfig(
                "max_wait_ns must be >= 1 (0 would close every batch instantly)".into(),
            ));
        }
        if self.queue_cap == 0 {
            return Err(CoreError::InvalidConfig(
                "queue_cap must be >= 1 (0 admits nothing)".into(),
            ));
        }
        Ok(())
    }
}

/// Aggregate statistics of one [`Scheduler::run`].
///
/// Every field is a count or a modeled time — two runs with the same
/// workload and configuration produce bit-identical reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SchedReport {
    /// Queries in the arrival trace.
    pub requests: u64,
    /// Queries admitted into the queue (includes later-shed ones).
    pub admitted: u64,
    /// Queries that ran through the engine and completed.
    pub completed: u64,
    /// Queries evicted by [`OverloadPolicy::ShedOldest`].
    pub shed: u64,
    /// Queries dropped by [`OverloadPolicy::RejectNew`].
    pub rejected: u64,
    /// Queries that found the queue full under
    /// [`OverloadPolicy::Block`] and waited at the door.
    pub blocked: u64,
    /// Batches formed.
    pub batches: u64,
    /// Batches closed because the queue reached `max_batch_size`.
    pub trigger_size: u64,
    /// Batches closed by the oldest query's wait deadline.
    pub trigger_deadline: u64,
    /// Batches closed by the end-of-trace flush.
    pub trigger_drain: u64,
    /// Deepest the queue ever got.
    pub queue_high_water: u64,
    /// Mean formed-batch size.
    pub mean_batch_size: f64,
    /// Offered load: requests per second of modeled time over the
    /// arrival span.
    pub offered_qps: f64,
    /// Achieved goodput: completed requests per second of modeled time
    /// over the makespan.
    pub achieved_qps: f64,
    /// Modeled time from the first arrival to the last batch's drain
    /// (ns).
    pub makespan_ns: f64,
    /// Mean completed-request latency (arrival → batch drain), ns.
    pub mean_latency_ns: f64,
    /// Median completed-request latency, nearest-rank, ns.
    pub p50_latency_ns: f64,
    /// 95th-percentile completed-request latency, ns.
    pub p95_latency_ns: f64,
    /// 99th-percentile completed-request latency, ns.
    pub p99_latency_ns: f64,
    /// Worst completed-request latency, ns.
    pub max_latency_ns: f64,
}

/// Copies query `ids` (global batch-major indices into `workload`'s
/// pre-formed batches) into `out` as one CSR batch, reusing `out`'s
/// buffers. Allocation-free once `out`'s buffers have warmed to the
/// largest assembled shape. Shared by the scheduler's hot loop and the
/// differential tests so both sides form bit-identical batches.
///
/// # Panics
///
/// Panics if an id is out of range or `out.sparse` was not sized to
/// the workload's table count (callers size it via
/// [`Scheduler::new`]'s scratch or their own `QueryBatch`).
pub fn assemble_into(workload: &Workload, ids: &[u32], out: &mut QueryBatch) {
    let bs = workload.config.batch_size;
    let nd = workload.config.num_dense;
    out.num_dense = nd;
    out.dense.clear();
    for &id in ids {
        let (bi, si) = (id as usize / bs, id as usize % bs);
        out.dense
            .extend_from_slice(&workload.batches[bi].dense[si * nd..(si + 1) * nd]);
    }
    assert_eq!(out.sparse.len(), workload.config.num_tables);
    for (t, sp) in out.sparse.iter_mut().enumerate() {
        sp.indices.clear();
        sp.offsets.clear();
        sp.offsets.push(0);
        for &id in ids {
            let (bi, si) = (id as usize / bs, id as usize % bs);
            sp.indices
                .extend_from_slice(workload.batches[bi].sparse[t].sample(si));
            sp.offsets.push(sp.indices.len());
        }
    }
}

/// The discrete-event scheduler: the shared [`EventLoop`] fed from the
/// workload's arrival slice and served by an in-thread engine. Owns all
/// steady-state scratch (the loop's queue, tally and histogram plus the
/// assembly batch), so one `Scheduler` can drive many runs without
/// allocating after the first.
#[derive(Debug)]
pub struct Scheduler {
    core: EventLoop,
    /// The assembled CSR batch handed to the engine.
    batch: QueryBatch,
    /// The launch of the batch the engine has in flight, whose sink
    /// runs during the next serve.
    in_flight: Deferred,
}

/// A [`Launch`] kept past its serve: its ids are copied into a buffer
/// preallocated to `max_batch_size`.
#[derive(Debug)]
struct Deferred {
    seq: usize,
    at: Ps,
    ids: Vec<u32>,
}

impl Deferred {
    fn launch(&self) -> Launch<'_> {
        Launch {
            seq: self.seq,
            at: self.at,
            ids: &self.ids,
        }
    }

    fn keep(&mut self, launch: &Launch<'_>) {
        self.seq = launch.seq;
        self.at = launch.at;
        self.ids.clear();
        self.ids.extend_from_slice(launch.ids);
    }
}

impl Scheduler {
    /// Creates a scheduler, preallocating the admission queue and the
    /// batch-size histogram.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `cfg` fails
    /// [`SchedConfig::validate`].
    pub fn new(cfg: SchedConfig) -> Result<Scheduler> {
        Ok(Scheduler {
            core: EventLoop::new(cfg)?,
            batch: QueryBatch::default(),
            in_flight: Deferred {
                seq: 0,
                at: Ps::ZERO,
                ids: Vec::with_capacity(cfg.max_batch_size),
            },
        })
    }

    /// The configuration this scheduler runs.
    pub fn config(&self) -> &SchedConfig {
        self.core.config()
    }

    /// Batch-size histogram of the last run: `histogram()[k]` is the
    /// number of batches formed with exactly `k` queries
    /// (`0 <= k <= max_batch_size`).
    pub fn batch_histogram(&self) -> &[u64] {
        self.core.tally.histogram()
    }

    /// The last run's [`Tally`], for front-ends that complete the
    /// batches [`form`](Self::form) produced on a clock of their own.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.core.tally
    }

    /// Replays `workload`'s arrival trace through the event loop,
    /// forming batches and running each through `engine.serve_step`.
    /// `sink(batch_seq, query_ids, pooled, breakdown)` fires once per
    /// formed batch in launch order, lending the pooled embeddings
    /// exactly as `serve_stream` does; batch `i`'s sink runs while the
    /// loop serves batch `i + 1`, or at the end of the run. Once the
    /// run has drained, its scheduler counters are added to the
    /// engine's telemetry.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the workload has no arrival
    /// trace (closed-loop) or the engine cannot take batches of
    /// `max_batch_size`; engine errors propagate. A batch's error
    /// returns once the batch ahead of it, still in flight, is back
    /// home: that batch is dropped without reaching `sink`, and the
    /// engine is idle.
    pub fn run<F>(
        &mut self,
        engine: &mut UpdlrmEngine,
        workload: &Workload,
        mut sink: F,
    ) -> Result<SchedReport>
    where
        F: FnMut(usize, &[u32], &[Matrix], &EmbeddingBreakdown),
    {
        let makespan = self.form(engine, workload, |launch, pooled, bd| {
            sink(launch.seq, launch.ids, pooled, bd)
        })?;
        let tally = &mut self.core.tally;
        let report = tally.finish(makespan);
        engine.metrics_mut().record_sched(&tally.snapshot());
        Ok(report)
    }

    /// [`run`](Self::run) without the report: forms and serves every
    /// batch, lending `sink` each [`Launch`] (so it sees the launch
    /// instant too), and returns the dedicated-engine makespan. The
    /// counters and latencies stay in [`tally_mut`](Self::tally_mut)
    /// until the caller finishes (and records) them.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn form<F>(&mut self, engine: &mut UpdlrmEngine, workload: &Workload, sink: F) -> Result<Ps>
    where
        F: FnMut(&Launch<'_>, &[Matrix], &EmbeddingBreakdown),
    {
        let trace = &workload.arrivals;
        check_servable(self.config(), trace, engine.staged_batch_capacity())?;
        // Size the assembly scratch to the workload's table count once;
        // reuse thereafter.
        if self.batch.sparse.len() != workload.config.num_tables {
            self.batch.sparse = vec![Default::default(); workload.config.num_tables];
        }
        let mut arrivals = (0u32..).zip(trace.times_ns.iter().copied());
        let result = self.core.run(
            trace,
            || arrivals.next(),
            &mut InThread {
                engine: &mut *engine,
                workload,
                batch: &mut self.batch,
                in_flight: &mut self.in_flight,
                sink,
            },
        );
        if result.is_err() {
            // A serve that fails leaves nothing in flight; the loop's
            // own invariant can stop it between serves. Either way the
            // engine is idle once the run returns.
            let _ = engine.serve_flush(|_, _| {});
        }
        result
    }
}

/// [`Serve`] on the caller's thread: assemble the batch into the reused
/// scratch and run it through `serve_step`, which ticks the engine at
/// the launch instant and leaves the batch's kernels in flight — on the
/// engine's DPU worker where there is one — while the loop forms the
/// next batch.
struct InThread<'a, F> {
    engine: &'a mut UpdlrmEngine,
    workload: &'a Workload,
    batch: &'a mut QueryBatch,
    in_flight: &'a mut Deferred,
    sink: F,
}

impl<F> Serve for InThread<'_, F>
where
    F: FnMut(&Launch<'_>, &[Matrix], &EmbeddingBreakdown),
{
    fn serve(&mut self, launch: &Launch<'_>, tally: &Tally) -> Result<Step> {
        // Between-batch tick, inside serve_step: the engine's online
        // replanner flips a completed migration (or begins one) at the
        // launch instant, never mid-batch. A tick that acts plans or
        // installs while the batch in flight runs, and writes tiles or
        // repoints kernels only once that batch is back and gathered,
        // so no scatter writes what a launch still reads; a tick never
        // both flips and begins a scatter, and the next launch waits
        // for the batch ahead to drain on the modeled clock.
        assemble_into(self.workload, launch.ids, self.batch);
        let (ahead, sink) = (&*self.in_flight, &mut self.sink);
        let step =
            self.engine
                .serve_step(launch.at, tally.snapshot(), self.batch, |pooled, bd| {
                    sink(&ahead.launch(), pooled, bd)
                })?;
        self.in_flight.keep(launch);
        Ok(step)
    }

    fn flush(&mut self) -> Result<Option<(Ps, Ps)>> {
        let (ahead, sink) = (&*self.in_flight, &mut self.sink);
        self.engine
            .serve_flush(|pooled, bd| sink(&ahead.launch(), pooled, bd))
    }
}

/// True when every derived f64 statistic in `report` is finite — the
/// serialization contract (`--json` must parse back as typed numbers,
/// never `NaN`/`inf` strings), checked by `tests/report_finite.rs`.
pub fn report_is_finite(report: &SchedReport) -> bool {
    [
        report.mean_batch_size,
        report.offered_qps,
        report.achieved_qps,
        report.makespan_ns,
        report.mean_latency_ns,
        report.p50_latency_ns,
        report.p95_latency_ns,
        report.p99_latency_ns,
        report.max_latency_ns,
    ]
    .iter()
    .all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_model::EmbeddingTable;
    use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
    use workloads::{ArrivalProcess, DatasetSpec, TraceConfig};

    const DIM: usize = 32;

    fn setup(num_batches: usize, process: ArrivalProcess) -> (Vec<EmbeddingTable>, Workload) {
        let spec = DatasetSpec::goodreads().scaled_down(5000);
        let mut workload = Workload::generate(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches,
                ..TraceConfig::default()
            },
        );
        workload.stamp_arrivals(process);
        let tables = (0..2)
            .map(|t| {
                EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap()
            })
            .collect();
        (tables, workload)
    }

    fn engine(tables: &[EmbeddingTable], workload: &Workload, max_batch: usize) -> UpdlrmEngine {
        let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform);
        let config = UpdlrmConfig {
            batch_size: max_batch,
            ..config
        };
        UpdlrmEngine::from_workload(config, tables, workload).unwrap()
    }

    /// A QPS high enough to saturate the modeled engine for this setup.
    const HOT_QPS: f64 = 50_000_000.0;
    /// A QPS low enough that every batch is deadline-triggered.
    const COLD_QPS: f64 = 1_000.0;

    #[test]
    fn rejects_bad_configs_and_closed_loop_workloads() {
        assert!(Scheduler::new(SchedConfig {
            max_batch_size: 0,
            ..SchedConfig::default()
        })
        .is_err());
        assert!(Scheduler::new(SchedConfig {
            max_wait_ns: 0,
            ..SchedConfig::default()
        })
        .is_err());
        assert!(Scheduler::new(SchedConfig {
            queue_cap: 0,
            ..SchedConfig::default()
        })
        .is_err());

        let (tables, mut workload) = setup(1, ArrivalProcess::poisson(COLD_QPS, 1));
        workload.arrivals = workloads::ArrivalTrace::closed_loop();
        let mut eng = engine(&tables, &workload, 64);
        let mut s = Scheduler::new(SchedConfig::default()).unwrap();
        let err = s.run(&mut eng, &workload, |_, _, _, _| {}).unwrap_err();
        assert!(err.to_string().contains("arrival"), "{err}");
    }

    #[test]
    fn two_runs_are_bit_identical() {
        let (tables, workload) = setup(3, ArrivalProcess::bursty(200_000.0, 5));
        let cfg = SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 50_000,
            queue_cap: 64,
            policy: OverloadPolicy::ShedOldest,
        };
        let mut reports = Vec::new();
        let mut pooled_sums = Vec::new();
        for _ in 0..2 {
            let mut eng = engine(&tables, &workload, 32);
            let mut s = Scheduler::new(cfg).unwrap();
            let mut sum = 0.0f64;
            let r = s
                .run(&mut eng, &workload, |_, _, pooled, _| {
                    for m in pooled {
                        sum += m.as_slice().iter().map(|&v| v as f64).sum::<f64>();
                    }
                })
                .unwrap();
            reports.push(r);
            pooled_sums.push(sum);
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(pooled_sums[0].to_bits(), pooled_sums[1].to_bits());
    }

    #[test]
    fn low_load_forms_deadline_batches_and_completes_everything() {
        let (tables, workload) = setup(1, ArrivalProcess::poisson(COLD_QPS, 2));
        let mut eng = engine(&tables, &workload, 64);
        let mut s = Scheduler::new(SchedConfig::default()).unwrap();
        let r = s.run(&mut eng, &workload, |_, _, _, _| {}).unwrap();
        assert_eq!(r.completed, r.requests);
        assert_eq!(r.shed + r.rejected, 0);
        assert_eq!(r.trigger_size, 0, "1k qps never fills a 64-batch");
        assert!(r.trigger_deadline > 0);
        assert!(r.mean_batch_size < 8.0, "got {}", r.mean_batch_size);
        // Latency is bounded by wait deadline + service.
        assert!(r.p50_latency_ns < 1_000_000.0, "{}", r.p50_latency_ns);
        // Histogram mass equals batch count.
        let hist_total: u64 = s.batch_histogram().iter().sum();
        assert_eq!(hist_total, r.batches);
    }

    #[test]
    fn overload_sheds_rejects_or_blocks_per_policy() {
        let (tables, workload) = setup(3, ArrivalProcess::poisson(HOT_QPS, 3));
        let base = SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 100_000,
            queue_cap: 48,
            policy: OverloadPolicy::ShedOldest,
        };

        let mut eng = engine(&tables, &workload, 32);
        let mut s = Scheduler::new(base).unwrap();
        let shed = s.run(&mut eng, &workload, |_, _, _, _| {}).unwrap();
        assert!(shed.shed > 0, "saturation must shed: {shed:?}");
        assert_eq!(shed.completed + shed.shed, shed.requests);
        assert_eq!(shed.rejected, 0);
        assert!(shed.trigger_size > 0);

        let mut eng = engine(&tables, &workload, 32);
        let mut s = Scheduler::new(SchedConfig {
            policy: OverloadPolicy::RejectNew,
            ..base
        })
        .unwrap();
        let rej = s.run(&mut eng, &workload, |_, _, _, _| {}).unwrap();
        assert!(rej.rejected > 0);
        assert_eq!(rej.completed + rej.rejected, rej.requests);
        assert_eq!(rej.shed, 0);

        let mut eng = engine(&tables, &workload, 32);
        let mut s = Scheduler::new(SchedConfig {
            policy: OverloadPolicy::Block,
            ..base
        })
        .unwrap();
        let blk = s.run(&mut eng, &workload, |_, _, _, _| {}).unwrap();
        assert_eq!(blk.completed, blk.requests, "block drops nothing");
        assert!(blk.blocked > 0, "saturation must block: {blk:?}");
        assert!(
            blk.max_latency_ns > shed.max_latency_ns,
            "blocking trades latency for completeness: {} vs {}",
            blk.max_latency_ns,
            shed.max_latency_ns
        );
    }

    #[test]
    fn queue_never_exceeds_cap_and_batches_never_exceed_max() {
        let (tables, workload) = setup(2, ArrivalProcess::bursty(HOT_QPS / 4.0, 9));
        let cfg = SchedConfig {
            max_batch_size: 16,
            max_wait_ns: 30_000,
            queue_cap: 24,
            policy: OverloadPolicy::ShedOldest,
        };
        let mut eng = engine(&tables, &workload, 16);
        let mut s = Scheduler::new(cfg).unwrap();
        let r = s
            .run(&mut eng, &workload, |_, ids, pooled, _| {
                assert!(!ids.is_empty() && ids.len() <= 16);
                assert_eq!(pooled[0].rows(), ids.len());
            })
            .unwrap();
        assert!(r.queue_high_water <= 24, "{}", r.queue_high_water);
        assert!(
            s.batch_histogram()[17..].iter().all(|&c| c == 0),
            "no batch above max_batch_size"
        );
    }

    #[test]
    fn refuses_arrivals_past_the_picosecond_clock() {
        use updlrm_core::MAX_WHOLE_NS;
        // The trace reader refuses the same stamps.
        assert_eq!(workloads::MAX_ARRIVAL_NS, MAX_WHOLE_NS);
        let trace = |last| workloads::ArrivalTrace {
            times_ns: vec![0, last],
            ..Default::default()
        };
        let cfg = SchedConfig::default();
        assert!(check_servable(&cfg, &trace(MAX_WHOLE_NS), 64).is_ok());
        let err = check_servable(&cfg, &trace(MAX_WHOLE_NS + 1), 64).unwrap_err();
        assert!(err.to_string().contains("range"), "{err}");
    }

    #[test]
    fn policy_strings_round_trip() {
        for p in [
            OverloadPolicy::Block,
            OverloadPolicy::ShedOldest,
            OverloadPolicy::RejectNew,
        ] {
            let parsed: OverloadPolicy = p.as_str().parse().unwrap();
            assert_eq!(parsed, p);
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert!("drop-all".parse::<OverloadPolicy>().is_err());
    }

    #[test]
    fn replanner_migrates_under_hot_set_rotation() {
        // A UPWL v3 rotating-hot-set trace driven through the event
        // loop: the between-batch tick must trigger replans, complete
        // migrations, and leave every pooled embedding bit-identical
        // to the static engine's (integer tables make sums exact).
        use updlrm_core::ReplanPolicy;
        use workloads::{DriftSchedule, HotSetRotation};

        let spec = DatasetSpec::goodreads().scaled_down(5000);
        let drift = DriftSchedule {
            rotation: Some(HotSetRotation {
                num_sets: 4,
                set_size: 64,
                period_ns: 2_000_000,
                hot_fraction: 0.8,
            }),
            spikes: Vec::new(),
            diurnal: None,
        };
        let workload = Workload::generate_drifting(
            &spec,
            TraceConfig {
                num_tables: 2,
                num_batches: 10,
                ..TraceConfig::default()
            },
            drift,
            // Cold enough that the engine is always free at each batch
            // deadline: batch formation is then a pure function of the
            // arrival trace, identical across both engines, so the
            // pooled bit streams are comparable one-to-one.
            ArrivalProcess::poisson(COLD_QPS, 11),
        );
        let tables: Vec<EmbeddingTable> = (0..2)
            .map(|t| {
                EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap()
            })
            .collect();
        let cfg = SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 100_000,
            queue_cap: 256,
            policy: OverloadPolicy::Block,
        };
        let run = |replan: ReplanPolicy| {
            let config = UpdlrmConfig {
                batch_size: 32,
                telemetry: true,
                replan,
                ..UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform)
            };
            let mut eng = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
            let mut bits: Vec<u32> = Vec::new();
            let mut s = Scheduler::new(cfg).unwrap();
            let report = s
                .run(&mut eng, &workload, |_, _, pooled, _| {
                    for m in pooled {
                        bits.extend(m.as_slice().iter().map(|v| v.to_bits()));
                    }
                })
                .unwrap();
            (bits, report, eng.metrics_snapshot().drift)
        };

        let (_, _, static_drift) = run(ReplanPolicy::Off);
        let (bits_a, report_a, drift) = run(ReplanPolicy::Periodic { every_batches: 8 });
        let (bits_b, report_b, drift_b) = run(ReplanPolicy::Periodic { every_batches: 8 });

        // The static control never touches the drift machinery.
        assert_eq!(static_drift, Default::default());
        // The replanner really ran: replans triggered, at least one
        // migration flipped, at a recorded modeled instant.
        assert!(drift.replans_triggered >= 1, "{drift:?}");
        assert!(drift.migrations_completed >= 1, "{drift:?}");
        assert!(drift.last_flip_ns > 0);
        // And the whole run — batch formation, pooled embeddings,
        // drift counters — is bit-identical across repeats even with
        // migrations interleaved into the event loop.
        assert_eq!(report_a, report_b);
        assert_eq!(bits_a, bits_b);
        assert_eq!(drift, drift_b);
    }
}
