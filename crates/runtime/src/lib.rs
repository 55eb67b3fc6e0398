//! # runtime — wall-clock concurrent serving, locked to the modeled oracle
//!
//! The `scheduler` crate answers *"what should an open-loop serving
//! front-end do"* on modeled time; this crate actually **does it on a
//! real clock**, with real threads:
//!
//! ```text
//!   ingest thread          batcher (caller's thread)       shard workers
//!  ───────────────        ──────────────────────────      ───────────────
//!   replay UPWL      ──▶   BatchPolicy admission      ──▶  engine 0
//!   arrivals in       SPSC  + launch triggers          SPSC engine 1
//!   (scaled) wall ns  ring  (same core as the          ring   ...
//!                           modeled event loop)        ◀──  completions
//! ```
//!
//! * the **ingest** thread replays the workload's arrival trace in real
//!   nanoseconds (optionally stretched by `time_scale`) and pushes
//!   `(id, arrival_ns)` into a bounded SPSC ring;
//! * the **batcher** drives the exact same clock-agnostic
//!   [`BatchPolicy`] and [`Tally`] the discrete-event scheduler uses —
//!   admission, overload policy, launch triggers and report statistics
//!   are one implementation, not a reimplementation — and dispatches
//!   formed batches round-robin to the shard rings;
//! * each **worker** owns one [`UpdlrmEngine`] shard and serves each
//!   batch as `Scheduler::run` does, through
//!   [`serve_step`](UpdlrmEngine::serve_step): it ticks the engine to
//!   the batch's launch instant with the batcher's counts so far, and
//!   leaves the batch's kernels in flight — on the engine's DPU worker
//!   when the process may use two or more cores — while it takes the
//!   next batch off its ring. When the ring is empty it flushes
//!   ([`serve_flush`](UpdlrmEngine::serve_flush)), so a lone batch
//!   completes at once. Each completed batch's pooled embeddings,
//!   modeled breakdown and *measured* wall time go back on a completion
//!   ring.
//!
//! All rings are the SPSC rings of [`mod@ring`] — std's bounded channel,
//! so a slow stage exerts backpressure instead of growing a queue.
//!
//! ## The oracle lock
//!
//! In **deterministic mode** ([`RuntimeConfig::deterministic`]) no wall
//! clock enters any decision: the batcher *is* the scheduler's
//! [`EventLoop`], fed from the arrival ring (whose blocking pop gives
//! the loop its one-arrival lookahead) and served in lockstep — each
//! batch is dispatched to its shard and awaited before modeled time
//! advances, and its stage times go to the loop's depth-2 pipeline
//! clock, so modeled batches overlap exactly as under the scheduler
//! while the host runs one at a time. The result is
//! **byte-identical batches, pooled embeddings and `SchedReport`** to
//! [`Scheduler::run`](scheduler::Scheduler::run) on the same trace —
//! `tests/differential.rs` enforces it. That lock is what makes the
//! wall-clock mode trustworthy: the concurrency is proven not to change
//! the semantics, only the clock.
//!
//! In **wall mode** the batcher reads a monotonic clock (mapped to
//! modeled ns by `time_scale`), arrivals land when the ingest thread
//! actually delivers them, and shards drain concurrently. Measured
//! per-request latency is `completion_wall − ideal_arrival_wall` (the
//! open-loop convention — queueing caused by a lagging ingest counts,
//! so coordinated omission cannot hide overload). Where wall time may
//! diverge from the model: OS scheduling jitter, sleep granularity,
//! host CPU contention between shards, and ring backpressure — see
//! DESIGN.md §4.8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ring;

use std::sync::mpsc::{TryRecvError, TrySendError};
use std::time::Instant;

use dlrm_model::{Matrix, QueryBatch};
use scheduler::{
    assemble_into, check_servable, BatchPolicy, EventLoop, Launch, SchedConfig, SchedReport, Serve,
    Tally,
};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::pipeline::Step;
use updlrm_core::{
    CoreError, Ps, Result, RuntimeSnapshot, SchedSnapshot, SchedTrigger, UpdlrmEngine,
};
use workloads::{Workload, NS_PER_SEC};

pub use ring::{ring, Consumer, Producer};

/// How the wall-clock runtime is shaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Batcher and admission-queue parameters — the same values drive
    /// the modeled oracle, so the two are directly comparable.
    pub sched: SchedConfig,
    /// Engine shards (worker threads). Each shard needs its own
    /// engine; identical engines make dispatch-order
    /// invisible in the pooled outputs.
    pub shards: usize,
    /// Wall nanoseconds per modeled nanosecond during trace replay.
    /// `1.0` replays in real time; `10.0` stretches a 1 ms modeled
    /// trace over 10 ms of wall time (useful when modeled service is
    /// far cheaper than the simulator's host cost of computing it).
    pub time_scale: f64,
    /// Replay modeled time in lockstep instead of reading the wall
    /// clock — the oracle-locked mode (see the module docs).
    pub deterministic: bool,
    /// Slots per SPSC ring (arrival ring and each shard's work /
    /// completion rings). A shard holds at most `ring_capacity + 2`
    /// batches in flight: its queued work, the batch its worker is
    /// stepping and the batch that step's predecessor left on the
    /// engine.
    pub ring_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            sched: SchedConfig::default(),
            shards: 1,
            time_scale: 1.0,
            deterministic: false,
            ring_capacity: 64,
        }
    }
}

impl RuntimeConfig {
    /// Checks the parameters for internal consistency.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on an invalid [`SchedConfig`], zero
    /// shards, zero ring capacity, or a non-finite / non-positive
    /// `time_scale`.
    pub fn validate(&self) -> Result<()> {
        self.sched.validate()?;
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig("shards must be >= 1".into()));
        }
        if self.ring_capacity == 0 {
            return Err(CoreError::InvalidConfig(
                "ring_capacity must be >= 1".into(),
            ));
        }
        if !self.time_scale.is_finite() || self.time_scale <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "time_scale must be finite and > 0, got {}",
                self.time_scale
            )));
        }
        Ok(())
    }
}

/// Wall-clock measurements of one [`Runtime::run`], alongside the
/// modeled quantities they correspond to. All fields are finite.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WallStats {
    /// Wall time from runtime start to the last completion (ns).
    pub wall_elapsed_ns: f64,
    /// Completed requests per second of wall time.
    pub measured_qps: f64,
    /// Sum of modeled pipeline walls across all batches (ns) — what the
    /// oracle says the engine work took.
    pub modeled_service_ns: f64,
    /// Sum of the shards' measured `serve_step` and `serve_flush` wall
    /// times (ns) — what the host actually spent computing the batches.
    /// A step's wall holds the tail of the batch it completes and the
    /// head of the batch it starts.
    pub measured_service_ns: f64,
    /// The `time_scale` the trace was replayed under.
    pub time_scale: f64,
}

/// Everything one [`Runtime::run`] produced.
///
/// In deterministic mode `sched` is byte-identical to the modeled
/// oracle's report. In wall mode the counter fields (admitted, shed,
/// triggers, …) are exact, while the time statistics (`makespan_ns`,
/// `achieved_qps`, the latency quantiles) are **measured wall
/// nanoseconds** — the modeled-vs-measured comparison lives in
/// [`WallStats`] and the caller's oracle run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Scheduling outcome (see the struct docs for which clock each
    /// field is on).
    pub sched: SchedReport,
    /// Wall-clock measurements. In deterministic mode the latency-free
    /// subset (elapsed, qps, service sums) is still measured; it
    /// reflects host compute cost, not the modeled timeline.
    pub wall: WallStats,
    /// Batches each shard executed (`len() == shards`).
    pub batches_per_shard: Vec<u64>,
    /// `histogram[k]` = batches formed with exactly `k` queries.
    pub batch_histogram: Vec<u64>,
}

/// A formed batch on its way to a shard worker.
struct WorkItem {
    seq: usize,
    /// Launch instant in modeled time, for the engine's between-batch
    /// tick.
    launch: Ps,
    /// The batcher's tally at the launch, for the same tick: a
    /// mid-migration snapshot it takes carries the run's counts so far.
    counts: SchedSnapshot,
    ids: Vec<u32>,
    batch: QueryBatch,
}

/// What a shard worker sends back per executed batch.
struct Done {
    seq: usize,
    ids: Vec<u32>,
    pooled: Vec<Matrix>,
    breakdown: EmbeddingBreakdown,
    /// Measured wall of the shard's `serve_step` / `serve_flush` calls
    /// since its previous completion, this one's included (ns).
    service_wall_ns: u64,
    /// Wall instant (ns since runtime start) the batch finished.
    done_wall_ns: u64,
}

type Completion = Result<Done>;

/// The wall-clock concurrent serving runtime. Stateless between runs;
/// holds only the validated configuration.
#[derive(Debug, Clone)]
pub struct Runtime {
    cfg: RuntimeConfig,
}

impl Runtime {
    /// Creates a runtime from a validated configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `cfg` fails
    /// [`RuntimeConfig::validate`].
    pub fn new(cfg: RuntimeConfig) -> Result<Runtime> {
        cfg.validate()?;
        Ok(Runtime { cfg })
    }

    /// The configuration this runtime serves under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Serves `workload`'s arrival trace through `engines` (one per
    /// shard). Each worker ticks its engine at the batch's launch
    /// instant before serving it, so an engine with an online replanner
    /// migrates exactly as it does under the modeled scheduler.
    /// `sink(batch_seq, query_ids, pooled, breakdown)` fires once per
    /// executed batch on the calling thread — in launch order when
    /// deterministic, in completion order otherwise. Once the threads
    /// have joined, the run's scheduler counters and its runtime
    /// measurements are recorded in shard 0's telemetry registry.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the workload has no arrival
    /// trace, `engines.len() != shards`, or any engine cannot take
    /// `max_batch_size` batches; [`CoreError::Invariant`] if a worker
    /// dies or modeled time runs backwards; engine errors propagate.
    pub fn run<F>(
        &self,
        engines: &mut [UpdlrmEngine],
        workload: &Workload,
        sink: F,
    ) -> Result<RuntimeReport>
    where
        F: FnMut(usize, &[u32], &[Matrix], &EmbeddingBreakdown),
    {
        let cfg = self.cfg;
        let trace = &workload.arrivals;
        if engines.len() != cfg.shards {
            return Err(CoreError::InvalidConfig(format!(
                "runtime configured for {} shards but {} engines supplied",
                cfg.shards,
                engines.len()
            )));
        }
        for engine in engines.iter() {
            check_servable(&cfg.sched, trace, engine.staged_batch_capacity())?;
        }
        // The shards are host-side replicas of one modeled fleet, and a
        // fleet fills its DPUs' WRAM-resident rows once: batch 0 goes to
        // shard 0, which pays for it on the modeled clock; the others
        // start out filled.
        for replica in engines.iter_mut().skip(1) {
            replica.prefill_resident()?;
        }
        let start = Instant::now();
        let (report, counts) = std::thread::scope(|s| -> Result<_> {
            let (arrival_tx, mut arrival_rx) = ring::<(u32, u64)>(cfg.ring_capacity);
            let mut work_txs = Vec::with_capacity(cfg.shards);
            let mut done_rxs = Vec::with_capacity(cfg.shards);
            for engine in engines.iter_mut() {
                let (work_tx, work_rx) = ring::<WorkItem>(cfg.ring_capacity);
                let (done_tx, done_rx) = ring::<Completion>(cfg.ring_capacity);
                work_txs.push(work_tx);
                done_rxs.push(done_rx);
                s.spawn(move || shard_worker(engine, work_rx, done_tx, start));
            }
            s.spawn(move || ingest(&trace.times_ns, cfg, start, arrival_tx));
            // The batcher runs right here on the caller's thread, so the
            // sink needs no `Send` bound and fires where the caller
            // expects it.
            let mut b = Batcher {
                cfg,
                workload,
                work_txs,
                done_rxs,
                start,
                sink,
                batches_per_shard: vec![0; cfg.shards],
                modeled_service_ns: 0.0,
                measured_service_ns: 0.0,
                awaited: None,
            };
            let (mut tally, makespan) = if cfg.deterministic {
                // The oracle-locked mode is the modeled scheduler's own
                // loop: arrivals off the ring, batches served in
                // lockstep (see `impl Serve for Batcher`).
                let mut core = EventLoop::new(cfg.sched)?;
                let makespan = core.run(trace, || arrival_rx.pop_blocking(), &mut b)?;
                (core.tally, makespan)
            } else {
                b.run_wall(&mut arrival_rx)?
            };
            let sched = tally.finish(makespan);
            let wall_elapsed_ns = start.elapsed().as_nanos() as f64;
            let report = RuntimeReport {
                wall: WallStats {
                    wall_elapsed_ns,
                    measured_qps: if wall_elapsed_ns > 0.0 {
                        sched.completed as f64 * NS_PER_SEC / wall_elapsed_ns
                    } else {
                        0.0
                    },
                    modeled_service_ns: b.modeled_service_ns,
                    measured_service_ns: b.measured_service_ns,
                    time_scale: cfg.time_scale,
                },
                sched,
                batches_per_shard: b.batches_per_shard,
                batch_histogram: tally.histogram().to_vec(),
            };
            Ok((report, tally.snapshot()))
        })?;
        // The workers have handed the engines back: record the run.
        let metrics = engines[0].metrics_mut();
        metrics.record_sched(&counts);
        metrics.record_runtime(RuntimeSnapshot {
            shards: cfg.shards as u64,
            deterministic: cfg.deterministic,
            time_scale: cfg.time_scale,
            wall_elapsed_ns: report.wall.wall_elapsed_ns,
            measured_qps: report.wall.measured_qps,
            modeled_service_ns: report.wall.modeled_service_ns,
            measured_service_ns: report.wall.measured_service_ns,
            measured_p50_latency_ns: report.sched.p50_latency_ns,
            measured_p95_latency_ns: report.sched.p95_latency_ns,
            measured_p99_latency_ns: report.sched.p99_latency_ns,
        });
        Ok(report)
    }
}

/// Replays the arrival trace into the arrival ring: paced to the
/// (scaled) wall clock, or as fast as backpressure allows when
/// deterministic. Exits early if the batcher is gone.
fn ingest(times: &[u64], cfg: RuntimeConfig, start: Instant, mut tx: Producer<(u32, u64)>) {
    for (id, &at_ns) in times.iter().enumerate() {
        if !cfg.deterministic {
            sleep_until(start, modeled_to_wall(at_ns, cfg.time_scale));
        }
        if tx.push_blocking((id as u32, at_ns)).is_err() {
            return;
        }
    }
    // Dropping `tx` is the end-of-stream signal.
}

/// One shard, the runtime's counterpart of `Scheduler::run`'s serving
/// loop: each batch goes through `serve_step`, which ticks the engine to
/// the batch's launch instant and leaves its kernels in flight — on the
/// engine's DPU worker where there is one — while this thread takes the
/// next batch. Whenever the work ring is empty the worker flushes, so a
/// lone batch completes at once. Exits on end-of-stream, on engine error
/// (after reporting it), or when the batcher is gone.
fn shard_worker(
    engine: &mut UpdlrmEngine,
    mut work_rx: Consumer<WorkItem>,
    done_tx: Producer<Completion>,
    start: Instant,
) {
    let mut shard = Shard {
        engine,
        done_tx,
        start,
        ahead: None,
        unbooked_ns: 0,
    };
    let mut next = work_rx.pop_blocking();
    while let Some(item) = next {
        if !shard.serve(Some(item)) {
            break;
        }
        next = work_rx.try_pop();
        if next.is_none() {
            if !shard.serve(None) {
                break;
            }
            next = work_rx.pop_blocking();
        }
    }
    // A worker whose batcher is gone may stop with a batch in flight:
    // the engine goes back idle.
    let _ = shard.engine.serve_flush(|_, _| {});
}

/// A shard worker's engine and the batch it holds in flight.
struct Shard<'e> {
    engine: &'e mut UpdlrmEngine,
    done_tx: Producer<Completion>,
    start: Instant,
    /// Seq and ids of the batch the last step left in flight: the rows
    /// the next step or flush lends its sink are this batch's.
    ahead: Option<(usize, Vec<u32>)>,
    /// Wall of the steps and flushes since the last completion (ns),
    /// charged to the next one.
    unbooked_ns: u64,
}

impl Shard<'_> {
    /// Steps `item` through the engine — with none, flushes it — and
    /// sends the batch that call completed, if any, or its error.
    /// Returns whether the worker goes on.
    fn serve(&mut self, item: Option<WorkItem>) -> bool {
        let t0 = Instant::now();
        let mut rows = None;
        let sink = |p: &[Matrix], bd: &EmbeddingBreakdown| rows = Some((p.to_vec(), *bd));
        let (res, completed) = match item {
            Some(item) => (
                self.engine
                    .serve_step(item.launch, item.counts, &item.batch, sink)
                    .map(drop),
                self.ahead.replace((item.seq, item.ids)),
            ),
            None => (self.engine.serve_flush(sink).map(drop), self.ahead.take()),
        };
        self.unbooked_ns += t0.elapsed().as_nanos() as u64;
        let msg = match (res, rows) {
            (Ok(()), None) => return true,
            (Ok(()), Some((pooled, breakdown))) => {
                let (seq, ids) = completed.expect("rows come back only for a batch in flight");
                Ok(Done {
                    seq,
                    ids,
                    pooled,
                    breakdown,
                    service_wall_ns: std::mem::take(&mut self.unbooked_ns),
                    done_wall_ns: self.start.elapsed().as_nanos() as u64,
                })
            }
            (Err(e), _) => Err(e),
        };
        let failed = msg.is_err();
        self.done_tx.push_blocking(msg).is_ok() && !failed
    }
}

/// Modeled ns → wall ns under `time_scale`.
fn modeled_to_wall(modeled_ns: u64, time_scale: f64) -> u64 {
    (modeled_ns as f64 * time_scale) as u64
}

/// Sleeps until `target_ns` of wall time since `start`, using coarse
/// sleeps far out and yields close in (the CI container has one CPU —
/// a hard spin would starve the threads this one is waiting on).
fn sleep_until(start: Instant, target_ns: u64) {
    loop {
        let elapsed = start.elapsed().as_nanos() as u64;
        if elapsed >= target_ns {
            return;
        }
        let remaining = target_ns - elapsed;
        if remaining > 500_000 {
            std::thread::sleep(std::time::Duration::from_nanos(remaining / 2));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The batcher's transport and accounting, shared by both modes: shard
/// rings on the far side, the caller's sink, and the measured-vs-modeled
/// service sums [`WallStats`] reports.
struct Batcher<'a, F> {
    cfg: RuntimeConfig,
    workload: &'a Workload,
    work_txs: Vec<Producer<WorkItem>>,
    done_rxs: Vec<Consumer<Completion>>,
    start: Instant,
    sink: F,
    batches_per_shard: Vec<u64>,
    modeled_service_ns: f64,
    measured_service_ns: f64,
    /// Stages 2 and 3 of the batch the oracle-locked mode served last,
    /// reported to the loop with the next launch or the flush.
    awaited: Option<(Ps, Ps)>,
}

/// What the free-running mode tracks on top of [`Batcher`]: the report
/// tally and the batches currently out at the shards.
struct InFlight {
    tally: Tally,
    /// Launch triggers of in-flight batches, keyed by seq because
    /// completions arrive out of order across shards. Bounded by the
    /// rings, so linear scans are fine.
    triggers: Vec<(usize, SchedTrigger)>,
    last_done_wall: u64,
}

impl<F> Batcher<'_, F>
where
    F: FnMut(usize, &[u32], &[Matrix], &EmbeddingBreakdown),
{
    /// Assembles `launch` into a fresh [`WorkItem`] that carries the
    /// tally's `counts` at the launch.
    fn make_item(&self, launch: &Launch<'_>, counts: SchedSnapshot) -> WorkItem {
        let mut batch = QueryBatch {
            sparse: vec![Default::default(); self.workload.config.num_tables],
            ..Default::default()
        };
        assemble_into(self.workload, launch.ids, &mut batch);
        WorkItem {
            seq: launch.seq,
            launch: launch.at,
            counts,
            ids: launch.ids.to_vec(),
            batch,
        }
    }

    fn worker_gone(shard: usize, seq: usize, stage: &str) -> CoreError {
        CoreError::Invariant(format!(
            "shard {shard} worker exited before batch {seq} {stage}"
        ))
    }

    /// Books an executed batch's service walls and hands it to the
    /// sink. Counters and latencies are the tally's business (the two
    /// modes measure them on different clocks).
    fn book(&mut self, done: &Done) {
        self.modeled_service_ns += done.breakdown.total_ns();
        self.measured_service_ns += done.service_wall_ns as f64;
        (self.sink)(done.seq, &done.ids, &done.pooled, &done.breakdown);
    }

    /// Wall-mode dispatch. While the shard's work ring is full it waits
    /// on that shard's completion ring, books the completion and tries
    /// again. That wait cannot deadlock: a full work ring holds a batch
    /// the worker has yet to step, and every batch it steps comes back
    /// as a completion (from the next step, or the flush once the ring
    /// is empty) — unless the worker exits first, having pushed its
    /// engine error, or the batcher is gone. A blocked completion push
    /// is no cycle either: it means the ring being waited on is
    /// non-empty. A worker that is gone pushed its engine error before
    /// it exited, so that shard's completions are booked first and the
    /// invariant error is only the fallback.
    fn dispatch_wall(
        &mut self,
        fl: &mut InFlight,
        launch: &Launch<'_>,
        trigger: SchedTrigger,
    ) -> Result<()> {
        let shard = launch.seq % self.cfg.shards;
        fl.triggers.push((launch.seq, trigger));
        let mut item = self.make_item(launch, fl.tally.snapshot());
        loop {
            match self.work_txs[shard].try_send(item) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => item = back,
                Err(TrySendError::Disconnected(_)) => {
                    self.drain_shard(fl, shard)?;
                    return Err(Self::worker_gone(shard, launch.seq, "was dispatched"));
                }
            }
            match self.done_rxs[shard].pop_blocking() {
                Some(msg) => self.book_wall(fl, msg?),
                None => return Err(Self::worker_gone(shard, launch.seq, "was dispatched")),
            }
        }
        self.batches_per_shard[shard] += 1;
        Ok(())
    }

    /// Books every completion currently waiting on any shard's ring
    /// (non-blocking).
    fn drain_completions(&mut self, fl: &mut InFlight) -> Result<()> {
        (0..self.cfg.shards).try_for_each(|shard| self.drain_shard(fl, shard))
    }

    /// Books every completion currently waiting on `shard`'s ring
    /// (non-blocking).
    fn drain_shard(&mut self, fl: &mut InFlight, shard: usize) -> Result<()> {
        while let Some(msg) = self.done_rxs[shard].try_pop() {
            self.book_wall(fl, msg?);
        }
        Ok(())
    }

    /// Books one wall-mode completion: trigger attribution, measured
    /// latency, sink.
    fn book_wall(&mut self, fl: &mut InFlight, done: Done) {
        fl.last_done_wall = fl.last_done_wall.max(done.done_wall_ns);
        let slot = fl
            .triggers
            .iter()
            .position(|&(s, _)| s == done.seq)
            .expect("every dispatched seq has a pending trigger");
        let (_, trigger) = fl.triggers.swap_remove(slot);
        fl.tally.batch(done.ids.len(), trigger);
        self.book(&done);
        let times = &self.workload.arrivals.times_ns;
        for &id in &done.ids {
            // Open-loop latency: measured completion minus *ideal*
            // arrival, so ingest lag counts against us (no coordinated
            // omission).
            let ideal = modeled_to_wall(times[id as usize], self.cfg.time_scale);
            let latency = done.done_wall_ns.saturating_sub(ideal);
            fl.tally.latencies.push(Ps::from_whole_ns(latency));
        }
    }

    /// The wall-clock mode: the batcher polls a monotonic clock (mapped
    /// to modeled ns by `time_scale`), shards drain concurrently, and
    /// latencies are measured, not modeled. Unlike [`EventLoop::run`] it
    /// never blocks on one batch — many are in flight and they are
    /// booked in completion order — so it is its own loop over the same
    /// [`BatchPolicy`] and [`Tally`] — the policy on measured ns, the
    /// tally in ps like every front-end's. Returns the tally and the
    /// measured makespan (the wall instant of the last completion).
    fn run_wall(&mut self, arrival_rx: &mut Consumer<(u32, u64)>) -> Result<(Tally, Ps)> {
        let scale = self.cfg.time_scale;
        let mut policy = BatchPolicy::new(self.cfg.sched)?;
        let mut fl = InFlight {
            tally: Tally::new(self.cfg.sched.max_batch_size),
            triggers: Vec::new(),
            last_done_wall: 0,
        };
        fl.tally.begin(&self.workload.arrivals);
        let mut peeked: Option<(u32, u64)> = None;
        let mut eos = false;
        let mut door_blocked = false;
        let mut seq = 0usize;
        let mut ids = Vec::with_capacity(self.cfg.sched.max_batch_size);

        loop {
            // 1. Drain completions from every shard (non-blocking).
            self.drain_completions(&mut fl)?;

            // 2. Admit whatever the ingest thread has delivered.
            if policy.is_empty() {
                door_blocked = false;
            }
            while !door_blocked {
                if peeked.is_none() {
                    match arrival_rx.try_recv() {
                        Ok(arrival) => peeked = Some(arrival),
                        // Producer gone and ring drained.
                        Err(TryRecvError::Disconnected) => eos = true,
                        Err(TryRecvError::Empty) => {}
                    }
                }
                let Some((id, at)) = peeked else { break };
                if fl.tally.admit(&mut policy, id, at) {
                    peeked = None;
                } else {
                    door_blocked = true;
                }
            }

            let drained = eos && peeked.is_none();
            if policy.is_empty() {
                if drained && fl.triggers.is_empty() {
                    break;
                }
                // Nothing to batch; give ingest / workers real CPU
                // time (on one core a yield loop would fight the very
                // worker whose completion it waits for).
                std::thread::sleep(std::time::Duration::from_micros(50));
                continue;
            }

            // 3. Launch when the policy says so, on the measured clock.
            // `slot_free = 0`: shard availability is expressed by ring
            // backpressure, not by a modeled pipeline clock.
            let now = (self.start.elapsed().as_nanos() as f64 / scale) as u64;
            let plan = policy
                .launch_at(now, 0, drained)
                .expect("queue is nonempty");
            if plan.at_ns <= now {
                policy.take_batch(&mut ids).expect("queue is nonempty");
                let launch = Launch {
                    seq,
                    at: Ps::from_whole_ns(now),
                    ids: &ids,
                };
                self.dispatch_wall(&mut fl, &launch, plan.trigger)?;
                seq += 1;
                door_blocked = false;
            } else {
                // Sleep toward the planned launch, but wake early: a
                // new arrival can pull the launch forward (size
                // trigger) and completions free ring slots.
                let target = modeled_to_wall(plan.at_ns, scale);
                let elapsed = self.start.elapsed().as_nanos() as u64;
                let slice = (target.saturating_sub(elapsed)).min(100_000);
                sleep_until(self.start, elapsed + slice);
            }
        }
        Ok((fl.tally, Ps::from_whole_ns(fl.last_done_wall)))
    }
}

/// The oracle-locked mode's half of [`EventLoop::run`]: each formed
/// batch is dispatched to its round-robin shard and awaited before
/// modeled time advances. Like `Scheduler::run`'s server, it returns
/// the batch's stage 1 and reports its stages 2 and 3 with the next
/// launch or from the flush, so the loop's pipeline clock sees one
/// issue/settle order from every front-end. The host never has more
/// than one batch in flight, so a plain blocking push cannot deadlock.
impl<F> Serve for Batcher<'_, F>
where
    F: FnMut(usize, &[u32], &[Matrix], &EmbeddingBreakdown),
{
    fn serve(&mut self, launch: &Launch<'_>, tally: &Tally) -> Result<Step> {
        let shard = launch.seq % self.cfg.shards;
        let item = self.make_item(launch, tally.snapshot());
        self.work_txs[shard]
            .push_blocking(item)
            .map_err(|_| Self::worker_gone(shard, launch.seq, "was dispatched"))?;
        self.batches_per_shard[shard] += 1;
        let done = self.done_rxs[shard]
            .pop_blocking()
            .ok_or_else(|| Self::worker_gone(shard, launch.seq, "completed"))??;
        debug_assert_eq!(done.seq, launch.seq, "lockstep completion order");
        self.book(&done);
        let stages = done.breakdown.stages();
        Ok(Step {
            settled: self.awaited.replace((stages.s2, stages.s3)),
            s1: stages.s1,
        })
    }

    fn flush(&mut self) -> Result<Option<(Ps, Ps)>> {
        Ok(self.awaited.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(Runtime::new(RuntimeConfig::default()).is_ok());
        assert!(Runtime::new(RuntimeConfig {
            shards: 0,
            ..RuntimeConfig::default()
        })
        .is_err());
        assert!(Runtime::new(RuntimeConfig {
            ring_capacity: 0,
            ..RuntimeConfig::default()
        })
        .is_err());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                Runtime::new(RuntimeConfig {
                    time_scale: bad,
                    ..RuntimeConfig::default()
                })
                .is_err(),
                "time_scale {bad} must be rejected"
            );
        }
    }

    #[test]
    fn dispatch_to_a_gone_worker_returns_its_queued_error() {
        let spec = workloads::DatasetSpec::goodreads().scaled_down(1000);
        let workload = Workload::generate(
            &spec,
            workloads::TraceConfig {
                num_tables: 1,
                num_batches: 1,
                ..Default::default()
            },
        );
        let (work_tx, work_rx) = ring::<WorkItem>(1);
        let (mut done_tx, done_rx) = ring::<Completion>(1);
        let mut b = Batcher {
            cfg: RuntimeConfig::default(),
            workload: &workload,
            work_txs: vec![work_tx],
            done_rxs: vec![done_rx],
            start: Instant::now(),
            sink: |_: usize, _: &[u32], _: &[Matrix], _: &EmbeddingBreakdown| {},
            batches_per_shard: vec![0],
            modeled_service_ns: 0.0,
            measured_service_ns: 0.0,
            awaited: None,
        };
        let mut fl = InFlight {
            tally: Tally::new(64),
            triggers: Vec::new(),
            last_done_wall: 0,
        };
        // A worker that failed: its engine error is queued, then it exits.
        let failed = CoreError::InvalidConfig("engine failed".into());
        assert!(done_tx.try_push(Err(failed)).is_ok());
        drop((work_rx, done_tx));
        let launch = |seq| Launch {
            seq,
            at: Ps::ZERO,
            ids: &[0, 1],
        };
        let err = b
            .dispatch_wall(&mut fl, &launch(0), SchedTrigger::Size)
            .unwrap_err();
        assert!(err.to_string().contains("engine failed"), "{err}");
        // Nothing queued any more: the invariant error is the fallback.
        let err = b
            .dispatch_wall(&mut fl, &launch(1), SchedTrigger::Size)
            .unwrap_err();
        assert!(err.to_string().contains("worker exited"), "{err}");
        assert_eq!(b.batches_per_shard, [0]);
    }

    #[test]
    fn dispatch_to_a_full_ring_waits_for_a_completion_and_books_it() {
        let spec = workloads::DatasetSpec::goodreads().scaled_down(1000);
        let mut workload = Workload::generate(
            &spec,
            workloads::TraceConfig {
                num_tables: 1,
                num_batches: 1,
                ..Default::default()
            },
        );
        workload.stamp_arrivals(workloads::ArrivalProcess::poisson(1_000.0, 3));
        let (work_tx, mut work_rx) = ring::<WorkItem>(1);
        let (mut done_tx, done_rx) = ring::<Completion>(1);
        let mut sunk = Vec::new();
        let mut b = Batcher {
            cfg: RuntimeConfig::default(),
            workload: &workload,
            work_txs: vec![work_tx],
            done_rxs: vec![done_rx],
            start: Instant::now(),
            sink: |seq: usize, ids: &[u32], _: &[Matrix], _: &EmbeddingBreakdown| {
                sunk.push((seq, ids.to_vec()))
            },
            batches_per_shard: vec![0],
            modeled_service_ns: 0.0,
            measured_service_ns: 0.0,
            awaited: None,
        };
        let mut fl = InFlight {
            tally: Tally::new(64),
            triggers: vec![(0, SchedTrigger::Size)],
            last_done_wall: 0,
        };
        let launch = |seq, ids| Launch {
            seq,
            at: Ps::ZERO,
            ids,
        };
        // Batch 0 fills the one-slot work ring.
        let queued = b.make_item(&launch(0, &[0, 1]), fl.tally.snapshot());
        assert!(b.work_txs[0].try_push(queued).is_ok());
        const SLOW: std::time::Duration = std::time::Duration::from_millis(30);
        let sent = std::thread::scope(|s| {
            // Read before the spawn: the worker's sleep starts after it.
            let t0 = Instant::now();
            // A slow but live worker: takes batch 0, completes it, then
            // takes whatever comes next.
            let worker = s.spawn(move || {
                std::thread::sleep(SLOW);
                let first = work_rx.pop_blocking().expect("batch 0 is queued");
                let done = Done {
                    seq: first.seq,
                    ids: first.ids,
                    pooled: Vec::new(),
                    breakdown: EmbeddingBreakdown::default(),
                    service_wall_ns: 7,
                    done_wall_ns: 11,
                };
                assert!(done_tx.try_push(Ok(done)).is_ok());
                work_rx.pop_blocking().expect("batch 1 follows").seq
            });
            b.dispatch_wall(&mut fl, &launch(1, &[2]), SchedTrigger::Deadline)
                .unwrap();
            assert!(t0.elapsed() >= SLOW, "the dispatch waited for the worker");
            worker.join().unwrap()
        });
        assert_eq!(sent, 1, "batch 1 went out after batch 0 came back");
        assert_eq!(b.batches_per_shard, [1]);
        assert_eq!(b.measured_service_ns, 7.0);
        drop(b);
        assert_eq!(sunk, [(0, vec![0, 1])], "the sink fired once, for batch 0");
        assert_eq!(fl.triggers, [(1, SchedTrigger::Deadline)]);
        assert_eq!(fl.last_done_wall, 11);
        assert_eq!(fl.tally.latencies.len(), 2);
    }

    #[test]
    fn modeled_to_wall_scales() {
        assert_eq!(modeled_to_wall(1_000, 1.0), 1_000);
        assert_eq!(modeled_to_wall(1_000, 2.5), 2_500);
        assert_eq!(modeled_to_wall(0, 10.0), 0);
    }
}
