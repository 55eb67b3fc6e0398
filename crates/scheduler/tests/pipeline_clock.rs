//! The event loop times batches on the engine's depth-2 pipeline: the
//! one `PipelineClock` recurrence `serve_stream` uses for a closed loop,
//! on the one picosecond clock.
//!
//! 1. **Differential, scripted** — an `EventLoop` fed a closed-loop
//!    trace (every arrival at 0, size-triggered full batches) drains
//!    each batch exactly where `pipelined_schedule` (through
//!    `pipelined_wall` and the clock itself) says, over random integer
//!    stage triples that cover bus-bound and DPU-bound mixes, with its
//!    server leaving each batch in flight until the next serve or the
//!    flush.
//! 2. **Differential, engine** — the same closed loop with real stage
//!    times: `serve_stream` over a batch stream on one engine, and the
//!    `EventLoop` over the same requests, all arriving at 0, on a twin
//!    engine served through `serve_step`. Every batch issues and
//!    drains at the same integer instant on both, and the walls are
//!    equal.
//! 3. **Replans stay safe** — at `periodic:1` on a saturated drifting
//!    trace served through `serve_step`, no migration scatter begins
//!    before every batch that read the region it writes has drained,
//!    and no tick both flips and begins a scatter.

use dlrm_model::{EmbeddingTable, QueryBatch};
use proptest::prelude::*;
use scheduler::{assemble_into, EventLoop, Launch, OverloadPolicy, SchedConfig, Serve, Tally};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::pipeline::{Drained, PipelineClock, Stages, Step};
use updlrm_core::{
    pipelined_wall, PartitionStrategy, Ps, ReplanPolicy, Result, UpdlrmConfig, UpdlrmEngine,
};
use workloads::{
    ArrivalProcess, ArrivalTrace, DatasetSpec, DriftSchedule, HotSetRotation, TraceConfig, Workload,
};

/// Serves batch `seq` with the `seq`-th stage triple, leaving its
/// stages 2 and 3 to the next serve or the flush.
struct InFlight(Vec<Stages>, Option<usize>);

impl InFlight {
    fn tail(&self, seq: Option<usize>) -> Option<(Ps, Ps)> {
        seq.map(|k| (self.0[k].s2, self.0[k].s3))
    }
}

impl Serve for InFlight {
    fn serve(&mut self, launch: &Launch<'_>, _: &Tally) -> Result<Step> {
        let ahead = self.1.replace(launch.seq);
        let settled = self.tail(ahead);
        Ok(Step {
            settled,
            s1: self.0[launch.seq].s1,
        })
    }

    fn flush(&mut self) -> Result<Option<(Ps, Ps)>> {
        let ahead = self.1.take();
        Ok(self.tail(ahead))
    }
}

/// `batches` full batches of `batch` requests, every one arriving at 0,
/// through an event loop serving with `server`. Returns the loop's
/// makespan and its sorted per-request latencies — each request's drain,
/// since it arrived at 0.
fn closed_loop_through_the_event_loop<S: Serve>(
    batches: usize,
    batch: usize,
    server: &mut S,
) -> (Ps, Vec<Ps>) {
    let n = batches * batch;
    let trace = ArrivalTrace {
        times_ns: vec![0; n],
        ..ArrivalTrace::default()
    };
    let mut core = EventLoop::new(SchedConfig {
        max_batch_size: batch,
        max_wait_ns: 1,
        queue_cap: n.max(1),
        policy: OverloadPolicy::Block,
    })
    .unwrap();
    let mut arrivals = (0u32..).zip(trace.times_ns.clone());
    let makespan = core.run(&trace, || arrivals.next(), server).unwrap();
    assert_eq!(core.tally.histogram()[batch] as usize, batches);
    let mut latencies = core.tally.latencies.clone();
    latencies.sort_unstable();
    (makespan, latencies)
}

/// Every batch as the clock places it when each is pushed at its
/// `(launch, stages)`, in batch order.
fn placed(pushes: impl IntoIterator<Item = (Ps, Stages)>) -> Vec<Drained> {
    let mut clock = PipelineClock::default();
    let mut out: Vec<Drained> = pushes
        .into_iter()
        .filter_map(|(at, s)| clock.push(at, s))
        .collect();
    out.extend(clock.finish());
    out
}

/// Each batch's drain, once per request of a `batch`-request batch,
/// sorted: what the loop's tally books when every request arrives at 0.
fn per_request(drains: &[Drained], batch: usize) -> Vec<Ps> {
    let mut want: Vec<Ps> = drains
        .iter()
        .flat_map(|d| std::iter::repeat_n(d.drain, batch))
        .collect();
    want.sort_unstable();
    want
}

/// Asserts the event loop drains every batch where the closed-loop
/// recurrence does, with each batch left in flight until the next serve.
fn assert_loop_equals_recurrence(stages: &[Stages], batch: usize) {
    let n = stages.len();
    let mut in_flight = InFlight(stages.to_vec(), None);
    let (makespan, latencies) = closed_loop_through_the_event_loop(n, batch, &mut in_flight);
    assert_eq!(in_flight.1, None, "the loop flushed the last batch");
    let breakdowns: Vec<EmbeddingBreakdown> = stages
        .iter()
        .map(|s| EmbeddingBreakdown {
            stage1: s.s1,
            stage2: s.s2,
            stage3: s.s3,
            ..Default::default()
        })
        .collect();
    // The closed loop feeds the clock every batch at instant 0.
    let drains = placed(stages.iter().map(|&s| (Ps::ZERO, s)));
    assert_eq!(latencies, per_request(&drains, batch), "per-batch drains");
    assert_eq!(makespan, drains.last().map_or(Ps::ZERO, |d| d.drain));
    assert_eq!(makespan, pipelined_wall(&breakdowns));
}

fn triple(s1: u64, s2: u64, s3: u64) -> Stages {
    Stages {
        s1: Ps(s1),
        s2: Ps(s2),
        s3: Ps(s3),
    }
}

#[test]
fn event_loop_drains_a_closed_loop_where_the_recurrence_does() {
    // DPU-bound, bus-bound, and a mix with zero-length stages.
    let dpu = vec![triple(5, 100, 5); 6];
    let bus = vec![triple(50, 5, 50); 6];
    let mixed = vec![
        triple(1, 100, 1),
        triple(100, 1, 100),
        triple(0, 0, 0),
        triple(10, 10, 10),
        triple(0, 30, 0),
    ];
    for (stages, batch) in [(dpu, 4), (bus, 1), (mixed, 3), (Vec::new(), 2)] {
        assert_loop_equals_recurrence(&stages, batch);
    }
}

proptest! {
    /// Random integer stage triples: a bus-heavy or DPU-heavy scale per
    /// case plus per-batch jitter covers both regimes and their mixes.
    #[test]
    fn event_loop_equals_the_closed_loop_pipeline_recurrence(
        bus_scale in 0u64..4_000,
        dpu_scale in 0u64..4_000,
        jitter in prop::collection::vec((0u64..500, 0u64..500, 0u64..500), 0..24),
        batch in 1usize..6,
    ) {
        let stages: Vec<Stages> = jitter
            .iter()
            .map(|&(a, b, c)| triple(bus_scale / 2 + a, dpu_scale + b, bus_scale / 2 + c))
            .collect();
        assert_loop_equals_recurrence(&stages, batch);
    }
}

/// Serves each formed batch through `serve_step` on its own engine, as
/// the scheduler does, logging the launch instants and, as each batch
/// completes a serve later, its breakdown.
struct Twin<'a> {
    engine: &'a mut UpdlrmEngine,
    workload: &'a Workload,
    batch: QueryBatch,
    launches: Vec<Ps>,
    breakdowns: Vec<EmbeddingBreakdown>,
}

impl Serve for Twin<'_> {
    fn serve(&mut self, launch: &Launch<'_>, tally: &Tally) -> Result<Step> {
        assemble_into(self.workload, launch.ids, &mut self.batch);
        let log = &mut self.breakdowns;
        let step = self
            .engine
            .serve_step(launch.at, tally.snapshot(), &self.batch, |_, bd| {
                log.push(*bd)
            })?;
        self.launches.push(launch.at);
        Ok(step)
    }

    fn flush(&mut self) -> Result<Option<(Ps, Ps)>> {
        let log = &mut self.breakdowns;
        self.engine.serve_flush(|_, bd| log.push(*bd))
    }
}

#[test]
fn a_closed_and_an_open_loop_drain_every_real_batch_at_the_same_instant() {
    const BATCH: usize = 32;
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            batch_size: BATCH,
            num_batches: 9,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64).unwrap())
        .collect();
    let config = UpdlrmConfig {
        batch_size: BATCH,
        ..UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware)
    };
    let twin = || {
        let mut engine = UpdlrmEngine::from_workload(config.clone(), &tables, &workload).unwrap();
        // Warm-up: the first batch after a build pays the WRAM fill.
        engine.run_batch(&workload.batches[0]).unwrap();
        engine
    };

    // Closed loop: the whole stream through one serve_stream call.
    let mut closed_engine = twin();
    let mut closed: Vec<EmbeddingBreakdown> = Vec::new();
    let report = closed_engine
        .serve_stream(&workload.batches, |_, _, bd| closed.push(*bd))
        .unwrap();
    let closed_drains = placed(closed.iter().map(|bd| (Ps::ZERO, bd.stages())));
    let wall = pipelined_wall(&closed);
    assert_eq!(closed_drains.last().map(|d| d.drain), Some(wall));
    assert_eq!(report.wall_ns, wall.as_ns());

    // Open loop: the same requests, every one arriving at 0, formed
    // into the same batches by the event loop on the twin engine.
    let mut open_engine = twin();
    let mut server = Twin {
        engine: &mut open_engine,
        workload: &workload,
        batch: QueryBatch {
            sparse: vec![Default::default(); 2],
            ..Default::default()
        },
        launches: Vec::new(),
        breakdowns: Vec::new(),
    };
    let batches = workload.batches.len();
    let (makespan, latencies) = closed_loop_through_the_event_loop(batches, BATCH, &mut server);
    let open = &server.breakdowns;
    assert_eq!(open, &closed, "the twins priced the batches alike");
    let log = server.launches.iter().zip(open);
    let open_drains = placed(log.map(|(&at, bd)| (at, bd.stages())));
    assert_eq!(
        latencies,
        per_request(&open_drains, BATCH),
        "the loop booked them"
    );

    // Every batch issues and drains at the same instant on both loops.
    assert_eq!(open_drains, closed_drains);
    assert_eq!(makespan, wall);
    // Anti-vacuous: stage times are not whole ns, and batches overlap.
    assert!(closed.iter().any(|bd| bd.stage2.0 % 1_000 != 0));
    assert!(wall < closed.iter().map(EmbeddingBreakdown::total).sum());
}

/// What one launch saw: its instant, the EMT region it read, whether
/// its tick flipped or began a migration, and its stage times.
struct Seen {
    at: Ps,
    region: usize,
    flipped: bool,
    began: bool,
    stages: Stages,
}

/// Serves like the scheduler's in-thread front-end — one `serve_step`
/// per batch, which ticks at the launch instant — and logs each launch,
/// filling in its stages 2 and 3 when a later serve or the flush
/// completes it.
struct Probe<'a> {
    engine: &'a mut UpdlrmEngine,
    workload: &'a Workload,
    batch: QueryBatch,
    region: usize,
    log: Vec<Seen>,
}

impl Probe<'_> {
    /// Fills in the stages 2 and 3 of the last batch logged.
    fn settle(&mut self, tail: Option<(Ps, Ps)>) {
        if let Some((s2, s3)) = tail {
            let last = &mut self.log.last_mut().expect("a batch in flight").stages;
            (last.s2, last.s3) = (s2, s3);
        }
    }
}

impl Serve for Probe<'_> {
    fn serve(&mut self, launch: &Launch<'_>, tally: &Tally) -> Result<Step> {
        let before = self.engine.metrics_snapshot().drift;
        assemble_into(self.workload, launch.ids, &mut self.batch);
        let step = self
            .engine
            .serve_step(launch.at, tally.snapshot(), &self.batch, |_, _| {})?;
        let after = self.engine.metrics_snapshot().drift;
        let flipped = after.migrations_completed > before.migrations_completed;
        let began = after.replans_triggered > before.replans_triggered;
        if flipped {
            self.region ^= 1;
        }
        self.settle(step.settled);
        self.log.push(Seen {
            at: launch.at,
            region: self.region,
            flipped,
            began,
            stages: Stages {
                s1: step.s1,
                ..Stages::default()
            },
        });
        Ok(step)
    }

    fn flush(&mut self) -> Result<Option<(Ps, Ps)>> {
        let tail = self.engine.serve_flush(|_, _| {})?;
        self.settle(tail);
        Ok(tail)
    }
}

#[test]
fn no_scatter_begins_before_the_batches_reading_its_region_drain() {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let drift = DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 4,
            set_size: 64,
            period_ns: 200_000,
            hot_fraction: 0.8,
        }),
        spikes: Vec::new(),
        diurnal: None,
    };
    // Saturating: batches launch as soon as a staging slot frees, so
    // consecutive batches overlap on the pipeline.
    let workload = Workload::generate_drifting(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 12,
            ..TraceConfig::default()
        },
        drift,
        ArrivalProcess::poisson(50_000_000.0, 3),
    );
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64).unwrap())
        .collect();
    let config = UpdlrmConfig {
        batch_size: 32,
        telemetry: true,
        replan: ReplanPolicy::Periodic { every_batches: 1 },
        ..UpdlrmConfig::with_dpus(16, PartitionStrategy::Uniform)
    };
    let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload).unwrap();
    let cfg = SchedConfig {
        max_batch_size: 32,
        max_wait_ns: 50_000,
        queue_cap: 4096,
        policy: OverloadPolicy::Block,
    };
    let mut core = EventLoop::new(cfg).unwrap();
    let mut probe = Probe {
        engine: &mut engine,
        workload: &workload,
        batch: QueryBatch {
            sparse: vec![Default::default(); 2],
            ..Default::default()
        },
        region: 0,
        log: Vec::new(),
    };
    let trace = &workload.arrivals;
    let mut arrivals = (0u32..).zip(trace.times_ns.iter().copied());
    core.run(trace, || arrivals.next(), &mut probe).unwrap();
    let log = probe.log;

    // Each batch's drain, from the clock the loop runs.
    let drains: Vec<Ps> = placed(log.iter().map(|s| (s.at, s.stages)))
        .iter()
        .map(|d| d.drain)
        .collect();
    assert_eq!(drains.len(), log.len());

    let mut checked = 0;
    for (k, seen) in log.iter().enumerate() {
        assert!(
            !(seen.flipped && seen.began),
            "batch {k}: one tick flipped and began"
        );
        if !seen.began {
            continue;
        }
        // The scatter writes the region that is not serving.
        let written = seen.region ^ 1;
        for (j, earlier) in log[..k].iter().enumerate() {
            if earlier.region == written {
                assert!(
                    drains[j] <= seen.at,
                    "batch {j} read region {written} until {} but batch {k}'s tick began \
                     scattering into it at {}",
                    drains[j],
                    seen.at
                );
                checked += 1;
            }
        }
    }
    // Anti-vacuous: migrations flipped and began again, with earlier
    // readers of the written region to check, while batches overlapped.
    assert!(
        log.iter().filter(|s| s.flipped).count() >= 2,
        "too few flips"
    );
    assert!(checked > 0, "no scatter had an earlier reader to wait for");
    let overlapped = (1..log.len())
        .filter(|&i| log[i].at < drains[i - 1])
        .count();
    assert!(
        overlapped > 0,
        "no batch launched before the one ahead drained"
    );
}
