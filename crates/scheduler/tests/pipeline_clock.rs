//! The event loop times batches on the engine's depth-2 pipeline: the
//! one `PipelineClock` recurrence `serve_stream` uses for a closed loop.
//!
//! 1. **Differential** — an `EventLoop` fed a closed-loop trace (every
//!    arrival at 0, size-triggered full batches) drains each batch
//!    exactly where `pipelined_schedule` (through `pipelined_wall_ns`
//!    and the clock itself) says, over random integer stage triples
//!    that cover bus-bound and DPU-bound mixes.
//! 2. **Replans stay safe** — at `periodic:1` on a saturated drifting
//!    trace, no migration scatter begins before every batch that read
//!    the region it writes has drained, and no tick both flips and
//!    begins a scatter.

use dlrm_model::{EmbeddingTable, QueryBatch};
use proptest::prelude::*;
use scheduler::{
    assemble_into, service_stages, EventLoop, Launch, OverloadPolicy, SchedConfig, Serve, Tally,
};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::pipeline::{PipelineClock, Stages};
use updlrm_core::{
    pipelined_wall_ns, PartitionStrategy, ReplanPolicy, Result, UpdlrmConfig, UpdlrmEngine,
};
use workloads::{
    ArrivalProcess, ArrivalTrace, DatasetSpec, DriftSchedule, HotSetRotation, TraceConfig, Workload,
};

/// Serves batch `seq` with the `seq`-th stage triple.
struct Scripted(Vec<Stages<u64>>);

impl Serve for Scripted {
    fn serve(&mut self, launch: &Launch<'_>, _: &Tally) -> Result<Stages<u64>> {
        Ok(self.0[launch.seq])
    }
}

/// Runs `stages.len()` full batches of `batch` requests, all arriving
/// at 0, through an event loop; returns its makespan and its sorted
/// per-request latencies.
fn closed_loop_through_the_event_loop(stages: &[Stages<u64>], batch: usize) -> (u64, Vec<u64>) {
    let n = stages.len() * batch;
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
    let mut server = Scripted(stages.to_vec());
    let makespan = core.run(&trace, || arrivals.next(), &mut server).unwrap();
    assert_eq!(core.tally.histogram()[batch] as usize, stages.len());
    let mut latencies = core.tally.latencies.clone();
    latencies.sort_unstable();
    (makespan, latencies)
}

/// Asserts the event loop drains every batch where the closed-loop
/// recurrence does.
fn assert_loop_equals_recurrence(stages: &[Stages<u64>], batch: usize) {
    let (makespan, latencies) = closed_loop_through_the_event_loop(stages, batch);
    let breakdowns: Vec<EmbeddingBreakdown> = stages
        .iter()
        .map(|s| EmbeddingBreakdown {
            stage1_ns: s.s1 as f64,
            stage2_ns: s.s2 as f64,
            stage3_ns: s.s3 as f64,
            ..Default::default()
        })
        .collect();
    // The closed loop feeds the clock every batch at instant 0.
    let mut clock = PipelineClock::<u64>::default();
    let mut drains: Vec<u64> = stages
        .iter()
        .filter_map(|&s| clock.push(0, s))
        .map(|d| d.drain)
        .collect();
    drains.extend(clock.finish().map(|d| d.drain));
    let mut want: Vec<u64> = drains
        .iter()
        .flat_map(|&d| std::iter::repeat_n(d, batch))
        .collect();
    want.sort_unstable();
    assert_eq!(latencies, want, "per-batch drains");
    assert_eq!(makespan, drains.last().copied().unwrap_or(0));
    // Small integers are exact in f64: the f64 closed loop agrees.
    assert_eq!(makespan as f64, pipelined_wall_ns(&breakdowns));
}

fn triple(s1: u64, s2: u64, s3: u64) -> Stages<u64> {
    Stages { s1, s2, s3 }
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
        let stages: Vec<Stages<u64>> = jitter
            .iter()
            .map(|&(a, b, c)| triple(bus_scale / 2 + a, dpu_scale + b, bus_scale / 2 + c))
            .collect();
        assert_loop_equals_recurrence(&stages, batch);
    }
}

/// What one launch saw: its instant, the EMT region it read, whether
/// its tick flipped or began a migration, and its stage times.
struct Seen {
    at_ns: u64,
    region: usize,
    flipped: bool,
    began: bool,
    stages: Stages<u64>,
}

/// Serves like the scheduler's in-thread front-end — tick at the launch
/// instant, then one batch through `serve_stream` — and logs each
/// launch.
struct Probe<'a> {
    engine: &'a mut UpdlrmEngine,
    workload: &'a Workload,
    batch: QueryBatch,
    region: usize,
    log: Vec<Seen>,
}

impl Serve for Probe<'_> {
    fn serve(&mut self, launch: &Launch<'_>, _: &Tally) -> Result<Stages<u64>> {
        let before = self.engine.metrics_snapshot().drift;
        self.engine.on_tick(launch.at_ns)?;
        let after = self.engine.metrics_snapshot().drift;
        let flipped = after.migrations_completed > before.migrations_completed;
        let began = after.replans_triggered > before.replans_triggered;
        if flipped {
            self.region ^= 1;
        }
        assemble_into(self.workload, launch.ids, &mut self.batch);
        let mut stages = Stages::default();
        self.engine
            .serve_stream(std::slice::from_ref(&self.batch), |_, _, bd| {
                stages = service_stages(bd);
            })?;
        self.log.push(Seen {
            at_ns: launch.at_ns,
            region: self.region,
            flipped,
            began,
            stages,
        });
        Ok(stages)
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
    let mut clock = PipelineClock::<u64>::default();
    let mut drains: Vec<u64> = log
        .iter()
        .filter_map(|s| clock.push(s.at_ns, s.stages))
        .map(|d| d.drain)
        .collect();
    drains.extend(clock.finish().map(|d| d.drain));
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
                    drains[j] <= seen.at_ns,
                    "batch {j} read region {written} until {} but batch {k}'s tick began \
                     scattering into it at {}",
                    drains[j],
                    seen.at_ns
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
        .filter(|&i| log[i].at_ns < drains[i - 1])
        .count();
    assert!(
        overlapped > 0,
        "no batch launched before the one ahead drained"
    );
}
