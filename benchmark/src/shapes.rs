//! The six workloads: what each one feeds the system and why.
//!
//! Everything here is a pure function of the `--seed` argument: the
//! trace, the arrival stamps and the model weights all derive from it,
//! and the program under test receives only the generated inputs.
//! Common shape: 64 DPUs x 14 tasklets, dimension 32, integer-valued
//! tables (f32 sums are then exact in any order, so verification is
//! bit-for-bit), `host_threads = 1`.

use std::sync::Arc;

use updlrm::prelude::*;
use updlrm::scheduler::SchedConfig;

pub const NR_DPUS: usize = 64;
pub const TASKLETS: usize = 14;
pub const DIM: usize = 32;
pub const NUM_DENSE: usize = 13;
/// Generator batches served by the warm-up that ends every cold build:
/// enough to size both MRAM staging slots and every scratch arena.
pub const WARMUP_BATCHES: usize = 8;
/// The paper's 11 MB LLC scaled like the tables (Fig. 8 set-up), so
/// scaled-down tables do not fit the cache and flatter DLRM-CPU.
pub const CPU_LLC_BYTES: usize = (11 << 20) / 200;

/// How a workload's trace is pushed through the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Closed loop, one client: the pre-formed batches go through
    /// `serve_stream` (double-buffered, depth 2) with the dense layers
    /// run in the sink; the next pass starts when the previous returns.
    Closed,
    /// Open loop on the modeled clock: Poisson arrival stamps at
    /// `rate_qps`, batches formed by `Scheduler::run`.
    Open { rate_qps: f64 },
    /// Live re-partitioning on the modeled clock: every pass builds a
    /// fresh engine (replanning mutates placement) fit to a steady
    /// deployment trace, then serves a trace whose hot set rotates as
    /// if requests arrived at `rotation_qps` — but stamped at
    /// [`SATURATING_QPS`], so the scheduler drains one burst through
    /// full batches and latency measures throughput under migration.
    Drift { rotation_qps: f64 },
    /// Real threads: `Runtime::run` with one shard over SPSC rings,
    /// arrivals stamped at [`SATURATING_QPS`].
    Wall,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub drive: Drive,
    pub dataset: fn() -> DatasetSpec,
    pub num_tables: usize,
    /// Samples per generator batch: the serving batch (closed loop) or
    /// the scheduler's `max_batch_size` (open loop).
    pub batch_size: usize,
    pub num_batches: usize,
    pub dtype: EmbedDtype,
    pub strategy: PartitionStrategy,
    /// Gather-and-sum sweeps per reference pass. One, except where a
    /// single sweep is too short to time against the system pass.
    pub reference_sweeps: usize,
}

/// Hot-set rotation of `drift_replan` (the `rotate-replan` arm of the
/// repository's drift sweep): 4 contiguous hot sets of 256 rows, 60% of
/// lookups redirected into the active one, rotating every 11.23 ms.
const DRIFT_SETS: usize = 4;
const DRIFT_SET_ROWS: usize = 256;
const DRIFT_HOT_FRACTION: f64 = 0.6;
const DRIFT_PERIOD_NS: u64 = 11_230_781;
const DRIFT_REPLAN_EVERY: u64 = 4;
/// Requests in the steady trace the drift engines are fit to.
const DRIFT_DEPLOY_BATCHES: usize = 64;

pub const SHAPES: [Shape; 6] = [
    Shape {
        name: "pool_heavy",
        dataset: || DatasetSpec::goodreads().scaled_down(200),
        drive: Drive::Closed,
        num_tables: 8,
        batch_size: 256,
        num_batches: 8,
        dtype: EmbedDtype::F32,
        strategy: PartitionStrategy::CacheAware,
        reference_sweeps: 1,
    },
    Shape {
        name: "pool_int8",
        dataset: || DatasetSpec::goodreads().scaled_down(200),
        drive: Drive::Closed,
        num_tables: 8,
        batch_size: 256,
        num_batches: 8,
        dtype: EmbedDtype::Int8,
        strategy: PartitionStrategy::CacheAware,
        reference_sweeps: 1,
    },
    Shape {
        name: "route_heavy",
        dataset: || DatasetSpec::balanced_synthetic(100_000, 4.0),
        drive: Drive::Closed,
        num_tables: 8,
        batch_size: 16,
        num_batches: 64,
        dtype: EmbedDtype::F32,
        strategy: PartitionStrategy::CacheAware,
        // One sweep is ~33 k lookups (0.6 ms of cache misses against a
        // 15 ms system pass): too short to cancel anything.
        reference_sweeps: 6,
    },
    Shape {
        name: "open_loop",
        dataset: || DatasetSpec::meta_fbgemm1().scaled_down(200),
        drive: Drive::Open {
            rate_qps: 100_000.0,
        },
        num_tables: 8,
        batch_size: 64,
        num_batches: 160,
        dtype: EmbedDtype::F32,
        strategy: PartitionStrategy::CacheAware,
        reference_sweeps: 1,
    },
    Shape {
        name: "drift_replan",
        dataset: || DatasetSpec::goodreads().scaled_down(2000),
        drive: Drive::Drift {
            rotation_qps: 45_589.0,
        },
        num_tables: 4,
        batch_size: 32,
        num_batches: 256,
        dtype: EmbedDtype::F32,
        strategy: PartitionStrategy::Uniform,
        reference_sweeps: 1,
    },
    Shape {
        name: "wall_rt",
        dataset: || DatasetSpec::meta_fbgemm1().scaled_down(200),
        drive: Drive::Wall,
        num_tables: 8,
        batch_size: 64,
        num_batches: 128,
        dtype: EmbedDtype::F32,
        strategy: PartitionStrategy::CacheAware,
        reference_sweeps: 1,
    },
];

/// Rates of `open_loop`'s capacity ladder: 80k to 180k qps in 20k
/// steps, straddling the knee of the modeled engine (~141k qps at full
/// batches; the reference rate of 100k qps is ~70% of it).
pub const LADDER_QPS: [f64; 6] = [
    80_000.0, 100_000.0, 120_000.0, 140_000.0, 160_000.0, 180_000.0,
];
/// Latency limit of the ladder: modeled p99 at most 1 ms, nothing shed.
pub const SLO_P99_NS: f64 = 1_000_000.0;
/// Stamping rate of the saturated drives: far above any capacity, so
/// the whole trace is queued at once and nothing waits for arrivals.
pub const SATURATING_QPS: f64 = 10_000_000.0;
/// Rate of `wall_rt`'s single paced run (measured wall latency).
pub const WALL_PACED_QPS: f64 = 8_000.0;

impl Shape {
    pub fn by_name(name: &str) -> Option<Shape> {
        SHAPES.iter().copied().find(|s| s.name == name)
    }

    pub fn requests(&self) -> usize {
        self.batch_size * self.num_batches
    }

    /// Threads busy at once while a pass runs: the runtime drive keeps
    /// its shard worker and the batcher (the calling thread) spinning;
    /// every other drive is single-threaded.
    pub fn threads_needed(&self) -> usize {
        match self.drive {
            Drive::Wall => 2,
            _ => 1,
        }
    }

    /// Batcher and admission-queue parameters of the open-loop drives.
    pub fn sched_config(&self) -> SchedConfig {
        let (queue_cap, policy) = match self.drive {
            // Shedding is the tail-latency play under overload; at the
            // reference rate nothing is shed, on the ladder it shows.
            Drive::Open { .. } | Drive::Closed => (512, OverloadPolicy::ShedOldest),
            // Saturation with nothing dropped: the queue holds the
            // whole trace, so a slow placement or a migration stall
            // shows up as latency, never as a quietly shed request.
            Drive::Drift { .. } | Drive::Wall => (self.requests(), OverloadPolicy::Block),
        };
        SchedConfig {
            max_batch_size: self.batch_size,
            max_wait_ns: 200_000,
            queue_cap,
            policy,
        }
    }

    fn trace_config(&self, seed: u64) -> TraceConfig {
        TraceConfig {
            num_tables: self.num_tables,
            batch_size: self.batch_size,
            num_batches: self.num_batches,
            num_dense: NUM_DENSE,
            seed,
        }
    }

    /// Generates the workload's inputs from `seed` alone.
    pub fn generate(&self, seed: u64) -> Inputs {
        let spec = (self.dataset)();
        let config = self.trace_config(seed);
        let stamped = |mut workload: Workload, qps: f64| {
            workload.stamp_arrivals(ArrivalProcess::poisson(qps, seed));
            Inputs {
                workload,
                deploy: None,
            }
        };
        match self.drive {
            Drive::Closed => Inputs {
                workload: Workload::generate(&spec, config),
                deploy: None,
            },
            Drive::Open { rate_qps } => stamped(Workload::generate(&spec, config), rate_qps),
            Drive::Wall => stamped(Workload::generate(&spec, config), SATURATING_QPS),
            Drive::Drift { rotation_qps } => {
                let rotation = |num_sets, period_ns| DriftSchedule {
                    rotation: Some(HotSetRotation {
                        num_sets,
                        set_size: DRIFT_SET_ROWS,
                        period_ns,
                        hot_fraction: DRIFT_HOT_FRACTION,
                    }),
                    spikes: Vec::new(),
                    diurnal: None,
                };
                let process = ArrivalProcess::poisson(rotation_qps, seed);
                // Deployment-time trace: same geometry, rotation pinned
                // to set 0 — what the naive uniform partition is fit to.
                let deploy = Workload::generate_drifting(
                    &spec,
                    TraceConfig {
                        num_batches: DRIFT_DEPLOY_BATCHES,
                        ..config
                    },
                    rotation(1, u64::MAX),
                    process,
                );
                let workload = Workload::generate_drifting(
                    &spec,
                    config,
                    rotation(DRIFT_SETS, DRIFT_PERIOD_NS),
                    process,
                );
                Inputs {
                    deploy: Some(deploy),
                    ..stamped(workload, SATURATING_QPS)
                }
            }
        }
    }

    /// The model the workload's tables belong to (weights and
    /// integer-valued tables are a function of `seed`).
    pub fn model(&self, seed: u64) -> Arc<Dlrm> {
        Arc::new(
            Dlrm::new_integer_tables(DlrmConfig {
                num_dense: NUM_DENSE,
                embedding_dim: DIM,
                table_rows: vec![(self.dataset)().num_items; self.num_tables],
                bottom_hidden: vec![64],
                top_hidden: vec![64, 16],
                seed,
            })
            .expect("the benchmark's model configuration is valid"),
        )
    }

    pub fn engine_config(&self, telemetry: bool) -> UpdlrmConfig {
        let mut config = UpdlrmConfig::with_dpus(NR_DPUS, self.strategy)
            .with_host_threads(1)
            .with_embed_dtype(self.dtype);
        config.tasklets = TASKLETS;
        // MRAM staging slots are sized for `batch_size` samples.
        config.batch_size = self.batch_size;
        config.telemetry = telemetry;
        match self.drive {
            Drive::Closed => {
                config = config
                    .with_pipeline_mode(PipelineMode::DoubleBuf)
                    .with_queue_depth(2);
            }
            Drive::Drift { .. } => {
                config = config.with_replan(ReplanPolicy::Periodic {
                    every_batches: DRIFT_REPLAN_EVERY,
                });
            }
            Drive::Open { .. } | Drive::Wall => {}
        }
        config
    }

    /// Profiles, mines, partitions and loads one engine.
    pub fn build_engine(&self, model: &Dlrm, inputs: &Inputs, telemetry: bool) -> UpdlrmEngine {
        UpdlrmEngine::from_workload(
            self.engine_config(telemetry),
            model.tables(),
            inputs.fit_trace(),
        )
        .expect("the benchmark's engine configuration builds")
    }

    /// The warm-up that ends a cold build: the first few generator
    /// batches straight through `serve_stream`.
    pub fn warm_up(&self, engine: &mut UpdlrmEngine, inputs: &Inputs) {
        let n = inputs.workload.batches.len().min(WARMUP_BATCHES);
        engine
            .serve_stream(&inputs.workload.batches[..n], |_, _, _| {})
            .expect("warm-up serves");
    }

    /// The CPU memory model both sides of `modeled_speedup_vs_cpu` use.
    pub fn cpu_memory_model(&self) -> CpuMemoryModel {
        CpuMemoryModel {
            llc_bytes: CPU_LLC_BYTES,
            ..CpuMemoryModel::default()
        }
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The trace that is served.
    pub workload: Workload,
    /// The trace the engine is fit to when it differs from the served
    /// one (`drift_replan` deploys on steady traffic).
    pub deploy: Option<Workload>,
}

impl Inputs {
    pub fn fit_trace(&self) -> &Workload {
        self.deploy.as_ref().unwrap_or(&self.workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_unique_names_and_fit_the_fleet() {
        for (i, s) in SHAPES.iter().enumerate() {
            assert!(SHAPES[..i].iter().all(|o| o.name != s.name));
            assert_eq!(NR_DPUS % s.num_tables, 0, "{}", s.name);
            assert!(s.requests() >= 1024, "{}", s.name);
            assert_eq!(Shape::by_name(s.name).unwrap().name, s.name);
            // Every open-loop shape keeps at least ten samples beyond
            // its p99.
            if s.drive != Drive::Closed {
                assert!(s.requests() / 100 >= 10, "{}", s.name);
            }
        }
        assert!(Shape::by_name("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shape = Shape {
            num_batches: 2,
            ..Shape::by_name("drift_replan").unwrap()
        };
        let a = shape.generate(3);
        let b = shape.generate(3);
        let c = shape.generate(4);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.deploy, b.deploy);
        assert_ne!(a.workload.batches, c.workload.batches);
        assert_ne!(a.workload.arrivals.times_ns, c.workload.arrivals.times_ns);
    }
}
