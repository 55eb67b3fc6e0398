//! Stage 2: every DPU runs the embedding kernel over the reference
//! streams of one staging slot, one launch per `(table, rank)` group.

use super::{DpuSide, EmbeddingBreakdown, UpdlrmEngine};
use crate::error::Result;
use crate::telemetry::LaunchCells;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

impl DpuSide {
    /// Stage 2 of the `samples`-sample batch in staging slot `slot`:
    /// launches the kernels reading the slot's reference streams and
    /// writing its partial-sum region. All groups run concurrently; the
    /// wall is the slowest group plus the fleet's per-launch dispatch
    /// toll. Records into `cells` only, so it runs the same on the
    /// serving thread ([`UpdlrmEngine::launch_here`]) and on the DPU
    /// worker ([`crate::serve`]).
    ///
    /// The kernels are the prebuilt per-(table, slot) instances: only
    /// `n_samples` changes per batch, and the launch report plus cycle
    /// list are recycled.
    pub(crate) fn stage2(
        &mut self,
        cells: &mut LaunchCells,
        slot: usize,
        samples: usize,
        bd: &mut EmbeddingBreakdown,
    ) -> Result<()> {
        let DpuSide {
            fleet,
            launch_groups,
            launch,
            launches,
            all_cycles,
        } = self;
        all_cycles.clear();
        let dpus_per_rank = fleet.topology().dpus_per_rank;
        launches.clear();
        for g in launch_groups.iter_mut() {
            g.kernels[slot].n_samples = samples as u32;
            fleet
                .rank_mut(g.rank)?
                .launch_into(&g.ids, &g.kernels[slot], launch)?;
            launches.push((launch.wall, launch.energy_pj));
            bd.dma_transfers += launch.total_dma_transfers();
            bd.instrs += launch.total_instrs();
            bd.wram_rows += launch.total_wram_rows();
            bd.wram_fill_cycles = bd.wram_fill_cycles.max(launch.max_fill_cycles().0);
            for (id, stats) in &launch.per_dpu {
                cells.record_dpu(g.rank * dpus_per_rank + id.0 as usize, stats);
            }
            all_cycles.extend(launch.per_dpu.iter().map(|(_, s)| s.cycles.0));
        }
        let (wall, energy_pj) = fleet.combine_launches(launches.iter().copied());
        bd.stage2 = wall;
        bd.energy_pj += energy_pj;
        if !all_cycles.is_empty() {
            let max = *all_cycles.iter().max().expect("nonempty") as f64;
            let mean = all_cycles.iter().sum::<u64>() as f64 / all_cycles.len() as f64;
            bd.lookup_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            cells.record_launch(bd.lookup_imbalance);
        }
        Ok(())
    }
}

impl UpdlrmEngine {
    /// Stage 2 of the batch in staging slot `slot`, on the calling
    /// thread: [`DpuSide::stage2`] with the engine's own launch cells.
    pub(crate) fn launch_here(&mut self, slot: usize, bd: &mut EmbeddingBreakdown) -> Result<()> {
        let samples = self.scratch.staged[slot].samples;
        self.dpu
            .get_mut()
            .stage2(&mut self.metrics.launch, slot, samples, bd)
    }

    /// Fills every DPU's resident rows now, outside modeled time, so
    /// that no later batch is charged for it. Its one caller is
    /// `runtime::Runtime::run`, for an engine that stands in for a
    /// fleet whose fill is already on the books: the wall runtime's
    /// shards beyond the first are host-side replicas of *one* modeled
    /// fleet, and only the first pays (`shards - 1` fills leave the
    /// wall run's modeled clock; none at one shard, which is what the
    /// benchmark's `wall_rt` runs). Anything else — tests included —
    /// lets its first batch pay (DESIGN.md §7): the launch this runs
    /// is an empty batch whose report is dropped.
    ///
    /// # Errors
    ///
    /// Simulator faults.
    pub fn prefill_resident(&mut self) -> Result<()> {
        let DpuSide {
            fleet,
            launch_groups,
            launch,
            ..
        } = self.dpu.get_mut();
        for g in launch_groups {
            let kernel = &mut g.kernels[0];
            kernel.n_samples = 0;
            fleet
                .rank_mut(g.rank)?
                .launch_into(&g.ids, kernel, launch)?;
        }
        Ok(())
    }
}

/// One stage-2 launch on the DPU worker. It carries everything the
/// launch writes — the engine's DPU side, the registry's launch cells
/// and the batch's breakdown — by value, and comes back with them and
/// the launch's result, so nothing is shared between the two threads.
struct LaunchJob {
    side: DpuSide,
    cells: LaunchCells,
    slot: usize,
    samples: usize,
    bd: EmbeddingBreakdown,
    /// The sender's SIMD tier, to run on; back home, the tier it ran on.
    tier: dlrm_model::simd::SimdTier,
    result: Result<()>,
}

/// What the hand-off slot holds. At most one launch is in flight, so
/// one slot serves both directions.
enum Slot {
    Empty,
    Job(LaunchJob),
    Done(LaunchJob),
    /// The engine dropped its worker, or the worker panicked. Final.
    Closed,
}

/// The one-slot hand-off between the serving thread and the DPU worker:
/// a std `Mutex` over the slot and a `Condvar` each side sleeps on.
/// Neither allocates once built, so steady-state serving stays
/// allocation-free. (std's `sync_channel` does allocate, the first time
/// each thread blocks on each channel: a wait context and a waiter
/// entry. Whether that first block falls in a warm-up serve or a later
/// one depends on which thread is ahead.)
struct Handoff {
    slot: Mutex<Slot>,
    changed: Condvar,
}

/// How long a side polls the slot before it sleeps on the condvar. A
/// sleeping thread is woken onto a CPU of the kernel's choosing, often
/// the waker's, and the two threads then take turns on one core (on a
/// 2-vCPU host, `pool_heavy` ran no faster than on one thread in about
/// half the runs). Polling through the other side's usual turn — the
/// route and sink, or the scatter and gather, of a batch: 1–2 ms on
/// `pool_heavy`, tens of µs on `route_heavy` — keeps each on its own
/// core. A serve's last poll costs at most this much CPU.
const POLL: Duration = Duration::from_millis(3);

impl Slot {
    /// Whether a side waiting for a `Job` (`job`) or a `Done` (not
    /// `job`) can take what the slot holds. A closed slot ends both
    /// waits.
    fn ready(&self, job: bool) -> bool {
        match self {
            Slot::Job(_) => job,
            Slot::Done(_) => !job,
            Slot::Empty => false,
            Slot::Closed => true,
        }
    }

    /// Takes what a ready slot holds; a closed slot stays closed.
    fn take(&mut self) -> Slot {
        match self {
            Slot::Closed => Slot::Closed,
            _ => std::mem::replace(self, Slot::Empty),
        }
    }
}

impl Handoff {
    /// Every update under the lock is one assignment of a whole `Slot`,
    /// so a guard recovered from a poisoned lock still holds a valid one.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fills the slot, unless it is closed, and wakes the other side.
    fn put(&self, slot: Slot) {
        let mut held = self.lock();
        if !matches!(*held, Slot::Closed) {
            *held = slot;
        }
        drop(held);
        self.changed.notify_all();
    }

    /// Waits until the slot holds a `Job` (`job`) or a `Done` (not
    /// `job`), or is closed, and takes what it holds: polls for
    /// [`POLL`], then sleeps.
    fn take(&self, job: bool) -> Slot {
        let start = Instant::now();
        loop {
            let mut held = self.lock();
            if held.ready(job) {
                return held.take();
            }
            drop(held);
            if start.elapsed() >= POLL {
                break;
            }
            // A yield, not a spin: a sleeper the kernel woke onto this
            // CPU runs now instead of after the rest of the poll.
            std::thread::yield_now();
        }
        self.changed
            .wait_while(self.lock(), |s| !s.ready(job))
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Closes the hand-off when the worker thread unwinds, so a serve
/// waiting for its launch panics instead of waiting forever.
struct CloseOnPanic(Arc<Handoff>);

impl Drop for CloseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.put(Slot::Closed);
        }
    }
}

/// The engine's persistent stage-2 thread ([`crate::serve`]): it takes
/// a launch from the hand-off slot, runs [`DpuSide::stage2`] on the
/// sender's SIMD tier and puts the launch back. Dropping it closes the
/// slot, which ends the thread's loop, and joins the thread.
pub(crate) struct DpuWorker {
    handoff: Arc<Handoff>,
    thread: Option<JoinHandle<()>>,
}

impl DpuWorker {
    const GONE: &'static str = "the DPU worker panicked during a launch";

    /// Starts the thread. Fails only if the OS refuses one.
    pub(crate) fn spawn() -> std::io::Result<DpuWorker> {
        let handoff = Arc::new(Handoff {
            slot: Mutex::new(Slot::Empty),
            changed: Condvar::new(),
        });
        let guard = CloseOnPanic(Arc::clone(&handoff));
        let thread = std::thread::Builder::new()
            .name("dpu-worker".into())
            .spawn(move || {
                let handoff = &guard.0;
                while let Slot::Job(mut job) = handoff.take(true) {
                    job.result = dlrm_model::simd::with_tier(job.tier, || {
                        job.tier = dlrm_model::simd::tier();
                        job.side
                            .stage2(&mut job.cells, job.slot, job.samples, &mut job.bd)
                    });
                    handoff.put(Slot::Done(job));
                }
            })?;
        Ok(DpuWorker {
            handoff,
            thread: Some(thread),
        })
    }
}

impl Drop for DpuWorker {
    fn drop(&mut self) {
        self.handoff.put(Slot::Closed);
        if let Some(thread) = self.thread.take() {
            // A thread that panicked has reported it on its own; the
            // launch it held was lost with the serve that sent it.
            let _ = thread.join();
        }
    }
}

impl UpdlrmEngine {
    /// Sends stage 2 of the batch in staging slot `slot` to the DPU
    /// worker, lending it the DPU side and the launch cells until
    /// [`UpdlrmEngine::launch_join`]. Until then the engine may route
    /// and combine, but not touch the fleet.
    pub(crate) fn launch_away(&mut self, slot: usize, bd: EmbeddingBreakdown) {
        let job = LaunchJob {
            side: self.dpu.lend(),
            cells: std::mem::take(&mut self.metrics.launch),
            slot,
            samples: self.scratch.staged[slot].samples,
            bd,
            tier: dlrm_model::simd::tier(),
            result: Ok(()),
        };
        self.worker().handoff.put(Slot::Job(job));
        self.handoffs += 1;
    }

    /// Waits for the launch [`UpdlrmEngine::launch_away`] sent, puts
    /// its DPU side and launch cells back, and returns its breakdown or
    /// its error.
    pub(crate) fn launch_join(&mut self) -> Result<EmbeddingBreakdown> {
        let Slot::Done(job) = self.worker().handoff.take(false) else {
            panic!("{}", DpuWorker::GONE);
        };
        self.dpu.restore(job.side);
        self.metrics.launch = job.cells;
        self.worker_tier = Some(job.tier);
        job.result.map(|()| job.bd)
    }

    fn worker(&self) -> &DpuWorker {
        self.worker
            .as_ref()
            .expect("a launch goes away only once the DPU worker runs")
    }

    /// Launches this engine has sent to its DPU worker thread so far —
    /// zero where the process may use only one core, where the
    /// launches run on the serving thread.
    pub fn dpu_handoffs(&self) -> u64 {
        self.handoffs
    }
}
