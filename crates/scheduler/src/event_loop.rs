//! The one modeled-time serving loop behind every front-end.
//!
//! [`EventLoop::run`] owns what the serving front-ends have in common:
//! the door latch, admission accounting, the `launch_at` / `take_batch`
//! / launch-monotonicity sequence, the trigger and histogram tallies
//! and — through [`Tally::finish`] — the [`SchedReport`] statistics. A
//! front-end chooses only two things:
//!
//! 1. **where the next arrival comes from** — a closure yielding
//!    `(id, arrival_ns)` in order and `None` at end of stream. The loop
//!    keeps a one-arrival lookahead on top of it, so a slice iterator
//!    (`Scheduler::run`, the tenant lanes) and a blocking SPSC-ring pop
//!    (the deterministic wall runtime) make byte-identical decisions;
//! 2. **how a formed batch is served** — a [`Serve`] implementation
//!    returning, as a [`Step`], the batch's stage 1 and the stages 2
//!    and 3 of the batch before, which the call completed (the
//!    in-thread front-end, `Scheduler::form`, whose batch's stage 2 is
//!    still in flight, and the oracle-locked runtime, which awaited
//!    its batch and reports it with the next launch all the same).
//!
//! The loop times batches on the engine's depth-2 pipeline: the one
//! [`PipelineClock`] of `updlrm_core::pipeline`, on the one modeled
//! clock, integer picoseconds. Arrivals and the wait deadline come in
//! whole ns and are scaled to ps exactly; the [`BatchPolicy`] the loop
//! drives is unit-agnostic and sees ps. A batch launches once a staging
//! slot is free — when the batch two ahead of it has drained — so its
//! stage 1 overlaps the stage 2 of the batch ahead. Its requests
//! complete when its stage 3 drains, which the clock places when the
//! next batch launches (or at the end of the run). That launch instant
//! needs only the stage 1 of the batch ahead
//! ([`PipelineClock::issue`]), so a server may return before its
//! batch's stage 2 has run and report it with the next batch, or from
//! [`Serve::flush`] at the end of the run.
//!
//! The free-running wall batcher is the one front-end that is *not*
//! this loop — it never blocks, keeps many batches in flight and books
//! them in completion order — but it counts through the same [`Tally`].
//! Nothing here records telemetry: whoever finishes a [`Tally`] —
//! `Scheduler::run`, `Runtime::run`, the tenant fleet — records its
//! [`Tally::snapshot`] once, with `MetricsRegistry::record_sched`.

use updlrm_core::pipeline::{PipelineClock, Step};
use updlrm_core::telemetry::Accum;
use updlrm_core::{percentile, CoreError, Ps, Result, SchedSnapshot, SchedTrigger, MAX_WHOLE_NS};
use workloads::{ArrivalTrace, NS_PER_SEC};

use crate::{AdmitOutcome, BatchPolicy, SchedConfig, SchedReport};

/// A batch the loop has just closed, as handed to [`Serve::serve`].
#[derive(Debug, Clone, Copy)]
pub struct Launch<'a> {
    /// Formed-batch sequence number, from 0 in launch order.
    pub seq: usize,
    /// Launch instant on the loop's clock.
    pub at: Ps,
    /// Member query ids in admission (FIFO) order.
    pub ids: &'a [u32],
}

/// How a front-end serves the batches [`EventLoop::run`] forms.
pub trait Serve {
    /// Serves `launch` and returns its stage 1 for the loop's clock,
    /// with the stages 2 and 3 of the batch before as
    /// [`settled`](Step::settled); this batch's stages 2 and 3 go out
    /// with the next call or from [`flush`](Self::flush). `tally` is the
    /// run so far — every admission up to this launch, every earlier
    /// batch — for a server that takes a mid-run snapshot.
    ///
    /// # Errors
    ///
    /// Whatever the serving engine reports; the loop stops on the
    /// first error.
    fn serve(&mut self, launch: &Launch<'_>, tally: &Tally) -> Result<Step>;

    /// Completes the batch the last [`serve`](Self::serve) left in
    /// flight, if any, and returns its stages 2 and 3. The loop calls it
    /// once, after the last launch.
    ///
    /// # Errors
    ///
    /// As [`serve`](Self::serve).
    fn flush(&mut self) -> Result<Option<(Ps, Ps)>>;
}

/// Checks that `trace` can be served open-loop under `cfg` by an engine
/// whose staging holds `staged` queries — every front-end's precondition.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] on an empty (closed-loop) trace, an
/// arrival past the picosecond clock's range ([`MAX_WHOLE_NS`]) or a
/// `max_batch_size` beyond the engine's staged capacity.
pub fn check_servable(cfg: &SchedConfig, trace: &ArrivalTrace, staged: usize) -> Result<()> {
    let Some(&last) = trace.times_ns.iter().max() else {
        return Err(CoreError::InvalidConfig(
            "workload has no arrival trace (closed-loop); stamp arrivals first".into(),
        ));
    };
    if last > MAX_WHOLE_NS {
        return Err(CoreError::InvalidConfig(format!(
            "arrival at {last} ns is past the modeled clock's range ({MAX_WHOLE_NS} ns)"
        )));
    }
    if cfg.max_batch_size > staged {
        return Err(CoreError::InvalidConfig(format!(
            "max_batch_size {} exceeds the engine's staged capacity {staged} (2x its batch_size)",
            cfg.max_batch_size
        )));
    }
    Ok(())
}

/// The counters, latency samples and batch-size histogram one serving
/// run accumulates, and the only code that turns them into a
/// [`SchedReport`]. Buffers are reused across runs: after the first
/// run of a given trace length nothing here allocates.
#[derive(Debug)]
pub struct Tally {
    report: SchedReport,
    /// Completed-request latencies; sorted by `finish`.
    /// [`EventLoop::run`] records them on its own pipeline clock; a
    /// front-end that completes batches on another clock (the tenant
    /// fleet's shared timeline, the wall runtime's measured one) clears
    /// them and records its own.
    pub latencies: Vec<Ps>,
    /// `hist[k]` = batches formed with exactly `k` queries.
    hist: Vec<u64>,
    /// First arrival id not yet counted as blocked, so a query held at
    /// the door across several loop turns counts once.
    blocked_counted: u32,
}

impl Tally {
    /// A tally for batches of at most `max_batch_size` queries.
    pub fn new(max_batch_size: usize) -> Tally {
        Tally {
            report: SchedReport::default(),
            latencies: Vec::new(),
            hist: vec![0; max_batch_size + 1],
            blocked_counted: 0,
        }
    }

    /// Resets for a run over `trace`, sizing the latency buffers to it.
    pub fn begin(&mut self, trace: &ArrivalTrace) {
        let n = trace.times_ns.len();
        self.report = SchedReport {
            requests: n as u64,
            offered_qps: trace.measured_offered_qps(),
            ..SchedReport::default()
        };
        self.latencies.clear();
        self.latencies.reserve(n);
        self.hist.fill(0);
        self.blocked_counted = 0;
    }

    /// Offers arrival `(id, at)` — an instant on `policy`'s clock — to
    /// `policy` and folds the outcome into the report. Returns `false`
    /// when the arrival was *not* consumed: the queue is full under
    /// `Block` and the caller must latch its door shut until the next
    /// launch frees a slot (re-offering immediately would spin).
    pub fn admit(&mut self, policy: &mut BatchPolicy, id: u32, at: u64) -> bool {
        let r = &mut self.report;
        let depth = match policy.admit(id, at) {
            AdmitOutcome::Admitted { depth } => depth,
            AdmitOutcome::AdmittedAfterShed { depth, .. } => {
                r.shed += 1;
                depth
            }
            AdmitOutcome::Rejected => {
                r.rejected += 1;
                return true;
            }
            AdmitOutcome::Blocked => {
                if id >= self.blocked_counted {
                    r.blocked += 1;
                    self.blocked_counted = id + 1;
                }
                return false;
            }
        };
        r.admitted += 1;
        r.queue_high_water = r.queue_high_water.max(depth as u64);
        true
    }

    /// Books one formed batch of `size` queries closed by `trigger`.
    pub fn batch(&mut self, size: usize, trigger: SchedTrigger) {
        self.report.batches += 1;
        match trigger {
            SchedTrigger::Size => self.report.trigger_size += 1,
            SchedTrigger::Deadline => self.report.trigger_deadline += 1,
            SchedTrigger::Drain => self.report.trigger_drain += 1,
        }
        self.hist[size] += 1;
        self.report.completed += size as u64;
    }

    /// Books the latencies of a batch of `ids` that drained at `drain`:
    /// each from its original arrival in `times_ns`. Every member
    /// arrived before its launch, which precedes the drain, so this
    /// never wraps.
    pub fn complete(&mut self, ids: &[u32], times_ns: &[u64], drain: Ps) {
        self.latencies.extend(
            ids.iter()
                .map(|&id| drain - Ps::from_whole_ns(times_ns[id as usize])),
        );
    }

    /// `histogram()[k]` = batches formed with exactly `k` queries.
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// The run's counters as a telemetry [`SchedSnapshot`]. Batch sizes
    /// are integers, so the fills are exact: count = batches, sum =
    /// completed, extrema = the smallest and largest non-empty bucket.
    pub fn snapshot(&self) -> SchedSnapshot {
        let r = &self.report;
        let fill = |size: Option<usize>| size.map_or(0.0, |k| k as f64);
        SchedSnapshot {
            admitted: r.admitted,
            shed_oldest: r.shed,
            rejected_new: r.rejected,
            blocked: r.blocked,
            batches: r.batches,
            trigger_size: r.trigger_size,
            trigger_deadline: r.trigger_deadline,
            trigger_drain: r.trigger_drain,
            queue_depth_high_water: r.queue_high_water,
            batch_fill: Accum {
                count: r.batches,
                sum: r.completed as f64,
                min: fill(self.hist.iter().position(|&n| n > 0)),
                max: fill(self.hist.iter().rposition(|&n| n > 0)),
            },
        }
    }

    /// Derives the report's f64 statistics from the counters, the
    /// latencies and the run's makespan — the only place f64 touches
    /// event times, and the only place the latency quantiles are
    /// computed.
    pub fn finish(&mut self, makespan: Ps) -> SchedReport {
        let r = &mut self.report;
        r.makespan_ns = makespan.as_ns();
        r.achieved_qps = if makespan > Ps::ZERO {
            r.completed as f64 * NS_PER_SEC / r.makespan_ns
        } else {
            0.0
        };
        r.mean_batch_size = if r.batches > 0 {
            r.completed as f64 / r.batches as f64
        } else {
            0.0
        };
        let lat = &mut self.latencies;
        lat.sort_unstable();
        if let Some(&max) = lat.last() {
            r.max_latency_ns = max.as_ns();
            let sum: u128 = lat.iter().map(|l| u128::from(l.0)).sum();
            r.mean_latency_ns = Ps((sum / lat.len() as u128) as u64).as_ns();
        }
        r.p50_latency_ns = percentile(lat, 0.50).as_ns();
        r.p95_latency_ns = percentile(lat, 0.95).as_ns();
        r.p99_latency_ns = percentile(lat, 0.99).as_ns();
        debug_assert!(crate::report_is_finite(r), "non-finite stat in {r:?}");
        *r
    }
}

/// The discrete-event batch-formation loop (see the module docs). Owns
/// the admission queue, the formed-id scratch and the [`Tally`], so one
/// `EventLoop` drives many runs without allocating after the first.
#[derive(Debug)]
pub struct EventLoop {
    cfg: SchedConfig,
    /// Runs on the loop's ps clock: `cfg` with `max_wait_ns` in ps.
    policy: BatchPolicy,
    /// Ids popped for the batch being formed.
    ids: Vec<u32>,
    /// Ids of the batch whose stage 3 the clock has not yet placed.
    pending: Vec<u32>,
    /// The last run's counters and latencies, for the caller to
    /// [`finish`](Tally::finish).
    pub tally: Tally,
}

impl EventLoop {
    /// Creates a loop, preallocating the admission queue and histogram.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `cfg` fails
    /// [`SchedConfig::validate`].
    pub fn new(cfg: SchedConfig) -> Result<EventLoop> {
        let max_wait = Ps::from_whole_ns(cfg.max_wait_ns);
        Ok(EventLoop {
            cfg,
            policy: BatchPolicy::new(SchedConfig {
                max_wait_ns: max_wait.0,
                ..cfg
            })?,
            ids: Vec::with_capacity(cfg.max_batch_size),
            pending: Vec::with_capacity(cfg.max_batch_size),
            tally: Tally::new(cfg.max_batch_size),
        })
    }

    /// The configuration this loop batches under.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Replays `trace` through admission and batch formation, serving
    /// every formed batch through `server` and timing it on the depth-2
    /// [`PipelineClock`] ([`PipelineClock::step`]); after the last
    /// launch it flushes `server`. `next_arrival` yields the trace's
    /// `(id, arrival_ns)` pairs in order and `None` once the stream has
    /// drained; the caller has checked them with [`check_servable`].
    /// Returns the makespan — the instant the last batch drains — for
    /// [`Tally::finish`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Invariant`] if a batch would launch before one of
    /// its members arrived; `server` errors propagate.
    pub fn run<A, S>(
        &mut self,
        trace: &ArrivalTrace,
        mut next_arrival: A,
        server: &mut S,
    ) -> Result<Ps>
    where
        A: FnMut() -> Option<(u32, u64)>,
        S: Serve,
    {
        let times = &trace.times_ns;
        self.policy.clear();
        self.tally.begin(trace);
        // Arrivals on the loop's clock: whole ns, scaled to ps exactly.
        let mut next_arrival = || next_arrival().map(|(id, at)| (id, Ps::from_whole_ns(at).0));
        // One-arrival lookahead: the next arrival not yet admitted or
        // dropped (`None` = stream drained). Every decision below needs
        // it before a launch can commit.
        let mut peeked = next_arrival();
        // Instants in ps; the policy's API is plain u64.
        let mut now = 0u64;
        let mut clock = PipelineClock::default();
        let mut seq = 0usize;
        // Under Block a full queue latches the door shut until the next
        // launch frees slots.
        let mut door_blocked = false;

        loop {
            // Earliest legal launch instant for the current queue —
            // never before `now` (events already applied) or the
            // instant a staging slot frees. `None` = empty.
            let plan = match (
                self.policy
                    .launch_at(now, clock.slot_free().0, peeked.is_none()),
                peeked,
            ) {
                (None, None) => break,
                (Some(plan), None) => plan,
                (Some(plan), Some((_, at))) if door_blocked || at > plan.at_ns => plan,
                // Arrivals at or before the launch instant are admitted
                // first — they may join this batch or change the
                // trigger. An empty queue (no plan) jumps the clock to
                // the next arrival; it always has room, so the door
                // reopens.
                (_, Some((id, at))) => {
                    now = now.max(at);
                    let consumed = self.tally.admit(&mut self.policy, id, at);
                    if consumed {
                        peeked = next_arrival();
                    }
                    door_blocked = !consumed;
                    continue;
                }
            };

            // Launch. The policy already attributed the trigger by
            // exact integer comparison (size beats deadline beats
            // drain on ties).
            now = plan.at_ns;
            let newest = self
                .policy
                .take_batch(&mut self.ids)
                .expect("launch_at planned a nonempty queue");
            // Exact integer invariant, enforced in release builds too:
            // every admitted arrival precedes (or coincides with) the
            // launch instant.
            if newest > now {
                return Err(CoreError::Invariant(format!(
                    "batch {seq} launches at {now} ps but contains an arrival \
                     admitted at {newest} ps"
                )));
            }
            let launch = Launch {
                seq,
                at: Ps(now),
                ids: &self.ids,
            };
            let step = server.serve(&launch, &self.tally)?;
            self.tally.batch(self.ids.len(), plan.trigger);
            // Placing this batch places the pending one's stage 3: its
            // requests complete then. This batch becomes the pending one.
            if let Some(d) = clock.step(Ps(now), step) {
                self.tally.complete(&self.pending, times, d.drain);
            }
            std::mem::swap(&mut self.ids, &mut self.pending);
            seq += 1;
            door_blocked = false;
        }
        if let Some((s2, s3)) = server.flush()? {
            clock.settle(s2, s3);
        }
        if let Some(d) = clock.finish() {
            self.tally.complete(&self.pending, times, d.drain);
        }
        // The last batch drains last: the bus places stage 3s in order.
        Ok(clock.slot_free())
    }
}
