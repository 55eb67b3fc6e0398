//! The clock-agnostic batch-forming core shared by the modeled-time
//! event loop ([`crate::Scheduler`]) and the wall-clock runtime (the
//! `runtime` crate).
//!
//! A [`BatchPolicy`] owns the admission queue and answers two
//! questions, both in plain integer nanoseconds with no opinion about
//! *whose* nanoseconds they are:
//!
//! 1. [`BatchPolicy::admit`] — what happens to an arrival given the
//!    queue state and the configured [`OverloadPolicy`];
//! 2. [`BatchPolicy::launch_at`] — the earliest instant a batch may
//!    launch given `now`, the engine's availability and whether the
//!    arrival stream has drained, plus *why* it launches (the
//!    size / deadline / drain [`SchedTrigger`] attribution, decided by
//!    exact integer comparison — no float ulp can flip it).
//!
//! The discrete-event scheduler feeds it modeled timestamps and jumps
//! its clock to the returned instants; the wall-clock batcher feeds it
//! (possibly time-scaled) monotonic-clock readings and sleeps until
//! them. Both form byte-identical batches for the same admission
//! sequence because every decision lives here, not in the drivers.

use std::collections::VecDeque;

use updlrm_core::{Result, SchedTrigger};

use crate::{OverloadPolicy, SchedConfig};

/// What [`BatchPolicy::admit`] did with an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The arrival entered the queue; `depth` is the queue length just
    /// after admission.
    Admitted {
        /// Queue depth right after this admission.
        depth: usize,
    },
    /// The queue was full under [`OverloadPolicy::ShedOldest`]: the
    /// oldest queued request was evicted (and never completes) to make
    /// room, and the arrival entered the queue.
    AdmittedAfterShed {
        /// Queue depth right after this admission.
        depth: usize,
        /// Id of the evicted request.
        evicted: u32,
    },
    /// The queue was full under [`OverloadPolicy::RejectNew`]: the
    /// arrival was dropped on the floor.
    Rejected,
    /// The queue was full under [`OverloadPolicy::Block`]: the arrival
    /// stays at the door, nothing was consumed. The caller must
    /// re-offer it after the next launch frees a slot.
    Blocked,
}

/// The earliest legal launch instant and its trigger attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPlan {
    /// Instant (integer ns on the caller's clock) the batch launches.
    pub at_ns: u64,
    /// Why the batch closes. Priority on exact-tie: size beats
    /// deadline beats drain.
    pub trigger: SchedTrigger,
}

/// The batch-forming core: admission queue plus launch-trigger logic,
/// clock-agnostic (see the module docs).
#[derive(Debug)]
pub struct BatchPolicy {
    cfg: SchedConfig,
    /// Admitted requests: (id, arrival ns), FIFO.
    queue: VecDeque<(u32, u64)>,
}

impl BatchPolicy {
    /// Creates a policy, validating and preallocating for `cfg`.
    ///
    /// # Errors
    ///
    /// [`updlrm_core::CoreError::InvalidConfig`] if `cfg` fails
    /// [`SchedConfig::validate`].
    pub fn new(cfg: SchedConfig) -> Result<BatchPolicy> {
        cfg.validate()?;
        Ok(BatchPolicy {
            cfg,
            queue: VecDeque::with_capacity(cfg.queue_cap),
        })
    }

    /// The configuration this policy applies.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Queued requests right now.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when the queue is at `queue_cap`.
    pub fn is_full(&self) -> bool {
        self.queue.len() == self.cfg.queue_cap
    }

    /// Arrival time of the oldest queued request, if any.
    pub fn head_arrival_ns(&self) -> Option<u64> {
        self.queue.front().map(|&(_, at)| at)
    }

    /// Empties the queue (a fresh run).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Offers arrival `(id, at_ns)` to the queue under the configured
    /// [`OverloadPolicy`]. See [`AdmitOutcome`] for what each return
    /// means; only [`AdmitOutcome::Blocked`] leaves the arrival
    /// unconsumed.
    pub fn admit(&mut self, id: u32, at_ns: u64) -> AdmitOutcome {
        if self.is_full() {
            match self.cfg.policy {
                OverloadPolicy::Block => return AdmitOutcome::Blocked,
                OverloadPolicy::RejectNew => return AdmitOutcome::Rejected,
                OverloadPolicy::ShedOldest => {
                    let (evicted, _) = self.queue.pop_front().expect("full queue is nonempty");
                    self.queue.push_back((id, at_ns));
                    return AdmitOutcome::AdmittedAfterShed {
                        depth: self.queue.len(),
                        evicted,
                    };
                }
            }
        }
        self.queue.push_back((id, at_ns));
        AdmitOutcome::Admitted {
            depth: self.queue.len(),
        }
    }

    /// The earliest instant the queued work may launch, or `None` when
    /// the queue is empty (nothing to launch). A launch can never
    /// precede `now_ns` (events already applied) or `slot_free_ns`
    /// (no engine staging slot is free before then); `drained` means no further
    /// arrival can ever join the queue, enabling the final flush.
    ///
    /// The trigger attribution ties are broken by **exact integer
    /// equality** — size beats deadline beats drain.
    pub fn launch_at(&self, now_ns: u64, slot_free_ns: u64, drained: bool) -> Option<LaunchPlan> {
        let head = self.head_arrival_ns()?;
        let floor = slot_free_ns.max(now_ns);
        // The deadline candidate always exists for a nonempty queue;
        // saturate so a huge max_wait_ns cannot wrap modeled time.
        let t_deadline = head.saturating_add(self.cfg.max_wait_ns).max(floor);
        let t_size = (self.queue.len() >= self.cfg.max_batch_size).then_some(floor);
        let t_drain = drained.then_some(floor);
        let at_ns = t_size
            .unwrap_or(u64::MAX)
            .min(t_deadline)
            .min(t_drain.unwrap_or(u64::MAX));
        let trigger = if t_size == Some(at_ns) {
            SchedTrigger::Size
        } else if t_deadline == at_ns {
            SchedTrigger::Deadline
        } else {
            SchedTrigger::Drain
        };
        Some(LaunchPlan { at_ns, trigger })
    }

    /// Pops up to `max_batch_size` requests into `ids` (cleared first,
    /// FIFO order) and returns the newest popped arrival time — the
    /// caller's launch-ordering invariant is `newest <= launch instant`.
    /// Returns `None` when nothing is queued.
    pub fn take_batch(&mut self, ids: &mut Vec<u32>) -> Option<u64> {
        if self.queue.is_empty() {
            return None;
        }
        ids.clear();
        let k = self.queue.len().min(self.cfg.max_batch_size);
        let mut newest = 0u64;
        for _ in 0..k {
            let (id, at) = self.queue.pop_front().expect("len checked");
            ids.push(id);
            // FIFO admission order is not always arrival order under
            // Block (a door-held arrival enters late), so track max.
            newest = newest.max(at);
        }
        Some(newest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(cfg: SchedConfig) -> BatchPolicy {
        BatchPolicy::new(cfg).expect("valid cfg")
    }

    #[test]
    fn admit_applies_each_overload_policy() {
        let cfg = SchedConfig {
            queue_cap: 2,
            ..SchedConfig::default()
        };
        for (pol, expect_full) in [
            (OverloadPolicy::Block, AdmitOutcome::Blocked),
            (OverloadPolicy::RejectNew, AdmitOutcome::Rejected),
            (
                OverloadPolicy::ShedOldest,
                AdmitOutcome::AdmittedAfterShed {
                    depth: 2,
                    evicted: 0,
                },
            ),
        ] {
            let mut p = policy(SchedConfig { policy: pol, ..cfg });
            assert_eq!(p.admit(0, 10), AdmitOutcome::Admitted { depth: 1 });
            assert_eq!(p.admit(1, 20), AdmitOutcome::Admitted { depth: 2 });
            assert!(p.is_full());
            assert_eq!(p.admit(2, 30), expect_full, "{pol:?}");
        }
    }

    #[test]
    fn launch_trigger_tie_breaks_are_exact_integer_priority() {
        // A full queue whose head deadline lands exactly on the floor:
        // size must win the tie.
        let mut p = policy(SchedConfig {
            max_batch_size: 2,
            max_wait_ns: 100,
            queue_cap: 4,
            policy: OverloadPolicy::ShedOldest,
        });
        p.admit(0, 0);
        p.admit(1, 0);
        let plan = p.launch_at(100, 100, true).unwrap();
        assert_eq!(plan.at_ns, 100);
        assert_eq!(plan.trigger, SchedTrigger::Size);

        // Below the size threshold, deadline beats drain on the tie.
        let mut p = policy(SchedConfig {
            max_batch_size: 8,
            max_wait_ns: 100,
            queue_cap: 4,
            policy: OverloadPolicy::ShedOldest,
        });
        p.admit(0, 0);
        let plan = p.launch_at(100, 0, true).unwrap();
        assert_eq!(plan.at_ns, 100);
        assert_eq!(plan.trigger, SchedTrigger::Deadline);

        // Drain only wins when it is strictly earliest.
        let plan = p.launch_at(0, 0, true).unwrap();
        assert_eq!(plan.at_ns, 0);
        assert_eq!(plan.trigger, SchedTrigger::Drain);
    }

    #[test]
    fn launch_never_precedes_now_or_engine_free() {
        let mut p = policy(SchedConfig::default());
        p.admit(0, 5);
        let plan = p.launch_at(1_000_000, 2_000_000, true).unwrap();
        assert_eq!(plan.at_ns, 2_000_000);
        assert!(p.launch_at(0, 0, false).unwrap().at_ns >= 5);
    }

    #[test]
    fn deadline_saturates_instead_of_wrapping() {
        let mut p = policy(SchedConfig {
            max_wait_ns: u64::MAX,
            ..SchedConfig::default()
        });
        p.admit(0, u64::MAX - 3);
        let plan = p.launch_at(0, 0, false).unwrap();
        assert_eq!(plan.at_ns, u64::MAX);
    }

    #[test]
    fn take_batch_pops_fifo_and_reports_newest_arrival() {
        let mut p = policy(SchedConfig {
            max_batch_size: 3,
            ..SchedConfig::default()
        });
        for (id, at) in [(7u32, 10u64), (8, 40), (9, 20), (10, 50)] {
            p.admit(id, at);
        }
        let mut ids = Vec::new();
        let newest = p.take_batch(&mut ids).unwrap();
        assert_eq!(ids, vec![7, 8, 9]);
        assert_eq!(newest, 40, "newest is the max, not the last");
        assert_eq!(p.len(), 1);
        let newest = p.take_batch(&mut ids).unwrap();
        assert_eq!(ids, vec![10]);
        assert_eq!(newest, 50);
        assert!(p.take_batch(&mut ids).is_none());
    }
}
