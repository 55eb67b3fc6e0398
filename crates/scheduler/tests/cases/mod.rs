//! The overload case table the cross-crate differential suites share.
//!
//! Every serving front-end is the same [`scheduler::EventLoop`] with a
//! different arrival source and server, so the suites that hold them
//! equal to `Scheduler::run` — `runtime/tests/differential.rs` (the
//! oracle-locked wall runtime) and `tenancy/tests/fleet_tests.rs` (a
//! one-tenant fleet) — pull this file in with `#[path]` and walk the
//! same cases: each overload policy at saturation plus a light-load
//! control, with telemetry on.

use scheduler::{OverloadPolicy, SchedConfig, SchedReport};

/// One arrival process + batcher configuration.
pub struct Case {
    pub name: &'static str,
    /// Two-state MMPP instead of Poisson arrivals.
    pub bursty: bool,
    pub qps: f64,
    pub seed: u64,
    pub sched: SchedConfig,
    /// The offered rate is far beyond any modeled engine's capacity, so
    /// the overload policy must engage.
    pub saturating: bool,
}

pub static CASES: [Case; 4] = [
    Case {
        name: "light load",
        bursty: false,
        qps: 1_000.0,
        seed: 11,
        sched: SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 50_000,
            queue_cap: 64,
            policy: OverloadPolicy::ShedOldest,
        },
        saturating: false,
    },
    Case {
        name: "shedding saturation",
        bursty: false,
        qps: 50_000_000.0,
        seed: 13,
        sched: SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 100_000,
            queue_cap: 48,
            policy: OverloadPolicy::ShedOldest,
        },
        saturating: true,
    },
    Case {
        name: "rejecting bursts",
        bursty: true,
        qps: 20_000_000.0,
        seed: 17,
        sched: SchedConfig {
            max_batch_size: 16,
            max_wait_ns: 30_000,
            queue_cap: 24,
            policy: OverloadPolicy::RejectNew,
        },
        saturating: true,
    },
    Case {
        name: "blocking saturation",
        bursty: false,
        qps: 50_000_000.0,
        seed: 19,
        sched: SchedConfig {
            max_batch_size: 32,
            max_wait_ns: 100_000,
            queue_cap: 48,
            policy: OverloadPolicy::Block,
        },
        saturating: true,
    },
];

impl Case {
    /// Anti-vacuity: a saturating case must actually have exercised its
    /// overload policy, and a light one must not have.
    pub fn assert_exercised(&self, report: &SchedReport) {
        let engaged = match self.sched.policy {
            OverloadPolicy::ShedOldest => report.shed,
            OverloadPolicy::RejectNew => report.rejected,
            OverloadPolicy::Block => report.blocked,
        };
        assert_eq!(
            engaged > 0,
            self.saturating,
            "{}: overload policy engagement {engaged} contradicts the case: {report:?}",
            self.name
        );
    }
}
