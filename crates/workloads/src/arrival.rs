//! Open-loop arrival processes on modeled time.
//!
//! A closed-loop harness (the `run` path) feeds the engine a new batch
//! the instant the previous one finishes, so it measures capacity but
//! never queueing. Real recommendation traffic is open-loop: requests
//! arrive on their own clock regardless of whether the server keeps
//! up. This module stamps each query of a [`Workload`](crate::Workload)
//! with a deterministic arrival timestamp (integer nanoseconds of
//! modeled time) drawn from a seeded process, so the scheduler can
//! replay identical traffic across runs and machines.
//!
//! Two processes are provided:
//!
//! * [`ArrivalProcess::Poisson`] — exponential inter-arrivals at a
//!   fixed rate, the classic open-loop baseline.
//! * [`ArrivalProcess::Bursty`] — a two-state Markov-modulated Poisson
//!   process (MMPP-2) alternating between a burst state and a quiet
//!   state whose rates are chosen so the long-run mean equals `qps`.
//!   This is the shape that exposes tail-latency and shedding behavior
//!   a flat Poisson stream hides.
//!
//! Everything is driven by the vendored `StdRng`, which only exposes
//! uniform draws, so exponential variates are hand-rolled via inverse
//! transform: `dt = -ln(1 - u) / rate`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nanoseconds per second, the conversion between QPS and modeled time.
pub const NS_PER_SEC: f64 = 1e9;

/// The latest arrival stamp, in ns, that the serving front-ends' modeled
/// clock — a `u64` of picoseconds, ≈ 213 days — can hold. Traces are
/// refused past it when read.
pub const MAX_ARRIVAL_NS: u64 = u64::MAX / 1_000;

/// How query arrival times are produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// No arrival times: the legacy regime where the caller feeds
    /// batches back-to-back.
    #[default]
    ClosedLoop,
    /// Exponential inter-arrivals at `qps` requests per second.
    Poisson {
        /// Mean offered rate, requests per second.
        qps: f64,
        /// RNG seed for the inter-arrival draws.
        seed: u64,
    },
    /// Two-state MMPP: bursts at `qps * burst_factor`, quiet periods at
    /// a compensating lower rate so the long-run mean stays `qps`.
    Bursty {
        /// Long-run mean offered rate, requests per second.
        qps: f64,
        /// Rate multiplier while in the burst state (> 1).
        burst_factor: f64,
        /// Long-run fraction of time spent in the burst state (in
        /// (0, 1), and `burst_factor * burst_fraction` must stay < 1
        /// for the quiet-state rate to remain positive).
        burst_fraction: f64,
        /// RNG seed for dwell and inter-arrival draws.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `qps` with the given seed.
    pub fn poisson(qps: f64, seed: u64) -> Self {
        ArrivalProcess::Poisson { qps, seed }
    }

    /// Bursty arrivals at mean `qps` with the default burst shape
    /// (4x rate bursts covering 20% of modeled time).
    pub fn bursty(qps: f64, seed: u64) -> Self {
        ArrivalProcess::Bursty {
            qps,
            burst_factor: 4.0,
            burst_fraction: 0.2,
            seed,
        }
    }

    /// The configured mean rate, if the process is open-loop.
    pub fn offered_qps(&self) -> Option<f64> {
        match *self {
            ArrivalProcess::ClosedLoop => None,
            ArrivalProcess::Poisson { qps, .. } | ArrivalProcess::Bursty { qps, .. } => Some(qps),
        }
    }

    /// True for the closed-loop sentinel.
    pub fn is_closed_loop(&self) -> bool {
        matches!(self, ArrivalProcess::ClosedLoop)
    }

    /// Short human/CLI tag: `closed`, `poisson` or `bursty`.
    pub fn tag(&self) -> &'static str {
        match self {
            ArrivalProcess::ClosedLoop => "closed",
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// The instantaneous-rate envelope `(min_qps, max_qps)` the process
    /// can ever offer, or `None` for the closed-loop sentinel.
    ///
    /// Poisson is flat (`qps, qps`). The MMPP's two states bound it:
    /// the quiet state runs at `qps * (1 - burst_factor *
    /// burst_fraction) / (1 - burst_fraction)` and the burst state at
    /// `qps * burst_factor`, so any measured rate over a stamped trace
    /// must land inside this envelope (up to finite-sample noise) —
    /// the property `arrival_props.rs` checks.
    pub fn rate_bounds(&self) -> Option<(f64, f64)> {
        match *self {
            ArrivalProcess::ClosedLoop => None,
            ArrivalProcess::Poisson { qps, .. } => Some((qps, qps)),
            ArrivalProcess::Bursty {
                qps,
                burst_factor,
                burst_fraction,
                ..
            } => {
                let quiet = qps * (1.0 - burst_factor * burst_fraction) / (1.0 - burst_fraction);
                Some((quiet, qps * burst_factor))
            }
        }
    }
}

/// Per-query arrival timestamps plus the process that generated them.
///
/// `times_ns[k]` is the arrival time of global query `k` (query `k`
/// of the workload in batch-major order) in modeled nanoseconds from
/// the start of the trace. Times are strictly increasing: the f64
/// inter-arrival draws are strictly positive, and integer stamping
/// rounds up to `previous + 1` whenever rounding would collapse two
/// arrivals onto the same nanosecond, so every stamped inter-arrival
/// is at least 1 ns (which also caps a stampable process at 1 query
/// per ns = 1e9 QPS). An empty vector is the closed-loop sentinel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalTrace {
    /// The generating process (parameters travel with the trace so a
    /// saved workload reproduces its schedule exactly).
    pub process: ArrivalProcess,
    /// Arrival time of each query, ns, strictly increasing.
    pub times_ns: Vec<u64>,
}

/// One exponential variate with the given rate (events per ns).
fn exp_ns(rng: &mut StdRng, rate_per_ns: f64) -> f64 {
    debug_assert!(rate_per_ns > 0.0);
    let u: f64 = rng.random_range(0.0..1.0);
    -(1.0 - u).ln() / rate_per_ns
}

impl ArrivalTrace {
    /// The closed-loop sentinel: no arrival times.
    pub fn closed_loop() -> Self {
        ArrivalTrace::default()
    }

    /// Generates `n` arrival timestamps from `process`.
    ///
    /// Deterministic in the process parameters (including its seed):
    /// the same call always yields bit-identical timestamps.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `qps`, `burst_factor < 1`, or a
    /// `burst_fraction` outside `(0, 1)` / incompatible with
    /// `burst_factor` — callers (CLI, benches) validate first.
    pub fn generate(process: ArrivalProcess, n: usize) -> Self {
        let times_ns = match process {
            ArrivalProcess::ClosedLoop => Vec::new(),
            ArrivalProcess::Poisson { qps, seed } => {
                assert!(qps > 0.0, "poisson qps must be positive");
                let mut rng = StdRng::seed_from_u64(seed);
                let rate = qps / NS_PER_SEC;
                let mut t = 0.0f64;
                let mut last = 0u64;
                (0..n)
                    .map(|_| {
                        t += exp_ns(&mut rng, rate);
                        // Strictly increasing integer stamps: rounding
                        // may collapse sub-ns gaps, so floor at +1 ns.
                        last = (t.round() as u64).max(last + 1);
                        last
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                qps,
                burst_factor,
                burst_fraction,
                seed,
            } => {
                assert!(qps > 0.0, "bursty qps must be positive");
                assert!(burst_factor >= 1.0, "burst_factor must be >= 1");
                assert!(
                    burst_fraction > 0.0 && burst_fraction < 1.0,
                    "burst_fraction must be in (0, 1)"
                );
                assert!(
                    burst_factor * burst_fraction < 1.0,
                    "burst_factor * burst_fraction must be < 1 so the quiet rate stays positive"
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let rate_burst = qps * burst_factor / NS_PER_SEC;
                // Quiet rate compensates so the time-weighted mean is qps.
                let rate_quiet = qps * (1.0 - burst_factor * burst_fraction)
                    / (1.0 - burst_fraction)
                    / NS_PER_SEC;
                // Dwell means: one burst/quiet cycle spans ~200 mean
                // arrivals, so a trace of a few thousand queries sees
                // multiple bursts.
                let cycle_ns = 200.0 / (qps / NS_PER_SEC);
                let mean_burst_ns = burst_fraction * cycle_ns;
                let mean_quiet_ns = (1.0 - burst_fraction) * cycle_ns;
                let mut t = 0.0f64;
                let mut last = 0u64;
                let mut in_burst = false;
                let mut state_end = exp_ns(&mut rng, 1.0 / mean_quiet_ns);
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let rate = if in_burst { rate_burst } else { rate_quiet };
                    let dt = exp_ns(&mut rng, rate);
                    if t + dt <= state_end {
                        t += dt;
                        // Same strictly-increasing stamping as Poisson.
                        last = (t.round() as u64).max(last + 1);
                        out.push(last);
                    } else {
                        // Memorylessness lets us discard the partial
                        // draw and restart from the state boundary.
                        t = state_end;
                        in_burst = !in_burst;
                        let mean = if in_burst {
                            mean_burst_ns
                        } else {
                            mean_quiet_ns
                        };
                        state_end = t + exp_ns(&mut rng, 1.0 / mean);
                    }
                }
                out
            }
        };
        ArrivalTrace { process, times_ns }
    }

    /// True when no arrival times are attached (closed-loop regime).
    pub fn is_closed_loop(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// Number of stamped queries.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// True when no timestamps are attached.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// Timestamp of the last arrival, ns (0 when closed-loop).
    pub fn last_arrival_ns(&self) -> u64 {
        self.times_ns.last().copied().unwrap_or(0)
    }

    /// Empirical offered rate: queries per second of modeled time over
    /// the span of the trace (0 when closed-loop).
    pub fn measured_offered_qps(&self) -> f64 {
        let last = self.last_arrival_ns();
        if last == 0 {
            0.0
        } else {
            self.times_ns.len() as f64 * NS_PER_SEC / last as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let a = ArrivalTrace::generate(ArrivalProcess::poisson(10_000.0, 7), 500);
        let b = ArrivalTrace::generate(ArrivalProcess::poisson(10_000.0, 7), 500);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.times_ns.windows(2).all(|w| w[0] < w[1]));
        let c = ArrivalTrace::generate(ArrivalProcess::poisson(10_000.0, 8), 500);
        assert_ne!(a.times_ns, c.times_ns, "seed must matter");
    }

    #[test]
    fn poisson_mean_rate_tracks_qps() {
        let qps = 50_000.0;
        let t = ArrivalTrace::generate(ArrivalProcess::poisson(qps, 3), 4000);
        let measured = t.measured_offered_qps();
        assert!(
            (measured - qps).abs() < qps * 0.1,
            "measured {measured} vs requested {qps}"
        );
    }

    #[test]
    fn bursty_mean_rate_tracks_qps_and_is_burstier() {
        let qps = 50_000.0;
        let n = 8000;
        let p = ArrivalTrace::generate(ArrivalProcess::poisson(qps, 3), n);
        let b = ArrivalTrace::generate(ArrivalProcess::bursty(qps, 3), n);
        assert!(b.times_ns.windows(2).all(|w| w[0] < w[1]));
        let measured = b.measured_offered_qps();
        assert!(
            (measured - qps).abs() < qps * 0.2,
            "measured {measured} vs requested {qps}"
        );
        // Squared coefficient of variation of inter-arrivals: 1 for
        // Poisson, > 1 for MMPP.
        let scv = |t: &ArrivalTrace| {
            let dts: Vec<f64> = t
                .times_ns
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64)
                .collect();
            let mean = dts.iter().sum::<f64>() / dts.len() as f64;
            let var = dts.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / dts.len() as f64;
            var / (mean * mean)
        };
        let (scv_p, scv_b) = (scv(&p), scv(&b));
        assert!(
            scv_b > scv_p * 1.5,
            "bursty SCV {scv_b} should exceed poisson SCV {scv_p}"
        );
    }

    #[test]
    fn closed_loop_is_the_empty_sentinel() {
        let t = ArrivalTrace::generate(ArrivalProcess::ClosedLoop, 100);
        assert!(t.is_closed_loop());
        assert_eq!(t.last_arrival_ns(), 0);
        assert_eq!(t.measured_offered_qps(), 0.0);
        assert_eq!(ArrivalTrace::closed_loop(), ArrivalTrace::default());
    }
}
