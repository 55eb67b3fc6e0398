//! Property tests for the scheduler's accounting identities (ISSUE 6
//! satellite): over random offered loads, overload policies, queue
//! capacities, batching deadlines and batch shapes,
//!
//! 1. **conservation** — every arrival is accounted exactly once:
//!    `completed + shed + rejected == requests` and
//!    `admitted == completed + shed` (a shed request was admitted
//!    first, then evicted; a rejected one never entered the queue);
//! 2. **FIFO launches** — the concatenation of batch ids in launch
//!    order is strictly increasing (admission order is arrival order,
//!    and the queue pops oldest-first), and every batch holds between
//!    1 and `max_batch` queries;
//! 3. **monotone modeled time** — the run returns `Ok`: the event
//!    loop's exact integer-ns invariant (`newest admitted arrival <=
//!    launch time`) turns any non-monotone launch into an `Err`, so a
//!    green run *is* the monotonicity proof. Derived statistics stay
//!    finite and ordered (`p50 <= p95 <= p99 <= max`);
//! 4. **determinism** — a second run of the same case produces the
//!    byte-identical report and launch trace.
//!
//! One engine is built up front and reused across cases: serving is
//! stateless between `Scheduler::run` calls, and engine construction,
//! not the event loop, is the expensive part.

use dlrm_model::EmbeddingTable;
use proptest::prelude::*;
use proptest::TestRunner;
use scheduler::{report_is_finite, OverloadPolicy, SchedConfig, SchedReport, Scheduler};
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

const ENGINE_BATCH: usize = 64;

/// One scheduler run: the report plus the launch trace (batch sizes
/// and the concatenated ids in launch order).
fn run_once(
    eng: &mut UpdlrmEngine,
    wl: &Workload,
    cfg: SchedConfig,
) -> (SchedReport, Vec<usize>, Vec<u32>) {
    let mut s = Scheduler::new(cfg).expect("generated config is valid");
    let mut sizes = Vec::new();
    let mut all_ids = Vec::new();
    let report = s
        .run(eng, wl, |_, ids, _, _| {
            sizes.push(ids.len());
            all_ids.extend_from_slice(ids);
        })
        .expect("modeled run must uphold the integer-ns launch invariant");
    (report, sizes, all_ids)
}

#[test]
fn accounting_identities_hold_for_random_configs() {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let base = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: 2,
            num_batches: 2,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..2)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, 32, 3, t as u64).unwrap())
        .collect();
    let mut config = UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform);
    config.batch_size = ENGINE_BATCH;
    let mut eng = UpdlrmEngine::from_workload(config, &tables, &base).expect("engine builds");
    // One engine serves every case, twice: a warm-up batch pays the
    // fill of its DPUs' resident rows, or the very first run alone
    // would and differ from its repeat.
    eng.run_batch(&base.batches[0]).expect("warm-up");

    let strategy = (
        500u64..50_000_000,         // offered qps: idle to far past saturation
        0u8..3,                     // overload policy
        1usize..129,                // queue capacity
        1usize..(ENGINE_BATCH + 1), // max batch size
        1u64..2_001,                // batching deadline, us
        any::<bool>(),              // bursty vs poisson arrivals
        0u64..1_000,                // arrival seed
    );
    TestRunner::new(ProptestConfig::with_cases(24)).run(
        &strategy,
        |(qps, pol, queue_cap, max_batch, wait_us, bursty, seed)| {
            let policy = match pol {
                0 => OverloadPolicy::Block,
                1 => OverloadPolicy::ShedOldest,
                _ => OverloadPolicy::RejectNew,
            };
            let process = if bursty {
                ArrivalProcess::bursty(qps as f64, seed)
            } else {
                ArrivalProcess::poisson(qps as f64, seed)
            };
            let mut wl = base.clone();
            wl.stamp_arrivals(process);
            let cfg = SchedConfig {
                max_batch_size: max_batch,
                max_wait_ns: wait_us * 1_000,
                queue_cap,
                policy,
            };

            let (report, sizes, all_ids) = run_once(&mut eng, &wl, cfg);

            // 1. Conservation.
            prop_assert_eq!(
                report.completed + report.shed + report.rejected,
                report.requests,
                "every arrival completes, is shed, or is rejected ({:?})",
                report
            );
            prop_assert_eq!(
                report.admitted,
                report.completed + report.shed,
                "admitted requests either complete or get evicted ({:?})",
                report
            );
            prop_assert_eq!(report.completed, all_ids.len() as u64);
            prop_assert!(report.queue_high_water as usize <= queue_cap);
            if policy != OverloadPolicy::ShedOldest {
                prop_assert_eq!(report.shed, 0);
            }
            if policy != OverloadPolicy::RejectNew {
                prop_assert_eq!(report.rejected, 0);
            }

            // 2. FIFO launches within batch-size bounds.
            prop_assert_eq!(sizes.len() as u64, report.batches);
            for &s in &sizes {
                prop_assert!(
                    s >= 1 && s <= max_batch,
                    "batch of {} vs max {}",
                    s,
                    max_batch
                );
            }
            prop_assert!(
                all_ids.windows(2).all(|w| w[0] < w[1]),
                "launch order must follow admission order"
            );
            prop_assert_eq!(
                report.trigger_size + report.trigger_deadline + report.trigger_drain,
                report.batches,
                "every batch has exactly one trigger ({:?})",
                report
            );

            // 3. Finite, ordered statistics (monotone modeled time is
            // enforced by run_once's expect on the Ok).
            prop_assert!(report_is_finite(&report), "{:?}", report);
            if report.completed > 0 {
                prop_assert!(report.p50_latency_ns <= report.p95_latency_ns);
                prop_assert!(report.p95_latency_ns <= report.p99_latency_ns);
                prop_assert!(report.p99_latency_ns <= report.max_latency_ns);
                prop_assert!(report.makespan_ns >= 0.0);
            }

            // 4. Determinism: modeled time has no wall-clock jitter.
            let (again, sizes2, ids2) = run_once(&mut eng, &wl, cfg);
            prop_assert_eq!(report, again, "reports must be byte-identical across runs");
            prop_assert_eq!(sizes, sizes2);
            prop_assert_eq!(all_ids, ids2);
            Ok(())
        },
    );
}
