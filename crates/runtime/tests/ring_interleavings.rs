//! What the runtime's ring pins, two ways. The ring is std's bounded
//! channel (`sync_channel`) behind a one-producer, one-consumer
//! wrapper; these tests check the wrapper's handling of the channel's
//! outcomes, not the channel itself.
//!
//! 1. **Exhaustive interleaving enumeration** — with one producer and
//!    one consumer, every history is some interleaving of the
//!    producer's pushes with the consumer's pops. All of them (hundreds
//!    per shape) are run against a reference `VecDeque` model: a push
//!    is refused exactly when the model is full, a pop returns the
//!    model's front or nothing when it is empty, and the drain yields
//!    what the model still holds, in order.
//! 2. **Real-thread stress** — two threads: every value arrives exactly
//!    once and in order, a producer that hangs up ends the consumer's
//!    stream (`pop_blocking` returns `None`), a consumer that hangs up
//!    makes the producer's push fail with its value instead of
//!    blocking, and a request/response pair over two capacity-1 rings
//!    loses no wakeup.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use runtime::ring;

/// Runs one schedule: `schedule[i]` says whose operation goes next
/// (true = producer push, false = consumer pop). The ring must agree
/// with the model at every step.
fn run_schedule(capacity: usize, schedule: &[bool]) {
    let (mut tx, mut rx) = ring::<u64>(capacity);
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next_value = 0u64;
    for (step, &is_push) in schedule.iter().enumerate() {
        if is_push {
            let accepted = tx.try_push(next_value).is_ok();
            let model_accepts = model.len() < capacity;
            assert_eq!(
                accepted, model_accepts,
                "cap {capacity} step {step}: push accept mismatch ({schedule:?})"
            );
            if accepted {
                model.push_back(next_value);
            }
            // The value is "offered" either way; a rejected push in the
            // real runtime retries the same value, which the enumeration
            // models by offering a fresh one (coverage, not replay).
            next_value += 1;
        } else {
            let got = rx.try_pop();
            let want = model.pop_front();
            assert_eq!(
                got, want,
                "cap {capacity} step {step}: pop mismatch ({schedule:?})"
            );
        }
    }
    // Drain: whatever the model still holds must come out, in order.
    while let Some(want) = model.pop_front() {
        assert_eq!(rx.try_pop(), Some(want));
    }
    assert!(rx.try_pop().is_none());
}

/// Enumerates every interleaving of `pushes` producer ops with `pops`
/// consumer ops, depth-first, invoking `run_schedule` on each.
fn enumerate(capacity: usize, pushes: usize, pops: usize) -> usize {
    fn dfs(
        capacity: usize,
        pushes_left: usize,
        pops_left: usize,
        prefix: &mut Vec<bool>,
        count: &mut usize,
    ) {
        if pushes_left == 0 && pops_left == 0 {
            run_schedule(capacity, prefix);
            *count += 1;
            return;
        }
        if pushes_left > 0 {
            prefix.push(true);
            dfs(capacity, pushes_left - 1, pops_left, prefix, count);
            prefix.pop();
        }
        if pops_left > 0 {
            prefix.push(false);
            dfs(capacity, pushes_left, pops_left - 1, prefix, count);
            prefix.pop();
        }
    }
    let mut count = 0;
    dfs(capacity, pushes, pops, &mut Vec::new(), &mut count);
    count
}

#[test]
fn exhaustive_interleavings_small_rings() {
    // C(12,6) = 924 schedules per capacity; capacities 1..=4 cover
    // the degenerate single-slot ring, sizes around the op count, and
    // a ring the schedule can wrap several times.
    for capacity in 1..=4 {
        let n = enumerate(capacity, 6, 6);
        assert_eq!(n, 924, "all interleavings must be visited");
    }
}

#[test]
fn exhaustive_interleavings_asymmetric_ops() {
    // Push-heavy and pop-heavy shapes hit sustained-full and
    // sustained-empty regimes that balanced shapes skim past.
    for capacity in [1, 2, 3] {
        enumerate(capacity, 8, 4);
        enumerate(capacity, 4, 8);
    }
}

#[test]
fn stress_every_value_arrives_exactly_once_in_order() {
    const N: u64 = 100_000;
    for capacity in [1usize, 2, 7, 64] {
        let (mut tx, mut rx) = ring::<u64>(capacity);
        let producer = thread::spawn(move || {
            for v in 0..N {
                tx.push_blocking(v).expect("consumer alive");
            }
        });
        let mut expected = 0u64;
        while let Some(v) = rx.pop_blocking() {
            assert_eq!(v, expected, "cap {capacity}: FIFO violated");
            expected += 1;
        }
        assert_eq!(expected, N, "cap {capacity}: values lost");
        producer.join().unwrap();
    }
}

#[test]
fn stress_ping_pong_two_rings() {
    // Request/response over two capacity-1 rings — the runtime's
    // batcher↔worker shape. Any lost wakeup deadlocks the test (and
    // the suite's timeout catches it).
    const N: u64 = 20_000;
    let (mut req_tx, mut req_rx) = ring::<u64>(1);
    let (mut rsp_tx, mut rsp_rx) = ring::<u64>(1);
    let echo = thread::spawn(move || {
        while let Some(v) = req_rx.pop_blocking() {
            if rsp_tx.push_blocking(v * 2).is_err() {
                return;
            }
        }
    });
    for v in 0..N {
        req_tx.push_blocking(v).unwrap();
        assert_eq!(rsp_rx.pop_blocking(), Some(v * 2));
    }
    drop(req_tx);
    echo.join().unwrap();
}

#[test]
fn stress_drop_mid_stream_never_loses_delivered_values() {
    // The consumer hangs up early; the producer must observe the
    // disconnect rather than spin forever, and everything the consumer
    // did take must have been in order.
    let taken = Arc::new(AtomicUsize::new(0));
    let taken2 = Arc::clone(&taken);
    let (mut tx, mut rx) = ring::<usize>(4);
    let consumer = thread::spawn(move || {
        for i in 0..100 {
            match rx.pop_blocking() {
                Some(v) => {
                    assert_eq!(v, i);
                    taken2.fetch_add(1, Ordering::SeqCst);
                }
                None => break,
            }
        }
        // rx drops here — mid-stream hangup.
    });
    let mut pushed = 0usize;
    loop {
        if tx.push_blocking(pushed).is_err() {
            break; // consumer gone
        }
        pushed += 1;
    }
    consumer.join().unwrap();
    assert_eq!(taken.load(Ordering::SeqCst), 100);
    assert!(pushed >= 100, "at least the taken values were pushed");
}
