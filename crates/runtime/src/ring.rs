//! A bounded single-producer single-consumer ring: std's bounded
//! channel ([`std::sync::mpsc::sync_channel`]), narrowed to one
//! producer and one consumer (neither half is `Clone`), with the
//! runtime's wait strategy. Bounded, so a slow stage exerts
//! backpressure.
//!
//! Both blocking calls are `try_*` plus `Backoff` — yield first, then
//! short, growing sleeps — rather than the channel's parking
//! `send`/`recv`, which lost host speed on the `wall_rt` benchmark
//! (DESIGN.md §4.8). A pure spin would starve the very thread it waits
//! on when cores are scarce, and with several idle workers even pure
//! yielding steals enough timeslices to serialize the whole runtime.
//!
//! Disconnects come from the channel: popping from an empty ring whose
//! producer is gone is end-of-stream (`None` from
//! [`Consumer::pop_blocking`]); pushing into a ring whose consumer is
//! gone hands the value back instead of spinning forever. Values still
//! queued when both halves are gone drop with the channel.
//!
//! Correctness is pinned by `tests/ring_interleavings.rs`: an
//! exhaustive enumeration of operation interleavings against a
//! reference model, plus real-thread stress runs.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::thread;

/// Wait strategy for the blocking loops: yield for a while (cheap and
/// responsive when the peer is about to act), then sleep, doubling
/// from 50 us up to 1 ms. The growing sleep bounds how much CPU idle
/// waiters burn — on a one-core box, a fleet of workers waking every
/// 50 us costs enough context switches to slow the single thread
/// doing real work several-fold.
struct Backoff {
    yields: u32,
    sleep_us: u64,
}

impl Backoff {
    const YIELDS: u32 = 64;
    const MAX_SLEEP_US: u64 = 1_000;

    fn new() -> Self {
        Backoff {
            yields: 0,
            sleep_us: 50,
        }
    }

    fn wait(&mut self) {
        if self.yields < Self::YIELDS {
            self.yields += 1;
            thread::yield_now();
        } else {
            thread::sleep(std::time::Duration::from_micros(self.sleep_us));
            self.sleep_us = (self.sleep_us * 2).min(Self::MAX_SLEEP_US);
        }
    }
}

/// Creates a bounded SPSC ring with room for `capacity` values.
///
/// # Panics
///
/// Panics if `capacity` is zero — a zero-slot ring can never hold a
/// value (`sync_channel(0)` would be a rendezvous channel instead).
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be >= 1");
    let (tx, rx) = sync_channel(capacity);
    (Producer(tx), Consumer(rx))
}

/// The push half of a ring. `!Clone` — single producer by construction.
pub struct Producer<T>(SyncSender<T>);

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").finish_non_exhaustive()
    }
}

impl<T: Send> Producer<T> {
    /// Pushes `v`, or returns it when the ring is full or the consumer
    /// is gone.
    pub fn try_push(&mut self, v: T) -> Result<(), T> {
        self.try_send(v).map_err(|e| match e {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        })
    }

    /// [`try_push`](Producer::try_push) that tells a full ring from a
    /// gone consumer.
    pub(crate) fn try_send(&mut self, v: T) -> Result<(), TrySendError<T>> {
        self.0.try_send(v)
    }

    /// Pushes `v`, waiting until a slot frees. Returns `v` back only
    /// when the consumer is gone (nobody will ever drain the ring).
    pub fn push_blocking(&mut self, mut v: T) -> Result<(), T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_send(v) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(back)) => return Err(back),
                Err(TrySendError::Full(back)) => v = back,
            }
            backoff.wait();
        }
    }
}

/// The pop half of a ring. `!Clone` — single consumer by construction.
pub struct Consumer<T>(Receiver<T>);

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").finish_non_exhaustive()
    }
}

impl<T: Send> Consumer<T> {
    /// Pops the oldest value, or `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        self.try_recv().ok()
    }

    /// [`try_pop`](Consumer::try_pop) that tells an empty ring from
    /// end-of-stream (producer gone and ring drained).
    pub(crate) fn try_recv(&mut self) -> Result<T, TryRecvError> {
        self.0.try_recv()
    }

    /// Pops the oldest value, waiting until one arrives. `None` means
    /// end-of-stream: the producer is gone **and** the ring is drained.
    pub fn pop_blocking(&mut self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => backoff.wait(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_one_thread() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert!(rx.try_pop().is_none());
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99), "full ring rejects");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert!(rx.try_pop().is_none());
    }

    #[test]
    fn counters_keep_working_across_many_wraps() {
        let (mut tx, mut rx) = ring::<usize>(3);
        for i in 0..1000 {
            tx.try_push(i).unwrap();
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert!(rx.try_pop().is_none());
    }

    #[test]
    fn drop_detection_both_directions() {
        let (tx, mut rx) = ring::<u8>(2);
        drop(tx);
        assert_eq!(rx.pop_blocking(), None, "eos, nothing queued");

        let (mut tx, rx) = ring::<u8>(1);
        tx.try_push(1).unwrap();
        drop(rx);
        assert_eq!(tx.push_blocking(2), Err(2), "no consumer left");
        assert_eq!(tx.try_push(3), Err(3), "not even into a free slot");
    }

    #[test]
    fn eos_still_drains_queued_values() {
        let (mut tx, mut rx) = ring::<u8>(4);
        tx.try_push(7).unwrap();
        tx.try_push(8).unwrap();
        drop(tx);
        assert_eq!(rx.pop_blocking(), Some(7));
        assert_eq!(rx.pop_blocking(), Some(8));
        assert_eq!(rx.pop_blocking(), None);
    }

    #[test]
    fn queued_values_drop_with_the_ring() {
        let value = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(4);
        for _ in 0..3 {
            tx.try_push(Arc::clone(&value)).unwrap();
        }
        assert_eq!(Arc::strong_count(&value), 4);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&value), 1, "queued values dropped");
    }

    #[test]
    #[should_panic(expected = "ring capacity must be >= 1")]
    fn zero_capacity_panics() {
        let _ = ring::<u8>(0);
    }
}
