//! A bounded lock-free single-producer single-consumer ring, hand
//! rolled over [`std::sync::atomic`] (the workspace vendors no
//! concurrency crates, and `std::sync::mpsc` hides the backpressure the
//! runtime wants to reason about).
//!
//! The design is the classic Lamport queue with **monotonic counters**:
//! `tail` counts pushes, `head` counts pops, both only ever grow
//! (wrapping at `usize::MAX`, unreachable in practice), and the
//! occupancy is `tail - head`. Using free-running counters instead of
//! wrapped indices removes the classic "full vs empty" ambiguity
//! without sacrificing a slot.
//!
//! Memory ordering is the minimal Acquire/Release pairing:
//!
//! * the producer *releases* `tail` after writing a slot, and the
//!   consumer *acquires* `tail` before reading it — the slot write
//!   happens-before the slot read;
//! * the consumer *releases* `head` after taking a value out, and the
//!   producer *acquires* `head` before reusing the slot — the read
//!   happens-before the overwrite.
//!
//! Each side loads its own counter `Relaxed` (it is the only writer).
//!
//! Disconnect detection rides on two flags set in `Drop`: a consumer
//! popping from an empty ring whose producer is gone sees end-of-stream
//! (`None` from [`Consumer::pop_blocking`]); a producer pushing into a
//! full ring whose consumer is gone gets its value back instead of
//! spinning forever. Both blocking loops yield first and then back off
//! to short sleeps (`Backoff`) — the CI container has a single CPU,
//! so a pure spin would starve the very thread it waits on, and with
//! several idle workers even pure yielding steals enough timeslices to
//! serialize the whole runtime.
//!
//! Correctness is pinned by `tests/ring_interleavings.rs`: an
//! exhaustive loom-style enumeration of operation interleavings against
//! a reference model, plus real-thread stress runs.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// Shared state of one ring. `Producer` and `Consumer` each hold an
/// `Arc` to it; the last one out drops any values still queued.
struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Pop counter: only the consumer stores it.
    head: AtomicUsize,
    /// Push counter: only the producer stores it.
    tail: AtomicUsize,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
}

// The ring hands each value from exactly one thread to exactly one
// other thread, so `T: Send` is the only requirement.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    fn slot(&self, count: usize) -> *mut MaybeUninit<T> {
        self.buf[count % self.buf.len()].get()
    }
}

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

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner now; plain loads are fine through the atomics.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for c in 0..tail.wrapping_sub(head) {
            unsafe { (*self.slot(head.wrapping_add(c))).assume_init_drop() };
        }
    }
}

/// Creates a bounded SPSC ring with room for `capacity` values.
///
/// # Panics
///
/// Panics if `capacity` is zero — a zero-slot ring can never transfer
/// anything.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be >= 1");
    let inner = Arc::new(Inner {
        buf: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
        },
        Consumer { inner },
    )
}

/// The push half of a ring. `!Clone` — single producer by construction.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").finish_non_exhaustive()
    }
}

impl<T: Send> Producer<T> {
    /// Pushes `v`, or returns it when the ring is full.
    pub fn try_push(&mut self, v: T) -> Result<(), T> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.inner.buf.len() {
            return Err(v);
        }
        unsafe { (*self.inner.slot(tail)).write(v) };
        self.inner
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pushes `v`, waiting until a slot frees. Returns `v` back only
    /// when the consumer is gone (nobody will ever drain the ring).
    pub fn push_blocking(&mut self, mut v: T) -> Result<(), T> {
        let mut backoff = Backoff::new();
        loop {
            // Liveness check before the attempt: a dead consumer with a
            // non-full ring would otherwise accept values into the void.
            if !self.inner.consumer_alive.load(Ordering::Acquire) {
                return Err(v);
            }
            match self.try_push(v) {
                Ok(()) => return Ok(()),
                Err(back) => v = back,
            }
            backoff.wait();
        }
    }

    /// True when the consumer half has been dropped.
    pub fn is_disconnected(&self) -> bool {
        !self.inner.consumer_alive.load(Ordering::Acquire)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.inner.producer_alive.store(false, Ordering::Release);
    }
}

/// The pop half of a ring. `!Clone` — single consumer by construction.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").finish_non_exhaustive()
    }
}

impl<T: Send> Consumer<T> {
    /// Pops the oldest value, or `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let v = unsafe { (*self.inner.slot(head)).assume_init_read() };
        self.inner
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Pops the oldest value, waiting until one arrives. `None` means
    /// end-of-stream: the producer is gone **and** the ring is drained.
    pub fn pop_blocking(&mut self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            // Order matters: re-check emptiness *after* seeing the
            // producer dead, or a value pushed between the two loads
            // would be lost.
            if !self.inner.producer_alive.load(Ordering::Acquire) {
                return self.try_pop();
            }
            backoff.wait();
        }
    }

    /// Values currently queued. Racy by nature (the producer may push
    /// concurrently); exact only when the producer is quiescent.
    pub fn len(&self) -> usize {
        self.inner
            .tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.inner.head.load(Ordering::Relaxed))
    }

    /// True when nothing is queued right now (same caveat as [`len`]).
    ///
    /// [`len`]: Consumer::len
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the producer half has been dropped. The ring may still
    /// hold values; end-of-stream is `is_disconnected() && is_empty()`.
    pub fn is_disconnected(&self) -> bool {
        !self.inner.producer_alive.load(Ordering::Acquire)
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.inner.consumer_alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_detection_both_directions() {
        let (tx, mut rx) = ring::<u8>(2);
        assert!(!rx.is_disconnected());
        drop(tx);
        assert!(rx.is_disconnected());
        assert_eq!(rx.pop_blocking(), None, "eos, nothing queued");

        let (mut tx, rx) = ring::<u8>(1);
        tx.try_push(1).unwrap();
        drop(rx);
        assert!(tx.is_disconnected());
        assert_eq!(tx.push_blocking(2), Err(2), "no consumer left");
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
        // A type whose drop is observable.
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let (mut tx, rx) = ring::<Counted>(4);
        for _ in 0..3 {
            tx.try_push(Counted(Arc::clone(&drops))).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 3, "inner drained on drop");
    }
}
