//! Thread-local scratch arena for the hot-path temporaries.
//!
//! The conv forward and backward passes (`Conv2d`, the arena's one lessee)
//! need a short-lived `f32` buffer or two per call (im2col patch matrices,
//! their gradients). Allocating them fresh on every call puts the allocator
//! on the steady-state inference path; this arena keeps a per-thread pool of
//! retired buffers and hands them back zeroed, so a warmed-up thread
//! performs no heap allocation for those temporaries.
//!
//! ## Semantics
//!
//! [`with_zeroed`] lends the closure a zero-filled `&mut [f32]` of exactly the
//! requested length and returns the buffer to the pool afterwards. Zeroing is
//! a `memset` over reused capacity — the same state a fresh `vec![0.0; len]`
//! would have — so callers cannot observe whether the buffer was recycled, and
//! results are bit-identical either way.
//!
//! Calls nest freely: each nested call pops (or allocates) a distinct buffer,
//! so `with_zeroed(a, |x| with_zeroed(b, |y| ...))` works and is the intended
//! shape for "cols + product" pairs.
//!
//! ## Interaction with the worker pool
//!
//! The pool is `thread_local!`, and [`crate::par`]'s workers are persistent —
//! spawned once per process and parked between dispatches — so every
//! participant's arena survives across `run_tasks` calls: after the first
//! batch warms a worker up, steady-state inference performs no heap
//! allocation for these temporaries on *any* thread, not just the caller's.
//! (The caller participates in its own dispatches and the
//! `SNAPEA_THREADS=1` serial path runs entirely on it, so its arena was
//! always long-lived; the persistent pool extends that to the workers.)
//!
//! ## Observability
//!
//! `scratch/acquires` counts every lease; `scratch/reuses` counts the leases
//! served from the pool (the difference is the number of fresh allocations).

use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Buffers larger than this are not retained in the pool; a pathological
/// one-off (e.g. a huge fuzzing shape) should not pin memory for the thread's
/// lifetime. 16 MiB of `f32` covers every shape this workspace produces.
const MAX_POOLED_LEN: usize = 4 << 20;

/// Lends `f` a zero-filled `f32` buffer of length `len`, recycling capacity
/// from earlier calls on this thread where possible.
pub fn with_zeroed<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = POOL.with(|p| p.borrow_mut().pop());
    snapea_obs::counter("scratch/acquires").inc();
    if buf.is_some() {
        snapea_obs::counter("scratch/reuses").inc();
    }
    let mut buf = buf.take().unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    let r = f(&mut buf);
    if buf.capacity() <= MAX_POOLED_LEN {
        POOL.with(|p| p.borrow_mut().push(buf));
    }
    r
}

/// Number of retired buffers currently pooled on this thread (test hook).
pub fn pooled_buffers() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_arrive_zeroed_even_after_reuse() {
        with_zeroed(8, |b| {
            assert_eq!(b.len(), 8);
            assert!(b.iter().all(|&v| v == 0.0));
            b.fill(7.0);
        });
        // The dirtied buffer comes back zeroed, at the new length.
        with_zeroed(5, |b| {
            assert_eq!(b.len(), 5);
            assert!(b.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn nested_leases_are_distinct_buffers() {
        with_zeroed(4, |outer| {
            outer.fill(1.0);
            with_zeroed(4, |inner| {
                assert!(inner.iter().all(|&v| v == 0.0));
                inner.fill(2.0);
            });
            assert!(outer.iter().all(|&v| v == 1.0), "inner lease aliased outer");
        });
    }

    #[test]
    fn pool_retains_and_reuses_capacity() {
        // Drain whatever earlier tests left behind, then verify round trip.
        while pooled_buffers() > 0 {
            POOL.with(|p| {
                p.borrow_mut().pop();
            });
        }
        with_zeroed(16, |_| {});
        assert_eq!(pooled_buffers(), 1);
        with_zeroed(16, |_| {});
        assert_eq!(pooled_buffers(), 1, "reuse must not grow the pool");
    }

    #[test]
    fn zero_length_lease_works() {
        with_zeroed(0, |b| assert!(b.is_empty()));
    }
}
