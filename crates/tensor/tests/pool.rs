//! Behavioral contract of the persistent worker pool that the in-crate unit
//! tests cannot cover (they run at whatever `SNAPEA_THREADS` the harness
//! set): the configured count is the participant count, panic containment,
//! reconfiguration after the pool has started, nested flattening observed
//! from inside pool tasks, and concurrent dispatch from independent caller
//! threads.
//!
//! `set_threads` is process-global, so every test takes the same mutex and
//! restores the previous count before releasing it.

use snapea_tensor::par;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises tests that reconfigure the global thread count. Poisoning is
/// recovered on purpose: the panic-propagation test unwinds while holding
/// the guard, and later tests must still run.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the pool at `n` threads, restoring the previous count even
/// if `f` panics.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _g = thread_lock();
    let prev = par::threads();
    par::set_threads(n);
    let restore = Restore(prev);
    let out = f();
    drop(restore);
    out
}

struct Restore(usize);
impl Drop for Restore {
    fn drop(&mut self) {
        par::set_threads(self.0);
    }
}

#[test]
fn set_threads_runs_that_many_participants() {
    // Four tasks that each wait for all four to arrive can only finish if
    // four threads run them at once, whatever the machine's core count. The
    // deadline turns a pool that runs fewer into a failure, not a hang.
    const N: usize = 4;
    let ids = with_threads(N, || {
        let arrived = AtomicUsize::new(0);
        par::run_tasks(vec![(); N], |_, ()| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let clock = snapea_obs::Stopwatch::start();
            while arrived.load(Ordering::SeqCst) < N && clock.elapsed_secs() < 5.0 {
                std::thread::yield_now();
            }
            std::thread::current().id()
        })
    });
    let distinct = ids
        .iter()
        .enumerate()
        .filter(|&(i, id)| !ids[..i].contains(id))
        .count();
    assert_eq!(distinct, N, "set_threads({N}) ran on {distinct} threads");
}

#[test]
fn panic_in_task_propagates_and_workers_survive() {
    with_threads(4, || {
        // A panicking task must not take the process down with it, must not
        // lose the other tasks (the batch drains fully before the caller
        // unwinds), and must surface its payload on the caller.
        let survivors = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par::run_tasks((0..32usize).collect::<Vec<_>>(), |_, t| {
                if t == 7 {
                    panic!("task 7 exploded");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
                t
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "task 7 exploded");
        assert_eq!(
            survivors.load(Ordering::Relaxed),
            31,
            "the batch drains fully; only the panicking task is lost"
        );

        // The persistent workers must have survived: the very next dispatch
        // (same process, same pool) runs to completion with correct,
        // in-order results. Twice, to catch a worker dying on the second
        // wakeup rather than the first.
        for round in 0..2u64 {
            let out = par::run_tasks((0..64u64).collect::<Vec<_>>(), |i, t| {
                assert_eq!(i as u64, t);
                t * 3 + round
            });
            assert_eq!(out, (0..64).map(|t| t * 3 + round).collect::<Vec<_>>());
        }
    });
}

#[test]
fn set_threads_after_pool_start_is_safe_and_exact() {
    // Documented contract: the pool grows lazily and never shrinks; raising
    // the count spawns more workers on the next dispatch, lowering it caps
    // how many may join, and 1 restores the exact inline serial path. All
    // four transitions produce identical results.
    let _g = thread_lock();
    let prev = par::threads();
    let restore = Restore(prev);

    let reference: Vec<u64> = (0..200).map(|i| i as u64 * 7 + 1).collect();
    let job = || par::run_tasks((0..200usize).collect::<Vec<_>>(), |_, t| t as u64 * 7 + 1);

    par::set_threads(2);
    assert_eq!(job(), reference, "grow 1→2 after process start");
    par::set_threads(8);
    assert_eq!(job(), reference, "grow 2→8 with the pool already running");
    par::set_threads(3);
    assert_eq!(job(), reference, "shrink 8→3: surplus workers stay parked");

    // set_threads(1) must be the pure inline path: every task runs on the
    // calling thread, even though 8 workers are parked in the pool.
    par::set_threads(1);
    let caller = std::thread::current().id();
    let out = par::run_tasks(vec![(); 16], |i, ()| {
        assert_eq!(std::thread::current().id(), caller, "inline at 1 thread");
        i
    });
    assert_eq!(out, (0..16).collect::<Vec<_>>());

    drop(restore);
}

#[test]
fn nested_call_from_inside_a_worker_runs_inline() {
    with_threads(4, || {
        // Each outer task records its own thread and asserts every inner
        // task ran on that same thread: whether the outer task landed on a
        // persistent worker or on the participating caller, the nested
        // dispatch must flatten to the inline serial loop.
        let out = par::run_tasks(vec![(); 16], |i, ()| {
            let outer = std::thread::current().id();
            let inner: Vec<usize> = par::run_tasks((0..8usize).collect::<Vec<_>>(), move |j, t| {
                assert_eq!(j, t);
                assert_eq!(
                    std::thread::current().id(),
                    outer,
                    "nested task escaped its worker"
                );
                i * 100 + j
            });
            assert_eq!(inner, (0..8).map(|j| i * 100 + j).collect::<Vec<_>>());
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    });
}

#[test]
fn concurrent_dispatches_from_independent_threads() {
    with_threads(4, || {
        // Several caller threads dispatching at once share the same
        // persistent pool; each batch must get its own results, in order,
        // with no cross-talk through the shared queue.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|c| {
                    s.spawn(move || {
                        for _ in 0..8 {
                            let out =
                                par::run_tasks((0..50u64).collect::<Vec<_>>(), move |_, t| {
                                    t * 1000 + c
                                });
                            let want: Vec<u64> = (0..50).map(|t| t * 1000 + c).collect();
                            assert_eq!(out, want);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("caller thread panicked");
            }
        });
    });
}
