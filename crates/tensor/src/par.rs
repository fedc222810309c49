//! Persistent worker pool shared by every hot path of the reproduction.
//!
//! Workers are started **once per process** (lazily, on the first dispatch
//! that wants more than one thread) and then parked on a condition variable
//! between dispatches. A `run_tasks` call publishes one *batch* into a
//! bounded injector queue, wakes the workers, and participates in the work
//! itself; workers claim task indices from an atomic cursor (dynamic
//! scheduling, so uneven task costs — e.g. predictive windows that
//! terminate at different depths — still balance), and results are returned
//! **in task order** so callers observe the same values regardless of how
//! work was interleaved. The queue needs no artificial bound: each caller
//! thread has at most one batch in flight (it blocks on its own rendezvous,
//! and nested calls flatten), so the queue length is bounded by the number
//! of concurrently dispatching threads.
//!
//! ## Determinism contract
//!
//! Parallel callers in this workspace follow two rules, and the pool is
//! shaped to make them easy:
//!
//! 1. **Ownership-partitioned writes** — each task owns a disjoint `&mut`
//!    slice of the output (rows of a matrix, batch items of a tensor) or
//!    returns its results for the caller to place (an executor task's
//!    outcomes over its tiles). Safe Rust enforces the disjointness; no
//!    task ever observes another task's writes.
//! 2. **Deterministic reduction order** — floating-point reductions are
//!    accumulated per *item* (never fused across a task's items) and merged
//!    on the caller's thread in ascending item order, so the fold is the
//!    same no matter where task boundaries fall — and therefore the same
//!    for every thread count and chunk size.
//!
//! Under those rules every result is bit-identical for any thread count,
//! and `SNAPEA_THREADS=1` executes the exact serial loop (tasks run inline
//! on the caller's thread in ascending order, no queue, no wakeups).
//!
//! ## The lifetime-erasure core
//!
//! Persistent workers are never joined, so safe Rust cannot hand them the
//! borrowed closures and `&mut` output slices our callers use
//! (`std::thread::scope` is the only safe primitive for non-`'static`
//! borrows, and it spawns fresh threads per call — the overhead this
//! rewrite removes). The pool therefore erases the dispatch behind a small,
//! audited unsafe core (the private `pool` module): a raw pointer to the
//! caller-stack task set plus a monomorphized runner function. Soundness
//! rests on one bracketing invariant, enforced by a drop guard:
//!
//! > A worker dereferences the erased pointer only between *joining* a
//! > batch (under the queue lock, while the batch is open) and *leaving*
//! > it; the caller closes the batch under the same lock and does not
//! > return — not even by unwinding — until every joined worker has left
//! > and every task has completed.
//!
//! The tensor crate is `#![deny(unsafe_code)]`; these are its only unsafe
//! sites, each carrying a `lint:allow(S1)` justification checked by
//! `snapea-lint`.
//!
//! ## Chunk-size floors
//!
//! Dispatching a batch costs a few microseconds (queue lock, wakeup,
//! rendezvous). Call sites therefore size their tasks with [`chunk_for`],
//! which raises the per-task chunk until each task carries at least a
//! minimum amount of work ([`GEMM_TASK_FLOOR_MACS`],
//! [`WALK_TASK_FLOOR_OPS`]); when the whole problem is below the floor the
//! chunk covers it entirely and `run_tasks` degenerates to the inline
//! serial loop — sub-millisecond work never pays for a dispatch.
//!
//! ## Configuration
//!
//! The thread count comes from the `SNAPEA_THREADS` environment variable
//! (clamped to ≥ 1), defaulting to [`std::thread::available_parallelism`].
//! It is resolved once and cached; [`set_threads`] overrides it at runtime
//! (used by benches and determinism tests). The pool grows lazily and
//! never shrinks: raising the count spawns more persistent workers on the
//! next dispatch, lowering it caps how many parked workers may join future
//! batches, and `1` restores the exact inline serial path.
//!
//! A dispatch never uses more *participants* than the machine has cores:
//! extra runnable compute-bound threads cannot add throughput, but the OS
//! round-robins them at millisecond timeslices, destroying cache locality
//! (measured 20–30% slowdowns on this repo's conv shapes). The configured
//! count above the core count therefore only affects chunk boundaries
//! (which must stay a pure function of it — see the determinism contract),
//! not how many threads actually run. `SNAPEA_OVERSUBSCRIBE=1` (or
//! [`set_oversubscribe`]) lifts the clamp; the thread-grid CI stages use it
//! so determinism and pool-machinery tests exercise real concurrency even
//! on single-core runners.
//!
//! Nested parallelism is flattened: a thread that is already running pool
//! tasks (a worker, or the caller while it participates in its own batch)
//! runs nested pool calls inline, so a parallel `Conv2d::forward` over
//! batch items never multiplies into a parallel `matmul` per item.
//!
//! ## Observability
//!
//! Each multi-threaded invocation charges `par/invocations`, `par/tasks`,
//! and per-participant busy time (`par/busy_ns`) into the [`snapea_obs`]
//! metrics registry, and sets the `par/imbalance` gauge (`1 − min/max`
//! participant busy time — 0.0 is a perfectly balanced dispatch);
//! `par/workers_spawned` counts persistent worker threads started. With a
//! sink installed and `SNAPEA_TRACE_DETAIL=1`, every participant that ran
//! at least one task additionally emits one `par/worker` lane event
//! (`worker`, `start_ms`, `ms`, `tasks`) from its own thread — `worker` is
//! the persistent worker's process-wide id (0 is the dispatching caller) —
//! which the Chrome-trace export renders as a per-thread track.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cached thread count; 0 means "not resolved yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cached machine parallelism; 0 means "not resolved yet".
static MACHINE: AtomicUsize = AtomicUsize::new(0);

/// Oversubscription policy: 0 unresolved, 1 clamp to the machine, 2 allow.
static OVERSUB: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while a thread is running pool tasks (persistent workers always,
    /// the caller during its own dispatch): nested pool calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Interprets a `SNAPEA_THREADS` value: a parsable count yields
/// `Some(count.max(1))` (`"0"` clamps to one thread), while an empty or
/// unparsable value yields `None` so the caller falls back to the machine's
/// available parallelism. A malformed environment variable must degrade to
/// the default, never panic — the pool is initialised lazily from arbitrary
/// call sites, including inside tests and benches.
pub fn parse_thread_count(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().map(|n| n.max(1))
}

fn resolve_threads() -> usize {
    // lint:allow(R1) sanctioned config site: SNAPEA_THREADS is read once at
    // pool init and only sizes the pool; results are thread-count-invariant
    // by the bit-identity contract
    #[allow(clippy::disallowed_methods)]
    if let Ok(v) = std::env::var("SNAPEA_THREADS") {
        if let Some(n) = parse_thread_count(&v) {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The pool's thread count: `SNAPEA_THREADS` if set (≥ 1), otherwise the
/// machine's available parallelism. Resolved once and cached; override with
/// [`set_threads`].
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = resolve_threads();
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the pool's thread count for the rest of the process (clamped
/// to ≥ 1). Because every parallel caller is deterministic by construction,
/// changing the thread count never changes results — only wall time.
///
/// The persistent pool resolves this lazily per dispatch: raising the count
/// spawns additional workers on the next multi-threaded `run_tasks` call,
/// lowering it merely caps how many of the already-parked workers may join
/// future batches (surplus workers stay parked; threads are never torn
/// down), and `set_threads(1)` restores the exact inline serial path. It is
/// therefore safe to call at any time, including after the pool has
/// started — `crates/tensor/tests/pool.rs` pins this behavior.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The machine's available parallelism, resolved once and cached.
fn machine_parallelism() -> usize {
    match MACHINE.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            MACHINE.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Whether dispatches may run more participants than the machine has cores.
/// Defaults to the `SNAPEA_OVERSUBSCRIBE` environment variable (`"1"`
/// enables), resolved once; [`set_oversubscribe`] overrides at runtime.
pub fn oversubscribe_enabled() -> bool {
    match OVERSUB.load(Ordering::Relaxed) {
        0 => {
            // lint:allow(R1) sanctioned config site: SNAPEA_OVERSUBSCRIBE is
            // resolved once and only gates dispatch width, never results
            #[allow(clippy::disallowed_methods)]
            let on = std::env::var("SNAPEA_OVERSUBSCRIBE").is_ok_and(|v| v.trim() == "1");
            OVERSUB.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        n => n == 2,
    }
}

/// Overrides the oversubscription policy (see the module docs): `true`
/// lets a dispatch run up to `threads()` participants even beyond the core
/// count — pool and determinism tests use it so single-core CI still
/// exercises real worker concurrency. Never affects results: chunk
/// boundaries follow [`effective_threads`], and the determinism contract
/// (per-item accumulation, ascending merge) makes results independent of
/// chunk boundaries in the first place.
pub fn set_oversubscribe(enabled: bool) {
    OVERSUB.store(if enabled { 2 } else { 1 }, Ordering::Relaxed);
}

/// The participant count a dispatch will actually use: [`threads`], clamped
/// to the machine's cores unless oversubscription is enabled. Chunk sizing
/// uses this too, so a thread count the clamp voids does not fragment tasks
/// — on a one-core machine every `SNAPEA_THREADS` value executes the exact
/// serial loop with the exact serial chunking.
pub fn effective_threads() -> usize {
    if oversubscribe_enabled() {
        threads()
    } else {
        threads().min(machine_parallelism())
    }
}

/// Runs `f(index, task)` for every task and returns the results **in task
/// order**.
///
/// With one thread (or one task, or when called from inside another pool
/// task) this is exactly `tasks.into_iter().enumerate().map(f).collect()`
/// on the caller's thread. Otherwise the caller publishes one batch to the
/// persistent pool, up to `threads() - 1` parked workers join it, and the
/// caller itself claims tasks alongside them until the batch drains; a task
/// that owns a `&mut` slice of some output writes it in place, and the
/// returned values are reordered into task order before the call returns.
///
/// Panics in `f` are caught at the task boundary, the batch still drains
/// (every task runs), and the first panic payload is re-raised on the
/// caller after the rendezvous — so a panicking task neither tears down the
/// persistent workers nor leaves the pool in a broken state for the next
/// dispatch.
pub fn run_tasks<T, R, F>(tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let nested = IN_WORKER.with(Cell::get);
    let participants = if nested {
        1
    } else {
        effective_threads().min(tasks.len())
    };
    if participants <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    pool::dispatch(tasks, &f, participants)
}

/// Splits `0..n` into contiguous chunks of `chunk` indices (the last chunk
/// may be shorter) and runs `f(chunk_index, range)` for each, returning the
/// results in chunk order.
///
/// Chunk boundaries depend only on `n` and `chunk` — never on the thread
/// count — so reductions merged in chunk order are thread-count invariant.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let ranges: Vec<Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect();
    run_tasks(ranges, f)
}

/// Runs `f(i)` for every `i` in `0..n`, dispatched in chunks of `chunk`
/// indices. `f` must only perform independent work (interior mutability,
/// disjoint outputs resolved by index); no result is collected.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_for<F>(n: usize, chunk: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    parallel_map_chunks(n, chunk, |_, range| range.for_each(&f));
}

/// Maps `f` over `0..n` returning the results in index order, dispatched in
/// chunks of `chunk` indices.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_map<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let nested: Vec<Vec<R>> = parallel_map_chunks(n, chunk, |_, range| range.map(&f).collect());
    let mut out = Vec::with_capacity(n);
    for v in nested {
        out.extend(v);
    }
    out
}

/// A chunk size that yields a few tasks per participant:
/// `ceil(n / (4 × effective_threads))`, at least 1. Smaller chunks balance
/// better; larger chunks amortise queue traffic — 4 tasks per participant
/// is a reasonable middle for the coarse tasks this workspace dispatches.
/// Uses [`effective_threads`] so a clamped-away thread count does not
/// fragment chunks (results are boundary-independent either way — per-item
/// accumulation merged ascending — so this is purely a cost question).
pub fn chunk_hint(n: usize) -> usize {
    n.div_ceil(4 * effective_threads().max(1)).max(1)
}

/// Minimum useful task size for GEMM-shaped work, in f32 MACs.
///
/// Measured on the recording machine (see `EXPERIMENTS.md`): the dense
/// `matmul` microkernel sustains roughly 8–9 GMAC/s per core and a pool
/// dispatch costs a handful of microseconds end to end, so 256 Ki MACs
/// (~30 µs of work) keeps dispatch overhead under a few percent of any
/// task. Used by `matmul`/`t_matmul`/`matmul_t` row blocks and the conv
/// forward/backward batch-item blocks via [`chunk_for`].
pub const GEMM_TASK_FLOOR_MACS: usize = 256 * 1024;

/// Minimum useful task size for window-walk-shaped work (executor walks,
/// optimizer profiling scans), in walked taps.
///
/// The speculative walks run nearer 1 ns per tap (probe state machines,
/// gathers) than the GEMM's ~0.1 ns per MAC, so 32 Ki taps buys the same
/// ~30 µs of work per task. Used by the executor's runs of tiles and the
/// profiling pass's kernel blocks via [`chunk_for`].
pub const WALK_TASK_FLOOR_OPS: usize = 32 * 1024;

/// A chunk size for `n` items of `cost_per_item` work units each such that
/// every task carries at least `floor_cost` units: the larger of
/// [`chunk_hint`]`(n)` and `ceil(floor_cost / cost_per_item)`, clamped to
/// `n`. Depends only on the problem size and the (fixed) thread count —
/// never on scheduling — so chunk boundaries, and therefore reduction
/// groupings, stay deterministic. When the whole problem is below the
/// floor this returns `n`: one task, which `run_tasks` runs inline.
pub fn chunk_for(n: usize, cost_per_item: usize, floor_cost: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let min_items = floor_cost.div_ceil(cost_per_item.max(1));
    chunk_hint(n).max(min_items).min(n)
}

mod pool {
    //! The audited unsafe core: batch publication, worker loop, rendezvous.
    //!
    //! See the module docs above for the bracketing invariant every unsafe
    //! site below leans on. The structure:
    //!
    //! * [`TaskSet`] lives on the **caller's stack** for the duration of one
    //!   [`dispatch`]: the closure reference, the task inputs, the result
    //!   slots, and the first caught panic.
    //! * [`Batch`] is the `'static` control block shared through the queue
    //!   (`Arc`): the erased `TaskSet` pointer, the monomorphized runner,
    //!   the claim/completion cursors, and the join/leave accounting.
    //! * [`Rendezvous`] is a drop guard on the caller: even if the caller
    //!   unwinds mid-dispatch, its `Drop` blocks until the batch is fully
    //!   drained and every joined worker has left before the `TaskSet` can
    //!   go out of scope.

    use super::{Cell, IN_WORKER};
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

    /// Locks a mutex, recovering from poisoning: the pool never runs caller
    /// code while holding one of its own locks (tasks run between claim and
    /// completion), so a poisoned guard only means some thread panicked
    /// elsewhere and the protected data is still coherent.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One dispatch's caller-stack state. Referenced by workers only through
    /// [`Batch::data`] under the join/leave bracket.
    struct TaskSet<'f, T, R, F> {
        f: &'f F,
        /// Task inputs; `run_one` takes index `i` exactly once (claims are
        /// unique by the atomic cursor).
        tasks: Mutex<Vec<Option<T>>>,
        /// Results, written at the claimed index.
        slots: Mutex<Vec<Option<R>>>,
        /// First caught task panic, re-raised on the caller post-rendezvous.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
    }

    /// Claims-and-runs-one-task entry point, monomorphized per dispatch and
    /// stored in [`Batch::run`] as a plain function pointer.
    ///
    /// # Safety
    ///
    /// `data` must point to the live `TaskSet<T, R, F>` of the batch this
    /// pointer was stored in, and the caller must hold a join on that batch
    /// (or be the dispatching thread). `i` must be an index claimed from
    /// `Batch::next` exactly once.
    // lint:allow(S1) deref of the erased TaskSet pointer: callers hold the batch's join/leave bracket, and the dispatching caller cannot return (Rendezvous drop guard) until all joiners left — the pointee is alive for every call
    #[allow(unsafe_code)]
    unsafe fn run_one<T, R, F>(data: *const (), i: usize)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let set = unsafe { &*data.cast::<TaskSet<'_, T, R, F>>() };
        let Some(task) = lock(&set.tasks).get_mut(i).and_then(Option::take) else {
            return;
        };
        // Catch panics at the task boundary: the persistent worker must
        // survive for the next dispatch, and the caller must not unwind past
        // its TaskSet while other participants still reference it. The
        // closure only touches `set` through its mutexes (re-checked, never
        // held across `f`) plus the task it owns, so observing it after an
        // unwind is sound.
        match catch_unwind(AssertUnwindSafe(|| (set.f)(i, task))) {
            Ok(r) => {
                if let Some(slot) = lock(&set.slots).get_mut(i) {
                    *slot = Some(r);
                }
            }
            Err(payload) => {
                let mut first = lock(&set.panic);
                if first.is_none() {
                    *first = Some(payload);
                }
            }
        }
    }

    // lint:allow(S1) function-pointer *type* only — calling through it is the unsafe act, audited at the single call site in run_batch
    type RunFn = unsafe fn(*const (), usize);

    /// The `'static` control block of one in-flight dispatch, shared with
    /// workers through the injector queue.
    struct Batch {
        /// Erased pointer to the caller-stack [`TaskSet`]. Dereferenced only
        /// via [`Batch::run`] inside the join/leave bracket.
        data: *const (),
        /// Monomorphized [`run_one`] for this dispatch's `(T, R, F)`.
        run: RunFn,
        /// Task count; claims at or above this index are void.
        total: usize,
        /// Maximum pool workers allowed to join (the dispatching caller is
        /// an additional, uncounted participant).
        cap: usize,
        /// Whether participants should emit `par/worker` lane events.
        trace_lanes: bool,
        /// Next unclaimed task index (may run past `total`; each failed
        /// claimer stops touching the batch, so overshoot is bounded by the
        /// participant count).
        next: AtomicUsize,
        /// Tasks fully executed. The caller's first rendezvous condition.
        completed: AtomicUsize,
        /// Cleared (under the queue lock) when the caller starts teardown;
        /// joining requires it, so no worker joins a closing batch.
        open: AtomicBool,
        /// Pool workers that joined (incremented under the queue lock).
        joined: AtomicUsize,
        /// Joined workers that finished and will touch the batch no more.
        left: AtomicUsize,
        /// Per-participant busy nanoseconds, for the imbalance gauge.
        busy_ns: Mutex<Vec<u64>>,
        /// Rendezvous: caller waits here for `completed == total`, then for
        /// `left == joined`.
        done: Mutex<()>,
        done_cv: Condvar,
    }

    #[allow(unsafe_code)]
    // lint:allow(S1) Batch is shared across threads by design; the raw data pointer it carries is only dereferenced inside the join/leave bracket documented on the module
    unsafe impl Send for Batch {}
    #[allow(unsafe_code)]
    // lint:allow(S1) all Batch fields are atomics/mutexes except the erased pointer, whose access discipline is the module's bracketing invariant
    unsafe impl Sync for Batch {}

    /// Process-wide pool state: the injector queue and the worker census.
    struct PoolShared {
        /// Pending batches. Bounded by the number of concurrently
        /// dispatching caller threads (each blocks on its own rendezvous).
        queue: Mutex<VecDeque<Arc<Batch>>>,
        /// Workers park here between batches.
        work_cv: Condvar,
        /// Persistent workers successfully spawned so far.
        spawned: AtomicUsize,
        /// Serialises pool growth.
        grow: Mutex<()>,
    }

    static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();

    fn shared() -> &'static Arc<PoolShared> {
        POOL.get_or_init(|| {
            Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
                spawned: AtomicUsize::new(0),
                grow: Mutex::new(()),
            })
        })
    }

    /// Grows the pool to at least `want` persistent workers and returns how
    /// many exist. Spawn failure (resource exhaustion) degrades to fewer
    /// workers instead of panicking — the dispatch then simply runs with
    /// less parallelism, down to the caller alone.
    fn ensure_workers(shared: &Arc<PoolShared>, want: usize) -> usize {
        let mut have = shared.spawned.load(Ordering::Acquire);
        if have >= want {
            return have;
        }
        let _g = lock(&shared.grow);
        have = shared.spawned.load(Ordering::Acquire);
        while have < want {
            let s = Arc::clone(shared);
            let id = have + 1;
            let spawned = std::thread::Builder::new()
                .name(format!("snapea-par-{id}"))
                .spawn(move || worker_main(&s, id as u64));
            match spawned {
                Ok(handle) => {
                    // Detached on purpose: persistent workers live until
                    // process exit, parked between batches.
                    drop(handle);
                    have += 1;
                    shared.spawned.store(have, Ordering::Release);
                    snapea_obs::counter("par/workers_spawned").inc();
                }
                Err(_) => break,
            }
        }
        have
    }

    /// A batch a parked worker may join: still open, under its worker cap,
    /// with unclaimed tasks remaining.
    fn joinable(b: &Batch) -> bool {
        b.open.load(Ordering::Acquire)
            && b.joined.load(Ordering::Acquire) < b.cap
            && b.next.load(Ordering::Relaxed) < b.total
    }

    /// Persistent worker body: park until a joinable batch appears, join it
    /// (under the queue lock — the caller closes batches under the same
    /// lock, so a join can never race a teardown), drain claims, leave.
    fn worker_main(shared: &Arc<PoolShared>, id: u64) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let batch: Arc<Batch> = {
                let mut q = lock(&shared.queue);
                loop {
                    if let Some(b) = q.iter().find(|b| joinable(b)) {
                        b.joined.fetch_add(1, Ordering::AcqRel);
                        break Arc::clone(b);
                    }
                    q = shared
                        .work_cv
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            run_batch(&batch, id);
            batch.left.fetch_add(1, Ordering::AcqRel);
            let _g = lock(&batch.done);
            batch.done_cv.notify_all();
        }
    }

    /// Claims and runs tasks until the batch drains. Shared by workers and
    /// the dispatching caller (`lane` 0). Records busy time and, when
    /// tracing, emits this participant's `par/worker` lane event from its
    /// own thread (so the Chrome export gets one track per thread).
    // lint:allow(S1) the `(batch.run)(batch.data, i)` call: `i` was claimed from the cursor exactly once, and this thread holds either the batch's join (worker) or the dispatch itself (caller), so the TaskSet behind `data` is alive
    #[allow(unsafe_code)]
    fn run_batch(batch: &Batch, lane: u64) {
        let start_ms = snapea_obs::sink::now_ms();
        let clock = snapea_obs::Stopwatch::start();
        let mut ran = 0u64;
        loop {
            let i = batch.next.fetch_add(1, Ordering::Relaxed);
            if i >= batch.total {
                break;
            }
            unsafe { (batch.run)(batch.data, i) };
            ran += 1;
            if batch.completed.fetch_add(1, Ordering::AcqRel) + 1 == batch.total {
                let _g = lock(&batch.done);
                batch.done_cv.notify_all();
            }
        }
        if ran > 0 {
            lock(&batch.busy_ns).push(clock.elapsed_ns());
            if batch.trace_lanes {
                snapea_obs::event!(
                    "par/worker",
                    worker = lane,
                    start_ms = start_ms,
                    ms = clock.elapsed_ms(),
                    tasks = ran,
                );
            }
        }
    }

    /// Drop guard making the caller's rendezvous unconditional: even if the
    /// caller unwinds between publishing the batch and collecting results,
    /// this blocks until (1) every task completed, (2) the batch is closed
    /// and out of the queue, and (3) every joined worker has left — only
    /// then may the `TaskSet` behind the erased pointer go out of scope.
    struct Rendezvous<'a> {
        shared: &'a PoolShared,
        batch: &'a Arc<Batch>,
    }

    impl Drop for Rendezvous<'_> {
        fn drop(&mut self) {
            let b: &Batch = self.batch;
            let mut g = lock(&b.done);
            while b.completed.load(Ordering::Acquire) < b.total {
                g = b.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            drop(g);
            {
                // Close under the queue lock: joins also happen under it, so
                // after this block `joined` is frozen.
                let mut q = lock(&self.shared.queue);
                b.open.store(false, Ordering::Release);
                q.retain(|x| !Arc::ptr_eq(x, self.batch));
            }
            let mut g = lock(&b.done);
            while b.left.load(Ordering::Acquire) < b.joined.load(Ordering::Acquire) {
                g = b.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Restores the caller's `IN_WORKER` flag after it participated in its
    /// own batch (restoration must survive unwinds too, hence a guard).
    struct CallerFlag {
        prev: bool,
    }

    impl CallerFlag {
        fn set() -> Self {
            let prev = IN_WORKER.with(Cell::get);
            IN_WORKER.with(|w| w.set(true));
            CallerFlag { prev }
        }
    }

    impl Drop for CallerFlag {
        fn drop(&mut self) {
            let prev = self.prev;
            IN_WORKER.with(|w| w.set(prev));
        }
    }

    /// Publishes one batch to the persistent pool, participates in draining
    /// it, rendezvouses, and returns the results in task order. Called by
    /// [`super::run_tasks`] only with `participants ≥ 2` from a
    /// non-nested context.
    pub(super) fn dispatch<T, R, F>(tasks: Vec<T>, f: &F, participants: usize) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let total = tasks.len();
        let shared = shared();
        let available = ensure_workers(shared, participants - 1);
        let cap = available.min(participants - 1);

        snapea_obs::counter("par/invocations").inc();
        snapea_obs::counter("par/tasks").add(total as u64);
        // Worker-lane trace events are a double opt-in (sink installed AND
        // `SNAPEA_TRACE_DETAIL=1`): a full repro run makes thousands of pool
        // invocations, each of which would add one event per participant.
        // Lanes carry wall times only — they never feed back into results,
        // so the bit-identical-for-any-thread-count contract is untouched.
        let trace_lanes = snapea_obs::enabled() && snapea_obs::detail_enabled();

        let set = TaskSet::<'_, T, R, F> {
            f,
            tasks: Mutex::new(tasks.into_iter().map(Some).collect()),
            slots: Mutex::new((0..total).map(|_| None).collect()),
            panic: Mutex::new(None),
        };
        let batch = Arc::new(Batch {
            data: (&raw const set).cast(),
            run: run_one::<T, R, F>,
            total,
            cap,
            trace_lanes,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            joined: AtomicUsize::new(0),
            left: AtomicUsize::new(0),
            busy_ns: Mutex::new(Vec::new()),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        {
            // From the moment the batch is visible to workers until the
            // rendezvous guard drops, `set` must stay alive — the guard is
            // constructed *before* publication so no unwind path can skip it.
            let rendezvous = Rendezvous {
                shared,
                batch: &batch,
            };
            if cap > 0 {
                lock(&shared.queue).push_back(Arc::clone(&batch));
                shared.work_cv.notify_all();
            }
            {
                let _caller = CallerFlag::set();
                run_batch(&batch, 0);
            }
            drop(rendezvous);
        }

        let busy: Vec<u64> = lock(&batch.busy_ns).clone();
        let max = busy.iter().copied().max().unwrap_or(0);
        let min = busy.iter().copied().min().unwrap_or(0);
        snapea_obs::counter("par/busy_ns").add(busy.iter().sum::<u64>());
        snapea_obs::gauge("par/workers").set(busy.len() as f64);
        snapea_obs::gauge("par/imbalance").set(if max == 0 {
            0.0
        } else {
            1.0 - min as f64 / max as f64
        });

        if let Some(payload) = lock(&set.panic).take() {
            // Documented contract: panics in `f` propagate to the caller —
            // after the rendezvous, so the pool is already coherent again.
            resume_unwind(payload);
        }
        let slots = set
            .slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        slots
            .into_iter()
            // lint:allow(P1) the claim cursor visits every index exactly once and the rendezvous saw completed == total with no panic recorded, so each slot was written
            .map(|r| r.expect("every task produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..97).collect();
        let out = run_tasks(tasks, |i, t| {
            assert_eq!(i, t);
            i * 3
        });
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(23, 4, |i| i as i64 - 5);
        assert_eq!(out, (0..23).map(|i| i as i64 - 5).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        let ranges = parallel_map_chunks(10, 3, |_, r| r);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(50, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_run_inline() {
        // A pool task that calls back into the pool must not deadlock or
        // oversubscribe; the nested call runs serially on the same thread
        // (worker or participating caller alike).
        let out = run_tasks(vec![(); 8], |i, ()| {
            let outer = std::thread::current().id();
            let inner = parallel_map(4, 1, move |j| {
                assert_eq!(std::thread::current().id(), outer, "nested task migrated");
                i * 10 + j
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[2], 2 * 10 * 4 + 6);
    }

    #[test]
    fn empty_and_single_task_edges() {
        let empty: Vec<u8> = run_tasks(Vec::<u8>::new(), |_, t| t);
        assert!(empty.is_empty());
        assert_eq!(run_tasks(vec![41], |_, t| t + 1), vec![42]);
    }

    #[test]
    fn thread_count_parsing_never_panics_and_falls_back() {
        // Regression: "0", empty, and garbage values must fall back to the
        // default (or clamp), not panic the lazy pool initialisation.
        assert_eq!(parse_thread_count("0"), Some(1));
        assert_eq!(parse_thread_count(""), None);
        assert_eq!(parse_thread_count("   "), None);
        assert_eq!(parse_thread_count("garbage"), None);
        assert_eq!(parse_thread_count("-3"), None);
        assert_eq!(parse_thread_count("2.5"), None);
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 8 "), Some(8));
    }

    #[test]
    fn chunk_hint_is_positive_and_covers() {
        assert_eq!(chunk_hint(0), 1);
        for n in [1, 7, 1000] {
            let c = chunk_hint(n);
            assert!(c >= 1 && c <= n.max(1));
        }
    }

    #[test]
    fn oversubscribe_override_round_trips() {
        // Results never depend on the policy (only which threads run the
        // identically chunked tasks), so toggling it mid-process is safe;
        // this pins the programmatic override used by the pool tests.
        set_oversubscribe(true);
        assert!(oversubscribe_enabled());
        set_oversubscribe(false);
        assert!(!oversubscribe_enabled());
    }

    #[test]
    fn chunk_for_respects_floor_and_clamps() {
        // Below the floor: one task covering everything (runs inline).
        assert_eq!(chunk_for(8, 10, 1000), 8);
        // Well above the floor: the hint wins.
        let c = chunk_for(1000, 1_000_000, 10);
        assert_eq!(c, chunk_hint(1000));
        // Exact floor arithmetic: ceil(100 / 30) = 4 items per task.
        assert!(chunk_for(1000, 30, 100) >= 4);
        // Degenerate inputs never panic and never return 0.
        assert_eq!(chunk_for(0, 0, 0), 1);
        assert!(chunk_for(5, 0, 7) >= 1);
    }
}
