//! Deterministic parallelism for batch evaluation, built on a
//! **process-wide persistent worker pool**.
//!
//! The environment this workspace builds in has no registry access, so
//! instead of `rayon` this module provides the order-preserving
//! parallel maps the engine needs. Through PR 6 they were built on
//! [`std::thread::scope`]: every batch call spawned fresh threads and
//! rebuilt its scratch buffers from scratch. Both costs are gone:
//!
//! * **Workers are spawned once and live for the process.** A batch is
//!   dispatched as chunk descriptors over per-worker channels; the
//!   caller thread itself runs chunk 0 and then waits for the remote
//!   chunks' completion messages. Dispatch costs a few channel sends
//!   and one wake-up per worker instead of a thread spawn per worker
//!   (tens of microseconds each).
//! * **Scratch slots are sticky.** Every thread (each pool worker and
//!   every caller thread) owns a typed scratch arena keyed by the
//!   scratch type of the call site; [`parallel_map_with`] callers build
//!   their `EvalScratch`/`DeltaScratch` once per worker *lifetime*, not
//!   once per batch call. The slot contract: a scratch must be a
//!   **buffer, not an accumulator** — the mapped function must produce
//!   output that is a pure function of its item, whatever state a
//!   previous batch (possibly of a *different problem*) left in the
//!   slot. Every scratch type in the workspace already honours this
//!   (pinned by `tests/scratch_properties.rs` and the reused-slot
//!   staleness test in `tests/thread_invariance.rs`).
//!
//! # Entry points
//!
//! * [`parallel_map`] / [`parallel_map_with`] — the fine-grained maps
//!   behind batch evaluation, gated by the fork floor ([`FORK_FLOOR`]):
//!   below `2 × FORK_FLOOR` items a batch runs inline on the caller
//!   thread (still on its sticky scratch slot); above it the worker
//!   count scales with `n / FORK_FLOOR` up to the effective ceiling.
//! * [`parallel_map_tasks`] — the coarse-grained map behind portfolio
//!   lanes: items are whole optimizer runs (milliseconds to seconds
//!   each), so it forks for *any* batch of two or more items instead of
//!   applying the floor.
//!
//! # Pool lifecycle
//!
//! Workers are spawned lazily on first dispatch and never exit; the
//! pool grows monotonically to the largest worker count any batch has
//! asked for, and a batch at `w` workers dispatches to the first
//! `w - 1` workers (plus the caller thread). [`set_worker_override`]
//! and `PHONOC_WORKERS` therefore re-pin the pool *deterministically
//! between batches*: shrinking leaves the extra workers idle (their
//! sticky scratches intact), growing spawns the missing workers on the
//! next dispatch. Worker threads block on their channel when idle and
//! die with the process.
//!
//! A batch dispatched from *inside* a pool worker (portfolio lanes
//! calling the engine's batch scans) runs inline on that worker — its
//! sticky arena serves the nested scratch types too. This is the
//! standard deadlock-free rule for a fixed-size pool: a worker never
//! blocks waiting for pool capacity it might itself be occupying, and
//! a lane's scans stay on the lane's core instead of fighting the
//! other lanes for it.
//!
//! # Worker-count control and invariance
//!
//! The worker ceiling is normally the machine's available parallelism,
//! but can be pinned — `PHONOC_WORKERS=N` in the environment (read
//! once), or [`set_worker_override`] at run time (tests; the runtime
//! setting wins). **Results never depend on the worker count**: every
//! map cuts the batch into contiguous chunks and concatenates
//! per-chunk results in input order, so a 1-worker and an 8-worker run
//! of the same batch are bit-identical as long as the mapped function
//! is a pure function of its item (the scratch-slot buffer contract
//! above) — property-tested in `tests/thread_invariance.rs` at
//! 1/2/4/8 workers, including across a mid-run override resize. If
//! `rayon` is ever vendored, only this module needs to change.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

/// Minimum items per worker before a fine-grained batch forks.
///
/// Dispatching one pool chunk costs a channel send plus a wake-up —
/// about 4 µs per remote chunk — and the items flowing through here
/// (full or delta evaluations) cost a microsecond or more each, so a
/// handful per worker amortize a dispatch. Below `2 × FORK_FLOOR`
/// items, batches run inline on the caller thread (on its sticky
/// scratch slot); above it, worker count scales with `n / FORK_FLOOR`
/// up to the effective ceiling.
pub const FORK_FLOOR: usize = 4;

/// Runtime worker-count override; `0` means "not set". Takes
/// precedence over the `PHONOC_WORKERS` environment variable.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins (Some, clamped to ≥ 1) or releases (None) the worker count
/// used by every parallel map in this process. The thread-invariance
/// property tests drive this; production runs use the
/// `PHONOC_WORKERS` environment variable instead. Changing the worker
/// count between batches resizes which pool workers the next batch is
/// dispatched to, but never changes any map's results (see the
/// [module docs](self)), only how the work is scheduled.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// The `PHONOC_WORKERS` environment setting, parsed once: the CI
/// worker matrix pins worker counts process-wide through it.
fn env_workers() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PHONOC_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|w| w.max(1))
    })
}

/// The effective worker ceiling: runtime override, then
/// `PHONOC_WORKERS`, then the machine's available parallelism.
pub(crate) fn max_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_workers().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }),
        pinned => pinned,
    }
}

/// Number of worker threads to use for `n` fine-grained items: the
/// effective worker ceiling, capped so every worker gets at least
/// [`FORK_FLOOR`] items.
fn workers_for(n: usize) -> usize {
    max_workers().min(n / FORK_FLOOR).max(1)
}

// ---------------------------------------------------------------------
// Sticky scratch slots
// ---------------------------------------------------------------------

thread_local! {
    /// This thread's scratch arena: one slot per scratch *type* ever
    /// used on this thread, linearly scanned (call sites use a handful
    /// of types, so a scan beats hashing). Slots are taken out for the
    /// duration of a chunk and put back after it, which keeps the
    /// arena re-entrant for nested inline batches.
    static ARENA: RefCell<Vec<(TypeId, Box<dyn Any + Send>)>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread is a pool worker (nested dispatches run
    /// inline — see the module docs' deadlock-free rule).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `body` on this thread's sticky scratch slot for `S`, creating
/// it via `init` the first time this thread sees the type. The slot is
/// removed from the arena while `body` runs (re-entrancy) and returned
/// afterwards; if `body` panics the slot is dropped instead, so a
/// half-updated scratch never survives into a later batch.
fn with_slot<S, I, R>(init: &I, body: impl FnOnce(&mut S) -> R) -> R
where
    S: Send + 'static,
    I: Fn() -> S,
{
    let taken: Option<Box<dyn Any + Send>> = ARENA.with(|arena| {
        let mut slots = arena.borrow_mut();
        let idx = slots.iter().position(|(t, _)| *t == TypeId::of::<S>())?;
        Some(slots.swap_remove(idx).1)
    });
    let mut slot: Box<S> = match taken {
        Some(boxed) => boxed.downcast::<S>().expect("arena slot keyed by TypeId"),
        None => Box::new(init()),
    };
    let out = body(&mut slot);
    ARENA.with(|arena| arena.borrow_mut().push((TypeId::of::<S>(), slot)));
    out
}

// ---------------------------------------------------------------------
// The persistent pool
// ---------------------------------------------------------------------

/// What a worker reports back per chunk: `Ok` or the panic payload of
/// the mapped function (resumed on the caller thread).
type ChunkOutcome = Result<(), Box<dyn Any + Send>>;

/// A type-erased chunk descriptor. `work` points at a stack-allocated
/// [`WorkShared`] on the dispatching thread; `run` is the matching
/// monomorphized runner. The dispatcher **always** blocks until every
/// chunk's outcome arrived before letting the borrows behind `work`
/// expire, which is what makes the erased pointer sound to send.
struct ChunkMsg {
    work: *const (),
    run: unsafe fn(*const (), usize),
    index: usize,
    done: Sender<ChunkOutcome>,
}

// SAFETY: `work` is only dereferenced through `run` (whose
// instantiation in `dispatch` carries the `T: Sync`/`R: Send`/
// closure-`Sync` bounds), and the dispatching thread keeps the
// pointee alive until every chunk outcome has been received.
unsafe impl Send for ChunkMsg {}

/// The pool: one channel sender per spawned worker, grown lazily and
/// never shrunk (see the module docs' lifecycle section).
static POOL: Mutex<Vec<Sender<ChunkMsg>>> = Mutex::new(Vec::new());

/// The body of a pool worker thread: execute chunks forever. A panic
/// in the mapped function is caught and forwarded to the dispatcher;
/// the worker's sticky arena is cleared on the way (a scratch that was
/// mid-update when the panic unwound must not survive into a later
/// batch).
fn worker_main(jobs: &Receiver<ChunkMsg>) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    while let Ok(msg) = jobs.recv() {
        // SAFETY: see `ChunkMsg` — the dispatcher keeps `work` alive
        // until this chunk's outcome is received.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
            (msg.run)(msg.work, msg.index)
        }));
        if outcome.is_err() {
            ARENA.with(|arena| arena.borrow_mut().clear());
        }
        // The dispatcher may itself be unwinding and have dropped the
        // receiver; nothing to do about the outcome then.
        let _ = msg.done.send(outcome);
    }
}

/// Ensures at least `count` workers exist, returning a clone of the
/// first `count` senders (cloned so the pool lock is not held while
/// the batch runs).
fn pool_workers(count: usize) -> Vec<Sender<ChunkMsg>> {
    let mut pool = POOL.lock().expect("pool lock");
    while pool.len() < count {
        let (tx, rx) = channel::<ChunkMsg>();
        std::thread::Builder::new()
            .name(format!("phonoc-pool-{}", pool.len()))
            .spawn(move || worker_main(&rx))
            .expect("spawning a pool worker");
        pool.push(tx);
    }
    pool[..count].to_vec()
}

/// Everything one batch's chunks share, living on the dispatching
/// thread's stack behind raw pointers (so the monomorphized runner has
/// no lifetime parameters to erase).
struct WorkShared<S, T, R, I, F> {
    items: *const T,
    len: usize,
    chunk: usize,
    init: *const I,
    f: *const F,
    /// One result slot per chunk; chunk `i` writes slot `i` only, so
    /// the slots are disjoint across workers.
    slots: *const std::cell::UnsafeCell<Option<Vec<R>>>,
    _scratch: PhantomData<fn() -> S>,
}

/// Runs chunk `index` of the batch behind `work` on the current
/// thread's sticky scratch slot.
///
/// # Safety
///
/// `work` must point at a live `WorkShared<S, T, R, I, F>` whose
/// pointees (items, closures, slots) stay valid until the chunk's
/// outcome is delivered, and no other thread may touch slot `index`.
unsafe fn run_chunk<S, T, R, I, F>(work: *const (), index: usize)
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let work = &*work.cast::<WorkShared<S, T, R, I, F>>();
    let items = std::slice::from_raw_parts(work.items, work.len);
    let start = (index * work.chunk).min(work.len);
    let end = ((index + 1) * work.chunk).min(work.len);
    let init = &*work.init;
    let f = &*work.f;
    let out: Vec<R> = with_slot(init, |scratch| {
        items[start..end]
            .iter()
            .map(|item| f(scratch, item))
            .collect()
    });
    *(*work.slots.add(index)).get() = Some(out);
}

/// Dispatches a batch across the pool: chunks `1..` go to pool
/// workers, chunk 0 runs on the caller thread, and results are
/// concatenated in chunk (= input) order. Panics from the mapped
/// function are resumed here — after every outstanding chunk has
/// completed, so the stack borrows never escape.
fn dispatch<S, T, R, I, F>(items: &[T], workers: usize, init: &I, f: &F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    let chunk = n.div_ceil(workers);
    let chunks = n.div_ceil(chunk);
    debug_assert!(chunks >= 2, "dispatch called below the fork threshold");
    let slots: Vec<std::cell::UnsafeCell<Option<Vec<R>>>> = (0..chunks)
        .map(|_| std::cell::UnsafeCell::new(None))
        .collect();
    let work = WorkShared::<S, T, R, I, F> {
        items: items.as_ptr(),
        len: n,
        chunk,
        init,
        f,
        slots: slots.as_ptr(),
        _scratch: PhantomData,
    };
    let work_ptr = std::ptr::from_ref(&work).cast::<()>();

    let (done_tx, done_rx) = channel::<ChunkOutcome>();
    let senders = pool_workers(chunks - 1);
    for (index, worker) in (1..chunks).zip(&senders) {
        worker
            .send(ChunkMsg {
                work: work_ptr,
                run: run_chunk::<S, T, R, I, F>,
                index,
                done: done_tx.clone(),
            })
            .expect("pool workers never drop their receiver");
    }
    drop(done_tx);

    // The caller earns its keep on chunk 0 (and its thread's sticky
    // scratch slot stays warm for the sequential fallback path).
    // SAFETY: `work` outlives the outcome loop below, and chunk 0 is
    // touched by no other thread.
    let mine = catch_unwind(AssertUnwindSafe(|| unsafe {
        run_chunk::<S, T, R, I, F>(work_ptr, 0)
    }));

    // Wait for *every* remote chunk before unwinding or returning —
    // the chunks borrow this stack frame.
    let mut remote_panic: Option<Box<dyn Any + Send>> = None;
    for _ in 1..chunks {
        match done_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => {
                remote_panic.get_or_insert(payload);
            }
            Err(_) => unreachable!("a worker holds the done sender until it reports"),
        }
    }
    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    if let Some(payload) = remote_panic {
        resume_unwind(payload);
    }

    let mut out = Vec::with_capacity(n);
    for cell in slots {
        out.extend(cell.into_inner().expect("every chunk reported completion"));
    }
    out
}

/// Runs the batch inline on the caller thread's sticky scratch slot.
fn run_inline<S, T, R, I, F>(items: &[T], init: &I, f: &F) -> Vec<R>
where
    S: Send + 'static,
    I: Fn() -> S,
    F: Fn(&mut S, &T) -> R,
{
    if items.is_empty() {
        return Vec::new();
    }
    with_slot(init, |scratch| {
        items.iter().map(|item| f(scratch, item)).collect()
    })
}

/// Whether a batch of `n` items at `workers` runs inline: one worker,
/// fewer than two items, or already on a pool worker (nested batches —
/// see the module docs).
fn inline(n: usize, workers: usize) -> bool {
    workers <= 1 || n < 2 || IN_POOL_WORKER.with(Cell::get)
}

/// Whether [`parallel_map_with`] would run a batch of `n` items inline
/// on the calling thread: below the fork floor, at one worker, or on a
/// pool worker. Callers that can do better than a mapped closure on
/// that path (the engine books each peek as it scores it) ask first.
pub(crate) fn runs_inline(n: usize) -> bool {
    inline(n, workers_for(n))
}

/// The shared entry: inline when [`inline`] says so, pool dispatch
/// otherwise.
fn run_batch<S, T, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if inline(items.len(), workers) {
        run_inline(items, &init, &f)
    } else {
        dispatch(items, workers, &init, &f)
    }
}

// ---------------------------------------------------------------------
// Public maps
// ---------------------------------------------------------------------

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Falls back to an inline loop when the batch is too small to be
/// worth forking (see [`FORK_FLOOR`]) or on a single-core machine.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, || (), move |_: &mut (), item| f(item))
}

/// Like [`parallel_map`], but hands the mapped function a private
/// scratch value (e.g. reusable evaluation buffers) from the executing
/// thread's **sticky scratch slot**: `init` runs only the first time a
/// given worker (or the caller thread) sees the scratch type `S`, and
/// the value persists across batch calls for the worker's lifetime.
/// The scratch must therefore be a buffer, not an accumulator — `f`'s
/// output must be a pure function of its item regardless of what an
/// earlier batch left in the slot (see the [module docs](self)).
pub fn parallel_map_with<S, T, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    run_batch(items, workers_for(items.len()), init, f)
}

/// Like [`parallel_map`], but for **coarse-grained** items (whole
/// optimizer runs — the portfolio's bulk-synchronous lane rounds):
/// forks for any batch of two or more items instead of applying the
/// fork floor, since each item is many orders of magnitude heavier
/// than a pool dispatch. Results are returned in input order, so the
/// reduction over them is fixed regardless of the worker count.
pub fn parallel_map_tasks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = max_workers().min(items.len()).max(1);
    run_batch(items, workers, || (), move |_: &mut (), item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_batches_work() {
        assert_eq!(parallel_map(&[] as &[usize], |&x| x), Vec::<usize>::new());
        assert_eq!(parallel_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn fork_floor_results_are_input_ordered_and_identical() {
        // Sizes straddling every boundary of the fork floor: empty,
        // sub-floor (inline), exactly one floor, just above, several
        // floors, and far beyond any plausible core count × floor. The
        // result must always equal the sequential map, in input order.
        for n in [
            0,
            1,
            FORK_FLOOR - 1,
            FORK_FLOOR,
            FORK_FLOOR + 1,
            3 * FORK_FLOOR,
            1024,
        ] {
            let items: Vec<usize> = (0..n).collect();
            let expected: Vec<usize> = items.iter().map(|&x| x * 7 + 1).collect();
            let out = parallel_map(&items, |&x| x * 7 + 1);
            assert_eq!(out, expected, "n = {n}");
        }
    }

    #[test]
    fn pool_matches_the_sequential_map_at_every_worker_count() {
        let _guard = override_lock();
        let items: Vec<u64> = (0..321).collect();
        let f = |acc: &mut u64, &x: &u64| {
            // Scratch used as a buffer: overwritten, then read — the
            // output is a pure function of the item.
            *acc = x.wrapping_mul(0x9E37_79B9).rotate_left(9);
            *acc ^ 0xABCD
        };
        let mut scratch = 0u64;
        let expected: Vec<u64> = items.iter().map(|x| f(&mut scratch, x)).collect();
        for workers in [1, 2, 3, 4, 8, 64] {
            set_worker_override(Some(workers));
            assert_eq!(
                parallel_map_with(&items, || 0u64, f),
                expected,
                "pool @ {workers} workers"
            );
        }
    }

    #[test]
    fn tasks_map_is_input_ordered_at_every_worker_count() {
        // The override is process-global; serialize with the other
        // override tests and always restore the default.
        let _guard = override_lock();
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 11 + 5).collect();
        for workers in [1, 2, 3, 4, 64] {
            set_worker_override(Some(workers));
            let out = parallel_map_tasks(&items, |&x| x * 11 + 5);
            assert_eq!(out, expected, "workers = {workers}");
        }
        set_worker_override(None);
    }

    #[test]
    fn tasks_map_forks_small_batches() {
        let _guard = override_lock();
        set_worker_override(Some(2));
        // Two heavyweight items must land on two distinct threads (the
        // fine-grained map would keep them on the caller thread).
        let ids = parallel_map_tasks(&[0, 1], |_| std::thread::current().id());
        assert_ne!(ids[0], ids[1], "coarse map must fork below the floor");
        set_worker_override(None);
        // Single items never fork.
        let one = parallel_map_tasks(&[42usize], |&x| x);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn nested_batches_run_inline_on_the_worker() {
        let _guard = override_lock();
        set_worker_override(Some(4));
        // Each coarse item runs a nested fine-grained batch large
        // enough to fork at top level. On chunks executed by *pool
        // workers* the nested batch must stay on the worker's thread;
        // the caller's own chunk 0 is not a pool worker and may fork.
        let caller = std::thread::current().id();
        let outer: Vec<usize> = (0..4).collect();
        let runs = parallel_map_tasks(&outer, |_| {
            let inner: Vec<usize> = (0..64).collect();
            let ids = parallel_map(&inner, |_| std::thread::current().id());
            let outer_id = std::thread::current().id();
            (outer_id, ids.iter().all(|&id| id == outer_id))
        });
        assert!(
            runs.iter()
                .filter(|(outer_id, _)| *outer_id != caller)
                .all(|&(_, inline)| inline),
            "nested batches on pool workers must not re-enter the pool"
        );
        assert!(
            runs.iter().any(|(outer_id, _)| *outer_id != caller),
            "the coarse map should have forked at override 4"
        );
        set_worker_override(None);
    }

    /// Serializes tests that touch the process-global worker override
    /// and guarantees the default is restored (even across a poisoned
    /// lock from an earlier failing test — the payload is `()`).
    fn override_lock() -> impl Drop {
        struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
        impl Drop for Guard {
            fn drop(&mut self) {
                set_worker_override(None);
            }
        }
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        Guard(
            LOCK.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    #[test]
    fn scratch_slots_are_sticky_per_thread() {
        let _guard = override_lock();
        set_worker_override(Some(4));
        // Distinct scratch type so no other test shares the slot.
        struct Counter(usize);
        let items: Vec<usize> = (0..64).collect();
        let run = || {
            parallel_map_with(
                &items,
                || Counter(0),
                |c: &mut Counter, &x| {
                    c.0 += 1;
                    (x, c.0)
                },
            )
        };
        let first = run();
        let second = run();
        assert_eq!(first.len(), 64);
        // Input order is preserved either way.
        for (i, &(x, _)) in first.iter().enumerate() {
            assert_eq!(x, i);
        }
        // Sticky slots: the second batch continues counting where the
        // first left off on at least the caller's chunk — the scratch
        // was NOT rebuilt. (This is exactly why scratches must be
        // buffers, not accumulators, in real call sites.)
        assert!(
            second[0].1 > first[0].1,
            "caller-thread slot must persist across batches: {} then {}",
            first[0].1,
            second[0].1
        );
    }

    #[test]
    fn worker_panics_propagate_and_the_pool_survives() {
        // The pool's `unsafe` soundness rests on the dispatcher waiting
        // for every remote chunk before it unwinds. Panic in the
        // caller's chunk 0 (item 0) and in the last remote chunk (item
        // n − 1): the panic must propagate, the next batch at the same
        // worker count must be correct and input-ordered, and the
        // panicking thread's sticky slot must have been rebuilt.
        let _guard = override_lock();
        // Counts the items mapped since this slot was built; local to
        // the test so no other test shares its slots.
        struct Counting(usize);
        const PANIC_AT_NONE: usize = usize::MAX;
        let items: Vec<usize> = (0..64).collect();
        let run = |panic_at: usize| {
            parallel_map_with(
                &items,
                || Counting(0),
                |c: &mut Counting, &x| {
                    c.0 += 1;
                    assert!(x != panic_at, "injected failure");
                    (x, c.0)
                },
            )
        };
        for workers in [2, 4, 8] {
            set_worker_override(Some(workers));
            let chunk = items.len().div_ceil(workers);
            for panic_at in [0, items.len() - 1] {
                // Warm every slot first, so a slot that survived the
                // panic would keep counting past its chunk.
                let _ = run(PANIC_AT_NONE);
                let result = std::panic::catch_unwind(|| run(panic_at));
                assert!(
                    result.is_err(),
                    "the panic at item {panic_at} must propagate @ {workers} workers"
                );
                let after = run(PANIC_AT_NONE);
                let order: Vec<usize> = after.iter().map(|&(x, _)| x).collect();
                assert_eq!(order, items, "input order @ {workers} workers");
                // The first item of the panicking chunk is the first
                // item its rebuilt slot ever mapped.
                let first_of_chunk = panic_at / chunk * chunk;
                assert_eq!(
                    after[first_of_chunk].1, 1,
                    "slot of the chunk holding item {panic_at} was not rebuilt @ {workers} workers"
                );
            }
        }
    }
}
