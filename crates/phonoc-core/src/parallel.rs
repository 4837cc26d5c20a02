//! Deterministic parallelism for batch evaluation, built on a
//! **process-wide persistent worker pool**.
//!
//! The environment this workspace builds in has no registry access, so
//! instead of `rayon` this module provides the one order-preserving
//! parallel map the engine needs:
//!
//! * **Workers are spawned once and live for the process.** A batch is
//!   dispatched as chunk descriptors over per-worker channels; the
//!   caller thread itself runs chunk 0 and then waits for the remote
//!   chunks' completion messages.
//! * **Scratch slots are sticky.** Every thread (each pool worker and
//!   every caller thread) owns a typed scratch arena keyed by the
//!   scratch type of the call site; [`parallel_map_with`] callers build
//!   their `EvalScratch`/`PeekScratch` once per thread *lifetime*, not
//!   once per batch call. The slot contract: a scratch must be a
//!   **buffer, not an accumulator** — the mapped function must produce
//!   output that is a pure function of its item, whatever state a
//!   previous batch (possibly of a *different problem*) left in the
//!   slot. Every scratch type in the workspace already honours this
//!   (pinned by `tests/scratch_properties.rs` and the reused-slot
//!   staleness test in `tests/thread_invariance.rs`).
//!
//! # One entry point, one rule
//!
//! [`parallel_map_with`]`(items, work, init, f)` is the only map. The
//! caller states the batch's **work**: what its items cost, in ledger
//! units of the routes that score them, as known or capped before
//! scoring (the engine's SNR-family direct evaluations, full-routed
//! and SNR-delta peeks and portfolio lane allotments cost the problem's
//! edge count each, a loss-family evaluation or peek one unit; a batch
//! that must fork, such as the experiment bins' jobs, states
//! `usize::MAX`). A batch forks
//! only when it is not running inside another forked batch and its work
//! reaches `2 × `[`FORK_WORK`], on `min(max workers, work / FORK_WORK)`
//! workers; otherwise it runs inline on the caller thread (still on its
//! sticky scratch slot). Every caller — engine batches, portfolio
//! rounds, the experiment bins — goes through this one decision.
//!
//! **Nested batches run inline.** "Inside another forked batch" means
//! any thread running a chunk of one: a pool worker, and also the
//! caller thread while it runs its own chunk 0. A portfolio round's
//! lanes therefore scan on their own cores: a lane on chunk 0 does not
//! hand its scans to a worker that is busy with another lane and then
//! wait for that whole lane. This is also the deadlock-free rule for a
//! fixed-size pool: no thread ever blocks waiting for pool capacity it
//! might itself be occupying.
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
//! # Worker-count control and invariance
//!
//! The worker ceiling is the machine's available parallelism unless
//! pinned by `PHONOC_WORKERS=N` (both read once, [`env_workers`]) or,
//! winning over both, [`set_worker_override`] (tests). **Results never
//! depend on the worker count**: the map cuts the batch into contiguous
//! chunks and concatenates per-chunk results in input order, so runs
//! at any worker count are bit-identical as long as the mapped function
//! is a pure function of its item (the buffer contract above) —
//! property-tested in `tests/thread_invariance.rs` and
//! `tests/pool_stress.rs` at 1/2/4/8 workers, across mid-run override
//! resizes too.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

/// Ledger units of work each worker of a forked batch gets at least.
///
/// Sized from the pool's dispatch round trip, not from speed-ups: on
/// the 2-core host this was tuned on, an empty two-chunk batch takes
/// 12–31 µs (criterion `dispatch/round_trip_2_workers`, min to median)
/// and a ledger unit of a peek batch 45–600 ns (the group's inline
/// cases: full-routed the cheapest, SNR-delta the dearest, loss
/// 135–215 ns), so a worker's share runs one to ten round trips. Twice
/// as much kept the 8×8 loss neighbourhood (2016 moves) inline, and the
/// sweep's two 8×8 mpeg-like d100 `r-pbla!power` budget-100000 cells
/// then ran a third slower at 2 workers.
pub const FORK_WORK: usize = 512;

/// Runtime worker-count override; `0` means "not set". Takes
/// precedence over the `PHONOC_WORKERS` environment variable.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins (Some, clamped to ≥ 1) or releases (None) the worker count of
/// every later batch in this process (tests; runs use
/// `PHONOC_WORKERS`). It changes how batches are scheduled, never
/// their results (see the [module docs](self)).
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.map_or(0, |w| w.max(1)), Ordering::Relaxed);
}

/// The worker ceiling the environment sets, worked out once: a
/// positive integer `PHONOC_WORKERS` (surrounding whitespace allowed),
/// else the machine's available parallelism, whose query reads the
/// cgroup CPU quota on Linux (~16 µs, too dear to pay per batch).
///
/// # Errors
///
/// A message naming the value when `PHONOC_WORKERS` is set to anything
/// else (`two`, `0`, `-1`, empty). The `phonocmap` CLI reports it and
/// exits before any work; inside the library the first batch panics
/// with it.
pub fn env_workers() -> Result<usize, String> {
    static ENV: OnceLock<Result<usize, String>> = OnceLock::new();
    ENV.get_or_init(|| {
        let Some(value) = std::env::var_os("PHONOC_WORKERS") else {
            return Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        };
        let value = value.to_string_lossy();
        match value.trim().parse::<usize>() {
            Ok(workers) if workers > 0 => Ok(workers),
            _ => Err(format!(
                "PHONOC_WORKERS must be a positive integer, not `{value}`"
            )),
        }
    })
    .clone()
}

/// The effective worker ceiling: the runtime override, else
/// [`env_workers`].
fn max_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_workers().unwrap_or_else(|msg| panic!("{msg}")),
        pinned => pinned,
    }
}

/// The one dispatch rule: how many workers a batch of `items` stating
/// `work` ledger units runs on (`1` = inline). Inline inside a forked
/// batch's chunk and below `2 × FORK_WORK`; otherwise `work /
/// FORK_WORK` workers, up to the ceiling and to one item each.
pub(crate) fn workers_for(work: usize, items: usize) -> usize {
    if IN_FORKED_CHUNK.with(Cell::get) {
        return 1;
    }
    max_workers().min(work / FORK_WORK).min(items).max(1)
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
    /// Whether this thread is running a chunk of a forked batch: always
    /// on a pool worker, and on a caller thread while it runs its own
    /// chunk 0. Batches started there run inline (see the module docs).
    static IN_FORKED_CHUNK: Cell<bool> = const { Cell::new(false) };
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
    IN_FORKED_CHUNK.with(|flag| flag.set(true));
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
    // scratch slot stays warm for the inline path). Batches nested in
    // it run inline, like those on the workers. Only a thread outside
    // any forked chunk dispatches, so the flag goes back to `false`.
    // SAFETY: `work` outlives the outcome loop below, and chunk 0 is
    // touched by no other thread.
    IN_FORKED_CHUNK.with(|flag| flag.set(true));
    let mine = catch_unwind(AssertUnwindSafe(|| unsafe {
        run_chunk::<S, T, R, I, F>(work_ptr, 0)
    }));
    IN_FORKED_CHUNK.with(|flag| flag.set(false));

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

/// Maps `f` over `items`, returning results in input order. `work` is
/// the batch's cost in ledger units (see the [module docs](self)): the
/// batch forks over the pool when [the rule](FORK_WORK) says so, on at
/// most one worker per item, and runs inline on the caller thread
/// otherwise. `f` runs on the executing thread's sticky scratch slot
/// for `S` (built by `init` the first time that thread sees `S`), which
/// must be a buffer, not an accumulator (see the module docs).
///
/// # Panics
///
/// Resumes the first panic of `f` (after every chunk has finished), and
/// panics if `PHONOC_WORKERS` is set to anything but a positive integer
/// ([`env_workers`]).
pub fn parallel_map_with<S, T, R, I, F>(items: &[T], work: usize, init: I, f: F) -> Vec<R>
where
    S: Send + 'static,
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = workers_for(work, items.len());
    if workers > 1 {
        return dispatch(items, workers, &init, &f);
    }
    with_slot(&init, |scratch| {
        items.iter().map(|item| f(scratch, item)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Work that forks at any ceiling of 2 or more.
    const HEAVY: usize = 2 * FORK_WORK;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map_with(&items, HEAVY, || (), |_, &x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_batches_work() {
        let none = parallel_map_with(&[] as &[usize], HEAVY, || (), |_, &x| x);
        assert_eq!(none, Vec::<usize>::new());
        assert_eq!(
            parallel_map_with(&[7usize], HEAVY, || (), |_, &x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn fork_work_results_are_input_ordered_and_identical() {
        // Work straddling every boundary of the rule (inline below
        // `2 × FORK_WORK`, then one more worker per `FORK_WORK`) and
        // batch sizes from empty to far beyond any core count: the
        // result must always equal the sequential map, in input order.
        let _guard = override_lock();
        set_worker_override(Some(4));
        for work in [
            0,
            FORK_WORK,
            2 * FORK_WORK - 1,
            2 * FORK_WORK,
            3 * FORK_WORK,
            usize::MAX,
        ] {
            for n in [0, 1, 2, 3, 5, 1024] {
                let items: Vec<usize> = (0..n).collect();
                let expected: Vec<usize> = items.iter().map(|&x| x * 7 + 1).collect();
                let out = parallel_map_with(&items, work, || (), |_, &x| x * 7 + 1);
                assert_eq!(out, expected, "n = {n}, work = {work}");
            }
        }
    }

    #[test]
    fn pool_matches_the_sequential_map_at_every_worker_count() {
        let _guard = override_lock();
        let f = |acc: &mut u64, &x: &u64| {
            // Scratch used as a buffer: overwritten, then read — the
            // output is a pure function of the item.
            *acc = x.wrapping_mul(0x9E37_79B9).rotate_left(9);
            *acc ^ 0xABCD
        };
        // 37 items at 64 workers: a ceiling above the item count (one
        // item per chunk) and far above any small host's cores.
        for n in [321, 37] {
            let items: Vec<u64> = (0..n).collect();
            let mut scratch = 0u64;
            let expected: Vec<u64> = items.iter().map(|x| f(&mut scratch, x)).collect();
            for workers in [1, 2, 3, 4, 8, 64] {
                set_worker_override(Some(workers));
                assert_eq!(
                    parallel_map_with(&items, usize::MAX, || 0u64, f),
                    expected,
                    "pool @ {workers} workers over {n} items"
                );
            }
        }
    }

    /// The distinct threads a batch of `work` over `n` items ran on.
    fn threads_of(n: usize, work: usize) -> usize {
        let items: Vec<usize> = (0..n).collect();
        let mut ids = parallel_map_with(&items, work, || (), |_, _| std::thread::current().id());
        ids.dedup();
        ids.len()
    }

    #[test]
    fn batches_fork_by_their_work() {
        let _guard = override_lock();
        set_worker_override(Some(4));
        // Below twice the fork work a batch stays inline, at any item
        // count; from there on it takes one worker per `FORK_WORK`, up
        // to the ceiling and to one item per worker.
        assert_eq!(threads_of(64, 2 * FORK_WORK - 1), 1);
        assert_eq!(threads_of(64, 2 * FORK_WORK), 2);
        assert_eq!(threads_of(64, 3 * FORK_WORK), 3);
        assert_eq!(threads_of(64, 100 * FORK_WORK), 4);
        assert_eq!(threads_of(2, 100 * FORK_WORK), 2, "two heavy items fork");
        assert_eq!(threads_of(1, 100 * FORK_WORK), 1, "one item never forks");
        set_worker_override(Some(1));
        assert_eq!(threads_of(64, usize::MAX), 1, "one worker never forks");
    }

    #[test]
    fn nested_batches_run_inline_on_the_worker() {
        let _guard = override_lock();
        set_worker_override(Some(4));
        // Each outer item runs a nested batch heavy enough to fork at
        // top level. Every nested batch must stay on the thread that
        // runs its outer chunk: a pool worker's, and the caller's own
        // chunk 0 too.
        let caller = std::thread::current().id();
        let outer: Vec<usize> = (0..4).collect();
        let runs: Vec<(ThreadId, bool)> = parallel_map_with(
            &outer,
            usize::MAX,
            || (),
            |_, _| {
                let inner: Vec<usize> = (0..64).collect();
                let ids = parallel_map_with(
                    &inner,
                    usize::MAX,
                    || (),
                    |_, _| std::thread::current().id(),
                );
                let outer_id = std::thread::current().id();
                (outer_id, ids.iter().all(|&id| id == outer_id))
            },
        );
        for (i, &(outer_id, inline)) in runs.iter().enumerate() {
            assert!(
                inline,
                "nested batch of outer item {i} (on {outer_id:?}) left its thread"
            );
        }
        assert_eq!(runs[0].0, caller, "the caller runs chunk 0");
        assert!(
            runs.iter().any(|&(outer_id, _)| outer_id != caller),
            "the outer batch should have forked at override 4"
        );
        // Back outside any chunk, the caller forks again.
        assert_eq!(threads_of(64, usize::MAX), 4);
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
                usize::MAX,
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
                usize::MAX,
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
