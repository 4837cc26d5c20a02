//! Stress tests for the persistent worker pool behind
//! [`phonoc_core::parallel::parallel_map_with`], the one `unsafe`
//! island of the workspace. Its soundness argument is that a
//! dispatching thread waits for every chunk of its batch before it
//! returns or unwinds (the chunks borrow its stack), and that a panic
//! in any chunk leaves the pool usable. Each case runs at 1, 2, 4 and 8
//! workers and checks both halves:
//!
//! * panics in the caller's chunk 0 and in remote chunks, raised while
//!   the other chunks are held mid-batch, propagate only after every
//!   chunk has finished;
//! * nested batches started on the caller's chunk and on worker chunks
//!   run inline on their thread, panicking or not;
//! * the override resized between the rounds of one budget-capped
//!   batch changes nothing but the schedule;
//! * after each case the pool still forks and returns results in input
//!   order.
//!
//! The override is process-global, so the tests serialize on one mutex
//! and restore the default before releasing it.

use phonoc_core::parallel::{parallel_map_with, set_worker_override, FORK_WORK};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Locks the override for one test and restores the default on drop.
struct Pinned<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        set_worker_override(None);
    }
}

fn pin() -> Pinned<'static> {
    Pinned(OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Worker counts under test: the CI matrix's and more than a small
/// host has cores, never more than 8.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Work that forks on every worker of the ceiling.
const HEAVY: usize = usize::MAX;

/// Items per batch: not a multiple of any worker count, so the last
/// chunk is short.
const ITEMS: usize = 97;

/// The pool is usable: a heavy batch forks on `workers` threads and
/// returns every result in input order.
fn assert_usable(workers: usize, case: &str) {
    let items: Vec<usize> = (0..ITEMS).collect();
    let out = parallel_map_with(
        &items,
        HEAVY,
        || (),
        |_, &x| (x * 3 + 1, std::thread::current().id()),
    );
    let values: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
    assert_eq!(
        values,
        items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>(),
        "{case}: input order @ {workers} workers"
    );
    let mut threads: Vec<ThreadId> = out.iter().map(|&(_, id)| id).collect();
    threads.dedup();
    assert_eq!(threads.len(), workers, "{case}: forks @ {workers} workers");
}

/// Counts the items running right now; an item leaves it on drop, so a
/// panicking item leaves it too.
struct Running<'a>(&'a AtomicUsize);

impl<'a> Running<'a> {
    fn enter(count: &'a AtomicUsize) -> Running<'a> {
        count.fetch_add(1, Ordering::SeqCst);
        Running(count)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn panics_mid_batch_propagate_after_every_chunk_finished() {
    let _pin = pin();
    let items: Vec<usize> = (0..ITEMS).collect();
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        let chunk = ITEMS.div_ceil(workers);
        // Item 0 is the caller's chunk; the others sit in the middle of
        // the first remote chunk and of the last chunk (the caller's own
        // chunk at one worker), and "every chunk" panics on each chunk's
        // first item.
        let middle_of_first_remote = (chunk + chunk / 2).min(ITEMS - 1);
        let middle_of_last = (ITEMS - 1) / chunk * chunk + (ITEMS - 1) % chunk / 2;
        let cases = [
            ("caller chunk", vec![0]),
            ("first remote chunk", vec![middle_of_first_remote]),
            ("last chunk", vec![middle_of_last]),
            (
                "every chunk",
                (0..ITEMS).step_by(chunk).collect::<Vec<usize>>(),
            ),
        ];
        for (case, panics) in &cases {
            let (running, panicked, timed_out) = (
                AtomicUsize::new(0),
                AtomicBool::new(false),
                AtomicBool::new(false),
            );
            // Every chunk without an injected panic is held at its first
            // item until one has panicked: the panic then lands while
            // those chunks still run, and the dispatcher must wait.
            let held = |x: usize| {
                x.is_multiple_of(chunk) && panics.iter().all(|&p| p / chunk != x / chunk)
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map_with(
                    &items,
                    HEAVY,
                    || (),
                    |_, &x| {
                        let _running = Running::enter(&running);
                        if panics.contains(&x) {
                            panicked.store(true, Ordering::SeqCst);
                            panic!("injected failure at item {x}");
                        }
                        if held(x) {
                            let start = Instant::now();
                            while !panicked.load(Ordering::SeqCst) {
                                if start.elapsed() > Duration::from_secs(10) {
                                    timed_out.store(true, Ordering::SeqCst);
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                        x
                    },
                )
            }));
            let payload = result.expect_err("the panic must propagate");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.starts_with("injected failure"),
                "{case} @ {workers} workers: {message}"
            );
            assert!(
                !timed_out.load(Ordering::SeqCst),
                "{case}: a held chunk never saw the panic @ {workers} workers"
            );
            assert_eq!(
                running.load(Ordering::SeqCst),
                0,
                "{case}: a chunk outlived its batch @ {workers} workers"
            );
            assert_usable(workers, case);
        }
    }
}

#[test]
fn nested_batches_stay_on_the_caller_and_worker_chunks() {
    let _pin = pin();
    let outer: Vec<usize> = (0..8).collect();
    let inner: Vec<usize> = (0..ITEMS).collect();
    let caller = std::thread::current().id();
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        // Every outer item runs a nested batch heavy enough to fork at
        // top level; it must stay on the outer item's thread and keep
        // its own input order.
        let runs = parallel_map_with(
            &outer,
            HEAVY,
            || (),
            |_, &o| {
                let here = std::thread::current().id();
                let nested = parallel_map_with(
                    &inner,
                    HEAVY,
                    || (),
                    |_, &x| (o * 1000 + x, std::thread::current().id()),
                );
                let in_order = nested
                    .iter()
                    .enumerate()
                    .all(|(x, &(v, _))| v == o * 1000 + x);
                let inline = nested.iter().all(|&(_, id)| id == here);
                (here, in_order, inline)
            },
        );
        assert_eq!(runs[0].0, caller, "the caller runs chunk 0");
        for (o, &(thread, in_order, inline)) in runs.iter().enumerate() {
            assert!(
                in_order,
                "nested batch {o} out of order @ {workers} workers"
            );
            assert!(
                inline,
                "nested batch {o} (on {thread:?}) left its thread @ {workers} workers"
            );
        }
        assert_usable(workers, "nested");

        // A nested panic on the caller's chunk and on a worker's chunk
        // propagates through the outer batch, and the caller forks again
        // afterwards (it is no longer inside a chunk).
        for panicking in [0, outer.len() - 1] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map_with(
                    &outer,
                    HEAVY,
                    || (),
                    |_, &o| {
                        parallel_map_with(
                            &inner,
                            HEAVY,
                            || (),
                            |_, &x| {
                                assert!(!(o == panicking && x == ITEMS / 2), "injected failure");
                                x
                            },
                        )
                        .len()
                    },
                )
            }));
            assert!(
                result.is_err(),
                "nested panic in outer item {panicking} must propagate @ {workers} workers"
            );
            assert_usable(workers, "nested panic");
        }
    }
}

/// One budget-capped batch, dispatched in rounds the way the engine
/// books a forked scan: each round hands out at most `round` items and
/// at most what the remaining budget can pay at the least bill (one
/// unit), and is booked in order — item `x` costs `cost(x)` units —
/// before the next round is dispatched. `between` runs before every
/// round (the test resizes the override there). Returns the booked
/// results and the number of items scored.
fn capped_batch(
    items: &[usize],
    budget: usize,
    round: usize,
    mut between: impl FnMut(usize),
) -> (Vec<usize>, usize) {
    let cost = |x: usize| 1 + x % 5;
    let (mut used, mut booked, mut scored) = (0, Vec::new(), 0);
    let mut rest = items;
    let mut r = 0;
    while used < budget && !rest.is_empty() {
        between(r);
        let take = rest.len().min(round).min(budget - used);
        let (now, later) = rest.split_at(take);
        let out = parallel_map_with(
            now,
            take * FORK_WORK,
            || 0usize,
            |buf, &x| {
                // A buffer scratch: overwritten, then read.
                *buf = x.wrapping_mul(0x9E37_79B9).rotate_left(5);
                (x, *buf)
            },
        );
        scored += out.len();
        for (x, value) in out {
            if used >= budget {
                break;
            }
            used += cost(x);
            booked.push(value);
        }
        rest = later;
        r += 1;
    }
    (booked, scored)
}

#[test]
fn resizing_between_the_rounds_of_a_capped_batch_changes_nothing() {
    let _pin = pin();
    let items: Vec<usize> = (0..4 * ITEMS).collect();
    // Budgets that cut the batch in its first round, in a later round,
    // and not at all.
    for budget in [20, 300, usize::MAX] {
        set_worker_override(Some(1));
        let reference = capped_batch(&items, budget, ITEMS, |_| {});
        assert_eq!(
            reference.0.len() < items.len(),
            budget < usize::MAX,
            "budget {budget} cuts the batch"
        );
        for schedule in [[1, 4, 2, 8], [8, 1, 4, 2], [2, 2, 8, 1], [4, 8, 8, 4]] {
            let resized = capped_batch(&items, budget, ITEMS, |r| {
                set_worker_override(Some(schedule[r % schedule.len()]));
            });
            assert_eq!(resized, reference, "budget {budget}, schedule {schedule:?}");
            for workers in WORKER_COUNTS {
                set_worker_override(Some(workers));
                assert_usable(workers, "resized");
            }
        }
    }
}

#[test]
fn many_small_batches_under_changing_overrides_stay_ordered() {
    let _pin = pin();
    // Light and heavy batches of every small size, the override moving
    // between every batch: each result must be the sequential map.
    for (i, n) in (0..200usize).map(|i| (i, i % 13)).collect::<Vec<_>>() {
        let workers = WORKER_COUNTS[i % WORKER_COUNTS.len()];
        set_worker_override(Some(workers));
        let items: Vec<usize> = (0..n).collect();
        let work = if i % 2 == 0 { HEAVY } else { FORK_WORK };
        let out = parallel_map_with(&items, work, || (), |_, &x| x ^ i);
        let expected: Vec<usize> = items.iter().map(|&x| x ^ i).collect();
        assert_eq!(out, expected, "batch {i} of {n} items @ {workers} workers");
    }
    for workers in WORKER_COUNTS {
        set_worker_override(Some(workers));
        assert_usable(workers, "after many batches");
    }
}
