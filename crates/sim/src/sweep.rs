//! Deterministic parallel execution of independent simulation runs.
//!
//! Scenario sweeps (Figure-1 design points, Figure-6/7 rate curves) and the
//! bounded exploration of `elastic-verify` are embarrassingly parallel: every
//! run builds its own [`crate::Simulation`] from shared read-only inputs.
//! [`parallel_map`] fans such runs across OS threads with `std::thread::scope`
//! (the container image has no access to crates.io, so `rayon` is not
//! available) and collects the results **in input order**, so a parallel
//! sweep is observationally identical to the sequential loop it replaces:
//! same results, same order, same seeds.
//!
//! Work is handed out via an atomic cursor, so threads steal the next index
//! whenever they finish one — imbalanced run lengths (e.g. exploration
//! patterns that deadlock early) do not serialize the sweep.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads used for a sweep of `items` independent runs:
/// the available hardware parallelism, capped by the item count.
pub fn sweep_threads(items: usize) -> usize {
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    hardware.min(items).max(1)
}

/// A panic captured from one sweep scenario by [`parallel_map_with_catch`]:
/// the input index that panicked plus the panic payload rendered as text.
/// With deterministic, item-derived seeds (the convention of every sweep in
/// this workspace) the index **is** the reproducer.
#[derive(Debug)]
struct ScenarioPanic {
    /// Input index of the scenario that panicked.
    index: usize,
    /// The panic message (`&str`/`String` payloads; otherwise a placeholder).
    message: String,
}

impl fmt::Display for ScenarioPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {} panicked: {}", self.index, self.message)
    }
}

/// Renders a caught panic payload as text: the message of a `&str` or
/// `String` payload (what `panic!` produces), otherwise a placeholder.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(message) => (*message).to_string(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// Applies `run` to every index/item pair of `items` in parallel and returns
/// the results in input order.
///
/// `run` must be deterministic per item for the sweep to be reproducible —
/// all the sweeps in this workspace derive their seeds from the item, never
/// from global state. A panic in `run` still propagates to the caller, but
/// only after the whole sweep has completed (see [`parallel_map_with`]).
pub fn parallel_map<T, R, F>(items: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, || (), |(), index, item| run(index, item))
}

/// [`parallel_map`] with per-worker scratch state: every worker thread builds
/// one `S` via `init` — lazily, on its first item — and hands a mutable
/// reference to every `run` it executes.
///
/// This is the backbone of the zero-rebuild exploration sweeps: the scratch
/// state is a [`crate::Simulation`], built **once per worker thread** and
/// [`crate::Simulation::reset`] per item, instead of `netlist.clone()` +
/// `Simulation::new` per run. For results to stay input-order deterministic,
/// `run` must leave `S` in an item-independent state (a reset simulation
/// qualifies) — the item→worker assignment is scheduling-dependent.
///
/// Workers steal the next index from an atomic cursor whenever they finish
/// one, so imbalanced run lengths do not serialize the sweep; a worker that
/// never receives an item never calls `init`.
///
/// # Panics
///
/// A panic in `run` is re-raised in the caller — but only **after** the
/// whole sweep has completed: the panic is caught per scenario, so it
/// cannot poison the result collection or abort the sibling scenarios
/// mid-flight.
pub fn parallel_map_with<T, S, R, I, F>(items: &[T], init: I, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let results = parallel_map_with_catch(items, init, run);
    let mut collected = Vec::with_capacity(results.len());
    let mut first_panic: Option<ScenarioPanic> = None;
    let mut panics = 0usize;
    for result in results {
        match result {
            Ok(value) => collected.push(value),
            Err(panic) => {
                panics += 1;
                first_panic.get_or_insert(panic);
            }
        }
    }
    if let Some(panic) = first_panic {
        panic!("{panics} sweep scenario(s) panicked; first: {panic}");
    }
    collected
}

/// The work-stealing engine under [`parallel_map_with`], with per-scenario
/// panic isolation.
///
/// Workers take the next index from an atomic cursor, keep one
/// lazily-initialised scratch state each, and results are collected in
/// input order. Every `run` invocation is wrapped in [`catch_unwind`]: a
/// panicking scenario yields `Err(`[`ScenarioPanic`]`)` in its input-order
/// slot — the index identifies the scenario (and, by the item-derived-seed
/// convention, the seed) — and the sweep carries on. The panicking worker's
/// scratch state is **discarded** (the unwind may have left it
/// inconsistent) and lazily re-`init`-ed for its next item, preserving the
/// contract that results never depend on the item→worker assignment.
fn parallel_map_with_catch<T, S, R, I, F>(
    items: &[T],
    init: I,
    run: F,
) -> Vec<Result<R, ScenarioPanic>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let run_one = |state: &mut Option<S>, index: usize, item: &T| {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| run(state.get_or_insert_with(&init), index, item)));
        outcome.map_err(|payload| {
            *state = None;
            ScenarioPanic { index, message: panic_message(payload) }
        })
    };
    let threads = sweep_threads(items.len());
    if threads <= 1 {
        let mut state: Option<S> = None;
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| run_one(&mut state, index, item))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, ScenarioPanic>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state: Option<S> = None;
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= items.len() {
                        break;
                    }
                    let result = run_one(&mut state, index, &items[index]);
                    // `run_one` cannot unwind (the scenario body is caught
                    // above), so nothing can poison the slot mutex.
                    slots.lock().expect("no panics while holding the slot lock")[index] =
                        Some(result);
                }
            });
        }
    });

    slots
        .into_inner()
        .expect("worker threads have exited")
        .iter_mut()
        .map(|slot| slot.take().expect("every index was processed"))
        .collect()
}

/// Fans `items` across the worker pool in blocks of up to
/// [`crate::LANES`] scenarios, for workloads that advance one block per
/// 64-lane simulation instance ([`crate::LaneSimulation`]).
///
/// `items` is chunked in input order; each worker thread keeps one scratch
/// state `S` (by convention a [`crate::LaneSimulation`], built once per
/// worker and reset per block) and `run` maps one whole block — it receives
/// the input index of the block's first item plus the block's items, and
/// must return exactly one result per item. Results come back flattened in
/// input order, so a lane sweep is observationally identical to the
/// per-item sweep it replaces: same results, same order.
///
/// This is the word-parallel counterpart of [`parallel_map_with`]: the
/// thread pool provides the coarse parallelism, the 64 lanes inside each
/// scratch simulation provide the fine-grained scenario parallelism —
/// `threads × 64` concurrent scenarios.
///
/// # Panics
///
/// When `run` returns a block of the wrong length, and (after the sweep
/// completes) when `run` panicked — the same deferred re-raise as
/// [`parallel_map_with`].
pub fn lane_map<T, S, R, I, F>(items: &[T], init: I, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &[T]) -> Vec<R> + Sync,
{
    let blocks: Vec<&[T]> = items.chunks(crate::LANES).collect();
    let nested = parallel_map_with(&blocks, init, |scratch, block_index, block| {
        let results = run(scratch, block_index * crate::LANES, block);
        assert_eq!(
            results.len(),
            block.len(),
            "lane_map block starting at item {} returned {} results for {} items",
            block_index * crate::LANES,
            results.len(),
            block.len()
        );
        results
    });
    nested.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, |_, &item| item * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (0..257).collect();
        let results = parallel_map(&items, |index, &item| {
            counter.fetch_add(1, Ordering::Relaxed);
            (index as u64, item)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert!(results.iter().all(|&(index, item)| index == item));
    }

    #[test]
    fn empty_and_single_item_sweeps_work() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, |_, &item| item).is_empty());
        assert_eq!(parallel_map(&[42u64], |_, &item| item + 1), vec![43]);
    }

    #[test]
    fn per_worker_state_is_initialized_at_most_once_per_thread() {
        let inits = AtomicU64::new(0);
        let items: Vec<u64> = (0..64).collect();
        let results = parallel_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |scratch, _, &item| {
                *scratch += 1;
                (item, *scratch)
            },
        );
        let threads = sweep_threads(items.len()) as u64;
        let init_count = inits.load(Ordering::Relaxed);
        assert!(init_count >= 1 && init_count <= threads, "{init_count} inits, {threads} workers");
        // Every item was processed exactly once, in order, and the per-worker
        // counters account for all of them together.
        assert!(results.iter().enumerate().all(|(index, &(item, _))| index as u64 == item));
        // The scratch counters are per worker, so no counter can exceed the
        // total item count and every run observed a counter of at least 1.
        assert!(results.iter().all(|&(_, seen)| (1..=64).contains(&seen)));
    }

    #[test]
    fn thread_count_is_capped_by_item_count() {
        assert_eq!(sweep_threads(0), 1);
        assert_eq!(sweep_threads(1), 1);
        assert!(sweep_threads(1_000_000) >= 1);
    }

    #[test]
    fn panic_messages_render_str_and_string_payloads() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(format!("formatted {}", 7))), "formatted 7");
        assert_eq!(panic_message(Box::new(7u8)), "non-string panic payload");
    }

    #[test]
    fn a_panicking_scenario_leaves_every_other_result_intact() {
        let items: Vec<u64> = (0..64).collect();
        let results = parallel_map_with_catch(
            &items,
            || (),
            |(), _, &item| {
                assert!(item != 17, "poisoned scenario 17");
                item * 2
            },
        );
        assert_eq!(results.len(), 64);
        for (index, result) in results.iter().enumerate() {
            if index == 17 {
                let panic = result.as_ref().unwrap_err();
                assert_eq!(panic.index, 17);
                assert!(panic.message.contains("poisoned scenario 17"), "{panic}");
                assert!(panic.to_string().contains("scenario 17"));
            } else {
                assert_eq!(*result.as_ref().unwrap(), index as u64 * 2);
            }
        }
    }

    #[test]
    fn parallel_map_with_reports_panics_only_after_the_sweep_completes() {
        let completed = AtomicU64::new(0);
        let items: Vec<u64> = (0..32).collect();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, |_, &item| {
                assert!(item != 5, "scenario 5 exploded");
                completed.fetch_add(1, Ordering::Relaxed);
                item
            })
        }));
        let message = *outcome.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("1 sweep scenario(s) panicked"), "{message}");
        assert!(message.contains("scenario 5"), "{message}");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            31,
            "every other scenario ran to completion despite the panic"
        );
    }

    #[test]
    fn lane_map_flattens_blocks_in_input_order() {
        // 150 items → blocks of 64 / 64 / 22; every result must land in its
        // item's input-order slot, and each block must see its own start
        // index and contiguous items.
        let items: Vec<u64> = (0..150).collect();
        let results = lane_map(
            &items,
            || 0u64,
            |calls, start, block| {
                *calls += 1;
                assert!(block.len() <= crate::LANES);
                assert_eq!(block[0], start as u64, "block items start at the block index");
                block.iter().map(|&item| item * 3).collect()
            },
        );
        assert_eq!(results, (0..150).map(|i| i * 3).collect::<Vec<_>>());
        assert!(lane_map(&Vec::<u64>::new(), || (), |(), _, b| vec![0u64; b.len()]).is_empty());
    }

    #[test]
    fn lane_map_rejects_blocks_of_the_wrong_length() {
        let items: Vec<u64> = (0..10).collect();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lane_map(&items, || (), |(), _, _| vec![0u64; 3])
        }));
        let message = *outcome.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("lane_map block"), "{message}");
    }

    #[test]
    fn a_panicking_worker_discards_its_scratch_state() {
        // Every run marks the scratch state poisoned on entry and clears it
        // on a successful exit; the scenario that panics leaves the mark
        // set. If a worker reused that state for a later item, the entry
        // check would trip with a *different* message — so "exactly one
        // failure, with the original message" proves the state was
        // discarded, independent of the item→worker assignment.
        let items: Vec<u64> = (0..16).collect();
        let results = parallel_map_with_catch(
            &items,
            || false,
            |poisoned: &mut bool, _, &item| {
                assert!(!*poisoned, "poisoned scratch state reused");
                *poisoned = true;
                assert!(item != 3, "die at 3");
                *poisoned = false;
                item
            },
        );
        let failures: Vec<&ScenarioPanic> =
            results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 3);
        assert!(failures[0].message.contains("die at 3"), "{}", failures[0]);
    }
}
