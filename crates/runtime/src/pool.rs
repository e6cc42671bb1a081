//! A hand-rolled scoped worker pool on `std::thread`.
//!
//! The build environment is offline, so instead of `rayon` this module
//! vendors the one primitive the batch runtime needs: [`parallel_map`], a
//! deterministic fork-join map over a slice. Workers claim items through an
//! atomic cursor (cheap dynamic load balancing — clips vary widely in
//! cost), and results are always returned **in input order**, so callers
//! observe the same output for any thread count.
//!
//! [`scope`] is re-exported from `std::thread` for callers that want raw
//! scoped spawning alongside the map.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use std::thread::{scope, Scope};

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads and
/// returns the results in input order.
///
/// `f` receives `(index, &item)`. A `threads` of 0 uses
/// [`available_threads`]; a `threads` of 1 (or a slice of at most one item)
/// runs inline on the caller's thread. Work is claimed dynamically through
/// an atomic cursor, so thread count affects only wall-clock time, never
/// the result: `f` is called exactly once per item and the output vector is
/// ordered by item index.
///
/// # Panics
///
/// If `f` panics on any item the panic is resurfaced on the caller's thread
/// after every worker has drained — one poisoned task never deadlocks the
/// scope or strands other workers.
pub fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = if threads == 0 {
        available_threads()
    } else {
        threads
    };
    let threads = threads.min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let n = items.len();
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        // relaxed-ok: the cursor only hands out distinct
                        // indices; item data is published by the join.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, f(i, &items[i])));
                    }
                    produced
                })
            })
            .collect();
        let mut poisoned = None;
        for handle in handles {
            match handle.join() {
                Ok(produced) => {
                    for (i, value) in produced {
                        slots[i] = Some(value);
                    }
                }
                // Defer the resurfacing until every worker has been joined,
                // so a panicking task cannot strand its siblings.
                Err(payload) => poisoned = Some(payload),
            }
        }
        if let Some(payload) = poisoned {
            panic::resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        // A None slot is impossible by construction: the scope above joins
        // every worker, each index is claimed exactly once by the atomic
        // cursor, and a worker panic already resumed unwinding.
        // panic-ok: unreachable by the join/claim invariant above.
        .map(|slot| slot.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 2, 3, 8] {
            let got = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let none: Vec<u8> = Vec::new();
        assert!(parallel_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[7], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn task_panic_propagates_without_deadlocking() {
        let items: Vec<usize> = (0..16).collect();
        // Silence the worker's default panic report; the panic still
        // propagates through the scope join below.
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let result = panic::catch_unwind(|| {
            parallel_map(4, &items, |i, &x| {
                if i == 5 {
                    panic!("poisoned task");
                }
                x
            })
        });
        panic::set_hook(prev);
        let payload = result.expect_err("the task panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(message, "poisoned task");
    }
}
