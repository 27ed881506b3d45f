//! Deterministic host-parallel execution: a zero-dependency scoped
//! thread pool with order-preserving reduction.
//!
//! The simulator's hot fan-outs — batched matvecs, multi-point bench
//! sweeps, chaos campaign seeds — are embarrassingly parallel *in the
//! model* but were executed serially on the host. This module
//! parallelizes them without giving up the repo's determinism contract:
//!
//! 1. **Seed-split partitioning.** Work items never share an RNG stream;
//!    each item derives its own stream from a [`crate::SeedTree`]
//!    (`base.child_idx(i)`), so results are a function of the item index
//!    alone, not of which thread or shard executed it.
//! 2. **Order-preserving reduction.** Items are partitioned into
//!    contiguous shards; each shard returns its results through a
//!    channel tagged with its shard index, and the caller reassembles
//!    them in item order. Shard *state* (e.g. a shard-local
//!    [`crate::telemetry::MetricsRegistry`]) is likewise returned in
//!    shard order for deterministic merging.
//!
//! Under this contract a run at `CIM_THREADS=8` is bit-identical to
//! `CIM_THREADS=1`, which is in turn identical to the plain serial loop —
//! parallelism is purely a wall-clock optimization.
//!
//! Per the hermetic zero-dependency policy, everything here is
//! `std::thread::scope` plus `std::sync::mpsc` — no rayon, no crossbeam.
//!
//! ```
//! use cim_sim::pool;
//!
//! let squares = pool::parallel_map_threads(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::mpsc;

/// Environment variable selecting the host thread count. `1` forces the
/// serial in-line path; unset, empty, `0` or unparsable values fall back
/// to the machine's available parallelism.
pub const THREADS_ENV: &str = "CIM_THREADS";

/// The configured host thread count: `CIM_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism
/// (at least 1).
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The contiguous index range shard `shard` covers when `len` items are
/// split across `shards` shards: balanced to within one item, in item
/// order, independent of how many OS threads actually run.
fn shard_range(len: usize, shards: usize, shard: usize) -> std::ops::Range<usize> {
    let lo = len * shard / shards;
    let hi = len * (shard + 1) / shards;
    lo..hi
}

/// Maps `f` over `items` on up to [`thread_count`] host threads,
/// preserving item order. See [`parallel_map_threads`].
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_threads(thread_count(), items, f)
}

/// Maps `f(index, item)` over `items` on up to `threads` host threads and
/// returns the results **in item order**.
///
/// Items are split into contiguous shards (one per thread); `threads <= 1`
/// or a single item degenerates to the plain serial loop on the calling
/// thread, with no channel or spawn overhead. `f` must be deterministic
/// in `(index, item)` for the thread-count invariance contract to hold —
/// derive any randomness from the item index, never from shared state.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller (the scope unwinds after
/// all workers stop).
pub fn parallel_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let (results, _) = parallel_map_reduce(threads, items, |_| (), |(), i, item| f(i, item));
    results
}

/// The general form behind every parallel entry point: maps `f` over
/// `items` with **per-shard state**, returning `(results in item order,
/// shard states in shard order)`.
///
/// `init(shard)` builds each shard's private state before that shard
/// processes its contiguous chunk — an engine clone, a shard-local
/// telemetry registry, a scratch buffer. `f(&mut state, index, item)`
/// runs once per item. After the map, the caller receives every shard
/// state back in shard order, so stateful side products (metrics,
/// accumulated energy) can be reduced deterministically.
///
/// The shard count is `min(threads, items.len())`, never less than 1; at
/// one shard everything runs in-line on the calling thread. Because the
/// partition depends only on the *item count and shard count* — and the
/// determinism contract requires `f` to depend only on `(index, item)` —
/// callers that fix their shard semantics (e.g. per-item reseeding)
/// observe identical results at every thread count.
///
/// # Panics
///
/// Propagates worker panics after the scope unwinds.
pub fn parallel_map_reduce<T, R, S, I, F>(
    threads: usize,
    items: &[T],
    init: I,
    f: F,
) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let shards = threads.max(1).min(items.len()).max(1);
    if shards <= 1 {
        let mut state = init(0);
        let results = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
        return (results, vec![state]);
    }

    let (tx, rx) = mpsc::channel::<(usize, Vec<R>, S)>();
    std::thread::scope(|scope| {
        for shard in 0..shards {
            let tx = tx.clone();
            let range = shard_range(items.len(), shards, shard);
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init(shard);
                let out: Vec<R> = range.map(|i| f(&mut state, i, &items[i])).collect();
                // The receiver only disappears if the scope is already
                // unwinding from another worker's panic.
                let _ = tx.send((shard, out, state));
            });
        }
        drop(tx);

        let mut parts: Vec<Option<(Vec<R>, S)>> = (0..shards).map(|_| None).collect();
        for (shard, out, state) in rx {
            parts[shard] = Some((out, state));
        }
        let mut results = Vec::with_capacity(items.len());
        let mut states = Vec::with_capacity(shards);
        for part in parts {
            // A missing part means that worker panicked; returning from
            // the scope joins it and re-raises the panic, so this
            // placeholder value never escapes.
            let Some((out, state)) = part else {
                results.clear();
                states.clear();
                break;
            };
            results.extend(out);
            states.push(state);
        }
        (results, states)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedTree;

    #[test]
    fn preserves_item_order_at_every_thread_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let got = parallel_map_threads(threads, &items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = parallel_map_threads(8, &[], |_, &x: &u32| x);
        assert!(none.is_empty());
        assert_eq!(
            parallel_map_threads(8, &[7u32], |i, &x| (i, x)),
            vec![(0, 7)]
        );
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for len in [0usize, 1, 5, 64, 101] {
            for shards in [1usize, 2, 3, 7, 16] {
                let mut seen = vec![0u8; len];
                for s in 0..shards {
                    for i in shard_range(len, shards, s) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "len={len} shards={shards}");
            }
        }
    }

    #[test]
    fn seed_split_work_is_thread_count_invariant() {
        // The canonical usage pattern: each item derives its own RNG
        // stream from the base seed, so outputs depend only on the index.
        let base = SeedTree::new(99);
        let items: Vec<usize> = (0..37).collect();
        let run = |threads: usize| {
            parallel_map_threads(threads, &items, |i, _| {
                let mut rng = base.child_idx(i as u64).rng("work");
                rng.next_u64()
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn shard_states_come_back_in_shard_order() {
        let items: Vec<u64> = (0..40).collect();
        let (results, states) = parallel_map_reduce(
            4,
            &items,
            |shard| (shard, 0u64),
            |state, _, &x| {
                state.1 += x;
                x
            },
        );
        assert_eq!(results, items);
        assert_eq!(states.len(), 4);
        for (i, &(shard, _)) in states.iter().enumerate() {
            assert_eq!(shard, i, "states must arrive in shard order");
        }
        let total: u64 = states.iter().map(|&(_, sum)| sum).sum();
        assert_eq!(total, items.iter().sum::<u64>());
    }

    #[test]
    fn shard_local_registries_merge_identically_across_thread_counts() {
        use crate::telemetry::{MetricsRegistry, Telemetry, TelemetryLevel};
        let items: Vec<u64> = (0..23).collect();
        let run = |threads: usize| {
            let sink = Telemetry::new(TelemetryLevel::Metrics);
            let (_, shards) = parallel_map_reduce(
                threads,
                &items,
                |_| MetricsRegistry::new(),
                |reg, i, &x| {
                    let c = reg.component("worker");
                    reg.counter_add(c, "items", 1);
                    reg.record(c, "value", x);
                    i
                },
            );
            for reg in &shards {
                sink.merge_registry(reg);
            }
            sink.export_jsonl()
        };
        let serial = run(1);
        assert!(!serial.is_empty());
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        parallel_map_threads(4, &items, |i, &x| {
            assert!(i < 8, "worker boom");
            x
        });
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
