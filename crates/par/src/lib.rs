//! # sjava-par
//!
//! Deterministic fan-out primitives for the parallel whole-program
//! checking pipeline and the fault-injection campaigns. All parallelism
//! in the workspace funnels through [`run_indexed_init`] (usually via
//! [`run_indexed`]): tasks are identified by a dense index, scoped
//! workers pull indices from one shared atomic cursor, each worker may
//! own one piece of state it reuses across its tasks, and results are
//! returned **in index order** regardless of completion order — so
//! callers that merge per-task outputs (diagnostics buffers, method
//! summaries, injection trials) stay byte-for-byte deterministic at any
//! thread count.
//!
//! The worker pool is plain `std::thread::scope` — no runtime dependency.
//! The pool size comes from the `SJAVA_THREADS` environment variable when
//! set (clamped to ≥1), otherwise from `std::thread::available_parallelism`.
//! A malformed `SJAVA_THREADS` pins the pool to one worker with a one-time
//! stderr warning rather than being silently swallowed.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Environment variable overriding the worker count (`SJAVA_THREADS=1`
/// forces the sequential path at runtime).
pub const THREADS_ENV: &str = "SJAVA_THREADS";

/// Fan-outs with fewer tasks than this run sequentially on the calling
/// thread: a paper-sized app checks in well under a millisecond per
/// method, so spawning scoped workers (tens of microseconds each) only
/// pays for itself once a few dozen tasks exist. Public so the parallel
/// front-end applies the same cutover to its unit count.
pub const SEQUENTIAL_BELOW: usize = 24;

/// One-time warning latch for a malformed `SJAVA_THREADS`.
static WARNED_THREADS: AtomicBool = AtomicBool::new(false);

/// Count of fan-outs that spawned workers; see [`pooled_fan_outs`].
static POOLED: AtomicUsize = AtomicUsize::new(0);

/// How many fan-outs since the process started ran on spawned workers
/// (more than one worker and more than one task) rather than on the
/// calling thread. Lets a thread-count sweep check that it really left
/// the sequential path.
pub fn pooled_fan_outs() -> usize {
    POOLED.load(Ordering::Relaxed)
}

/// The number of worker threads fan-outs will use: `SJAVA_THREADS` when
/// set, otherwise the machine's available parallelism. Always ≥1. A
/// malformed `SJAVA_THREADS` warns once on stderr and pins the pool to 1
/// worker (the conservative reading of "the user asked for explicit
/// control but we could not parse the request").
pub fn num_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                if !WARNED_THREADS.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-par: warning: ignoring malformed {THREADS_ENV}={raw:?} \
                         (expected a positive integer); running with 1 worker"
                    );
                }
                1
            }
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs `f(0) .. f(n-1)` across [`num_threads`] scoped workers and
/// returns the results **in index order**.
///
/// Fan-outs of fewer than [`SEQUENTIAL_BELOW`] tasks run sequentially on
/// the calling thread — paper-sized apps never pay thread-spawn
/// overhead, while stress-sized corpora split across the full pool.
/// Results are identical either way.
///
/// Panics in a task propagate to the caller once all workers have
/// stopped pulling new indices.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_init(n, None, || (), |_, i| f(i))
}

/// [`run_indexed`] with an explicit worker count and no sequential
/// cutover (used by tests, benchmarks and the forced parallel parse;
/// `threads ≤ 1` is the sequential path).
pub fn run_indexed_with<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_init(n, Some(threads), || (), |_, i| f(i))
}

/// The one scheduler behind every fan-out: runs `f(state, 0) ..
/// f(state, n-1)` and returns the results **in index order**, where each
/// worker owns one `state` built by `init` when it claims its first
/// index. Tasks that need an expensive per-worker resource (a VM, a
/// scratch buffer) build it once per worker instead of once per task.
///
/// `threads: None` uses [`num_threads`] workers and runs fan-outs of
/// fewer than [`SEQUENTIAL_BELOW`] tasks on the calling thread;
/// `Some(t)` uses `t` workers with no cutover (`t ≤ 1` is the
/// sequential path). The calling thread counts as one worker there, so
/// `init` runs at most once per worker and exactly once on the
/// sequential path (never for `n = 0`).
///
/// Workers claim indices one at a time from a shared atomic cursor, so
/// a slow task holds up only the worker running it. Tasks never spawn
/// tasks: a worker that finds the cursor past `n` is done. A task's
/// panic reaches the caller with its own payload once every worker has
/// stopped.
pub fn run_indexed_init<S, T, I, F>(n: usize, threads: Option<usize>, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = match threads {
        Some(t) => t,
        None if n < SEQUENTIAL_BELOW => 1,
        None => num_threads(),
    };
    if threads <= 1 || n <= 1 {
        let mut state = None;
        return (0..n)
            .map(|i| f(state.get_or_insert_with(&init), i))
            .collect();
    }
    POOLED.fetch_add(1, Ordering::Relaxed);
    let next = AtomicUsize::new(0);
    let (next, init, f) = (&next, &init, &f);
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                s.spawn(move || {
                    let mut state = None;
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(state.get_or_insert_with(init), i)));
                    }
                })
            })
            .collect();
        // Re-raise a task's own panic payload, not the scope's generic
        // one; the scope still joins every other worker first.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    assert_eq!(pairs.len(), n, "every index must produce a result");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Cache-aware fan-out: runs `f` over a **sparse** set of indices (the
/// dirty cone of an incremental re-check) and returns `(index, result)`
/// pairs sorted by index. The caller typically interleaves these with
/// cached results for the untouched indices, preserving the same merge
/// order as a full [`run_indexed`] pass.
pub fn run_sparse<T, F>(indices: &[usize], f: F) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let results = run_indexed(indices.len(), |slot| f(indices[slot]));
    let mut pairs: Vec<(usize, T)> = indices.iter().copied().zip(results).collect();
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let out = run_indexed_with(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        // n not divisible by the worker count.
        let calls = AtomicUsize::new(0);
        let out = run_indexed_with(1003, 3, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1003);
        assert_eq!(out, (0..1003).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(run_indexed_with(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed_with(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn sparse_returns_sorted_pairs() {
        let indices = [9usize, 2, 5, 0];
        let out = run_sparse(&indices, |i| i * 10);
        assert_eq!(out, vec![(0, 0), (2, 20), (5, 50), (9, 90)]);
        assert_eq!(run_sparse(&[], |i: usize| i), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn small_fan_outs_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_indexed(SEQUENTIAL_BELOW - 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn pooled_fan_outs_counts_spawning_runs() {
        // Other tests in this binary may spawn concurrently, so only the
        // lower bound is exact.
        let before = pooled_fan_outs();
        run_indexed_with(8, 2, |i| i);
        assert!(pooled_fan_outs() > before);
    }

    #[test]
    #[should_panic(expected = "task 17 failed")]
    fn task_panics_reach_the_caller() {
        run_indexed_with(64, 4, |i| {
            if i == 17 {
                panic!("task {i} failed");
            }
            i
        });
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        for threads in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let out = run_indexed_init(
                100,
                Some(threads),
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i,
            );
            assert_eq!(out, (0..100).collect::<Vec<_>>());
            let inits = inits.load(Ordering::Relaxed);
            assert!((1..=threads).contains(&inits), "{inits} inits at {threads}");
        }
        // Sequential paths: the calling thread is the one worker.
        for threads in [None, Some(0), Some(1)] {
            let inits = AtomicUsize::new(0);
            run_indexed_init(
                SEQUENTIAL_BELOW - 1,
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i,
            );
            assert_eq!(inits.load(Ordering::Relaxed), 1, "{threads:?}");
        }
        let inits = AtomicUsize::new(0);
        let none = run_indexed_init(
            0,
            Some(4),
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert!(none.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0, "no task, no state");
    }

    #[test]
    fn per_worker_state_results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            // Each worker reuses one scratch buffer across the tasks it
            // claims; claim order must not leak into the output.
            let out = run_indexed_init(300, Some(threads), Vec::new, |buf, i| {
                buf.clear();
                buf.extend(0..i % 7);
                i * 3 + buf.len()
            });
            let want: Vec<usize> = (0..300).map(|i| i * 3 + i % 7).collect();
            assert_eq!(out, want, "{threads} workers");
        }
    }

    #[test]
    #[should_panic(expected = "task 23 failed with state 7")]
    fn task_panics_with_state_reach_the_caller() {
        run_indexed_init(
            64,
            Some(4),
            || vec![7u8],
            |state, i| {
                if i == 23 {
                    panic!("task {i} failed with state {}", state[0]);
                }
                state.len()
            },
        );
    }

    #[test]
    fn parallel_matches_sequential_with_side_work() {
        // Unequal task costs: a slow task must not strand the others.
        let work = |i: usize| -> u64 {
            let mut acc = i as u64;
            for _ in 0..(i % 17) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let seq = run_indexed_with(200, 1, work);
        let par = run_indexed_with(200, 7, work);
        assert_eq!(seq, par);
    }
}
