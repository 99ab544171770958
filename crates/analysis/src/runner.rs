//! Deterministic multi-seed trial running, optionally in parallel.
//!
//! Built on [`run_indexed`], a panic-transparent indexed parallel map over
//! std scoped threads. Simulation ensembles schedule through
//! `congames_dynamics::Ensemble` instead; this runner fans out arbitrary
//! per-seed work.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use congames_sampling::split_seed;

/// Run `trials` independent trials of `f`, where trial `i` receives the
/// derived seed `split_seed(base_seed, i)`. Trials are distributed over up
/// to `threads` `std::thread::scope` threads; results are returned **in trial
/// order**, so the output is independent of scheduling.
///
/// Zero trials return an empty `Vec` — the workspace-wide empty-input
/// contract shared with `Ensemble::run` and `Ensemble::run_reduced` (whose
/// zero-trial result is the identity reduction).
///
/// # Panics
///
/// Panics if `threads == 0`. If a trial panics, the remaining workers stop
/// and the **original panic payload** is re-raised on the calling thread
/// (the lowest-index payload when several trials panic concurrently) — the
/// root cause is never buried under a secondary "scoped thread panicked"
/// shell.
pub fn run_trials<T: Send>(
    trials: usize,
    base_seed: u64,
    threads: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    run_indexed(trials, threads, |i| f(split_seed(base_seed, i as u64)))
}

/// Run `f(0), f(1), …, f(tasks − 1)` across up to `threads` scoped worker
/// threads and return the results **in index order**.
///
/// Work is claimed dynamically (an atomic counter), so the schedule adapts
/// to uneven task durations; results are sorted back into index order, so
/// the output never depends on the schedule.
///
/// # Panics
///
/// Panics if `threads == 0`. If a task panics, the workers stop claiming
/// new tasks and the original panic payload is re-raised on the calling
/// thread. Indices are claimed in order and every claimed task finishes,
/// so the payload re-raised is the lowest-index one.
fn run_indexed<T: Send>(tasks: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || tasks <= 1 {
        // Sequential fast path: panics already propagate untouched.
        return (0..tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return done;
            }
            let out = catch_unwind(AssertUnwindSafe(|| f(i)));
            if out.is_err() {
                next.fetch_max(tasks, Ordering::Relaxed);
            }
            done.push((i, out));
        }
    };
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(tasks)).map(|_| scope.spawn(worker)).collect();
        workers.into_iter().flat_map(|w| w.join().expect("task panics are caught")).collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results
        .into_iter()
        .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_orders_results() {
        let out = run_indexed(16, 4, |i| i * 3);
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(run_indexed(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(run_indexed(0, 2, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "task 7 says hi")]
    fn run_indexed_propagates_original_panic() {
        run_indexed(32, 4, |i| {
            if i == 7 {
                panic!("task 7 says hi");
            }
            i
        });
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq: Vec<u64> = (0..37).map(|i| split_seed(99, i).wrapping_mul(3)).collect();
        let par = run_trials(37, 99, 4, |seed| seed.wrapping_mul(3));
        assert_eq!(seq, par);
    }

    #[test]
    fn seeds_are_distinct_per_trial() {
        let seeds = run_trials(16, 7, 3, |seed| seed);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 16);
    }

    #[test]
    fn single_thread_path() {
        let out = run_trials(5, 1, 1, |s| s % 10);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn results_in_trial_order() {
        // Make later trials finish first by sleeping inversely.
        let out = run_trials(8, 3, 4, |seed| {
            std::thread::sleep(std::time::Duration::from_millis((seed % 7) * 2));
            seed
        });
        let expect: Vec<u64> = (0..8).map(|i| congames_sampling::split_seed(3, i as u64)).collect();
        assert_eq!(out, expect);
    }

    /// The unified empty-input contract: zero trials reduce to the empty
    /// result instead of panicking, matching `Ensemble::run` and the
    /// identity reduction of `Ensemble::run_reduced`.
    #[test]
    fn zero_trials_yield_empty() {
        for threads in [1, 4] {
            let out: Vec<u64> = run_trials(0, 0, threads, |s| s);
            assert!(out.is_empty());
        }
    }

    /// Regression: a panicking trial used to surface as the scope's generic
    /// "a scoped thread panicked", burying the trial's own message. The
    /// runner must re-raise the original payload.
    #[test]
    #[should_panic(expected = "trial exploded: injected failure")]
    fn panicking_trial_propagates_root_cause() {
        let bad = split_seed(11, 3);
        run_trials(8, 11, 4, |seed| {
            if seed == bad {
                panic!("trial exploded: injected failure");
            }
            seed
        });
    }

    /// Sibling trials complete (or stop cleanly) when one panics: the
    /// surviving results are simply discarded, but no sibling dies on a
    /// poisoned lock, so the propagated message stays the injected one.
    #[test]
    fn sibling_trials_do_not_poison() {
        let bad = split_seed(13, 0);
        let result = std::panic::catch_unwind(|| {
            run_trials(6, 13, 2, |seed| {
                if seed == bad {
                    panic!("first trial dies");
                }
                seed
            })
        });
        let payload = result.expect_err("the injected panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("first trial dies"), "unexpected payload: {msg}");
    }
}
