//! The one place the workspace spawns compute threads: a bounded fan-out
//! over indexed jobs, shared by the dataset renderer, both simulators,
//! the digest kernel and the sweep runner. It lives in this crate
//! because this is the lowest crate all of them depend on.
//!
//! A fanned-out job touches only its own item, its worker's scratch
//! state and shared read-only state, work is handed out by index and
//! results are reassembled by index — so the worker count is a
//! wall-clock choice, never a result.

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// Runs `run(index, job)` for every job and returns the results in job
/// order, or the error of the lowest failing index.
///
/// The jobs are drained from one shared cursor by `min(workers, jobs)`
/// threads *of which the caller is one*: it would otherwise sleep in the
/// join while a spawned thread did its share, so a fan-out over `w`
/// workers costs `w - 1` spawns. With at most one worker or one job
/// everything runs inline on the caller's thread — no thread, no lock,
/// and no allocation beyond the exactly-sized result vector.
///
/// A panicking job does not hang the fan-out: the remaining workers
/// drain the cursor, then the panic is re-raised on the caller with the
/// job's own payload.
///
/// # Errors
///
/// Returns the `Err` of the lowest-indexed failing job. The inline path
/// stops at that job; the threaded path still runs the others.
///
/// # Example
///
/// ```
/// use dagfl_tensor::fan_out;
///
/// let squares = fan_out(3, 0..10u32, |_, x| Ok::<_, ()>(x * x)).unwrap();
/// assert_eq!(squares[9], 81);
/// ```
pub fn fan_out<I, T, E, F>(workers: usize, jobs: I, run: F) -> Result<Vec<T>, E>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    T: Send,
    E: Send,
    F: Fn(usize, I::Item) -> Result<T, E> + Sync,
{
    fan_out_with(&mut vec![(); workers.max(1)], jobs, |_, i, job| run(i, job))
}

/// [`fan_out`] with one state per worker: `states.len()` is the worker
/// count, and `run(state, index, job)` gets the state of the worker
/// that took the job — the caller's thread the first, each spawned
/// thread one of the others. Which worker takes which job is thread
/// timing, so a job must leave nothing in its state that a later job
/// reads: the simulators keep their scratch models here.
///
/// # Errors
///
/// As [`fan_out`].
///
/// # Panics
///
/// Panics if `states` is empty and there is a job to run.
pub fn fan_out_with<S, I, T, E, F>(states: &mut [S], jobs: I, run: F) -> Result<Vec<T>, E>
where
    S: Send,
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    T: Send,
    E: Send,
    F: Fn(&mut S, usize, I::Item) -> Result<T, E> + Sync,
{
    let jobs = jobs.into_iter();
    let threads = states.len().min(jobs.len());
    // Sized once: collecting `Result`s would grow the vector by doubling.
    let mut out = Vec::with_capacity(jobs.len());
    if threads <= 1 {
        for (i, job) in jobs.enumerate() {
            let state = states.first_mut().expect("a fan-out needs a worker state");
            out.push(run(state, i, job)?);
        }
        return Ok(out);
    }
    let cursor = Mutex::new(jobs.enumerate());
    // `next` holds the cursor's lock for that call only: jobs run unlocked.
    let drain = |state: &mut S| {
        std::iter::from_fn(|| cursor.lock().unwrap_or_else(PoisonError::into_inner).next())
            .map(|(i, job)| (i, run(state, i, job)))
            .collect::<Vec<_>>()
    };
    let drain = &drain;
    let (own, others) = states[..threads].split_first_mut().expect("two or more");
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = others
            .iter_mut()
            .map(|state| scope.spawn(move || drain(state)))
            .collect();
        let mut done = drain(own);
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    for (_, result) in done {
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_come_back_in_index_order_and_every_job_runs_once() {
        for n in [0usize, 1, 2, 10] {
            for workers in [0, 1, 2, 3, n, n + 5] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = fan_out(workers, 0..n, |i, job| {
                    assert_eq!(i, job);
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    Ok::<_, ()>(job * 10)
                })
                .unwrap();
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "n = {n}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn one_worker_or_one_job_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let ids = |workers: usize, n: usize| -> Vec<ThreadId> {
            fan_out(workers, 0..n, |_, _| Ok::<_, ()>(thread::current().id())).unwrap()
        };
        for (workers, n) in [(0, 4), (1, 4), (8, 1), (8, 0)] {
            assert!(
                ids(workers, n).iter().all(|&id| id == caller),
                "workers = {workers}, n = {n} left the caller's thread"
            );
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two jobs that each wait for the other to have started can only
        // finish if both run at once: one on a helper, one on the caller.
        let caller = thread::current().id();
        let started = Barrier::new(2);
        let ids = fan_out(2, 0..2, |_, _| {
            started.wait();
            Ok::<_, ()>(thread::current().id())
        })
        .unwrap();
        assert_eq!(ids.iter().filter(|&&id| id == caller).count(), 1);
    }

    #[test]
    fn each_worker_owns_one_state() {
        // Two jobs that each wait for the other run on two workers at
        // once, so each worker's state sees exactly one job.
        let started = Barrier::new(2);
        let mut states = [0usize; 2];
        fan_out_with(&mut states, 0..2, |count, _, _| {
            started.wait();
            *count += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(states, [1, 1]);
        // Inline, the one state takes every job; unused states stay idle.
        let mut states = [0usize; 3];
        fan_out_with(&mut states[..1], 0..5, |count, _, _| {
            *count += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(states, [5, 0, 0]);
        assert!(
            fan_out_with(&mut [] as &mut [()], 0..0, |_, i, _| Ok::<_, ()>(i))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn the_error_of_the_lowest_index_wins() {
        for workers in [1, 2, 4, 10] {
            let err = fan_out(workers, 0..10usize, |i, _| {
                if i % 3 == 2 {
                    Err(format!("job {i} failed"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "job 2 failed", "workers = {workers}");
        }
    }

    #[test]
    fn a_panicking_job_is_re_raised_with_its_own_payload() {
        // With two workers and a barrier the panic is forced onto each
        // side in turn: once on the helper thread, once on the caller.
        let caller = thread::current().id();
        for panic_on_caller in [false, true] {
            let started = Barrier::new(2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fan_out(2, 0..6usize, |i, _| {
                    if i < 2 {
                        started.wait();
                        if (thread::current().id() == caller) == panic_on_caller {
                            panic!("job payload {panic_on_caller}");
                        }
                    }
                    Ok::<_, ()>(i)
                })
            }));
            let payload = outcome.expect_err("the job's panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the job's own payload, not the scope's");
            assert_eq!(message, &format!("job payload {panic_on_caller}"));
        }
    }

    proptest::proptest! {
        /// For 0 to 64 jobs at 1, 2, 3 and 7 workers: the results come
        /// back in job order, the error is the one of the lowest failing
        /// index whatever later jobs fail too, and a panicking job is
        /// re-raised on the caller with its own payload.
        #[test]
        fn fan_out_keeps_job_order_the_lowest_error_and_the_panic(
            (jobs, first_failure, later_failures, panicking) in (
                proptest::collection::vec(proptest::prelude::any::<u32>(), 0..=64),
                0..=64usize,
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<usize>(),
            ),
        ) {
            let n = jobs.len();
            // Jobs past the first failure fail on the set bits of
            // `later_failures`; with `first_failure >= n` none fails.
            let fails = |i: usize| {
                i == first_failure
                    || (i > first_failure && (later_failures >> (i % 64)) & 1 == 1)
            };
            for workers in [1, 2, 3, 7] {
                // The first `min(workers, n)` jobs wait for each other, so
                // each worker takes one of them and the results really
                // come back from every thread.
                let spread = || {
                    let first = workers.min(n);
                    let barrier = Barrier::new(first.max(1));
                    move |i: usize| {
                        if i < first {
                            barrier.wait();
                        }
                    }
                };

                let wait = spread();
                let out = fan_out(workers, jobs.iter(), |i, &job| {
                    wait(i);
                    Ok::<_, ()>((i, job))
                });
                proptest::prop_assert_eq!(
                    out.unwrap(),
                    jobs.iter().copied().enumerate().collect::<Vec<_>>(),
                    "workers = {}",
                    workers
                );

                let wait = spread();
                let out = fan_out(workers, jobs.iter(), |i, &job| {
                    wait(i);
                    if fails(i) {
                        Err(i)
                    } else {
                        Ok(job)
                    }
                });
                let expected = if first_failure < n {
                    Err(first_failure)
                } else {
                    Ok(jobs.clone())
                };
                proptest::prop_assert_eq!(out, expected, "workers = {}", workers);

                if n > 0 {
                    // `resume_unwind` unwinds without the panic hook, so
                    // the cases print nothing.
                    let panicking = panicking % n;
                    let wait = spread();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        fan_out(workers, 0..n, |i, _| {
                            wait(i);
                            if i == panicking {
                                resume_unwind(Box::new(i));
                            }
                            Ok::<_, ()>(i)
                        })
                    }));
                    let payload = outcome.expect_err("the job's panic must reach the caller");
                    proptest::prop_assert_eq!(
                        payload.downcast_ref::<usize>(),
                        Some(&panicking),
                        "workers = {}",
                        workers
                    );
                }
            }
        }
    }
}
