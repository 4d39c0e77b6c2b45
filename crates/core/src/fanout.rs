//! The one place this crate spawns compute threads: a bounded fan-out
//! over indexed jobs, shared by both simulators and the sweep runner.
//!
//! A fanned-out job touches only its own client, its worker's scratch
//! state and shared read-only state, work is handed out by index and
//! results are reassembled by index — so the worker count is a
//! wall-clock choice, never a result.

use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock, PoisonError};

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
/// use dagfl_core::fan_out;
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
/// # Panics
///
/// Panics if `states` is empty and there is a job to run.
pub(crate) fn fan_out_with<S, I, T, E, F>(states: &mut [S], jobs: I, run: F) -> Result<Vec<T>, E>
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

/// The worker count of a `parallel = true` round: the cores this process
/// may run on. Resolved once per process — `available_parallelism()`
/// re-reads the cgroup quota on every call, which is measurable next to
/// a sub-millisecond simulator set-up. Like the dataset renderer's
/// thread count it is purely a wall-clock choice.
pub(crate) fn machine_workers() -> usize {
    #[cfg(test)]
    if let Some(pinned) = tests::PINNED_WORKERS.with(std::cell::Cell::get) {
        return pinned;
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Disjoint `&mut` borrows of `items[index(key)]`, one per key and in
/// key order — what a fan-out over a subset of the clients hands to its
/// jobs. The keys may come in any order.
///
/// # Panics
///
/// Panics if two keys name the same item or an index is out of range.
pub(crate) fn disjoint_mut<'a, T, K>(
    items: &'a mut [T],
    keys: &[K],
    index: impl Fn(&K) -> usize,
) -> Vec<&'a mut T> {
    // Borrows can only be split off in ascending index order; each one
    // is placed back at its key's position.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&pos| index(&keys[pos]));
    let mut slots: Vec<Option<&mut T>> = keys.iter().map(|_| None).collect();
    let mut rest = items;
    let mut taken = 0usize;
    for pos in order {
        let idx = index(&keys[pos]);
        let (item, tail) = std::mem::take(&mut rest)[idx - taken..]
            .split_first_mut()
            .expect("index in range");
        slots[pos] = Some(item);
        rest = tail;
        taken = idx + 1;
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every key position was filled"))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};

    thread_local! {
        /// Test hook: pins [`machine_workers`] on the calling thread, so a
        /// simulator test can run a round at worker counts the machine
        /// does not have.
        pub(crate) static PINNED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with [`machine_workers`] pinned to `workers` on this
    /// thread.
    pub(crate) fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
        PINNED_WORKERS.with(|p| p.set(Some(workers)));
        let out = f();
        PINNED_WORKERS.with(|p| p.set(None));
        out
    }

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
        let started = std::sync::Barrier::new(2);
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
        let started = std::sync::Barrier::new(2);
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
            let started = std::sync::Barrier::new(2);
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

    #[test]
    fn disjoint_mut_hands_out_borrows_in_key_order() {
        let mut items: Vec<usize> = (0..8).collect();
        let keys = [(5usize, 'a'), (0, 'b'), (7, 'c'), (2, 'd')];
        let picked = disjoint_mut(&mut items, &keys, |&(idx, _)| idx);
        assert_eq!(picked.iter().map(|p| **p).collect::<Vec<_>>(), [5, 0, 7, 2]);
        for p in picked {
            *p += 100;
        }
        assert_eq!(items, [100, 1, 102, 3, 4, 105, 6, 107]);
        assert!(disjoint_mut(&mut items, &[] as &[usize], |&i| i).is_empty());
    }

    #[test]
    #[should_panic]
    fn disjoint_mut_rejects_a_repeated_index() {
        let mut items = [0u8; 4];
        disjoint_mut(&mut items, &[1usize, 1], |&i| i);
    }
}
