//! The one worker pool the dataset generators render clients on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads used to render datasets. Every generator that renders
/// on this pool is bit-identical for any thread count, so the machine's
/// core count is purely a wall-clock choice (capped: rendering saturates
/// memory bandwidth long before 8 threads).
pub(crate) fn rendering_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Calls `render(i)` for every `i in 0..count` on `threads` workers and
/// returns the results in index order.
///
/// Work-stealing over an atomic index: each worker renders whichever
/// items it claims into its own bucket, and the buckets are merged back
/// into index order afterwards. Scheduling only decides *who* renders an
/// item, never what it holds. One thread renders inline, in order.
///
/// # Panics
///
/// Panics if `threads == 0`, and re-raises a panic of `render`.
pub(crate) fn render_indexed<T: Send>(
    count: usize,
    threads: usize,
    render: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    assert!(threads > 0, "need at least one rendering thread");
    if threads == 1 {
        return (0..count).map(render).collect();
    }
    let next = AtomicUsize::new(0);
    let mut rendered: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(count))
            .map(|_| {
                let (next, render) = (&next, &render);
                scope.spawn(move || {
                    let mut bucket = Vec::new();
                    loop {
                        // Relaxed: the index publishes no data; results
                        // come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return bucket;
                        }
                        bucket.push((i, render(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    rendered.sort_unstable_by_key(|(i, _)| *i);
    rendered.into_iter().map(|(_, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                render_indexed(50, threads, |i| i * i),
                (0..50).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn more_threads_than_items_and_no_items_are_fine() {
        assert_eq!(render_indexed(2, 7, |i| i), vec![0, 1]);
        assert!(render_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 refused")]
    fn a_worker_panic_reaches_the_caller() {
        render_indexed(6, 2, |i| {
            assert!(i != 3, "item {i} refused");
            i
        });
    }
}
