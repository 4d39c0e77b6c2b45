//! How the dataset generators render clients on the workspace's fan-out.

use std::convert::Infallible;

use dagfl_tensor::fan_out;

/// Worker threads the generators render clients on. Every generator is
/// bit-identical for any thread count, so the machine's core count is
/// purely a wall-clock choice (capped: rendering saturates memory
/// bandwidth long before 8 threads).
pub(crate) fn rendering_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Calls `render(i)` for every `i in 0..count` on `threads` workers of
/// [`fan_out`] and returns the results in index order. A render cannot
/// fail; a panic in one is re-raised on the caller.
pub(crate) fn render_each<T: Send>(
    count: usize,
    threads: usize,
    render: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let Ok(items) = fan_out(threads, 0..count, |i, _| Ok::<_, Infallible>(render(i)));
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                render_each(50, threads, |i| i * i),
                (0..50).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn more_threads_than_items_and_no_items_are_fine() {
        assert_eq!(render_each(2, 7, |i| i), vec![0, 1]);
        assert!(render_each(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 refused")]
    fn a_worker_panic_reaches_the_caller() {
        render_each(6, 2, |i| {
            assert!(i != 3, "item {i} refused");
            i
        });
    }
}
