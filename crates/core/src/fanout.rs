//! What this crate adds to the workspace's one fan-out
//! ([`dagfl_tensor::fan_out`]): the worker count of a round and the
//! disjoint client borrows a round's jobs take.

use std::sync::OnceLock;

/// [`dagfl_tensor::fan_out`], re-exported for the crates above this
/// one: the sweep runner fans its cells out through it.
///
/// ```
/// let cells = dagfl_core::fan_out(2, ["a", "b"], |i, cell| Ok::<_, ()>(format!("{i}{cell}")));
/// assert_eq!(cells.unwrap(), ["0a", "1b"]);
/// ```
pub use dagfl_tensor::fan_out;

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
