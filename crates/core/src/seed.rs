//! Deterministic derivation of independent RNG stream seeds.
//!
//! Layered experiment infrastructure keeps stacking parallelism: rounds
//! fan clients out over threads, and the sweep engine fans whole
//! scenarios out over a worker pool. Every layer needs its own RNG
//! stream, and the streams must depend only on *data* (a master seed
//! plus a stable stream index) — never on scheduling — or results stop
//! being reproducible. [`derive_seed`] is the one canonical mixer for
//! that job.

/// Derives an independent stream seed from a master seed and a stream
/// index.
///
/// The mix is a SplitMix64 finalizer over `master + f(stream)`: cheap,
/// stateless, and avalanche-complete, so adjacent stream indices (0, 1,
/// 2, ...) produce statistically unrelated seeds instead of the nearly
/// identical internal states that `master + stream` would give a
/// counter-based generator. The function is pure — callers may evaluate
/// it in any order, on any thread, and always obtain the same seed for
/// the same `(master, stream)` pair.
///
/// # Example
///
/// ```
/// use dagfl_core::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// // Pure: the same coordinates always give the same seed.
/// assert_eq!(a, derive_seed(42, 0));
/// ```
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    // SplitMix64 (Steele, Lea & Flood 2014): the golden-gamma increment
    // separates streams, the finalizer mixes master and stream bits.
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of the §4.3 Louvain partition after `round` completed
/// rounds of a run seeded with `seed`. Asynchronous runs, which have no
/// rounds, pass 0.
pub fn specialization_seed(seed: u64, round: u64) -> u64 {
    seed ^ 0xC0FF_EE00 ^ round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_and_order_independent() {
        let forward: Vec<u64> = (0..8).map(|s| derive_seed(7, s)).collect();
        let mut backward: Vec<u64> = (0..8).rev().map(|s| derive_seed(7, s)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn adjacent_streams_and_masters_differ() {
        for s in 0..16u64 {
            assert_ne!(derive_seed(42, s), derive_seed(42, s + 1), "stream {s}");
            assert_ne!(derive_seed(s, 0), derive_seed(s + 1, 0), "master {s}");
        }
    }

    #[test]
    fn zero_inputs_do_not_collapse() {
        // A naive xor/add mixer maps (0, 0) to 0; the finalizer must not.
        assert_ne!(derive_seed(0, 0), 0);
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
    }

    #[test]
    fn seeds_spread_across_the_low_bits() {
        // Derived seeds feed seed_from_u64; their low bits must vary.
        let distinct: std::collections::BTreeSet<u64> =
            (0..64).map(|s| derive_seed(1, s) & 0xFF).collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct low bytes",
            distinct.len()
        );
    }
}
