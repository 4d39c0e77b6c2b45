//! Flat parameter-vector helpers: averaging, the heart of federated
//! learning.

/// The wide and narrow element-tile widths of the chunked accumulator.
/// 32 `f32` lanes fill four AVX2 registers, matching the matmul kernels'
/// register-tiling; the 8-wide tile shortens the tail.
const AVG_TILE_WIDE: usize = 32;
const AVG_TILE_NARROW: usize = 8;

/// Element-wise mean of several parameter vectors.
///
/// This is the aggregation primitive of both FedAvg (over all client
/// updates) and the Specializing DAG (over the two approved tip models).
///
/// # Panics
///
/// Panics if `vectors` is empty or the vectors have different lengths.
///
/// # Example
///
/// ```
/// let a = vec![0.0, 2.0];
/// let b = vec![2.0, 4.0];
/// assert_eq!(dagfl_nn::average_parameters(&[&a, &b]), vec![1.0, 3.0]);
/// ```
pub fn average_parameters(vectors: &[&[f32]]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "cannot average zero parameter vectors");
    let len = vectors[0].len();
    for v in vectors {
        assert_eq!(v.len(), len, "parameter vectors differ in length");
    }
    let scale = 1.0 / vectors.len() as f32;
    let mut out = vec![0.0f32; len];
    // Chunked accumulation on the tensor kernels' tile pattern: a
    // fixed-width accumulator array stays in vector registers across the
    // whole `vectors` loop, so the compiler emits one fused
    // multiply-accumulate per lane instead of a scalar read-modify-write
    // of `out` per element. Bit-identical to the scalar loop: each
    // output element still accumulates `v[e] * scale` over the vectors
    // in exactly the same order, only across-element grouping changes —
    // and f32 addition order *per element* is what determines the bits.
    let mut j0 = 0;
    while j0 + AVG_TILE_WIDE <= len {
        average_tile::<AVG_TILE_WIDE>(vectors, scale, j0, &mut out);
        j0 += AVG_TILE_WIDE;
    }
    while j0 + AVG_TILE_NARROW <= len {
        average_tile::<AVG_TILE_NARROW>(vectors, scale, j0, &mut out);
        j0 += AVG_TILE_NARROW;
    }
    for j in j0..len {
        let mut acc = 0.0f32;
        for v in vectors {
            acc += v[j] * scale;
        }
        out[j] = acc;
    }
    out
}

/// One `W`-wide element tile of [`average_parameters`]: `W` accumulators
/// held in registers over the full vector loop.
#[inline]
fn average_tile<const W: usize>(vectors: &[&[f32]], scale: f32, j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for v in vectors {
        let tile = &v[j0..j0 + W];
        for (a, &x) in acc.iter_mut().zip(tile) {
            *a += x * scale;
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

/// Weighted element-wise mean of parameter vectors.
///
/// FedAvg weights client updates by their sample counts; weights are
/// normalised internally.
///
/// # Panics
///
/// Panics if inputs are empty, lengths mismatch, or all weights are zero.
pub fn weighted_average_parameters(vectors: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "cannot average zero parameter vectors");
    assert_eq!(
        vectors.len(),
        weights.len(),
        "one weight per parameter vector required"
    );
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let len = vectors[0].len();
    let mut out = vec![0.0f32; len];
    for (v, &w) in vectors.iter().zip(weights) {
        assert_eq!(v.len(), len, "parameter vectors differ in length");
        let scale = w / total;
        for (o, &x) in out.iter_mut().zip(*v) {
            *o += x * scale;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_identical_vectors_is_identity() {
        let v = vec![1.0, -2.0, 3.5];
        let avg = average_parameters(&[&v, &v, &v]);
        for (a, b) in avg.iter().zip(&v) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn average_known_values() {
        let a = vec![0.0, 10.0];
        let b = vec![4.0, 20.0];
        assert_eq!(average_parameters(&[&a, &b]), vec![2.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "zero parameter vectors")]
    fn average_empty_panics() {
        average_parameters(&[]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn average_mismatched_lengths_panics() {
        let a = vec![1.0];
        let b = vec![1.0, 2.0];
        average_parameters(&[&a, &b]);
    }

    #[test]
    fn tiled_average_is_bit_identical_to_the_scalar_oracle() {
        // The scalar reference the tiled path must reproduce bit for
        // bit, across lengths hitting the wide tile, the narrow tile and
        // the scalar tail in every combination.
        fn oracle(vectors: &[&[f32]]) -> Vec<f32> {
            let len = vectors[0].len();
            let scale = 1.0 / vectors.len() as f32;
            let mut out = vec![0.0f32; len];
            for v in vectors {
                for (o, &x) in out.iter_mut().zip(*v) {
                    *o += x * scale;
                }
            }
            out
        }
        for &len in &[1usize, 7, 8, 9, 31, 32, 33, 40, 64, 71, 100] {
            for &count in &[1usize, 2, 3, 7] {
                // Deterministic, sign-varying, non-dyadic values so
                // reordered additions would actually change bits.
                let vectors: Vec<Vec<f32>> = (0..count)
                    .map(|v| {
                        (0..len)
                            .map(|e| ((v * 31 + e * 17) as f32 * 0.3057).sin() * 1.7)
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[f32]> = vectors.iter().map(Vec::as_slice).collect();
                let tiled = average_parameters(&refs);
                let scalar = oracle(&refs);
                let tiled_bits: Vec<u32> = tiled.iter().map(|x| x.to_bits()).collect();
                let scalar_bits: Vec<u32> = scalar.iter().map(|x| x.to_bits()).collect();
                assert_eq!(tiled_bits, scalar_bits, "len {len} count {count}");
            }
        }
    }

    #[test]
    fn weighted_average_reduces_to_plain_for_equal_weights() {
        let a = vec![1.0, 3.0];
        let b = vec![3.0, 5.0];
        let plain = average_parameters(&[&a, &b]);
        let weighted = weighted_average_parameters(&[&a, &b], &[2.0, 2.0]);
        for (p, w) in plain.iter().zip(&weighted) {
            assert!((p - w).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = vec![0.0];
        let b = vec![10.0];
        let avg = weighted_average_parameters(&[&a, &b], &[3.0, 1.0]);
        assert!((avg[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn weighted_average_zero_weights_panics() {
        let a = vec![0.0];
        weighted_average_parameters(&[&a], &[0.0]);
    }
}
