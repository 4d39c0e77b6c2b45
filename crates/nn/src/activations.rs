//! The [`Relu`] layer and the slice kernels behind the GRU's gates.

use dagfl_tensor::{exp_in_place, Matrix};

use crate::{Layer, NnError};

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Matrix,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "Relu"
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        input.map_into(out, |v| v.max(0.0));
        Ok(())
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.cached_input.copy_from(input);
        input.map_into(out, |v| v.max(0.0));
        Ok(())
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        // Multiplying by the 0/1 mask (rather than selecting a literal
        // 0.0) gives `g * 0.0 == -0.0` for negative `g`, the sign a
        // mask-and-hadamard formulation produces.
        grad_output.zip_into(&self.cached_input, grad_input, |g, v| {
            g * (if v > 0.0 { 1.0 } else { 0.0 })
        })?;
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Elements per chunk of the slice kernels: one AVX2 register of `f32`.
const LANES: usize = 8;

/// `|x|` bit patterns [`tanh_lane`] covers: 2⁻⁵⁵ ≤ |x| < 22.
const TANH_LANE_BITS: std::ops::Range<u32> = 0x2400_0000..0x41b0_0000;

/// `tanh` of every element, bit-identical to libm's `tanhf`.
///
/// A chunk of [`LANES`] elements whose magnitudes all lie in
/// [`TANH_LANE_BITS`] runs the branch-free [`tanh_lane`], which
/// vectorises; any other chunk (±0, tiny, saturated, ±inf, NaN) and the
/// remainder call `f32::tanh` per element.
pub(crate) fn tanh_in_place(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let in_lane_range = chunk.iter().fold(true, |all, x| {
            all & TANH_LANE_BITS.contains(&(x.to_bits() & 0x7fff_ffff))
        });
        if in_lane_range {
            chunk.iter_mut().for_each(|x| *x = tanh_lane(*x));
        } else {
            chunk.iter_mut().for_each(|x| *x = x.tanh());
        }
    }
    chunks
        .into_remainder()
        .iter_mut()
        .for_each(|x| *x = x.tanh());
}

/// glibc's `tanhf` (fdlibm) for `x` in [`TANH_LANE_BITS`], both arms
/// computed and one selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ax = x.abs();
    let big = ax >= 1.0;
    // `±2|x|`, negated by its sign bit: a select between two `expm1_lane`
    // arguments would be if-converted into two evaluations.
    let t = expm1_lane(f32::from_bits(
        (2.0 * ax).to_bits() | (u32::from(!big) << 31),
    ));
    // `1 - 2 / (t + 2)` or `-t / (t + 2)`: one division serves both arms.
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    z.copysign(x) // fdlibm's `jx >= 0 ? z : -z`, as z > 0 here
}

/// glibc's `expm1f` (fdlibm) for nonzero `x` in (−27·ln2, 88.72), the
/// range without its overflow and saturation filters ([`tanh_lane`]
/// passes −2 < x < 44). Every path is computed and the one fdlibm's
/// branches would take is selected, so the function has no branch.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    // fdlibm's constants, by their bits.
    let [ln2_hi, ln2_lo, invln2] = [0x3f31_7180, 0x3717_f7d1, 0x3fb8_aa3b].map(f32::from_bits);
    let [q1, q2, q3, q4, q5] = [
        0xbd08_8889,
        0x3ad0_0d01,
        0xb8a6_70cd,
        0x3686_7e54,
        0xb457_edbb,
    ]
    .map(f32::from_bits);
    // `f32::from_bits(bits + (k << 23))`: adds `k` to the exponent.
    let scale = |y: f32, k: i32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));

    // Argument reduction. fdlibm's k = ±1 arm (`hi = x ∓ ln2_hi`,
    // `lo = ±ln2_lo`) and its k = 0 arm (`x` unchanged, `c = 0`) are the
    // general arm's arithmetic at k = ±1 and k = 0, bit for bit. Its
    // thresholds on the bits of |x| are compared as floats.
    let ax = x.abs();
    let sign = if x.is_sign_negative() { -1.0 } else { 1.0 };
    let kf = if ax <= f32::from_bits(0x3eb1_7218) {
        0.0 // |x| <= 0.5·ln2
    } else if ax < f32::from_bits(0x3f85_1592) {
        sign // |x| < 1.5·ln2
    } else {
        (invln2 * x + 0.5 * sign).trunc() // C's `(int)` truncation
    };
    // `k` as an integer, read from the bits of `kf + 1.5·2²³`.
    let k = (kf + 12_582_912.0).to_bits() as i32 - 0x4b40_0000;
    let hi = x - kf * ln2_hi;
    let lo = kf * ln2_lo;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // `r` is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_k0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let y_km1 = 0.5 * (r - e) - 0.5;
    let y_k1_low = -2.0 * (e - (r + 0.5));
    let y_k1 = 1.0 + 2.0 * (r - e);
    let y_wide = scale(1.0 - (e - r), k) - 1.0;
    let one_minus_2_pow_neg_k = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let y_lt23 = scale(one_minus_2_pow_neg_k - (e - r), k);
    let two_pow_neg_k = f32::from_bits(((0x7f - k) << 23) as u32);
    let y_ge23 = scale(r - (e + two_pow_neg_k) + 1.0, k);
    if ax < f32::from_bits(0x3300_0000) {
        x // |x| < 2⁻²⁵
    } else if kf == 0.0 {
        y_k0
    } else if kf == -1.0 {
        y_km1
    } else if kf == 1.0 {
        if r < -0.25 {
            y_k1_low
        } else {
            y_k1
        }
    } else if kf <= -2.0 || kf > 56.0 {
        y_wide
    } else if kf < 23.0 {
        y_lt23
    } else {
        y_ge23
    }
}

/// The logistic function of every element, bit-identical to the
/// two-branch `x >= 0 ? 1 / (1 + e^-x) : e^x / (1 + e^x)`: both arms
/// are `num / (1 + e)` with `e = exp(-|x|)`. The exps of a block come
/// from [`exp_in_place`] (libm's `expf`, bit for bit, in lanes); then
/// the select and division vectorise. A block is 8 chunks: with one
/// `exp_in_place` call per chunk the kernel took half as long again.
pub(crate) fn sigmoid_in_place(xs: &mut [f32]) {
    let mut exps = [0.0f32; 8 * LANES];
    for chunk in xs.chunks_mut(exps.len()) {
        let exps = &mut exps[..chunk.len()];
        for (e, &x) in exps.iter_mut().zip(&*chunk) {
            *e = if x >= 0.0 { -x } else { x };
        }
        exp_in_place(exps);
        for (x, &e) in chunk.iter_mut().zip(&*exps) {
            *x = (if *x >= 0.0 { 1.0 } else { e }) / (1.0 + e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::OwnedPasses;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        let y = relu.forward_owned(&x).unwrap();
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.5]]).unwrap();
        relu.forward_owned(&x).unwrap();
        let g = Matrix::from_rows(&[&[3.0, 3.0]]).unwrap();
        let gi = relu.backward_owned(&g).unwrap();
        assert_eq!(gi.row(0), &[0.0, 3.0]);
    }

    #[test]
    fn activations_have_no_parameters() {
        assert_eq!(Relu::new().num_parameters(), 0);
    }

    #[test]
    fn sigmoid_scalar_stable_for_extremes() {
        let xs = [1000.0, -1000.0, 0.0, -0.0];
        let want = [1.0f32, 0.0, 0.5, 0.5].map(f32::to_bits);
        assert_eq!(xs.map(sigmoid_scalar).map(f32::to_bits), want);
        let mut ys = xs;
        sigmoid_in_place(&mut ys);
        assert_eq!(ys.map(f32::to_bits), want);
    }

    /// The two-branch logistic function `sigmoid_in_place` is pinned to.
    fn sigmoid_scalar(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Runs `kernel` over a copy of `xs`; returns the bits of every input
    /// whose output is not `oracle`'s.
    fn mismatches(xs: &[f32], kernel: impl Fn(&mut [f32]), oracle: fn(f32) -> f32) -> Vec<u32> {
        let mut ys = xs.to_vec();
        kernel(&mut ys);
        xs.iter()
            .zip(&ys)
            .filter(|&(&x, &y)| !same(y, oracle(x)))
            .map(|(x, _)| x.to_bits())
            .collect()
    }

    /// Every 4,093rd bit pattern: about a million inputs over every
    /// exponent, both signs, the NaNs included.
    fn sampled_grid() -> Vec<f32> {
        (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect()
    }

    /// The thresholds of fdlibm's `tanhf`, and of its `expm1f` halved (it
    /// runs at `2|x|`), each with both neighbours and both signs; plus ±0,
    /// subnormals, ±inf and NaNs.
    fn edges() -> Vec<f32> {
        let bits = [
            0x0000_0000, // 0 (its neighbours: −NaN and the least subnormal)
            0x0040_0000, // a subnormal
            0x0080_0000, // f32::MIN_POSITIVE
            0x2400_0000, // 2⁻⁵⁵
            0x3300_0000, // 2⁻²⁵
            0x3280_0000, // 2⁻²⁶
            0x3eb1_7218, // 0.5·ln2
            0x3e31_7218, // 0.25·ln2
            0x3f85_1592, // 1.5·ln2
            0x3f05_1592, // 0.75·ln2
            0x3f80_0000, // 1.0
            0x4195_b844, // 27·ln2
            0x4115_b844, // 13.5·ln2
            0x41b0_0000, // 22
            0x42b1_7218, // 88.72
            0x7f80_0000, // inf (its neighbours: f32::MAX and a signalling NaN)
            0x7fc0_0000, // quiet NaN
            0x7fa0_1234, // signalling NaN with a payload
        ];
        bits.iter()
            .flat_map(|&b: &u32| [b.wrapping_sub(1), b, b.wrapping_add(1)])
            .flat_map(|b| [b, b ^ 0x8000_0000])
            .map(f32::from_bits)
            .collect()
    }

    /// Catches a wrong arm, threshold handling or chunk guard. A one-ulp
    /// change to a constant moves a few hundred of the 2³² outputs, which
    /// only `tanh_matches_libm_on_every_f32` sees.
    #[test]
    fn tanh_matches_libm_on_a_grid_and_at_every_threshold() {
        let grid = sampled_grid();
        assert_eq!(mismatches(&grid, tanh_in_place, f32::tanh), []);
        for &x in &grid {
            if TANH_LANE_BITS.contains(&(x.to_bits() & 0x7fff_ffff)) {
                assert!(same(tanh_lane(x), x.tanh()), "{:#010x}", x.to_bits());
            }
        }
        for x in edges() {
            // A full chunk (the lane path when `x` is in its range) and a
            // remainder.
            assert_eq!(mismatches(&[x; LANES], tanh_in_place, f32::tanh), []);
            assert_eq!(mismatches(&[x], tanh_in_place, f32::tanh), []);
        }
        // One lane out of range sends the whole chunk to libm.
        let mixed = [0.5, 30.0, -0.0, f32::NAN, 1e-20, -3.0, f32::INFINITY, -2.0];
        assert_eq!(mismatches(&mixed, tanh_in_place, f32::tanh), []);
    }

    /// All 2³² inputs, once as full chunks and once as remainders. The ends
    /// of [`TANH_LANE_BITS`] are multiples of [`LANES`], so every input in
    /// range takes the lane path. About 70 s on 2 cores:
    /// `cargo test --release -p dagfl-nn -- --ignored tanh_matches_libm_on_every_f32`.
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn tanh_matches_libm_on_every_f32() {
        use std::sync::atomic::{AtomicU32, Ordering};
        const BLOCK_BITS: u32 = 16;
        let next_block = AtomicU32::new(0);
        let worker = || {
            let (mut count, mut first) = (0u64, Vec::new());
            loop {
                let block = next_block.fetch_add(1, Ordering::Relaxed);
                if block >= 1 << (32 - BLOCK_BITS) {
                    return (count, first);
                }
                let start = block << BLOCK_BITS;
                let xs: Vec<f32> = (start..=start | ((1 << BLOCK_BITS) - 1))
                    .map(f32::from_bits)
                    .collect();
                for bad in [
                    mismatches(&xs, tanh_in_place, f32::tanh),
                    mismatches(
                        &xs,
                        |ys| ys.chunks_mut(LANES - 1).for_each(tanh_in_place),
                        f32::tanh,
                    ),
                ] {
                    count += bad.len() as u64;
                    first.extend(bad.into_iter().take(16 - first.len()));
                }
            }
        };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (count, first) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers.into_iter().map(|w| w.join().unwrap()).fold(
                (0, Vec::new()),
                |(count, mut first), (c, f)| {
                    first.extend(f);
                    (count + c, first)
                },
            )
        });
        assert_eq!(count, 0, "first mismatching inputs: {first:#010x?}");
    }

    #[test]
    fn sigmoid_matches_the_two_branch_oracle_bit_for_bit() {
        let mut edges = edges();
        edges.extend([88.0f32, 104.0, 1000.0].iter().flat_map(|&x| [x, -x]));
        for x in &edges {
            assert_eq!(mismatches(&[*x], sigmoid_in_place, sigmoid_scalar), []);
        }
        let mut xs = sampled_grid();
        xs.extend(edges);
        assert_eq!(mismatches(&xs, sigmoid_in_place, sigmoid_scalar), []);
    }
}
