//! Numerically stable kernels shared by the neural-network layers.

use crate::Matrix;

/// Computes a numerically stable softmax over a single logit slice.
///
/// # Example
///
/// ```
/// let p = dagfl_tensor::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_slice_in_place(&mut out);
    out
}

/// Applies a numerically stable softmax to every row of `logits` in place.
pub fn softmax_in_place(logits: &mut Matrix) {
    let rows = logits.rows();
    for r in 0..rows {
        softmax_slice_in_place(logits.row_mut(r));
    }
}

fn softmax_slice_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    row.iter_mut().for_each(|v| *v -= max);
    exp_in_place(row);
    let mut sum = 0.0;
    for &v in row.iter() {
        sum += v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Elements per chunk of [`exp_in_place`]: one AVX2 register of `f32`.
const LANES: usize = 8;

/// `exp` of every element, bit-identical to `f32::exp` (glibc's `expf`).
///
/// A chunk of 8 elements whose magnitudes are all below 88 (glibc's own
/// fast-path test, `abstop < 0x42b`) runs a branch-free transcription
/// of glibc's FMA `expf`, which vectorises; any other chunk (overflow,
/// underflow, ±inf, NaN) calls `f32::exp` per element. Remainder
/// elements are classified one by one the same way.
///
/// # Example
///
/// ```
/// let mut xs = [0.0f32, 1.0];
/// dagfl_tensor::exp_in_place(&mut xs);
/// assert_eq!(xs, [1.0, std::f32::consts::E]);
/// ```
#[inline]
pub fn exp_in_place(xs: &mut [f32]) {
    let in_lane_range = |x: f32| x.to_bits() & 0x7fff_ffff < 0x42b0_0000;
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        if chunk.iter().fold(true, |all, &x| all & in_lane_range(x)) {
            chunk.iter_mut().for_each(|x| *x = exp_lane(*x));
        } else {
            chunk.iter_mut().for_each(|x| *x = x.exp());
        }
    }
    for x in chunks.into_remainder() {
        *x = if in_lane_range(*x) {
            exp_lane(*x)
        } else {
            x.exp()
        };
    }
}

/// `2^(i/32)` correctly rounded to f64, minus `i << 47` (the exponent
/// bits [`exp_lane`] adds back), as glibc's `__exp2f_data` stores it.
/// Regenerate with Python: `decimal.getcontext().prec = 60`, then
/// `struct.unpack("<Q", struct.pack("<d", float(Decimal(2) ** (Decimal(i) / 32))))[0] - (i << 47)`.
#[rustfmt::skip]
const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// glibc's `expf` as its FMA variant (`__expf_fma`, from ARM's
/// optimized-routines) computes it, for |x| < 88. In f64, `x·32/ln2 =
/// k + r` with `k` an integer and |r| ≤ 1/2: `2^(r/32)` is a cubic in
/// `r`, `2^(k/32)` a table word with `k / 32` added to its exponent. Both
/// reductions are fused multiply-adds, as that libm's are: rounding
/// `x·32/ln2` separately changes two results below 88. `f64::mul_add` is
/// exactly rounded on every target CPU.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    // 32/ln2, 1.5·2⁵² and the cubic's coefficients, by their bits.
    let [inv_ln2_n, shift, c0, c1, c2] = [
        0x4047_1547_652b_82fe,
        0x4338_0000_0000_0000,
        0x3ebc_6af8_4b91_2394,
        0x3f2e_bfce_50fa_c4f3,
        0x3f96_2e42_ff0c_52d6,
    ]
    .map(f64::from_bits);
    let xd = f64::from(x);
    // `kd0 - shift` is `x·32/ln2` rounded to an integer, which sits in
    // the low bits of `kd0`.
    let kd0 = inv_ln2_n.mul_add(xd, shift);
    let ki = kd0.to_bits();
    let kd = kd0 - shift;
    let r = inv_ln2_n.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TABLE[(ki & 31) as usize].wrapping_add(ki << 47));
    let y = c0.mul_add(r, c1).mul_add(r * r, c2.mul_add(r, 1.0));
    (y * s) as f32
}

/// `log(sum(exp(x)))` computed stably.
pub fn log_sum_exp(values: &[f32]) -> f32 {
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = values.iter().map(|&v| (v - max).exp()).sum();
    max + sum.ln()
}

/// Index of the maximum entry of `values`; ties resolve to the first maximum.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Builds a one-hot row matrix: `labels.len() x classes`.
///
/// # Panics
///
/// Panics if any label is `>= classes`.
pub fn one_hot(labels: &[usize], classes: usize) -> Matrix {
    let mut m = Matrix::zeros(labels.len(), classes);
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        m[(r, label)] = 1.0;
    }
    m
}

/// Mean cross-entropy `-log p[label]` given already-normalised probability
/// rows.
///
/// Probabilities are clamped away from zero for numerical safety.
///
/// # Panics
///
/// Panics if `probs.rows() != labels.len()` or a label is out of range.
pub fn cross_entropy_from_probs(probs: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(
        probs.rows(),
        labels.len(),
        "probability rows must match label count"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        let p = probs[(r, label)].max(1e-12);
        total -= p.ln();
    }
    total / labels.len() as f32
}

/// Fused softmax + cross-entropy forward pass over logit rows.
///
/// Returns `(probabilities, mean_loss)`. The probabilities are exactly the
/// values needed by the standard `p - y` backward pass of softmax
/// cross-entropy.
///
/// # Panics
///
/// Panics if `logits.rows() != labels.len()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (Matrix, f32) {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "logit rows must match label count"
    );
    let mut probs = logits.clone();
    softmax_in_place(&mut probs);
    let loss = cross_entropy_from_probs(&probs, labels);
    (probs, loss)
}

/// Fused softmax + cross-entropy + accuracy kernel, in place.
///
/// The inference-path counterpart of [`softmax_cross_entropy`]: one pass
/// over the logit rows with **no intermediate probability matrix** —
/// `logits` itself is normalised row by row, and the per-row loss and
/// argmax are folded into the same pass. Returns `(mean_loss, correct)`
/// where `correct` counts rows whose probability argmax equals the label
/// (ties resolve to the first maximum, like [`argmax`]).
///
/// Per row the arithmetic (max-shift, exp, sum, divide, clamp, ln) runs
/// in exactly the order of the composed naive kernels, so results are
/// bit-identical to `softmax_cross_entropy` + [`cross_entropy_from_probs`]
/// + [`argmax`] — the property tests pin this against the naive oracles.
///
/// # Panics
///
/// Panics if `logits.rows() != labels.len()` or a label is out of range.
pub fn fused_softmax_cross_entropy(logits: &mut Matrix, labels: &[usize]) -> (f32, usize) {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "logit rows must match label count"
    );
    if labels.is_empty() {
        return (0.0, 0);
    }
    let classes = logits.cols();
    let mut total = 0.0;
    let mut correct = 0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        let row = logits.row_mut(r);
        softmax_slice_in_place(row);
        let p = row[label].max(1e-12);
        total -= p.ln();
        if argmax(row) == label {
            correct += 1;
        }
    }
    (total / labels.len() as f32, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.0, 1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[1000.0, -1000.0]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p[1].abs() < 1e-6);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_in_place_normalises_each_row() {
        let mut m = Matrix::from_rows(&[&[0.0, 0.0], &[5.0, 5.0]]).unwrap();
        softmax_in_place(&mut m);
        for r in 0..2 {
            assert!((m.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-6);
            assert!((m[(r, 0)] - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let v = [0.1f32, 0.2, 0.3];
        let naive = v.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&v) - naive).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_stable_for_large_values() {
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_empty_panics() {
        argmax(&[]);
    }

    #[test]
    fn one_hot_sets_exactly_one_entry_per_row() {
        let m = one_hot(&[2, 0], 3);
        assert_eq!(m.row(0), &[0.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_out_of_range_label() {
        one_hot(&[3], 3);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_zero() {
        let probs = one_hot(&[1], 3);
        assert!(cross_entropy_from_probs(&probs, &[1]) < 1e-5);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let probs = Matrix::filled(1, 4, 0.25);
        let loss = cross_entropy_from_probs(&probs, &[2]);
        assert!((loss - 4f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn softmax_cross_entropy_matches_composition() {
        let logits = Matrix::from_rows(&[&[0.5, -0.25, 1.5], &[2.0, 0.0, -1.0]]).unwrap();
        let labels = [2, 0];
        let (probs, loss) = softmax_cross_entropy(&logits, &labels);
        let mut manual = logits.clone();
        softmax_in_place(&mut manual);
        assert!(probs.max_abs_diff(&manual).unwrap() < 1e-6);
        assert!((loss - cross_entropy_from_probs(&manual, &labels)).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_empty_batch_is_zero() {
        let probs = Matrix::zeros(0, 3);
        assert_eq!(cross_entropy_from_probs(&probs, &[]), 0.0);
    }

    #[test]
    fn fused_kernel_matches_naive_composition() {
        let logits =
            Matrix::from_rows(&[&[0.5, -0.25, 1.5], &[2.0, 0.0, -1.0], &[3.0, 3.0, 0.1]]).unwrap();
        let labels = [2, 0, 1];
        let (probs, naive_loss) = softmax_cross_entropy(&logits, &labels);
        let naive_correct = labels
            .iter()
            .enumerate()
            .filter(|&(r, &label)| argmax(probs.row(r)) == label)
            .count();
        let mut fused_logits = logits.clone();
        let (loss, correct) = fused_softmax_cross_entropy(&mut fused_logits, &labels);
        assert_eq!(
            loss.to_bits(),
            naive_loss.to_bits(),
            "loss must be bit-identical"
        );
        assert_eq!(correct, naive_correct);
        assert_eq!(fused_logits, probs, "logits must hold the probabilities");
    }

    #[test]
    fn fused_kernel_empty_batch_is_zero() {
        let mut logits = Matrix::zeros(0, 4);
        assert_eq!(fused_softmax_cross_entropy(&mut logits, &[]), (0.0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fused_kernel_rejects_out_of_range_label() {
        let mut logits = Matrix::zeros(1, 3);
        fused_softmax_cross_entropy(&mut logits, &[3]);
    }

    #[test]
    #[should_panic(expected = "logit rows")]
    fn fused_kernel_rejects_row_mismatch() {
        let mut logits = Matrix::zeros(2, 3);
        fused_softmax_cross_entropy(&mut logits, &[0]);
    }

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// libm's `expf`. `black_box` keeps the compiler from folding `exp`
    /// of a constant, which it does with its own, differently rounded,
    /// arithmetic.
    fn libm_exp(x: f32) -> f32 {
        std::hint::black_box(x).exp()
    }

    /// Runs `kernel` over a copy of `xs`; returns the bits of every input
    /// whose output is not libm's.
    fn exp_mismatches(xs: &[f32], kernel: impl Fn(&mut [f32])) -> Vec<u32> {
        let mut ys = xs.to_vec();
        kernel(&mut ys);
        xs.iter()
            .zip(&ys)
            .filter(|&(&x, &y)| !same(y, libm_exp(x)))
            .map(|(x, _)| x.to_bits())
            .collect()
    }

    /// Catches a wrong constant's leading bits, a wrong table word or a
    /// wrong chunk guard. A one-ulp change to a coefficient moves only a
    /// few of the 2³² outputs, which `exp_in_place_matches_libm_on_every_f32`
    /// sees.
    #[test]
    fn exp_in_place_matches_libm_on_a_grid_and_at_every_threshold() {
        // Every 4,093rd bit pattern: every exponent, both signs, NaNs.
        let grid: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
        assert_eq!(exp_mismatches(&grid, exp_in_place), []);
        // glibc's thresholds, each with both neighbours and both signs;
        // plus ±0, subnormals, ±inf and NaNs.
        let edges = [
            0x0000_0000, // 0 (its neighbours: −NaN and the least subnormal)
            0x0040_0000, // a subnormal
            0x0080_0000, // f32::MIN_POSITIVE
            0x42b0_0000, // 88.0, the end of the lane range
            0x42b1_7217, // 88.72, above which `expf` overflows
            0x42ae_ac50, // 87.34; at −87.34 the result leaves the normals
            0x42ce_8ed0, // 103.28; at −103.28 the least subnormal result
            0x42cf_f1b4, // 103.97; below −103.97 `expf` underflows to 0
            0x7f80_0000, // inf (its neighbours: f32::MAX and a signalling NaN)
            0x7fc0_0000, // quiet NaN
            0x7fa0_1234, // signalling NaN with a payload
        ];
        for x in edges
            .iter()
            .flat_map(|&b: &u32| [b.wrapping_sub(1), b, b.wrapping_add(1)])
            .flat_map(|b| [b, b ^ 0x8000_0000])
            .map(f32::from_bits)
        {
            // A full chunk (the lane path when `x` is in its range) and a
            // remainder.
            assert_eq!(exp_mismatches(&[x; LANES], exp_in_place), []);
            assert_eq!(exp_mismatches(&[x], exp_in_place), []);
        }
        // The two inputs below 88 where rounding `x·32/ln2` before adding
        // the shift, or before subtracting `k`, gives a result one ulp off
        // libm's: both reductions must be fused.
        for bits in [0xc27c_65d9, 0x4202_422f] {
            let x = f32::from_bits(bits);
            assert_eq!(exp_lane(x).to_bits(), libm_exp(x).to_bits(), "{bits:#010x}");
        }
        // One lane out of range sends the whole chunk to libm.
        let mixed = [0.5, 90.0, -0.0, f32::NAN, -200.0, -3.0, f32::INFINITY, 87.9];
        assert_eq!(exp_mismatches(&mixed, exp_in_place), []);
    }

    /// All 2³² inputs, once as full chunks and once as remainders. The end
    /// of the lane range is a multiple of [`LANES`], so every input in it
    /// takes the lane path. Run it after any change to the kernel:
    /// `cargo test --release -p dagfl-tensor -- --ignored exp_in_place_matches_libm_on_every_f32`.
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn exp_in_place_matches_libm_on_every_f32() {
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
                    exp_mismatches(&xs, exp_in_place),
                    exp_mismatches(&xs, |ys| ys.chunks_mut(LANES - 1).for_each(exp_in_place)),
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
}
