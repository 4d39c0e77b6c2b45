//! Property-based tests for the tensor substrate.

use dagfl_tensor::{
    argmax, cross_entropy_from_probs, fused_softmax_cross_entropy, log_sum_exp, one_hot, softmax,
    softmax_cross_entropy, MatmulBackend, MatmulBackendKind, Matrix, NaiveBackend, Summary,
    TiledBackend,
};
use proptest::prelude::*;

/// Strategy producing a matrix with bounded dimensions and finite entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized by construction"))
    })
}

/// Two matrices with identical shape.
fn matrix_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        let lhs = proptest::collection::vec(-100.0f32..100.0, r * c);
        let rhs = proptest::collection::vec(-100.0f32..100.0, r * c);
        (lhs, rhs).prop_map(move |(a, b)| {
            (
                Matrix::from_vec(r, c, a).expect("sized"),
                Matrix::from_vec(r, c, b).expect("sized"),
            )
        })
    })
}

/// A `rows x cols` matrix with no zero entry (`zeros` 0), about one third
/// exact zeros (1, the sparsity of post-ReLU activations), or only zeros
/// (2). Drawn as a left operand, these reach the product kernel's
/// branch-free, mixed and all-zero row groups; with a third of the entries
/// zero, a zero-free 4-row block is almost never drawn.
fn with_zeros(rows: usize, cols: usize, zeros: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-150.0f32..150.0, rows * cols).prop_map(move |data| {
        let data = data.into_iter().map(|v| match zeros {
            0 if v == 0.0 => 1.0,
            0 => v,
            1 if v.abs() < 50.0 => 0.0,
            1 => v,
            _ => 0.0,
        });
        Matrix::from_vec(rows, cols, data.collect()).expect("sized by construction")
    })
}

/// An output width: a third of the draws are narrow (`1..=17`, every
/// tail width of the kernel), a third are 64 (where a mixed 4-row group
/// with `k > 32` runs row by row), a third anywhere in `0..=max`.
fn width(max: usize) -> impl Strategy<Value = usize> {
    (0usize..3, 1usize..=17, 0..=max).prop_map(|(kind, narrow, any)| match kind {
        0 => narrow,
        1 => 64,
        _ => any,
    })
}

/// Asserts that two matrices are identical down to the bit pattern of
/// every entry — the contract between `TiledBackend` and the
/// `NaiveBackend` oracle.
fn assert_bit_identical(tiled: &Matrix, naive: &Matrix) {
    assert_eq!(tiled.shape(), naive.shape());
    for (t, n) in tiled.as_slice().iter().zip(naive.as_slice()) {
        assert_eq!(t.to_bits(), n.to_bits(), "{t} vs {n}");
    }
}

proptest! {
    // The TiledBackend kernels are pinned to the NaiveBackend oracle
    // bit-for-bit over all three training product shapes. Dimensions
    // start at 0 (empty operands) and straddle every tile width (4-row
    // blocks, 8/16/32/64-wide column tiles, every tail width), the
    // contraction runs to 48 (long past the under-8 last RHS rows the
    // column tail pads, and past the `k > 32` of the row-by-row mixed
    // groups), the cases of one property run in turn on one thread, and
    // the LHS is drawn zero-free, a third zeros or all zeros, so the
    // branch-free, mixed and all-zero paths of the zero-LHS skip are
    // all exercised.

    #[test]
    fn tiled_backend_matmul_matches_naive_oracle_bitwise(
        (a, b) in (0usize..=20, 0usize..=48, width(70), 0usize..3).prop_flat_map(|(m, k, n, d)| {
            (with_zeros(m, k, d), with_zeros(k, n, 1))
        })
    ) {
        let (naive, tiled) = (
            MatmulBackendKind::Naive.as_dyn(),
            MatmulBackendKind::Tiled.as_dyn(),
        );
        let mut want = Matrix::filled(1, 2, -3.0); // dirty buffers on purpose
        let mut got = Matrix::filled(3, 1, 7.0);
        naive.matmul_into(&a, &b, &mut want).unwrap();
        tiled.matmul_into(&a, &b, &mut got).unwrap();
        assert_bit_identical(&got, &want);
    }

    #[test]
    fn tiled_backend_matmul_transpose_matches_naive_oracle_bitwise(
        (a, b) in (0usize..=20, 0usize..=48, width(40), 0usize..3).prop_flat_map(|(m, k, n, d)| {
            (with_zeros(m, k, d), with_zeros(n, k, 1))
        })
    ) {
        let (naive, tiled) = (
            MatmulBackendKind::Naive.as_dyn(),
            MatmulBackendKind::Tiled.as_dyn(),
        );
        let mut want = Matrix::filled(2, 2, 1.0);
        let mut got = Matrix::default();
        naive.matmul_transpose_into(&a, &b, &mut want).unwrap();
        tiled.matmul_transpose_into(&a, &b, &mut got).unwrap();
        assert_bit_identical(&got, &want);
    }

    #[test]
    fn tiled_backend_transpose_matmul_matches_naive_oracle_bitwise(
        (a, b) in (0usize..=48, 0usize..=40, width(40), 0usize..3).prop_flat_map(|(k, m, n, d)| {
            (with_zeros(k, m, d), with_zeros(k, n, 1))
        })
    ) {
        let (naive, tiled) = (
            MatmulBackendKind::Naive.as_dyn(),
            MatmulBackendKind::Tiled.as_dyn(),
        );
        let mut want = Matrix::filled(1, 3, 4.0);
        let mut got = Matrix::filled(2, 1, -9.0);
        naive.transpose_matmul_into(&a, &b, &mut want).unwrap();
        tiled.transpose_matmul_into(&a, &b, &mut got).unwrap();
        assert_bit_identical(&got, &want);
    }

    #[test]
    fn transpose_is_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_into_a_reused_buffer_is_the_transpose(
        m in matrix_strategy(8),
        (rows, cols) in (0usize..=9, 0usize..=9),
    ) {
        // A dirty buffer of the wrong shape, as a pooled one would be.
        let mut t = Matrix::filled(rows, cols, f32::NAN);
        m.transpose_into(&mut t);
        prop_assert_eq!(t.shape(), (m.cols(), m.rows()));
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                prop_assert_eq!(t[(c, r)].to_bits(), m[(r, c)].to_bits());
            }
        }
        prop_assert_eq!(&t, &m.transpose());
        let mut back = Matrix::filled(cols, rows, -1.0);
        t.transpose_into(&mut back);
        prop_assert_eq!(back, m);
    }

    #[test]
    fn addition_commutes((a, b) in matrix_pair(8)) {
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.add_assign(&b).unwrap();
        ba.add_assign(&a).unwrap();
        prop_assert!(ab.max_abs_diff(&ba).unwrap() < 1e-4);
    }

    #[test]
    fn add_then_sub_is_identity((a, b) in matrix_pair(8)) {
        let mut back = a.clone();
        back.add_assign(&b).unwrap();
        back.add_scaled_assign(&b, -1.0).unwrap();
        prop_assert!(back.max_abs_diff(&a).unwrap() < 1e-3);
    }

    #[test]
    fn scaling_distributes_over_addition((a, b) in matrix_pair(6), s in -10.0f32..10.0) {
        let mut lhs = a.clone();
        lhs.add_assign(&b).unwrap();
        lhs.scale_assign(s);
        let mut rhs = a.clone();
        rhs.scale_assign(s);
        rhs.add_scaled_assign(&b, s).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-2);
    }

    #[test]
    fn matmul_identity_is_noop(m in matrix_strategy(8)) {
        let i = Matrix::identity(m.cols());
        let prod = NaiveBackend.matmul(&m, &i).unwrap();
        prop_assert!(prod.max_abs_diff(&m).unwrap() < 1e-4);
    }

    #[test]
    fn matmul_transpose_agrees_with_naive(
        (m, n) in (1usize..=6, 1usize..=6, 1usize..=6).prop_flat_map(|(r1, r2, c)| {
            let lhs = proptest::collection::vec(-100.0f32..100.0, r1 * c);
            let rhs = proptest::collection::vec(-100.0f32..100.0, r2 * c);
            (lhs, rhs).prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(r1, c, a).expect("sized"),
                    Matrix::from_vec(r2, c, b).expect("sized"),
                )
            })
        })
    ) {
        let fast = TiledBackend.matmul_transpose(&m, &n).unwrap();
        let slow = NaiveBackend.matmul(&m, &n.transpose()).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-1);
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle(
        // Dimensions deliberately straddle the kernel's 8-row tile, so
        // partial tiles (non-multiple-of-block sizes) are exercised.
        (a, b) in (1usize..=20, 1usize..=20, 1usize..=20).prop_flat_map(|(m, k, n)| {
            let lhs = proptest::collection::vec(-100.0f32..100.0, m * k);
            let rhs = proptest::collection::vec(-100.0f32..100.0, k * n);
            (lhs, rhs).prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(m, k, a).expect("sized"),
                    Matrix::from_vec(k, n, b).expect("sized"),
                )
            })
        })
    ) {
        let naive = NaiveBackend.matmul(&a, &b).unwrap();
        let mut blocked = Matrix::filled(1, 3, 42.0); // dirty buffer on purpose
        a.matmul_into(&b, &mut blocked).unwrap();
        prop_assert_eq!(blocked.shape(), naive.shape());
        prop_assert!(blocked.max_abs_diff(&naive).unwrap() < 1e-5);
    }

    #[test]
    fn blocked_transposed_rhs_matmul_matches_naive_oracle(
        (a, b) in (1usize..=20, 1usize..=20, 1usize..=20).prop_flat_map(|(m, k, n)| {
            let lhs = proptest::collection::vec(-100.0f32..100.0, m * k);
            let rhs = proptest::collection::vec(-100.0f32..100.0, n * k);
            (lhs, rhs).prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(m, k, a).expect("sized"),
                    Matrix::from_vec(n, k, b).expect("sized"),
                )
            })
        })
    ) {
        // The reference is the dot-product loop written out here, so
        // the oracle backend's own kernel is pinned by it as well.
        let mut naive = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                naive[(i, j)] = acc;
            }
        }
        let mut blocked = Matrix::default();
        a.matmul_transpose_into(&b, &mut blocked).unwrap();
        prop_assert_eq!(blocked.shape(), naive.shape());
        prop_assert!(blocked.max_abs_diff(&naive).unwrap() < 1e-5);
        let oracle = NaiveBackend.matmul_transpose(&a, &b).unwrap();
        prop_assert!(oracle.max_abs_diff(&naive).unwrap() < 1e-5);
    }

    #[test]
    fn fused_softmax_cross_entropy_matches_naive_oracle(
        (logits, labels) in (1usize..=12, 1usize..=12).prop_flat_map(|(rows, classes)| {
            let data = proptest::collection::vec(-50.0f32..50.0, rows * classes);
            let labels = proptest::collection::vec(0usize..classes, rows);
            (data, labels).prop_map(move |(d, l)| {
                (Matrix::from_vec(rows, classes, d).expect("sized"), l)
            })
        })
    ) {
        let (probs, naive_loss) = softmax_cross_entropy(&logits, &labels);
        let oracle_loss = cross_entropy_from_probs(&probs, &labels);
        let naive_correct = labels
            .iter()
            .enumerate()
            .filter(|&(r, &label)| argmax(probs.row(r)) == label)
            .count();
        let mut fused = logits.clone();
        let (loss, correct) = fused_softmax_cross_entropy(&mut fused, &labels);
        prop_assert!((loss - naive_loss).abs() < 1e-5);
        prop_assert!((loss - oracle_loss).abs() < 1e-5);
        prop_assert_eq!(correct, naive_correct);
        prop_assert!(fused.max_abs_diff(&probs).unwrap() < 1e-5);
    }

    #[test]
    fn softmax_is_a_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..20)) {
        let p = softmax(&v);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn softmax_preserves_argmax(v in proptest::collection::vec(-50.0f32..50.0, 1..20)) {
        let p = softmax(&v);
        prop_assert_eq!(argmax(&v), argmax(&p));
    }

    #[test]
    fn log_sum_exp_bounds(v in proptest::collection::vec(-50.0f32..50.0, 1..20)) {
        let lse = log_sum_exp(&v);
        let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(lse >= max - 1e-4);
        prop_assert!(lse <= max + (v.len() as f32).ln() + 1e-4);
    }

    #[test]
    fn one_hot_rows_sum_to_one(labels in proptest::collection::vec(0usize..7, 1..20)) {
        let m = one_hot(&labels, 7);
        for (r, &label) in labels.iter().enumerate() {
            let sum: f32 = m.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
            prop_assert_eq!(argmax(m.row(r)), label);
        }
    }

    #[test]
    fn summary_orders_quartiles(v in proptest::collection::vec(-100.0f32..100.0, 1..50)) {
        let s = Summary::of(&v);
        prop_assert!(s.min <= s.q1 + 1e-6);
        prop_assert!(s.q1 <= s.median + 1e-6);
        prop_assert!(s.median <= s.q3 + 1e-6);
        prop_assert!(s.q3 <= s.max + 1e-6);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn column_sums_match_total(m in matrix_strategy(8)) {
        let mut sums = Matrix::default();
        m.column_sums_into(&mut sums);
        let total: f32 = sums.as_slice().iter().sum();
        prop_assert!((total - m.sum()).abs() < 1e-2_f32.max(m.sum().abs() * 1e-4));
    }
}
