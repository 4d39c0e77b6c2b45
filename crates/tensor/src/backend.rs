//! Pluggable matmul backends for the training pipeline.
//!
//! The three product shapes a training step needs — `A * B` (forward),
//! `A * B^T` (grad-input) and `A^T * B` (grad-weight) — are exposed
//! behind the [`MatmulBackend`] trait so the layer code above never
//! names a kernel. Two implementations ship in-tree:
//!
//! - [`NaiveBackend`] — the straightforward loops, writing into
//!   reusable buffers. Kept as the bit-exactness oracle: every other
//!   backend must reproduce its results bit-for-bit (pinned by the
//!   property tests).
//! - [`TiledBackend`] — one register-tiled kernel for all three shapes
//!   (`A * B^T` against a transposed copy of `B`, `A^T * B` reading `A`
//!   in place). Per output cell it accumulates the same terms in the
//!   same ascending order (with the zero-LHS skip where the oracle has
//!   one), so results are bitwise identical — just faster.
//!
//! Production code always runs tiled; tests and the benchmark ladder
//! switch a model to the oracle by value through [`MatmulBackendKind`]
//! (`Copy`), resolved to a `&'static dyn MatmulBackend` at the call
//! site, so model structs stay `Clone` and cheap to ship across
//! threads. The trait is the seam a GPU backend would slot into; that
//! backend is parked (ROADMAP) because it needs a crate that is not
//! vendored.

use crate::error::ShapeError;
use crate::matrix::Matrix;

/// The matrix products of a training step, behind one swappable seam.
///
/// All methods write into reusable output buffers (reshaped, never
/// reallocated in steady state); the provided allocating conveniences
/// exist for tests and the benchmark's correctness checks, where buffer
/// threading is not worth it.
///
/// Implementations must be bit-identical to [`NaiveBackend`]: per
/// output cell, terms accumulate in ascending contraction order into a
/// single `f32` accumulator, skipping zero left-hand entries exactly
/// where the naive kernels do.
pub trait MatmulBackend: Send + Sync {
    /// The backend's scenario-file name (`"naive"`, `"tiled"`).
    fn name(&self) -> &'static str;

    /// `out = a * b`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `a.cols() != b.rows()`.
    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), ShapeError>;

    /// `out = a * b^T` (the grad-input shape).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `a.cols() != b.cols()`.
    fn matmul_transpose_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError>;

    /// `out = a^T * b` (the grad-weight shape).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `a.rows() != b.rows()`.
    fn transpose_matmul_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError>;

    /// Allocating convenience for [`MatmulBackend::matmul_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `a.cols() != b.rows()`.
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_into(a, b, &mut out)?;
        Ok(out)
    }

    /// Allocating convenience for
    /// [`MatmulBackend::matmul_transpose_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `a.cols() != b.cols()`.
    fn matmul_transpose(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.matmul_transpose_into(a, b, &mut out)?;
        Ok(out)
    }

    /// Allocating convenience for
    /// [`MatmulBackend::transpose_matmul_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `a.rows() != b.rows()`.
    fn transpose_matmul(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
        let mut out = Matrix::default();
        self.transpose_matmul_into(a, b, &mut out)?;
        Ok(out)
    }
}

/// The reference backend: the naive loops, buffer-reusing.
///
/// Slower than [`TiledBackend`] but trivially auditable — this is the
/// oracle every other backend is property-tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBackend;

impl MatmulBackend for NaiveBackend {
    fn name(&self) -> &'static str {
        "naive"
    }

    /// The i-k-j loop, skipping zero left-hand entries.
    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if a.cols() != b.rows() {
            return Err(ShapeError::new("matmul_naive_into", a.shape(), b.shape()));
        }
        out.reset(a.rows(), b.cols());
        for i in 0..a.rows() {
            let out_row = out.row_mut(i);
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        Ok(())
    }

    /// One dot product per output cell, no zero skip.
    fn matmul_transpose_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if a.cols() != b.cols() {
            return Err(ShapeError::new(
                "matmul_transpose_naive_into",
                a.shape(),
                b.shape(),
            ));
        }
        out.reset(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0;
                for (&av, &bv) in a.row(i).iter().zip(b.row(j)) {
                    acc += av * bv;
                }
                out[(i, j)] = acc;
            }
        }
        Ok(())
    }

    /// The k-outer loop, skipping zero left-hand entries.
    fn transpose_matmul_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if a.rows() != b.rows() {
            return Err(ShapeError::new(
                "transpose_matmul_naive_into",
                a.shape(),
                b.shape(),
            ));
        }
        out.reset(a.cols(), b.cols());
        for k in 0..a.rows() {
            for (i, &av) in a.row(k).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        Ok(())
    }
}

/// The fast backend: the register-tiled product kernel, bit-identical
/// to [`NaiveBackend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TiledBackend;

impl MatmulBackend for TiledBackend {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        a.matmul_into(b, out)
    }

    fn matmul_transpose_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        a.matmul_transpose_into(b, out)
    }

    fn transpose_matmul_into(
        &self,
        a: &Matrix,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        a.transpose_matmul_into(b, out)
    }
}

/// Backend selection as a plain value: what model structs store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatmulBackendKind {
    /// The naive reference loops ([`NaiveBackend`]).
    Naive,
    /// The register-tiled kernels ([`TiledBackend`]) — the default.
    #[default]
    Tiled,
}

impl MatmulBackendKind {
    /// The backend's name (`"naive"` / `"tiled"`).
    pub fn name(self) -> &'static str {
        self.as_dyn().name()
    }

    /// Resolves the selection to its backend implementation.
    pub fn as_dyn(self) -> &'static dyn MatmulBackend {
        match self {
            MatmulBackendKind::Naive => &NaiveBackend,
            MatmulBackendKind::Tiled => &TiledBackend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            if (r + 2 * c) % 3 == 0 {
                0.0
            } else {
                ((r * cols + c) as f32).sin()
            }
        })
    }

    #[test]
    fn kinds_resolve_and_round_trip() {
        assert_eq!(MatmulBackendKind::Naive.as_dyn().name(), "naive");
        assert_eq!(MatmulBackendKind::Tiled.name(), "tiled");
        assert_eq!(MatmulBackendKind::default(), MatmulBackendKind::Tiled);
    }

    #[test]
    fn backends_agree_bitwise_on_all_three_shapes() {
        let (naive, tiled) = (
            MatmulBackendKind::Naive.as_dyn(),
            MatmulBackendKind::Tiled.as_dyn(),
        );
        let a = sparse(10, 33);
        let b = sparse(33, 21);
        let bt = sparse(21, 33);
        let ta = sparse(10, 21);
        for (x, y) in [
            (naive.matmul(&a, &b), tiled.matmul(&a, &b)),
            (
                naive.matmul_transpose(&a, &bt),
                tiled.matmul_transpose(&a, &bt),
            ),
            (
                naive.transpose_matmul(&a, &ta),
                tiled.transpose_matmul(&a, &ta),
            ),
        ] {
            let (x, y) = (x.unwrap(), y.unwrap());
            assert_eq!(x.shape(), y.shape());
            for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn backends_report_shape_errors() {
        let a = Matrix::zeros(2, 3);
        let bad = Matrix::zeros(5, 7);
        let mut out = Matrix::default();
        for kind in [MatmulBackendKind::Naive, MatmulBackendKind::Tiled] {
            let backend = kind.as_dyn();
            assert!(backend.matmul_into(&a, &bad, &mut out).is_err());
            assert!(backend.matmul_transpose_into(&a, &bad, &mut out).is_err());
            assert!(backend.transpose_matmul_into(&a, &bad, &mut out).is_err());
        }
    }
}
