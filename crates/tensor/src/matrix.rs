use std::fmt;
use std::ops::{Index, IndexMut};

use crate::ShapeError;

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the workhorse of the workspace: model parameters, activations
/// and datasets are all stored as matrices. A matrix with a single row doubles
/// as a vector; helpers such as [`Matrix::row`] return plain slices so that
/// callers can use ordinary iterator code.
///
/// # Example
///
/// ```
/// use dagfl_tensor::Matrix;
///
/// # fn main() -> Result<(), dagfl_tensor::ShapeError> {
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix where every entry is `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows differ in length.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(ShapeError::new("from_rows", (r, c), (1, row.len())));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Creates a matrix whose entry `(r, c)` is `f(r, c)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over the rows as slices.
    fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Reshapes this matrix to `rows x cols`, reusing the existing
    /// allocation where possible. All entries are reset to zero.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns a new matrix keeping only the rows with the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Blocked matrix multiplication `self * other` into a reusable
    /// output buffer.
    ///
    /// This is the inference-path kernel: `out` is reshaped (reusing its
    /// allocation) instead of freshly allocated, and column tiles of
    /// accumulators stay in SIMD registers across the whole `k` loop
    /// instead of re-reading and re-writing the output row per `k`. Per
    /// output cell the terms are accumulated in exactly the same
    /// ascending-`k` order as [`NaiveBackend`](crate::NaiveBackend),
    /// including its zero-LHS skip, so results match the naive kernel —
    /// which serves as the reference oracle in the property tests —
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new("matmul_into", self.shape(), other.shape()));
        }
        matmul_slice_kernel(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            out,
        );
        Ok(())
    }

    /// [`Matrix::matmul_into`] with the right-hand side given as a raw
    /// row-major slice of width `rhs_cols` (so `rhs.len() / rhs_cols`
    /// rows).
    ///
    /// This is the zero-copy inference kernel: candidate model
    /// parameters arrive as flat `Vec<f32>` payloads, and evaluating
    /// them directly from the payload slice skips the
    /// `set_parameters` round-trip (a full copy of the weights) per
    /// candidate. Results are bit-identical to materialising the slice
    /// as a [`Matrix`] first.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `rhs_cols` is zero, `rhs.len()` is not
    /// a multiple of `rhs_cols`, or the row count does not match
    /// `self.cols()`. When the slice has no `rows x rhs_cols`
    /// interpretation at all (zero width or a length that is not a
    /// multiple of the width), the error reports the flat input as a
    /// `1 x len` slice instead of inventing a rounded-down shape.
    pub fn matmul_slice_into(
        &self,
        rhs: &[f32],
        rhs_cols: usize,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if rhs_cols == 0 || rhs.len() % rhs_cols != 0 {
            return Err(ShapeError::new(
                "matmul_slice_into",
                self.shape(),
                (1, rhs.len()),
            ));
        }
        if rhs.len() / rhs_cols != self.cols {
            return Err(ShapeError::new(
                "matmul_slice_into",
                self.shape(),
                (rhs.len() / rhs_cols, rhs_cols),
            ));
        }
        matmul_slice_kernel(&self.data, self.rows, self.cols, rhs, rhs_cols, out);
        Ok(())
    }

    /// Blocked transposed-RHS matrix multiplication `self * other^T`
    /// into a reusable output buffer.
    ///
    /// The counterpart of [`Matrix::matmul_into`] for a right-hand side
    /// stored row-major in transposed layout (each RHS *row* is a column
    /// of the product). The per-cell dot product is a serial `f32`
    /// dependency chain that no amount of unrolling can vectorise, so
    /// this kernel first materialises the RHS transpose into a
    /// thread-local scratch buffer with [`Matrix::transpose_into`]
    /// (reused across calls — steady-state training performs no
    /// allocation here) and then runs the cache-friendly axpy loop over
    /// contiguous transposed rows. That transpose is paid on every call,
    /// so it suits a caller that multiplies by a weight once per batch —
    /// `Dense`, its one caller — while the GRU, which would pay it at every
    /// timestep, transposes its weights once per backward pass and calls
    /// [`Matrix::matmul_into`] instead. Per
    /// output cell the terms are still added through a single
    /// accumulator in ascending index order — only the loop nesting
    /// changes, not the operand values or their order — so every output
    /// bit matches [`NaiveBackend`](crate::NaiveBackend), the naive
    /// reference oracle (which, like this kernel, applies no zero-entry
    /// skip).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.cols()`.
    pub fn matmul_transpose_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if self.cols != other.cols {
            return Err(ShapeError::new(
                "matmul_transpose_into",
                self.shape(),
                other.shape(),
            ));
        }
        thread_local! {
            static TRANSPOSED: std::cell::RefCell<Matrix> =
                std::cell::RefCell::new(Matrix::default());
        }
        let n = other.rows;
        let d = self.cols;
        out.reset(self.rows, n);
        TRANSPOSED.with(|cell| {
            let mut scratch = cell.borrow_mut();
            other.transpose_into(&mut scratch);
            for i in 0..self.rows {
                let a_row = &self.data[i * d..(i + 1) * d];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (t, &a) in a_row.iter().enumerate() {
                    let b_row = &scratch.data[t * n..(t + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        });
        Ok(())
    }

    /// Applies `f` to every entry of `self`, writing the result into a
    /// reusable output buffer (reshaped to `self`'s shape).
    pub fn map_into<F: Fn(f32) -> f32>(&self, out: &mut Matrix, f: F) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&v| f(v)));
    }

    /// Tiled matrix multiplication of the transpose of `self` with
    /// `other` — `self^T * other` — into a reusable output buffer.
    ///
    /// This is the grad-weight shape of the training backward pass
    /// (`input^T * grad_output`, with the small batch dimension as the
    /// contraction). The naive kernel walks `k` in the outer loop and
    /// streams the *entire* output matrix through the cache once per
    /// `k`; this kernel blocks the output rows so a 32-row band of the
    /// output (plus the whole RHS) stays L1-resident across the full
    /// `k` loop, turning the dominant traffic into L1 hits while the
    /// wide row accumulate vectorises exactly as in the naive form.
    /// Per cell the terms are accumulated in the same ascending-`k`
    /// order with the same per-entry zero-LHS skip as
    /// [`NaiveBackend`](crate::NaiveBackend), which stays in-tree as the
    /// bit-exactness oracle of the property tests.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.rows() != other.rows()`.
    pub fn transpose_matmul_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShapeError> {
        if self.rows != other.rows {
            return Err(ShapeError::new(
                "transpose_matmul_into",
                self.shape(),
                other.shape(),
            ));
        }
        const ROW_BLOCK: usize = 32;
        let (k_len, m, n) = (self.rows, self.cols, other.cols);
        out.reset(m, n);
        let mut i0 = 0;
        while i0 < m {
            let ib = (m - i0).min(ROW_BLOCK);
            let band = &mut out.data[i0 * n..(i0 + ib) * n];
            for k in 0..k_len {
                let a_seg = &self.data[k * m + i0..k * m + i0 + ib];
                let b_row = &other.data[k * n..(k + 1) * n];
                for (out_row, &av) in band.chunks_exact_mut(n.max(1)).zip(a_seg) {
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            i0 += ib;
        }
        Ok(())
    }

    /// Copies `src` into `self` (shape and contents), reusing the
    /// existing allocation where possible.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Sums over the rows into a reusable `1 x cols` output buffer,
    /// accumulating rows top to bottom.
    pub fn column_sums_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        for row in self.rows_iter() {
            for (s, &v) in out.data.iter_mut().zip(row) {
                *s += v;
            }
        }
    }

    /// Applies `f` element-wise over `self` and `other`, writing the
    /// result into a reusable output buffer (`|a, b| a * b` is the
    /// Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn zip_into<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        f: F,
    ) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("zip_into", self.shape(), other.shape()));
        }
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Ok(())
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of this matrix into a reusable output buffer
    /// (reshaped to `cols x rows`, reusing its allocation).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        for (r, row) in self.rows_iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("add_assign", self.shape(), other.shape()));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += scale * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "add_scaled_assign",
                self.shape(),
                other.shape(),
            ));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Multiplies every entry by `scale` in place.
    pub fn scale_assign(&mut self, scale: f32) {
        for v in &mut self.data {
            *v *= scale;
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `bias` (a length-`cols` slice) to every row in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) -> Result<(), ShapeError> {
        if bias.len() != self.cols {
            return Err(ShapeError::new(
                "add_row_broadcast",
                self.shape(),
                (1, bias.len()),
            ));
        }
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(())
    }

    /// The sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns `true` if every entry is finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference to `other`; `None` if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f32> {
        if self.shape() != other.shape() {
            return None;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(None, |acc, d| Some(acc.map_or(d, |m: f32| m.max(d))))
            .or(Some(0.0))
    }
}

/// The register-tiled matmul kernel shared by [`Matrix::matmul_into`]
/// and [`Matrix::matmul_slice_into`]: `out = a * b`, with `a` of shape
/// `m x k` and `b` of shape `k x n`, all row-major.
///
/// A cascade of fixed-width column tiles (64 → 32 → 8 → narrow tail)
/// keeps the accumulators in SIMD registers across the whole `k` loop,
/// so the streamed RHS row costs one load per multiply-add and the
/// output is written exactly once. Per output cell the terms are
/// accumulated in ascending-`k` order with a single accumulator and the
/// naive kernel's zero-LHS skip — [`NaiveBackend`](crate::NaiveBackend)'s
/// results, bit-for-bit, for every input including non-finite entries.
fn matmul_slice_kernel(a: &[f32], m: usize, k_len: usize, b: &[f32], n: usize, out: &mut Matrix) {
    out.reset(m, n);
    if n <= 16 {
        // Narrow outputs (classifier heads, linear models): the whole
        // output row fits one accumulator tile, so amortise each RHS
        // row load over four LHS rows instead of re-slicing per row.
        // The `av != 0.0` skip mirrors the naive kernel exactly (and
        // pays for itself: ReLU activations are frequently zero).
        let mut i = 0;
        while i + 4 <= m {
            let a_rows = [
                &a[i * k_len..(i + 1) * k_len],
                &a[(i + 1) * k_len..(i + 2) * k_len],
                &a[(i + 2) * k_len..(i + 3) * k_len],
                &a[(i + 3) * k_len..(i + 4) * k_len],
            ];
            let mut acc = [[0.0f32; 16]; 4];
            for k in 0..k_len {
                let b_tile = &b[k * n..(k + 1) * n];
                for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                    let av = a_row[k];
                    if av == 0.0 {
                        continue;
                    }
                    for (c, &bv) in acc_row[..n].iter_mut().zip(b_tile) {
                        *c += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out.data[(i + r) * n..(i + r + 1) * n].copy_from_slice(&acc_row[..n]);
            }
            i += 4;
        }
        for i in i..m {
            let a_row = &a[i * k_len..(i + 1) * k_len];
            let mut acc = [0.0f32; 16];
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_tile = &b[k * n..(k + 1) * n];
                for (c, &bv) in acc[..n].iter_mut().zip(b_tile) {
                    *c += av * bv;
                }
            }
            out.data[i * n..(i + 1) * n].copy_from_slice(&acc[..n]);
        }
        return;
    }
    let mut i = 0;
    while i < m {
        // Four dense LHS rows at a time: each streamed RHS row is
        // reused across all four, quartering RHS cache traffic (the
        // bound at realistic batch sizes). The zero scan decides the
        // loop shape: dense rows (the common case for image inputs)
        // take the branchless block; rows with zeros fall back to the
        // single-row path with the naive kernel's zero-skip, which both
        // preserves its exact semantics (a zero times a non-finite
        // weight contributes nothing) and saves work on sparse
        // activations.
        if i + 4 <= m {
            let rows = [
                &a[i * k_len..(i + 1) * k_len],
                &a[(i + 1) * k_len..(i + 2) * k_len],
                &a[(i + 2) * k_len..(i + 3) * k_len],
                &a[(i + 3) * k_len..(i + 4) * k_len],
            ];
            if rows.iter().all(|r| !r.contains(&0.0)) {
                matmul_rows4(rows, b, n, &mut out.data[i * n..(i + 4) * n]);
                i += 4;
                continue;
            }
        }
        let a_row = &a[i * k_len..(i + 1) * k_len];
        let has_zero = a_row.contains(&0.0);
        matmul_row1(a_row, b, n, &mut out.data[i * n..(i + 1) * n], has_zero);
        i += 1;
    }
}

/// Four dense (zero-free) LHS rows against the full RHS: 16-wide column
/// tiles whose 4 x 16 accumulators stay in registers, with each RHS row
/// loaded once per tile and reused across all four LHS rows (RHS cache
/// traffic is the bound at realistic batch sizes).
fn matmul_rows4(rows: [&[f32]; 4], b: &[f32], n: usize, out4: &mut [f32]) {
    let [r0, r1, r2, r3] = rows;
    let mut j0 = 0;
    while j0 + 16 <= n {
        let mut acc0 = [0.0f32; 16];
        let mut acc1 = [0.0f32; 16];
        let mut acc2 = [0.0f32; 16];
        let mut acc3 = [0.0f32; 16];
        for k in 0..r0.len() {
            let b_tile = &b[k * n + j0..k * n + j0 + 16];
            let (a0, a1, a2, a3) = (r0[k], r1[k], r2[k], r3[k]);
            for j in 0..16 {
                let bv = b_tile[j];
                acc0[j] += a0 * bv;
                acc1[j] += a1 * bv;
                acc2[j] += a2 * bv;
                acc3[j] += a3 * bv;
            }
        }
        out4[j0..j0 + 16].copy_from_slice(&acc0);
        out4[n + j0..n + j0 + 16].copy_from_slice(&acc1);
        out4[2 * n + j0..2 * n + j0 + 16].copy_from_slice(&acc2);
        out4[3 * n + j0..3 * n + j0 + 16].copy_from_slice(&acc3);
        j0 += 16;
    }
    if j0 < n {
        // Column tail (< 16): per-row accumulator tiles.
        let w = n - j0;
        for (r, a_row) in rows.iter().enumerate() {
            let mut acc = [0.0f32; 16];
            for (k, &av) in a_row.iter().enumerate() {
                let b_tile = &b[k * n + j0..k * n + j0 + w];
                for (c, &bv) in acc[..w].iter_mut().zip(b_tile) {
                    *c += av * bv;
                }
            }
            out4[r * n + j0..(r + 1) * n].copy_from_slice(&acc[..w]);
        }
    }
}

/// One LHS row against the full RHS: the 64/32/8-wide tile cascade plus
/// a narrow tail, skipping zero LHS entries when the row has any.
fn matmul_row1(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32], has_zero: bool) {
    let mut j0 = 0;
    while j0 + 64 <= n {
        matmul_tile::<64>(a_row, b, n, j0, out_row, has_zero);
        j0 += 64;
    }
    while j0 + 32 <= n {
        matmul_tile::<32>(a_row, b, n, j0, out_row, has_zero);
        j0 += 32;
    }
    while j0 + 8 <= n {
        matmul_tile::<8>(a_row, b, n, j0, out_row, has_zero);
        j0 += 8;
    }
    if j0 < n {
        // Tail of fewer than 8 columns: registers still hold the
        // accumulators, the same ascending-`k` order applies.
        let w = n - j0;
        let mut acc = [0.0f32; 8];
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_tile = &b[k * n + j0..k * n + j0 + w];
            for (c, &bv) in acc[..w].iter_mut().zip(b_tile) {
                *c += av * bv;
            }
        }
        out_row[j0..].copy_from_slice(&acc[..w]);
    }
}

/// One `W`-wide column tile of [`matmul_slice_kernel`]: `W` accumulators
/// held in registers over the full `k` loop.
#[inline]
fn matmul_tile<const W: usize>(
    a_row: &[f32],
    b: &[f32],
    n: usize,
    j0: usize,
    out_row: &mut [f32],
    has_zero: bool,
) {
    let mut acc = [0.0f32; W];
    if has_zero {
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_tile = &b[k * n + j0..k * n + j0 + W];
            for (c, &bv) in acc.iter_mut().zip(b_tile) {
                *c += av * bv;
            }
        }
    } else {
        for (k, &av) in a_row.iter().enumerate() {
            let b_tile = &b[k * n + j0..k * n + j0 + W];
            for (c, &bv) in acc.iter_mut().zip(b_tile) {
                *c += av * bv;
            }
        }
    }
    out_row[j0..j0 + W].copy_from_slice(&acc);
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_ROWS: usize = 8;
        for (i, row) in self.rows_iter().take(MAX_ROWS).enumerate() {
            if row.len() <= 12 {
                writeln!(f, "  row {i}: {row:?}")?;
            } else {
                writeln!(f, "  row {i}: {:?} ...", &row[..12])?;
            }
        }
        if self.rows > MAX_ROWS {
            writeln!(f, "  ... ({} more rows)", self.rows - MAX_ROWS)?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatmulBackend, NaiveBackend, TiledBackend};

    #[test]
    fn zeros_has_expected_shape_and_values() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(NaiveBackend.matmul(&a, &i).unwrap(), a);
        assert_eq!(NaiveBackend.matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = NaiveBackend.matmul(&a, &b).unwrap();
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(NaiveBackend.matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.5);
        let fast = TiledBackend.matmul_transpose(&a, &b).unwrap();
        let slow = NaiveBackend.matmul(&a, &b.transpose()).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-6);
    }

    #[test]
    fn matmul_into_matches_naive_and_reuses_buffers() {
        let a = Matrix::from_fn(13, 9, |r, c| ((r * 9 + c) as f32 - 50.0) * 0.25);
        let b = Matrix::from_fn(9, 21, |r, c| ((r + 3 * c) as f32 - 20.0) * 0.5);
        let naive = NaiveBackend.matmul(&a, &b).unwrap();
        // A dirty, wrongly shaped output buffer must be reshaped and
        // fully overwritten.
        let mut out = Matrix::filled(2, 2, 99.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, naive);
    }

    #[test]
    fn matmul_into_handles_zero_entries_like_naive() {
        // Both kernels skip zero LHS entries; results must agree exactly
        // on sparse input.
        let a = Matrix::from_fn(5, 7, |r, c| if (r + c) % 3 == 0 { 0.0 } else { 1.5 });
        let b = Matrix::from_fn(7, 4, |r, c| (r * 4 + c) as f32 * 0.1 - 1.0);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, NaiveBackend.matmul(&a, &b).unwrap());
    }

    #[test]
    fn matmul_into_matches_naive_for_non_finite_rhs() {
        // A diverged candidate model can carry inf/NaN weights; the
        // zero-LHS skip means a zero input times an inf weight stays
        // skipped in both kernels, so even these results are identical.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 3.0]]).unwrap();
        let mut weights = Matrix::from_fn(3, 20, |r, c| (r * 20 + c) as f32 * 0.5);
        weights[(0, 0)] = f32::INFINITY;
        weights[(2, 19)] = f32::NAN;
        let naive = NaiveBackend.matmul(&a, &weights).unwrap();
        let mut blocked = Matrix::default();
        a.matmul_into(&weights, &mut blocked).unwrap();
        for (x, y) in naive.as_slice().iter().zip(blocked.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{naive:?} vs {blocked:?}");
        }
    }

    #[test]
    fn matmul_slice_into_matches_matrix_rhs() {
        let a = Matrix::from_fn(7, 65, |r, c| ((r * 65 + c) as f32).sin());
        let b = Matrix::from_fn(65, 74, |r, c| ((r + c) as f32).cos());
        let mut via_matrix = Matrix::default();
        a.matmul_into(&b, &mut via_matrix).unwrap();
        let mut via_slice = Matrix::default();
        a.matmul_slice_into(b.as_slice(), b.cols(), &mut via_slice)
            .unwrap();
        assert_eq!(via_matrix, via_slice);
        assert_eq!(via_matrix, NaiveBackend.matmul(&a, &b).unwrap());
    }

    #[test]
    fn matmul_slice_into_rejects_bad_slices() {
        let a = Matrix::zeros(2, 3);
        let mut out = Matrix::default();
        assert!(a.matmul_slice_into(&[0.0; 6], 0, &mut out).is_err());
        assert!(a.matmul_slice_into(&[0.0; 7], 2, &mut out).is_err());
        assert!(a.matmul_slice_into(&[0.0; 8], 2, &mut out).is_err());
        assert!(a.matmul_slice_into(&[0.0; 6], 2, &mut out).is_ok());
    }

    #[test]
    fn matmul_slice_into_reports_the_actual_invalid_input() {
        // Regression: a zero-width RHS used to be reported as
        // `(rhs.len(), 0)` via a `max(1)` division fallback — a shape
        // with zero elements that nobody passed. Undescribable slices
        // (zero width or a length that is no multiple of the width)
        // are now reported as the flat `1 x len` input itself.
        let a = Matrix::zeros(2, 3);
        let mut out = Matrix::default();
        let err = a.matmul_slice_into(&[0.0; 6], 0, &mut out).unwrap_err();
        assert_eq!(err.op(), "matmul_slice_into");
        assert_eq!(err.lhs(), (2, 3));
        assert_eq!(err.rhs(), (1, 6));
        let err = a.matmul_slice_into(&[0.0; 7], 2, &mut out).unwrap_err();
        assert_eq!(err.rhs(), (1, 7));
        // A clean division that merely disagrees on the row count still
        // reports the implied rows x cols shape.
        let err = a.matmul_slice_into(&[0.0; 8], 2, &mut out).unwrap_err();
        assert_eq!(err.rhs(), (4, 2));
    }

    #[test]
    fn transpose_matmul_into_matches_naive_bitwise() {
        // Sparse LHS so the per-(k, i) zero skip is exercised; the
        // tiled kernel must reproduce the naive accumulation exactly.
        let a = Matrix::from_fn(9, 21, |r, c| {
            if (r + c) % 4 == 0 {
                0.0
            } else {
                ((r * 21 + c) as f32).sin()
            }
        });
        let b = Matrix::from_fn(9, 35, |r, c| ((r + 2 * c) as f32).cos());
        let naive = NaiveBackend.transpose_matmul(&a, &b).unwrap();
        let mut tiled = Matrix::filled(2, 2, 9.0); // dirty buffer on purpose
        a.transpose_matmul_into(&b, &mut tiled).unwrap();
        assert_eq!(tiled.shape(), naive.shape());
        for (x, y) in naive.as_slice().iter().zip(tiled.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let bad = Matrix::zeros(4, 5);
        assert!(a.transpose_matmul_into(&bad, &mut tiled).is_err());
    }

    #[test]
    fn naive_into_variants_match_their_allocating_forms() {
        let a = Matrix::from_fn(6, 11, |r, c| if c % 3 == 0 { 0.0 } else { (r + c) as f32 });
        let b = Matrix::from_fn(11, 9, |r, c| (r * 9 + c) as f32 * 0.1 - 4.0);
        let bt = Matrix::from_fn(9, 11, |r, c| ((r * 11 + c) as f32).sin());
        let ta = Matrix::from_fn(6, 9, |r, c| if r % 2 == 0 { 0.0 } else { (r * c) as f32 });
        // A dirty, wrongly shaped buffer is reshaped and fully overwritten.
        let mut out = Matrix::filled(1, 1, 5.0);
        NaiveBackend.matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out, NaiveBackend.matmul(&a, &b).unwrap());
        NaiveBackend
            .matmul_transpose_into(&a, &bt, &mut out)
            .unwrap();
        assert_eq!(out, NaiveBackend.matmul_transpose(&a, &bt).unwrap());
        NaiveBackend
            .transpose_matmul_into(&a, &ta, &mut out)
            .unwrap();
        assert_eq!(out, NaiveBackend.transpose_matmul(&a, &ta).unwrap());
        let bad = Matrix::zeros(3, 2);
        assert!(NaiveBackend.matmul_into(&a, &bad, &mut out).is_err());
        assert!(NaiveBackend
            .matmul_transpose_into(&a, &bad, &mut out)
            .is_err());
        assert!(NaiveBackend
            .transpose_matmul_into(&a, &bad, &mut out)
            .is_err());
    }

    #[test]
    fn copy_from_reuses_the_allocation() {
        let src = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let mut dst = Matrix::filled(9, 9, 1.0);
        let ptr = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.as_slice().as_ptr(),
            ptr,
            "copy_from must not reallocate"
        );
    }

    #[test]
    fn column_sums_into_matches_column_sums() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 * 0.5 - 8.0);
        let mut out = Matrix::filled(2, 2, 3.0);
        m.column_sums_into(&mut out);
        assert_eq!(out.shape(), (1, 7));
        let sums: Vec<f32> = (0..7).map(|c| (0..5).map(|r| m[(r, c)]).sum()).collect();
        assert_eq!(out.as_slice(), sums.as_slice());
    }

    #[test]
    fn zip_into_matches_hadamard() {
        let a = Matrix::from_fn(4, 6, |r, c| (r + c) as f32 - 3.0);
        let b = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f32 * 0.25);
        let mut out = Matrix::default();
        a.zip_into(&b, &mut out, |x, y| x * y).unwrap();
        assert_eq!(out, Matrix::from_fn(4, 6, |r, c| a[(r, c)] * b[(r, c)]));
        let bad = Matrix::zeros(2, 2);
        assert!(a.zip_into(&bad, &mut out, |x, y| x + y).is_err());
    }

    #[test]
    fn matmul_into_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::default();
        assert!(a.matmul_into(&b, &mut out).is_err());
    }

    #[test]
    fn matmul_transpose_into_matches_naive() {
        let a = Matrix::from_fn(11, 6, |r, c| (r * 6 + c) as f32 * 0.3 - 5.0);
        let b = Matrix::from_fn(17, 6, |r, c| ((r + c) as f32).sin());
        let naive = NaiveBackend.matmul_transpose(&a, &b).unwrap();
        let mut out = Matrix::filled(1, 1, -1.0);
        a.matmul_transpose_into(&b, &mut out).unwrap();
        assert_eq!(out, naive);
        let bad = Matrix::zeros(4, 5);
        assert!(a.matmul_transpose_into(&bad, &mut out).is_err());
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = Matrix::filled(2, 3, 7.0);
        m.reset(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn map_into_matches_map() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 - 7.0);
        let mut out = Matrix::filled(1, 9, 3.0);
        m.map_into(&mut out, |v| v.max(0.0));
        assert_eq!(out, Matrix::from_fn(3, 5, |r, c| m[(r, c)].max(0.0)));
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(4, 5, |r, c| (r + 2 * c) as f32 * 0.25);
        let fast = NaiveBackend.transpose_matmul(&a, &b).unwrap();
        let slow = NaiveBackend.matmul(&a.transpose(), &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-6);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 31 + c * 7) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 2, |r, c| (r * c) as f32 + 1.0);
        let mut back = a.clone();
        back.add_assign(&b).unwrap();
        back.add_scaled_assign(&b, -1.0).unwrap();
        assert!(back.max_abs_diff(&a).unwrap() < 1e-6);
        assert!(back.add_assign(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn hadamard_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let mut h = Matrix::default();
        a.zip_into(&b, &mut h, |x, y| x * y).unwrap();
        assert_eq!(
            h,
            Matrix::from_rows(&[&[5.0, 12.0], &[21.0, 32.0]]).unwrap()
        );
    }

    #[test]
    fn add_scaled_assign_is_axpy() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_scaled_assign(&b, 0.5).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn row_broadcast_adds_bias_to_every_row() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -1.0]).unwrap();
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn row_broadcast_rejects_wrong_length() {
        let mut m = Matrix::zeros(3, 2);
        assert!(m.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn column_sums_known_values() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let mut sums = Matrix::default();
        m.column_sums_into(&mut sums);
        assert_eq!(sums.as_slice(), &[9.0, 12.0]);
    }

    #[test]
    fn select_rows_picks_and_reorders() {
        let m = Matrix::from_fn(4, 2, |r, _| r as f32);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_validates_ragged_input() {
        let a: &[f32] = &[1.0, 2.0];
        let b: &[f32] = &[3.0];
        assert!(Matrix::from_rows(&[a, b]).is_err());
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f32::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn max_abs_diff_none_for_shape_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert_eq!(a.max_abs_diff(&b), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m[(1, 0)];
    }

    #[test]
    fn scale_and_map_agree() {
        let mut scaled = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let mut mapped = scaled.clone();
        scaled.scale_assign(2.0);
        mapped.map_in_place(|v| v * 2.0);
        assert_eq!(scaled, mapped);
    }

    #[test]
    fn debug_output_is_never_empty() {
        let m = Matrix::zeros(0, 0);
        assert!(!format!("{m:?}").is_empty());
    }
}
