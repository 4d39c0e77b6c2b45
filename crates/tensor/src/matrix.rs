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

    /// Matrix multiplication `self * other` into a reusable output
    /// buffer, on the register-tiled kernel every product here shares:
    /// bit-identical to [`NaiveBackend`](crate::NaiveBackend), the oracle
    /// of the property tests, including its zero-LHS skip.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new("matmul_into", self.shape(), other.shape()));
        }
        product(
            RowMajor(&self.data),
            self.shape(),
            &other.data,
            other.cols,
            true,
            out,
        );
        Ok(())
    }

    /// [`Matrix::matmul_into`] with the right-hand side given as a raw
    /// row-major slice of width `rhs_cols`: the same product kernel reads
    /// a candidate model's flat parameter payload in place, with no
    /// `set_parameters` copy, bit-identical to materialising it first.
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
        product(RowMajor(&self.data), self.shape(), rhs, rhs_cols, true, out);
        Ok(())
    }

    /// Matrix multiplication with a transposed right-hand side,
    /// `self * other^T`, into a reusable output buffer.
    ///
    /// The RHS is transposed into a reused thread-local scratch, which the
    /// kernel of [`Matrix::matmul_into`] then reads. That transpose is paid
    /// per call, which suits `Dense` (one product per weight and batch);
    /// the GRU transposes its weights once per backward pass and calls
    /// [`Matrix::matmul_into`]. Bit-identical to
    /// [`NaiveBackend`](crate::NaiveBackend), which skips no zero entry.
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
        TRANSPOSED.with(|cell| {
            let mut bt = cell.borrow_mut();
            other.transpose_into(&mut bt);
            product(
                RowMajor(&self.data),
                self.shape(),
                &bt.data,
                bt.cols,
                false,
                out,
            );
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

    /// Matrix multiplication of the transpose of `self` with `other`,
    /// `self^T * other`, into a reusable output buffer.
    ///
    /// The grad-weight shape (`input^T * grad_output`); the product kernel
    /// reads `self` column-major in place, no transpose made.
    /// Bit-identical to [`NaiveBackend`](crate::NaiveBackend), including
    /// its zero-LHS skip.
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
        let lhs = ColMajor(&self.data, self.cols);
        product(
            lhs,
            (self.cols, self.rows),
            &other.data,
            other.cols,
            true,
            out,
        );
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

/// Whether a block of LHS entries holds no zero, some, or only zeros.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Zeros {
    None,
    Some,
    All,
}

impl Zeros {
    /// Classifies the entries of `chunks` by their magnitude bits, zero
    /// exactly for `±0.0` (a NaN is not zero), stopping after the first
    /// chunk that settles `Some` (so a short first chunk pays off on
    /// sparse blocks). No entries at all count as `All`.
    #[inline(always)]
    fn of<'a>(chunks: impl Iterator<Item = &'a [f32]>) -> Zeros {
        let (mut lo, mut hi) = (u32::MAX, 0);
        for chunk in chunks {
            for v in chunk {
                lo = lo.min(v.to_bits() & !(1 << 31));
                hi = hi.max(v.to_bits() & !(1 << 31));
            }
            if lo == 0 && hi != 0 {
                return Zeros::Some;
            }
        }
        match hi {
            0 => Zeros::All,
            _ => Zeros::None,
        }
    }
}

/// The `m x k` left operand as the tile reads it: [`RowMajor`] for `A·B`
/// and `A·Bᵀ`, [`ColMajor`] for `Aᵀ·B`'s stored `k x m` operand.
trait Lhs: Copy {
    /// Step `k` (below `k_len`) to entries `(i..i + R, k)`.
    fn rows<const R: usize>(self, i: usize, k_len: usize) -> impl Fn(usize) -> [f32; R] + Copy;

    /// Which of entries `(i..i + rows, 0..k_len)` are zero.
    fn zeros(self, i: usize, rows: usize, k_len: usize) -> Zeros;
}

/// A row-major LHS: entry `(i, k)` at `data[i * k_len + k]`.
#[derive(Clone, Copy)]
struct RowMajor<'a>(&'a [f32]);

impl Lhs for RowMajor<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, i: usize, k_len: usize) -> impl Fn(usize) -> [f32; R] + Copy {
        let mut rows: [&[f32]; R] = [&[]; R];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = &self.0[(i + r) * k_len..][..k_len];
        }
        move |k| std::array::from_fn(|r| rows[r][k])
    }

    fn zeros(self, i: usize, rows: usize, k_len: usize) -> Zeros {
        let block = &self.0[i * k_len..][..rows * k_len];
        let (head, rest) = block.split_at(block.len().min(16));
        Zeros::of([head].into_iter().chain(rest.chunks(256)))
    }
}

/// A column-major LHS of `m` rows: entry `(i, k)` at `data[k * m + i]`,
/// so the entries a tile takes at one step `k` are contiguous.
#[derive(Clone, Copy)]
struct ColMajor<'a>(&'a [f32], usize);

impl Lhs for ColMajor<'_> {
    #[inline(always)]
    fn rows<const R: usize>(self, i: usize, _: usize) -> impl Fn(usize) -> [f32; R] + Copy {
        let ColMajor(data, m) = self;
        move |k| data[k * m + i..][..R].try_into().expect("R entries")
    }

    fn zeros(self, i: usize, rows: usize, k_len: usize) -> Zeros {
        let ColMajor(data, m) = self;
        let steps = data.chunks_exact(m.max(1)).take(k_len);
        Zeros::of(steps.map(|step| &step[i..i + rows]))
    }
}

/// How one 8- or 16-wide tile reads the `n % 16` last columns of the
/// row-major `k_len x n` RHS `b`: rows `0..k_in` in place, each read
/// running on into the next row (columns it never writes out), and the
/// last rows (under 8, as a `W`-wide read overruns by `W - w < 8` values),
/// whose read would run off the end of `b`, from `pad`, zero-padded.
fn tail<'a>(b: &[f32], k_len: usize, n: usize, pad: &'a mut [f32]) -> (usize, &'a [f32]) {
    let (full, w) = (n - n % 16, n % 16);
    let width = if w <= 8 { 8 } else { 16 };
    let k_in = (b.len() + n).saturating_sub(full + width) / n;
    for (row, k) in pad.chunks_exact_mut(width).zip(k_in..k_len) {
        row[..w].copy_from_slice(&b[full + k * n..][..w]);
    }
    (k_in, &pad[..(k_len - k_in) * width])
}

/// The one product kernel: `out = lhs * b` for an `m x k_len` left
/// operand and a row-major `k_len x n` matrix `b`.
///
/// Register tiles of 4 LHS rows x 16 columns (a lone row: 64, 32, 16,
/// as many independent accumulator chains) hold their accumulators over
/// the whole `k` loop and write the output once; the `n % 16` last
/// columns run one 8- or 16-wide tile ([`tail`]).
///
/// Bit-identity with [`NaiveBackend`](crate::NaiveBackend): every output
/// cell keeps one `f32` accumulator that starts at `+0.0` and adds
/// `a * b` in ascending `k`, and Rust never contracts a multiply and an
/// add into an FMA, so only the loop nesting differs. `A·Bᵀ` skips
/// nothing, as its oracle. `A·B` and `Aᵀ·B` (`skip_zeros`) skip a zero
/// LHS entry where the oracle does: an all-zero 4-row group stays `+0.0`,
/// any other runs branch-free. That is exact with zeros too: the
/// accumulator never becomes `-0.0`, so a `±0` product adds nothing, and
/// the one term that differs, `0 * inf` or `0 * NaN`, is a NaN that stays
/// in its accumulator, so only a group with a NaN output is redone row by
/// row (each row branch-free, `+0.0`, or the tile with a per-`k` skip).
/// Where `n % 64 == 0` and `k > 32` mixed groups go row by row at once,
/// in 64-wide tiles (as many chains as 4 rows): against branch-free (10
/// rows, `k` 33–196, `n` 64–256) 0.94–1.21x at a third zeros, 1.09–1.36x
/// at half; 0.93–1.02x at `n = 64`, `k` 8–32; 0.57–1.02x at other `n` ≤ 96.
fn product(
    lhs: impl Lhs,
    (m, k_len): (usize, usize),
    b: &[f32],
    n: usize,
    skip_zeros: bool,
    out: &mut Matrix,
) {
    out.reset(m, n);
    let zeros = |i, rows| match skip_zeros {
        true => lhs.zeros(i, rows, k_len),
        false => Zeros::None,
    };
    let whole = zeros(0, m);
    let mut pad = None;
    let tail = match n % 16 {
        0 => (k_len, &[][..]),
        _ => tail(b, k_len, n, pad.insert([0.0f32; 8 * 16])),
    };
    let mut i = 0;
    while i < m && n > 0 {
        let rows = if m - i >= 4 { 4 } else { 1 };
        let group = match whole {
            Zeros::Some if rows < m => zeros(i, rows),
            _ => whole,
        };
        let out_rows = &mut out.data[i * n..(i + rows) * n];
        i += rows;
        match (rows, group) {
            (_, Zeros::All) => continue,
            (4, _) if group == Zeros::None || n % 64 != 0 || k_len <= 32 => {
                columns::<4, false>(lhs.rows(i - 4, k_len), k_len, b, n, tail, out_rows);
                if group == Zeros::None || !out_rows.iter().fold(false, |nan, v| nan | v.is_nan()) {
                    continue;
                }
            }
            _ => {}
        }
        for (r, out_row) in (i - rows..i).zip(out_rows.chunks_exact_mut(n)) {
            let at = lhs.rows::<1>(r, k_len);
            match if rows == 1 { group } else { zeros(r, 1) } {
                Zeros::All => out_row.fill(0.0),
                Zeros::None => columns::<1, false>(at, k_len, b, n, tail, out_row),
                Zeros::Some => columns::<1, true>(at, k_len, b, n, tail, out_row),
            }
        }
    }
}

/// Every column tile of the `R` output rows whose LHS entries `at` reads.
#[inline(always)]
fn columns<const R: usize, const SKIP: bool>(
    at: impl Fn(usize) -> [f32; R] + Copy,
    k_len: usize,
    b: &[f32],
    n: usize,
    (k_in, pad): (usize, &[f32]),
    out: &mut [f32],
) {
    let full = n - n % 16;
    let mut j = 0;
    while R == 1 && j + 64 <= full {
        let b_rows = b.chunks_exact(n).map(|row| &row[j..j + 64]);
        tile::<R, 64, SKIP>(at, k_len, (b_rows, k_len, &[]), &mut out[j..], n, 64);
        j += 64;
    }
    while R == 1 && j + 32 <= full {
        let b_rows = b.chunks_exact(n).map(|row| &row[j..j + 32]);
        tile::<R, 32, SKIP>(at, k_len, (b_rows, k_len, &[]), &mut out[j..], n, 32);
        j += 32;
    }
    while j < full {
        let b_rows = b.chunks_exact(n).map(|row| &row[j..j + 16]);
        tile::<R, 16, SKIP>(at, k_len, (b_rows, k_len, &[]), &mut out[j..], n, 16);
        j += 16;
    }
    if full < n {
        let (data, out) = (b.get(full..).unwrap_or_default(), &mut out[full..]);
        if n - full <= 8 {
            let b_rows = (data.windows(8).step_by(n), k_in, pad);
            tile::<R, 8, SKIP>(at, k_len, b_rows, out, n, n - full);
        } else {
            let b_rows = (data.windows(16).step_by(n), k_in, pad);
            tile::<R, 16, SKIP>(at, k_len, b_rows, out, n, n - full);
        }
    }
}

/// One `R x W` register tile: the LHS entries `at` reads times RHS rows
/// `0..k_in` from `in_place` and the rest from `pad`, over every `k`;
/// writes its first `w` columns to its `R` rows of `out`, `n` apart.
#[inline(always)]
fn tile<'b, const R: usize, const W: usize, const SKIP: bool>(
    at: impl Fn(usize) -> [f32; R],
    k_len: usize,
    (in_place, k_in, pad): (impl Iterator<Item = &'b [f32]>, usize, &[f32]),
    out: &mut [f32],
    n: usize,
    w: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    let k_in = k_in.min(k_len);
    for (k, b_row) in (0..k_in).zip(in_place) {
        accumulate::<R, W, SKIP>(&mut acc, at(k), b_row);
    }
    for (k, b_row) in (k_in..k_len).zip(pad.chunks_exact(W)) {
        accumulate::<R, W, SKIP>(&mut acc, at(k), b_row);
    }
    put(acc, out, n, w);
}

/// Writes a tile's first `w` columns to its rows of `out`, `n` apart; by
/// value, as a copy out of `acc` itself keeps it out of registers.
#[inline(always)]
fn put<const R: usize, const W: usize>(acc: [[f32; W]; R], out: &mut [f32], n: usize, w: usize) {
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n..][..w].copy_from_slice(&acc_row[..w]);
    }
}

/// One step of a tile: `acc[r] += a[r] * b_row` (if `a[r] != 0` under `SKIP`).
#[inline(always)]
fn accumulate<const R: usize, const W: usize, const SKIP: bool>(
    acc: &mut [[f32; W]; R],
    a: [f32; R],
    b_row: &[f32],
) {
    for r in 0..R {
        if SKIP && a[r] == 0.0 {
            continue;
        }
        let b_row: &[f32; W] = b_row.try_into().expect("W columns");
        for j in 0..W {
            acc[r][j] += a[r] * b_row[j];
        }
    }
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
        // A diverged candidate model can carry inf/NaN weights. In every
        // product form, for a narrow (tail-tile) and a wide output: RHS
        // row 1 is all inf/NaN under an all-zero LHS column, which `A·B`
        // and `Aᵀ·B` skip as their oracle does and `A·Bᵀ` multiplies into
        // NaN as its no-skip oracle does. RHS row 3 holds a NaN with its
        // own payload and a -inf under an LHS column that is nonzero in
        // rows 0, 2, 3 and 4. `A·B` and `Aᵀ·B` match every bit: each of
        // their cells meets at most one non-finite term, and a lone NaN
        // term is kept whatever order the add takes its operands in.
        // `A·Bᵀ` cells are compared as NaN: where two NaN terms meet, the
        // payload that survives follows the operand order the compiler
        // picks for the add.
        let a = Matrix::from_fn(6, 5, |r, c| match (r, c) {
            (_, 1) => 0.0,
            (1 | 5, 3) => 0.0,
            _ => (r * 5 + c) as f32 * 0.5 - 3.0,
        });
        let payload = f32::from_bits(0xffc0_1234);
        for n in [10, 40] {
            let mut b = Matrix::from_fn(5, n, |r, c| ((r * n + c) as f32).sin());
            for c in 0..n {
                b[(1, c)] = if c % 2 == 0 { f32::INFINITY } else { f32::NAN };
            }
            b[(3, 0)] = payload;
            b[(3, n - 1)] = f32::NEG_INFINITY;
            let (at, bt) = (a.transpose(), b.transpose());
            let mut got = Matrix::default();
            for form in ["A·B", "Aᵀ·B", "A·Bᵀ"] {
                let want = match form {
                    "A·B" => {
                        a.matmul_into(&b, &mut got).unwrap();
                        NaiveBackend.matmul(&a, &b).unwrap()
                    }
                    "Aᵀ·B" => {
                        at.transpose_matmul_into(&b, &mut got).unwrap();
                        NaiveBackend.transpose_matmul(&at, &b).unwrap()
                    }
                    _ => {
                        a.matmul_transpose_into(&bt, &mut got).unwrap();
                        NaiveBackend.matmul_transpose(&a, &bt).unwrap()
                    }
                };
                let skips = form != "A·Bᵀ";
                let bits = |m: &Matrix| {
                    let bits = m.as_slice().iter().map(|v| match v.is_nan() && !skips {
                        true => f32::NAN.to_bits(),
                        false => v.to_bits(),
                    });
                    bits.collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want), "{form}, n = {n}");
                let kind = |v: f32| match (v.is_nan(), v.is_infinite()) {
                    (true, _) => "NaN",
                    (_, true) => "inf",
                    _ => "finite",
                };
                for (r, row) in want.rows_iter().enumerate() {
                    let hit = a[(r, 3)] != 0.0;
                    for (c, &v) in row.iter().enumerate() {
                        let expected = match (skips, hit, c) {
                            (false, ..) | (true, true, 0) => "NaN",
                            (true, true, _) if c == n - 1 => "inf",
                            _ => "finite",
                        };
                        assert_eq!(kind(v), expected, "{form}, n = {n}, ({r}, {c})");
                    }
                }
                if skips {
                    assert_eq!(
                        want[(0, 0)].to_bits(),
                        payload.to_bits(),
                        "{form} keeps the payload"
                    );
                }
            }
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
    fn debug_output_is_never_empty() {
        let m = Matrix::zeros(0, 0);
        assert!(!format!("{m:?}").is_empty());
    }
}
