//! Row-major dense matrix with the operations HDMM needs.

use crate::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// Tile edge for the cache-blocked dense kernels (`gram_into`,
/// `matmul_into`, `matmul_t`). 64 rows/columns of `f64` keep a working set
/// of a few hundred KiB per tile pair — comfortably inside L2 for the domain
/// sizes the optimizer materializes — while staying wide enough that the
/// per-tile loop overhead is negligible. Blocking only reorders which
/// *elements* are computed when, never the reduction order within an
/// element, so it is invisible to the bitwise contracts.
const KERNEL_BLOCK: usize = 64;

/// Nonzero fraction above which [`Matrix::gram_into`] picks the column-dot
/// kernel over the zero-skipping panel kernel. Strategy and query matrices in
/// this codebase are usually structured (p-Identity ≈ `1/n` dense, prefix
/// ≈ 50%, range ≈ 33%), where skipping zero rank-1 updates beats streaming
/// full-length dots; the dot kernel only wins once almost every entry
/// participates. The dispatch depends solely on the input matrix, so a given
/// input always takes the same kernel and results stay deterministic.
const DENSE_GRAM_THRESHOLD: f64 = 0.75;

/// A dense, row-major `f64` matrix.
///
/// Row-major storage keeps the hot loops (`matmul`, `gram`, row iteration over
/// query matrices) sequential in memory.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates an all-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a row-major flat vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data length must be rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Stacks matrices vertically. All blocks must share a column count.
    pub fn vstack(blocks: &[&Matrix]) -> Result<Self> {
        let cols = blocks
            .first()
            .map(|b| b.cols)
            .ok_or_else(|| LinalgError::DimensionMismatch("vstack of zero blocks".into()))?;
        let mut data = Vec::new();
        let mut rows = 0;
        for b in blocks {
            if b.cols != cols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "vstack column mismatch: {} vs {}",
                    b.cols, cols
                )));
            }
            rows += b.rows;
            data.extend_from_slice(&b.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out[(c, r)] = v;
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Delegates to [`Matrix::matmul_into`].
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product written into a caller-provided output (`out` is
    /// overwritten), cache-blocked along the inner dimension: a `KERNEL_BLOCK`
    /// band of `other`'s rows stays hot while every row of `self` streams
    /// over it. Each output element still accumulates its `k` contributions
    /// in ascending order via element-wise [`crate::simd::axpy`], so the
    /// result is bitwise identical to the unblocked i-k-j loop this replaces.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or output shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        out.data.fill(0.0);
        let p = other.cols;
        for kb in (0..self.cols).step_by(KERNEL_BLOCK) {
            let kend = (kb + KERNEL_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let a_band = &self.row(i)[kb..kend];
                let out_row = &mut out.data[i * p..(i + 1) * p];
                for (k, &aik) in a_band.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    crate::simd::axpy(aik, other.row(kb + k), out_row);
                }
            }
        }
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dimension mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                crate::simd::axpy(aki, b_row, out_row);
            }
        }
        out
    }

    /// `self * otherᵀ`, cache-blocked over `other`'s rows: a `KERNEL_BLOCK`
    /// band of `other` stays hot while every row of `self` dots against it.
    /// Each element is one full-length [`crate::simd::dot`], so blocking
    /// changes nothing about the reduction order.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t dimension mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        let p = other.rows;
        for jb in (0..p).step_by(KERNEL_BLOCK) {
            let jend = (jb + KERNEL_BLOCK).min(p);
            for i in 0..self.rows {
                let a_row = self.row(i);
                let out_row = &mut out.data[i * p..(i + 1) * p];
                for (j, out) in out_row[jb..jend].iter_mut().enumerate() {
                    *out = crate::simd::dot(a_row, other.row(jb + j));
                }
            }
        }
        out
    }

    /// Gram matrix `selfᵀ * self`, exploiting symmetry.
    ///
    /// Delegates to [`Matrix::gram_into`]; see there for the kernel contract.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        self.gram_into(&mut Vec::new(), &mut out);
        out
    }

    /// Gram matrix written into a caller-provided output, with the transpose
    /// staging buffer reusable across calls (`scratch` and `out` are both
    /// overwritten).
    ///
    /// Two cache-blocked kernels, dispatched on the input's nonzero fraction
    /// (a deterministic function of the input, so results never depend on
    /// anything but the matrix itself):
    ///
    /// * **dense** (≥ `DENSE_GRAM_THRESHOLD`): columns are materialized
    ///   contiguously (`scratch` holds `selfᵀ`), then upper-triangle tiles of
    ///   `KERNEL_BLOCK`² entries are filled with full-length
    ///   [`crate::simd::dot`] calls so a tile of columns stays cache-hot
    ///   across consecutive rows — `out[i][j] = simd::dot(colᵢ, colⱼ)`, with
    ///   the inner dimension never split, so the reduction order is exactly
    ///   the [`crate::simd`] lane order and wide/scalar builds agree bitwise;
    /// * **sparse-ish** (below the threshold — p-Identity strategies, prefix
    ///   and range queries): the historical zero-skipping rank-1 update loop,
    ///   blocked into `KERNEL_BLOCK`-row panels so each output row absorbs a
    ///   whole panel's contributions while hot instead of being re-streamed
    ///   from memory once per input row. Each element still accumulates its
    ///   row contributions in ascending order via element-wise
    ///   [`crate::simd::axpy`], bitwise identical to the unblocked loop this
    ///   replaces.
    ///
    /// # Panics
    /// Panics if `out` is not `cols×cols`.
    pub fn gram_into(&self, scratch: &mut Vec<f64>, out: &mut Matrix) {
        let (m, n) = (self.rows, self.cols);
        assert_eq!(out.shape(), (n, n), "gram output shape mismatch");
        let nnz = self.data.iter().filter(|v| **v != 0.0).count();
        if (nnz as f64) >= DENSE_GRAM_THRESHOLD * (self.data.len() as f64) {
            // Materialize Aᵀ so every column is a contiguous slice.
            scratch.clear();
            scratch.resize(n * m, 0.0);
            for r in 0..m {
                for (c, &v) in self.row(r).iter().enumerate() {
                    scratch[c * m + r] = v;
                }
            }
            for ib in (0..n).step_by(KERNEL_BLOCK) {
                for jb in (ib..n).step_by(KERNEL_BLOCK) {
                    for i in ib..(ib + KERNEL_BLOCK).min(n) {
                        let col_i = &scratch[i * m..(i + 1) * m];
                        let out_row = &mut out.data[i * n..(i + 1) * n];
                        for j in jb.max(i)..(jb + KERNEL_BLOCK).min(n) {
                            out_row[j] = crate::simd::dot(col_i, &scratch[j * m..(j + 1) * m]);
                        }
                    }
                }
            }
        } else {
            out.data.fill(0.0);
            for kb in (0..m).step_by(KERNEL_BLOCK) {
                let kend = (kb + KERNEL_BLOCK).min(m);
                for i in 0..n {
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    for k in kb..kend {
                        let vi = self.data[k * n + i];
                        if vi == 0.0 {
                            continue;
                        }
                        let row = &self.data[k * n..(k + 1) * n];
                        crate::simd::axpy(vi, &row[i..], &mut out_row[i..]);
                    }
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in (i + 1)..n {
                out.data[j * n + i] = out.data[i * n + j];
            }
        }
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product written into a caller-provided buffer, so warm
    /// serving paths can reuse allocations: the all-rows case of
    /// [`matvec_rows`](crate::matvec_rows), so a row-partitioned (sharded)
    /// MEASURE is this product by construction.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        crate::slab::matvec_rows(self, x, 0..self.rows, out);
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    pub fn t_matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.t_matvec_into(x, &mut y);
        y
    }

    /// Transposed matrix–vector product accumulated into a caller-provided
    /// buffer (`out` is overwritten). Row contributions are applied in
    /// ascending row order via element-wise [`crate::simd::axpy`], so the
    /// result is bitwise identical to the historical scalar loop.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn t_matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "t_matvec dimension mismatch");
        assert_eq!(out.len(), self.cols, "t_matvec output length mismatch");
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            crate::simd::axpy(xr, self.row(r), out);
        }
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let data = self.data.iter().map(|v| v * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales column `c` by `alpha` in place.
    pub fn scale_col(&mut self, c: usize, alpha: f64) {
        for r in 0..self.rows {
            self.data[r * self.cols + c] *= alpha;
        }
    }

    /// Scales row `r` by `alpha` in place.
    pub fn scale_row(&mut self, r: usize, alpha: f64) {
        for v in self.row_mut(r) {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>()
    }

    /// Per-column sums of absolute values.
    pub fn abs_col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v.abs();
            }
        }
        sums
    }

    /// Maximum absolute column sum: the matrix 1-norm, i.e. the L1 sensitivity
    /// of the query set (Definition 6 of the paper).
    pub fn norm_l1_operator(&self) -> f64 {
        self.abs_col_sums().into_iter().fold(0.0, f64::max)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// True when all pairwise entries differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// `tr(self * other)` for square-compatible matrices, computed without
    /// forming the product: `Σ_ij self[i,j] * other[j,i]`.
    pub fn trace_product(&self, other: &Matrix) -> f64 {
        assert_eq!(self.cols, other.rows, "trace_product inner mismatch");
        assert_eq!(self.rows, other.cols, "trace_product outer mismatch");
        let mut acc = 0.0;
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                acc += v * other[(j, i)];
            }
        }
        acc
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let i = Matrix::identity(2);
        assert!(a.matmul(&i).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f64 * 0.5);
        let direct = a.transpose().matmul(&b);
        assert!(a.t_matmul(&b).approx_eq(&direct, 1e-12));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let b = Matrix::from_fn(5, 4, |r, c| (r + 2 * c) as f64);
        let direct = a.matmul(&b.transpose());
        assert!(a.matmul_t(&b).approx_eq(&direct, 1e-12));
    }

    #[test]
    fn gram_matches_t_matmul_self() {
        let a = Matrix::from_fn(5, 3, |r, c| ((r * c) as f64).sin());
        assert!(a.gram().approx_eq(&a.t_matmul(&a), 1e-12));
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, -1.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 2.0]);
        assert_eq!(a.t_matvec(&[1.0, 2.0]), vec![1.0, 6.0, 0.0]);
    }

    #[test]
    fn l1_operator_norm_is_max_abs_col_sum() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 1.0]]);
        assert_eq!(a.norm_l1_operator(), 4.0);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::identity(2);
        let b = Matrix::ones(1, 2);
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn vstack_rejects_mismatched_cols() {
        let a = Matrix::identity(2);
        let b = Matrix::ones(1, 3);
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn trace_product_matches_materialized() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.5);
        let direct = a.matmul(&b).trace();
        assert!((a.trace_product(&b) - direct).abs() < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f64);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    /// The unblocked zero-skipping rank-1 update loop `gram` historically
    /// used — the bitwise reference for the sparse-ish dispatch arm.
    fn gram_rank1_reference(a: &Matrix) -> Matrix {
        let (m, n) = a.shape();
        let mut out = Matrix::zeros(n, n);
        for k in 0..m {
            let row = a.row(k).to_vec();
            for (i, &vi) in row.iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                crate::simd::axpy(vi, &row[i..], &mut out.data[i * n + i..(i + 1) * n]);
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                out.data[j * n + i] = out.data[i * n + j];
            }
        }
        out
    }

    /// The unblocked column-dot contract for the dense dispatch arm.
    fn gram_dot_reference(a: &Matrix) -> Matrix {
        let (m, n) = a.shape();
        let t = a.transpose();
        Matrix::from_fn(n, n, |i, j| {
            let (lo, hi) = (i.min(j), i.max(j));
            crate::simd::dot(&t.data[lo * m..(lo + 1) * m], &t.data[hi * m..(hi + 1) * m])
        })
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, label: &str) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data.iter().zip(&b.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: {x} vs {y}");
        }
    }

    /// Blocking must be invisible bit for bit: each dispatch arm reproduces
    /// its unblocked reference exactly, on shapes that straddle the
    /// `KERNEL_BLOCK` tile edge.
    #[test]
    fn blocked_gram_is_bitwise_identical_to_unblocked_references() {
        for (m, n) in [(5, 3), (64, 64), (97, 70), (150, 130)] {
            // Lower-triangular-ish: ~50% zeros, takes the panel arm.
            let sparse = Matrix::from_fn(m, n, |r, c| {
                if c <= r % n {
                    ((r * 31 + c * 7) as f64).sin()
                } else {
                    0.0
                }
            });
            assert_bits_eq(&sparse.gram(), &gram_rank1_reference(&sparse), "sparse arm");
            // Fully dense: takes the column-dot arm.
            let dense = Matrix::from_fn(m, n, |r, c| ((r * 13 + c * 5) as f64).cos() + 1.5);
            assert_bits_eq(&dense.gram(), &gram_dot_reference(&dense), "dense arm");
        }
    }

    /// The blocked matmul keeps the historical ascending-k accumulation per
    /// element: pin it against the naive triple loop.
    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive_loop() {
        let a = Matrix::from_fn(97, 130, |r, c| ((r * 3 + c) as f64).sin());
        let b = Matrix::from_fn(130, 71, |r, c| ((r + c * 11) as f64).cos());
        let (m, n) = (a.rows, b.cols);
        let mut naive = Matrix::zeros(m, n);
        for i in 0..m {
            for k in 0..a.cols {
                let aik = a.data[i * a.cols + k];
                for j in 0..n {
                    naive.data[i * n + j] += aik * b.data[k * n + j];
                }
            }
        }
        assert_bits_eq(&a.matmul(&b), &naive, "matmul");
    }
}
