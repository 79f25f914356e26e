//! Compressed sparse row (CSR) matrices.
//!
//! Query-matrix blocks that are structured but not closed-form (vectorized
//! predicate sets, `Prefix`'s tridiagonal inverse Gram) are mostly zeros;
//! CSR stores only the nonzeros and makes matvec/rmatvec O(nnz).

use crate::Matrix;

/// A sparse `f64` matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row start offsets into `indices`/`data`; length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of each stored value, ascending within a row.
    indices: Vec<usize>,
    /// Stored values.
    data: Vec<f64>,
}

impl Csr {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong `indptr` length or bounds,
    /// column index out of range, or unsorted columns within a row).
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr must have rows+1 entries");
        assert_eq!(indices.len(), data.len(), "indices/data length mismatch");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            *indptr.last().expect("non-empty indptr"),
            indices.len(),
            "indptr must end at nnz"
        );
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be non-decreasing");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "columns must be strictly ascending per row");
            }
            if let Some(&last) = row.last() {
                assert!(last < cols, "column index out of range");
            }
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows: m.rows(),
            cols: m.cols(),
            indptr,
            indices,
            data,
        }
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

    /// Number of stored (nonzero) values.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// The stored values, in row order.
    pub(crate) fn values(&self) -> &[f64] {
        &self.data
    }

    /// Stored values per cell, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// The `(column, value)` pairs of row `r`.
    #[inline]
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.indptr[r]..self.indptr[r + 1];
        self.indices[span.clone()]
            .iter()
            .copied()
            .zip(self.data[span].iter().copied())
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for (c, v) in self.row_entries(r) {
                row[c] = v;
            }
        }
        out
    }

    /// `A·x` in O(nnz).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `A·x` written into a caller-provided buffer. Each row reduces through
    /// [`crate::simd::dot_indexed`] (the 4-lane gather dot), so the per-row
    /// summation order is the documented lane order.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "csr matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "csr matvec output length mismatch");
        for (r, out) in out.iter_mut().enumerate() {
            *out = self.row_dot(r, x);
        }
    }

    /// The dot product of row `r` with `x`, reduced through
    /// [`crate::simd::dot_indexed`] — the single reduction kernel shared by
    /// `matvec` and the row-restricted slab kernels so sharded and unsharded
    /// sparse products stay bitwise identical.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds or an index exceeds `x.len()`.
    #[inline]
    pub fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let span = self.indptr[r]..self.indptr[r + 1];
        crate::simd::dot_indexed(&self.data[span.clone()], &self.indices[span], x)
    }

    /// `Aᵀ·y` in O(nnz).
    pub fn rmatvec(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.cols];
        self.rmatvec_into(y, &mut x);
        x
    }

    /// `Aᵀ·y` accumulated into a caller-provided buffer (`out` is
    /// overwritten). The scatter stays sequential in entry order — duplicate
    /// column indices make a vectorized scatter unsound, and the ascending
    /// entry order is what the structured `Sparse` mode kernels replay.
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn rmatvec_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "csr rmatvec dimension mismatch");
        assert_eq!(out.len(), self.cols, "csr rmatvec output length mismatch");
        out.fill(0.0);
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            for (c, v) in self.row_entries(r) {
                out[c] += v * yr;
            }
        }
    }

    /// Gram matrix `AᵀA` as a dense matrix, accumulated row by row in
    /// O(Σ nnz_row²) — no dense intermediate of the matrix itself.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let span = self.indptr[r]..self.indptr[r + 1];
            let cols = &self.indices[span.clone()];
            let vals = &self.data[span];
            for (i, (&ci, &vi)) in cols.iter().zip(vals).enumerate() {
                let row = out.row_mut(ci);
                for (&cj, &vj) in cols.iter().zip(vals).skip(i) {
                    row[cj] += vi * vj;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in (i + 1)..n {
                out[(j, i)] = out[(i, j)];
            }
        }
        out
    }

    /// A scaled copy `alpha · A`, touching only the stored values.
    pub fn scaled(&self, alpha: f64) -> Csr {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= alpha;
        }
        out
    }

    /// Squared Frobenius norm `Σ v²` over the stored values.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// True when every row is either empty or stores the same value in every
    /// column — i.e. all columns of the matrix are identical vectors.
    pub fn columns_all_equal(&self) -> bool {
        (0..self.rows).all(|r| {
            let span = self.indptr[r]..self.indptr[r + 1];
            let vals = &self.data[span];
            match vals.first() {
                None => true,
                Some(&first) => {
                    vals.len() == self.cols && vals.iter().all(|&v| (v - first).abs() <= 1e-12)
                }
            }
        })
    }

    /// True when every row is a one-hot `1.0` or an all-ones row — the
    /// Total ∪ Identity predicate test, in O(nnz).
    pub fn rows_are_total_or_identity(&self) -> bool {
        (0..self.rows).all(|r| {
            let span = self.indptr[r]..self.indptr[r + 1];
            let vals = &self.data[span];
            (vals.len() == 1 || vals.len() == self.cols) && vals.iter().all(|&v| v == 1.0)
        })
    }

    /// Per-column sums of absolute values.
    pub fn abs_col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (&c, &v) in self.indices.iter().zip(&self.data) {
            sums[c] += v.abs();
        }
        sums
    }

    /// Maximum absolute column sum (the L1 operator norm / sensitivity).
    pub fn norm_l1_operator(&self) -> f64 {
        self.abs_col_sums().into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, -3.0, 0.0, 4.0],
        ])
    }

    #[test]
    fn dense_roundtrip() {
        let d = sample();
        let s = Csr::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn matvec_matches_dense() {
        let d = sample();
        let s = Csr::from_dense(&d);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(s.matvec(&x), d.matvec(&x));
        let y = vec![1.0, -1.0, 0.5];
        assert_eq!(s.rmatvec(&y), d.t_matvec(&y));
    }

    #[test]
    fn gram_and_col_sums_match_dense() {
        let d = sample();
        let s = Csr::from_dense(&d);
        assert!(s.gram().approx_eq(&d.gram(), 1e-12));
        assert_eq!(s.abs_col_sums(), d.abs_col_sums());
        assert_eq!(s.norm_l1_operator(), d.norm_l1_operator());
    }

    #[test]
    fn density_counts_stored_values() {
        let s = Csr::from_dense(&sample());
        assert!((s.density() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_columns() {
        Csr::new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn scaled_and_frobenius_touch_only_stored_values() {
        let s = Csr::from_dense(&sample());
        assert!(s
            .scaled(2.0)
            .to_dense()
            .approx_eq(&sample().scaled(2.0), 0.0));
        assert!((s.frobenius_norm_sq() - sample().frobenius_norm_sq()).abs() < 1e-12);
    }

    #[test]
    fn columns_all_equal_detection() {
        // Zero row + full constant row: all columns identical.
        let eq = Csr::from_dense(&Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 3.0]]));
        assert!(eq.columns_all_equal());
        // A one-hot row breaks it.
        assert!(!Csr::from_dense(&Matrix::identity(2)).columns_all_equal());
        assert!(!Csr::from_dense(&Matrix::from_rows(&[&[1.0, 2.0]])).columns_all_equal());
    }

    #[test]
    fn total_or_identity_rows_detection() {
        assert!(Csr::from_dense(&Matrix::identity(4)).rows_are_total_or_identity());
        assert!(Csr::from_dense(&Matrix::ones(1, 4)).rows_are_total_or_identity());
        // A two-cell range row is neither a point nor the total query.
        let range = Csr::from_dense(&Matrix::from_rows(&[&[1.0, 1.0, 0.0]]));
        assert!(!range.rows_are_total_or_identity());
        // Non-unit values disqualify.
        let scaled = Csr::from_dense(&Matrix::from_rows(&[&[2.0, 0.0]]));
        assert!(!scaled.rows_are_total_or_identity());
    }
}
