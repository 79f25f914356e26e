//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Strategy Grams `AᵀA` of full-column-rank strategies (p-Identity matrices,
//! hierarchical trees, wavelets) are SPD, so Cholesky is the workhorse for the
//! closed-form error `tr[(AᵀA)⁻¹(WᵀW)]` and for pseudo-inverses
//! `A⁺ = (AᵀA)⁻¹Aᵀ`.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the SPD matrix `a`.
    ///
    /// Returns [`LinalgError::Singular`] if a non-positive pivot is found
    /// (matrix not positive definite to working precision).
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut ch = Cholesky::identity(0);
        ch.refactor(a)?;
        Ok(ch)
    }

    /// The factor of `I_n`: storage for [`Cholesky::refactor`] to reuse.
    pub fn identity(n: usize) -> Self {
        Cholesky {
            l: Matrix::identity(n),
        }
    }

    /// Factorizes `a` into this factor's storage (reallocating only when the
    /// shape changes), for callers that factorize once per iteration. Only
    /// the lower triangle is written; the upper one is zero from
    /// construction. On `Err` the factor holds a partial result and must not
    /// be used until a later `refactor` succeeds.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if self.l.shape() != (n, n) {
            self.l = Matrix::zeros(n, n);
        }
        let l = &mut self.l;
        for i in 0..n {
            for j in 0..=i {
                // dot of row i and row j of L up to column j
                let mut s = a[(i, j)];
                let (li, lj) = (l.row(i), l.row(j));
                for k in 0..j {
                    s -= li[k] * lj[k];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::Singular);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// Factorizes `a + jitter·I`, retrying with growing jitter.
    ///
    /// Used where optimization iterates may drift to the PSD boundary.
    pub fn new_regularized(a: &Matrix, mut jitter: f64) -> Result<Self> {
        if let Ok(ch) = Self::new(a) {
            return Ok(ch);
        }
        let n = a.rows();
        for _ in 0..12 {
            let mut aj = a.clone();
            for i in 0..n {
                aj[(i, i)] += jitter;
            }
            if let Ok(ch) = Self::new(&aj) {
                return Ok(ch);
            }
            jitter *= 10.0;
        }
        Err(LinalgError::Singular)
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "cholesky solve dimension mismatch");
        // Forward substitution: L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = y[i];
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
        // Back substitution: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        y
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.l.rows();
        assert_eq!(b.rows(), n, "cholesky solve dimension mismatch");
        let bt = b.transpose();
        let mut xt = Matrix::zeros(b.cols(), n);
        for c in 0..b.cols() {
            let col = self.solve_vec(bt.row(c));
            xt.row_mut(c).copy_from_slice(&col);
        }
        xt.transpose()
    }

    /// Solves `A X = B` in place on a row-major `B`: both substitutions are
    /// whole-row [`crate::simd::axpy`] updates, so a wide right-hand side
    /// (`B` is `n×m` with `m ≫ n`) needs no transposes and no scratch.
    pub fn solve_rows_in_place(&self, b: &mut Matrix) {
        self.solve_lower_rows_in_place(b);
        let n = self.l.rows();
        let m = b.cols();
        let data = b.as_mut_slice();
        // Back substitution: Lᵀ X = Y
        for i in (0..n).rev() {
            let (head, done) = data.split_at_mut((i + 1) * m);
            let row_i = &mut head[i * m..];
            for k in i + 1..n {
                let off = (k - i - 1) * m;
                crate::simd::axpy(-self.l[(k, i)], &done[off..off + m], row_i);
            }
            let inv = 1.0 / self.l[(i, i)];
            for v in row_i.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// The forward half of [`Cholesky::solve_rows_in_place`]: solves
    /// `L Y = B` in place on a row-major `B`, so `Y = L⁻¹B`.
    pub(crate) fn solve_lower_rows_in_place(&self, b: &mut Matrix) {
        let n = self.l.rows();
        assert_eq!(b.rows(), n, "cholesky solve dimension mismatch");
        let m = b.cols();
        let data = b.as_mut_slice();
        for i in 0..n {
            let (done, rest) = data.split_at_mut(i * m);
            let row_i = &mut rest[..m];
            let l_row = self.l.row(i);
            for k in 0..i {
                crate::simd::axpy(-l_row[k], &done[k * m..(k + 1) * m], row_i);
            }
            let inv = 1.0 / l_row[i];
            for v in row_i.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// The inverse `A⁻¹`.
    pub fn inverse(&self) -> Matrix {
        self.solve_matrix(&Matrix::identity(self.l.rows()))
    }

    /// `tr(A⁻¹ B)` without materializing the inverse:
    /// solves `A X = B` and sums the diagonal of `X`.
    pub fn trace_solve(&self, b: &Matrix) -> f64 {
        let n = self.l.rows();
        assert!(b.is_square() && b.rows() == n, "trace_solve shape mismatch");
        let bt = b.transpose();
        let mut tr = 0.0;
        for c in 0..n {
            let col = self.solve_vec(bt.row(c));
            tr += col[c];
        }
        tr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        // AᵀA + I is always SPD.
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7) % 11) as f64 / 11.0);
        let mut g = a.gram();
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(6);
        let ch = Cholesky::new(&a).unwrap();
        let rec = ch.factor().matmul_t(ch.factor());
        assert!(rec.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_vec_satisfies_system() {
        let a = spd(5);
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.0];
        let x = ch.solve_vec(&b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_rows_in_place_matches_solve_matrix_and_refactor_reuses_storage() {
        let a = spd(5);
        let mut ch = Cholesky::new(&spd(5).scaled(2.0)).unwrap();
        ch.refactor(&a).unwrap();
        let b = Matrix::from_fn(5, 9, |r, c| (r as f64 - 2.0) * 0.5 + (c * c) as f64 / 7.0);
        let mut x = b.clone();
        ch.solve_rows_in_place(&mut x);
        assert!(x.approx_eq(&Cholesky::new(&a).unwrap().solve_matrix(&b), 1e-10));
        assert!(a.matmul(&x).approx_eq(&b, 1e-9));
        assert!(ch
            .refactor(&Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]))
            .is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd(7);
        let ch = Cholesky::new(&a).unwrap();
        let prod = ch.inverse().matmul(&a);
        assert!(prod.approx_eq(&Matrix::identity(7), 1e-8));
    }

    #[test]
    fn trace_solve_matches_inverse_product() {
        let a = spd(6);
        let b = spd(6).scaled(0.3);
        let ch = Cholesky::new(&a).unwrap();
        let direct = ch.inverse().matmul(&b).trace();
        assert!((ch.trace_solve(&b) - direct).abs() < 1e-9);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn regularized_recovers_from_semidefinite() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1 PSD
        let ch = Cholesky::new_regularized(&a, 1e-10).unwrap();
        assert!(ch.factor()[(0, 0)] > 0.0);
    }
}
