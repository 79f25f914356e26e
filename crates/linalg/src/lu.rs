//! LU factorization with partial pivoting.
//!
//! Used for general square solves — notably the triangular-ish `X(u)v = z`
//! system of the marginals parameterization (Appendix A.4), which is upper
//! triangular in the bit-subset order but treated generically here for
//! robustness.

use crate::{LinalgError, Matrix, Result};

/// Compact LU factorization `P·A = L·U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined factors: strictly-lower part is L (unit diagonal implied),
    /// upper part is U.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factorizes square matrix `a`.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Pivot search in column k.
            let mut pivot = k;
            let mut max = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > max {
                    max = v;
                    pivot = r;
                }
            }
            if max == 0.0 {
                return Err(LinalgError::Singular);
            }
            if pivot != k {
                // Swap rows in-place.
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot, c)];
                    lu[(pivot, c)] = tmp;
                }
                perm.swap(k, pivot);
            }
            let diag = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / diag;
                lu[(r, k)] = factor;
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        let v = lu[(k, c)];
                        lu[(r, c)] -= factor * v;
                    }
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `A x = b`.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "lu solve dimension mismatch");
        // Apply permutation.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let row = self.lu.row(i);
            let mut s = y[i];
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
        y
    }

    /// Solves `A X = B`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.lu.rows(), "lu solve dimension mismatch");
        let bt = b.transpose();
        let mut xt = Matrix::zeros(b.cols(), self.lu.rows());
        for c in 0..b.cols() {
            let col = self.solve_vec(bt.row(c));
            xt.row_mut(c).copy_from_slice(&col);
        }
        xt.transpose()
    }

    /// Matrix inverse.
    pub fn inverse(&self) -> Matrix {
        self.solve_matrix(&Matrix::identity(self.lu.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x_true = [8.0, -11.0, -3.0];
        let b = a.matvec(&x_true);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_vec(&b);
        for (l, r) in x.iter().zip(&x_true) {
            assert!((l - r).abs() < 1e-9, "{l} vs {r}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_fn(5, 5, |r, c| {
            if r == c {
                3.0
            } else {
                ((r + 2 * c) % 5) as f64 * 0.2
            }
        });
        let lu = Lu::new(&a).unwrap();
        assert!(lu
            .inverse()
            .matmul(&a)
            .approx_eq(&Matrix::identity(5), 1e-9));
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(Lu::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve_vec(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }
}
