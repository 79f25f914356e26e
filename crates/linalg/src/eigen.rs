//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! Needed for Moore–Penrose pseudo-inverses of rank-deficient Grams (e.g. the
//! Total-query Gram `TᵀT = 𝟙`) and as the reference implementation the
//! structured Haar-eigenbasis shortcuts are validated against.

use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as *columns* of `vectors`.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Decomposes symmetric `a` with cyclic Jacobi sweeps.
    ///
    /// `a` is assumed symmetric; only the upper triangle is trusted. A
    /// non-finite entry is [`LinalgError::NonFinite`].
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        // A NaN would reach the eigenvalue sort, which has no order for it.
        if !crate::all_finite(a.as_slice()) {
            return Err(LinalgError::NonFinite);
        }
        let n = a.rows();
        let mut m = a.clone();
        // Symmetrize defensively (callers pass numerically symmetric input).
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                m[(i, j)] = avg;
                m[(j, i)] = avg;
            }
        }
        let mut v = Matrix::identity(n);
        let max_sweeps = 64;
        let scale = m.max_abs().max(1.0);
        let tol = 1e-14 * scale;

        for sweep in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)].abs();
                }
            }
            if off <= tol * (n * n) as f64 {
                break;
            }
            if sweep == max_sweeps - 1 {
                return Err(LinalgError::NoConvergence {
                    iterations: max_sweeps,
                });
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable tangent of the rotation angle.
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Apply rotation to rows/cols p and q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Extract and sort ascending.
        let mut idx: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        idx.sort_by(|&a, &b| diag[a].partial_cmp(&diag[b]).unwrap());
        let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_c, &old_c) in idx.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        Ok(SymEigen { values, vectors })
    }

    /// Reconstructs `V f(λ) Vᵀ` for an arbitrary spectral function `f`.
    pub fn apply_spectral(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut scaled = self.vectors.clone();
        for (c, &lam) in self.values.iter().enumerate() {
            scaled.scale_col(c, f(lam));
        }
        scaled.matmul_t(&self.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize) -> Matrix {
        let a = Matrix::from_fn(n, n, |r, c| (((r * 13 + c * 5) % 7) as f64 - 3.0) / 3.0);
        a.add(&a.transpose()).scaled(0.5)
    }

    #[test]
    fn reconstruction() {
        let a = sym(8);
        let e = SymEigen::new(&a).unwrap();
        let rec = e.apply_spectral(|l| l);
        assert!(rec.approx_eq(&a, 1e-9));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = sym(6);
        let e = SymEigen::new(&a).unwrap();
        let vtv = e.vectors.t_matmul(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(6), 1e-9));
    }

    #[test]
    fn known_eigenvalues_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymEigen::new(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn rank_one_matrix_of_ones() {
        // 𝟙 = TᵀT has eigenvalues {0,…,0,n}.
        let n = 5;
        let a = Matrix::ones(n, n);
        let e = SymEigen::new(&a).unwrap();
        for v in &e.values[..n - 1] {
            assert!(v.abs() < 1e-9);
        }
        assert!((e.values[n - 1] - n as f64).abs() < 1e-9);
    }

    #[test]
    fn spectral_inverse_matches_cholesky() {
        let mut a = sym(5);
        for i in 0..5 {
            a[(i, i)] += 4.0; // make well-conditioned and PD
        }
        let e = SymEigen::new(&a).unwrap();
        let inv_spec = e.apply_spectral(|l| 1.0 / l);
        let inv_chol = crate::Cholesky::new(&a).unwrap().inverse();
        assert!(inv_spec.approx_eq(&inv_chol, 1e-8));
    }
}
