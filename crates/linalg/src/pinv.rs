//! Moore–Penrose pseudo-inverses.
//!
//! The select–measure–reconstruct pipeline needs `A⁺` for reconstruction and
//! `(AᵀA)⁺` for the closed-form error `‖WA⁺‖²_F = tr[(AᵀA)⁺(WᵀW)]`
//! (Definition 7 / Equation 3 of the paper).

use crate::{Cholesky, Matrix, Result, SymEigen};

/// Relative eigenvalue cutoff below which a direction is treated as null.
const RCOND: f64 = 1e-11;

/// Pseudo-inverse of a symmetric positive-semidefinite matrix via its
/// eigendecomposition: zero eigenvalues map to zero.
pub fn pinv_psd(a: &Matrix) -> Result<Matrix> {
    let e = SymEigen::new(a)?;
    let max = e.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let cut = max * RCOND;
    Ok(e.apply_spectral(|l| if l.abs() <= cut { 0.0 } else { 1.0 / l }))
}

/// `G⁺` of a symmetric positive-semidefinite Gram `G = AᵀA`: the Cholesky
/// inverse when `G` is positive definite, else the spectral pseudo-inverse
/// ([`pinv_psd`]) — a rank-deficient strategy such as `Total`. Every dense
/// inverse Gram of the workspace is this one function.
///
/// # Panics
/// Panics if the eigendecomposition fails, which a finite symmetric `G`
/// does not.
pub fn inverse_gram(gram: &Matrix) -> Matrix {
    match Cholesky::new(gram) {
        Ok(ch) => ch.inverse(),
        Err(_) => pinv_psd(gram).expect("factor gram eigendecomposition"),
    }
}

/// General Moore–Penrose pseudo-inverse via `A⁺ = (AᵀA)⁺ Aᵀ`.
///
/// This identity holds for every real matrix; with rank-deficient `A` the
/// PSD pseudo-inverse takes care of the null space.
pub fn pinv(a: &Matrix) -> Result<Matrix> {
    let gram_pinv = pinv_psd(&a.gram())?;
    Ok(gram_pinv.matmul_t(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_moore_penrose(a: &Matrix, ap: &Matrix, tol: f64) {
        // (1) A A⁺ A = A
        assert!(a.matmul(ap).matmul(a).approx_eq(a, tol), "axiom 1 failed");
        // (2) A⁺ A A⁺ = A⁺
        assert!(ap.matmul(a).matmul(ap).approx_eq(ap, tol), "axiom 2 failed");
        // (3) (A A⁺)ᵀ = A A⁺
        let aap = a.matmul(ap);
        assert!(aap.transpose().approx_eq(&aap, tol), "axiom 3 failed");
        // (4) (A⁺ A)ᵀ = A⁺ A
        let apa = ap.matmul(a);
        assert!(apa.transpose().approx_eq(&apa, tol), "axiom 4 failed");
    }

    #[test]
    fn full_rank_tall_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let ap = pinv(&a).unwrap();
        check_moore_penrose(&a, &ap, 1e-9);
        // Full column rank ⇒ A⁺A = I.
        assert!(ap.matmul(&a).approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn rank_deficient_total_query() {
        // The 1×n Total query T = [1 … 1]; T⁺ = Tᵀ/n.
        let t = Matrix::ones(1, 4);
        let tp = pinv(&t).unwrap();
        assert!(tp.approx_eq(&Matrix::filled(4, 1, 0.25), 1e-10));
        check_moore_penrose(&t, &tp, 1e-10);
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let ap = pinv(&a).unwrap();
        let inv = crate::Lu::new(&a).unwrap().inverse();
        assert!(ap.approx_eq(&inv, 1e-9));
    }

    #[test]
    fn pinv_psd_of_ones() {
        // 𝟙⁺ = 𝟙/n².
        let n = 5;
        let ones = Matrix::ones(n, n);
        let p = pinv_psd(&ones).unwrap();
        assert!(p.approx_eq(&ones.scaled(1.0 / (n * n) as f64), 1e-9));
    }

    #[test]
    fn wide_rank_deficient() {
        // Rows are linearly dependent.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]]);
        let ap = pinv(&a).unwrap();
        check_moore_penrose(&a, &ap, 1e-8);
    }
}
