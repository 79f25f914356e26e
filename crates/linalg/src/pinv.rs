//! Moore–Penrose pseudo-inverses.
//!
//! The select–measure–reconstruct pipeline needs `A⁺` for reconstruction and
//! `(AᵀA)⁺` for the closed-form error `‖WA⁺‖²_F = tr[(AᵀA)⁺(WᵀW)]`
//! (Definition 7 / Equation 3 of the paper).

use crate::{Cholesky, LinalgError, Matrix, Result, SymEigen};

/// Relative eigenvalue cutoff below which a direction is treated as null.
pub const RCOND: f64 = 1e-11;

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

/// A basis that diagonalises two symmetric PSD matrices at once, on the
/// range of their sum ([`joint_diagonalize`]).
#[derive(Debug, Clone)]
pub struct JointEigen {
    /// `V`, `n×r`: `r` is the rank of `S = G₁ + G₂` at the [`pinv_psd`]
    /// cutoff, and `VᵀSV = I`.
    pub basis: Matrix,
    /// Per input matrix `G_g`, the diagonal of `VᵀG_gV` (entries in
    /// `[0, 1]`; those at or below [`RCOND`] are exactly 0).
    pub diags: [Vec<f64>; 2],
}

/// Diagonalises two symmetric PSD matrices with one basis: with
/// `S = G₁ + G₂ = UΛUᵀ`, keep its range `P = U_r·Λ_r^{-1/2}` (`PᵀSP = I`),
/// eigendecompose `PᵀG₁P = QMQᵀ` and set `V = PQ`. Then `VᵀG₁V = M` and
/// `VᵀG₂V = I − M` are both diagonal, so any `c₁·G₁ + c₂·G₂` with `c_g ≥ 0`
/// is `T·diag(c₁·μ₁ + c₂·μ₂)·Tᵀ` with `T = SV` and `TᵀV = I`. (Three or
/// more matrices have no common diagonalising basis in general.)
///
/// # Errors
/// [`LinalgError::DimensionMismatch`] for matrices of different orders;
/// [`LinalgError::Singular`] when `S` is zero; an eigendecomposition's own
/// error otherwise.
pub fn joint_diagonalize(first: &Matrix, second: &Matrix) -> Result<JointEigen> {
    if first.shape() != second.shape() {
        return Err(LinalgError::DimensionMismatch(
            "joint diagonalization of matrices of different orders".into(),
        ));
    }
    let mut sum = first.clone();
    sum.axpy(1.0, second);
    let s = SymEigen::new(&sum)?;
    let max = s.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let kept: Vec<usize> = (0..s.values.len())
        .filter(|&c| s.values[c] > max * RCOND)
        .collect();
    if kept.is_empty() {
        return Err(LinalgError::Singular);
    }
    let p = Matrix::from_fn(first.rows(), kept.len(), |r, c| {
        s.vectors[(r, kept[c])] / s.values[kept[c]].sqrt()
    });
    let q = SymEigen::new(&p.t_matmul(&first.matmul(&p)))?;
    let basis = p.matmul(&q.vectors);
    let diags = [first, second].map(|g| {
        let gv = g.matmul(&basis);
        (0..basis.cols())
            .map(|c| {
                let mu: f64 = (0..basis.rows()).map(|r| basis[(r, c)] * gv[(r, c)]).sum();
                if mu > RCOND {
                    mu
                } else {
                    0.0
                }
            })
            .collect()
    });
    Ok(JointEigen { basis, diags })
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

    fn diagonal_in(basis: &Matrix, g: &Matrix, mu: &[f64], tol: f64) -> bool {
        basis
            .t_matmul(&g.matmul(basis))
            .approx_eq(&Matrix::from_diag(mu), tol)
    }

    #[test]
    fn joint_basis_diagonalises_both_grams() {
        // A prefix Gram beside a rank-1 Total Gram: S is full rank.
        let n = 5;
        let prefix = Matrix::from_fn(n, n, |i, j| (n - i.max(j)) as f64);
        let total = Matrix::ones(n, n);
        let j = joint_diagonalize(&prefix, &total).unwrap();
        assert_eq!(j.basis.shape(), (n, n));
        assert!(diagonal_in(&j.basis, &prefix, &j.diags[0], 1e-10));
        assert!(diagonal_in(&j.basis, &total, &j.diags[1], 1e-10));
        // Total is rank 1: one nonzero entry, the others exactly zero.
        assert_eq!(j.diags[1].iter().filter(|&&m| m > 0.0).count(), 1);
        let sum = prefix.add(&total);
        assert!(diagonal_in(&j.basis, &sum, &[1.0; 5], 1e-10));
    }

    #[test]
    fn joint_basis_keeps_only_the_range_of_the_sum() {
        // Two Totals: S = 2·𝟙 has rank 1, so V is one column.
        let total = Matrix::ones(4, 4);
        let j = joint_diagonalize(&total, &total).unwrap();
        assert_eq!(j.basis.shape(), (4, 1));
        assert!((j.diags[0][0] - 0.5).abs() < 1e-12 && (j.diags[1][0] - 0.5).abs() < 1e-12);
        // One matrix beside zero: V whitens it.
        let zero = Matrix::zeros(4, 4);
        let one = joint_diagonalize(&total, &zero).unwrap();
        assert!((one.diags[0][0] - 1.0).abs() < 1e-12 && one.diags[1][0] == 0.0);
        assert!(joint_diagonalize(&zero, &zero).is_err());
        assert!(joint_diagonalize(&total, &Matrix::ones(3, 3)).is_err());
    }

    #[test]
    fn wide_rank_deficient() {
        // Rows are linearly dependent.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]]);
        let ap = pinv(&a).unwrap();
        check_moore_penrose(&a, &ap, 1e-8);
    }
}
