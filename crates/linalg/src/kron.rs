//! The explicit Kronecker product (Definition 8), for small cases and as the
//! oracle the implicit product of `contract.rs` (Algorithm 1) is validated
//! against wherever `Π mᵢ × Π nᵢ` is small enough to materialize.

use crate::Matrix;

/// Explicit Kronecker product `A ⊗ B` (Definition 8).
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (am, an) = a.shape();
    let (bm, bn) = b.shape();
    let mut out = Matrix::zeros(am * bm, an * bn);
    for ar in 0..am {
        for ac in 0..an {
            let av = a[(ar, ac)];
            if av == 0.0 {
                continue;
            }
            for br in 0..bm {
                let b_row = b.row(br);
                let out_row = out.row_mut(ar * bm + br);
                for (bc, &bv) in b_row.iter().enumerate() {
                    out_row[ac * bn + bc] += av * bv;
                }
            }
        }
    }
    out
}

/// Explicit Kronecker product of a list of factors, left to right.
///
/// # Panics
/// Panics if `factors` is empty.
pub fn kron_all(factors: &[&Matrix]) -> Matrix {
    assert!(!factors.is_empty(), "kron_all requires at least one factor");
    let mut acc = factors[0].clone();
    for f in &factors[1..] {
        acc = kron(&acc, f);
    }
    acc
}

/// Kronecker product of two vectors (treated as single-row matrices).
pub fn kron_vec(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &av in a {
        for &bv in b {
            out.push(av * bv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(c as u64)
                .wrapping_mul(seed | 1);
            ((h >> 33) % 7) as f64 - 3.0
        })
    }

    #[test]
    fn kron_known_2x2() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.0, 3.0]]);
        let k = kron(&a, &b);
        assert_eq!(k.row(0), &[0.0, 3.0, 0.0, 6.0]);
    }

    #[test]
    fn kron_dimensions() {
        let a = mat(2, 3, 1);
        let b = mat(4, 5, 2);
        assert_eq!(kron(&a, &b).shape(), (8, 15));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = AC ⊗ BD
        let a = mat(2, 3, 1);
        let b = mat(3, 2, 2);
        let c = mat(3, 2, 3);
        let d = mat(2, 4, 4);
        let lhs = kron(&a, &b).matmul(&kron(&c, &d));
        let rhs = kron(&a.matmul(&c), &b.matmul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn kron_vec_matches_matrix_kron() {
        let a = [1.0, -2.0, 0.5];
        let b = [3.0, 4.0];
        let va = Matrix::from_vec(1, 3, a.to_vec());
        let vb = Matrix::from_vec(1, 2, b.to_vec());
        assert_eq!(kron_vec(&a, &b), kron(&va, &vb).into_vec());
    }

    #[test]
    fn kron_sensitivity_is_product_of_sensitivities() {
        // Theorem 3: ‖A₁⊗A₂‖₁ = ‖A₁‖₁·‖A₂‖₁ (non-negative matrices attain it).
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]]);
        let k = kron(&a, &b);
        assert!((k.norm_l1_operator() - a.norm_l1_operator() * b.norm_l1_operator()).abs() < 1e-12);
    }
}
