//! Property-based tests on the core identities the system relies on.

use hdmm_core::{Domain, ProductTerm, Workload, WorkloadGrams};
use hdmm_linalg::{
    kmatvec_structured, kmatvec_transpose_structured, kron_all, lsmr, LsmrOptions, Matrix,
    StructuredMatrix,
};
use hdmm_mechanism::MarginalsAlgebra;
use proptest::prelude::*;

/// A random small query matrix with entries in {0, 1}.
fn query_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::bool::weighted(0.4), rows * cols).prop_map(move |bits| {
        Matrix::from_fn(
            rows,
            cols,
            |r, c| if bits[r * cols + c] { 1.0 } else { 0.0 },
        )
    })
}

/// A random data vector of non-negative counts.
fn data_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..50, len).prop_map(|v| v.into_iter().map(f64::from).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1/2: implicit (Kronecker) evaluation equals explicit
    /// evaluation for arbitrary products.
    #[test]
    fn kron_answering_matches_explicit(
        w1 in query_matrix(3, 4),
        w2 in query_matrix(2, 3),
        x in data_vec(12),
    ) {
        let explicit = kron_all(&[&w1, &w2]).matvec(&x);
        let (s1, s2) = (StructuredMatrix::Dense(w1), StructuredMatrix::Dense(w2));
        let implicit = kmatvec_structured(&[&s1, &s2], &x);
        for (a, b) in explicit.iter().zip(&implicit) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Adjoint consistency: `⟨Ax, y⟩ = ⟨x, Aᵀy⟩` for the implicit operator.
    #[test]
    fn kmatvec_adjoint_identity(
        w1 in query_matrix(3, 4),
        w2 in query_matrix(4, 2),
        x in data_vec(8),
        y in data_vec(12),
    ) {
        let (s1, s2) = (StructuredMatrix::Dense(w1), StructuredMatrix::Dense(w2));
        let ax = kmatvec_structured(&[&s1, &s2], &x);
        let aty = kmatvec_transpose_structured(&[&s1, &s2], &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    /// Theorem 3: the Kronecker sensitivity is the product of factor
    /// sensitivities (non-negative matrices).
    #[test]
    fn kron_sensitivity_product(
        w1 in query_matrix(3, 4),
        w2 in query_matrix(2, 3),
    ) {
        let explicit = kron_all(&[&w1, &w2]).norm_l1_operator();
        let implicit = w1.norm_l1_operator() * w2.norm_l1_operator();
        prop_assert!((explicit - implicit).abs() < 1e-9);
    }

    /// Workload Grams: the implicit `Σ w²·⊗Gᵢ` equals the explicit
    /// `WᵀW` of the stacked workload.
    #[test]
    fn gram_factorization(
        w1 in query_matrix(3, 3),
        w2 in query_matrix(2, 4),
        w3 in query_matrix(2, 3),
        w4 in query_matrix(3, 4),
        weight in 0.5f64..2.0,
    ) {
        let domain = Domain::new(&[3, 4]);
        let workload = Workload::new(domain, vec![
            ProductTerm::new(weight, vec![w1, w2]),
            ProductTerm::new(1.0, vec![w3, w4]),
        ]);
        let grams = WorkloadGrams::from_workload(&workload);
        let dense = workload.explicit().gram();
        prop_assert!(grams.explicit().approx_eq(&dense, 1e-8));
    }

    /// Moore–Penrose axioms hold for the pseudo-inverse used in
    /// reconstruction, on arbitrary 0/1 query matrices.
    #[test]
    fn pinv_axioms(a in query_matrix(4, 3)) {
        let ap = hdmm_linalg::pinv(&a).unwrap();
        let aapa = a.matmul(&ap).matmul(&a);
        prop_assert!(aapa.approx_eq(&a, 1e-7));
        let apaap = ap.matmul(&a).matmul(&ap);
        prop_assert!(apaap.approx_eq(&ap, 1e-7));
    }

    /// LSMR agrees with the normal-equation solution on full-rank systems.
    #[test]
    fn lsmr_matches_direct(
        a in query_matrix(6, 3),
        b in data_vec(6),
    ) {
        let gram = a.gram();
        // Skip rank-deficient draws (LSMR then returns the min-norm solution,
        // which the plain normal equations don't produce), and near-singular
        // ones where a numerically successful factorization still leaves the
        // normal equations and LSMR far apart: require every Cholesky pivot
        // to be comfortably above noise.
        let ch = hdmm_linalg::Cholesky::new(&gram);
        prop_assume!(ch.is_ok());
        let ch_ok = ch.unwrap();
        let min_pivot = (0..gram.rows())
            .map(|i| ch_ok.factor()[(i, i)])
            .fold(f64::INFINITY, f64::min);
        prop_assume!(min_pivot > 1e-3);
        let direct = ch_ok.solve_vec(&a.t_matvec(&b));
        let iter = lsmr(&StructuredMatrix::Dense(a.clone()), &b, &LsmrOptions::default());
        for (l, d) in iter.x.iter().zip(&direct) {
            prop_assert!((l - d).abs() < 1e-5, "{l} vs {d}");
        }
    }

    /// Proposition 3: `C(a)·C(b) = C̄(a|b)·C(a&b)` on random domains.
    #[test]
    fn marginals_product_rule(
        n1 in 2usize..4,
        n2 in 2usize..4,
        a in 0usize..4,
        b in 0usize..4,
    ) {
        let domain = Domain::new(&[n1, n2]);
        let alg = MarginalsAlgebra::new(&domain);
        let lhs = alg.c_explicit(a).matmul(&alg.c_explicit(b));
        let rhs = alg.c_explicit(a & b).scaled(alg.cbar(a | b));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    /// The closed-form error of a Kronecker strategy is invariant to how the
    /// workload union is split into terms.
    #[test]
    fn error_invariant_to_term_splitting(
        w1 in query_matrix(3, 3),
        w2 in query_matrix(4, 3),
    ) {
        let domain = Domain::new(&[3]);
        let stacked = Matrix::vstack(&[&w1, &w2]).unwrap();
        let together = Workload::new(domain.clone(), vec![ProductTerm::new(1.0, vec![stacked])]);
        let split = Workload::new(domain, vec![
            ProductTerm::new(1.0, vec![w1]),
            ProductTerm::new(1.0, vec![w2]),
        ]);
        let strat = vec![Matrix::identity(3)];
        let e1 = hdmm_mechanism::error::residual_kron(&WorkloadGrams::from_workload(&together), &strat);
        let e2 = hdmm_mechanism::error::residual_kron(&WorkloadGrams::from_workload(&split), &strat);
        prop_assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0));
    }

    /// Sensitivity of the union workload via per-attribute column sums equals
    /// the explicit stacked norm.
    #[test]
    fn union_sensitivity_exact(
        w1 in query_matrix(2, 3),
        w2 in query_matrix(3, 2),
        w3 in query_matrix(3, 3),
        w4 in query_matrix(2, 2),
    ) {
        let domain = Domain::new(&[3, 2]);
        let w = Workload::new(domain, vec![
            ProductTerm::new(1.0, vec![w1, w2]),
            ProductTerm::new(2.0, vec![w3, w4]),
        ]);
        let exact = w.sensitivity_exact(1 << 12).unwrap();
        let dense = w.explicit().norm_l1_operator();
        prop_assert!((exact - dense).abs() < 1e-9);
    }
}
