//! Closed-form expected error (Definition 7 and Theorems 5/6).
//!
//! For workload `W` and sensitivity-normalized strategy `A` the expected total
//! squared error of the mechanism is
//!
//! ```text
//! Err(W, MM(A)) = (2/ε²)·‖A‖₁²·‖WA⁺‖²_F ,   ‖WA⁺‖²_F = tr[(AᵀA)⁺(WᵀW)]
//! ```
//!
//! independent of the data. For Kronecker-structured workloads and strategies
//! the trace factorizes per attribute (Thm 5) and unions of workload products
//! sum (Thm 6), so everything below touches only `nᵢ × nᵢ` blocks.

use crate::{Strategy, UnionGroup};
use hdmm_linalg::{inverse_gram, Cholesky, Matrix, StructuredMatrix};
use hdmm_workload::WorkloadGrams;

/// Dense `(AᵀA)⁺` of a structured strategy factor, via its closed-form Gram
/// pseudo-inverse where one exists.
fn gram_pinv_structured(a: &StructuredMatrix) -> Matrix {
    a.gram_pinv().to_dense()
}

/// `‖W A⁺‖²_F = tr[(AᵀA)⁺·(WᵀW)]` for explicit `A` and explicit Gram `WᵀW`.
pub fn residual_explicit(w_gram: &Matrix, a: &Matrix) -> f64 {
    let gram = a.gram();
    match Cholesky::new(&gram) {
        Ok(ch) => ch.trace_solve(w_gram),
        Err(_) => inverse_gram(&gram).trace_product(w_gram),
    }
}

/// `‖W A⁺‖²_F` for a Kronecker strategy against an implicit workload:
/// `Σ_j w_j²·Πᵢ tr[(AᵢᵀAᵢ)⁺·Gᵢ⁽ʲ⁾]` (Theorem 6).
pub fn residual_kron(grams: &WorkloadGrams, factors: &[Matrix]) -> f64 {
    assert_eq!(factors.len(), grams.dims(), "strategy arity mismatch");
    let pinvs: Vec<Matrix> = factors.iter().map(|a| inverse_gram(&a.gram())).collect();
    residual_kron_cached(grams, &pinvs)
}

/// Same as [`residual_kron`] with the factor Gram pseudo-inverses already
/// computed (hot path inside block coordinate descent).
pub fn residual_kron_cached(grams: &WorkloadGrams, gram_pinvs: &[Matrix]) -> f64 {
    grams
        .terms()
        .iter()
        .map(|t| {
            let prod: f64 = t
                .factors
                .iter()
                .zip(gram_pinvs)
                .map(|(g, p)| p.trace_product(g))
                .product();
            t.weight * t.weight * prod
        })
        .sum()
}

/// The ε-independent squared-error coefficient of a strategy:
/// `Err = (2/ε²)·squared_error(...)`.
///
/// * explicit / Kron / marginals: `‖A‖₁²·‖WA⁺‖²_F`;
/// * union: `Σ_g ‖A_g‖₁²/share_g²·‖W_g A_g⁺‖²_F` — each group answers its own
///   workload terms with its share of the budget (§6.2 / §7.2; the joint
///   pseudo-inverse has no closed form).
pub fn squared_error(grams: &WorkloadGrams, strategy: &Strategy) -> f64 {
    match strategy {
        Strategy::Explicit(a) => {
            assert_eq!(grams.dims(), 1, "explicit strategies are one-dimensional");
            let sens = a.norm_l1_operator();
            let mut acc = 0.0;
            for t in grams.terms() {
                acc += t.weight * t.weight * residual_explicit(&t.factors[0], a);
            }
            sens * sens * acc
        }
        Strategy::Kron(factors) => {
            assert_eq!(factors.len(), grams.dims(), "strategy arity mismatch");
            let sens: f64 = factors.iter().map(StructuredMatrix::sensitivity).product();
            let pinvs: Vec<Matrix> = factors.iter().map(gram_pinv_structured).collect();
            sens * sens * residual_kron_cached(grams, &pinvs)
        }
        Strategy::Marginals(m) => {
            let s = m.sensitivity();
            s * s * m.residual_error(grams)
        }
        Strategy::Union(groups) => squared_error_union(grams, groups),
    }
}

fn squared_error_union(grams: &WorkloadGrams, groups: &[UnionGroup]) -> f64 {
    let share_sum: f64 = groups.iter().map(|g| g.share).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "union budget shares must sum to 1 (got {share_sum})"
    );
    let mut total = 0.0;
    for g in groups {
        let sens: f64 = g
            .factors
            .iter()
            .map(StructuredMatrix::sensitivity)
            .product();
        let pinvs: Vec<Matrix> = g.factors.iter().map(gram_pinv_structured).collect();
        let mut residual = 0.0;
        for &j in &g.term_indices {
            let term = &grams.terms()[j];
            let prod: f64 = term
                .factors
                .iter()
                .zip(&pinvs)
                .map(|(gm, p)| p.trace_product(gm))
                .product();
            residual += term.weight * term.weight * prod;
        }
        total += sens * sens / (g.share * g.share) * residual;
    }
    total
}

/// Expected total squared error `Err(W, MM(A))` at privacy level `eps`.
pub fn expected_total_squared_error(grams: &WorkloadGrams, strategy: &Strategy, eps: f64) -> f64 {
    2.0 / (eps * eps) * squared_error(grams, strategy)
}

/// Identity-strategy squared error `‖W‖²_F` (sensitivity 1), the universal
/// baseline of Algorithm 2's first line.
pub fn identity_squared_error(grams: &WorkloadGrams) -> f64 {
    grams.frobenius_norm_sq()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarginalsStrategy;
    use hdmm_linalg::kron_all;
    use hdmm_workload::{blocks, builders, Domain, Workload, WorkloadGrams};

    /// Dense reference: ‖W·A⁺‖² via explicit pseudo-inverse.
    fn dense_residual(w: &Matrix, a: &Matrix) -> f64 {
        let ap = hdmm_linalg::pinv(a).unwrap();
        w.matmul(&ap).frobenius_norm_sq()
    }

    #[test]
    fn explicit_error_matches_dense() {
        let n = 6;
        let w = blocks::all_range(n);
        let a = blocks::prefix(n); // invertible strategy
        let grams = WorkloadGrams::from_workload(&Workload::one_dim(w.clone()));
        let sens = a.norm_l1_operator();
        let got = squared_error(&grams, &Strategy::Explicit(a.clone()));
        let expect = sens * sens * dense_residual(&w, &a);
        assert!((got - expect).abs() < 1e-8 * expect);
    }

    #[test]
    fn theorem5_error_decomposition() {
        // ‖(W₁⊗W₂)(A₁⊗A₂)⁺‖² = Π‖WᵢAᵢ⁺‖².
        let w1 = blocks::prefix(4);
        let w2 = blocks::all_range(3);
        let a1 = blocks::prefix(4);
        let a2 = Matrix::identity(3);
        let w = Workload::product(Domain::new(&[4, 3]), vec![w1.clone(), w2.clone()]);
        let grams = WorkloadGrams::from_workload(&w);
        let implicit = residual_kron(&grams, &[a1.clone(), a2.clone()]);
        let dense = dense_residual(&w.explicit(), &kron_all(&[&a1, &a2]));
        assert!((implicit - dense).abs() < 1e-7 * dense);
    }

    #[test]
    fn theorem6_union_decomposition() {
        // Union workload against a single Kron strategy.
        let w = builders::prefix_identity_2d(3, 4);
        let grams = WorkloadGrams::from_workload(&w);
        let a1 = blocks::prefix(3);
        let a2 = blocks::prefix(4);
        let implicit = residual_kron(&grams, &[a1.clone(), a2.clone()]);
        let dense = dense_residual(&w.explicit(), &kron_all(&[&a1, &a2]));
        assert!((implicit - dense).abs() < 1e-7 * dense);
    }

    #[test]
    fn total_strategy_factor_is_handled() {
        // Strategy T (rank deficient) supporting workload T.
        let w = Workload::product(
            Domain::new(&[3, 2]),
            vec![blocks::total(3), blocks::identity(2)],
        );
        let grams = WorkloadGrams::from_workload(&w);
        let strat = vec![blocks::total(3), blocks::identity(2)];
        let implicit = residual_kron(&grams, &strat);
        let dense = dense_residual(&w.explicit(), &kron_all(&[&strat[0], &strat[1]]));
        assert!((implicit - dense).abs() < 1e-8 * dense.max(1.0));
    }

    #[test]
    fn identity_error_is_frobenius() {
        let w = builders::all_range_1d(8);
        let grams = WorkloadGrams::from_workload(&w);
        let direct = w.explicit().frobenius_norm_sq();
        assert!((identity_squared_error(&grams) - direct).abs() < 1e-9);
        // And matches the generic path with an Identity strategy.
        let via_strategy = squared_error(&grams, &Strategy::identity(w.domain()));
        assert!((via_strategy - direct).abs() < 1e-9);
    }

    #[test]
    fn union_strategy_split_budget() {
        // Two groups, each perfectly matched to one workload term.
        let w = builders::range_total_union_2d(3, 3);
        let grams = WorkloadGrams::from_workload(&w);
        let g1 = UnionGroup::new(
            0.5,
            vec![
                blocks::prefix(3).scaled(1.0 / 3.0), // sensitivity 1
                blocks::total(3),
            ],
            vec![0],
        );
        let g2 = UnionGroup::new(
            0.5,
            vec![blocks::total(3), blocks::prefix(3).scaled(1.0 / 3.0)],
            vec![1],
        );
        let err = squared_error(&grams, &Strategy::Union(vec![g1.clone(), g2]));
        // By symmetry each group contributes the same amount; verify against
        // the single-group formula with share 1 scaled by 4 (=1/0.5²).
        let single = {
            let sens: f64 = g1
                .factors
                .iter()
                .map(StructuredMatrix::sensitivity)
                .product();
            let pinvs: Vec<Matrix> = g1.factors.iter().map(gram_pinv_structured).collect();
            let t = &grams.terms()[0];
            let prod: f64 = t
                .factors
                .iter()
                .zip(&pinvs)
                .map(|(gm, p)| p.trace_product(gm))
                .product();
            sens * sens * prod
        };
        assert!((err - 2.0 * 4.0 * single).abs() < 1e-8 * err);
    }

    #[test]
    fn marginals_strategy_error_via_enum() {
        let domain = Domain::new(&[2, 3]);
        let w = builders::all_marginals(&domain);
        let grams = WorkloadGrams::from_workload(&w);
        let m = MarginalsStrategy::uniform(domain);
        let err = squared_error(&grams, &Strategy::Marginals(m.clone()));
        let direct = m.sensitivity().powi(2) * m.residual_error(&grams);
        assert!((err - direct).abs() < 1e-10);
    }

    #[test]
    fn eps_scaling() {
        let grams = WorkloadGrams::from_workload(&builders::prefix_1d(4));
        let s = Strategy::identity(grams.domain());
        let e1 = expected_total_squared_error(&grams, &s, 1.0);
        let e2 = expected_total_squared_error(&grams, &s, 2.0);
        assert!((e1 / e2 - 4.0).abs() < 1e-12);
    }
}
