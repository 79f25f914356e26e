//! Implicit strategy representations (the SELECT outputs of §6–7).

use crate::{MarginalsAlgebra, MarginalsStrategy};
use hdmm_linalg::{Matrix, StructuredMatrix};
use hdmm_workload::Domain;

/// One Kronecker product a strategy is measured as (Table 1(b), §7.2):
/// MEASURE answers it at its own noise scale, RECONSTRUCT applies its
/// transpose. An explicit matrix is a one-leaf product.
#[derive(Debug, Clone)]
pub struct MeasuredProduct {
    /// The leaves `A₁, …, A_d` of the product `A₁ ⊗ … ⊗ A_d`.
    pub factors: Vec<StructuredMatrix>,
    /// The weight θ its answers are scaled by: a marginal's weight, 1
    /// otherwise.
    pub theta: f64,
    /// The L1 sensitivity its noise is calibrated to: the whole strategy's
    /// for marginals, whose products share one budget, the product's own
    /// otherwise.
    pub sensitivity: f64,
    /// Its share of the privacy budget: a union group's share, 1 otherwise.
    pub share: f64,
}

impl MeasuredProduct {
    /// An unweighted product at budget share `share`, with the product of
    /// its leaves' sensitivities (Theorem 3).
    fn unweighted(factors: Vec<StructuredMatrix>, share: f64) -> Self {
        MeasuredProduct {
            sensitivity: factors.iter().map(StructuredMatrix::sensitivity).product(),
            factors,
            theta: 1.0,
            share,
        }
    }

    /// The number of answers it gives: the length of its MEASURE block.
    pub fn rows(&self) -> usize {
        self.factors.iter().map(StructuredMatrix::rows).product()
    }

    /// The leaves, borrowed in order — what the product kernels take.
    pub(crate) fn refs(&self) -> Vec<&StructuredMatrix> {
        self.factors.iter().collect()
    }
}

/// One group of a union-of-products strategy (the `OPT_+` output, Def. 11).
#[derive(Debug, Clone)]
pub struct UnionGroup {
    /// Fraction of the privacy budget spent on this group (shares sum to 1).
    pub share: f64,
    /// Kronecker factors of this group's product strategy (sensitivity 1 each).
    pub factors: Vec<StructuredMatrix>,
    /// Indices of the workload terms this group is responsible for answering.
    pub term_indices: Vec<usize>,
}

impl UnionGroup {
    /// Builds a group from any mix of dense and structured factors.
    pub fn new<M: Into<StructuredMatrix>>(
        share: f64,
        factors: Vec<M>,
        term_indices: Vec<usize>,
    ) -> Self {
        UnionGroup {
            share,
            factors: factors.into_iter().map(Into::into).collect(),
            term_indices,
        }
    }
}

/// A measurement strategy in implicit form. Kronecker factors are kept as
/// [`StructuredMatrix`] so structured strategies (Identity fallback, prefix
/// hierarchies, p-Identity leaves) measure and reconstruct through
/// closed-form kernels instead of dense products.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// A single explicit query matrix (baselines and small test domains;
    /// SELECT hands a 1-D OPT_0 result on as a one-factor `Kron`).
    Explicit(Matrix),
    /// A Kronecker product `A₁ ⊗ … ⊗ A_d` (the `OPT_0` and `OPT_⊗` output,
    /// one [`StructuredMatrix::PIdentity`] leaf per attribute).
    Kron(Vec<StructuredMatrix>),
    /// A union of two product strategies with a budget split (the `OPT_+`
    /// output: the paper's partition `g` with `l = 2`, Definition 11).
    Union([UnionGroup; 2]),
    /// Weighted marginals `M(θ)` (the `OPT_M` output).
    Marginals(MarginalsStrategy),
}

impl Strategy {
    /// A Kronecker strategy from any mix of dense and structured factors;
    /// dense factors are CSR-compressed when sparse enough. SELECT does not
    /// come through here: its p-Identity factors are
    /// [`StructuredMatrix::PIdentity`] leaves already, whose inverse Gram is
    /// closed-form where a CSR factor's is a dense `n×n` inverse.
    pub fn kron<M: Into<StructuredMatrix>>(factors: Vec<M>) -> Strategy {
        Strategy::Kron(
            factors
                .into_iter()
                .map(|f| match f.into() {
                    StructuredMatrix::Dense(m) => StructuredMatrix::compress(m),
                    other => other,
                })
                .collect(),
        )
    }

    /// The L1 sensitivity of the strategy queries.
    ///
    /// * explicit: max absolute column sum;
    /// * Kronecker: product of factor sensitivities (Theorem 3);
    /// * marginals: `Σθ_a`;
    /// * union: the per-group strategies are measured with split budgets, so
    ///   the effective sensitivity is `max_g ‖A_g‖₁` (each group is expected
    ///   to be normalized to 1 and the split handled by `share`).
    pub fn sensitivity(&self) -> f64 {
        match self {
            Strategy::Explicit(a) => a.norm_l1_operator(),
            Strategy::Kron(factors) => factors.iter().map(StructuredMatrix::sensitivity).product(),
            Strategy::Marginals(m) => m.sensitivity(),
            Strategy::Union(groups) => groups
                .iter()
                .map(|g| {
                    g.factors
                        .iter()
                        .map(StructuredMatrix::sensitivity)
                        .product::<f64>()
                })
                .fold(0.0, f64::max),
        }
    }

    /// Rescales the strategy to sensitivity 1 (error-optimal strategies have
    /// equal unit column norms, §5.1 footnote).
    pub fn normalized(self) -> Strategy {
        match self {
            Strategy::Explicit(a) => {
                let s = a.norm_l1_operator();
                Strategy::Explicit(a.scaled(1.0 / s))
            }
            Strategy::Kron(factors) => {
                Strategy::Kron(factors.into_iter().map(|f| f.normalized()).collect())
            }
            Strategy::Union(groups) => Strategy::Union(groups.map(|mut g| {
                for f in &mut g.factors {
                    *f = f.normalized();
                }
                g
            })),
            Strategy::Marginals(m) => {
                let s = m.sensitivity();
                let theta = m.theta.iter().map(|t| t / s).collect();
                Strategy::Marginals(MarginalsStrategy::new(m.domain, theta))
            }
        }
    }

    /// Number of strategy queries (rows) measured: the rows of its
    /// measured products.
    pub fn query_count(&self) -> usize {
        let rows = |p: &MeasuredProduct| -> usize {
            p.factors.iter().map(StructuredMatrix::rows).product()
        };
        self.measured_products().iter().map(rows).sum()
    }

    /// The products MEASURE answers, in measurement order: the explicit
    /// matrix as one `Dense` leaf, the Kronecker product, one product per
    /// union group at its budget share (Definition 11), one per
    /// nonzero-weight marginal at weight `θ_a`.
    pub fn measured_products(&self) -> Vec<MeasuredProduct> {
        match self {
            Strategy::Explicit(a) => vec![MeasuredProduct::unweighted(
                vec![StructuredMatrix::Dense(a.clone())],
                1.0,
            )],
            Strategy::Kron(factors) => vec![MeasuredProduct::unweighted(factors.clone(), 1.0)],
            Strategy::Union(groups) => groups
                .iter()
                .map(|g| MeasuredProduct::unweighted(g.factors.clone(), g.share))
                .collect(),
            Strategy::Marginals(m) => {
                let algebra = MarginalsAlgebra::new(&m.domain);
                let sensitivity = m.sensitivity();
                (0..m.theta.len())
                    .filter(|&a| m.theta[a] != 0.0)
                    .map(|a| MeasuredProduct {
                        factors: algebra.marginal_factors(a),
                        theta: m.theta[a],
                        sensitivity,
                        share: 1.0,
                    })
                    .collect()
            }
        }
    }

    /// A human-readable strategy kind tag for reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Strategy::Explicit(_) => "explicit",
            Strategy::Kron(_) => "kron",
            Strategy::Union(_) => "union",
            Strategy::Marginals(_) => "marginals",
        }
    }

    /// The Identity strategy over a domain — the universal fallback
    /// (line 1 of Algorithm 2). O(1) storage per attribute: the structured
    /// backend never materializes the `nᵢ × nᵢ` identity blocks.
    pub fn identity(domain: &Domain) -> Strategy {
        Strategy::Kron(
            domain
                .sizes()
                .iter()
                .map(|&n| StructuredMatrix::identity(n))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kron_sensitivity_multiplies() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]); // ‖·‖₁ = 2
        let b = Matrix::identity(3); // ‖·‖₁ = 1
        let s = Strategy::kron(vec![a, b]);
        assert_eq!(s.sensitivity(), 2.0);
    }

    #[test]
    fn normalization_gives_unit_sensitivity() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[2.0, 2.0]]);
        let s = Strategy::Explicit(a).normalized();
        assert!((s.sensitivity() - 1.0).abs() < 1e-12);
        let k = Strategy::Kron(vec![StructuredMatrix::prefix(5).scaled(3.0)]).normalized();
        assert!((k.sensitivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_strategy_shape_and_storage() {
        let d = Domain::new(&[2, 3]);
        let s = Strategy::identity(&d);
        assert_eq!(s.query_count(), 6);
        assert_eq!(s.sensitivity(), 1.0);
        match &s {
            Strategy::Kron(fs) => {
                assert!(fs
                    .iter()
                    .all(|f| matches!(f, StructuredMatrix::Identity { .. })));
            }
            other => panic!("expected Kron identity, got {}", other.kind()),
        }
    }

    #[test]
    fn kron_constructor_compresses_sparse_factors() {
        // A mostly-diagonal factor ends up CSR, a dense one stays dense.
        let s = Strategy::kron(vec![Matrix::identity(16), Matrix::ones(4, 4)]);
        match s {
            Strategy::Kron(fs) => {
                assert!(matches!(fs[0], StructuredMatrix::Sparse(_)));
                assert!(matches!(fs[1], StructuredMatrix::Dense(_)));
            }
            other => panic!("expected Kron, got {}", other.kind()),
        }
    }

    #[test]
    fn marginals_query_count_skips_zero_weights() {
        let d = Domain::new(&[2, 3]);
        let m = MarginalsStrategy::new(d, vec![0.0, 0.5, 0.0, 0.5]);
        // Only subsets {0b01} (I⊗T → 2 queries) and {0b11} (I⊗I → 6).
        assert_eq!(Strategy::Marginals(m).query_count(), 2 + 6);
    }
}
