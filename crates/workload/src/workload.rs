//! Union-of-products workloads (Definition 3 and §4.3, `ImpVec` output form).

use crate::{Domain, WorkloadFingerprint};
use hdmm_linalg::{
    kmatvec_shared, kmatvec_structured, kron_all, KronScratch, Matrix, StructuredMatrix,
};
use std::sync::OnceLock;

/// One weighted product `w·(W₁ ⊗ … ⊗ W_d)`: a per-attribute query matrix for
/// each attribute of the domain, kept in structured form so regular blocks
/// (Identity, Total, Prefix, AllRange, sparse predicate sets) never densify.
#[derive(Debug, Clone)]
pub struct ProductTerm {
    /// Query weight `w` (repetition / accuracy preference, §3.3).
    pub weight: f64,
    /// Per-attribute query matrices; `factors[i].cols() == domain.attr_size(i)`.
    pub factors: Vec<StructuredMatrix>,
}

impl ProductTerm {
    /// Builds a weighted product term. Accepts dense [`Matrix`] factors (kept
    /// as `Dense`) or [`StructuredMatrix`] factors directly.
    pub fn new<M: Into<StructuredMatrix>>(weight: f64, factors: Vec<M>) -> Self {
        assert!(weight > 0.0, "term weight must be positive");
        assert!(
            !factors.is_empty(),
            "product term needs at least one factor"
        );
        ProductTerm {
            weight,
            factors: factors.into_iter().map(Into::into).collect(),
        }
    }

    /// Unit-weight product term.
    pub fn product<M: Into<StructuredMatrix>>(factors: Vec<M>) -> Self {
        Self::new(1.0, factors)
    }

    /// Number of queries `Π mᵢ` in this product.
    pub fn query_count(&self) -> usize {
        self.factors.iter().map(StructuredMatrix::rows).product()
    }

    /// Materializes `w·(W₁ ⊗ … ⊗ W_d)` (tests / small domains only).
    pub fn explicit(&self) -> Matrix {
        let dense: Vec<Matrix> = self
            .factors
            .iter()
            .map(StructuredMatrix::to_dense)
            .collect();
        let refs: Vec<&Matrix> = dense.iter().collect();
        kron_all(&refs).scaled(self.weight)
    }

    /// Answers this term's queries on data vector `x` via the implicit
    /// Kronecker matrix–vector product, dispatching each mode to its
    /// structured fast path.
    pub fn answer(&self, x: &[f64]) -> Vec<f64> {
        let refs: Vec<&StructuredMatrix> = self.factors.iter().collect();
        let mut y = kmatvec_structured(&refs, x);
        if self.weight != 1.0 {
            for v in &mut y {
                *v *= self.weight;
            }
        }
        y
    }

    /// Implicit representation size in stored values (Σ per-factor storage;
    /// closed-form blocks count 1), the quantity behind the paper's
    /// Example 6/7 size comparisons.
    pub fn implicit_size(&self) -> usize {
        self.factors
            .iter()
            .map(StructuredMatrix::storage_size)
            .sum()
    }

    /// Explicit representation size in values (Π mᵢ · Π nᵢ), saturating.
    pub fn explicit_size(&self) -> usize {
        let rows = self
            .factors
            .iter()
            .try_fold(1usize, |a, f| a.checked_mul(f.rows()));
        let cols = self
            .factors
            .iter()
            .try_fold(1usize, |a, f| a.checked_mul(f.cols()));
        match (rows, cols) {
            (Some(r), Some(c)) => r.saturating_mul(c),
            _ => usize::MAX,
        }
    }
}

/// A logical workload in implicit matrix form: a weighted union of products
/// over a shared [`Domain`] (Equation 1 of the paper).
#[derive(Debug, Clone)]
pub struct Workload {
    domain: Domain,
    terms: Vec<ProductTerm>,
    /// [`Workload::fingerprint`] and [`Workload::is_finite`], found by one
    /// walk on first use: both fields above are fixed at construction, and a
    /// clone carries the computed values along.
    pub(crate) fingerprint: OnceLock<(WorkloadFingerprint, bool)>,
}

impl Workload {
    /// Builds a workload, validating factor shapes against the domain.
    ///
    /// # Panics
    /// Panics if any term's factor columns disagree with the domain.
    pub fn new(domain: Domain, terms: Vec<ProductTerm>) -> Self {
        assert!(!terms.is_empty(), "workload needs at least one term");
        for t in &terms {
            assert_eq!(
                t.factors.len(),
                domain.dims(),
                "term arity must match domain"
            );
            for (f, &n) in t.factors.iter().zip(domain.sizes()) {
                assert_eq!(f.cols(), n, "factor columns must match attribute size");
            }
        }
        Workload {
            domain,
            terms,
            fingerprint: OnceLock::new(),
        }
    }

    /// Single-product workload.
    pub fn product<M: Into<StructuredMatrix>>(domain: Domain, factors: Vec<M>) -> Self {
        Self::new(domain, vec![ProductTerm::product(factors)])
    }

    /// One-dimensional workload from a query matrix (dense or structured).
    pub fn one_dim(w: impl Into<StructuredMatrix>) -> Self {
        let w = w.into();
        let domain = Domain::one_dim(w.cols());
        Self::new(domain, vec![ProductTerm::product(vec![w])])
    }

    /// The domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The union terms.
    pub fn terms(&self) -> &[ProductTerm] {
        &self.terms
    }

    /// Total number of queries across all terms.
    pub fn query_count(&self) -> usize {
        self.terms.iter().map(ProductTerm::query_count).sum()
    }

    /// Materializes the full workload matrix (tests / small domains only).
    pub fn explicit(&self) -> Matrix {
        let mut out = Matrix::zeros(self.query_count(), self.domain.size());
        let mut row = 0;
        for t in &self.terms {
            let block = t.explicit();
            for r in 0..block.rows() {
                out.row_mut(row).copy_from_slice(block.row(r));
                row += 1;
            }
        }
        out
    }

    /// Answers all queries on data vector `x`, stacking terms in order.
    pub fn answer(&self, x: &[f64]) -> Vec<f64> {
        self.answer_with(x, &mut KronScratch::new())
    }

    /// [`Workload::answer`] with its tables and chain buffers taken from
    /// `scratch`, so a request or a batch task answers in pages an earlier
    /// one already used; only the answer vector is a fresh allocation. The
    /// terms go through one [`kmatvec_shared`] over `x`: a term whose chain
    /// starts by summing out attributes with unit `Total` factors starts
    /// from that marginal table of the call's subset lattice, summed once
    /// for all the terms that need it, not from `x`. Every term's answer
    /// keeps the bits of its own chain, [`ProductTerm::answer`]; so does the
    /// result, bitwise identical to `answer`.
    pub fn answer_with(&self, x: &[f64], scratch: &mut KronScratch) -> Vec<f64> {
        let refs: fn(&ProductTerm) -> Vec<&StructuredMatrix> = |t| t.factors.iter().collect();
        let terms: Vec<_> = self.terms.iter().map(refs).collect();
        let mut out = Vec::with_capacity(self.query_count());
        // The terms come back in ascending order of the attributes their
        // tables keep (list order for marginals): an answer waits for the
        // ones listed before it, then goes back to the scratch.
        let (mut held, mut next) = (vec![None; terms.len()], 0);
        kmatvec_shared(&terms, x, self.domain.sizes(), scratch, |i, y, scratch| {
            held[i] = Some(y);
            while let Some(y) = held.get_mut(next).and_then(Option::take) {
                let weight = self.terms[next].weight;
                if weight != 1.0 {
                    out.extend(y.iter().map(|v| v * weight));
                } else {
                    out.extend_from_slice(&y);
                }
                scratch.give(y);
                next += 1;
            }
        });
        out
    }

    /// Implicit storage footprint in values (Σ terms implicit size).
    pub fn implicit_size(&self) -> usize {
        self.terms.iter().map(ProductTerm::implicit_size).sum()
    }

    /// Explicit storage footprint in values, saturating at `usize::MAX`.
    pub fn explicit_size(&self) -> usize {
        self.terms
            .iter()
            .fold(0usize, |acc, t| acc.saturating_add(t.explicit_size()))
    }

    /// The exact L1 operator norm (sensitivity) of the stacked workload,
    /// materializing only the per-attribute absolute column sums: the column
    /// sums of the union are `Σ_j w_j ⊗ᵢ colsums(Wᵢ⁽ʲ⁾)`.
    ///
    /// Requires `O(N)` space; returns `None` when the domain is too large,
    /// in which case use [`Workload::sensitivity_upper_bound`].
    pub fn sensitivity_exact(&self, max_cells: usize) -> Option<f64> {
        let n = self.domain.size_checked()?;
        if n > max_cells {
            return None;
        }
        let mut total = vec![0.0; n];
        for t in &self.terms {
            let mut acc = vec![t.weight];
            for f in &t.factors {
                let cs = f.abs_col_sums();
                acc = hdmm_linalg::kron_vec(&acc, &cs);
            }
            for (tot, a) in total.iter_mut().zip(&acc) {
                *tot += a;
            }
        }
        Some(total.into_iter().fold(0.0, f64::max))
    }

    /// Upper bound `Σ_j w_j·Π maxᵢ colsums(Wᵢ⁽ʲ⁾)` on the workload
    /// sensitivity; exact for single products with non-negative entries.
    pub fn sensitivity_upper_bound(&self) -> f64 {
        self.terms
            .iter()
            .map(|t| {
                t.weight
                    * t.factors
                        .iter()
                        .map(StructuredMatrix::sensitivity)
                        .product::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;

    fn small_union() -> Workload {
        let domain = Domain::new(&[3, 2]);
        Workload::new(
            domain,
            vec![
                ProductTerm::new(1.0, vec![blocks::prefix(3), blocks::total(2)]),
                ProductTerm::new(2.0, vec![blocks::total(3), blocks::identity(2)]),
            ],
        )
    }

    #[test]
    fn query_count_sums_terms() {
        assert_eq!(small_union().query_count(), 3 + 2);
    }

    #[test]
    fn explicit_matches_answer() {
        let w = small_union();
        let x: Vec<f64> = (0..6).map(|i| i as f64 + 1.0).collect();
        let direct = w.explicit().matvec(&x);
        assert_eq!(w.answer(&x), direct);
    }

    #[test]
    fn weights_scale_queries() {
        let w = small_union();
        let e = w.explicit();
        // Second term rows (last 2) carry weight 2: entries are 0 or 2.
        assert_eq!(e[(3, 0)], 2.0);
    }

    #[test]
    fn sensitivity_exact_matches_explicit_norm() {
        let w = small_union();
        let exact = w.sensitivity_exact(1 << 20).unwrap();
        assert!((exact - w.explicit().norm_l1_operator()).abs() < 1e-12);
    }

    #[test]
    fn sensitivity_bound_dominates_exact() {
        let w = small_union();
        assert!(w.sensitivity_upper_bound() + 1e-12 >= w.sensitivity_exact(1 << 20).unwrap());
    }

    #[test]
    fn implicit_size_beats_explicit_for_products() {
        let domain = Domain::new(&[64, 64]);
        let w = Workload::product(domain, vec![blocks::prefix(64), blocks::prefix(64)]);
        assert!(w.implicit_size() < w.explicit_size());
    }

    #[test]
    #[should_panic(expected = "factor columns")]
    fn rejects_mismatched_factor() {
        let domain = Domain::new(&[3, 2]);
        Workload::product(domain, vec![blocks::identity(3), blocks::identity(3)]);
    }
}
