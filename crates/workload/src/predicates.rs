//! Logical query layer: predicates, predicate sets, and the `ImpVec`
//! encoding algorithm (§3.2–3.3, §4.3).
//!
//! A predicate counting query is a conjunction of per-attribute predicates
//! (`φ = [φ₁]A₁ ∧ … ∧ [φ_d]A_d`); Theorem 1 says its vectorization is the
//! Kronecker product of the per-attribute vectorizations. [`LogicalWorkload`]
//! is the paper's Definition 3 input, and [`LogicalWorkload::impvec`] is
//! Algorithm 1, producing the implicit matrix form.

use crate::{Domain, ProductTerm, Workload};
use hdmm_linalg::Matrix;

/// A boolean predicate over a single discrete attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `t.A == v`.
    Eq(usize),
    /// `t.A ∈ set` (arbitrary subset, e.g. the merged Race attribute of Ex. 1).
    In(Vec<usize>),
    /// `lo ≤ t.A ≤ hi` (inclusive; requires an ordered domain).
    Range(usize, usize),
    /// Always true (the `Total` predicate).
    True,
}

impl Predicate {
    /// Evaluates the predicate on a domain value.
    pub fn eval(&self, v: usize) -> bool {
        match self {
            Predicate::Eq(x) => v == *x,
            Predicate::In(set) => set.contains(&v),
            Predicate::Range(lo, hi) => *lo <= v && v <= *hi,
            Predicate::True => true,
        }
    }

    /// Vectorizes against an attribute of size `n` (Definition 4, restricted
    /// to one attribute).
    pub fn vectorize(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|v| if self.eval(v) { 1.0 } else { 0.0 })
            .collect()
    }
}

/// An ordered set of predicates over one attribute (`Φ = [φ₁…φ_p]_A`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateSet(pub Vec<Predicate>);

impl PredicateSet {
    /// `Identity_A`: one equality predicate per domain element.
    pub fn identity(n: usize) -> Self {
        PredicateSet((0..n).map(Predicate::Eq).collect())
    }

    /// `Total_A`: the single always-true predicate.
    pub fn total() -> Self {
        PredicateSet(vec![Predicate::True])
    }

    /// `Prefix_A`: ranges `[0, i]` for each `i`.
    pub fn prefix(n: usize) -> Self {
        PredicateSet((0..n).map(|i| Predicate::Range(0, i)).collect())
    }

    /// `AllRange_A`: every interval `[i, j]`.
    pub fn all_range(n: usize) -> Self {
        let mut preds = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            for j in i..n {
                preds.push(Predicate::Range(i, j));
            }
        }
        PredicateSet(preds)
    }

    /// `Identity ∪ Total`: grouping attribute that also reports the overall
    /// count (the paper's reduced SF1+ State encoding, Example 5).
    pub fn identity_and_total(n: usize) -> Self {
        let mut preds: Vec<Predicate> = (0..n).map(Predicate::Eq).collect();
        preds.push(Predicate::True);
        PredicateSet(preds)
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty (never the case for the standard constructors).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Vectorizes the set into its `p × n` query matrix (line 3 of `ImpVec`).
    pub fn vectorize(&self, n: usize) -> Matrix {
        assert!(!self.0.is_empty(), "empty predicate set");
        let mut m = Matrix::zeros(self.0.len(), n);
        for (r, p) in self.0.iter().enumerate() {
            m.row_mut(r).copy_from_slice(&p.vectorize(n));
        }
        m
    }
}

/// One logical product `[Φ₁]A₁ × … × [Φ_d]A_d` with an optional weight.
#[derive(Debug, Clone)]
pub struct LogicalProduct {
    /// Query weight.
    pub weight: f64,
    /// One predicate set per attribute (use `PredicateSet::total()` for
    /// attributes the queries do not mention).
    pub predicate_sets: Vec<PredicateSet>,
}

impl LogicalProduct {
    /// Unit-weight product.
    pub fn new(predicate_sets: Vec<PredicateSet>) -> Self {
        LogicalProduct {
            weight: 1.0,
            predicate_sets,
        }
    }

    /// Weighted product.
    pub fn weighted(weight: f64, predicate_sets: Vec<PredicateSet>) -> Self {
        LogicalProduct {
            weight,
            predicate_sets,
        }
    }

    /// Number of queries `Π |Φᵢ|`.
    pub fn query_count(&self) -> usize {
        self.predicate_sets.iter().map(PredicateSet::len).product()
    }
}

/// A logical workload: a union of logical products (Definition 3).
#[derive(Debug, Clone, Default)]
pub struct LogicalWorkload {
    /// The union terms.
    pub products: Vec<LogicalProduct>,
}

impl LogicalWorkload {
    /// Builds from products.
    pub fn new(products: Vec<LogicalProduct>) -> Self {
        LogicalWorkload { products }
    }

    /// The `ImpVec` algorithm (§4.3, Algorithm 1): vectorizes each per-attribute
    /// predicate set and assembles the implicit union-of-Kronecker workload.
    pub fn impvec(&self, domain: &Domain) -> Workload {
        assert!(!self.products.is_empty(), "empty logical workload");
        let terms = self
            .products
            .iter()
            .map(|p| {
                assert_eq!(
                    p.predicate_sets.len(),
                    domain.dims(),
                    "product arity mismatch"
                );
                // Vectorized predicate sets are mostly zeros (point and
                // range predicates); compress picks CSR when it pays off.
                let factors: Vec<hdmm_linalg::StructuredMatrix> = p
                    .predicate_sets
                    .iter()
                    .zip(domain.sizes())
                    .map(|(set, &n)| hdmm_linalg::StructuredMatrix::compress(set.vectorize(n)))
                    .collect();
                ProductTerm::new(p.weight, factors)
            })
            .collect();
        Workload::new(domain.clone(), terms)
    }

    /// Total query count.
    pub fn query_count(&self) -> usize {
        self.products.iter().map(LogicalProduct::query_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_vectorization() {
        assert_eq!(Predicate::Eq(1).vectorize(3), vec![0.0, 1.0, 0.0]);
        assert_eq!(
            Predicate::Range(1, 2).vectorize(4),
            vec![0.0, 1.0, 1.0, 0.0]
        );
        assert_eq!(Predicate::True.vectorize(2), vec![1.0, 1.0]);
        assert_eq!(Predicate::In(vec![0, 2]).vectorize(3), vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn predicate_set_matches_blocks() {
        use crate::blocks;
        assert!(PredicateSet::identity(5)
            .vectorize(5)
            .approx_eq(&blocks::identity(5), 0.0));
        assert!(PredicateSet::total()
            .vectorize(4)
            .approx_eq(&blocks::total(4), 0.0));
        assert!(PredicateSet::prefix(6)
            .vectorize(6)
            .approx_eq(&blocks::prefix(6), 0.0));
        assert!(PredicateSet::all_range(4)
            .vectorize(4)
            .approx_eq(&blocks::all_range(4), 0.0));
    }

    #[test]
    fn theorem1_conjunction_is_kronecker() {
        // vec(φ₁ ∧ φ₂) = vec(φ₁) ⊗ vec(φ₂) over the joint domain.
        let d = Domain::new(&[3, 4]);
        let p1 = Predicate::Range(0, 1);
        let p2 = Predicate::Eq(2);
        let joint: Vec<f64> = (0..d.size())
            .map(|idx| {
                let t = d.unflatten(idx);
                if p1.eval(t[0]) && p2.eval(t[1]) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let kron = hdmm_linalg::kron_vec(&p1.vectorize(3), &p2.vectorize(4));
        assert_eq!(joint, kron);
    }

    /// Evaluates every query of `product` on an explicit list of tuples:
    /// the brute-force semantics of Definition 1, the reference `ImpVec` is
    /// checked against.
    fn answer_tuples(product: &LogicalProduct, tuples: &[Vec<usize>]) -> Vec<f64> {
        let mut out = vec![0.0; product.query_count()];
        for t in tuples {
            // Which predicates of each set match this tuple?
            let matches: Vec<Vec<usize>> = product
                .predicate_sets
                .iter()
                .zip(t)
                .map(|(set, &v)| {
                    set.0
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.eval(v))
                        .map(|(i, _)| i)
                        .collect()
                })
                .collect();
            // Increment every matching combination (row-major query order).
            let mut stack = vec![(0usize, 0usize)]; // (attr, flat index)
            while let Some((attr, flat)) = stack.pop() {
                if attr == matches.len() {
                    out[flat] += product.weight;
                    continue;
                }
                let stride = product.predicate_sets[attr].len();
                for &m in &matches[attr] {
                    stack.push((attr + 1, flat * stride + m));
                }
            }
        }
        out
    }

    #[test]
    fn impvec_matches_brute_force_answers() {
        let d = Domain::new(&[3, 4]);
        let product = LogicalProduct::new(vec![PredicateSet::prefix(3), PredicateSet::identity(4)]);
        let wl = LogicalWorkload::new(vec![product.clone()]);
        let implicit = wl.impvec(&d);

        // Random-ish multiset of tuples and its data vector.
        let tuples: Vec<Vec<usize>> =
            vec![vec![0, 1], vec![2, 3], vec![2, 3], vec![1, 0], vec![0, 0]];
        let mut x = vec![0.0; d.size()];
        for t in &tuples {
            x[d.flatten(t)] += 1.0;
        }

        assert_eq!(implicit.answer(&x), answer_tuples(&product, &tuples));
    }

    #[test]
    fn impvec_union_stacks_terms() {
        let d = Domain::new(&[2, 2]);
        let wl = LogicalWorkload::new(vec![
            LogicalProduct::new(vec![PredicateSet::total(), PredicateSet::identity(2)]),
            LogicalProduct::weighted(3.0, vec![PredicateSet::identity(2), PredicateSet::total()]),
        ]);
        let w = wl.impvec(&d);
        assert_eq!(w.query_count(), 4);
        assert_eq!(wl.query_count(), 4);
        let e = w.explicit();
        assert_eq!(e.row(0), &[1.0, 0.0, 1.0, 0.0]); // total ⊗ e₀
        assert_eq!(e.row(2), &[3.0, 3.0, 0.0, 0.0]); // 3·(e₀ ⊗ total)
    }

    #[test]
    fn identity_and_total_has_extra_row() {
        let m = PredicateSet::identity_and_total(3).vectorize(3);
        assert_eq!(m.shape(), (4, 3));
        assert_eq!(m.row(3), &[1.0, 1.0, 1.0]);
    }
}
