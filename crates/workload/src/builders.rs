//! Constructors for every workload used in the paper's evaluation (§8.1).

use crate::{blocks, Domain, GramTerm, ProductTerm, Workload, WorkloadGrams};
use rand::Rng;

// ---------------------------------------------------------------------------
// 1D workloads (Table 3 "Patent" rows, Table 4a)
// ---------------------------------------------------------------------------

/// `Prefix 1D`: the CDF workload `P` — the paper's compact proxy for all
/// range queries.
pub fn prefix_1d(n: usize) -> Workload {
    Workload::one_dim(blocks::prefix_block(n))
}

/// `All Range`: every interval query.
pub fn all_range_1d(n: usize) -> Workload {
    Workload::one_dim(blocks::all_range_block(n))
}

/// `Width 32 Range` (any width): ranges summing exactly `width` contiguous
/// cells.
pub fn width_range_1d(n: usize, width: usize) -> Workload {
    Workload::one_dim(blocks::width_range_block(n, width))
}

/// `Permuted Range`: all range queries right-multiplied by a random
/// permutation, hiding the range structure. Kept implicit
/// ([`blocks::permuted_range_block`]): `n` indices over the `AllRange`
/// descriptor, never the `n(n+1)/2 × n` table. `rng` draws the permutation
/// by one shuffle of `0..n`.
pub fn permuted_range_1d(n: usize, rng: &mut impl Rng) -> Workload {
    Workload::one_dim(blocks::permuted_range_block(n, rng))
}

/// Gram-only Prefix 1D (large domains; never materializes the queries).
pub fn grams_prefix_1d(n: usize) -> WorkloadGrams {
    WorkloadGrams::from_terms(
        Domain::one_dim(n),
        vec![GramTerm {
            weight: 1.0,
            factors: vec![blocks::gram_prefix(n)],
        }],
    )
}

/// Gram-only All Range 1D.
pub fn grams_all_range_1d(n: usize) -> WorkloadGrams {
    WorkloadGrams::from_terms(
        Domain::one_dim(n),
        vec![GramTerm {
            weight: 1.0,
            factors: vec![blocks::gram_all_range(n)],
        }],
    )
}

// ---------------------------------------------------------------------------
// 2D workloads (Table 3 "Taxi" rows, Table 4b)
// ---------------------------------------------------------------------------

/// `Prefix 2D` = `P ⊗ P`.
pub fn prefix_2d(n1: usize, n2: usize) -> Workload {
    Workload::product(
        Domain::new(&[n1, n2]),
        vec![blocks::prefix_block(n1), blocks::prefix_block(n2)],
    )
}

/// `R ⊗ R`: all axis-aligned 2D range queries.
pub fn all_range_2d(n1: usize, n2: usize) -> Workload {
    Workload::product(
        Domain::new(&[n1, n2]),
        vec![blocks::all_range_block(n1), blocks::all_range_block(n2)],
    )
}

/// `Prefix Identity` = `(P ⊗ I) ∪ (I ⊗ P)`.
pub fn prefix_identity_2d(n1: usize, n2: usize) -> Workload {
    Workload::new(
        Domain::new(&[n1, n2]),
        vec![
            ProductTerm::product(vec![blocks::prefix_block(n1), blocks::identity_block(n2)]),
            ProductTerm::product(vec![blocks::identity_block(n1), blocks::prefix_block(n2)]),
        ],
    )
}

/// `(R ⊗ T) ∪ (T ⊗ R)`: marginal range queries on each axis — the workload
/// the paper uses to motivate union-of-product strategies (§6.2).
pub fn range_total_union_2d(n1: usize, n2: usize) -> Workload {
    Workload::new(
        Domain::new(&[n1, n2]),
        vec![
            ProductTerm::product(vec![blocks::all_range_block(n1), blocks::total_block(n2)]),
            ProductTerm::product(vec![blocks::total_block(n1), blocks::all_range_block(n2)]),
        ],
    )
}

// ---------------------------------------------------------------------------
// Marginals workloads (Table 3 "Adult"/"CPS" rows, Table 5, Figure 1c)
// ---------------------------------------------------------------------------

/// The single marginal on the attribute subset encoded by `mask`
/// (bit `i` ⇒ Identity on attribute `i`, else Total).
pub fn marginal_term(domain: &Domain, mask: usize) -> ProductTerm {
    let factors: Vec<_> = (0..domain.dims())
        .map(|i| {
            if mask >> i & 1 == 1 {
                blocks::identity_block(domain.attr_size(i))
            } else {
                blocks::total_block(domain.attr_size(i))
            }
        })
        .collect();
    ProductTerm::product(factors)
}

/// `All Marginals`: the union of all `2^d` marginals.
pub fn all_marginals(domain: &Domain) -> Workload {
    let d = domain.dims();
    let terms = (0..1usize << d).map(|m| marginal_term(domain, m)).collect();
    Workload::new(domain.clone(), terms)
}

/// All marginals on exactly `k` attributes (`(d choose k)` products).
pub fn kway_marginals(domain: &Domain, k: usize) -> Workload {
    let d = domain.dims();
    let terms: Vec<ProductTerm> = (0..1usize << d)
        .filter(|m| m.count_ones() as usize == k)
        .map(|m| marginal_term(domain, m))
        .collect();
    Workload::new(domain.clone(), terms)
}

/// All marginals on at most `k` attributes (Table 5's `K` parameter).
pub fn upto_kway_marginals(domain: &Domain, k: usize) -> Workload {
    let d = domain.dims();
    let terms: Vec<ProductTerm> = (0..1usize << d)
        .filter(|m| (m.count_ones() as usize) <= k)
        .map(|m| marginal_term(domain, m))
        .collect();
    Workload::new(domain.clone(), terms)
}

/// Marginals-like workload where Identity is replaced by AllRange on the
/// attributes flagged `numeric` ("All Range-Marginals"). `max_way` of `None`
/// keeps all `2^d` subsets; `Some(k)` keeps subsets of at most `k` attributes
/// ("2-way Range-Marginals" with `k = 2`).
pub fn range_marginals(domain: &Domain, numeric: &[bool], max_way: Option<usize>) -> Workload {
    assert_eq!(numeric.len(), domain.dims(), "numeric flags arity mismatch");
    let d = domain.dims();
    let mut terms = Vec::new();
    for mask in 0..1usize << d {
        if let Some(k) = max_way {
            if mask.count_ones() as usize > k {
                continue;
            }
        }
        let factors: Vec<_> = (0..d)
            .map(|i| {
                let n = domain.attr_size(i);
                if mask >> i & 1 == 0 {
                    blocks::total_block(n)
                } else if numeric[i] {
                    blocks::all_range_block(n)
                } else {
                    blocks::identity_block(n)
                }
            })
            .collect();
        terms.push(ProductTerm::product(factors));
    }
    Workload::new(domain.clone(), terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_linalg::StructuredMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prefix_1d_counts() {
        assert_eq!(prefix_1d(16).query_count(), 16);
    }

    #[test]
    fn all_range_query_count_is_triangular() {
        assert_eq!(all_range_1d(10).query_count(), 55);
    }

    #[test]
    fn grams_match_materialized_workloads() {
        let n = 12;
        let a = WorkloadGrams::from_workload(&all_range_1d(n));
        assert!(grams_all_range_1d(n)
            .explicit()
            .approx_eq(&a.explicit(), 1e-10));
        let p = WorkloadGrams::from_workload(&prefix_1d(n));
        assert!(grams_prefix_1d(n)
            .explicit()
            .approx_eq(&p.explicit(), 1e-10));
    }

    #[test]
    fn marginals_counts() {
        let d = Domain::new(&[2, 3, 4]);
        assert_eq!(all_marginals(&d).terms().len(), 8);
        assert_eq!(kway_marginals(&d, 2).terms().len(), 3);
        assert_eq!(upto_kway_marginals(&d, 1).terms().len(), 4);
        // Full contingency table marginal has Π nᵢ queries.
        assert_eq!(kway_marginals(&d, 3).query_count(), 24);
    }

    #[test]
    fn marginal_term_structure() {
        let d = Domain::new(&[2, 3]);
        let t = marginal_term(&d, 0b10); // Identity on attr 1 only
        assert_eq!(t.factors[0].shape(), (1, 2));
        assert_eq!(t.factors[1].shape(), (3, 3));
    }

    #[test]
    fn range_marginals_replaces_identity_on_numeric() {
        let d = Domain::new(&[4, 3]);
        let w = range_marginals(&d, &[true, false], Some(1));
        // masks: 00 (T⊗T), 01 (R⊗T), 10 (T⊗I)
        assert_eq!(w.terms().len(), 3);
        assert_eq!(w.terms()[1].factors[0].rows(), 10); // all_range(4)
        assert_eq!(w.terms()[2].factors[1].rows(), 3); // identity(3)
    }

    /// Every leaf of a builder's workload, `Permuted` inner blocks
    /// included.
    fn leaves(w: &Workload) -> Vec<&StructuredMatrix> {
        let mut out = Vec::new();
        let mut todo: Vec<&StructuredMatrix> = w.terms().iter().flat_map(|t| &t.factors).collect();
        while let Some(f) = todo.pop() {
            match f {
                StructuredMatrix::Permuted { inner, .. } => todo.push(inner),
                StructuredMatrix::Kron(fs) => todo.extend(fs),
                leaf => out.push(leaf),
            }
        }
        out
    }

    /// The `blocks.rs` promise, held for every builder: no workload they
    /// return carries a dense `m × n` table.
    #[test]
    fn builders_emit_no_dense_leaf() {
        let d = Domain::new(&[3, 4, 2]);
        let workloads = [
            prefix_1d(9),
            all_range_1d(9),
            width_range_1d(9, 3),
            permuted_range_1d(9, &mut StdRng::seed_from_u64(1)),
            prefix_2d(4, 5),
            all_range_2d(4, 5),
            prefix_identity_2d(4, 5),
            range_total_union_2d(4, 5),
            Workload::new(d.clone(), vec![marginal_term(&d, 0b101)]),
            all_marginals(&d),
            kway_marginals(&d, 2),
            upto_kway_marginals(&d, 1),
            range_marginals(&d, &[true, false, true], None),
            range_marginals(&d, &[true, false, true], Some(2)),
        ];
        for w in &workloads {
            for leaf in leaves(w) {
                assert!(!matches!(leaf, StructuredMatrix::Dense(_)), "{leaf:?}");
            }
        }
    }

    /// Permuted Range at n = 2048 stays implicit: its dense table would be
    /// 2 098 176 × 2048 f64 (34 GB), so building, fingerprinting, forming the
    /// Gram and answering it within a second is only possible without one.
    #[test]
    fn permuted_range_at_2048_is_built_and_served_implicitly() {
        let n = 2048;
        let t = std::time::Instant::now();
        let w = permuted_range_1d(n, &mut StdRng::seed_from_u64(7));
        assert!(w.implicit_size() <= n + 1, "{}", w.implicit_size());
        let _ = w.fingerprint();
        let grams = WorkloadGrams::from_workload(&w);
        assert_eq!(grams.terms()[0].factors[0].rows(), n);
        let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        assert_eq!(w.answer(&x).len(), n * (n + 1) / 2);
        let took = t.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    }

    #[test]
    fn union_2d_shapes() {
        let w = range_total_union_2d(4, 5);
        assert_eq!(w.terms().len(), 2);
        assert_eq!(w.query_count(), 10 + 15);
    }
}
