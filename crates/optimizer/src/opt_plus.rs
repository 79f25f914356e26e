//! `OPT_+`: union-of-products strategies (Definition 11, §6.2).
//!
//! Workloads like `(R⊗T) ∪ (T⊗R)` have no good single-product strategy:
//! a product forces a pairing of queries across attributes. `OPT_+` partitions
//! the union terms into groups, optimizes each group independently with
//! `OPT_⊗`, and stacks the resulting product strategies. The privacy budget is
//! split across groups; following the paper's note that "each Aᵢ [could get]
//! a different fraction of the privacy budget", shares are set optimally
//! (`share_g ∝ residual_g^{1/3}` minimizes `Σ_g residual_g / share_g²`).

use crate::opt_kron::{opt_kron, OptKronResult};
use hdmm_mechanism::{Strategy, UnionGroup};
use hdmm_workload::{GramTerm, WorkloadGrams};
use rand::Rng;

/// Result of `OPT_+`.
#[derive(Debug, Clone)]
pub struct OptPlusResult {
    /// The union strategy with budget shares and term assignments.
    pub strategy: Strategy,
    /// Squared error including the budget split: `Σ_g residual_g / share_g²`.
    pub squared_error: f64,
    /// Per-group `OPT_⊗` results.
    pub groups: [OptKronResult; 2],
}

/// Partitions the workload terms into two groups by their structural
/// signature — the set of attributes carrying a non-Total factor (the
/// paper's `g` with `l = 2`). Terms whose queries live on the same
/// attributes belong in the same product strategy; signatures are dealt to
/// the groups round-robin in order of first appearance. `None` when the
/// workload has fewer than two signatures: there is nothing to split.
pub fn group_terms(grams: &WorkloadGrams) -> Option<[Vec<usize>; 2]> {
    let mut signature_order: Vec<u64> = Vec::new();
    let mut groups: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (j, term) in grams.terms().iter().enumerate() {
        let mut sig: u64 = 0;
        for (i, g) in term.factors.iter().enumerate() {
            // A Total factor's Gram is the all-ones matrix scaled; detect via
            // rank-1 structure: G = c·𝟙 has all entries equal.
            let first = g[(0, 0)];
            let is_total_like = g.as_slice().iter().all(|&v| (v - first).abs() < 1e-12);
            if !is_total_like {
                sig |= 1 << i;
            }
        }
        let pos = signature_order
            .iter()
            .position(|&s| s == sig)
            .unwrap_or_else(|| {
                signature_order.push(sig);
                signature_order.len() - 1
            });
        groups[pos % 2].push(j);
    }
    (signature_order.len() >= 2).then_some(groups)
}

/// Runs `OPT_+` on an implicit workload with an explicit two-group term
/// partition: `OPT_⊗` on group 0, then on group 1.
pub fn opt_plus(
    grams: &WorkloadGrams,
    partition: &[Vec<usize>; 2],
    ps: &[usize],
    rng: &mut impl Rng,
) -> OptPlusResult {
    let group_results = partition.each_ref().map(|term_indices| {
        let terms: Vec<GramTerm> = term_indices
            .iter()
            .map(|&j| grams.terms()[j].clone())
            .collect();
        let sub = WorkloadGrams::from_terms(grams.domain().clone(), terms);
        opt_kron(&sub, ps, rng)
    });
    let residuals = group_results.each_ref().map(|res| res.residual);

    // Optimal budget shares: minimize Σ r_g/s_g² s.t. Σ s_g = 1 ⇒ s_g ∝ r_g^⅓.
    let cube_roots = residuals.map(f64::cbrt);
    let total: f64 = cube_roots.iter().sum();
    let shares = cube_roots.map(|c| c / total.max(1e-300));

    let squared_error: f64 = residuals
        .iter()
        .zip(&shares)
        .map(|(r, s)| r / (s * s))
        .sum();

    let groups = [0, 1]
        .map(|g| UnionGroup::new(shares[g], group_results[g].factors(), partition[g].clone()));

    OptPlusResult {
        strategy: Strategy::Union(groups),
        squared_error,
        groups: group_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_mechanism::error::squared_error as mech_error;
    use hdmm_workload::{builders, WorkloadGrams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grouping_by_signature() {
        let w = builders::range_total_union_2d(8, 8);
        let grams = WorkloadGrams::from_workload(&w);
        assert_eq!(group_terms(&grams), Some([vec![0], vec![1]]));
    }

    #[test]
    fn grouping_folds_signatures_into_two_groups() {
        let d = hdmm_workload::Domain::new(&[2, 2, 2]);
        let w = builders::all_marginals(&d); // 8 signatures
        let grams = WorkloadGrams::from_workload(&w);
        let groups = group_terms(&grams).expect("8 signatures split");
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
        // One signature has nothing to split.
        let one = WorkloadGrams::from_workload(&builders::prefix_2d(4, 4));
        assert_eq!(group_terms(&one), None);
    }

    #[test]
    fn opt_plus_beats_single_product_on_rt_tr() {
        // The motivating workload for union strategies (§6.2).
        let w = builders::range_total_union_2d(16, 16);
        let grams = WorkloadGrams::from_workload(&w);
        let mut rng = StdRng::seed_from_u64(0);
        let partition = group_terms(&grams).expect("two signatures");
        let plus = opt_plus(&grams, &partition, &[2, 2], &mut rng);
        let kron = opt_kron(&grams, &[2, 2], &mut rng);
        assert!(
            plus.squared_error < kron.residual,
            "plus {} vs kron {}",
            plus.squared_error,
            kron.residual
        );
    }

    #[test]
    fn reported_error_matches_mechanism_formula() {
        let w = builders::range_total_union_2d(8, 8);
        let grams = WorkloadGrams::from_workload(&w);
        let mut rng = StdRng::seed_from_u64(1);
        let partition = group_terms(&grams).expect("two signatures");
        let plus = opt_plus(&grams, &partition, &[1, 1], &mut rng);
        let err = mech_error(&grams, &plus.strategy);
        // The two sides use different inverse algorithms (Woodbury vs dense
        // Cholesky); allow small numerical slack.
        assert!(
            (plus.squared_error - err).abs() < 1e-3 * err,
            "{} vs {err}",
            plus.squared_error
        );
    }

    #[test]
    fn optimal_shares_beat_equal_shares() {
        // With asymmetric group residuals, r^⅓ shares strictly improve on 50/50.
        let r = [1.0, 8.0];
        let optimal: f64 = {
            let c: Vec<f64> = r.iter().map(|x: &f64| x.cbrt()).collect();
            let t: f64 = c.iter().sum();
            r.iter().zip(&c).map(|(x, ci)| x / (ci / t).powi(2)).sum()
        };
        let equal: f64 = r.iter().map(|x| x / 0.25).sum();
        assert!(optimal < equal);
    }
}
