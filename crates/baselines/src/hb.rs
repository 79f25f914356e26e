//! HB: hierarchical strategies with a domain-adapted branching factor
//! (Qardaji et al. \[36\], one of the paper's low-dimensional range-query
//! competitors).
//!
//! HB picks the branching factor that minimizes an error measure *assuming
//! the workload is all range queries*, regardless of the actual input
//! workload (§1) — which is exactly why HDMM beats it off-distribution. We
//! reproduce that behaviour: the branching factor is selected against the
//! all-range energy, the reported error is exact on the target workload.

use crate::hierarchy::{hb_branchings, node_level_stats_mixed, range_energy, tree_strategy_error};
use hdmm_linalg::Matrix;

/// Result of the HB selection.
#[derive(Debug, Clone)]
pub struct HbResult {
    /// Chosen branching factor.
    pub b: usize,
    /// Per-level branchings of the chosen (possibly ragged) tree.
    pub branchings: Vec<usize>,
    /// Exact squared error on the target workload.
    pub squared_error: f64,
}

/// Candidate branching sequences: for every `b ≥ 2`, as many full `b`-way
/// levels as divide `n` plus one remainder level (HB's ragged trees).
pub fn candidate_branchings(n: usize) -> Vec<(usize, Vec<usize>)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for b in 2..=n {
        if let Some(seq) = hb_branchings(n, b) {
            if seen.insert(seq.clone()) {
                out.push((b, seq));
            }
        }
    }
    out
}

/// Runs HB selection for a 1D workload described by its energy functional
/// `target(v) = ‖W·v‖²`.
pub fn hb_1d(n: usize, target: &dyn Fn(&[f64]) -> f64) -> HbResult {
    let mut best: Option<(usize, Vec<usize>, f64)> = None;
    for (b, seq) in candidate_branchings(n) {
        let weights = vec![1.0; seq.len() + 1];
        // Selection criterion: uniform-tree error on ALL RANGE queries.
        let sel_stats = node_level_stats_mixed(n, &seq, &range_energy);
        let sel = tree_strategy_error(&sel_stats, &weights);
        if best.as_ref().is_none_or(|&(_, _, e)| sel < e) {
            best = Some((b, seq, sel));
        }
    }
    let (b, seq, _) = best.expect("n ≥ 2 has at least the b = n candidate");
    let stats = node_level_stats_mixed(n, &seq, target);
    let weights = vec![1.0; seq.len() + 1];
    HbResult {
        b,
        squared_error: tree_strategy_error(&stats, &weights),
        branchings: seq,
    }
}

/// The HB strategy matrix for explicit use (2D Kronecker extension and tests).
pub fn hb_matrix(n: usize) -> Matrix {
    let r = hb_1d(n, &range_energy);
    crate::hierarchy::tree_strategy_matrix_mixed(
        n,
        &r.branchings,
        &vec![1.0; r.branchings.len() + 1],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::prefix_energy;
    use hdmm_mechanism::error::residual_explicit;
    use hdmm_workload::blocks;

    #[test]
    fn candidates_include_ragged_trees() {
        let c16: Vec<usize> = candidate_branchings(16)
            .into_iter()
            .map(|(b, _)| b)
            .collect();
        // Every b from 2..16 yields some ragged decomposition of 16.
        assert!(c16.contains(&2) && c16.contains(&4) && c16.contains(&16));
        // b = 8 gives the ragged [8, 2] tree.
        let (_, seq) = candidate_branchings(16)
            .into_iter()
            .find(|(b, _)| *b == 8)
            .unwrap();
        assert_eq!(seq, vec![8, 2]);
    }

    #[test]
    fn hb_error_matches_dense() {
        let n = 64;
        let r = hb_1d(n, &range_energy);
        let a = hb_matrix(n);
        let sens = a.norm_l1_operator();
        let dense = sens * sens * residual_explicit(&blocks::gram_all_range(n), &a);
        assert!((r.squared_error - dense).abs() < 1e-6 * dense);
    }

    #[test]
    fn hb_beats_flat_tree_on_ranges_at_scale() {
        // At n = 4096 a branched hierarchy must beat the flat b = n "tree"
        // (identity + root) on all ranges.
        let n = 4096;
        let chosen = hb_1d(n, &range_energy);
        let flat_stats = node_level_stats_mixed(n, &[n], &range_energy);
        let flat = tree_strategy_error(&flat_stats, &[1.0; 2]);
        assert!(
            chosen.squared_error < flat,
            "{} vs {flat}",
            chosen.squared_error
        );
        assert!(chosen.b < n);
    }

    #[test]
    fn hb_reports_error_on_target_not_selection_workload() {
        let n = 64;
        let on_prefix = hb_1d(n, &prefix_energy);
        let on_range = hb_1d(n, &range_energy);
        // Same branching factor (selection ignores the target)…
        assert_eq!(on_prefix.b, on_range.b);
        // …but different reported errors.
        assert!(on_prefix.squared_error != on_range.squared_error);
    }
}
