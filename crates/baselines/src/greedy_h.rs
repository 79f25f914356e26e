//! GreedyH: workload-adapted weighted binary hierarchies (from DAWA \[25\]).
//!
//! GreedyH fixes the binary-tree query set and tunes per-level weights to the
//! input workload. Our implementation optimizes the level weights exactly
//! (projected L-BFGS on the closed-form tree error) — the same search space
//! as the original greedy weight assignment, found slightly more thoroughly.

use crate::hierarchy::{node_level_stats, tree_strategy_error, NodeLevelStats};
use hdmm_linalg::Matrix;
use hdmm_mechanism::error::residual_explicit;
use hdmm_optimizer::lbfgs::{minimize, LbfgsOptions, Objective};

/// Result of GreedyH weight optimization.
#[derive(Debug, Clone)]
pub struct GreedyHResult {
    /// Optimized per-level weights (leaf … root), sensitivity-normalized.
    pub level_weights: Vec<f64>,
    /// Exact squared error on the target workload.
    pub squared_error: f64,
}

struct TreeObjective<'a> {
    stats: &'a NodeLevelStats,
}

impl Objective for TreeObjective<'_> {
    fn dim(&self) -> usize {
        self.stats.q_levels.len() + 1
    }
    fn value(&mut self, w: &[f64]) -> f64 {
        tree_strategy_error(self.stats, w)
    }
    fn value_grad(&mut self, w: &[f64], grad: &mut [f64]) -> f64 {
        // Central finite differences: the dimension is h+1 ≈ log n, and the
        // objective is O(h), so this is essentially free.
        let f0 = self.value(w);
        let mut probe = w.to_vec();
        for i in 0..w.len() {
            let h = 1e-6 * w[i].abs().max(1e-3);
            probe[i] = w[i] + h;
            let fp = self.value(&probe);
            probe[i] = (w[i] - h).max(if i == 0 { 1e-9 } else { 0.0 });
            let fm = self.value(&probe);
            grad[i] = (fp - fm) / (w[i] + h - probe[i]);
            probe[i] = w[i];
        }
        f0
    }
}

/// Optimizes level weights for a binary hierarchy on the workload described
/// by `stats` (from [`node_level_stats`] with `b = 2`).
pub fn greedy_h_1d(stats: &NodeLevelStats) -> GreedyHResult {
    assert!(stats.is_binary(), "GreedyH uses binary hierarchies");
    let h = stats.q_levels.len();
    let mut lower = vec![0.0; h + 1];
    lower[0] = 1e-6; // leaf level keeps the strategy full-rank
    let x0 = vec![1.0; h + 1];
    let mut obj = TreeObjective { stats };
    let res = minimize(
        &mut obj,
        &x0,
        &lower,
        &LbfgsOptions {
            max_iter: 200,
            ..Default::default()
        },
    );
    // Normalize (the error is scale-invariant; report unit sensitivity).
    let sens: f64 = res.x.iter().sum();
    GreedyHResult {
        level_weights: res.x.iter().map(|w| w / sens).collect(),
        squared_error: res.value,
    }
}

/// Convenience: GreedyH against an energy functional on domain size `n`.
pub fn greedy_h_energy(n: usize, target: &dyn Fn(&[f64]) -> f64) -> GreedyHResult {
    let stats = node_level_stats(n, 2, target);
    greedy_h_1d(&stats)
}

/// GreedyH on an explicit reduced domain (DAWA stage 2): arbitrary `n`,
/// depth-weighted recursive-splitting hierarchy, dense error objective.
/// Returns the sensitivity-normalized strategy matrix and its squared error.
pub fn greedy_h_explicit(wtw: &Matrix) -> (Matrix, f64) {
    let n = wtw.rows();
    if n == 1 {
        return (Matrix::ones(1, 1), wtw[(0, 0)]);
    }
    // Rows grouped by depth of the recursive split.
    let mut rows_by_depth: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut stack = vec![(0usize, n, 0usize)];
    while let Some((start, len, depth)) = stack.pop() {
        if rows_by_depth.len() <= depth {
            rows_by_depth.resize(depth + 1, Vec::new());
        }
        rows_by_depth[depth].push((start, len));
        if len > 1 {
            let half = len / 2;
            stack.push((start, half, depth + 1));
            stack.push((start + half, len - half, depth + 1));
        }
    }
    let depths = rows_by_depth.len();

    struct ExplicitObjective<'a> {
        rows_by_depth: &'a [Vec<(usize, usize)>],
        wtw: &'a Matrix,
        n: usize,
    }
    impl ExplicitObjective<'_> {
        fn strategy(&self, w: &[f64]) -> Matrix {
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for (d, group) in self.rows_by_depth.iter().enumerate() {
                if w[d] <= 0.0 {
                    continue;
                }
                for &(start, len) in group {
                    let mut r = vec![0.0; self.n];
                    for e in &mut r[start..start + len] {
                        *e = w[d];
                    }
                    rows.push(r);
                }
            }
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            Matrix::from_rows(&refs)
        }
    }
    impl Objective for ExplicitObjective<'_> {
        fn dim(&self) -> usize {
            self.rows_by_depth.len()
        }
        fn value(&mut self, w: &[f64]) -> f64 {
            let a = self.strategy(w);
            let sens = a.norm_l1_operator();
            sens * sens * residual_explicit(self.wtw, &a)
        }
        fn value_grad(&mut self, w: &[f64], grad: &mut [f64]) -> f64 {
            let f0 = self.value(w);
            let mut probe = w.to_vec();
            for i in 0..w.len() {
                let h = 1e-5 * w[i].abs().max(1e-3);
                probe[i] = w[i] + h;
                let fp = self.value(&probe);
                probe[i] = w[i];
                grad[i] = (fp - f0) / h;
            }
            f0
        }
    }

    // In a ragged tree the unit-length leaf rows are spread across depths, so
    // every level keeps a meaningfully positive weight: the strategy stays
    // full rank *and well conditioned* at a negligible budget cost.
    let lower = vec![1e-2; depths];
    let mut obj = ExplicitObjective {
        rows_by_depth: &rows_by_depth,
        wtw,
        n,
    };
    let res = minimize(
        &mut obj,
        &vec![1.0; depths],
        &lower,
        &LbfgsOptions {
            max_iter: 60,
            ..Default::default()
        },
    );
    let a = obj.strategy(&res.x);
    let sens = a.norm_l1_operator();
    (a.scaled(1.0 / sens), res.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{prefix_energy, range_energy, tree_height, tree_strategy_matrix};
    use hdmm_workload::blocks;

    #[test]
    fn beats_uniform_hierarchy() {
        let n = 256;
        let stats = node_level_stats(n, 2, &range_energy);
        let h = tree_height(n, 2).unwrap();
        let uniform = tree_strategy_error(&stats, &vec![1.0; h + 1]);
        let tuned = greedy_h_1d(&stats);
        assert!(
            tuned.squared_error < uniform,
            "{} vs {uniform}",
            tuned.squared_error
        );
    }

    #[test]
    fn reported_error_matches_dense() {
        let n = 32;
        let stats = node_level_stats(n, 2, &prefix_energy);
        let r = greedy_h_1d(&stats);
        // Rebuild the strategy and recompute densely.
        let scale: f64 = r.level_weights.iter().sum(); // = 1 after normalize
        assert!((scale - 1.0).abs() < 1e-9);
        let a = tree_strategy_matrix(n, 2, &r.level_weights);
        let sens = a.norm_l1_operator();
        let dense = sens * sens * residual_explicit(&blocks::gram_prefix(n), &a);
        assert!(
            (r.squared_error - dense).abs() < 1e-5 * dense,
            "{} vs {dense}",
            r.squared_error
        );
    }

    #[test]
    fn explicit_variant_handles_non_power_domains() {
        let n = 13;
        let wtw = blocks::gram_all_range(n);
        let (a, err) = greedy_h_explicit(&wtw);
        assert_eq!(a.cols(), n);
        assert!((a.norm_l1_operator() - 1.0).abs() < 1e-9);
        // In the right ballpark: a weighted hierarchy on a tiny domain pays
        // its sensitivity but stays within a small factor of Identity.
        assert!(err <= wtw.trace() * 2.0, "err {err}");
    }

    #[test]
    fn adapts_to_workload() {
        // On the Total-heavy workload the root level should carry substantial
        // weight; on identity the leaves dominate.
        let n = 16;
        let total_stats = node_level_stats(n, 2, &|v: &[f64]| {
            let s: f64 = v.iter().sum();
            s * s * 50.0
        });
        let tuned = greedy_h_1d(&total_stats);
        let root = *tuned.level_weights.last().unwrap();
        let leaf = tuned.level_weights[0];
        assert!(root > leaf, "root {root} leaf {leaf}");
    }
}

// ---------------------------------------------------------------------------
// The original count-based GreedyH (Li et al. \[25\], §4.2)
// ---------------------------------------------------------------------------

/// Range-query families with closed-form containment counts.
#[derive(Debug, Clone, Copy)]
pub enum RangeFamily {
    /// All `n(n+1)/2` interval queries.
    AllRange,
    /// Prefix queries `[0, j]`.
    Prefix,
    /// Fixed-width windows.
    Width(usize),
    /// Arbitrary (non-local) queries: the canonical decomposition degenerates
    /// to the leaves, so GreedyH behaves Identity-like (the paper's Permuted
    /// Range row).
    Arbitrary,
}

impl RangeFamily {
    /// Number of family queries containing the cell interval `[x, y]`.
    fn containing(self, n: usize, x: usize, y: usize) -> f64 {
        match self {
            RangeFamily::AllRange => ((x + 1) * (n - y)) as f64,
            RangeFamily::Prefix => (n - y) as f64,
            RangeFamily::Width(w) => {
                if y >= x && y - x + 1 > w {
                    return 0.0;
                }
                let lo = y.saturating_sub(w - 1);
                let hi = x.min(n - w);
                if hi >= lo {
                    (hi - lo + 1) as f64
                } else {
                    0.0
                }
            }
            RangeFamily::Arbitrary => 0.0,
        }
    }
}

/// Canonical segment-tree decomposition counts per level (leaf..root): how
/// many workload queries use at least one node of each level, summed over
/// nodes. A node is used by `[i,j]` iff it is contained in the range but its
/// parent is not.
pub fn decomposition_counts(n: usize, family: RangeFamily) -> Vec<f64> {
    let h = crate::hierarchy::tree_height(n, 2).expect("binary tree requires a power of two");
    let mut counts = vec![0.0; h + 1];
    if matches!(family, RangeFamily::Arbitrary) {
        // Non-local queries: every touched cell is answered at the leaves.
        counts[0] = n as f64;
        return counts;
    }
    for (l, c) in counts.iter_mut().enumerate() {
        let m = 1usize << l;
        for a in (0..n).step_by(m) {
            let own = family.containing(n, a, a + m - 1);
            let parent = if l == h {
                0.0
            } else {
                let pm = 2 * m;
                let pa = a - a % pm;
                family.containing(n, pa, pa + pm - 1)
            };
            *c += (own - parent).max(0.0);
        }
    }
    counts
}

/// The original GreedyH: per-level weights proportional to the cube root of
/// the decomposition counts (the optimal allocation under the decomposition
/// noise model), evaluated exactly under least-squares inference.
pub fn greedy_h_original(stats: &NodeLevelStats, family: RangeFamily) -> GreedyHResult {
    assert!(stats.is_binary(), "GreedyH uses binary hierarchies");
    let n = stats.n;
    let counts = decomposition_counts(n, family);
    let mut weights: Vec<f64> = counts.iter().map(|c| c.cbrt().max(1e-4)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let squared_error = tree_strategy_error(stats, &weights);
    GreedyHResult {
        level_weights: weights,
        squared_error,
    }
}

#[cfg(test)]
mod original_tests {
    use super::*;
    use crate::hierarchy::{node_level_stats, prefix_energy, range_energy};

    #[test]
    fn counts_root_usage() {
        // Only the full range uses the root; only prefixes ending at n-1 use
        // it in the prefix family.
        let counts = decomposition_counts(8, RangeFamily::AllRange);
        assert_eq!(*counts.last().unwrap(), 1.0);
        let counts = decomposition_counts(8, RangeFamily::Prefix);
        assert_eq!(*counts.last().unwrap(), 1.0);
    }

    #[test]
    fn counts_total_equals_decomposed_nodes() {
        // Brute-force check on n=8 all ranges: canonical decomposition sizes.
        let n = 8;
        let counts = decomposition_counts(n, RangeFamily::AllRange);
        // Brute force: for each range, count nodes used per level.
        let mut expect = vec![0.0; 4];
        for i in 0..n {
            for j in i..n {
                for (l, count) in expect.iter_mut().enumerate() {
                    let m = 1usize << l;
                    for a in (0..n).step_by(m) {
                        let inside = i <= a && a + m - 1 <= j;
                        let parent_inside = if l == 3 {
                            false
                        } else {
                            let pm = 2 * m;
                            let pa = a - a % pm;
                            i <= pa && pa + pm - 1 <= j
                        };
                        if inside && !parent_inside {
                            *count += 1.0;
                        }
                    }
                }
            }
        }
        for (c, e) in counts.iter().zip(&expect) {
            assert!((c - e).abs() < 1e-9, "{counts:?} vs {expect:?}");
        }
    }

    #[test]
    fn original_weaker_than_optimized_but_beats_uniform_on_ranges() {
        let n = 256;
        let stats = node_level_stats(n, 2, &range_energy);
        let original = greedy_h_original(&stats, RangeFamily::AllRange);
        let optimized = greedy_h_1d(&stats);
        let uniform = tree_strategy_error(&stats, &vec![1.0; stats.q_levels.len() + 1]);
        assert!(optimized.squared_error <= original.squared_error * 1.0001);
        assert!(original.squared_error < uniform);
    }

    #[test]
    fn arbitrary_family_is_leaf_heavy() {
        let n = 64;
        let stats = node_level_stats(n, 2, &prefix_energy);
        let r = greedy_h_original(&stats, RangeFamily::Arbitrary);
        assert!(r.level_weights[0] > 0.9, "{:?}", r.level_weights);
    }
}
