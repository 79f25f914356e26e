//! DAWA: the two-stage data-dependent mechanism (Li et al. \[25\]).
//!
//! Stage 1 spends a fraction of ε finding a partition of the (1D, ordered)
//! domain into buckets that are approximately uniform; stage 2 spends the
//! rest measuring a workload-adapted strategy over the reduced bucket domain,
//! expanding uniformly within buckets. Our stage 1 is a noisy dynamic program
//! over squared deviation (the original uses an L1 variant); stage 2 is
//! pluggable — GreedyH for the original algorithm, `OPT_0` for the paper's
//! Appendix B.3 "DAWA + HDMM" hybrid (Table 6).

use crate::greedy_h::greedy_h_explicit;
use hdmm_linalg::{inverse_gram, Matrix};
use hdmm_mechanism::laplace::add_laplace_noise;
use hdmm_optimizer::{opt0_with, Opt0Options};
use rand::Rng;

/// Which strategy-selection algorithm stage 2 runs on the reduced domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage2 {
    /// The original DAWA second stage.
    GreedyH,
    /// The Appendix B.3 hybrid.
    Hdmm,
}

/// DAWA configuration.
#[derive(Debug, Clone, Copy)]
pub struct DawaOptions {
    /// Fraction of ε spent on the partition (the paper's default ratio).
    pub partition_budget: f64,
    /// Second-stage algorithm.
    pub stage2: Stage2,
}

impl Default for DawaOptions {
    fn default() -> Self {
        DawaOptions {
            partition_budget: 0.25,
            stage2: Stage2::GreedyH,
        }
    }
}

/// Stage 1: noisy dynamic-program partition of `x` into near-uniform buckets.
///
/// Returns bucket start indices (always beginning with 0). ε₁-DP: decisions
/// depend on the data only through a Laplace-noised copy.
pub fn dawa_partition(x: &[f64], eps1: f64, penalty: f64, rng: &mut impl Rng) -> Vec<usize> {
    let n = x.len();
    let mut noisy = x.to_vec();
    add_laplace_noise(&mut noisy, 1.0 / eps1, rng);

    // Prefix sums for O(1) squared-deviation of any interval.
    let mut s = vec![0.0; n + 1];
    let mut s2 = vec![0.0; n + 1];
    for (i, &v) in noisy.iter().enumerate() {
        s[i + 1] = s[i] + v;
        s2[i + 1] = s2[i] + v * v;
    }
    let dev = |i: usize, j: usize| {
        // Σ (v − mean)² over [i, j).
        let len = (j - i) as f64;
        let sum = s[j] - s[i];
        (s2[j] - s2[i]) - sum * sum / len
    };
    let mut cost = vec![f64::INFINITY; n + 1];
    let mut back = vec![0usize; n + 1];
    cost[0] = 0.0;
    for j in 1..=n {
        for i in 0..j {
            let c = cost[i] + dev(i, j) + penalty;
            if c < cost[j] {
                cost[j] = c;
                back[j] = i;
            }
        }
    }
    let mut cuts = Vec::new();
    let mut j = n;
    while j > 0 {
        let i = back[j];
        cuts.push(i);
        j = i;
    }
    cuts.reverse();
    cuts
}

/// The `n×B` uniform-expansion matrix: cell `i` in bucket `b` of length
/// `len_b` gets `1/len_b` of the bucket estimate.
pub fn expansion_matrix(n: usize, starts: &[usize]) -> Matrix {
    let b = starts.len();
    let mut p = Matrix::zeros(n, b);
    for (bi, &start) in starts.iter().enumerate() {
        let end = starts.get(bi + 1).copied().unwrap_or(n);
        let len = (end - start) as f64;
        for i in start..end {
            p[(i, bi)] = 1.0 / len;
        }
    }
    p
}

/// The `B×n` aggregation matrix summing cells into buckets.
pub fn aggregation_matrix(n: usize, starts: &[usize]) -> Matrix {
    let b = starts.len();
    let mut p = Matrix::zeros(b, n);
    for (bi, &start) in starts.iter().enumerate() {
        let end = starts.get(bi + 1).copied().unwrap_or(n);
        for i in start..end {
            p[(bi, i)] = 1.0;
        }
    }
    p
}

/// One end-to-end DAWA run on a 1D workload with explicit matrix `w`.
/// Returns the private workload answers.
pub fn dawa_run(
    w: &Matrix,
    x: &[f64],
    eps: f64,
    opts: &DawaOptions,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let n = x.len();
    assert_eq!(w.cols(), n, "workload width mismatch");
    let eps1 = eps * opts.partition_budget;
    let eps2 = eps - eps1;

    // Stage 1: partition. The per-bucket penalty reflects the stage-2 noise
    // each additional bucket measurement would carry.
    let starts = dawa_partition(x, eps1, 2.0 / (eps2 * eps2), rng);
    let b = starts.len();

    // Reduced workload: answering W through uniform expansion is W·P_exp.
    let p_exp = expansion_matrix(n, &starts);
    let w_reduced = w.matmul(&p_exp);
    let wtw_reduced = w_reduced.gram();

    // Stage 2: select a strategy over the bucket domain.
    let strategy = match opts.stage2 {
        Stage2::GreedyH => greedy_h_explicit(&wtw_reduced).0,
        Stage2::Hdmm => {
            let p = (b / 16).max(1);
            opt0_with(&wtw_reduced, &Opt0Options { p, max_iter: 100 }, rng)
                .pident
                .matrix()
        }
    };

    // Measure bucket counts through the strategy.
    let agg = aggregation_matrix(n, &starts);
    let x_buckets = agg.matvec(x);
    let mut y = strategy.matvec(&x_buckets);
    let sens = strategy.norm_l1_operator();
    add_laplace_noise(&mut y, sens / eps2, rng);

    // Reconstruct bucket estimates and expand uniformly.
    let x_hat_buckets = inverse_gram(&strategy.gram()).matvec(&strategy.t_matvec(&y));
    let x_hat = p_exp.matvec(&x_hat_buckets);
    w.matvec(&x_hat)
}

/// Average total squared error of DAWA over `trials` runs.
pub fn dawa_expected_error(
    w: &Matrix,
    x: &[f64],
    eps: f64,
    opts: &DawaOptions,
    trials: usize,
    rng: &mut impl Rng,
) -> f64 {
    let truth = w.matvec(x);
    let mut total = 0.0;
    for _ in 0..trials {
        let ans = dawa_run(w, x, eps, opts, rng);
        total += ans
            .iter()
            .zip(&truth)
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>();
    }
    total / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_workload::blocks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn piecewise_uniform(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i < n / 3 {
                    100.0
                } else if i < 2 * n / 3 {
                    5.0
                } else {
                    40.0
                }
            })
            .collect()
    }

    #[test]
    fn partition_finds_uniform_regions() {
        let x = piecewise_uniform(64);
        let mut rng = StdRng::seed_from_u64(0);
        // Generous budget: the three plateaus should be found almost exactly.
        let starts = dawa_partition(&x, 50.0, 8.0, &mut rng);
        assert!(starts.len() <= 8, "too many buckets: {starts:?}");
        assert!(starts.contains(&0));
    }

    #[test]
    fn expansion_and_aggregation_are_consistent() {
        let starts = vec![0, 3, 8];
        let n = 10;
        let agg = aggregation_matrix(n, &starts);
        let exp = expansion_matrix(n, &starts);
        // agg · exp = I_B (uniform expansion preserves bucket totals).
        let prod = agg.matmul(&exp);
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn high_budget_runs_are_accurate_on_uniform_data() {
        let n = 32;
        let x = vec![10.0; n];
        let w = blocks::prefix(n);
        let mut rng = StdRng::seed_from_u64(1);
        let ans = dawa_run(&w, &x, 1e6, &DawaOptions::default(), &mut rng);
        let truth = w.matvec(&x);
        for (a, t) in ans.iter().zip(&truth) {
            assert!((a - t).abs() < 1.0, "{a} vs {t}");
        }
    }

    #[test]
    fn hdmm_stage2_no_worse_than_greedyh_on_average() {
        let n = 64;
        let x = piecewise_uniform(n);
        let w = blocks::prefix(n);
        let mut rng = StdRng::seed_from_u64(2);
        let eps = 2f64.sqrt();
        let g = dawa_expected_error(&w, &x, eps, &DawaOptions::default(), 12, &mut rng);
        let h = dawa_expected_error(
            &w,
            &x,
            eps,
            &DawaOptions {
                stage2: Stage2::Hdmm,
                ..Default::default()
            },
            12,
            &mut rng,
        );
        // Same pipeline, better stage 2: allow noise slack but require parity.
        assert!(h < 1.5 * g, "hdmm {h} vs greedyh {g}");
    }
}
