//! General-strategy gradient search — the stand-in for MM/LRM.
//!
//! The Matrix Mechanism solves a rank-constrained SDP (infeasible beyond toy
//! domains) and the Low-Rank Mechanism optimizes a full factorization; both
//! explore an *unrestricted* strategy space at O(N³)-per-iteration cost.
//! This module reproduces that behaviour class: gradient descent on
//! `C(A) = tr[(AᵀA)⁻¹(WᵀW)]` (Equations 3/4 of the paper) over non-negative
//! column-normalized `m×n` strategies, with dense `O(n³)` linear algebra per
//! iteration. Accuracy lands between Identity and HDMM, and the runtime wall
//! reproduces Figure 1a/1b's LRM curve.

use hdmm_linalg::{Cholesky, Matrix};
use hdmm_optimizer::lbfgs::{minimize, LbfgsOptions, Objective};
use rand::Rng;

/// Result of the general-strategy search.
#[derive(Debug, Clone)]
pub struct GeneralResult {
    /// Sensitivity-1 strategy matrix.
    pub strategy: Matrix,
    /// `‖W·A⁺‖²` at the optimum.
    pub squared_error: f64,
}

/// The unrestricted objective over non-negative `m×n` parameters `Θ`, with
/// the column normalization `A = Θ·diag(1ᵀΘ)⁻¹` folded into the gradient
/// (same chain rule as the p-Identity class, §5.2, minus the identity block).
struct GeneralObjective<'a> {
    wtw: &'a Matrix,
    m: usize,
    n: usize,
}

impl GeneralObjective<'_> {
    fn normalize(&self, theta: &Matrix) -> (Matrix, Vec<f64>) {
        let mut d = vec![0.0; self.n];
        for k in 0..self.m {
            for (dj, &t) in d.iter_mut().zip(theta.row(k)) {
                *dj += t;
            }
        }
        for dj in &mut d {
            *dj = 1.0 / dj.max(1e-12);
        }
        let mut a = theta.clone();
        for (j, &dj) in d.iter().enumerate() {
            a.scale_col(j, dj);
        }
        (a, d)
    }
}

impl Objective for GeneralObjective<'_> {
    fn dim(&self) -> usize {
        self.m * self.n
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        let theta = Matrix::from_vec(self.m, self.n, x.to_vec());
        let (a, _) = self.normalize(&theta);
        let gram = a.gram();
        match Cholesky::new_regularized(&gram, 1e-10) {
            Ok(ch) => ch.trace_solve(self.wtw),
            Err(_) => f64::INFINITY,
        }
    }

    fn value_grad(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let theta = Matrix::from_vec(self.m, self.n, x.to_vec());
        let (a, d) = self.normalize(&theta);
        let gram = a.gram();
        let ch = match Cholesky::new_regularized(&gram, 1e-10) {
            Ok(ch) => ch,
            Err(_) => {
                grad.fill(0.0);
                return f64::INFINITY;
            }
        };
        // Y = (AᵀA)⁻¹(WᵀW); X = Y·(AᵀA)⁻¹; C = tr(Y)  — dense O(n³).
        let y = ch.solve_matrix(self.wtw);
        let c = y.trace();
        let x_mat = ch.solve_matrix(&y.transpose()).transpose();
        // G = ∂C/∂A = −2AX (m×n).
        let g = a.matmul(&x_mat).scaled(-2.0);
        // Chain rule through the column normalization.
        for l in 0..self.n {
            let mut theta_g = 0.0;
            for k in 0..self.m {
                theta_g += theta[(k, l)] * g[(k, l)];
            }
            let common = d[l] * d[l] * theta_g;
            for k in 0..self.m {
                grad[k * self.n + l] = d[l] * g[(k, l)] - common;
            }
        }
        c
    }
}

/// Runs the general-strategy search with `m = 3n/2` strategy queries.
pub fn general_mechanism(wtw: &Matrix, max_iter: usize, rng: &mut impl Rng) -> GeneralResult {
    let n = wtw.rows();
    let m = n + n / 2;
    // Identity-plus-noise start: full rank, with substantial random rows so
    // the search does not collapse straight back into the Identity basin.
    let mut theta = Matrix::zeros(m, n);
    for j in 0..n {
        theta[(j, j)] = 1.0;
    }
    for k in n..m {
        for j in 0..n {
            theta[(k, j)] = rng.gen::<f64>();
        }
    }
    let mut obj = GeneralObjective { wtw, m, n };
    let res = minimize(
        &mut obj,
        theta.as_slice(),
        &vec![0.0; m * n],
        &LbfgsOptions {
            max_iter,
            ..Default::default()
        },
    );
    let theta = Matrix::from_vec(m, n, res.x);
    let (a, _) = GeneralObjective { wtw, m, n }.normalize(&theta);
    GeneralResult {
        strategy: a,
        squared_error: res.value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_workload::blocks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gradient_matches_finite_differences() {
        let n = 5;
        let wtw = blocks::gram_prefix(n);
        let mut obj = GeneralObjective { wtw: &wtw, m: 7, n };
        let mut rng = StdRng::seed_from_u64(0);
        let x: Vec<f64> = (0..7 * n).map(|_| rng.gen::<f64>() + 0.05).collect();
        let mut grad = vec![0.0; x.len()];
        obj.value_grad(&x, &mut grad);
        let h = 1e-6;
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (obj.value(&xp) - obj.value(&xm)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-3 * fd.abs().max(1.0),
                "i={i}: {} vs {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn improves_on_identity_for_prefix() {
        let n = 32;
        let wtw = blocks::gram_prefix(n);
        let identity = wtw.trace();
        let mut rng = StdRng::seed_from_u64(1);
        let r = general_mechanism(&wtw, 80, &mut rng);
        assert!(
            r.squared_error < identity,
            "{} vs {identity}",
            r.squared_error
        );
        assert!((r.strategy.norm_l1_operator() - 1.0).abs() < 1e-6);
    }
}
