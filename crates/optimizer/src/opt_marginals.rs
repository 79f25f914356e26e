//! `OPT_M`: optimization over weighted-marginals strategies (Problem 4, §6.3).
//!
//! The variable is `θ ∈ R₊^{2^d}` (one weight per attribute subset) and the
//! objective is `(Σθ)²·‖W·M(θ)⁺‖²_F`, evaluated in O(4^d) through the subset
//! algebra: `‖W·M(θ)⁺‖² = vᵀT` with `X(θ²)·v = e_full` and `T` the workload
//! statistics (Appendix A.4). The gradient uses the adjoint solve
//! `X(u)ᵀy = T`, giving `∂(vᵀT)/∂u_a = −Σ_b y_{a&b}·C̄(a|b)·v_b`.

use crate::lbfgs::{minimize, LbfgsOptions, Objective};
use hdmm_mechanism::{MarginalsAlgebra, MarginalsStrategy};
use hdmm_workload::WorkloadGrams;
use rand::Rng;

/// Minimum allowed weight on the full contingency table, keeping `M(θ)`
/// supportive of every workload (Problem 4's `θ_{2^d} > 0` constraint).
///
/// The floor is not merely symbolic: `MᵀM`'s condition number scales with
/// `1/θ_full²`, and an ill-conditioned strategy leaks measurement noise
/// through the reconstruction's near-null subspace. A 1e-3 floor consumes
/// 0.1% of the budget while bounding the condition number at ~1e6.
const FULL_TABLE_FLOOR: f64 = 1e-3;

/// The marginals objective for the L-BFGS solver.
pub struct MarginalsObjective {
    algebra: MarginalsAlgebra,
    /// Workload statistics `T_a` (precomputed once; §6.3).
    t: Vec<f64>,
}

impl MarginalsObjective {
    /// Precomputes the workload statistics.
    pub fn new(grams: &WorkloadGrams) -> Self {
        let algebra = MarginalsAlgebra::new(grams.domain());
        let t = algebra.workload_stats(grams);
        MarginalsObjective { algebra, t }
    }

    /// The precomputed workload statistics `T_a`.
    pub fn workload_stats(&self) -> &[f64] {
        &self.t
    }

    fn residual_and_solves(&self, theta: &[f64]) -> (f64, Vec<f64>, Vec<f64>, Vec<f64>) {
        let u: Vec<f64> = theta.iter().map(|t| t * t).collect();
        let x = self.algebra.x_matrix(&u);
        let s = self.algebra.subsets();
        let mut z = vec![0.0; s];
        z[s - 1] = 1.0;
        let v = x.solve_upper(&z);
        let y = x.solve_upper_transpose(&self.t);
        let g: f64 = v.iter().zip(&self.t).map(|(a, b)| a * b).sum();
        (g, u, v, y)
    }
}

impl Objective for MarginalsObjective {
    fn dim(&self) -> usize {
        self.algebra.subsets()
    }

    fn value(&mut self, theta: &[f64]) -> f64 {
        let u: Vec<f64> = theta.iter().map(|t| t * t).collect();
        let x = self.algebra.x_matrix(&u);
        let s = self.algebra.subsets();
        let mut z = vec![0.0; s];
        z[s - 1] = 1.0;
        let v = x.solve_upper(&z);
        let g: f64 = v.iter().zip(&self.t).map(|(a, b)| a * b).sum();
        if !g.is_finite() || g <= 0.0 {
            // Numerical breakdown of the triangular solve near the boundary
            // of the feasible set: treat as infeasible.
            return f64::INFINITY;
        }
        let sum: f64 = theta.iter().sum();
        sum * sum * g
    }

    fn value_grad(&mut self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let (g, _u, v, y) = self.residual_and_solves(theta);
        if !g.is_finite() || g <= 0.0 {
            grad.fill(0.0);
            return f64::INFINITY;
        }
        let sum: f64 = theta.iter().sum();

        for (a, (out, &theta_a)) in grad.iter_mut().zip(theta).enumerate() {
            // dg/du_a = −Σ_b y_{a&b}·C̄(a|b)·v_b  (O(4^d)).
            let mut acc = 0.0;
            for (b, &vb) in v.iter().enumerate() {
                if vb != 0.0 {
                    acc += y[a & b] * self.algebra.cbar(a | b) * vb;
                }
            }
            let dg_du = -acc;
            // df/dθ_a = 2·(Σθ)·g + (Σθ)²·dg/du_a·2θ_a.
            *out = 2.0 * sum * g + sum * sum * dg_du * 2.0 * theta_a;
        }
        sum * sum * g
    }
}

/// Result of `OPT_M`.
#[derive(Debug, Clone)]
pub struct OptMarginalsResult {
    /// The optimized weighted-marginals strategy.
    pub strategy: MarginalsStrategy,
    /// Squared error `‖M(θ)‖₁²·‖W·M(θ)⁺‖²_F` (sensitivity included).
    pub squared_error: f64,
}

/// The objective over the free weights `φ` (all subsets but the full table),
/// with the full-table weight *pinned* to a fixed fraction of the total:
/// `θ_full = c·Σφ` with `c = FLOOR/(1−FLOOR)`.
///
/// The raw objective is scale-invariant, so a per-coordinate lower bound on
/// `θ_full` cannot keep it bounded away from zero *relative to the rest* —
/// and in the near-singular regime (`θ_full/Σθ ≲ 1e-7`) the triangular solve
/// silently returns garbage the optimizer then exploits. Pinning removes the
/// degenerate direction at a 0.1% budget cost.
struct PinnedMarginalsObjective {
    inner: MarginalsObjective,
    c: f64,
    /// The inner gradient over all `2^d` weights.
    theta_grad: Vec<f64>,
}

impl PinnedMarginalsObjective {
    fn expand(&self, phi: &[f64]) -> Vec<f64> {
        let sum: f64 = phi.iter().sum();
        let mut theta = Vec::with_capacity(phi.len() + 1);
        theta.extend_from_slice(phi);
        theta.push(self.c * sum.max(1e-300));
        theta
    }
}

impl Objective for PinnedMarginalsObjective {
    fn dim(&self) -> usize {
        self.inner.dim() - 1
    }
    fn value(&mut self, phi: &[f64]) -> f64 {
        let theta = self.expand(phi);
        self.inner.value(&theta)
    }
    fn value_grad(&mut self, phi: &[f64], grad: &mut [f64]) -> f64 {
        let theta = self.expand(phi);
        let f = self.inner.value_grad(&theta, &mut self.theta_grad);
        let g_full = self.theta_grad[phi.len()];
        for (out, gi) in grad.iter_mut().zip(&self.theta_grad) {
            *out = gi + self.c * g_full;
        }
        f
    }
}

/// Runs one `OPT_M` optimization: tries a random initialization *and* a
/// workload-informed one (weights proportional to the cube root of the
/// workload statistics `T_a` — the optimal allocation heuristic), keeping
/// the better local optimum. Both share the caller's RNG stream so restarts
/// explore different random starts.
pub fn opt_marginals(grams: &WorkloadGrams, rng: &mut impl Rng) -> OptMarginalsResult {
    let domain = grams.domain().clone();
    let s = 1usize << domain.dims();
    let c = FULL_TABLE_FLOOR / (1.0 - FULL_TABLE_FLOOR);
    let mut objective = PinnedMarginalsObjective {
        inner: MarginalsObjective::new(grams),
        c,
        theta_grad: vec![0.0; s],
    };
    let lower = vec![0.0; s - 1];
    let opts = LbfgsOptions {
        max_iter: 200,
        ..Default::default()
    };

    // Random start over the free weights.
    let x_random: Vec<f64> = (0..s - 1).map(|_| rng.gen::<f64>() + 0.01).collect();
    // Workload-informed start: φ_a ∝ T_a^{1/3}, normalized.
    let t_stats = objective.inner.workload_stats().to_vec();
    let max_t = t_stats.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    let x_informed: Vec<f64> = t_stats[..s - 1]
        .iter()
        .map(|&t| (t / max_t).cbrt().max(1e-3))
        .collect();

    let mut res = minimize(&mut objective, &x_random, &lower, &opts);
    let res_informed = minimize(&mut objective, &x_informed, &lower, &opts);
    if res_informed.value < res.value {
        res = res_informed;
    }
    // Expand, normalize to sensitivity 1 (the objective is scale invariant),
    // and clear negligible weights (they only hurt conditioning).
    let mut theta = objective.expand(&res.x);
    let total: f64 = theta.iter().sum();
    for t in theta.iter_mut() {
        *t /= total;
    }
    let last = theta.len() - 1;
    for (i, t) in theta.iter_mut().enumerate() {
        if i != last && *t < 1e-4 {
            *t = 0.0;
        }
    }
    theta[last] = theta[last].max(FULL_TABLE_FLOOR / 2.0);
    let total: f64 = theta.iter().sum();
    for t in theta.iter_mut() {
        *t /= total;
    }
    // Report the error of the strategy actually returned; numerical
    // breakdowns surface as infinite error so Algorithm 2 falls back to a
    // different operator rather than selecting garbage.
    let strategy = MarginalsStrategy::new(domain, theta);
    let raw = strategy.sensitivity().powi(2) * strategy.residual_error(grams);
    let squared_error = if raw.is_finite() && raw > 0.0 {
        raw
    } else {
        f64::INFINITY
    };
    OptMarginalsResult {
        strategy,
        squared_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_workload::{builders, Domain, WorkloadGrams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn objective_matches_strategy_error() {
        let domain = Domain::new(&[3, 4]);
        let grams = WorkloadGrams::from_workload(&builders::all_marginals(&domain));
        let mut obj = MarginalsObjective::new(&grams);
        let theta = vec![0.3, 0.2, 0.4, 0.5];
        let f = obj.value(&theta);
        let strat = MarginalsStrategy::new(domain, theta.clone());
        let direct = strat.sensitivity().powi(2) * strat.residual_error(&grams);
        assert!((f - direct).abs() < 1e-8 * direct, "{f} vs {direct}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let domain = Domain::new(&[2, 3, 2]);
        let grams = WorkloadGrams::from_workload(&builders::all_marginals(&domain));
        let mut obj = MarginalsObjective::new(&grams);
        let theta = vec![0.4, 0.3, 0.2, 0.5, 0.35, 0.15, 0.25, 0.6];
        let mut grad = vec![0.0; theta.len()];
        obj.value_grad(&theta, &mut grad);
        let h = 1e-6;
        for i in 0..theta.len() {
            let mut tp = theta.clone();
            tp[i] += h;
            let mut tm = theta.clone();
            tm[i] -= h;
            let fd = (obj.value(&tp) - obj.value(&tm)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-4 * fd.abs().max(1.0),
                "i={i}: analytic {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn optimization_beats_uniform_and_identity() {
        // Enough attributes that Identity pays a large aggregation cost per
        // marginal cell (the Table 5 regime).
        let domain = Domain::new(&[4, 4, 4, 4, 4]);
        let grams = WorkloadGrams::from_workload(&builders::kway_marginals(&domain, 2));
        // Single starts can land in poor local minima (the paper's Figure 3);
        // take the best of three restarts like Algorithm 2 does.
        let mut rng = StdRng::seed_from_u64(0);
        let res = (0..3)
            .map(|_| opt_marginals(&grams, &mut rng))
            .min_by(|a, b| a.squared_error.partial_cmp(&b.squared_error).unwrap())
            .unwrap();
        let uniform = MarginalsStrategy::uniform(domain.clone());
        let uniform_err = uniform.sensitivity().powi(2) * uniform.residual_error(&grams);
        let identity_err = grams.frobenius_norm_sq();
        assert!(res.squared_error <= uniform_err * 1.0001);
        assert!(res.squared_error < identity_err);
    }

    #[test]
    fn full_table_weight_stays_positive() {
        let domain = Domain::new(&[2, 2]);
        let grams = WorkloadGrams::from_workload(&builders::upto_kway_marginals(&domain, 1));
        let mut rng = StdRng::seed_from_u64(1);
        let res = opt_marginals(&grams, &mut rng);
        assert!(res.strategy.theta[3] > 0.0);
        assert!((res.strategy.sensitivity() - 1.0).abs() < 1e-9);
    }
}
