//! Projected L-BFGS with box lower bounds.
//!
//! The paper's implementation uses scipy's L-BFGS-B for every optimization
//! routine (§8.1). This is a from-scratch bound-constrained quasi-Newton
//! solver: limited-memory BFGS directions (two-loop recursion), Armijo
//! backtracking onto the feasible box, and projected-gradient convergence
//! tests. It is sufficient for HDMM's smooth objectives with non-negativity
//! constraints.

use std::collections::VecDeque;

/// Objective interface: value and gradient at a point.
pub trait Objective {
    /// Number of variables.
    fn dim(&self) -> usize;
    /// Objective value.
    fn value(&mut self, x: &[f64]) -> f64;
    /// Objective value, with the gradient written into `grad` (length
    /// [`Objective::dim`]) — the expensive call. A non-finite value marks an
    /// infeasible point; `grad` must still be fully written.
    fn value_grad(&mut self, x: &[f64], grad: &mut [f64]) -> f64;
}

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct LbfgsOptions {
    /// History size for the two-loop recursion.
    pub memory: usize,
    /// Iteration cap.
    pub max_iter: usize,
    /// Projected-gradient infinity-norm tolerance.
    pub gtol: f64,
    /// Relative objective-improvement tolerance.
    pub ftol: f64,
    /// Armijo sufficient-decrease constant.
    pub c1: f64,
    /// Weak-Wolfe curvature constant (guarantees `sᵀy > 0` updates).
    pub c2: f64,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            memory: 8,
            max_iter: 150,
            gtol: 1e-7,
            ftol: 1e-9,
            c1: 1e-4,
            c2: 0.9,
        }
    }
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// Final (feasible) point.
    pub x: Vec<f64>,
    /// Final objective value.
    pub value: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// True when a convergence test fired (vs. hitting `max_iter`).
    pub converged: bool,
}

fn project(x: &mut [f64], lower: &[f64]) {
    for (xi, &lo) in x.iter_mut().zip(lower) {
        if *xi < lo {
            *xi = lo;
        }
    }
}

/// Infinity norm of the projected gradient: entries at the bound only count
/// when they push further into feasibility.
fn projected_grad_norm(x: &[f64], g: &[f64], lower: &[f64]) -> f64 {
    let mut m = 0.0f64;
    for ((&xi, &gi), &lo) in x.iter().zip(g).zip(lower) {
        let pg = if xi <= lo && gi > 0.0 { 0.0 } else { gi };
        m = m.max(pg.abs());
    }
    m
}

/// Minimizes `f` over the box `x ≥ lower` starting from `x0`.
///
/// Every per-iteration vector is allocated once per solve and reused: the
/// active set, the reduced gradient, the two-loop vector, the direction, and
/// the curvature pairs, whose history rotates (the oldest pair's buffers
/// take the newest pair) once it holds `memory` of them.
pub fn minimize(
    f: &mut dyn Objective,
    x0: &[f64],
    lower: &[f64],
    opts: &LbfgsOptions,
) -> LbfgsResult {
    let n = f.dim();
    assert_eq!(x0.len(), n, "x0 dimension mismatch");
    assert_eq!(lower.len(), n, "bound dimension mismatch");

    let mut x = x0.to_vec();
    project(&mut x, lower);
    let mut g = vec![0.0; n];
    let mut fx = f.value_grad(&x, &mut g);
    // The line search's trial point and the best Armijo-satisfying one seen
    // so far, each with its gradient: accepting a trial swaps the pairs.
    let (mut cand, mut gv) = (vec![0.0; n], vec![0.0; n]);
    let (mut x_new, mut g_new) = (vec![0.0; n], vec![0.0; n]);

    // Per-iteration work vectors.
    let mut active = vec![false; n];
    let (mut gr, mut q, mut dir) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut alphas = Vec::with_capacity(opts.memory);
    // The next curvature pair is formed in `(s, y)`; an accepted pair moves
    // into the history, oldest first, and `(s, y)` take a spare pair's
    // buffers — the dropped oldest one's once the history is full.
    let (mut s, mut y) = (vec![0.0; n], vec![0.0; n]);
    let mut hist: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(opts.memory);
    let mut spare: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();

    let mut converged = false;
    let mut small_steps = 0usize;
    let mut iter = 0;
    while iter < opts.max_iter {
        iter += 1;
        if projected_grad_norm(&x, &g, lower) <= opts.gtol {
            converged = true;
            break;
        }

        // Active-set reduction: coordinates pinned at the bound with a
        // gradient pushing outward are frozen this iteration, so the
        // quasi-Newton direction lives in the free subspace (the gradient-
        // projection idea behind L-BFGS-B).
        for (((a, &xi), &lo), &gi) in active.iter_mut().zip(&x).zip(lower).zip(&g) {
            *a = xi <= lo && gi > 0.0;
        }
        gr.copy_from_slice(&g);
        for (gi, &a) in gr.iter_mut().zip(&active) {
            if a {
                *gi = 0.0;
            }
        }

        // Two-loop recursion for the search direction (on the reduced grad).
        q.copy_from_slice(&gr);
        let k = hist.len();
        alphas.clear();
        alphas.resize(k, 0.0);
        for (i, (s_i, y_i, rho_i)) in hist.iter().enumerate().rev() {
            let a = rho_i * dot(s_i, &q);
            alphas[i] = a;
            axpy(-a, y_i, &mut q);
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy.
        if let Some((s_k, y_k, _)) = hist.back() {
            let gamma = dot(s_k, y_k) / dot(y_k, y_k).max(1e-300);
            for qi in &mut q {
                *qi *= gamma;
            }
        }
        for ((s_i, y_i, rho_i), &a) in hist.iter().zip(&alphas) {
            let b = rho_i * dot(y_i, &q);
            axpy(a - b, s_i, &mut q);
        }
        for ((di, &qi), &a) in dir.iter_mut().zip(&q).zip(&active) {
            *di = if a { 0.0 } else { -qi };
        }

        // Ensure descent; fall back to (projected) steepest descent otherwise.
        if dot(&dir, &gr) >= 0.0 {
            for (di, &gi) in dir.iter_mut().zip(&gr) {
                *di = -gi;
            }
        }

        // Projected weak-Wolfe line search (bisection): Armijo for sufficient
        // decrease, curvature condition so the (s, y) pair satisfies sᵀy > 0.
        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        // Without curvature history the direction is a raw (possibly huge)
        // gradient; start from a unit-length step so backtracking can always
        // reach an acceptable point.
        let mut step = if k == 0 {
            let dir_norm = dir.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            (1.0 / dir_norm.max(1e-300)).min(1.0)
        } else {
            1.0f64
        };
        let mut best: Option<f64> = None;
        for _ in 0..30 {
            for i in 0..n {
                cand[i] = x[i] + step * dir[i];
            }
            project(&mut cand, lower);
            // Displacement after projection (the effective step).
            let decrease: f64 = (0..n).map(|i| g[i] * (cand[i] - x[i])).sum();
            let fv = f.value_grad(&cand, &mut gv);
            if !fv.is_finite() || fv > fx + opts.c1 * decrease || decrease >= 0.0 {
                // Too long (or no progress): shrink.
                hi = step;
                step = 0.5 * (lo + hi);
            } else {
                let new_slope: f64 = (0..n).map(|i| gv[i] * (cand[i] - x[i])).sum();
                let done = new_slope >= opts.c2 * decrease || hi.is_finite();
                best = Some(fv);
                std::mem::swap(&mut cand, &mut x_new);
                std::mem::swap(&mut gv, &mut g_new);
                if done {
                    break;
                }
                // Still descending steeply: lengthen while unbounded (near the
                // box boundary lengthening saturates harmlessly).
                lo = step;
                step *= 2.0;
            }
            if hi.is_finite() && (hi - lo) <= 1e-14 * hi.max(1.0) {
                break;
            }
        }
        let Some(f_new) = best else {
            converged = true; // no further progress possible along any scale
            break;
        };

        // Maintain curvature pairs from the projected step.
        for i in 0..n {
            s[i] = x_new[i] - x[i];
            y[i] = g_new[i] - g[i];
        }
        let sy = dot(&s, &y);
        if sy > 1e-12 * dot(&y, &y).sqrt() * dot(&s, &s).sqrt() {
            if opts.memory > 0 {
                if hist.len() == opts.memory {
                    spare.extend(hist.pop_front().map(|(old_s, old_y, _)| (old_s, old_y)));
                }
                let (next_s, next_y) = spare.pop().unwrap_or_else(|| (vec![0.0; n], vec![0.0; n]));
                let (s, y) = (
                    std::mem::replace(&mut s, next_s),
                    std::mem::replace(&mut y, next_y),
                );
                hist.push_back((s, y, 1.0 / sy));
            }
        } else {
            // Negative curvature along a projected step: the stale history
            // would keep producing the same poor direction — drop it.
            spare.extend(hist.drain(..).map(|(old_s, old_y, _)| (old_s, old_y)));
        }

        let rel_impr = (fx - f_new) / fx.abs().max(1e-30);
        std::mem::swap(&mut x, &mut x_new);
        std::mem::swap(&mut g, &mut g_new);
        fx = f_new;
        // Declare convergence only after two consecutive negligible
        // improvements: the first (normalized) step after a history reset is
        // intentionally tiny and must not trigger the test.
        if rel_impr >= 0.0 && rel_impr < opts.ftol {
            small_steps += 1;
            if small_steps >= 2 {
                converged = true;
                break;
            }
        } else {
            small_steps = 0;
        }
    }

    LbfgsResult {
        x,
        value: fx,
        iterations: iter,
        converged,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic `Σ cᵢ(xᵢ − tᵢ)²` with closure-style evaluation counting.
    struct Quadratic {
        c: Vec<f64>,
        t: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            self.c.len()
        }
        fn value(&mut self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.c)
                .zip(&self.t)
                .map(|((&xi, &ci), &ti)| ci * (xi - ti) * (xi - ti))
                .sum()
        }
        fn value_grad(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
            for (((g, &xi), &ci), &ti) in grad.iter_mut().zip(x).zip(&self.c).zip(&self.t) {
                *g = 2.0 * ci * (xi - ti);
            }
            self.value(x)
        }
    }

    #[test]
    fn unconstrained_quadratic() {
        let mut f = Quadratic {
            c: vec![1.0, 10.0, 0.5],
            t: vec![1.0, -2.0, 3.0],
        };
        let lower = vec![f64::NEG_INFINITY; 3];
        let r = minimize(&mut f, &[0.0; 3], &lower, &LbfgsOptions::default());
        assert!(r.converged);
        for (xi, ti) in r.x.iter().zip(&f.t) {
            assert!((xi - ti).abs() < 1e-5, "{xi} vs {ti}");
        }
    }

    #[test]
    fn bound_becomes_active() {
        // Minimum at t = (-2, 3) but x ≥ 0 forces x₀ = 0.
        let mut f = Quadratic {
            c: vec![1.0, 1.0],
            t: vec![-2.0, 3.0],
        };
        let r = minimize(&mut f, &[1.0, 1.0], &[0.0, 0.0], &LbfgsOptions::default());
        assert!(r.x[0].abs() < 1e-6);
        assert!((r.x[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn rosenbrock_2d() {
        struct Rosenbrock;
        impl Objective for Rosenbrock {
            fn dim(&self) -> usize {
                2
            }
            fn value(&mut self, x: &[f64]) -> f64 {
                (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
            }
            fn value_grad(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
                grad[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
                grad[1] = 200.0 * (x[1] - x[0] * x[0]);
                self.value(x)
            }
        }
        let r = minimize(
            &mut Rosenbrock,
            &[-1.2, 1.0],
            &[f64::NEG_INFINITY; 2],
            &LbfgsOptions {
                max_iter: 500,
                ..Default::default()
            },
        );
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn starts_outside_box_projects_in() {
        let mut f = Quadratic {
            c: vec![1.0],
            t: vec![5.0],
        };
        let r = minimize(&mut f, &[-10.0], &[0.0], &LbfgsOptions::default());
        assert!((r.x[0] - 5.0).abs() < 1e-6);
    }
}
