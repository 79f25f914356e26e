//! `OPT_0`: gradient optimization over p-Identity strategies (§5.2).
//!
//! The strategy space is `A(Θ) = [I; Θ]·D` with `Θ ∈ R₊^{p×n}` and
//! `D = diag(1_N + 1_p·Θ)⁻¹`, which guarantees `‖A‖₁ = 1` and support for
//! every workload (the identity rows). The objective is
//! `C(A) = ‖WA⁺‖²_F = tr[(AᵀA)⁻¹·WᵀW]`; Theorem 4/8 reduce both the
//! objective and its gradient to O(pn²) through the Woodbury identity
//!
//! ```text
//! (AᵀA)⁻¹ = D⁻¹·[I − Θᵀ(I_p + ΘΘᵀ)⁻¹Θ]·D⁻¹ .
//! ```

use crate::lbfgs::{minimize, LbfgsOptions, Objective};
use hdmm_linalg::{simd, Cholesky, Matrix, StructuredMatrix};
use rand::Rng;

/// A p-Identity strategy `A(Θ)` in parameter form (Definition 9).
#[derive(Debug, Clone)]
pub struct PIdentity {
    theta: Matrix,
}

impl PIdentity {
    /// Wraps a non-negative `p×n` parameter matrix.
    pub fn new(theta: Matrix) -> Self {
        assert!(
            theta.as_slice().iter().all(|&v| v >= 0.0),
            "Θ must be non-negative"
        );
        PIdentity { theta }
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.theta.cols()
    }

    /// Number of extra queries `p`.
    pub fn p(&self) -> usize {
        self.theta.rows()
    }

    /// The parameter matrix `Θ`.
    pub fn theta(&self) -> &Matrix {
        &self.theta
    }

    /// Column scales `d_j = 1/(1 + Σ_k Θ_kj)` making `‖A‖₁ = 1`.
    pub fn scales(&self) -> Vec<f64> {
        let (p, n) = self.theta.shape();
        let mut d = vec![1.0; n];
        for k in 0..p {
            for (dj, &t) in d.iter_mut().zip(self.theta.row(k)) {
                *dj += t;
            }
        }
        for dj in &mut d {
            *dj = 1.0 / *dj;
        }
        d
    }

    /// Materializes the `(n+p)×n` strategy matrix `A(Θ)` (Example 8).
    pub fn matrix(&self) -> Matrix {
        let (p, n) = self.theta.shape();
        let d = self.scales();
        let mut a = Matrix::zeros(n + p, n);
        for (j, &dj) in d.iter().enumerate() {
            a[(j, j)] = dj;
        }
        for k in 0..p {
            let src = self.theta.row(k);
            let dst = a.row_mut(n + k);
            for (j, (&t, &dj)) in src.iter().zip(&d).enumerate() {
                dst[j] = t * dj;
            }
        }
        a
    }

    /// `A(Θ)` as the structured leaf SELECT hands on:
    /// [`StructuredMatrix::PIdentity`] with `diag = d` and `block = Θ·D`, the
    /// values of [`PIdentity::matrix`] bit for bit in `p·n + n` numbers. Its
    /// inverse Gram is the closed-form Woodbury leaf
    /// ([`StructuredMatrix::gram_pinv`]).
    pub fn leaf(&self) -> StructuredMatrix {
        let diag = self.scales();
        let mut block = self.theta.clone();
        for k in 0..block.rows() {
            for (b, &dj) in block.row_mut(k).iter_mut().zip(&diag) {
                *b *= dj;
            }
        }
        StructuredMatrix::PIdentity { diag, block }
    }

    /// `tr[(A(Θ)ᵀA(Θ))⁻¹·G]` in O(pn²) via the Woodbury identity — never
    /// materializing the `n×n` inverse (Theorem 8's objective evaluation,
    /// reused for arbitrary Gram matrices `G`). `+∞` for a `Θ` outside the
    /// evaluation's domain (`MAX_COLUMN_SCALE`).
    pub fn trace_inverse_gram(&self, g: &Matrix) -> f64 {
        Woodbury::new(self.p(), self.n()).trace(self.theta.as_slice(), g)
    }
}

/// Largest column scale `e_l = 1 + Σ_k Θ_kl` the evaluation accepts. The
/// Woodbury form leaves `Y_ll` (of the size of `G_ll`) as the difference of
/// two terms of size `e_l²·G_ll`, so it keeps about `16 − 2·log₁₀ e_l` digits;
/// a runaway column would let the line search descend into rounding noise
/// and SELECT fold a loss the strategy does not have. Past this scale (8
/// digits left) a point is infeasible, like any non-finite value. The bound
/// costs a strategy at most the `2/e_l` of budget its identity rows keep.
const MAX_COLUMN_SCALE: f64 = 1e4;

/// One evaluation of `C(Θ) = tr[(AᵀA)⁻¹·G]` and the buffers it runs in.
///
/// With `e_j = 1 + Σ_k Θ_kj` (so `D⁻¹ = E = diag(e)`), `R = (I_p + ΘΘᵀ)⁻¹`
/// and `H = E·G·E`, the Woodbury identity reads `(AᵀA)⁻¹ = E·(I − ΘᵀRΘ)·E`,
/// and `Y = (AᵀA)⁻¹·G` has the diagonal
///
/// ```text
/// Q = (ΘE)·G·E = ΘH                   the only p×n×n product
/// T = RQ                              O(p²n), in place
/// Y_ll = e_l²·G_ll − Σ_k Θ_kl·T_kl     C = Σ_l Y_ll
/// ```
///
/// so nothing `n×n` is ever formed. [`Woodbury::trace`] stops there;
/// [`Opt0Objective`] continues to the gradient from the same buffers.
struct Woodbury {
    p: usize,
    n: usize,
    /// `e_j = 1/d_j`.
    e: Vec<f64>,
    /// `diag(Y)`.
    y_diag: Vec<f64>,
    /// `ΘE`, the left operand of the product.
    theta_e: Matrix,
    /// `Q`, then `T = RQ`.
    t: Matrix,
    /// `S = RΘ` and `U = (TΘᵀ)·S`, for the gradient.
    s: Matrix,
    u: Matrix,
    /// `I_p + ΘΘᵀ`; `TΘᵀ` for the gradient.
    pp: Matrix,
    /// The Cholesky factor of `I_p + ΘΘᵀ`.
    r: Cholesky,
}

impl Woodbury {
    fn new(p: usize, n: usize) -> Self {
        Woodbury {
            p,
            n,
            e: vec![0.0; n],
            y_diag: vec![0.0; n],
            theta_e: Matrix::zeros(p, n),
            t: Matrix::zeros(p, n),
            s: Matrix::zeros(p, n),
            u: Matrix::zeros(p, n),
            pp: Matrix::zeros(p, p),
            r: Cholesky::identity(p),
        }
    }

    /// `C(Θ)` for the row-major `p×n` parameter slice `theta`, leaving `e`,
    /// `T`, `diag(Y)` and the factor of `I_p + ΘΘᵀ` behind for the gradient.
    /// `+∞` where the result could not be trusted: a column scale above
    /// [`MAX_COLUMN_SCALE`] (any non-finite `Θ` included) or a factorization
    /// that fails.
    fn trace(&mut self, theta: &[f64], g: &Matrix) -> f64 {
        let (p, n) = (self.p, self.n);
        assert_eq!(theta.len(), p * n, "Θ shape mismatch");
        assert!(g.is_square() && g.rows() == n, "gram shape mismatch");
        let row = |k: usize| &theta[k * n..(k + 1) * n];

        self.e.fill(1.0);
        for k in 0..p {
            for (ej, &th) in self.e.iter_mut().zip(row(k)) {
                *ej += th;
            }
        }
        if !self.e.iter().all(|&ej| ej <= MAX_COLUMN_SCALE) {
            return f64::INFINITY;
        }
        for k in 0..p {
            for ((te, &th), &ej) in self.theta_e.row_mut(k).iter_mut().zip(row(k)).zip(&self.e) {
                *te = th * ej;
            }
        }
        self.theta_e.matmul_into(g, &mut self.t);
        for k in 0..p {
            for (qv, &ej) in self.t.row_mut(k).iter_mut().zip(&self.e) {
                *qv *= ej;
            }
        }

        for a in 0..p {
            for b in 0..=a {
                let dot = simd::dot(row(a), row(b));
                self.pp[(a, b)] = dot;
                self.pp[(b, a)] = dot;
            }
            self.pp[(a, a)] += 1.0;
        }
        if self.r.refactor(&self.pp).is_err() {
            return f64::INFINITY;
        }
        self.r.solve_rows_in_place(&mut self.t);

        for (l, (y, &el)) in self.y_diag.iter_mut().zip(&self.e).enumerate() {
            *y = el * el * g[(l, l)];
        }
        for k in 0..p {
            for ((y, &th), &tv) in self.y_diag.iter_mut().zip(row(k)).zip(self.t.row(k)) {
                *y -= th * tv;
            }
        }
        self.y_diag.iter().sum()
    }

    /// `∂C/∂Θ` at the point of the last (finite) [`Woodbury::trace`] call.
    ///
    /// `∂C/∂A = −2AX` with `X = Y·(AᵀA)⁻¹`; its bottom block is
    /// `−2·Θ·D·X = −2·(T − U)·E` with `U = (TΘᵀ)·S`, `S = RΘ` (from
    /// `Θ·(I − ΘᵀRΘ) = RΘ`), and through the column normalization
    /// `d_l = 1/e_l` the top block's diagonal and the bottom block's
    /// `Θ`-weighted column sums collapse to `−2·d_l·Y_ll`:
    ///
    /// ```text
    /// ∂C/∂Θ_kl = 2·(d_l·Y_ll − (T − U)_kl)
    /// ```
    fn gradient(&mut self, theta: &[f64], grad: &mut [f64]) {
        let (p, n) = (self.p, self.n);
        self.s.as_mut_slice().copy_from_slice(theta);
        self.r.solve_rows_in_place(&mut self.s);
        for a in 0..p {
            for b in 0..p {
                self.pp[(a, b)] = simd::dot(self.t.row(a), &theta[b * n..(b + 1) * n]);
            }
        }
        self.pp.matmul_into(&self.s, &mut self.u);
        for k in 0..p {
            let out = &mut grad[k * n..(k + 1) * n];
            for ((((gv, &y), &el), &tv), &uv) in out
                .iter_mut()
                .zip(&self.y_diag)
                .zip(&self.e)
                .zip(self.t.row(k))
                .zip(self.u.row(k))
            {
                *gv = 2.0 * (y / el - (tv - uv));
            }
        }
    }
}

/// The OPT_0 objective `C(Θ) = tr[(A(Θ)ᵀA(Θ))⁻¹·WᵀW]` with analytic
/// gradient (Appendix A.2/A.3), exposed to the L-BFGS solver. One evaluation
/// is one `p×n×n` product plus O(p²n) work in buffers the objective owns.
pub struct Opt0Objective<'a> {
    wtw: &'a Matrix,
    eval: Woodbury,
}

impl<'a> Opt0Objective<'a> {
    /// Builds the objective for a workload Gram `WᵀW` and `p` extra queries.
    pub fn new(wtw: &'a Matrix, p: usize) -> Self {
        assert!(wtw.is_square(), "WᵀW must be square");
        assert!(p >= 1, "p must be at least 1");
        Opt0Objective {
            wtw,
            eval: Woodbury::new(p, wtw.rows()),
        }
    }
}

impl Objective for Opt0Objective<'_> {
    fn dim(&self) -> usize {
        self.eval.p * self.eval.n
    }

    fn value(&mut self, x: &[f64]) -> f64 {
        self.eval.trace(x, self.wtw)
    }

    fn value_grad(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let c = self.eval.trace(x, self.wtw);
        if c.is_finite() {
            self.eval.gradient(x, grad);
        } else {
            grad.fill(0.0);
        }
        c
    }
}

/// Options for `OPT_0`.
#[derive(Debug, Clone, Copy)]
pub struct Opt0Options {
    /// Number of extra strategy queries `p` (paper default `n/16`).
    pub p: usize,
    /// L-BFGS iteration cap.
    pub max_iter: usize,
}

/// Result of an `OPT_0` run.
#[derive(Debug, Clone)]
pub struct Opt0Result {
    /// The optimized p-Identity strategy.
    pub pident: PIdentity,
    /// `‖W·A⁺‖²_F` at the optimum (strategy has sensitivity 1).
    pub residual: f64,
}

/// Runs one `OPT_0` optimization from a random non-negative initialization.
pub fn opt0(wtw: &Matrix, p: usize, rng: &mut impl Rng) -> Opt0Result {
    opt0_with(wtw, &Opt0Options { p, max_iter: 120 }, rng)
}

/// Runs `OPT_0` with explicit options.
pub fn opt0_with(wtw: &Matrix, opts: &Opt0Options, rng: &mut impl Rng) -> Opt0Result {
    let n = wtw.rows();
    let p = opts.p.max(1);
    let x0: Vec<f64> = (0..p * n).map(|_| rng.gen::<f64>()).collect();
    let lower = vec![0.0; p * n];
    let mut objective = Opt0Objective::new(wtw, p);
    let objective: &mut dyn Objective = &mut objective;
    #[cfg(test)]
    let mut reference = tests::ReferenceObjective { wtw, p };
    #[cfg(test)]
    let objective: &mut dyn Objective = if tests::REFERENCE_GRADIENT.get() {
        &mut reference
    } else {
        objective
    };
    let result = minimize(
        objective,
        &x0,
        &lower,
        &LbfgsOptions {
            max_iter: opts.max_iter,
            ..Default::default()
        },
    );
    let pident = PIdentity::new(Matrix::from_vec(p, n, result.x));
    Opt0Result {
        residual: result.value,
        pident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt_hdmm::{default_ps, HdmmOptions};
    use crate::planner::{optimize_with_choice, select_optimizer};
    use hdmm_mechanism::error::squared_error;
    use hdmm_workload::{blocks, builders, Workload, WorkloadGrams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    thread_local! {
        /// While set, `opt0_with` on this thread descends along
        /// [`ReferenceObjective`] instead of the fused evaluation — how the
        /// many-seed guard runs OPT_⊗ and OPT_+ on the pre-fusion gradient.
        pub(super) static REFERENCE_GRADIENT: Cell<bool> = const { Cell::new(false) };
    }

    /// The evaluation the fused one replaced, kept as the oracle: it
    /// materializes `Y = (AᵀA)⁻¹WᵀW` and `X = Y(AᵀA)⁻¹` as dense `n×n`
    /// matrices (five `p×n×n` products).
    pub(super) struct ReferenceObjective<'a> {
        pub(super) wtw: &'a Matrix,
        pub(super) p: usize,
    }

    impl Objective for ReferenceObjective<'_> {
        fn dim(&self) -> usize {
            self.p * self.wtw.rows()
        }

        fn value(&mut self, x: &[f64]) -> f64 {
            self.value_grad(x, &mut vec![0.0; x.len()])
        }

        fn value_grad(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
            let (p, n) = (self.p, self.wtw.rows());
            let pid = PIdentity::new(Matrix::from_vec(p, n, x.to_vec()));
            let theta = pid.theta();
            let d = pid.scales();
            // The one line the oracle did not have: the fused evaluation's
            // domain, so that both descend over the same feasible set.
            if !d.iter().all(|&dj| 1.0 / dj <= MAX_COLUMN_SCALE) {
                grad.fill(0.0);
                return f64::INFINITY;
            }

            // ---- forward pass: Y = (AᵀA)⁻¹·WᵀW ----
            // B1 = D⁻¹·WᵀW (rows scaled by 1/d).
            let mut b1 = self.wtw.clone();
            for (j, &dj) in d.iter().enumerate() {
                b1.scale_row(j, 1.0 / dj);
            }
            let t = theta.matmul(&b1); // p×n
            let mut ip = theta.matmul_t(theta);
            for k in 0..p {
                ip[(k, k)] += 1.0;
            }
            let r = Cholesky::new_regularized(&ip, 1e-12).expect("I + ΘΘᵀ is SPD");
            let s = r.solve_matrix(&t); // p×n
            let mut y = b1.sub(&theta.t_matmul(&s)); // B1 − Θᵀs
            for (j, &dj) in d.iter().enumerate() {
                y.scale_row(j, 1.0 / dj);
            }
            let c = y.trace();

            // ---- backward: X = Y·(AᵀA)⁻¹ = ((Y·D⁻¹)·M⁻¹)·D⁻¹ ----
            let mut b3 = y;
            for (j, &dj) in d.iter().enumerate() {
                b3.scale_col(j, 1.0 / dj);
            }
            let t2 = b3.matmul_t(theta); // n×p
            let s2 = r.solve_matrix(&t2.transpose()).transpose(); // n×p, s2 = t2·R
            let mut x_mat = b3.sub(&s2.matmul(theta));
            for (j, &dj) in d.iter().enumerate() {
                x_mat.scale_col(j, 1.0 / dj);
            }

            // ---- gradient through A and the column normalization D ----
            // G = ∂C/∂A = −2AX; top-block diagonal G¹_ll = −2·d_l·X_ll,
            // bottom block G² = −2·Θ·(D·X).
            let mut dx = x_mat.clone();
            for (j, &dj) in d.iter().enumerate() {
                dx.scale_row(j, dj);
            }
            let g2 = theta.matmul(&dx).scaled(-2.0); // p×n
            for l in 0..n {
                let g1_ll = -2.0 * d[l] * x_mat[(l, l)];
                let mut theta_g2 = 0.0;
                for k in 0..p {
                    theta_g2 += theta[(k, l)] * g2[(k, l)];
                }
                let common = d[l] * d[l] * (g1_ll + theta_g2);
                for k in 0..p {
                    grad[k * n + l] = d[l] * g2[(k, l)] - common;
                }
            }
            c
        }
    }

    fn dense_objective(pid: &PIdentity, wtw: &Matrix) -> f64 {
        let a = pid.matrix();
        Cholesky::new(&a.gram()).unwrap().trace_solve(wtw)
    }

    fn relative_gap(got: &[f64], want: &[f64]) -> f64 {
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let gap = got
            .iter()
            .zip(want)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        gap / scale
    }

    #[test]
    fn fused_evaluation_matches_the_reference() {
        let n = 32;
        let grams = [
            ("all_range", blocks::gram_all_range(n)),
            ("prefix", blocks::gram_prefix(n)),
            (
                "width_range",
                WorkloadGrams::from_workload(&builders::width_range_1d(n, 8)).explicit(),
            ),
            ("all_ones", blocks::total(n).gram()),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for (label, wtw) in &grams {
            for p in [1, n / 16, n] {
                for at_bound in [false, true] {
                    // A third of the entries sit exactly at the bound 0.
                    let x: Vec<f64> = (0..p * n)
                        .map(|_| {
                            let v = rng.gen::<f64>();
                            if at_bound && v < 1.0 / 3.0 {
                                0.0
                            } else {
                                v
                            }
                        })
                        .collect();
                    let mut want = vec![0.0; p * n];
                    let c_want = ReferenceObjective { wtw, p }.value_grad(&x, &mut want);
                    let mut fused = Opt0Objective::new(wtw, p);
                    let mut got = vec![0.0; p * n];
                    let c_got = fused.value_grad(&x, &mut got);
                    let case = format!("{label} p={p} at_bound={at_bound}");
                    assert!(
                        (c_got - c_want).abs() <= 1e-10 * c_want.abs(),
                        "{case}: {c_got} vs {c_want}"
                    );
                    let gap = relative_gap(&got, &want);
                    assert!(gap <= 1e-10, "{case}: gradient off by {gap:e}");
                    assert_eq!(fused.value(&x).to_bits(), c_got.to_bits(), "{case}");
                    let pid = PIdentity::new(Matrix::from_vec(p, n, x));
                    assert_eq!(pid.trace_inverse_gram(wtw).to_bits(), c_got.to_bits());
                }
            }
        }
    }

    #[test]
    fn non_finite_theta_is_a_non_finite_value_not_a_panic() {
        let n = 8;
        let wtw = blocks::gram_prefix(n);
        let mut obj = Opt0Objective::new(&wtw, 2);
        let mut grad = vec![1.0; 2 * n];
        for bad in [f64::NAN, f64::INFINITY, 1e200] {
            let mut x = vec![0.5; 2 * n];
            x[3] = bad;
            assert!(!obj.value(&x).is_finite(), "{bad}");
            assert!(!obj.value_grad(&x, &mut grad).is_finite(), "{bad}");
            assert!(grad.iter().all(|&g| g == 0.0), "{bad}");
        }
        // The solver shrinks past such points instead of accepting them.
        let lower = vec![0.0; 2 * n];
        let res = minimize(&mut obj, &vec![1e160; 2 * n], &lower, &Default::default());
        assert!(!res.value.is_finite());
    }

    /// Speed was not bought with accuracy: over 32 master seeds, the strategy
    /// SELECT's best-of-3-restarts picks along the fused gradient is no worse
    /// — in closed-form error, not the loss the optimizer reports — than the
    /// one it picks along the reference gradient, for each operator built on
    /// `OPT_0`.
    #[test]
    fn fused_gradient_selects_as_well_as_the_reference_over_many_seeds() {
        let select = |workload: &Workload, seed: u64, reference: bool| {
            let grams = WorkloadGrams::from_workload(workload);
            let opts = HdmmOptions {
                restarts: 3,
                seed,
                threads: 1, // cells run inline, under this thread's switch
                ..Default::default()
            };
            let choice = select_optimizer(workload, &opts).choice;
            REFERENCE_GRADIENT.set(reference);
            let sel = optimize_with_choice(&grams, &default_ps(workload), &opts, choice);
            REFERENCE_GRADIENT.set(false);
            squared_error(&grams, &sel.strategy)
        };
        for workload in [
            builders::all_range_1d(64),
            builders::prefix_2d(32, 32),
            builders::range_total_union_2d(16, 16),
        ] {
            for seed in 0..32 {
                let fused = select(&workload, seed, false);
                let reference = select(&workload, seed, true);
                assert!(
                    fused <= reference * (1.0 + 1e-3),
                    "seed {seed}: fused {fused} vs reference {reference}"
                );
            }
        }
    }

    #[test]
    fn strategy_matrix_matches_example8() {
        // Example 8 of the paper: p=2, N=3.
        let theta = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]]);
        let a = PIdentity::new(theta).matrix();
        let expect = Matrix::from_rows(&[
            &[1.0 / 3.0, 0.0, 0.0],
            &[0.0, 0.25, 0.0],
            &[0.0, 0.0, 0.2],
            &[1.0 / 3.0, 0.5, 0.6],
            &[1.0 / 3.0, 0.25, 0.2],
        ]);
        assert!(a.approx_eq(&expect, 1e-12));
    }

    /// The leaf SELECT hands on is the strategy matrix, bit for bit, and its
    /// sensitivity is the dense one's — read off the stored entries, so it
    /// is 1 only up to rounding, exactly as the dense matrix's is.
    #[test]
    fn leaf_is_the_strategy_matrix_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        for (p, n) in [(1, 1), (2, 3), (3, 16), (8, 128)] {
            let mut theta = Matrix::from_fn(p, n, |_, _| rng.gen::<f64>() * 3.0);
            theta[(0, 0)] = 0.0; // an entry at the bound
            let pid = PIdentity::new(theta);
            let (leaf, dense) = (pid.leaf(), pid.matrix());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&leaf.to_dense()), bits(&dense), "p={p} n={n}");
            assert_eq!(leaf.storage_size(), p * n + n);
            assert_eq!(
                leaf.sensitivity().to_bits(),
                dense.norm_l1_operator().to_bits()
            );
        }
    }

    #[test]
    fn strategy_has_unit_sensitivity() {
        let mut rng = StdRng::seed_from_u64(0);
        let theta = Matrix::from_fn(3, 7, |_, _| rng.gen::<f64>() * 2.0);
        let a = PIdentity::new(theta).matrix();
        assert!((a.norm_l1_operator() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn woodbury_objective_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 9;
        let wtw = blocks::gram_all_range(n);
        let theta = Matrix::from_fn(2, n, |_, _| rng.gen::<f64>());
        let pid = PIdentity::new(theta);
        let fast = pid.trace_inverse_gram(&wtw);
        let dense = dense_objective(&pid, &wtw);
        assert!((fast - dense).abs() < 1e-8 * dense, "{fast} vs {dense}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let n = 6;
        let p = 2;
        let wtw = blocks::gram_prefix(n);
        let mut obj = Opt0Objective::new(&wtw, p);
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<f64> = (0..p * n).map(|_| rng.gen::<f64>() + 0.1).collect();
        let mut grad = vec![0.0; p * n];
        obj.value_grad(&x, &mut grad);
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (obj.value(&xp) - obj.value(&xm)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-4 * fd.abs().max(1.0),
                "i={i}: analytic {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    fn optimization_beats_identity_on_prefix() {
        let n = 32;
        let wtw = blocks::gram_prefix(n);
        let identity_err = wtw.trace(); // tr[I⁻¹·WᵀW]
        let mut rng = StdRng::seed_from_u64(3);
        let res = opt0(&wtw, n / 16, &mut rng);
        assert!(
            res.residual < 0.7 * identity_err,
            "opt0 {} vs identity {identity_err}",
            res.residual
        );
        // Reported residual agrees with a dense recomputation.
        let dense = dense_objective(&res.pident, &wtw);
        assert!((res.residual - dense).abs() < 1e-6 * dense);
    }

    #[test]
    fn optimization_beats_identity_on_all_range() {
        // Table 4a: at n=128 the Identity/HDMM error ratio is ≈1.38, i.e. a
        // squared-error factor of ≈1.9.
        let n = 128;
        let wtw = blocks::gram_all_range(n);
        let identity_err = wtw.trace();
        let mut rng = StdRng::seed_from_u64(4);
        let res = opt0(&wtw, 8, &mut rng);
        assert!(
            res.residual < 0.65 * identity_err,
            "opt0 {} vs identity {identity_err}",
            res.residual
        );
    }

    #[test]
    fn p1_on_total_workload_helps() {
        // Workload = Total only; a good strategy upweights the total row.
        let n = 16;
        let wtw = blocks::total(n).gram(); // all-ones
        let mut rng = StdRng::seed_from_u64(5);
        let res = opt0(&wtw, 1, &mut rng);
        let identity_err = wtw.trace();
        assert!(res.residual < identity_err);
    }
}
