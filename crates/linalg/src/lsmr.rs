//! LSMR: iterative least-squares on matrix-free operators.
//!
//! Port of Fong & Saunders, "LSMR: an iterative algorithm for sparse
//! least-squares problems" (SIAM J. Sci. Comput. 2011) — reference [14] of the
//! paper — which HDMM uses to reconstruct from union-of-product strategies
//! whose pseudo-inverse has no implicit closed form (§7.2).

use crate::LinOp;

/// Options controlling LSMR convergence.
#[derive(Debug, Clone, Copy)]
pub struct LsmrOptions {
    /// Relative tolerance on the operator side.
    pub atol: f64,
    /// Relative tolerance on the right-hand side.
    pub btol: f64,
    /// Condition-number limit.
    pub conlim: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Tikhonov damping (0 for plain least squares).
    pub damp: f64,
}

impl Default for LsmrOptions {
    fn default() -> Self {
        LsmrOptions {
            atol: 1e-10,
            btol: 1e-10,
            conlim: 1e12,
            max_iter: 2000,
            damp: 0.0,
        }
    }
}

/// Result of an LSMR solve.
#[derive(Debug, Clone)]
pub struct LsmrResult {
    /// Minimizer of `‖Ax − b‖₂` (damped if requested).
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Stopping condition (1–7, mirroring the reference implementation).
    pub istop: u8,
    /// Final residual norm estimate `‖r‖`.
    pub residual_norm: f64,
    /// Final normal-equation residual estimate `‖Aᵀr‖`.
    pub normal_residual_norm: f64,
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Solves `min_x ‖Ax − b‖₂` (plus optional damping) with LSMR.
pub fn lsmr(a: &dyn LinOp, b: &[f64], opts: &LsmrOptions) -> LsmrResult {
    let m = a.rows();
    let n = a.cols();
    assert_eq!(b.len(), m, "lsmr rhs length mismatch");

    let damp = opts.damp;
    let mut u = b.to_vec();
    let mut beta = norm(&u);
    if beta > 0.0 {
        for e in &mut u {
            *e /= beta;
        }
    }
    let mut v = if beta > 0.0 {
        a.rmatvec(&u)
    } else {
        vec![0.0; n]
    };
    let mut alpha = norm(&v);
    if alpha > 0.0 {
        for e in &mut v {
            *e /= alpha;
        }
    }

    let mut x = vec![0.0; n];
    if alpha * beta == 0.0 {
        return LsmrResult {
            x,
            iterations: 0,
            istop: 0,
            residual_norm: beta,
            normal_residual_norm: 0.0,
        };
    }

    // Variables for the rotations and recurrences.
    let mut zetabar = alpha * beta;
    let mut alphabar = alpha;
    let mut rho = 1.0;
    let mut rhobar = 1.0;
    let mut cbar = 1.0;
    let mut sbar = 0.0;

    let mut h = v.clone();
    let mut hbar = vec![0.0; n];
    // The two products' outputs, reused by every iteration: per-iteration
    // vectors of this size are mmapped and page-faulted afresh each time.
    let mut av = vec![0.0; m];
    let mut atu = vec![0.0; n];

    // Variables for residual-norm estimation.
    let mut betadd = beta;
    let mut betad = 0.0;
    let mut rhodold = 1.0;
    let mut tautildeold = 0.0;
    let mut thetatilde = 0.0;
    let mut zeta = 0.0;
    let mut d = 0.0;

    // Norm estimates.
    let mut norm_a2 = alpha * alpha;
    let mut max_rbar = 0.0f64;
    let mut min_rbar = 1e100f64;
    let norm_b = beta;

    let ctol = if opts.conlim > 0.0 {
        1.0 / opts.conlim
    } else {
        0.0
    };
    let mut istop = 0u8;
    let mut iterations = 0;
    let mut norm_r = beta;
    let mut norm_ar = alpha * beta;

    while iterations < opts.max_iter {
        iterations += 1;

        // Golub–Kahan bidiagonalization step.
        a.matvec_into(&v, &mut av);
        for (ui, avi) in u.iter_mut().zip(&av) {
            *ui = avi - alpha * *ui;
        }
        beta = norm(&u);
        if beta > 0.0 {
            for e in &mut u {
                *e /= beta;
            }
            // `0 + Aᵀu`, as a stack sums its blocks: `Aᵀu` up to the sign of
            // a zero.
            atu.fill(0.0);
            a.rmatvec_add(&u, &mut atu);
            for (vi, atui) in v.iter_mut().zip(&atu) {
                *vi = atui - beta * *vi;
            }
            alpha = norm(&v);
            if alpha > 0.0 {
                for e in &mut v {
                    *e /= alpha;
                }
            }
        }

        // Construct rotation \hat{P} to eliminate damping.
        let alphahat = (alphabar * alphabar + damp * damp).sqrt();
        let chat = alphabar / alphahat;
        let shat = damp / alphahat;

        // Rotation P to zero out beta.
        let rhoold = rho;
        rho = (alphahat * alphahat + beta * beta).sqrt();
        let c = alphahat / rho;
        let s = beta / rho;
        let thetanew = s * alpha;
        alphabar = c * alpha;

        // Rotation Pbar to zero out thetabar.
        let rhobarold = rhobar;
        let zetaold = zeta;
        let thetabar = sbar * rho;
        let rhotemp = cbar * rho;
        rhobar = (rhotemp * rhotemp + thetanew * thetanew).sqrt();
        cbar = rhotemp / rhobar;
        sbar = thetanew / rhobar;
        zeta = cbar * zetabar;
        zetabar *= -sbar;

        // Update hbar, x, h.
        let hbar_scale = thetabar * rho / (rhoold * rhobarold);
        for (hb, hh) in hbar.iter_mut().zip(&h) {
            *hb = hh - hbar_scale * *hb;
        }
        let x_scale = zeta / (rho * rhobar);
        for (xi, hb) in x.iter_mut().zip(&hbar) {
            *xi += x_scale * hb;
        }
        let h_scale = thetanew / rho;
        for (hh, vv) in h.iter_mut().zip(&v) {
            *hh = vv - h_scale * *hh;
        }

        // Residual-norm estimates (Fong & Saunders §5).
        let betaacute = chat * betadd;
        let betacheck = -shat * betadd;
        let betahat = c * betaacute;
        betadd = -s * betaacute;

        let thetatildeold = thetatilde;
        let rhotildeold = (rhodold * rhodold + thetabar * thetabar).sqrt();
        let ctildeold = rhodold / rhotildeold;
        let stildeold = thetabar / rhotildeold;
        thetatilde = stildeold * rhobar;
        rhodold = ctildeold * rhobar;
        betad = -stildeold * betad + ctildeold * betahat;

        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold;
        let taud = (zeta - thetatilde * tautildeold) / rhodold;
        d += betacheck * betacheck;
        norm_r = (d + (betad - taud).powi(2) + betadd * betadd).sqrt();

        norm_a2 += beta * beta;
        let norm_a = norm_a2.sqrt();
        norm_a2 += alpha * alpha;

        max_rbar = max_rbar.max(rhobarold);
        if iterations > 1 {
            min_rbar = min_rbar.min(rhobarold);
        }
        let cond_a = max_rbar.max(rhotemp) / min_rbar.min(rhotemp);

        norm_ar = zetabar.abs();
        let norm_x = norm(&x);

        // Stopping tests.
        let test1 = norm_r / norm_b;
        let test2 = if norm_a * norm_r > 0.0 {
            norm_ar / (norm_a * norm_r)
        } else {
            f64::INFINITY
        };
        let test3 = 1.0 / cond_a;
        let t1 = test1 / (1.0 + norm_a * norm_x / norm_b);
        let rtol = opts.btol + opts.atol * norm_a * norm_x / norm_b;

        if iterations >= opts.max_iter {
            istop = 7;
        }
        if 1.0 + test3 <= 1.0 {
            istop = 6;
        }
        if 1.0 + test2 <= 1.0 {
            istop = 5;
        }
        if 1.0 + t1 <= 1.0 {
            istop = 4;
        }
        if test3 <= ctol {
            istop = 3;
        }
        if test2 <= opts.atol {
            istop = 2;
        }
        if test1 <= rtol {
            istop = 1;
        }
        if istop > 0 {
            break;
        }
    }

    LsmrResult {
        x,
        iterations,
        istop,
        residual_norm: norm_r,
        normal_residual_norm: norm_ar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use crate::StructuredMatrix::Dense;

    #[test]
    fn solves_square_system() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = a.matvec(&[1.0, -2.0]);
        let r = lsmr(&Dense(a), &b, &LsmrOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-7 && (r.x[1] + 2.0).abs() < 1e-7);
    }

    #[test]
    fn solves_overdetermined_least_squares() {
        // Compare against the normal-equation solution.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0], &[1.0, 4.0]]);
        let b = [6.0, 5.0, 7.0, 10.0];
        let r = lsmr(&Dense(a.clone()), &b, &LsmrOptions::default());
        let gram = a.gram();
        let rhs = a.t_matvec(&b);
        let direct = crate::Cholesky::new(&gram).unwrap().solve_vec(&rhs);
        for (l, d) in r.x.iter().zip(&direct) {
            assert!((l - d).abs() < 1e-6, "{l} vs {d}");
        }
    }

    #[test]
    fn underdetermined_gives_min_norm_consistent_solution() {
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]]);
        let b = [2.0, 3.0];
        let r = lsmr(&Dense(a.clone()), &b, &LsmrOptions::default());
        let ax = a.matvec(&r.x);
        assert!((ax[0] - 2.0).abs() < 1e-7 && (ax[1] - 3.0).abs() < 1e-7);
        // Min-norm solution equals A⁺b.
        let pinv = crate::pinv(&a).unwrap();
        let expect = pinv.matvec(&b);
        for (l, d) in r.x.iter().zip(&expect) {
            assert!((l - d).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = Matrix::identity(3);
        let r = lsmr(&Dense(a), &[0.0, 0.0, 0.0], &LsmrOptions::default());
        assert_eq!(r.x, vec![0.0; 3]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn damped_solution_shrinks_norm() {
        let a = Matrix::identity(2);
        let b = [1.0, 1.0];
        let plain = lsmr(&Dense(a.clone()), &b, &LsmrOptions::default());
        let damped = lsmr(
            &Dense(a.clone()),
            &b,
            &LsmrOptions {
                damp: 1.0,
                ..Default::default()
            },
        );
        let n_plain: f64 = plain.x.iter().map(|v| v * v).sum();
        let n_damped: f64 = damped.x.iter().map(|v| v * v).sum();
        assert!(n_damped < n_plain);
        // With damp=1 and A=I the solution is b/2.
        assert!((damped.x[0] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn converges_on_badly_scaled_system() {
        let a = Matrix::from_diag(&[1.0, 10.0, 100.0]);
        let b = a.matvec(&[1.0, 1.0, 1.0]);
        let r = lsmr(&Dense(a), &b, &LsmrOptions::default());
        for v in &r.x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
