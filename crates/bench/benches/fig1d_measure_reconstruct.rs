//! Figure 1(d): runtime of the MEASURE + RECONSTRUCT phase as a function of
//! the total domain size, for strategies produced by OPT_⊗ (closed-form
//! Kronecker pseudo-inverse), OPT_+ (two groups: the closed-form joint
//! eigenbasis solve) and OPT_M (marginal pseudo-inverse through the subset
//! algebra), beside the same union reconstructed by iterative LSMR over its
//! noise-whitened, stacked groups — the estimator the joint solve replaced.
//!
//! The data vector is all zeros (its content does not affect runtime, §8.1).
//! Default sweep to N = 10⁶; `HDMM_LARGE=1` extends to N ≈ 10⁸.

use hdmm_bench::{large_runs, print_table, timed};
use hdmm_linalg::{lsmr, LinOp, LsmrOptions, ScaledOp, StackedOp, StructuredMatrix};
use hdmm_mechanism::{
    measure, reconstruct_with, MarginalsStrategy, Measurements, PreparedReconstruct, Strategy,
    UnionGroup,
};
use hdmm_optimizer::PIdentity;
use hdmm_workload::Domain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small p-Identity-like factor strategy for attribute size `n`.
fn factor(n: usize) -> hdmm_linalg::Matrix {
    // Identity plus one total row, normalized — structurally representative.
    let mut a = hdmm_linalg::Matrix::zeros(n + 1, n);
    for j in 0..n {
        a[(j, j)] = 0.5;
    }
    for j in 0..n {
        a[(n, j)] = 0.5;
    }
    a
}

/// SELECT's union factor shape: a p-Identity leaf `[D; Θ·D]` with
/// `p = ⌈n/16⌉` and a fixed pseudo-random `Θ`. Its spectrum is what LSMR
/// iterates through; `factor`'s two eigenvalues would let it converge at once.
fn p_identity(n: usize, rng: &mut StdRng) -> StructuredMatrix {
    let theta = hdmm_linalg::Matrix::from_fn(n.div_ceil(16), n, |_, _| rng.gen::<f64>());
    PIdentity::new(theta).leaf()
}

/// LSMR over the union's groups, each whitened by its inverse noise scale
/// and stacked — the iterative estimator of the same normal equations.
fn lsmr_union(groups: &[UnionGroup; 2], meas: &Measurements) -> Vec<f64> {
    let mut ops: Vec<Box<dyn LinOp>> = Vec::new();
    let mut rhs = Vec::new();
    for (group, block) in groups.iter().zip(&meas.blocks) {
        let w = 1.0 / block.noise_scale;
        ops.push(Box::new(ScaledOp {
            alpha: w,
            inner: StructuredMatrix::kron(group.factors.clone()),
        }));
        rhs.extend(block.noisy.iter().map(|v| v * w));
    }
    lsmr(&StackedOp::new(ops), &rhs, &LsmrOptions::default()).x
}

fn main() {
    // 3 attributes of equal size n: N = n³.
    let mut ns = vec![10usize, 22, 46, 100];
    if large_runs() {
        ns.extend([215, 464]); // N = 10^7, 10^8
    }
    let mut rows = Vec::new();
    for &n in &ns {
        let domain = Domain::new(&[n, n, n]);
        let total = domain.size();
        let x = vec![0.0; total];
        let mut rng = StdRng::seed_from_u64(0);

        // OPT_⊗-style product strategy.
        let kron = Strategy::kron(vec![factor(n), factor(n), factor(n)]);
        let (_, kron_secs) = timed(|| {
            let m = measure(&kron, &x, 1.0, &mut rng);
            reconstruct_with(&PreparedReconstruct::new(&kron), &kron, &m)
        });

        // OPT_+-style union strategy (two groups → joint eigenbasis solve).
        let t = || StructuredMatrix::total(n);
        let mut frng = StdRng::seed_from_u64(7);
        let mut p = || p_identity(n, &mut frng);
        let groups = [
            UnionGroup::new(0.5, vec![p(), t(), t()], vec![0]),
            UnionGroup::new(0.5, vec![t(), p(), p()], vec![0]),
        ];
        let union = Strategy::Union(groups.clone());
        let (_, union_secs) = timed(|| {
            let m = measure(&union, &x, 1.0, &mut rng);
            reconstruct_with(&PreparedReconstruct::new(&union), &union, &m)
        });

        // The same union, reconstructed by LSMR.
        let (_, lsmr_secs) = timed(|| {
            let m = measure(&union, &x, 1.0, &mut rng);
            lsmr_union(&groups, &m)
        });

        // OPT_M-style marginals strategy (all 1- and 0-way + full).
        let mut theta = vec![0.0; 8];
        theta[0] = 0.2;
        theta[1] = 0.2;
        theta[2] = 0.2;
        theta[4] = 0.2;
        theta[7] = 0.2;
        let marg = Strategy::Marginals(MarginalsStrategy::new(domain.clone(), theta));
        let (_, marg_secs) = timed(|| {
            let m = measure(&marg, &x, 1.0, &mut rng);
            reconstruct_with(&PreparedReconstruct::new(&marg), &marg, &m)
        });

        rows.push(vec![
            format!("{:.1e}", total as f64),
            format!("{kron_secs:.2}"),
            format!("{union_secs:.2}"),
            format!("{lsmr_secs:.2}"),
            format!("{marg_secs:.2}"),
        ]);
    }
    print_table(
        "Figure 1d — measure+reconstruct runtime (s) vs N (paper: Fig 1d)",
        &[
            "N",
            "OPT_kron",
            "OPT_plus(joint)",
            "OPT_plus(LSMR)",
            "OPT_M",
        ],
        &rows,
    );
    println!("\n(paper shape: closed-form paths scale past the LSMR path)");
}
