//! RECONSTRUCT of a union of at most two groups in closed form.
//!
//! Every group measures the same `x`, so the whitened normal matrix is the
//! sum `C = Σ_g w_g²·⊗ⱼ G_gj` of per-group Kronecker products of factor Grams
//! `G_gj = A_gjᵀA_gj` (Definition 11). One product has the closed-form
//! pseudo-inverse of §7.2; a sum of two does too, attribute by attribute: the
//! basis `V_j` of [`joint_diagonalize`] makes both `V_jᵀG_1jV_j` and
//! `V_jᵀG_2jV_j` diagonal, so `C = (⊗T_j)·D·(⊗T_j)ᵀ` with `T_jᵀV_j = I` and
//! `D = Σ_g w_g²·⊗ⱼ diag(μ_gj)` diagonal, and
//! `x̄ = (⊗V_j)·D⁺·(⊗V_j)ᵀ·b` solves `C·x̄ = b = Σ_g w_g²·A_gᵀy_g`.
//! With three or more groups no common basis exists in general; those
//! unions reconstruct by LSMR.

use crate::UnionGroup;
use hdmm_linalg::{
    joint_diagonalize, kmatvec_structured, kmatvec_transpose_structured, Matrix, StructuredMatrix,
    RCOND,
};

/// The strategy-only half of a union's closed-form RECONSTRUCT: per
/// attribute `j` the joint basis `V_j` (`n_j × r_j`, a dense leaf) and per
/// group the diagonal `μ_gj` of `V_jᵀG_gjV_j`. It holds `Σ n_j·r_j + Σ r_j`
/// numbers per group, never a vector over the whole domain.
#[derive(Debug, Clone)]
pub struct JointBasis {
    /// `V_j`, one dense leaf per attribute.
    bases: Vec<StructuredMatrix>,
    /// `μ_gj`, indexed `[group][attribute]`.
    diags: Vec<Vec<Vec<f64>>>,
}

impl JointBasis {
    /// The basis of a union of one or two groups whose factors have the
    /// same column counts; `None` for any other union, or when an
    /// attribute's eigendecomposition fails.
    pub fn new(groups: &[UnionGroup]) -> Option<Self> {
        let first = groups.first()?;
        let dims = first.factors.len();
        if dims == 0 || groups.len() > 2 || groups.iter().any(|g| g.factors.len() != dims) {
            return None;
        }
        let mut bases = Vec::with_capacity(dims);
        let mut diags = vec![Vec::with_capacity(dims); groups.len()];
        for j in 0..dims {
            let grams: Vec<Matrix> = groups.iter().map(|g| g.factors[j].gram_dense()).collect();
            let joint = joint_diagonalize(&grams).ok()?;
            bases.push(StructuredMatrix::Dense(joint.basis));
            for (per_group, mu) in diags.iter_mut().zip(joint.diags) {
                per_group.push(mu);
            }
        }
        Some(JointBasis { bases, diags })
    }

    /// `x̄ = (⊗V_j)·D⁺·(⊗V_j)ᵀ·b`, where `weights[g]` is group `g`'s `w_g²`.
    /// `D⁺` maps entries at or below [`RCOND`] times an upper bound on
    /// `max D` to 0, as `pinv_psd` cuts eigenvalues.
    pub(crate) fn solve(&self, weights: &[f64], b: &[f64]) -> Vec<f64> {
        let bases: Vec<&StructuredMatrix> = self.bases.iter().collect();
        let mut z = kmatvec_transpose_structured(&bases, b);
        self.divide_by_diagonal(weights, &mut z);
        kmatvec_structured(&bases, &z)
    }

    /// `z_i ← z_i / D_i` with `D_i = Σ_g w_g²·Πⱼ μ_gj[i_j]` formed on the fly,
    /// row-major: the leading attributes' product per group is refreshed
    /// once per run of the last attribute.
    fn divide_by_diagonal(&self, weights: &[f64], z: &mut [f64]) {
        let peak: f64 = self
            .diags
            .iter()
            .zip(weights)
            .map(|(mus, w)| {
                w * mus
                    .iter()
                    .map(|mu| mu.iter().copied().fold(0.0, f64::max))
                    .product::<f64>()
            })
            .sum();
        let cut = peak * RCOND;
        let dims = self.bases.len();
        let last = self.bases[dims - 1].cols();
        let mut index = vec![0usize; dims - 1];
        let mut lead = vec![0.0; weights.len()];
        for run in z.chunks_exact_mut(last) {
            for ((l, mus), w) in lead.iter_mut().zip(&self.diags).zip(weights) {
                *l = w * index.iter().zip(mus).map(|(&i, mu)| mu[i]).product::<f64>();
            }
            for (k, v) in run.iter_mut().enumerate() {
                let d: f64 = lead
                    .iter()
                    .zip(&self.diags)
                    .map(|(l, mus)| l * mus[dims - 1][k])
                    .sum();
                *v = if d > cut { *v / d } else { 0.0 };
            }
            for (j, i) in index.iter_mut().enumerate().rev() {
                *i += 1;
                if *i < self.bases[j].cols() {
                    break;
                }
                *i = 0;
            }
        }
    }
}
