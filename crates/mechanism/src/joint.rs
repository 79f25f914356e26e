//! RECONSTRUCT of a union in closed form.
//!
//! Every group measures the same `x`, so the whitened normal matrix is the
//! sum `C = Σ_g w_g²·⊗ⱼ G_gj` of per-group Kronecker products of factor Grams
//! `G_gj = A_gjᵀA_gj` (Definition 11). One product has the closed-form
//! pseudo-inverse of §7.2; a sum of two does too, attribute by attribute: the
//! basis `V_j` of [`joint_diagonalize`] makes both `V_jᵀG_1jV_j` and
//! `V_jᵀG_2jV_j` diagonal, so `C = (⊗T_j)·D·(⊗T_j)ᵀ` with `T_jᵀV_j = I` and
//! `D = Σ_g w_g²·⊗ⱼ diag(μ_gj)` diagonal, and
//! `x̄ = (⊗V_j)·D⁺·(⊗V_j)ᵀ·b` solves `C·x̄ = b = Σ_g w_g²·A_gᵀy_g`.
//! Every union has exactly two groups (`OPT_+` partitions with the paper's
//! `g` at `l = 2`), so this is every union's RECONSTRUCT; three or more
//! groups would have no common basis in general.

use crate::UnionGroup;
use hdmm_linalg::{
    joint_diagonalize, kmatvec_structured_scratch, kmatvec_transpose_structured_scratch,
    KronScratch, LinalgError, StructuredMatrix, RCOND,
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
    diags: [Vec<Vec<f64>>; 2],
}

impl JointBasis {
    /// The basis of a two-group union.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] when the groups' factor lists are
    /// empty or differ in length or, attribute by attribute, in column count
    /// (groups over different attribute orders);
    /// [`LinalgError::Singular`] for an attribute whose Grams are both zero;
    /// an eigendecomposition's own error otherwise.
    pub fn new(groups: &[UnionGroup; 2]) -> Result<Self, LinalgError> {
        let [first, second] = groups.each_ref().map(|g| &g.factors);
        if first.is_empty() || first.len() != second.len() {
            return Err(LinalgError::DimensionMismatch(
                "union groups of different arities".into(),
            ));
        }
        let mut bases = Vec::with_capacity(first.len());
        let mut diags = [Vec::new(), Vec::new()];
        for (a, b) in first.iter().zip(second) {
            let joint = joint_diagonalize(&a.gram_dense(), &b.gram_dense())?;
            bases.push(StructuredMatrix::Dense(joint.basis));
            for (per_group, mu) in diags.iter_mut().zip(joint.diags) {
                per_group.push(mu);
            }
        }
        Ok(JointBasis { bases, diags })
    }

    /// `x̄ = (⊗V_j)·D⁺·(⊗V_j)ᵀ·b`, where `weights[g]` is group `g`'s `w_g²`.
    /// `D⁺` maps entries at or below [`RCOND`] times an upper bound on
    /// `max D` to 0, as `pinv_psd` cuts eigenvalues.
    /// Its work vector and `x̄` are taken from `scratch`.
    pub(crate) fn solve(&self, weights: &[f64], b: &[f64], scratch: &mut KronScratch) -> Vec<f64> {
        let bases: Vec<&StructuredMatrix> = self.bases.iter().collect();
        let mut z = kmatvec_transpose_structured_scratch(&bases, b, scratch);
        self.divide_by_diagonal(weights, &mut z);
        let x_hat = kmatvec_structured_scratch(&bases, &z, scratch);
        scratch.give(z);
        x_hat
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
