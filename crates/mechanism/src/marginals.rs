//! The marginals strategy parameterization and its subset algebra
//! (§6.3 and Appendix A.4 of the paper).
//!
//! A set of weighted marginals is `M(θ)`: for every attribute subset
//! `a ∈ [2^d]` (bitmask; bit `i` set means Identity on attribute `i`, clear
//! means Total), the marginal query matrix `Q_a = ⊗ᵢ [T or I]` stacked with
//! weight `θ_a`. Key facts implemented here:
//!
//! * `MᵀM = G(u)` with `u = θ²`, where `G(v) = Σ_a v_a·C(a)` and
//!   `C(a) = Q_aᵀQ_a = ⊗ᵢ[𝟙 or I]`;
//! * products stay in the class: `G(u)G(v) = G(X(u)v)` with `X(u)` *upper
//!   triangular in the subset order* (Propositions 3/4), so inverses reduce
//!   to one sparse triangular solve with `3^d` nonzeros;
//! * `‖M(θ)‖₁ = Σθ_a` (each marginal has unit column norms);
//! * every vector RECONSTRUCT forms is a marginal table, so
//!   `x̄ = G(v)·Mᵀy` runs as three sweeps over subset lattices
//!   (`hdmm_linalg::SubsetLattice`): O(d·Πᵢ(nᵢ+1)) work at most, a few streaming
//!   passes over the `N = Πᵢnᵢ` cells, where one full-domain forward and
//!   transpose product per nonzero `v_a` cost O(2^d·d·N).
//!
//! A domain has at most [`MAX_MARGINAL_ATTRS`] attributes.

use crate::MeasuredBlock;
use hdmm_linalg::{KronScratch, Matrix, StructuredMatrix, SubsetLattice};
use hdmm_workload::{Domain, WorkloadGrams};
use std::borrow::Cow;

/// The most attributes a marginals domain may have: the algebra holds `2^d`
/// weights per plan. [`MarginalsAlgebra::new`] and [`MarginalsStrategy::new`]
/// assert it, and the strategy decoder refuses a larger domain before it
/// reads a weight.
pub const MAX_MARGINAL_ATTRS: usize = 24;

/// Subset algebra over the `2^d` marginals of a domain.
#[derive(Debug, Clone)]
pub struct MarginalsAlgebra {
    domain: Domain,
    /// `cbar[k] = Π_{i: bit i of k clear} nᵢ` — the constant `C̄(k)` of
    /// Proposition 3.
    cbar: Vec<f64>,
}

/// Column-sparse upper-triangular matrix in subset order: for each column `b`
/// the entries `(k, value)` with `k ⊆ b`.
#[derive(Debug, Clone)]
pub struct SubsetTriangular {
    cols: Vec<Vec<(usize, f64)>>,
}

impl MarginalsAlgebra {
    /// Builds the algebra for a domain.
    ///
    /// # Panics
    /// Panics if the domain has more than [`MAX_MARGINAL_ATTRS`] attributes.
    pub fn new(domain: &Domain) -> Self {
        let d = domain.dims();
        assert!(d <= MAX_MARGINAL_ATTRS, "too many marginals attributes");
        let subsets = 1usize << d;
        let mut cbar = vec![1.0; subsets];
        for (k, c) in cbar.iter_mut().enumerate() {
            for i in 0..d {
                if k >> i & 1 == 0 {
                    *c *= domain.attr_size(i) as f64;
                }
            }
        }
        MarginalsAlgebra {
            domain: domain.clone(),
            cbar,
        }
    }

    /// The domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of subsets `2^d`.
    pub fn subsets(&self) -> usize {
        self.cbar.len()
    }

    /// `C̄(k)`: the scalar factor of Proposition 3.
    pub fn cbar(&self, k: usize) -> f64 {
        self.cbar[k]
    }

    /// Explicit `C(a) = ⊗ᵢ[𝟙 or I]` (tests / small domains only).
    pub fn c_explicit(&self, a: usize) -> Matrix {
        let mut acc = Matrix::identity(1);
        for i in 0..self.domain.dims() {
            let n = self.domain.attr_size(i);
            let block = if a >> i & 1 == 1 {
                Matrix::identity(n)
            } else {
                Matrix::ones(n, n)
            };
            acc = hdmm_linalg::kron(&acc, &block);
        }
        acc
    }

    /// Explicit `G(v) = Σ_a v_a·C(a)` (tests / small domains only).
    pub fn g_explicit(&self, v: &[f64]) -> Matrix {
        let n = self.domain.size();
        let mut acc = Matrix::zeros(n, n);
        for (a, &va) in v.iter().enumerate() {
            if va != 0.0 {
                acc.axpy(va, &self.c_explicit(a));
            }
        }
        acc
    }

    /// Builds `X(u)` (Proposition 4): `X(u)[k,b] = Σ_{a: a&b=k} u_a·C̄(a|b)`,
    /// stored column-sparse over `k ⊆ b`. O(4^d) time, O(3^d) space.
    pub fn x_matrix(&self, u: &[f64]) -> SubsetTriangular {
        let s = self.subsets();
        assert_eq!(u.len(), s, "weight vector must have 2^d entries");
        let mut cols = Vec::with_capacity(s);
        let mut scratch = vec![0.0; s];
        for b in 0..s {
            // Accumulate over all a into k = a & b.
            for (a, &ua) in u.iter().enumerate() {
                if ua != 0.0 {
                    scratch[a & b] += ua * self.cbar[a | b];
                }
            }
            // Harvest the subsets of b (only they can be nonzero).
            let mut entries = Vec::new();
            let mut k = b;
            loop {
                if scratch[k] != 0.0 {
                    entries.push((k, scratch[k]));
                    scratch[k] = 0.0;
                }
                if k == 0 {
                    break;
                }
                k = (k - 1) & b;
            }
            cols.push(entries);
        }
        SubsetTriangular { cols }
    }

    /// The weights `v` with `G(v) = G(u)⁻¹`, by solving `X(u)·v = e_full`
    /// (the identity is `C(2^d−1)`). Requires `u_full > 0` so the diagonal of
    /// `X(u)` is positive.
    pub fn g_inverse_weights(&self, u: &[f64]) -> Vec<f64> {
        let x = self.x_matrix(u);
        let mut z = vec![0.0; self.subsets()];
        z[self.subsets() - 1] = 1.0;
        x.solve_upper(&z)
    }

    /// The factors of the marginal query matrix `Q_a` (Identity on set bits,
    /// Total elsewhere), as O(1) structured descriptors — measuring a
    /// marginal never allocates a dense `nᵢ × nᵢ` identity block.
    pub fn marginal_factors(&self, a: usize) -> Vec<StructuredMatrix> {
        (0..self.domain.dims())
            .map(|i| {
                let n = self.domain.attr_size(i);
                if a >> i & 1 == 1 {
                    StructuredMatrix::identity(n)
                } else {
                    StructuredMatrix::total(n)
                }
            })
            .collect()
    }

    /// The workload statistics `T_a = Σ_j w_j²·Πᵢ s(Gᵢ⁽ʲ⁾)` with `s = tr` on
    /// set bits and `s = sum` on clear bits — so that
    /// `tr[G(v)·WᵀW] = Σ_a v_a·T_a` (the §6.3 precomputation).
    pub fn workload_stats(&self, grams: &WorkloadGrams) -> Vec<f64> {
        assert_eq!(grams.domain(), &self.domain, "gram domain mismatch");
        let d = self.domain.dims();
        let s = self.subsets();
        let mut t = vec![0.0; s];
        // Per term, per attribute: (trace, sum).
        let stats: Vec<Vec<(f64, f64)>> =
            grams.terms().iter().map(|g| g.traces_and_sums()).collect();
        for (a, ta) in t.iter_mut().enumerate() {
            for (term, st) in grams.terms().iter().zip(&stats) {
                let mut prod = term.weight * term.weight;
                for (i, &(tr, sum)) in st.iter().enumerate().take(d) {
                    prod *= if a >> i & 1 == 1 { tr } else { sum };
                }
                *ta += prod;
            }
        }
        t
    }
}

impl SubsetTriangular {
    /// Entry access (zero when absent).
    pub fn get(&self, k: usize, b: usize) -> f64 {
        self.cols[b]
            .iter()
            .find(|&&(kk, _)| kk == k)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Diagonal entry of column `b`.
    pub fn diag(&self, b: usize) -> f64 {
        self.get(b, b)
    }

    /// Solves the upper-triangular system `X v = z` by column-oriented back
    /// substitution (columns processed high to low).
    pub fn solve_upper(&self, z: &[f64]) -> Vec<f64> {
        let s = self.cols.len();
        assert_eq!(z.len(), s, "rhs length mismatch");
        let mut rhs = z.to_vec();
        let mut v = vec![0.0; s];
        for b in (0..s).rev() {
            let diag = self.diag(b);
            if diag.abs() == 0.0 {
                // Degenerate weights: signal failure through non-finite
                // output rather than panicking mid-optimization.
                return vec![f64::NAN; s];
            }
            let vb = rhs[b] / diag;
            v[b] = vb;
            if vb != 0.0 {
                for &(k, x) in &self.cols[b] {
                    if k != b {
                        rhs[k] -= x * vb;
                    }
                }
            }
        }
        v
    }

    /// Solves `Xᵀ y = t` by forward substitution (columns low to high).
    pub fn solve_upper_transpose(&self, t: &[f64]) -> Vec<f64> {
        let s = self.cols.len();
        assert_eq!(t.len(), s, "rhs length mismatch");
        let mut y = vec![0.0; s];
        for b in 0..s {
            let mut acc = t[b];
            let mut diag = 0.0;
            for &(k, x) in &self.cols[b] {
                if k == b {
                    diag = x;
                } else {
                    acc -= x * y[k];
                }
            }
            if diag.abs() == 0.0 {
                return vec![f64::NAN; s];
            }
            y[b] = acc / diag;
        }
        y
    }
}

/// A marginals plan's RECONSTRUCT on the subset lattice:
/// `x̄ = G(v)·Mᵀy = Σ_b v_b·Q_bᵀQ_b·(Σ_a θ_a·Q_aᵀy_a)` as three sweeps over
/// marginal tables, built once per plan.
///
/// The table of subset `a` is `Q_a·z`, row-major over `a`'s attributes in
/// order: a [`SubsetLattice`] table that keeps the attributes of `a`, so
/// `Q_c = S·Q_p` for a child `c` of `p` and `Q_cᵀ = Q_pᵀ·Sᵀ`, where `S` sums
/// out the attribute `p` adds and `Sᵀ` broadcasts along it. Two lattices,
/// each closed under "parent of" so every path ends at the full table:
///
/// * **transpose sweep** over the measured subsets' lattice, `Mᵀy`: each
///   measured block is already table `a`; `θ_a·y_a` is broadcast into its
///   parent's table, child before parent, ending at the full table;
/// * **forward sweep** over the lattice of `v`'s support: `Q_b·(Mᵀy)` for
///   every `b` in it, each table summed out of its parent's, and scaled by
///   `v_b` once its children are built;
/// * **second transpose sweep**: `Σ_b v_b·Q_bᵀ(·)` over that lattice.
///
/// Each edge costs one pass over its parent's table, so a sweep costs at
/// most `d` passes over the full table plus its smaller tables. Everything
/// runs on the coordinator: no step goes through the kernel seam. Each
/// measured block is scaled in place into its table, every other table is
/// taken from the request's scratch, and each goes back to it after its
/// last reader: only the full table, `x̄`, is kept.
#[derive(Debug, Clone)]
pub(crate) struct MarginalsSolve {
    /// The measured subsets (`θ_a ≠ 0`) with their `θ_a`, in list order,
    /// and their lattice.
    theta: Vec<(u64, f64)>,
    measured: SubsetLattice,
    /// `v`, and the lattice of its support.
    v: Vec<f64>,
    g: SubsetLattice,
}

impl MarginalsSolve {
    /// The solve of `strategy`: its measured subsets (in the order
    /// [`Strategy::measured_products`](crate::Strategy::measured_products)
    /// lists them) and `v = X(θ²)⁻¹·e_full`, with `G(v) = (MᵀM)⁻¹`.
    pub(crate) fn new(strategy: &MarginalsStrategy) -> Self {
        let algebra = MarginalsAlgebra::new(&strategy.domain);
        let v = algebra.g_inverse_weights(&strategy.gram_weights());
        Self::with_weights(&strategy.domain, &strategy.theta, &v)
    }

    fn with_weights(domain: &Domain, theta: &[f64], v: &[f64]) -> Self {
        fn support(w: &[f64]) -> impl Iterator<Item = u64> + '_ {
            (0..w.len() as u64).filter(|&a| w[a as usize] != 0.0)
        }
        MarginalsSolve {
            theta: support(theta).map(|a| (a, theta[a as usize])).collect(),
            measured: SubsetLattice::new(domain.sizes(), support(theta)),
            v: v.to_vec(),
            g: SubsetLattice::new(domain.sizes(), support(v)),
        }
    }

    /// `x̄ = G(v)·Mᵀy` from one block per measured product, in list order,
    /// each scaled by its `θ_a` in place as table `a`.
    pub(crate) fn reconstruct(
        &self,
        blocks: Vec<MeasuredBlock>,
        scratch: &mut KronScratch,
    ) -> Vec<f64> {
        let tables = self.theta.iter().zip(blocks).map(|(&(a, theta), block)| {
            let mut table = block.noisy;
            table.iter_mut().for_each(|y| *y *= theta);
            (a, table)
        });
        let mty = self.measured.transpose(tables, scratch);
        self.g_apply(mty, scratch)
    }

    /// `G(v)·z`: the forward sweep over `v`'s lattice, each table with
    /// `v_b ≠ 0` scaled in place and kept, then the transpose sweep.
    fn g_apply(&self, z: Vec<f64>, scratch: &mut KronScratch) -> Vec<f64> {
        let mut weighted = Vec::new();
        self.g.forward(Cow::Owned(z), scratch, |b, table, scratch| {
            let (mut table, vb) = (table.into_owned(), self.v[b as usize]);
            if vb == 0.0 {
                scratch.give(table);
            } else {
                table.iter_mut().for_each(|x| *x *= vb);
                weighted.push((b, table));
            }
        });
        self.g.transpose(weighted, scratch)
    }
}

/// A weighted-marginals strategy `M(θ)` (Problem 4).
#[derive(Debug, Clone)]
pub struct MarginalsStrategy {
    /// The domain the marginals are defined over.
    pub domain: Domain,
    /// Non-negative weight per attribute subset; `theta[2^d−1]` (the full
    /// contingency table) must be positive so every workload is supported.
    pub theta: Vec<f64>,
}

impl MarginalsStrategy {
    /// Builds and validates a marginals strategy.
    ///
    /// # Panics
    /// Panics if the domain has more than [`MAX_MARGINAL_ATTRS`] attributes,
    /// or on weights that are not `2^d` non-negative numbers with a positive
    /// full-table weight.
    pub fn new(domain: Domain, theta: Vec<f64>) -> Self {
        assert!(
            domain.dims() <= MAX_MARGINAL_ATTRS,
            "too many marginals attributes"
        );
        assert_eq!(
            theta.len(),
            1usize << domain.dims(),
            "theta must have 2^d entries"
        );
        assert!(
            theta.iter().all(|&t| t >= 0.0),
            "theta must be non-negative"
        );
        assert!(
            theta[theta.len() - 1] > 0.0,
            "full-table weight must be positive"
        );
        MarginalsStrategy { domain, theta }
    }

    /// Uniform weights over all marginals.
    pub fn uniform(domain: Domain) -> Self {
        let s = 1usize << domain.dims();
        Self::new(domain, vec![1.0 / s as f64; s])
    }

    /// Sensitivity `‖M(θ)‖₁ = Σθ_a`.
    pub fn sensitivity(&self) -> f64 {
        self.theta.iter().sum()
    }

    /// The Gram weights `u = θ²` with `MᵀM = G(u)`.
    pub fn gram_weights(&self) -> Vec<f64> {
        self.theta.iter().map(|t| t * t).collect()
    }

    /// Squared reconstruction error `‖W·M(θ)⁺‖²_F` against a workload
    /// (excluding the sensitivity factor).
    pub fn residual_error(&self, grams: &WorkloadGrams) -> f64 {
        let algebra = MarginalsAlgebra::new(&self.domain);
        let v = algebra.g_inverse_weights(&self.gram_weights());
        let t = algebra.workload_stats(grams);
        v.iter().zip(&t).map(|(a, b)| a * b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_linalg::{kmatvec_structured, kmatvec_transpose_structured, pinv_psd};
    use hdmm_workload::builders;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_domain() -> Domain {
        Domain::new(&[2, 3, 2])
    }

    #[test]
    fn cbar_is_product_of_unset_bits() {
        let alg = MarginalsAlgebra::new(&small_domain());
        assert_eq!(alg.cbar(0), 12.0); // all Total: 2·3·2
        assert_eq!(alg.cbar(0b111), 1.0); // all Identity
        assert_eq!(alg.cbar(0b010), 4.0); // Identity on attr 1: 2·2
    }

    #[test]
    fn proposition3_product_rule() {
        // C(a)·C(b) = C̄(a|b)·C(a&b) for every pair.
        let alg = MarginalsAlgebra::new(&Domain::new(&[2, 3]));
        for a in 0..4 {
            for b in 0..4 {
                let lhs = alg.c_explicit(a).matmul(&alg.c_explicit(b));
                let rhs = alg.c_explicit(a & b).scaled(alg.cbar(a | b));
                assert!(lhs.approx_eq(&rhs, 1e-10), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn proposition4_g_product_is_linear() {
        // G(u)·G(v) = G(X(u)·v).
        let alg = MarginalsAlgebra::new(&small_domain());
        let u = [0.5, 0.1, 0.0, 0.3, 0.2, 0.0, 0.7, 1.0];
        let v = [0.2, 0.0, 0.4, 0.1, 0.0, 0.6, 0.0, 0.5];
        let lhs = alg.g_explicit(&u).matmul(&alg.g_explicit(&v));
        let x = alg.x_matrix(&u);
        let xv: Vec<f64> = {
            // Dense multiply through the sparse columns: (Xv)_k = Σ_b X[k,b]·v_b.
            let mut out = vec![0.0; 8];
            for (b, col) in (0..8).map(|b| (b, &x.cols[b])) {
                for &(k, val) in col {
                    out[k] += val * v[b];
                }
            }
            out
        };
        let rhs = alg.g_explicit(&xv);
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn g_inverse_weights_invert_g() {
        let alg = MarginalsAlgebra::new(&small_domain());
        let mut u = vec![0.1, 0.3, 0.0, 0.2, 0.5, 0.0, 0.1, 0.8];
        u[7] = 0.8; // full-table weight positive
        let v = alg.g_inverse_weights(&u);
        let prod = alg.g_explicit(&u).matmul(&alg.g_explicit(&v));
        assert!(prod.approx_eq(&Matrix::identity(alg.domain().size()), 1e-8));
    }

    #[test]
    fn solve_upper_transpose_consistent() {
        let alg = MarginalsAlgebra::new(&small_domain());
        let u = [0.2, 0.1, 0.4, 0.0, 0.3, 0.2, 0.0, 1.0];
        let x = alg.x_matrix(&u);
        let t: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = x.solve_upper_transpose(&t);
        // Check Xᵀy = t by direct evaluation.
        for (b, &tb) in t.iter().enumerate() {
            let mut acc = 0.0;
            for &(k, val) in &x.cols[b] {
                acc += val * y[k];
            }
            assert!((acc - tb).abs() < 1e-9, "b={b}");
        }
    }

    /// The full-domain `G(v)·x` the lattice replaced, as the oracle: one
    /// forward and one transpose product over all `N` cells per nonzero `v_a`.
    fn g_apply_full(alg: &MarginalsAlgebra, v: &[f64], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        for (a, &va) in v.iter().enumerate().filter(|&(_, &va)| va != 0.0) {
            let q = alg.marginal_factors(a);
            let refs: Vec<&StructuredMatrix> = q.iter().collect();
            let back = kmatvec_transpose_structured(&refs, &kmatvec_structured(&refs, x));
            out.iter_mut().zip(&back).for_each(|(o, b)| *o += va * b);
        }
        out
    }

    /// `Mᵀy = Σ_a θ_a·Q_aᵀy_a` over the full domain, one transpose product
    /// per measured subset.
    fn mty_full(alg: &MarginalsAlgebra, theta: &[f64], blocks: &[MeasuredBlock]) -> Vec<f64> {
        let mut out = vec![0.0; alg.domain().size()];
        let measured = (0..theta.len()).filter(|&a| theta[a] != 0.0);
        for (a, block) in measured.zip(blocks) {
            let q = alg.marginal_factors(a);
            let refs: Vec<&StructuredMatrix> = q.iter().collect();
            let back = kmatvec_transpose_structured(&refs, &block.noisy);
            out.iter_mut()
                .zip(&back)
                .for_each(|(o, b)| *o += theta[a] * b);
        }
        out
    }

    /// Random answers `y_a` for every measured subset, in list order.
    fn random_blocks(domain: &Domain, theta: &[f64], rng: &mut StdRng) -> Vec<MeasuredBlock> {
        (0..theta.len())
            .filter(|&a| theta[a] != 0.0)
            .map(|a| {
                let cells: usize = (0..domain.dims())
                    .filter(|i| a >> i & 1 == 1)
                    .map(|i| domain.attr_size(i))
                    .product();
                MeasuredBlock {
                    noisy: (0..cells).map(|_| rng.gen::<f64>() * 20.0 - 10.0).collect(),
                    noise_scale: 1.0,
                }
            })
            .collect()
    }

    fn abs(v: &[f64]) -> Vec<f64> {
        v.iter().map(|x| x.abs()).collect()
    }

    /// `max|got − want| ≤ 1e-12·max(scale)`, where `scale` is the same sum
    /// over absolute values: the size of the terms being added up, which
    /// bounds the rounding of any order of summation.
    fn assert_close(got: &[f64], want: &[f64], scale: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        let tol = 1e-12 * scale.iter().fold(f64::MIN_POSITIVE, |m, s| m.max(s.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol,
                "{what}: cell {i}: {g} vs {w} (tol {tol:e})"
            );
        }
    }

    /// The dense `Mᵀ` of the measured subsets, stacked in list order.
    fn dense_mt(alg: &MarginalsAlgebra, theta: &[f64]) -> Matrix {
        let blocks: Vec<Matrix> = (0..theta.len())
            .filter(|&a| theta[a] != 0.0)
            .map(|a| {
                let q: Vec<Matrix> = alg
                    .marginal_factors(a)
                    .iter()
                    .map(StructuredMatrix::to_dense)
                    .collect();
                let refs: Vec<&Matrix> = q.iter().collect();
                hdmm_linalg::kron_all(&refs).scaled(theta[a])
            })
            .collect();
        let refs: Vec<&Matrix> = blocks.iter().collect();
        Matrix::vstack(&refs).unwrap().transpose()
    }

    /// A random sparse weight vector over `s` subsets, entries in `[-1, 1)`.
    fn sparse(s: usize, density: f64, rng: &mut StdRng) -> Vec<f64> {
        (0..s)
            .map(|_| {
                if rng.gen::<f64>() < density {
                    rng.gen::<f64>() * 2.0 - 1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn lattice_sweeps_match_the_dense_stack_and_explicit_g() {
        let mut rng = StdRng::seed_from_u64(38);
        // One scratch across every case, as a pooled request scratch is.
        let mut scratch = KronScratch::new();
        for case in 0..160 {
            let d = 1 + case % 4;
            let sizes: Vec<usize> = (0..d).map(|_| rng.gen_range(1..=4)).collect();
            let domain = Domain::new(&sizes);
            let alg = MarginalsAlgebra::new(&domain);
            let s = alg.subsets();
            let mut theta = sparse(s, 0.5, &mut rng)
                .iter()
                .map(|t| t.abs())
                .collect::<Vec<_>>();
            theta[rng.gen_range(0..s)] = 0.5;
            let mut v = sparse(s, 0.4, &mut rng);
            match case / 4 % 4 {
                0 => {}
                1 => v[s - 1] = 0.0,
                2 => {
                    v.iter_mut().for_each(|x| *x = 0.0);
                    v[s - 1] = 0.7;
                }
                _ => {
                    v.iter_mut().for_each(|x| *x = 0.0);
                    v[rng.gen_range(0..s.min(2))] = -0.3;
                }
            }
            let lattice = MarginalsSolve::with_weights(&domain, &theta, &v);
            let blocks = random_blocks(&domain, &theta, &mut rng);
            let what = format!("case {case}: sizes {sizes:?}, theta {theta:?}, v {v:?}");

            // Mᵀy against the dense stack.
            let y: Vec<f64> = blocks
                .iter()
                .flat_map(|b| b.noisy.iter().copied())
                .collect();
            let mt = dense_mt(&alg, &theta);
            let tables = lattice
                .theta
                .iter()
                .zip(&blocks)
                .map(|(&(a, t), block)| (a, block.noisy.iter().map(|y| t * y).collect()));
            let mty = lattice.measured.transpose(tables, &mut scratch);
            let mty_scale = dense_mt(&alg, &abs(&theta)).matvec(&abs(&y));
            assert_close(&mty, &mt.matvec(&y), &mty_scale, &format!("Mᵀy, {what}"));

            // G(v)·z against the explicit G(v), on a random z.
            let z: Vec<f64> = (0..domain.size()).map(|_| rng.gen::<f64>() - 0.5).collect();
            let gz = lattice.g_apply(z.clone(), &mut scratch);
            let g_scale = alg.g_explicit(&abs(&v)).matvec(&abs(&z));
            assert_close(
                &gz,
                &alg.g_explicit(&v).matvec(&z),
                &g_scale,
                &format!("G(v)z, {what}"),
            );

            // All three sweeps.
            let x_hat = lattice.reconstruct(blocks.clone(), &mut scratch);
            let want = alg.g_explicit(&v).matvec(&mt.matvec(&y));
            let scale = alg.g_explicit(&abs(&v)).matvec(&mty_scale);
            assert_close(&x_hat, &want, &scale, &format!("x̂, {what}"));
        }
    }

    #[test]
    fn lattice_matches_the_full_domain_oracle_on_the_adult_plan() {
        // The OPT_M plan SELECT picks for the 3-way marginals of the Adult
        // domain: θ on six subsets, v on twenty. θ_full = 0.001 makes
        // v_full = 10⁶, so x̂ is a difference of terms ~10⁶ times larger
        // than itself and the tolerance scales with those terms.
        let domain = Domain::new(&[75, 16, 5, 2, 20]);
        let mut theta = vec![0.0; 32];
        for (a, t) in [
            (15, 0.27613646453858),
            (19, 0.22767039983567391),
            (21, 0.1619563264575513),
            (25, 0.11445282384267007),
            (30, 0.2187839853255248),
            (31, 0.0009999999999999998),
        ] {
            theta[a] = t;
        }
        let strategy = MarginalsStrategy::new(domain.clone(), theta.clone());
        let alg = MarginalsAlgebra::new(&domain);
        let v = alg.g_inverse_weights(&strategy.gram_weights());
        assert_eq!(v.iter().filter(|&&x| x != 0.0).count(), 20);
        let lattice = MarginalsSolve::new(&strategy);
        let mut rng = StdRng::seed_from_u64(5);
        let blocks = random_blocks(&domain, &theta, &mut rng);

        let mty = mty_full(&alg, &theta, &blocks);
        let want = g_apply_full(&alg, &v, &mty);
        let abs_blocks: Vec<MeasuredBlock> = blocks
            .iter()
            .map(|b| MeasuredBlock {
                noisy: abs(&b.noisy),
                noise_scale: 1.0,
            })
            .collect();
        let scale = g_apply_full(&alg, &abs(&v), &mty_full(&alg, &theta, &abs_blocks));
        let x_hat = lattice.reconstruct(blocks, &mut KronScratch::new());
        assert_close(&x_hat, &want, &scale, "adult x̂");
    }

    #[test]
    fn residual_error_matches_dense_pinv() {
        // ‖W·M⁺‖² computed through the subset algebra must match a dense
        // tr[(MᵀM)⁺·WᵀW] computation.
        let domain = Domain::new(&[2, 3]);
        let theta = vec![0.4, 0.3, 0.2, 0.6];
        let strat = MarginalsStrategy::new(domain.clone(), theta.clone());
        let w = builders::all_marginals(&domain);
        let grams = WorkloadGrams::from_workload(&w);

        // Dense reference: M(θ) stacked explicitly.
        let alg = MarginalsAlgebra::new(&domain);
        let mut blocks_vec = Vec::new();
        for (a, &t) in theta.iter().enumerate() {
            let q: Vec<Matrix> = alg
                .marginal_factors(a)
                .iter()
                .map(StructuredMatrix::to_dense)
                .collect();
            let refs: Vec<&Matrix> = q.iter().collect();
            blocks_vec.push(hdmm_linalg::kron_all(&refs).scaled(t));
        }
        let refs: Vec<&Matrix> = blocks_vec.iter().collect();
        let m = Matrix::vstack(&refs).unwrap();
        let dense = pinv_psd(&m.gram())
            .unwrap()
            .trace_product(&grams.explicit());
        assert!((strat.residual_error(&grams) - dense).abs() < 1e-7 * dense.abs().max(1.0));
    }

    #[test]
    fn workload_stats_identity_total_split() {
        // For the all-marginals workload on [2,2] the stats must follow
        // tr(I)=n, sum(I)=n, tr(𝟙)=n, sum(𝟙)=n² per factor kind.
        let domain = Domain::new(&[2, 2]);
        let alg = MarginalsAlgebra::new(&domain);
        let grams = WorkloadGrams::from_workload(&builders::all_marginals(&domain));
        let t = alg.workload_stats(&grams);
        // Direct check against the explicit gram: T_a = tr[C(a)·WᵀW].
        let explicit = grams.explicit();
        for (a, &ta) in t.iter().enumerate() {
            let direct = alg.c_explicit(a).trace_product(&explicit);
            assert!((ta - direct).abs() < 1e-9, "a={a}: {ta} vs {direct}");
        }
    }

    #[test]
    fn sensitivity_is_theta_sum() {
        let s = MarginalsStrategy::new(Domain::new(&[2, 2]), vec![0.1, 0.2, 0.3, 0.4]);
        assert!((s.sensitivity() - 1.0).abs() < 1e-12);
    }
}
