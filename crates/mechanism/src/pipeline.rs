//! The one mechanism pipeline: validate → MEASURE → RECONSTRUCT → ANSWER
//! (Table 1(b)), written once over a *kernel seam*.
//!
//! The paper's mechanism is a single sequence whose only degree of freedom
//! is *where* MEASURE's implicit Kronecker products (§7.2) run. That freedom
//! is the [`Kernels`] trait: the data vector ([`Kernels::data`]) and the
//! MEASURE products a kernel runs elsewhere ([`Kernels::forward`]), each
//! given by its factors alone. A product leaves the coordinator only when its input already lives
//! elsewhere, and only MEASURE's input — the dataset — does: RECONSTRUCT
//! reads the noisy answers the coordinator holds, so it never calls the
//! kernels. Two implementations:
//!
//! * [`PlainKernels`] — every product on the plain `hdmm_linalg` kernels
//!   over one contiguous vector: how every request is served in-process,
//!   and the bitwise reference the other implementation is tested against,
//!   behind [`measure`](crate::measure);
//! * `hdmm_net::RpcKernels` — the per-slab tasks of an
//!   `hdmm_core::ShardedDataVector` sent to shard workers, everything else
//!   on the plain kernels.
//!
//! Everything else is written here exactly once, over the plan's list of
//! measured products ([`PreparedReconstruct::products`]): request validation
//! ([`MechanismRequest::run`]), MEASURE's exact blocks ([`exact_blocks`]) and
//! its θ-scaling and noise draw ([`measure_on`]), RECONSTRUCT's weighted
//! `Aᵀy` pass and the family's solve ([`reconstruct_on`]) and ANSWER's
//! `W·x̄`. The products that run on the plain kernels share the tables of
//! one subset lattice over the data vector ([`kmatvec_shared`]), as ANSWER's
//! terms share one over `x̄` and the marginals solve sweeps its own: a
//! marginal `Q_a·x` starts from the table its unit `Total` leaves sum to,
//! built once per call, with the bits of its own chain.
//!
//! MEASURE is two plain steps, blocks then noise. Only the noise is new per
//! request: the unscaled blocks `A_p·x` are a function of the data vector
//! and the plan's products, and [`exact_blocks`] — the one place a
//! [`Kernels`] implementation runs — computes them without touching the
//! RNG. [`measure_on`] then copies each block into a scratch buffer and
//! scales and noises it, in list order. So every kernel implementation, and
//! a caller that computed the blocks once and serves one immutable vector
//! with one plan again and again (the engine, per dataset and plan), draws
//! the same noise onto the same blocks: the root of the byte-identity
//! guarantee. A kernel that fails fails before any noise is drawn.
//!
//! All three phases take their large buffers — tables, chain buffers, the
//! noisy blocks, RECONSTRUCT's sweeps and `x̄` itself — from one
//! [`KronScratch`] per request ([`MechanismRequest::run_with_scratch`]), so a
//! warm request reuses what the last one gave back; RECONSTRUCT consumes the
//! measurements and hands their blocks back. Only the answer vector is a
//! fresh allocation.

use crate::laplace::laplace_noise;
use crate::mechanism::Solve;
use crate::{MeasuredBlock, MeasuredProduct, Measurements, MechanismResult, PreparedReconstruct};
use hdmm_linalg::{
    kmatvec_shared, kmatvec_structured_scratch, kmatvec_transpose_structured_scratch, KronScratch,
    StructuredMatrix,
};
use hdmm_obs::{Observer, Phase};
use hdmm_workload::Workload;
use rand::Rng;
use std::convert::Infallible;
use std::time::Instant;

/// Typed failures of request validation. Every one is raised before MEASURE
/// draws any noise, by every kernel implementation alike.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// The requested ε is not a positive finite number.
    InvalidEpsilon {
        /// The offending value.
        eps: f64,
    },
    /// The data vector does not match the workload's domain size.
    DataVectorMismatch {
        /// Cells expected by the domain.
        expected: usize,
        /// Cells provided.
        got: usize,
    },
    /// The per-plan state of the request does not fit: the
    /// [`PreparedReconstruct`] has no solve (a union whose joint basis could
    /// not be built) or measures another number of cells than the data
    /// vector holds, or MEASURE's blocks do not fit the plan's products.
    PlanMismatch,
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::InvalidEpsilon { eps } => {
                write!(
                    f,
                    "privacy parameter must be positive and finite, got {eps}"
                )
            }
            MechanismError::DataVectorMismatch { expected, got } => {
                write!(f, "data vector has {got} cells, domain has {expected}")
            }
            MechanismError::PlanMismatch => {
                write!(f, "prepared plan does not fit this request")
            }
        }
    }
}

impl std::error::Error for MechanismError {}

/// Why a pipeline run produced no result.
#[derive(Debug)]
pub enum PipelineError<E> {
    /// Validation refused the request; no noise was drawn and the RNG is
    /// untouched. Running it over other kernels cannot help.
    Rejected(MechanismError),
    /// MEASURE's exact blocks could not be computed (an RPC fan-out that
    /// lost its workers). No noise was drawn and the RNG is untouched.
    Kernel(E),
}

impl From<PipelineError<Infallible>> for MechanismError {
    fn from(e: PipelineError<Infallible>) -> Self {
        match e {
            PipelineError::Rejected(e) => e,
            PipelineError::Kernel(never) => match never {},
        }
    }
}

/// The kernel seam: where MEASURE's products run. Implementations must
/// return the bits the plain kernels return — they differ in placement and
/// parallelism only.
pub trait Kernels {
    /// Why a product could not be evaluated ([`Infallible`] in-process).
    type Error;

    /// The dataset being measured, row-major.
    fn data(&self) -> &[f64];

    /// MEASURE: `(⊗ factors)·x` over the dataset, when this kernel runs it
    /// elsewhere; `None` leaves it to the plain kernels over
    /// [`Kernels::data`], which [`exact_blocks`] runs itself through the
    /// tables its plain products share.
    fn forward(&self, factors: &[&StructuredMatrix]) -> Result<Option<Vec<f64>>, Self::Error>;
}

/// The reference kernels: every product on the plain `hdmm_linalg` kernels
/// over one contiguous data vector, single-threaded.
#[derive(Debug, Clone, Copy)]
pub struct PlainKernels<'a> {
    x: &'a [f64],
}

impl<'a> PlainKernels<'a> {
    /// Kernels over the data vector `x`.
    pub fn over(x: &'a [f64]) -> Self {
        PlainKernels { x }
    }
}

impl Kernels for PlainKernels<'_> {
    type Error = Infallible;

    fn data(&self) -> &[f64] {
        self.x
    }

    fn forward(&self, _: &[&StructuredMatrix]) -> Result<Option<Vec<f64>>, Infallible> {
        Ok(None)
    }
}

/// MEASURE's exact blocks: every measured product's unscaled answers
/// `A_p·x` over [`Kernels::data`], in list order — on the kernels, or, for
/// the products the kernels leave to the plain kernels, through one
/// [`kmatvec_shared`] over the data with the modes of the first product's
/// leaves (a product whose leaves do not match those modes runs its whole
/// chain on the data). The lattice's tables live for this call only; they,
/// the chain buffers and the blocks come from `scratch`, so a block may have
/// more capacity than length.
///
/// The blocks depend on the data vector and the products only — never on
/// ε, θ or the RNG, which this does not take — so a caller that serves one
/// immutable data vector with one plan many times can compute them once and
/// hand the same blocks to [`measure_on`] on every request. They are exact
/// answers over the data, as private as `x` itself.
///
/// # Panics
/// Panics if the data vector does not hold the first product's input size.
pub fn exact_blocks<K: Kernels + ?Sized>(
    products: &[MeasuredProduct],
    kernels: &K,
    scratch: &mut KronScratch,
) -> Result<Vec<Vec<f64>>, K::Error> {
    let mut blocks = Vec::with_capacity(products.len());
    let (mut at, mut local) = (Vec::new(), Vec::new());
    for (i, p) in products.iter().enumerate() {
        let refs = p.refs();
        match kernels.forward(&refs)? {
            Some(answers) => blocks.push(answers),
            None => {
                blocks.push(Vec::new());
                at.push(i);
                local.push(refs);
            }
        }
    }
    let modes: Vec<usize> = products.first().map_or_else(Vec::new, |p| {
        p.factors.iter().map(StructuredMatrix::cols).collect()
    });
    kmatvec_shared(&local, kernels.data(), &modes, scratch, |j, y, _| {
        blocks[at[j]] = y;
    });
    Ok(blocks)
}

/// MEASURE's noise: copies each product's exact block (from
/// [`exact_blocks`]) into a buffer from `scratch`, scales it by its θ and
/// adds Laplace noise at `sensitivity / (share·ε)` (Definition 6; a union
/// group runs at `ε_g = share_g·ε`, sequential composition), in list order —
/// ε-differentially private, and the same bits whichever kernels computed
/// the blocks and however often they are reused.
///
/// # Panics
/// Panics if `eps` is not positive ([`MechanismRequest::run`] validates with
/// typed errors instead) or if `blocks` are not one per product.
pub fn measure_on(
    products: &[MeasuredProduct],
    eps: f64,
    rng: &mut impl Rng,
    blocks: &[Vec<f64>],
    scratch: &mut KronScratch,
) -> Measurements {
    assert!(eps > 0.0, "privacy budget must be positive");
    assert_eq!(blocks.len(), products.len(), "one block per product");
    let blocks = products
        .iter()
        .zip(blocks)
        .map(|(p, exact)| {
            let mut noisy = scratch.copy_of(exact);
            let noise_scale = p.sensitivity / (p.share * eps);
            scale_and_noise(&mut noisy, p.theta, noise_scale, rng);
            MeasuredBlock { noisy, noise_scale }
        })
        .collect();
    Measurements { blocks, eps }
}

/// MEASURE's θ-scaling and Laplace noise in one pass over a block: each
/// value becomes `fl(fl(v·θ) + noise)` (no product when `θ = 1`), drawn in
/// order. The θ test is outside the loops: tested per value, next to the
/// sampler's `ln` call, it made the pass ~1.6× slower in the engine.
fn scale_and_noise(block: &mut [f64], theta: f64, scale: f64, rng: &mut impl Rng) {
    if theta != 1.0 {
        for v in block {
            *v = *v * theta + laplace_noise(rng, scale);
        }
    } else {
        for v in block {
            *v += laplace_noise(rng, scale);
        }
    }
}

/// RECONSTRUCT: the least-squares estimate `x̄` of the data vector from
/// noisy measurements (post-processing; consumes no privacy budget), on the
/// coordinator, which holds the answers. For a product or a union, one pass
/// forms `b = Σᵢ cᵢ·Aᵢᵀyᵢ`, then the plan's solve applies `C⁺`:
///
/// * one product (explicit or Kronecker): `c = 1` and its `Aᵀy` is `b` as
///   is; `(⊗Aᵢ)⁺y = ⊗(AᵢᵀAᵢ)⁺ · (⊗Aᵢᵀ)y` (§7.2) — the per-factor work is the
///   `nᵢ × nᵢ` inverse Gram, never the `nᵢ × mᵢ` pseudo-inverse;
/// * marginals: `x̄ = G(v)·Mᵀy` is three sweeps over the marginal tables of
///   the plan's subset lattices (`MarginalsSolve`), `Mᵀy = Σ_a θ_a·Q_aᵀy_a`
///   included;
/// * union: `c_g = w_g²` (`w_g` the inverse noise scale), and the normal
///   equations are solved in closed form: `x̄ = (⊗Vⱼ)·D⁺·(⊗Vⱼ)ᵀ·b` over the
///   joint eigenbasis of its two groups ([`JointBasis`](crate::JointBasis)),
///   two small dense Kronecker products and one diagonal.
///
/// It consumes `meas`: every block goes back to `scratch` once read (a
/// marginals block becomes its own lattice table), and `x̄` and every work
/// vector are taken from it.
///
/// # Panics
/// Panics if `meas` does not hold one block per measured product of
/// `prepared`, or if `prepared` holds no solve (a union whose joint basis
/// could not be built). [`MechanismRequest::run`] reaches neither: its
/// MEASURE takes one block per product, and its validation refuses a plan
/// without a solve.
pub fn reconstruct_on(
    prepared: &PreparedReconstruct,
    meas: Measurements,
    scratch: &mut KronScratch,
) -> Vec<f64> {
    let products = prepared.products();
    assert_eq!(
        meas.blocks.len(),
        products.len(),
        "measurements were not taken with this plan"
    );
    match &prepared.solve {
        Ok(Solve::InverseGrams(gram_pinvs)) => {
            let refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
            let b = weighted_aty(prepared, meas.blocks, None, scratch);
            let x_hat = kmatvec_structured_scratch(&refs, &b, scratch);
            scratch.give(b);
            x_hat
        }
        Ok(Solve::Marginals(lattice)) => lattice.reconstruct(meas.blocks, scratch),
        Ok(Solve::Joint(joint)) => {
            let w2: Vec<f64> = meas.blocks.iter().map(|b| b.noise_scale.powi(-2)).collect();
            let b = weighted_aty(prepared, meas.blocks, Some(&w2), scratch);
            let x_hat = joint.solve(&w2, &b, scratch);
            scratch.give(b);
            x_hat
        }
        Err(e) => panic!("the plan has no solve: {e}"),
    }
}

/// `b = Σᵢ cᵢ·Aᵢᵀyᵢ`, accumulated from zeros in list order. Without weights
/// — a single product, `c = 1` — its `Aᵀy` is `b` as is: accumulating would
/// turn a `−0.0` into `+0.0`. Each block and each product's `Aᵢᵀyᵢ` go back
/// to `scratch` once added in.
fn weighted_aty(
    prepared: &PreparedReconstruct,
    blocks: Vec<MeasuredBlock>,
    weights: Option<&[f64]>,
    scratch: &mut KronScratch,
) -> Vec<f64> {
    let mut b = Vec::new();
    for (i, (p, block)) in prepared.products().iter().zip(blocks).enumerate() {
        let back = kmatvec_transpose_structured_scratch(&p.refs(), &block.noisy, scratch);
        scratch.give(block.noisy);
        match weights {
            None => scratch.give(std::mem::replace(&mut b, back)),
            Some(c) => {
                if b.is_empty() {
                    b = scratch.take(back.len());
                }
                for (acc, v) in b.iter_mut().zip(&back) {
                    *acc += c[i] * v;
                }
                scratch.give(back);
            }
        }
    }
    b
}

/// One request through the mechanism: what to answer, with which plan, at
/// what privacy cost.
#[derive(Debug, Clone, Copy)]
pub struct MechanismRequest<'a> {
    /// The workload to answer.
    pub workload: &'a Workload,
    /// The measured products and solve of the strategy SELECT chose for it
    /// ([`PreparedReconstruct::new`]); a plan builds them once, when it is
    /// made, and every request against the plan borrows them.
    pub prepared: &'a PreparedReconstruct,
    /// The privacy budget this request spends; the caller has already
    /// reserved it.
    pub eps: f64,
}

impl MechanismRequest<'_> {
    /// Everything that can refuse a request before its blocks exist,
    /// checked once, before any noise is drawn — identically for every
    /// kernel implementation.
    fn validate(&self, x: &[f64]) -> Result<(), MechanismError> {
        let eps = self.eps;
        if !(eps.is_finite() && eps > 0.0) {
            return Err(MechanismError::InvalidEpsilon { eps });
        }
        let expected = self.workload.domain().size();
        let got = x.len();
        if got != expected {
            return Err(MechanismError::DataVectorMismatch { expected, got });
        }
        if self.prepared.solve.is_ok() && self.prepared.cells() == got {
            Ok(())
        } else {
            Err(MechanismError::PlanMismatch)
        }
    }

    /// Runs the complete ε-differentially-private pipeline (Theorem 7:
    /// privacy follows from the Laplace mechanism plus post-processing):
    /// validation, then MEASURE with its exact blocks computed over
    /// `kernels`, RECONSTRUCT and ANSWER, each phase's wall-clock duration
    /// reported to `observer` exactly once, when it completes. The observer
    /// sees timings only, never data or noise.
    ///
    /// The result is the same bits for every [`Kernels`] implementation and
    /// the same `rng` state. On an error no noise was drawn, no phase is
    /// reported and `rng` is untouched.
    pub fn run<K: Kernels + ?Sized>(
        &self,
        rng: &mut impl Rng,
        kernels: &K,
        observer: &dyn Observer,
    ) -> Result<MechanismResult, PipelineError<K::Error>> {
        let products = self.prepared.products();
        let scratch = &mut KronScratch::new();
        self.run_with_scratch(scratch, rng, kernels.data(), observer, |scratch| {
            exact_blocks(products, kernels, scratch)
        })
    }

    /// [`MechanismRequest::run`] over the data vector `x`, with every
    /// phase's large buffers taken from `scratch` — a serving layer's pooled
    /// one — and the ones the request does not return given back to it, and
    /// with MEASURE's exact blocks taken from `exact`: [`exact_blocks`] over
    /// some kernels, or the blocks an earlier [`exact_blocks`] computed over
    /// `x` for this plan. `Phase::Measure` times `exact` and the noise
    /// together. The bits are
    /// `run`'s whatever the scratch held. Blocks whose count or lengths do
    /// not fit the plan are refused with [`MechanismError::PlanMismatch`],
    /// and `exact`'s error is [`PipelineError::Kernel`] — both before any
    /// noise is drawn.
    pub fn run_with_scratch<B: AsRef<[Vec<f64>]>, E>(
        &self,
        scratch: &mut KronScratch,
        rng: &mut impl Rng,
        x: &[f64],
        observer: &dyn Observer,
        exact: impl FnOnce(&mut KronScratch) -> Result<B, E>,
    ) -> Result<MechanismResult, PipelineError<E>> {
        self.validate(x).map_err(PipelineError::Rejected)?;
        let products = self.prepared.products();

        let t = Instant::now();
        let blocks = exact(scratch).map_err(PipelineError::Kernel)?;
        let fits = blocks.as_ref().len() == products.len()
            && products
                .iter()
                .zip(blocks.as_ref())
                .all(|(p, block)| block.len() == p.rows());
        if !fits {
            return Err(PipelineError::Rejected(MechanismError::PlanMismatch));
        }
        let meas = measure_on(products, self.eps, rng, blocks.as_ref(), scratch);
        drop(blocks);
        observer.phase_complete(Phase::Measure, t.elapsed());

        let t = Instant::now();
        let x_hat = reconstruct_on(self.prepared, meas, scratch);
        observer.phase_complete(Phase::Reconstruct, t.elapsed());

        let t = Instant::now();
        let answers = self.workload.answer_with(&x_hat, scratch);
        observer.phase_complete(Phase::Answer, t.elapsed());

        Ok(MechanismResult { x_hat, answers })
    }
}
