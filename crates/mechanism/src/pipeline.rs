//! The one mechanism pipeline: validate → MEASURE → RECONSTRUCT → ANSWER
//! (Table 1(b)), written once over a *kernel seam*.
//!
//! The paper's mechanism is a single sequence whose only degree of freedom
//! is *where* the implicit Kronecker products of §7.2 run. That freedom is
//! the [`Kernels`] trait: the data vector ([`Kernels::data`]) and the three
//! products that may move off the coordinator — MEASURE's forward product
//! ([`Kernels::forward`]), RECONSTRUCT's transposed product
//! ([`Kernels::transpose`]) and its inverse Grams
//! ([`Kernels::inverse_grams`]) — plus the plan whose operands a kernel
//! keeps resident ([`Kernels::resident_plan`]). Two implementations:
//!
//! * [`PlainKernels`] — the plain `hdmm_linalg` kernels over one contiguous
//!   vector: how every request is served in-process, and the bitwise
//!   reference the other implementation is tested against, behind
//!   [`measure`](crate::measure) / [`reconstruct_with`](crate::reconstruct_with);
//! * `hdmm_net::RpcKernels` — the per-slab tasks of an
//!   `hdmm_core::ShardedDataVector` sent to shard workers, everything else
//!   on the plain kernels.
//!
//! Everything else is written here exactly once, over the plan's list of
//! measured products ([`PreparedReconstruct::products`]): request validation
//! ([`MechanismRequest::run`]), MEASURE's loop of product, θ-scaling and
//! noise draw ([`measure_on`]), RECONSTRUCT's weighted `Aᵀy` pass and the
//! family's solve ([`reconstruct_on`]) and ANSWER's `W·x̄`. Products are
//! visited in list order and noise is drawn only after a product succeeded,
//! so every kernel implementation consumes the RNG stream identically — the
//! root of the byte-identity guarantee across them.

use crate::laplace::add_laplace_noise;
use crate::mechanism::Solve;
use crate::{MeasuredBlock, MeasuredProduct, Measurements, MechanismResult, PreparedReconstruct};
use hdmm_linalg::{kmatvec_structured, kmatvec_transpose_structured, StructuredMatrix};
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
    /// vector holds, or the operands a kernel keeps resident belong to a
    /// plan of another [`PlanShape`].
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
    /// A kernel could not evaluate a product (an RPC fan-out that lost its
    /// workers). The RNG may be partially consumed: a caller that reruns the
    /// request over other kernels must reseed it.
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

/// The shape of the per-plan operands a kernel keeps resident between
/// requests (the RPC fan-out's content keys): enough for validation to
/// refuse operands that visibly belong to another plan. Operands of the
/// right shape built from different factors are the caller's contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Measured products, each evaluated through [`Kernels::forward`] /
    /// [`Kernels::transpose`].
    pub products: usize,
    /// Whether RECONSTRUCT calls [`Kernels::inverse_grams`] (single-product
    /// plans only).
    pub inverse_grams: bool,
}

impl PlanShape {
    /// The shape of the `prepared` plan.
    pub fn of(prepared: &PreparedReconstruct) -> Self {
        PlanShape {
            products: prepared.products().len(),
            inverse_grams: prepared.inverse_grams().is_some(),
        }
    }
}

/// The kernel seam: where each product of the pipeline runs. Implementations
/// must return the bits [`PlainKernels`] returns — they differ in placement
/// and parallelism only.
pub trait Kernels {
    /// Why a product could not be evaluated ([`Infallible`] in-process).
    type Error;

    /// The dataset being measured, row-major.
    fn data(&self) -> &[f64];

    /// The plan whose operands this kernel keeps resident, when it keeps
    /// any; validation refuses a request for a plan of another shape.
    fn resident_plan(&self) -> Option<PlanShape> {
        None
    }

    /// MEASURE: `(⊗ factors)·x` over the dataset, for measured product
    /// `block` (its index in the plan's list, for kernels that key resident
    /// operands the same way).
    fn forward(&self, block: usize, factors: &[&StructuredMatrix])
        -> Result<Vec<f64>, Self::Error>;

    /// RECONSTRUCT: `(⊗ factors)ᵀ·y` over the answers of measured product
    /// `block`.
    fn transpose(
        &self,
        block: usize,
        factors: &[&StructuredMatrix],
        y: &[f64],
    ) -> Result<Vec<f64>, Self::Error>;

    /// RECONSTRUCT: `(⊗ gram_pinvs)·aty` over the coordinator-held `Aᵀy` of a
    /// single-product plan.
    fn inverse_grams(
        &self,
        gram_pinvs: &[&StructuredMatrix],
        aty: &[f64],
    ) -> Result<Vec<f64>, Self::Error>;
}

/// The reference kernels: the plain `hdmm_linalg` products over one
/// contiguous data vector, single-threaded, nothing resident.
#[derive(Debug, Clone, Copy)]
pub struct PlainKernels<'a> {
    x: &'a [f64],
}

impl<'a> PlainKernels<'a> {
    /// Kernels over the data vector `x`. RECONSTRUCT and ANSWER never read
    /// the dataset, so an empty `x` serves them.
    pub fn over(x: &'a [f64]) -> Self {
        PlainKernels { x }
    }
}

impl Kernels for PlainKernels<'_> {
    type Error = Infallible;

    fn data(&self) -> &[f64] {
        self.x
    }

    fn forward(&self, _: usize, factors: &[&StructuredMatrix]) -> Result<Vec<f64>, Infallible> {
        Ok(kmatvec_structured(factors, self.x))
    }

    fn transpose(
        &self,
        _: usize,
        factors: &[&StructuredMatrix],
        y: &[f64],
    ) -> Result<Vec<f64>, Infallible> {
        Ok(kmatvec_transpose_structured(factors, y))
    }

    fn inverse_grams(
        &self,
        gram_pinvs: &[&StructuredMatrix],
        aty: &[f64],
    ) -> Result<Vec<f64>, Infallible> {
        Ok(kmatvec_structured(gram_pinvs, aty))
    }
}

/// MEASURE over any kernels: answers each measured product implicitly,
/// scales the answers by its θ and adds Laplace noise at
/// `sensitivity / (share·ε)` (Definition 6; a union group runs at
/// `ε_g = share_g·ε`, sequential composition) — ε-differentially private,
/// and the same bits for every [`Kernels`] implementation.
///
/// # Panics
/// Panics if `eps` is not positive ([`MechanismRequest::run`] validates with
/// typed errors instead).
pub fn measure_on<K: Kernels + ?Sized>(
    products: &[MeasuredProduct],
    eps: f64,
    rng: &mut impl Rng,
    kernels: &K,
) -> Result<Measurements, K::Error> {
    assert!(eps > 0.0, "privacy budget must be positive");
    let mut blocks = Vec::with_capacity(products.len());
    for (i, p) in products.iter().enumerate() {
        let mut noisy = kernels.forward(i, &p.refs())?;
        if p.theta != 1.0 {
            for v in &mut noisy {
                *v *= p.theta;
            }
        }
        let noise_scale = p.sensitivity / (p.share * eps);
        add_laplace_noise(&mut noisy, noise_scale, rng);
        blocks.push(MeasuredBlock { noisy, noise_scale });
    }
    Ok(Measurements { blocks, eps })
}

/// RECONSTRUCT over any kernels: the least-squares estimate `x̄` of the data
/// vector from noisy measurements (post-processing; consumes no privacy
/// budget). One pass forms `b = Σᵢ cᵢ·Aᵢᵀyᵢ` through the kernels' transposed
/// products, then the plan's solve applies `C⁺`:
///
/// * one product (explicit or Kronecker): `c = 1` and its `Aᵀy` is `b` as
///   is; `(⊗Aᵢ)⁺y = ⊗(AᵢᵀAᵢ)⁺ · (⊗Aᵢᵀ)y` (§7.2) — the per-factor work is the
///   `nᵢ × nᵢ` inverse Gram, never the `nᵢ × mᵢ` pseudo-inverse;
/// * marginals: `cᵢ = θᵢ`, so `b = Mᵀy`, and `x̄ = G(v)·Mᵀy`, the
///   subset-algebra application (§7.2) on the coordinator;
/// * union: `c_g = w_g²` (`w_g` the inverse noise scale), and the normal
///   equations are solved in closed form on the coordinator:
///   `x̄ = (⊗Vⱼ)·D⁺·(⊗Vⱼ)ᵀ·b` over the joint eigenbasis of its two groups
///   ([`JointBasis`](crate::JointBasis)), two small dense Kronecker products
///   and one diagonal.
///
/// # Panics
/// Panics if `meas` does not hold one block per measured product of
/// `prepared`, or if `prepared` holds no solve (a union whose joint basis
/// could not be built). [`MechanismRequest::run`] reaches neither: its
/// MEASURE takes one block per product, and its validation refuses a plan
/// without a solve.
pub fn reconstruct_on<K: Kernels + ?Sized>(
    prepared: &PreparedReconstruct,
    meas: &Measurements,
    kernels: &K,
) -> Result<Vec<f64>, K::Error> {
    let products = prepared.products();
    assert_eq!(
        meas.blocks.len(),
        products.len(),
        "measurements were not taken with this plan"
    );
    match &prepared.solve {
        Ok(Solve::InverseGrams(gram_pinvs)) => {
            let aty = weighted_aty(prepared, meas, None, kernels)?;
            let refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
            kernels.inverse_grams(&refs, &aty)
        }
        Ok(Solve::Marginals { algebra, v }) => {
            let theta: Vec<f64> = products.iter().map(|p| p.theta).collect();
            let mty = weighted_aty(prepared, meas, Some(&theta), kernels)?;
            Ok(algebra.g_apply(v, &mty))
        }
        Ok(Solve::Joint(joint)) => {
            let w2: Vec<f64> = meas.blocks.iter().map(|b| b.noise_scale.powi(-2)).collect();
            let b = weighted_aty(prepared, meas, Some(&w2), kernels)?;
            Ok(joint.solve(&w2, &b))
        }
        Err(e) => panic!("the plan has no solve: {e}"),
    }
}

/// `b = Σᵢ cᵢ·Aᵢᵀyᵢ` through the kernels' transposed products, accumulated
/// from zeros in list order. Without weights — a single product, `c = 1` —
/// its `Aᵀy` is `b` as is: accumulating would turn a `−0.0` into `+0.0`.
fn weighted_aty<K: Kernels + ?Sized>(
    prepared: &PreparedReconstruct,
    meas: &Measurements,
    weights: Option<&[f64]>,
    kernels: &K,
) -> Result<Vec<f64>, K::Error> {
    let mut b = Vec::new();
    for (i, (p, block)) in prepared.products().iter().zip(&meas.blocks).enumerate() {
        let back = kernels.transpose(i, &p.refs(), &block.noisy)?;
        match weights {
            None => b = back,
            Some(c) => {
                b.resize(back.len(), 0.0);
                for (acc, v) in b.iter_mut().zip(&back) {
                    *acc += c[i] * v;
                }
            }
        }
    }
    Ok(b)
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
    /// Everything that can refuse a request, checked once, before any noise
    /// is drawn — identically for every kernel implementation.
    fn validate<K: Kernels + ?Sized>(&self, kernels: &K) -> Result<(), MechanismError> {
        let eps = self.eps;
        if !(eps.is_finite() && eps > 0.0) {
            return Err(MechanismError::InvalidEpsilon { eps });
        }
        let expected = self.workload.domain().size();
        let got = kernels.data().len();
        if got != expected {
            return Err(MechanismError::DataVectorMismatch { expected, got });
        }
        let plan_fits = self.prepared.solve.is_ok()
            && self.prepared.cells() == got
            && kernels
                .resident_plan()
                .is_none_or(|shape| shape == PlanShape::of(self.prepared));
        if plan_fits {
            Ok(())
        } else {
            Err(MechanismError::PlanMismatch)
        }
    }

    /// Runs the complete ε-differentially-private pipeline (Theorem 7:
    /// privacy follows from the Laplace mechanism plus post-processing):
    /// validation, then MEASURE, RECONSTRUCT and ANSWER over `kernels`, each
    /// phase's wall-clock duration reported to `observer` exactly once, when
    /// it completes. The observer sees timings only, never data or noise.
    ///
    /// The result is the same bits for every [`Kernels`] implementation and
    /// the same `rng` state. On [`PipelineError::Rejected`] nothing ran: no
    /// phase is reported and `rng` is untouched.
    pub fn run<K: Kernels + ?Sized>(
        &self,
        rng: &mut impl Rng,
        kernels: &K,
        observer: &dyn Observer,
    ) -> Result<MechanismResult, PipelineError<K::Error>> {
        self.validate(kernels).map_err(PipelineError::Rejected)?;

        let t = Instant::now();
        let meas = measure_on(self.prepared.products(), self.eps, rng, kernels)
            .map_err(PipelineError::Kernel)?;
        observer.phase_complete(Phase::Measure, t.elapsed());

        let t = Instant::now();
        let x_hat = reconstruct_on(self.prepared, &meas, kernels).map_err(PipelineError::Kernel)?;
        observer.phase_complete(Phase::Reconstruct, t.elapsed());

        let t = Instant::now();
        let answers = self.workload.answer(&x_hat);
        observer.phase_complete(Phase::Answer, t.elapsed());

        Ok(MechanismResult { x_hat, answers })
    }
}
