//! The one mechanism pipeline: validate → MEASURE → RECONSTRUCT → ANSWER
//! (Table 1(b)), written once over a *kernel seam*.
//!
//! The paper's mechanism is a single sequence whose only degree of freedom
//! is *how* the implicit Kronecker products of §7.2 are evaluated. That
//! freedom is the [`Kernels`] trait — it answers only "where does this
//! product run":
//!
//! * [`PlainKernels`] — the plain `hdmm_linalg` kernels over one contiguous
//!   vector: the bitwise reference every other implementation is tested
//!   against, behind [`measure`](crate::measure) /
//!   [`reconstruct_with`](crate::reconstruct_with);
//! * [`LocalKernels`](crate::LocalKernels) — the in-process fan-out over the
//!   slabs of a [`ShardedView`](crate::ShardedView); a contiguous vector is
//!   the one-slab view, which it serves with the plain products;
//! * `hdmm_net::RpcKernels` — the same fan-out with the per-slab tasks sent
//!   to shard workers.
//!
//! Everything else is written here exactly once: request validation
//! ([`MechanismRequest::run`]), the per-strategy sensitivity, block order,
//! θ-scaling and noise-draw order of MEASURE ([`measure_on`]), and the
//! per-strategy pseudo-inverse of RECONSTRUCT ([`reconstruct_on`]). Blocks
//! are visited in strategy order and noise is drawn only after a block's
//! product succeeded, so every kernel implementation consumes the RNG stream
//! identically — the root of the byte-identity guarantee across them.

use crate::laplace::add_laplace_noise;
use crate::{
    MarginalsAlgebra, MeasuredBlock, Measurements, MechanismResult, PreparedReconstruct, Strategy,
};
use hdmm_linalg::{
    kmatvec_structured, kmatvec_transpose_structured, lsmr, LinOp, LsmrOptions, Matrix, ScaledOp,
    StackedOp, StructuredMatrix,
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
    /// The request would overspend the remaining privacy budget.
    BudgetExhausted {
        /// ε requested by this measurement.
        requested: f64,
        /// ε still available.
        remaining: f64,
    },
    /// The data vector does not match the workload's domain size.
    DataVectorMismatch {
        /// Cells expected by the domain.
        expected: usize,
        /// Cells provided.
        got: usize,
    },
    /// The per-plan state handed in with the strategy — the
    /// [`PreparedReconstruct`], or the operands a kernel keeps resident — was
    /// built for another strategy family or measurement-block count.
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
            MechanismError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "measurement requests eps={requested} but only {remaining} remains"
            ),
            MechanismError::DataVectorMismatch { expected, got } => {
                write!(f, "data vector has {got} cells, domain has {expected}")
            }
            MechanismError::PlanMismatch => {
                write!(f, "prepared state was built for a different strategy")
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
/// right shape built from different factors are the caller's contract, as
/// they are for [`reconstruct_with`](crate::reconstruct_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Measurement blocks evaluated through [`Kernels::forward`] /
    /// [`Kernels::transpose`] (explicit strategies have none).
    pub kron_blocks: usize,
    /// Whether RECONSTRUCT calls [`Kernels::inverse_grams`] (Kronecker
    /// strategies only).
    pub inverse_grams: bool,
}

impl PlanShape {
    /// The shape of `strategy`'s plan.
    pub fn of(strategy: &Strategy) -> Self {
        PlanShape {
            kron_blocks: match strategy {
                Strategy::Explicit(_) => 0,
                _ => strategy.measurement_blocks(),
            },
            inverse_grams: matches!(strategy, Strategy::Kron(_)),
        }
    }
}

/// The kernel seam: where each product of the pipeline runs. Implementations
/// must return the bits [`PlainKernels`] returns — they differ in placement
/// and parallelism only.
pub trait Kernels {
    /// Why a product could not be evaluated ([`Infallible`] in-process).
    type Error;

    /// Cells of the dataset being measured.
    fn cells(&self) -> usize;

    /// The plan whose operands this kernel keeps resident, when it keeps
    /// any; validation refuses a request for a plan of another shape.
    fn resident_plan(&self) -> Option<PlanShape> {
        None
    }

    /// MEASURE: the explicit product `A·x` over the dataset.
    fn explicit(&self, a: &Matrix) -> Result<Vec<f64>, Self::Error>;

    /// MEASURE: `(⊗ factors)·x` over the dataset, for measurement block
    /// `block` (its index in strategy order, for kernels that key resident
    /// operands the same way).
    fn forward(&self, block: usize, factors: &[&StructuredMatrix])
        -> Result<Vec<f64>, Self::Error>;

    /// RECONSTRUCT: `(⊗ factors)ᵀ·y` over measurement block `block`.
    fn transpose(
        &self,
        block: usize,
        factors: &[&StructuredMatrix],
        y: &[f64],
    ) -> Result<Vec<f64>, Self::Error>;

    /// RECONSTRUCT: `(⊗ gram_pinvs)·aty` over the coordinator-held `Aᵀy` of a
    /// Kronecker strategy.
    fn inverse_grams(
        &self,
        gram_pinvs: &[&StructuredMatrix],
        aty: &[f64],
    ) -> Result<Vec<f64>, Self::Error>;

    /// ANSWER: `W·x̄` on the coordinator (workload factors are per request,
    /// never resident anywhere else).
    fn answer(&self, workload: &Workload, x_hat: &[f64]) -> Vec<f64>;
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

    fn cells(&self) -> usize {
        self.x.len()
    }

    fn explicit(&self, a: &Matrix) -> Result<Vec<f64>, Infallible> {
        Ok(a.matvec(self.x))
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

    fn answer(&self, workload: &Workload, x_hat: &[f64]) -> Vec<f64> {
        workload.answer(x_hat)
    }
}

/// Adds Laplace noise of scale `scale` to one block of strategy answers.
fn noisy_block(mut answers: Vec<f64>, scale: f64, rng: &mut impl Rng) -> MeasuredBlock {
    add_laplace_noise(&mut answers, scale, rng);
    MeasuredBlock {
        noisy: answers,
        noise_scale: scale,
    }
}

/// MEASURE over any kernels: computes `A·x` implicitly and adds Laplace
/// noise calibrated to the strategy sensitivity (Definition 6) —
/// ε-differentially private, and the same bits for every [`Kernels`]
/// implementation.
///
/// `algebra` is the marginals subset algebra when the caller already holds
/// one (a [`PreparedReconstruct`] does); `None` builds it here. It is a pure
/// function of the strategy's domain, so the measurements are the same bits
/// either way.
///
/// # Panics
/// Panics if `eps` is not positive ([`MechanismRequest::run`] validates with
/// typed errors instead).
pub fn measure_on<K: Kernels + ?Sized>(
    strategy: &Strategy,
    algebra: Option<&MarginalsAlgebra>,
    eps: f64,
    rng: &mut impl Rng,
    kernels: &K,
) -> Result<Measurements, K::Error> {
    assert!(eps > 0.0, "privacy budget must be positive");
    let blocks = match strategy {
        Strategy::Explicit(a) => {
            let scale = a.norm_l1_operator() / eps;
            vec![noisy_block(kernels.explicit(a)?, scale, rng)]
        }
        Strategy::Kron(factors) => {
            let sens: f64 = factors.iter().map(StructuredMatrix::sensitivity).product();
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            vec![noisy_block(kernels.forward(0, &refs)?, sens / eps, rng)]
        }
        Strategy::Marginals(m) => {
            let scale = m.sensitivity() / eps;
            let built;
            let algebra = match algebra {
                Some(cached) => cached,
                None => {
                    built = MarginalsAlgebra::new(&m.domain);
                    &built
                }
            };
            let mut blocks = Vec::new();
            for (a, &theta) in m.theta.iter().enumerate() {
                if theta == 0.0 {
                    continue;
                }
                let q = algebra.marginal_factors(a);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                let mut answers = kernels.forward(blocks.len(), &refs)?;
                for v in &mut answers {
                    *v *= theta;
                }
                blocks.push(noisy_block(answers, scale, rng));
            }
            blocks
        }
        Strategy::Union(groups) => {
            // Sequential composition: group g runs at ε_g = share_g·ε.
            let mut blocks = Vec::with_capacity(groups.len());
            for g in groups {
                let sens: f64 = g
                    .factors
                    .iter()
                    .map(StructuredMatrix::sensitivity)
                    .product();
                let refs: Vec<&StructuredMatrix> = g.factors.iter().collect();
                let answers = kernels.forward(blocks.len(), &refs)?;
                blocks.push(noisy_block(answers, sens / (g.share * eps), rng));
            }
            blocks
        }
    };
    Ok(Measurements { blocks, eps })
}

/// RECONSTRUCT over any kernels: the least-squares estimate `x̄` of the data
/// vector from noisy measurements (post-processing; consumes no privacy
/// budget), with the strategy-only factorization supplied by the caller.
///
/// * explicit: `x̄ = A⁺y = (AᵀA)⁺Aᵀy` — small 1-D domains, never fanned out;
/// * Kronecker: `(⊗Aᵢ)⁺y = ⊗(AᵢᵀAᵢ)⁺ · (⊗Aᵢᵀ)y` through two kernel passes
///   (§7.2) — the per-factor work is the `nᵢ × nᵢ` inverse Gram
///   (closed-form for Identity/Prefix), never the `nᵢ × mᵢ` pseudo-inverse;
/// * marginals: `M⁺y = G(v)·Mᵀy` — `Mᵀy` accumulates per marginal through
///   the kernels, the subset-algebra application `G(v)` (§7.2) is a single
///   coordinator-side stage;
/// * union: no closed-form pseudo-inverse — a global noise-whitened LSMR
///   solve over the stacked implicit operator (§7.2, reference \[14\]),
///   also a single coordinator-side stage.
///
/// # Panics
/// Panics if `prepared` was built from a different strategy variant, or if
/// `meas` does not hold one block per measurement block of `strategy`
/// ([`MechanismRequest::run`] refuses the former with a typed error and
/// cannot produce the latter).
pub fn reconstruct_on<K: Kernels + ?Sized>(
    prepared: &PreparedReconstruct,
    strategy: &Strategy,
    meas: &Measurements,
    kernels: &K,
) -> Result<Vec<f64>, K::Error> {
    assert_eq!(
        meas.blocks.len(),
        strategy.measurement_blocks(),
        "measurements were not taken with this strategy"
    );
    match (strategy, prepared) {
        (Strategy::Explicit(a), PreparedReconstruct::Explicit { gram_pinv }) => {
            Ok(gram_pinv.matvec(&a.t_matvec(&meas.blocks[0].noisy)))
        }
        (Strategy::Kron(factors), PreparedReconstruct::Kron { gram_pinvs }) => {
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            let aty = kernels.transpose(0, &refs, &meas.blocks[0].noisy)?;
            let pinv_refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
            kernels.inverse_grams(&pinv_refs, &aty)
        }
        (Strategy::Marginals(m), PreparedReconstruct::Marginals { algebra, v }) => {
            // Mᵀy = Σ_a θ_a·Q_aᵀ·y_a over the measured marginals.
            let mut mty = vec![0.0; m.domain.size()];
            let measured = (0..m.theta.len()).filter(|&a| m.theta[a] != 0.0);
            for (i, (a, block)) in measured.zip(&meas.blocks).enumerate() {
                let q = algebra.marginal_factors(a);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                let back = kernels.transpose(i, &refs, &block.noisy)?;
                let theta = m.theta[a];
                for (acc, b) in mty.iter_mut().zip(&back) {
                    *acc += theta * b;
                }
            }
            // x̄ = (MᵀM)⁺·Mᵀy = G(v)·Mᵀy.
            Ok(algebra.g_apply(v, &mty))
        }
        (Strategy::Union(groups), PreparedReconstruct::Union) => {
            // Whiten each block by its noise scale and solve jointly over the
            // stacked structured Kronecker operators.
            let mut ops: Vec<Box<dyn LinOp>> = Vec::with_capacity(groups.len());
            let mut rhs = Vec::new();
            for (g, block) in groups.iter().zip(&meas.blocks) {
                let w = 1.0 / block.noise_scale;
                ops.push(Box::new(ScaledOp {
                    alpha: w,
                    inner: StructuredMatrix::kron(g.factors.clone()),
                }));
                rhs.extend(block.noisy.iter().map(|v| v * w));
            }
            let stacked = StackedOp::new(ops);
            Ok(lsmr(&stacked, &rhs, &LsmrOptions::default()).x)
        }
        _ => panic!("PreparedReconstruct was built from a different strategy variant"),
    }
}

/// One request through the mechanism: what to answer, with which strategy
/// and strategy-only factorization, at what privacy cost.
#[derive(Debug, Clone, Copy)]
pub struct MechanismRequest<'a> {
    /// The workload to answer.
    pub workload: &'a Workload,
    /// The measurement strategy SELECT chose for it.
    pub strategy: &'a Strategy,
    /// `strategy`'s reconstruction factorization
    /// ([`PreparedReconstruct::new`]); serving layers memoize it per plan.
    pub prepared: &'a PreparedReconstruct,
    /// The privacy budget this request spends.
    pub eps: f64,
    /// The budget still available; the request is refused beyond it.
    pub remaining: f64,
}

impl MechanismRequest<'_> {
    /// Everything that can refuse a request, checked once, before any noise
    /// is drawn — identically for every kernel implementation.
    fn validate<K: Kernels + ?Sized>(&self, kernels: &K) -> Result<(), MechanismError> {
        let eps = self.eps;
        if !(eps.is_finite() && eps > 0.0) {
            return Err(MechanismError::InvalidEpsilon { eps });
        }
        // Tolerate float dust: a request for exactly the remaining budget passes.
        if eps > self.remaining * (1.0 + 1e-12) {
            return Err(MechanismError::BudgetExhausted {
                requested: eps,
                remaining: self.remaining,
            });
        }
        let expected = self.workload.domain().size();
        if kernels.cells() != expected {
            return Err(MechanismError::DataVectorMismatch {
                expected,
                got: kernels.cells(),
            });
        }
        let same_family = matches!(
            (self.strategy, self.prepared),
            (Strategy::Explicit(_), PreparedReconstruct::Explicit { .. })
                | (Strategy::Kron(_), PreparedReconstruct::Kron { .. })
                | (
                    Strategy::Marginals(_),
                    PreparedReconstruct::Marginals { .. }
                )
                | (Strategy::Union(_), PreparedReconstruct::Union)
        );
        let resident_ok = kernels
            .resident_plan()
            .is_none_or(|shape| shape == PlanShape::of(self.strategy));
        if same_family && resident_ok {
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
        let meas = measure_on(
            self.strategy,
            self.prepared.marginals_algebra(),
            self.eps,
            rng,
            kernels,
        )
        .map_err(PipelineError::Kernel)?;
        observer.phase_complete(Phase::Measure, t.elapsed());

        let t = Instant::now();
        let x_hat = reconstruct_on(self.prepared, self.strategy, &meas, kernels)
            .map_err(PipelineError::Kernel)?;
        observer.phase_complete(Phase::Reconstruct, t.elapsed());

        let t = Instant::now();
        let answers = kernels.answer(self.workload, &x_hat);
        observer.phase_complete(Phase::Answer, t.elapsed());

        Ok(MechanismResult { x_hat, answers })
    }
}
