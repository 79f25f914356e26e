//! The end-to-end private pipeline: MEASURE → RECONSTRUCT → answer
//! (Table 1(b) of the paper, with the efficient implementations of §7.2).

use crate::marginals::MarginalsSolve;
use crate::pipeline::{exact_blocks, measure_on, reconstruct_on, MechanismRequest, PlainKernels};
use crate::{JointBasis, MeasuredProduct, Strategy};
use hdmm_linalg::{KronScratch, LinalgError, StructuredMatrix};
use hdmm_workload::Workload;
use rand::Rng;
use std::sync::{Mutex, PoisonError};

/// One noisy measurement block together with its noise scale.
#[derive(Debug, Clone)]
pub struct MeasuredBlock {
    /// Noisy strategy-query answers.
    pub noisy: Vec<f64>,
    /// The Laplace scale `b` used for this block.
    pub noise_scale: f64,
}

/// The output of the MEASURE phase.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Noisy answers, one block per measured product of the strategy
    /// ([`Strategy::measured_products`]), in the same order.
    pub blocks: Vec<MeasuredBlock>,
    /// The privacy budget consumed.
    pub eps: f64,
}

/// Result of the full mechanism run.
#[derive(Debug, Clone)]
pub struct MechanismResult {
    /// The reconstructed data-vector estimate `x̄`.
    pub x_hat: Vec<f64>,
    /// The workload answers `W·x̄`.
    pub answers: Vec<f64>,
}

/// MEASURE: computes `A·x` implicitly and adds Laplace noise calibrated to
/// the strategy sensitivity (Definition 6). ε-differentially private. This is
/// [`exact_blocks`] over the plain reference kernels, then [`measure_on`],
/// on the products [`Strategy::measured_products`] lists.
///
/// # Panics
/// Panics if `eps` is not positive.
pub fn measure(strategy: &Strategy, x: &[f64], eps: f64, rng: &mut impl Rng) -> Measurements {
    let products = strategy.measured_products();
    let scratch = &mut KronScratch::new();
    let blocks = match exact_blocks(&products, &PlainKernels::over(x), scratch) {
        Ok(blocks) => blocks,
        Err(never) => match never {},
    };
    measure_on(&products, eps, rng, &blocks, scratch)
}

/// Everything of a strategy that requests against it share, built once per
/// plan so a serving layer answering many requests pays for it once: the
/// list of measured products MEASURE, RECONSTRUCT and the RPC fan-out's
/// operand keys all read ([`Strategy::measured_products`]), and the
/// strategy family's half of RECONSTRUCT's pseudo-inverse `C⁺`:
///
/// * one product (explicit or Kronecker): the per-factor inverse Grams
///   `(AᵢᵀAᵢ)⁺` ([`StructuredMatrix::try_gram_pinv`]) — for SELECT's
///   p-Identity factors the `Woodbury` leaf `D⁻² − UᵀU`, O(p²n) to build and
///   `p·n + n` numbers to hold; only `Dense` / `Sparse` / `AllRange` factors
///   (an explicit matrix is one `Dense` leaf) pay a dense `n×n` inverse;
/// * marginals: the subset lattices (`MarginalsSolve`, over
///   [`SubsetLattice`](hdmm_linalg::SubsetLattice)) that apply
///   `(MᵀM)⁺·Mᵀ = G(v)·Mᵀ` as table sweeps, with the §7.2 weights `v`;
/// * union (two groups): the joint per-attribute eigenbasis
///   ([`JointBasis`]) that diagonalises both groups' factor Grams,
///   `O(Σ nⱼ²)` numbers.
///
/// When a solve cannot be built — a union's groups over different
/// attribute orders, an attribute whose Grams are both zero, an
/// eigensolver error, an inverse Gram whose Jacobi fallback fails — the
/// plan keeps that typed error in place of its solve, and
/// [`MechanismRequest::run`] refuses every request against it with
/// [`MechanismError::PlanMismatch`](crate::MechanismError::PlanMismatch)
/// before any noise is drawn.
///
/// Everything here is a pure deterministic function of the strategy — no
/// measurements, no randomness — so a plan built moments ago and one cached
/// across requests give the same bits.
#[derive(Debug, Clone)]
pub struct PreparedReconstruct {
    products: Vec<MeasuredProduct>,
    pub(crate) solve: Result<Solve, LinalgError>,
}

/// The strategy family's half of RECONSTRUCT: how `C⁺` is applied to the
/// weighted `Σᵢ cᵢ·Aᵢᵀyᵢ` of the measured products.
#[derive(Debug, Clone)]
pub(crate) enum Solve {
    /// One inverse Gram per factor of the plan's single product.
    InverseGrams(Vec<StructuredMatrix>),
    /// The subset lattices that apply `G(v)·Mᵀ`, `(MᵀM)⁺ = G(v)`.
    Marginals(MarginalsSolve),
    /// The joint eigenbasis of a union's two groups.
    Joint(JointBasis),
}

impl PreparedReconstruct {
    /// Builds the measured products of `strategy` and its solve, or the
    /// error that stands in for it.
    pub fn new(strategy: &Strategy) -> Self {
        let products = strategy.measured_products();
        let solve = match strategy {
            Strategy::Explicit(_) | Strategy::Kron(_) => {
                let gram_pinvs = products[0]
                    .factors
                    .iter()
                    .map(StructuredMatrix::try_gram_pinv);
                gram_pinvs
                    .collect::<Result<_, _>>()
                    .map(Solve::InverseGrams)
            }
            Strategy::Marginals(m) => Ok(Solve::Marginals(MarginalsSolve::new(m))),
            Strategy::Union(groups) => JointBasis::new(groups).map(Solve::Joint),
        };
        PreparedReconstruct { products, solve }
    }

    /// The products MEASURE answers, in measurement order.
    pub fn products(&self) -> &[MeasuredProduct] {
        &self.products
    }

    /// The cells of the data vector the plan measures (0 for a plan that
    /// measures nothing).
    pub(crate) fn cells(&self) -> usize {
        let cols = |p: &MeasuredProduct| p.factors.iter().map(StructuredMatrix::cols).product();
        self.products.first().map_or(0, cols)
    }

    /// The joint eigenbasis a union reconstructs with (`None` for a union
    /// whose basis could not be built).
    pub fn joint_basis(&self) -> Option<&JointBasis> {
        match &self.solve {
            Ok(Solve::Joint(joint)) => Some(joint),
            _ => None,
        }
    }
}

/// RECONSTRUCT: least-squares estimate `x̄` of the data vector from noisy
/// measurements (post-processing; consumes no privacy budget) —
/// [`reconstruct_on`] on a copy of `meas`, which it consumes; see there for
/// the per-family pseudo-inverses. `prepared` is the strategy-only state of
/// the strategy ([`PreparedReconstruct::new`]) and holds everything
/// RECONSTRUCT reads of it, so the strategy argument itself is not read. It
/// is a pure function of the strategy, so a cached one gives the same bits
/// as a fresh one.
///
/// # Panics
/// Panics if `meas` does not hold one block per measured product of
/// `prepared`, or if `prepared` holds no solve (a union whose joint basis
/// could not be built).
pub fn reconstruct_with(
    prepared: &PreparedReconstruct,
    _strategy: &Strategy,
    meas: &Measurements,
) -> Vec<f64> {
    reconstruct_on(prepared, meas.clone(), &mut KronScratch::new())
}

/// Answers the workload on the reconstructed estimate: `ans = W·x̄`.
pub fn answer_workload(workload: &Workload, x_hat: &[f64]) -> Vec<f64> {
    workload.answer(x_hat)
}

/// The request scratches a serving layer keeps between requests. A request
/// or a batch task pops one ([`ScratchPool::pop`]), or makes one when none
/// is idle, and the scratch goes back when the task drops it, so the pool
/// never holds more scratches than ran at once; each keeps at most its last
/// request's buffers ([`KronScratch::end_request`]). Which scratch a task
/// gets never changes a bit of what it computes.
#[derive(Debug, Default)]
pub struct ScratchPool {
    idle: Mutex<Vec<KronScratch>>,
}

impl ScratchPool {
    /// An idle scratch, or a new one when none is idle.
    pub fn pop(&self) -> PooledScratch<'_> {
        PooledScratch {
            scratch: self.lock().pop().unwrap_or_default(),
            pool: self,
        }
    }

    /// Hands the next task a buffer its owner is done with — a closed
    /// session's estimate — through the scratch pushed back last
    /// ([`KronScratch::keep`]); dropped when no scratch is idle.
    pub fn recycle(&self, buf: Vec<f64>) {
        if let Some(scratch) = self.lock().last_mut() {
            scratch.keep(buf);
        }
    }

    /// The scratches the pool holds now.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }

    /// Poisoning is recovered: no task runs under the lock, and a `pop` or
    /// a `push` leaves the list consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<KronScratch>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A scratch popped off a [`ScratchPool`]; dropping it ends its request
/// and pushes it back.
#[derive(Debug)]
pub struct PooledScratch<'p> {
    scratch: KronScratch,
    pool: &'p ScratchPool,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = KronScratch;

    fn deref(&self) -> &KronScratch {
        &self.scratch
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut KronScratch {
        &mut self.scratch
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.end_request();
        self.pool.lock().push(scratch);
    }
}

/// ANSWER for a batch: evaluates several workloads against one reconstructed
/// estimate, fanned over `exec` — each workload is an independent `W·x̄`
/// pass, so the batch parallelizes with no coordination. The batch is one
/// request: it pops one scratch per lane off `scratches`, its tasks answer
/// through them (shared across a workload's product terms; scratch buffers
/// never affect values), and they go back trimmed to what the whole batch
/// drew on. Entry `i` is bitwise identical to
/// `answer_workload(workloads[i], x_hat)` at any lane count.
///
/// This is the amortization point for follow-up queries: MEASURE and
/// RECONSTRUCT ran once, and each additional workload costs only its own
/// `W·x̄` pass, whose only fresh allocation is its answer vector.
pub fn answer_many_from_parts(
    x_hat: &[f64],
    workloads: &[&Workload],
    exec: &crate::ScopedExecutor,
    scratches: &ScratchPool,
) -> Vec<Vec<f64>> {
    let lanes = exec.threads().min(workloads.len());
    // At most `lanes` tasks run at once, so a task always finds one here.
    let batch = Mutex::new((0..lanes).map(|_| scratches.pop()).collect::<Vec<_>>());
    let lock = || batch.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); workloads.len()];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .iter_mut()
        .zip(workloads)
        .map(|(slot, w)| {
            Box::new(move || {
                let mut scratch = lock().pop().unwrap_or_else(|| scratches.pop());
                *slot = w.answer_with(x_hat, &mut scratch);
                lock().push(scratch);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    exec.run(tasks);
    out
}

/// The asserting library convenience around [`MechanismRequest::run`]: the
/// complete ε-differentially-private pipeline over the plain kernels, with
/// the strategy factorization built on the spot.
///
/// # Panics
/// Panics where a serving caller would get a typed [`crate::MechanismError`]:
/// a non-positive or non-finite `eps`, or an `x` that does not match the
/// workload's domain.
pub fn run_mechanism(
    workload: &Workload,
    strategy: &Strategy,
    x: &[f64],
    eps: f64,
    rng: &mut impl Rng,
) -> MechanismResult {
    let request = MechanismRequest {
        workload,
        prepared: &PreparedReconstruct::new(strategy),
        eps,
    };
    match request.run(rng, &PlainKernels::over(x), &()) {
        Ok(result) => result,
        Err(e) => panic!("{}", crate::MechanismError::from(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarginalsStrategy;
    use crate::UnionGroup;
    use hdmm_workload::{blocks, builders, Domain};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    #[test]
    fn kron_pipeline_is_unbiased_at_high_eps() {
        let w = builders::prefix_2d(4, 5);
        let x = data(20);
        let strat = Strategy::kron(vec![
            blocks::prefix(4).scaled(0.25),
            blocks::prefix(5).scaled(0.2),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        let res = run_mechanism(&w, &strat, &x, 1e7, &mut rng);
        let truth = w.answer(&x);
        for (a, t) in res.answers.iter().zip(&truth) {
            assert!((a - t).abs() < 1e-3, "{a} vs {t}");
        }
    }

    #[test]
    fn marginals_pipeline_recovers_at_high_eps() {
        let domain = Domain::new(&[3, 4]);
        let w = builders::all_marginals(&domain);
        let x = data(12);
        let strat = Strategy::Marginals(MarginalsStrategy::uniform(domain));
        let mut rng = StdRng::seed_from_u64(1);
        let res = run_mechanism(&w, &strat, &x, 1e7, &mut rng);
        let truth = w.answer(&x);
        for (a, t) in res.answers.iter().zip(&truth) {
            assert!((a - t).abs() < 1e-3, "{a} vs {t}");
        }
    }

    #[test]
    fn union_pipeline_recovers_at_high_eps() {
        let w = builders::range_total_union_2d(4, 4);
        let x = data(16);
        let strat = Strategy::Union([
            UnionGroup::new(
                0.5,
                vec![blocks::prefix(4).scaled(0.25), blocks::total(4)],
                vec![0],
            ),
            UnionGroup::new(
                0.5,
                vec![blocks::total(4), blocks::prefix(4).scaled(0.25)],
                vec![1],
            ),
        ]);
        let mut rng = StdRng::seed_from_u64(2);
        let meas = measure(&strat, &x, 1e7, &mut rng);
        let x_hat = reconstruct_with(&PreparedReconstruct::new(&strat), &strat, &meas);
        // The union of the two prefix-margin strategies determines the row
        // and column sums of x, which is all the workload needs.
        let truth = w.answer(&x);
        let got = answer_workload(&w, &x_hat);
        for (a, t) in got.iter().zip(&truth) {
            assert!((a - t).abs() < 1e-2, "{a} vs {t}");
        }
    }

    #[test]
    fn total_by_total_union_builds_a_rank_one_basis_and_serves() {
        // Every attribute's S_j = G_1j + G_2j is a scaled all-ones matrix.
        let strat = Strategy::Union([
            UnionGroup::new(
                0.5,
                vec![StructuredMatrix::total(9), StructuredMatrix::total(5)],
                vec![0],
            ),
            UnionGroup::new(
                0.5,
                vec![StructuredMatrix::total(9), StructuredMatrix::total(5)],
                vec![0],
            ),
        ]);
        let prepared = PreparedReconstruct::new(&strat);
        assert!(prepared.joint_basis().is_some());
        let x = data(45);
        let meas = measure(&strat, &x, 1e7, &mut StdRng::seed_from_u64(5));
        let x_hat = reconstruct_with(&prepared, &strat, &meas);
        // Both groups measure the grand total; x̄ keeps it.
        let total: f64 = x.iter().sum();
        assert!((x_hat.iter().sum::<f64>() - total).abs() < 1e-3);
    }

    #[test]
    fn explicit_pipeline_matches_closed_form_error() {
        // Empirical MSE over repetitions ≈ analytic expected error / m.
        let n = 8;
        let w = builders::prefix_1d(n);
        let grams = hdmm_workload::WorkloadGrams::from_workload(&w);
        let x = data(n);
        let strat = Strategy::Explicit(hdmm_linalg::Matrix::identity(n));
        let eps = 1.0;
        let analytic = crate::error::expected_total_squared_error(&grams, &strat, eps);

        let mut rng = StdRng::seed_from_u64(7);
        let trials = 600;
        let truth = w.answer(&x);
        let mut total_sq = 0.0;
        for _ in 0..trials {
            let res = run_mechanism(&w, &strat, &x, eps, &mut rng);
            total_sq += res
                .answers
                .iter()
                .zip(&truth)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>();
        }
        let empirical = total_sq / trials as f64;
        assert!(
            (empirical / analytic - 1.0).abs() < 0.25,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn batch_answers_match_individual_answers_bitwise_at_any_lane_count() {
        let w1 = builders::prefix_2d(4, 5);
        let w2 = builders::all_marginals(&Domain::new(&[4, 5]));
        let w3 = builders::prefix_2d(4, 5);
        let x_hat = data(20);
        let workloads: [&Workload; 3] = [&w1, &w2, &w3];
        let pool = ScratchPool::default();
        let serial =
            answer_many_from_parts(&x_hat, &workloads, &crate::ScopedExecutor::new(1), &pool);
        assert_eq!(serial.len(), 3);
        for (got, w) in serial.iter().zip(workloads) {
            assert_eq!(got, &w.answer(&x_hat));
        }
        for threads in [2, 4, 7] {
            let exec = crate::ScopedExecutor::new(threads);
            let par = answer_many_from_parts(&x_hat, &workloads, &exec, &pool);
            assert_eq!(serial, par, "lane count {threads} changed answers");
            assert!(pool.idle() <= exec.threads(), "more scratches than lanes");
        }
    }

    #[test]
    fn measurement_noise_scale_uses_sensitivity() {
        let strat = Strategy::Explicit(blocks::prefix(4)); // sensitivity 4
        let meas = measure(&strat, &data(4), 2.0, &mut StdRng::seed_from_u64(3));
        assert!((meas.blocks[0].noise_scale - 2.0).abs() < 1e-12);
    }

    #[test]
    fn union_noise_scales_by_share() {
        let strat = Strategy::Union([
            UnionGroup::new(0.25, vec![StructuredMatrix::identity(3)], vec![0]),
            UnionGroup::new(0.75, vec![StructuredMatrix::identity(3)], vec![0]),
        ]);
        let meas = measure(&strat, &data(3), 1.0, &mut StdRng::seed_from_u64(4));
        assert!((meas.blocks[0].noise_scale - 4.0).abs() < 1e-12);
        assert!((meas.blocks[1].noise_scale - 4.0 / 3.0).abs() < 1e-12);
    }

    /// A plan whose inverse Gram cannot be formed (Cholesky fails and the
    /// Jacobi fallback does not converge) keeps the error in place of its
    /// solve: a request against it is a typed `PlanMismatch` before any
    /// noise is drawn.
    #[test]
    fn a_failed_inverse_gram_refuses_requests_with_plan_mismatch() {
        let nan = hdmm_linalg::Matrix::from_rows(&[&[0.0, f64::NAN], &[0.0, 1.0]]);
        let strat = Strategy::Explicit(nan);
        let prepared = PreparedReconstruct::new(&strat);
        assert!(prepared.solve.is_err());
        let w = builders::prefix_1d(2);
        let request = MechanismRequest {
            workload: &w,
            prepared: &prepared,
            eps: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let before = rng.clone().gen::<u64>();
        let got = request.run(&mut rng, &PlainKernels::over(&data(2)), &());
        assert!(matches!(
            got,
            Err(crate::PipelineError::Rejected(
                crate::MechanismError::PlanMismatch
            ))
        ));
        assert_eq!(rng.gen::<u64>(), before, "no noise was drawn");
    }
}
