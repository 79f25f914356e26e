//! The end-to-end private pipeline: MEASURE → RECONSTRUCT → answer
//! (Table 1(b) of the paper, with the efficient implementations of §7.2).

use crate::error::gram_pinv;
use crate::pipeline::{measure_on, reconstruct_on, MechanismRequest, PlainKernels};
use crate::{MarginalsAlgebra, Strategy};
use hdmm_linalg::{KronScratch, Matrix, StructuredMatrix};
use hdmm_workload::Workload;
use rand::Rng;

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
    /// Per-part noisy answers: one block for explicit/Kron strategies, one per
    /// marginal for marginals strategies, one per group for unions.
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
/// [`measure_on`] over the plain reference kernels.
///
/// # Panics
/// Panics if `eps` is not positive.
pub fn measure(strategy: &Strategy, x: &[f64], eps: f64, rng: &mut impl Rng) -> Measurements {
    match measure_on(strategy, None, eps, rng, &PlainKernels::over(x)) {
        Ok(meas) => meas,
        Err(never) => match never {},
    }
}

/// The strategy-only half of RECONSTRUCT, factored out so a serving layer
/// answering many requests against one cached strategy pays for it once.
///
/// Everything here is a pure deterministic function of the strategy — no
/// measurements, no randomness — so `reconstruct_with(&prepared, s, m)`
/// returns the same bits whether `prepared` was built moments ago or cached
/// across requests:
///
/// * explicit: the `n×n` inverse Gram `(AᵀA)⁺` (a Cholesky or eigendecomposed
///   pseudo-inverse — the dominant cost of a warm explicit request);
/// * Kronecker: the per-factor inverse Grams `(AᵢᵀAᵢ)⁺`;
/// * marginals: the subset-sum algebra tables and the §7.2 weight vector `v`
///   with `(MᵀM)⁺ = G(v)`;
/// * union: nothing — LSMR has no reusable strategy-only factorization.
#[derive(Debug, Clone)]
pub enum PreparedReconstruct {
    /// `(AᵀA)⁺` for an explicit strategy.
    Explicit {
        /// The inverse Gram.
        gram_pinv: Matrix,
    },
    /// Per-factor `(AᵢᵀAᵢ)⁺` for a Kronecker strategy.
    Kron {
        /// One inverse Gram per factor, in factor order.
        gram_pinvs: Vec<StructuredMatrix>,
    },
    /// The marginals subset algebra and pseudo-inverse weights.
    Marginals {
        /// Möbius/subset-sum tables for the strategy domain.
        algebra: MarginalsAlgebra,
        /// Weights `v` with `(MᵀM)⁺ = G(v)`.
        v: Vec<f64>,
    },
    /// Union strategies reconstruct iteratively; nothing to precompute.
    Union,
}

impl PreparedReconstruct {
    /// Precomputes the reconstruction operator for `strategy`.
    pub fn new(strategy: &Strategy) -> Self {
        match strategy {
            Strategy::Explicit(a) => PreparedReconstruct::Explicit {
                gram_pinv: gram_pinv(a),
            },
            Strategy::Kron(factors) => PreparedReconstruct::Kron {
                gram_pinvs: factors.iter().map(StructuredMatrix::gram_pinv).collect(),
            },
            Strategy::Marginals(m) => {
                let algebra = MarginalsAlgebra::new(&m.domain);
                let v = algebra.g_inverse_weights(&m.gram_weights());
                PreparedReconstruct::Marginals { algebra, v }
            }
            Strategy::Union(_) => PreparedReconstruct::Union,
        }
    }

    /// The subset algebra of a marginals strategy — MEASURE needs the same
    /// tables RECONSTRUCT does, so prepared pipelines hand it to both.
    pub fn marginals_algebra(&self) -> Option<&MarginalsAlgebra> {
        match self {
            PreparedReconstruct::Marginals { algebra, .. } => Some(algebra),
            _ => None,
        }
    }
}

/// RECONSTRUCT: least-squares estimate `x̄` of the data vector from noisy
/// measurements (post-processing; consumes no privacy budget) —
/// [`reconstruct_on`] over the plain reference kernels; see there for the
/// per-strategy pseudo-inverses. `prepared` is the strategy-only
/// factorization ([`PreparedReconstruct::new`]): a pure function of the
/// strategy, so a cached one gives the same bits as a fresh one.
///
/// # Panics
/// Panics if `prepared` was built from a different strategy variant.
pub fn reconstruct_with(
    prepared: &PreparedReconstruct,
    strategy: &Strategy,
    meas: &Measurements,
) -> Vec<f64> {
    match reconstruct_on(prepared, strategy, meas, &PlainKernels::over(&[])) {
        Ok(x_hat) => x_hat,
        Err(never) => match never {},
    }
}

/// Answers the workload on the reconstructed estimate: `ans = W·x̄`.
pub fn answer_workload(workload: &Workload, x_hat: &[f64]) -> Vec<f64> {
    workload.answer(x_hat)
}

/// ANSWER for a batch: evaluates several workloads against one reconstructed
/// estimate, fanned over `exec` — each workload is an independent `W·x̄`
/// pass, so the batch parallelizes with no coordination. Every task owns its
/// own [`KronScratch`] shared across the workload's product terms (scratch
/// buffers never affect values), so entry `i` is bitwise identical to
/// `answer_workload(workloads[i], x_hat)` at any lane count.
///
/// This is the amortization point for follow-up queries: MEASURE and
/// RECONSTRUCT ran once, and each additional workload costs only its own
/// `W·x̄` pass with no per-term allocation.
pub fn answer_many_from_parts(
    x_hat: &[f64],
    workloads: &[&Workload],
    exec: &crate::ScopedExecutor,
) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); workloads.len()];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .iter_mut()
        .zip(workloads)
        .map(|(slot, w)| {
            Box::new(move || {
                let mut scratch = KronScratch::new();
                *slot = w.answer_with(x_hat, &mut scratch);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    exec.run(tasks);
    out
}

/// The asserting library convenience around [`MechanismRequest::run`]: the
/// complete ε-differentially-private pipeline over the plain kernels, with
/// the strategy factorization built on the spot and no budget ceiling.
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
        strategy,
        prepared: &PreparedReconstruct::new(strategy),
        eps,
        remaining: f64::INFINITY,
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
    use rand::SeedableRng;

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
        let strat = Strategy::Union(vec![
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
        let serial = answer_many_from_parts(&x_hat, &workloads, &crate::ScopedExecutor::new(1));
        assert_eq!(serial.len(), 3);
        for (got, w) in serial.iter().zip(workloads) {
            assert_eq!(got, &w.answer(&x_hat));
        }
        for threads in [2, 4, 7] {
            let par =
                answer_many_from_parts(&x_hat, &workloads, &crate::ScopedExecutor::new(threads));
            assert_eq!(serial, par, "lane count {threads} changed answers");
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
        let strat = Strategy::Union(vec![
            UnionGroup::new(0.25, vec![StructuredMatrix::identity(3)], vec![0]),
            UnionGroup::new(0.75, vec![StructuredMatrix::identity(3)], vec![0]),
        ]);
        let meas = measure(&strat, &data(3), 1.0, &mut StdRng::seed_from_u64(4));
        assert!((meas.blocks[0].noise_scale - 4.0).abs() < 1e-12);
        assert!((meas.blocks[1].noise_scale - 4.0 / 3.0).abs() < 1e-12);
    }
}
