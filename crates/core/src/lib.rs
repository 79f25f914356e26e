//! # HDMM — the High-Dimensional Matrix Mechanism
//!
//! A from-scratch Rust implementation of McKenna, Miklau, Hay &
//! Machanavajjhala, *"Optimizing error of high-dimensional statistical
//! queries under differential privacy"*, PVLDB 11(10), 2018.
//!
//! HDMM answers a *workload* of predicate counting queries over a sensitive
//! table under ε-differential privacy, in three phases (Table 1(b) of the
//! paper):
//!
//! 1. **SELECT** — search implicit strategy spaces (p-Identity products,
//!    unions of products, weighted marginals) for a measurement strategy
//!    minimizing the closed-form expected error. Data-independent; consumes
//!    no privacy budget.
//! 2. **MEASURE** — answer the strategy queries through the vector-form
//!    Laplace mechanism, using Kronecker matrix–vector products so the
//!    strategy is never materialized.
//! 3. **RECONSTRUCT** — least-squares estimate of the data vector via
//!    closed-form implicit pseudo-inverses (a union's through the joint
//!    eigenbasis of its two groups), then answer
//!    the workload from the estimate.
//!
//! ```
//! use hdmm_core::{Hdmm, Workload, builders};
//! use rand::SeedableRng;
//!
//! // All 1-D range queries over a domain of 64 ordered values.
//! let workload = builders::all_range_1d(64);
//!
//! // SELECT: optimize a strategy for the workload (no data involved).
//! let planner = Hdmm::default();
//! let plan = planner.plan(&workload);
//! assert!(plan.expected_error(1.0) <= plan.identity_error(1.0));
//!
//! // MEASURE + RECONSTRUCT on a toy histogram at ε = 1.
//! let x = vec![10.0; 64];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let answers = plan.execute(&workload, &x, 1.0, &mut rng).answers;
//! assert_eq!(answers.len(), workload.query_count());
//! ```

pub mod codec;
pub mod data;
pub mod engine;

pub use hdmm_linalg as linalg;
pub use hdmm_mechanism as mechanism;
pub use hdmm_optimizer as optimizer;
pub use hdmm_workload as workload;

pub use data::ShardedDataVector;
pub use engine::{BudgetAccountant, EngineError, QueryEngine, QueryResponse, SessionId};
pub use hdmm_mechanism::{MarginalsStrategy, MechanismResult, PreparedReconstruct, Strategy};
pub use hdmm_optimizer::{HdmmOptions, Selected};
pub use hdmm_workload::{
    builders, census, predicates, Domain, ProductTerm, Workload, WorkloadFingerprint, WorkloadGrams,
};

use hdmm_mechanism::{MechanismError, MechanismRequest, PlainKernels};
use hdmm_obs::Observer;
use hdmm_optimizer::OptimizerChoice;
use rand::Rng;

/// The HDMM planner: configuration for the SELECT phase.
#[derive(Debug, Clone, Default)]
pub struct Hdmm {
    options: HdmmOptions,
}

impl Hdmm {
    /// Planner with explicit options (restarts, seeds, p overrides, …).
    pub fn with_options(options: HdmmOptions) -> Self {
        Hdmm { options }
    }

    /// Planner with a given number of random restarts (Algorithm 2's `S`).
    pub fn with_restarts(restarts: usize) -> Self {
        Hdmm {
            options: HdmmOptions {
                restarts,
                ..Default::default()
            },
        }
    }

    /// SELECT: optimizes a measurement strategy for `workload`
    /// (Algorithm 2). Pure function of the workload — no data, no budget.
    pub fn plan(&self, workload: &Workload) -> Plan {
        Plan::select(workload, &self.options, OptimizerChoice::Exhaustive, &())
    }
}

/// An optimized measurement plan: the selected strategy, its reconstruction
/// factorization and its error accounting.
#[derive(Debug, Clone)]
pub struct Plan {
    selected: Selected,
    /// The strategy-only half of RECONSTRUCT, built once with the plan:
    /// every execution against it borrows the same factorization.
    prepared: PreparedReconstruct,
    /// `‖W‖²_F`, the Identity baseline's error coefficient: all a cached
    /// plan needs of the workload's Grams, which are `n×n` per attribute.
    identity_squared_error: f64,
    query_count: usize,
}

impl Plan {
    /// SELECT: forms the workload's Grams, applies the §7.1 `p` convention
    /// unless `opts.ps` overrides it, and runs Algorithm 2's restart grid
    /// over the operator set `choice` resolves to
    /// ([`hdmm_optimizer::optimize_with_choice_observed`]). `Exhaustive` is
    /// the paper's offline `OPT_HDMM`; a serving engine passes the planner's
    /// structural choice and its own per-cell `observer`.
    pub fn select(
        workload: &Workload,
        opts: &HdmmOptions,
        choice: OptimizerChoice,
        observer: &dyn Observer,
    ) -> Plan {
        let grams = WorkloadGrams::from_workload(workload);
        let ps = opts
            .ps
            .clone()
            .unwrap_or_else(|| hdmm_optimizer::default_ps(workload));
        let selected =
            hdmm_optimizer::optimize_with_choice_observed(&grams, &ps, opts, choice, observer);
        Plan::from_parts(selected, grams, workload.query_count())
    }

    /// Assembles a plan from a selection — SELECT's own, or a stored one
    /// (the plan store, and benches that hand-pick a strategy) — and builds
    /// its [`PreparedReconstruct`]. Only `‖W‖²_F` of `grams` is kept.
    pub fn from_parts(selected: Selected, grams: WorkloadGrams, query_count: usize) -> Plan {
        Plan {
            prepared: PreparedReconstruct::new(&selected.strategy),
            selected,
            identity_squared_error: grams.frobenius_norm_sq(),
            query_count,
        }
    }

    /// The selected strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.selected.strategy
    }

    /// The strategy's reconstruction factorization, built with the plan.
    pub fn prepared(&self) -> &PreparedReconstruct {
        &self.prepared
    }

    /// Number of workload queries this plan was optimized for.
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// Which operator won (`"kron"`, `"plus"`, `"marginals"`, `"identity"`).
    pub fn operator(&self) -> &'static str {
        self.selected.operator
    }

    /// Expected total squared error at privacy level `eps` (Definition 7).
    pub fn expected_error(&self, eps: f64) -> f64 {
        2.0 / (eps * eps) * self.selected.squared_error
    }

    /// Expected per-query RMSE at privacy level `eps`.
    pub fn expected_rmse(&self, eps: f64) -> f64 {
        (self.expected_error(eps) / self.query_count as f64).sqrt()
    }

    /// Expected error of the Identity baseline on the same workload.
    pub fn identity_error(&self, eps: f64) -> f64 {
        2.0 / (eps * eps) * self.identity_squared_error
    }

    /// The ε-free squared-error coefficient (`expected_error = 2/ε²·this`).
    pub fn squared_error_coefficient(&self) -> f64 {
        self.selected.squared_error
    }

    /// MEASURE + RECONSTRUCT: runs the ε-differentially-private mechanism on
    /// data vector `x` and answers `workload` (Theorem 7), reconstructing
    /// through the plan's own factorization.
    ///
    /// # Panics
    /// Panics on what a serving caller gets as a typed [`MechanismError`]: a
    /// non-positive or non-finite `eps`, or an `x` that does not match the
    /// workload's domain.
    pub fn execute(
        &self,
        workload: &Workload,
        x: &[f64],
        eps: f64,
        rng: &mut impl Rng,
    ) -> MechanismResult {
        let request = MechanismRequest {
            workload,
            prepared: &self.prepared,
            eps,
        };
        match request.run(rng, &PlainKernels::over(x), &()) {
            Ok(result) => result,
            Err(e) => panic!("{}", MechanismError::from(e)),
        }
    }
}

/// One-call convenience: plan and execute in a single invocation
/// (the full Table 1(b) pipeline).
pub fn hdmm(workload: &Workload, x: &[f64], eps: f64, rng: &mut impl Rng) -> MechanismResult {
    Hdmm::default()
        .plan(workload)
        .execute(workload, x, eps, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plan_then_execute_roundtrip() {
        let w = builders::prefix_2d(8, 8);
        let plan = Hdmm::with_restarts(1).plan(&w);
        assert!(plan.expected_error(1.0) <= plan.identity_error(1.0) * 1.0001);
        let x = vec![3.0; 64];
        let mut rng = StdRng::seed_from_u64(0);
        let res = plan.execute(&w, &x, 1e6, &mut rng);
        let truth = w.answer(&x);
        for (a, t) in res.answers.iter().zip(&truth) {
            assert!((a - t).abs() < 0.1);
        }
    }

    #[test]
    fn one_call_pipeline() {
        let w = builders::prefix_1d(16);
        let x = vec![1.0; 16];
        let mut rng = StdRng::seed_from_u64(1);
        let res = hdmm(&w, &x, 1000.0, &mut rng);
        assert_eq!(res.answers.len(), 16);
        assert_eq!(res.x_hat.len(), 16);
    }

    #[test]
    fn rmse_scales_inversely_with_eps() {
        let w = builders::all_range_1d(16);
        let plan = Hdmm::with_restarts(1).plan(&w);
        let r1 = plan.expected_rmse(1.0);
        let r2 = plan.expected_rmse(2.0);
        assert!((r1 / r2 - 2.0).abs() < 1e-9);
    }
}
