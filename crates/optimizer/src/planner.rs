//! Plan selection: choose the right optimizer from workload structure.
//!
//! `OPT_HDMM` (Algorithm 2) runs every applicable operator and keeps the
//! best — robust, but expensive for a serving engine. This module encodes the
//! paper's decision rules (§7.1, §8) as a cheap structural inspection, so a
//! caller can run *one* operator when the workload's shape already determines
//! the winner:
//!
//! * one-dimensional domains → `OPT_0` on the explicit Gram (§5.2);
//! * marginals workloads (every factor `Identity` or `Total`) on
//!   multi-dimensional domains → `OPT_M` (§6.3);
//! * unions with ≥ 2 structural groups → `OPT_+` (§6.2);
//! * everything else → `OPT_⊗` (§6.1);
//! * `Exhaustive` → full Algorithm 2.

use crate::opt0::{opt0_with, Opt0Options};
use crate::opt_hdmm::{
    fold_candidates, identity_fallback, opt_hdmm_grams_observed, HdmmOptions, Selected,
};
use crate::opt_kron::{opt_kron, OptKronOptions};
use crate::opt_marginals::opt_marginals;
use crate::opt_plus::{group_terms, opt_plus};
use crate::restart::{restart_seed, RestartExecutor, RestartObserver};
use hdmm_linalg::StructuredMatrix;
use hdmm_mechanism::Strategy;
use hdmm_workload::{Workload, WorkloadGrams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Which optimization operator to run for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerChoice {
    /// `OPT_0`: direct p-Identity optimization (1-D domains).
    Opt0,
    /// `OPT_⊗`: per-attribute Kronecker decomposition.
    Kron,
    /// `OPT_+`: union-of-products with budget shares.
    Plus,
    /// `OPT_M`: weighted marginals.
    Marginals,
    /// Full Algorithm 2 (all operators, keep the best).
    Exhaustive,
}

impl OptimizerChoice {
    /// A short tag for logging/telemetry.
    pub fn tag(self) -> &'static str {
        match self {
            OptimizerChoice::Opt0 => "opt0",
            OptimizerChoice::Kron => "kron",
            OptimizerChoice::Plus => "plus",
            OptimizerChoice::Marginals => "marginals",
            OptimizerChoice::Exhaustive => "exhaustive",
        }
    }
}

/// The outcome of structural plan selection.
#[derive(Debug, Clone, Copy)]
pub struct PlanDecision {
    /// The chosen operator.
    pub choice: OptimizerChoice,
    /// Human-readable rationale (for logs and `EXPLAIN`-style output).
    pub reason: &'static str,
}

/// True when every column of the factor is the same vector — exactly the
/// terms whose Gram `G = c·𝟙` the union partitioner treats as Total-like
/// (`G_ij = wᵢ·wⱼ` is constant iff all columns `wᵢ` coincide). Structured
/// variants answer from their descriptor; only `Dense`/`Sparse` inspect
/// entries.
fn is_total_like(factor: &StructuredMatrix) -> bool {
    let dense_check = |m: &hdmm_linalg::Matrix| {
        for c in 1..m.cols() {
            for r in 0..m.rows() {
                if (m[(r, c)] - m[(r, 0)]).abs() > 1e-12 {
                    return false;
                }
            }
        }
        true
    };
    match factor {
        StructuredMatrix::Total { .. } => true,
        StructuredMatrix::Identity { n, .. }
        | StructuredMatrix::Prefix { n, .. }
        | StructuredMatrix::AllRange { n, .. } => *n == 1,
        StructuredMatrix::Dense(m) => dense_check(m),
        StructuredMatrix::Sparse(s) => s.columns_all_equal(),
        StructuredMatrix::Kron(fs) => fs.iter().all(is_total_like),
    }
}

/// Inspects the workload's structure and picks the operator the paper's
/// decision rules prescribe. Pure and cheap: touches only factor shapes and
/// entries (no Grams are formed), never runs an optimization.
pub fn select_optimizer(workload: &Workload, opts: &HdmmOptions) -> PlanDecision {
    let d = workload.domain().dims();
    if d == 1 {
        return PlanDecision {
            choice: OptimizerChoice::Opt0,
            reason: "one-dimensional domain: OPT_0 gradient search over p-Identity strategies",
        };
    }

    let all_marginal = workload
        .terms()
        .iter()
        .all(|t| t.factors.iter().all(StructuredMatrix::is_total_or_identity));
    if all_marginal && d <= opts.marginals_max_dims {
        return PlanDecision {
            choice: OptimizerChoice::Marginals,
            reason: "marginals workload (all factors Identity/Total): OPT_M subset algebra",
        };
    }

    // A union splits into structural groups by which attributes carry a
    // non-Total factor — the same signature `group_terms` computes from the
    // Grams, read here directly off the factor entries.
    if workload.terms().len() >= 2 && opts.union_groups >= 2 {
        let mut signatures: Vec<u64> = workload
            .terms()
            .iter()
            .map(|t| {
                t.factors
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| !is_total_like(f))
                    .fold(0u64, |sig, (i, _)| sig | 1 << i)
            })
            .collect();
        signatures.sort_unstable();
        signatures.dedup();
        if signatures.len() >= 2 {
            return PlanDecision {
                choice: OptimizerChoice::Plus,
                reason: "union with multiple structural groups: OPT_+ with budget shares",
            };
        }
    }

    PlanDecision {
        choice: OptimizerChoice::Kron,
        reason: "Kronecker-structured workload: OPT_⊗ block coordinate descent",
    }
}

/// Runs exactly one operator (with restarts and the Identity fallback of
/// Algorithm 2's first line) and returns the best strategy found.
///
/// `OptimizerChoice::Exhaustive` delegates to [`crate::opt_hdmm_grams`]. Operators
/// that do not apply to the given shape (e.g. `Plus` on a single term,
/// `Marginals` on 1-D) quietly fall back to the nearest applicable one, so
/// the function is total over all (choice, workload) pairs.
pub fn optimize_with_choice(
    grams: &WorkloadGrams,
    ps: &[usize],
    opts: &HdmmOptions,
    choice: OptimizerChoice,
) -> Selected {
    optimize_with_choice_observed(grams, ps, opts, choice, &())
}

/// [`optimize_with_choice`] with a per-cell completion observer. Restarts fan
/// out over [`RestartExecutor`] (`opts.threads` lanes); each restart draws
/// from its own derived stream ([`restart_seed`]) under the same contract as
/// Algorithm 2, so the selection is bitwise identical at any thread count.
pub fn optimize_with_choice_observed(
    grams: &WorkloadGrams,
    ps: &[usize],
    opts: &HdmmOptions,
    choice: OptimizerChoice,
    observer: &dyn RestartObserver,
) -> Selected {
    if choice == OptimizerChoice::Exhaustive {
        return opt_hdmm_grams_observed(grams, ps, opts, observer);
    }
    let d = grams.dims();
    let k = grams.terms().len();
    let valid = |e: f64| e.is_finite() && e > 0.0;

    // Resolve inapplicable choices to the nearest applicable operator.
    let choice = match choice {
        OptimizerChoice::Opt0 if d > 1 => OptimizerChoice::Kron,
        OptimizerChoice::Marginals if d < 2 || d > opts.marginals_max_dims => OptimizerChoice::Kron,
        OptimizerChoice::Plus if k < 2 || d < 2 => OptimizerChoice::Kron,
        c => c,
    };
    // A union whose partition collapsed to one group runs OPT_⊗ instead —
    // resolved before the fan-out so every cell runs the same operator.
    let partition = match choice {
        OptimizerChoice::Plus => {
            let p = group_terms(grams, opts.union_groups);
            if p.len() >= 2 {
                Some(p)
            } else {
                None
            }
        }
        _ => None,
    };
    let choice = match (choice, &partition) {
        (OptimizerChoice::Plus, None) => OptimizerChoice::Kron,
        (c, _) => c,
    };
    let partition = partition.as_ref();

    // 1-D: the union collapses to one explicit Gram Σ w²·G, shared by every
    // restart (it is RNG-free).
    let wtw = (choice == OptimizerChoice::Opt0).then(|| grams.explicit());
    let wtw = wtw.as_ref();

    let restarts = opts.restarts.max(1);
    observer.grid_planned(restarts);
    let exec = RestartExecutor::new(opts.threads);

    // Each restart computes its candidate from a cell-derived RNG stream;
    // the in-order fold below is the deterministic argmin merge.
    let run_cell = |restart: usize| -> Option<Selected> {
        let started = Instant::now();
        let operator = choice.tag();
        let mut rng = StdRng::seed_from_u64(restart_seed(opts.seed, restart as u64, operator));
        let candidate = match choice {
            OptimizerChoice::Exhaustive => unreachable!("delegated to opt_hdmm_grams_observed"),
            OptimizerChoice::Opt0 => {
                let p = ps.first().copied().unwrap_or(1).max(1);
                let res = opt0_with(wtw.unwrap(), &Opt0Options { p, max_iter: 120 }, &mut rng);
                valid(res.residual).then(|| Selected {
                    strategy: Strategy::Explicit(res.pident.matrix()),
                    squared_error: res.residual,
                    operator: "opt0",
                })
            }
            OptimizerChoice::Kron => {
                let res = opt_kron(grams, &OptKronOptions::new(ps.to_vec()), &mut rng);
                valid(res.residual).then(|| Selected {
                    strategy: Strategy::kron(res.factors()),
                    squared_error: res.residual,
                    operator: "kron",
                })
            }
            OptimizerChoice::Plus => {
                let res = opt_plus(grams, partition.unwrap(), ps, &mut rng);
                valid(res.squared_error).then_some(Selected {
                    squared_error: res.squared_error,
                    strategy: res.strategy,
                    operator: "plus",
                })
            }
            OptimizerChoice::Marginals => {
                let res = opt_marginals(grams, &mut rng);
                valid(res.squared_error).then_some(Selected {
                    squared_error: res.squared_error,
                    strategy: Strategy::Marginals(res.strategy),
                    operator: "marginals",
                })
            }
        };
        let loss = candidate
            .as_ref()
            .map_or(f64::INFINITY, |c| c.squared_error);
        observer.restart_complete(operator, restart, loss, started.elapsed());
        candidate
    };

    let results = exec.run((0..restarts).map(|r| move || run_cell(r)).collect());
    fold_candidates(identity_fallback(grams), results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt_hdmm::opt_hdmm_grams;
    use hdmm_workload::{builders, Domain};

    fn opts() -> HdmmOptions {
        HdmmOptions {
            restarts: 1,
            ..Default::default()
        }
    }

    #[test]
    fn one_dim_selects_opt0() {
        let w = builders::all_range_1d(16);
        assert_eq!(select_optimizer(&w, &opts()).choice, OptimizerChoice::Opt0);
    }

    #[test]
    fn marginals_workload_selects_opt_m() {
        let d = Domain::new(&[4, 4, 4]);
        let w = builders::upto_kway_marginals(&d, 2);
        assert_eq!(
            select_optimizer(&w, &opts()).choice,
            OptimizerChoice::Marginals
        );
    }

    #[test]
    fn structured_union_selects_opt_plus() {
        let w = builders::range_total_union_2d(8, 8);
        assert_eq!(select_optimizer(&w, &opts()).choice, OptimizerChoice::Plus);
    }

    #[test]
    fn kron_product_selects_opt_kron() {
        let w = builders::prefix_2d(8, 8);
        assert_eq!(select_optimizer(&w, &opts()).choice, OptimizerChoice::Kron);
    }

    #[test]
    fn opt0_beats_identity_on_ranges() {
        let w = builders::all_range_1d(32);
        let grams = WorkloadGrams::from_workload(&w);
        let sel = optimize_with_choice(&grams, &[2], &opts(), OptimizerChoice::Opt0);
        assert!(sel.squared_error < grams.frobenius_norm_sq());
        assert_eq!(sel.operator, "opt0");
    }

    #[test]
    fn inapplicable_choice_falls_back() {
        // Marginals on a 1-D domain resolves to Kron instead of panicking.
        let w = builders::prefix_1d(8);
        let grams = WorkloadGrams::from_workload(&w);
        let sel = optimize_with_choice(&grams, &[1], &opts(), OptimizerChoice::Marginals);
        assert!(sel.squared_error <= grams.frobenius_norm_sq() * 1.0001);
    }

    #[test]
    fn targeted_matches_exhaustive_on_structured_workloads() {
        // The planner's single-operator run should land within a small factor
        // of full Algorithm 2 when the structure determines the winner.
        let w = builders::prefix_2d(8, 8);
        let grams = WorkloadGrams::from_workload(&w);
        let ps = crate::default_ps(&w);
        let targeted =
            optimize_with_choice(&grams, &ps, &opts(), select_optimizer(&w, &opts()).choice);
        let exhaustive = opt_hdmm_grams(&grams, &ps, &opts());
        assert!(targeted.squared_error <= exhaustive.squared_error * 1.25);
    }
}
