//! SELECT: Algorithm 2's restart grid, and the structural rules that pick
//! which operators it runs.
//!
//! Algorithm 2 (§7.1) is one loop — for each of `S` restarts, for each
//! operator in a set, keep the lowest-error strategy, seeded with Identity —
//! and [`optimize_with_choice_observed`] is that loop, written once. Its only
//! degree of freedom is the operator set, which an [`OptimizerChoice`]
//! resolves to:
//!
//! * `Exhaustive` → `{OPT_⊗, OPT_+(g(W)), OPT_M}`, each where it applies —
//!   the paper's `OPT_HDMM` ([`crate::opt_hdmm_grams`]);
//! * a single operator → that operator, or `OPT_⊗` where it does not apply.
//!
//! [`select_optimizer`] encodes the paper's decision rules (§7.1, §8) as a
//! cheap structural inspection, so a serving engine can run *one* operator
//! when the workload's shape already determines the winner:
//!
//! * one-dimensional domains → `OPT_0` on the explicit Gram (§5.2);
//! * marginals workloads (every factor `Identity` or `Total`) on
//!   multi-dimensional domains → `OPT_M` (§6.3);
//! * unions with ≥ 2 structural groups → `OPT_+` (§6.2);
//! * everything else → `OPT_⊗` (§6.1).
//!
//! # The grid
//!
//! Cells are `(restart, operator)` pairs enumerated restart-major, operators
//! in set order within a restart. Each cell seeds its own RNG stream with
//! [`restart_seed`]`(master, restart, tag)`, runs as a slot-writing task on
//! [`ScopedExecutor`] (`opts.threads` lanes; `1` is the serial reference),
//! and the selection is the fold of the slots in grid order under strict `<`
//! from the Identity fallback — so ties go to the earliest cell and the
//! result is bitwise identical at any lane count.

use crate::opt0::{opt0_with, Opt0Options, PIdentity};
use crate::opt_hdmm::{HdmmOptions, Selected};
use crate::opt_kron::opt_kron;
use crate::opt_marginals::opt_marginals;
use crate::opt_plus::{group_terms, opt_plus};
use crate::restart::restart_seed;
use hdmm_linalg::{Matrix, StructuredMatrix};
use hdmm_mechanism::{ScopedExecutor, Strategy};
use hdmm_obs::Observer;
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
/// variants answer from their descriptor — a width range only when its one
/// window covers the domain, as its CSR form's `columns_all_equal` does; only
/// `Dense`/`Sparse` inspect entries.
pub fn is_total_like(factor: &StructuredMatrix) -> bool {
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
        StructuredMatrix::WidthRange { n, width, .. } => width == n,
        StructuredMatrix::Dense(m) => dense_check(m),
        StructuredMatrix::PIdentity { .. } | StructuredMatrix::Woodbury { .. } => {
            dense_check(&factor.to_dense())
        }
        StructuredMatrix::Sparse(s) => s.columns_all_equal(),
        // Moving columns keeps equal columns equal.
        StructuredMatrix::Permuted { inner, .. } => is_total_like(inner),
        StructuredMatrix::Kron(fs) => fs.iter().all(is_total_like),
    }
}

/// `OPT_M` applies to domains of `2 ≤ d ≤ MARGINALS_MAX_DIMS` attributes:
/// its subset algebra holds one weight per attribute subset, `2^d` of them.
const MARGINALS_MAX_DIMS: usize = 14;

/// Inspects the workload's structure and picks the operator the paper's
/// decision rules prescribe. Pure and cheap: touches only factor shapes and
/// entries (no Grams are formed), never runs an optimization. No option
/// steers the rules: a union has two groups by type and the `OPT_M` cutoff
/// is a constant, so `_opts` is read by nothing.
pub fn select_optimizer(workload: &Workload, _opts: &HdmmOptions) -> PlanDecision {
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
    if all_marginal && d <= MARGINALS_MAX_DIMS {
        return PlanDecision {
            choice: OptimizerChoice::Marginals,
            reason: "marginals workload (all factors Identity/Total): OPT_M subset algebra",
        };
    }

    // A union splits into structural groups by which attributes carry a
    // non-Total factor — the same signature `group_terms` computes from the
    // Grams, read here directly off the factor entries.
    if workload.terms().len() >= 2 {
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

/// One operator of Algorithm 2's set, carrying the RNG-free inputs every
/// restart of it shares.
enum Operator {
    /// `OPT_0` on the explicit Gram `Σ w²·G` the 1-D union collapses to.
    Opt0(Matrix),
    Kron,
    /// `OPT_+` over the two-group union partition `g(W)`.
    Plus([Vec<usize>; 2]),
    Marginals,
}

impl Operator {
    /// Resolves `choice` to the ordered operator set the grid runs — the one
    /// place operator applicability is decided: `OPT_0` needs a 1-D domain,
    /// `OPT_+` a union of at least two structural signatures, `OPT_M`
    /// `2 ≤ d ≤ MARGINALS_MAX_DIMS`. A single choice that does not apply
    /// runs `OPT_⊗` instead, so the set is never empty.
    fn resolve(choice: OptimizerChoice, grams: &WorkloadGrams) -> Vec<Operator> {
        let d = grams.dims();
        let plus = || {
            (d >= 2)
                .then(|| group_terms(grams))
                .flatten()
                .map(Operator::Plus)
        };
        let marginals = || {
            (2..=MARGINALS_MAX_DIMS)
                .contains(&d)
                .then_some(Operator::Marginals)
        };
        match choice {
            OptimizerChoice::Exhaustive => [Some(Operator::Kron), plus(), marginals()]
                .into_iter()
                .flatten()
                .collect(),
            OptimizerChoice::Opt0 if d == 1 => vec![Operator::Opt0(grams.explicit())],
            OptimizerChoice::Opt0 | OptimizerChoice::Kron => vec![Operator::Kron],
            OptimizerChoice::Plus => vec![plus().unwrap_or(Operator::Kron)],
            OptimizerChoice::Marginals => vec![marginals().unwrap_or(Operator::Kron)],
        }
    }

    /// The tag cells of this operator are seeded and reported under.
    fn tag(&self) -> &'static str {
        match self {
            Operator::Opt0(_) => "opt0",
            Operator::Kron => "kron",
            Operator::Plus(_) => "plus",
            Operator::Marginals => "marginals",
        }
    }

    /// Runs one restart of this operator; `None` when the numerics were
    /// unsound (a candidate error is usable only when finite and positive).
    fn run(&self, grams: &WorkloadGrams, ps: &[usize], rng: &mut StdRng) -> Option<Selected> {
        let (strategy, squared_error) = match self {
            Operator::Opt0(wtw) => {
                let p = ps.first().copied().unwrap_or(1).max(1);
                let res = opt0_with(wtw, &Opt0Options { p, max_iter: 120 }, rng);
                (Strategy::Kron(vec![res.pident.leaf()]), res.residual)
            }
            Operator::Kron => {
                let res = opt_kron(grams, ps, rng);
                let leaves = res.pidents.iter().map(PIdentity::leaf).collect();
                (Strategy::Kron(leaves), res.residual)
            }
            Operator::Plus(partition) => {
                let res = opt_plus(grams, partition, ps, rng);
                (res.strategy, res.squared_error)
            }
            Operator::Marginals => {
                let res = opt_marginals(grams, rng);
                (Strategy::Marginals(res.strategy), res.squared_error)
            }
        };
        (squared_error.is_finite() && squared_error > 0.0).then_some(Selected {
            strategy,
            squared_error,
            operator: self.tag(),
        })
    }
}

/// [`optimize_with_choice_observed`] without an observer.
pub fn optimize_with_choice(
    grams: &WorkloadGrams,
    ps: &[usize],
    opts: &HdmmOptions,
    choice: OptimizerChoice,
) -> Selected {
    optimize_with_choice_observed(grams, ps, opts, choice, &())
}

/// Algorithm 2: runs the operator set `choice` resolves to across
/// `opts.restarts` restarts and returns the lowest-error strategy, seeded
/// with the Identity strategy as the universal fallback. Total over all
/// (choice, workload) pairs — see the [module docs](self) for the operator
/// set, cell order, seed derivation and fold.
///
/// The observer sees [`Observer::grid_planned`] once with
/// `restarts × |set|`, then one completion per cell in completion order; the
/// returned selection does not depend on that order.
pub fn optimize_with_choice_observed(
    grams: &WorkloadGrams,
    ps: &[usize],
    opts: &HdmmOptions,
    choice: OptimizerChoice,
    observer: &dyn Observer,
) -> Selected {
    let operators = Operator::resolve(choice, grams);
    let restarts = opts.restarts.max(1);
    let cells = (0..restarts).flat_map(|restart| operators.iter().map(move |op| (restart, op)));
    observer.grid_planned(restarts * operators.len());

    let mut slots: Vec<Option<Selected>> = vec![None; restarts * operators.len()];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .zip(cells)
        .map(|(slot, (restart, op))| {
            Box::new(move || {
                let started = Instant::now();
                let seed = restart_seed(opts.seed, restart as u64, op.tag());
                *slot = op.run(grams, ps, &mut StdRng::seed_from_u64(seed));
                let loss = slot.as_ref().map_or(f64::INFINITY, |c| c.squared_error);
                observer.restart_complete(op.tag(), restart, loss, started.elapsed());
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    ScopedExecutor::new(opts.threads).run(tasks);

    let mut best = Selected {
        strategy: Strategy::identity(grams.domain()),
        squared_error: grams.frobenius_norm_sq(),
        operator: "identity",
    };
    for candidate in slots.into_iter().flatten() {
        if candidate.squared_error < best.squared_error {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt_hdmm::opt_hdmm_grams;
    use hdmm_workload::{builders, Domain};
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    use std::time::Duration;

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
    fn two_cell_prefix_and_ranges_route_like_their_dense_twins() {
        // Every row of Prefix(2) and AllRange(2) is a point or the total.
        let domain = Domain::new(&[2, 3]);
        for block in [StructuredMatrix::prefix(2), StructuredMatrix::all_range(2)] {
            let twin = StructuredMatrix::Dense(block.to_dense());
            for first in [block, twin] {
                let factors = vec![first, StructuredMatrix::identity(3)];
                let w = Workload::product(domain.clone(), factors);
                let choice = select_optimizer(&w, &opts()).choice;
                assert_eq!(choice, OptimizerChoice::Marginals);
            }
        }
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

    /// What the grid announced and which operator tags its cells ran under.
    #[derive(Default)]
    struct GridShape {
        planned: Mutex<Vec<usize>>,
        tags: Mutex<BTreeSet<&'static str>>,
    }

    impl Observer for GridShape {
        fn grid_planned(&self, total_cells: usize) {
            self.planned.lock().unwrap().push(total_cells);
        }
        fn restart_complete(&self, operator: &'static str, _: usize, _: f64, _: Duration) {
            self.tags.lock().unwrap().insert(operator);
        }
    }

    #[test]
    fn every_choice_resolves_to_its_operator_set_on_every_shape() {
        use OptimizerChoice::*;
        let range_1d = builders::prefix_1d(8);
        let product_2d = builders::prefix_2d(4, 4);
        let union_2d = builders::range_total_union_2d(4, 4);
        let marginals_3d = builders::upto_kway_marginals(&Domain::new(&[3, 3, 3]), 2);
        // One attribute past `MARGINALS_MAX_DIMS`: OPT_M no longer applies.
        let marginals_15d =
            builders::upto_kway_marginals(&Domain::new(&[2; MARGINALS_MAX_DIMS + 1]), 1);
        let table: [(&Workload, OptimizerChoice, &[&str]); 15] = [
            (&range_1d, Opt0, &["opt0"]),
            (&range_1d, Marginals, &["kron"]),
            (&range_1d, Plus, &["kron"]),
            (&range_1d, Exhaustive, &["kron"]),
            (&product_2d, Opt0, &["kron"]),
            (&product_2d, Kron, &["kron"]),
            (&product_2d, Plus, &["kron"]),
            (&product_2d, Marginals, &["marginals"]),
            (&product_2d, Exhaustive, &["kron", "marginals"]),
            (&union_2d, Plus, &["plus"]),
            (&union_2d, Exhaustive, &["kron", "marginals", "plus"]),
            (&marginals_3d, Marginals, &["marginals"]),
            (&marginals_15d, Marginals, &["kron"]),
            (&marginals_3d, Exhaustive, &["kron", "marginals", "plus"]),
            (&marginals_15d, Exhaustive, &["kron", "plus"]),
        ];
        for (row, (workload, choice, tags)) in table.into_iter().enumerate() {
            let grams = WorkloadGrams::from_workload(workload);
            // The set first, before any restart runs: a wrong cutoff fails
            // here instead of running OPT_M over 2^15 subset weights.
            let mut resolved: Vec<_> = Operator::resolve(choice, &grams)
                .iter()
                .map(Operator::tag)
                .collect();
            resolved.sort_unstable();
            assert_eq!(resolved, tags, "row {row}: {choice:?}");
            let opts = HdmmOptions {
                restarts: 2,
                ..Default::default()
            };
            let shape = GridShape::default();
            let ps = crate::default_ps(workload);
            optimize_with_choice_observed(&grams, &ps, &opts, choice, &shape);
            let ran: Vec<_> = shape.tags.into_inner().unwrap().into_iter().collect();
            assert_eq!(ran, tags, "row {row}: {choice:?}");
            // `restarts × |set|`, announced exactly once: the total
            // `Engine::select_progress` reports against.
            assert_eq!(
                shape.planned.into_inner().unwrap(),
                [2 * tags.len()],
                "row {row}: {choice:?}"
            );
        }
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
