//! `OPT_HDMM`: the fully automated strategy-selection driver (Algorithm 2,
//! §7.1).
//!
//! Runs the operator set `{OPT_⊗, OPT_+(g(W)), OPT_M}` across random restarts
//! and keeps the lowest-error strategy, seeded with the Identity strategy as
//! the universal fallback — [`crate::planner`]'s restart grid with the
//! `Exhaustive` operator set. Strategy selection never touches the data and
//! consumes no privacy budget.

use crate::planner::{optimize_with_choice, OptimizerChoice};
use hdmm_mechanism::Strategy;
use hdmm_workload::{Workload, WorkloadGrams};

/// Options for `OPT_HDMM`.
#[derive(Debug, Clone)]
pub struct HdmmOptions {
    /// Random restarts `S` (the paper uses 25 and notes far fewer suffice;
    /// the default favors wall-clock time on a single core).
    pub restarts: usize,
    /// RNG seed for reproducible selection.
    pub seed: u64,
    /// Number of groups `l` the union-partitioning function `g` produces.
    pub union_groups: usize,
    /// Run `OPT_M` when `2 ≤ d ≤ marginals_max_dims`.
    pub marginals_max_dims: usize,
    /// Per-attribute p override (`None` → the §7.1 convention).
    pub ps: Option<Vec<usize>>,
    /// Worker threads for the restart grid: `0` fans out one lane per
    /// available core, `1` is the serial reference path. Any value produces
    /// bitwise identical selections — see [`crate::restart`] for the
    /// contract.
    pub threads: usize,
}

impl Default for HdmmOptions {
    fn default() -> Self {
        HdmmOptions {
            restarts: 4,
            seed: 0,
            union_groups: 2,
            marginals_max_dims: 14,
            ps: None,
            threads: 0,
        }
    }
}

/// The selected strategy and its error.
#[derive(Debug, Clone)]
pub struct Selected {
    /// Winning strategy (sensitivity-normalized).
    pub strategy: Strategy,
    /// Squared error coefficient: `Err = (2/ε²)·squared_error`.
    pub squared_error: f64,
    /// Which operator produced it (`identity`, `opt0`, `kron`, `plus`,
    /// `marginals`).
    pub operator: &'static str,
}

/// The §7.1 parameter convention: `p = 1` for attributes whose predicate sets
/// are contained in `Total ∪ Identity`, else `p = nᵢ/16`.
pub fn default_ps(workload: &Workload) -> Vec<usize> {
    let d = workload.domain().dims();
    (0..d)
        .map(|i| {
            let simple = workload
                .terms()
                .iter()
                .all(|t| t.factors[i].is_total_or_identity());
            if simple {
                1
            } else {
                (workload.domain().attr_size(i) / 16).max(1)
            }
        })
        .collect()
}

/// Algorithm 2 (`OPT_HDMM`) on workload Grams — `W` itself is never
/// materialized: the restart grid over the full operator set
/// ([`OptimizerChoice::Exhaustive`]).
pub fn opt_hdmm_grams(grams: &WorkloadGrams, ps: &[usize], opts: &HdmmOptions) -> Selected {
    optimize_with_choice(grams, ps, opts, OptimizerChoice::Exhaustive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::optimize_with_choice_observed;
    use hdmm_obs::Observer;
    use hdmm_workload::{blocks, builders, Domain};
    use std::sync::Mutex;
    use std::time::Duration;

    fn quick() -> HdmmOptions {
        HdmmOptions {
            restarts: 1,
            ..Default::default()
        }
    }

    /// Algorithm 2 on a logical workload, under the §7.1 `p` convention.
    fn opt_hdmm(workload: &Workload, opts: &HdmmOptions) -> Selected {
        let grams = WorkloadGrams::from_workload(workload);
        opt_hdmm_grams(&grams, &default_ps(workload), opts)
    }

    #[test]
    fn default_ps_convention() {
        let d = Domain::new(&[32, 4]);
        let w = hdmm_workload::Workload::new(
            d,
            vec![hdmm_workload::ProductTerm::product(vec![
                blocks::all_range(32),
                blocks::identity(4),
            ])],
        );
        assert_eq!(default_ps(&w), vec![2, 1]);
    }

    #[test]
    fn beats_identity_on_prefix_2d() {
        let w = builders::prefix_2d(16, 16);
        let sel = opt_hdmm(&w, &quick());
        let identity_err = WorkloadGrams::from_workload(&w).frobenius_norm_sq();
        assert!(sel.squared_error < identity_err);
        assert_ne!(sel.operator, "identity");
    }

    #[test]
    fn marginals_workload_selects_marginals_or_better() {
        // Low-order marginals on a multi-attribute domain: the Table 5 regime
        // where Identity pays a huge aggregation cost (ratio 43.89 at K=2).
        let d = Domain::new(&[10, 10, 10, 10]);
        let w = builders::upto_kway_marginals(&d, 2);
        let sel = opt_hdmm(&w, &quick());
        let identity_err = WorkloadGrams::from_workload(&w).frobenius_norm_sq();
        assert!(
            sel.squared_error * 2.5 < identity_err,
            "{} vs identity {identity_err} (operator {})",
            sel.squared_error,
            sel.operator
        );
    }

    #[test]
    fn union_workload_can_choose_plus() {
        let w = builders::range_total_union_2d(16, 16);
        let sel = opt_hdmm(&w, &quick());
        // OPT_+ dominates single products on this workload (§6.2); whichever
        // wins, the error must beat Identity substantially.
        let identity_err = WorkloadGrams::from_workload(&w).frobenius_norm_sq();
        assert!(sel.squared_error < 0.8 * identity_err);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let w = builders::prefix_2d(8, 8);
        let one = opt_hdmm(
            &w,
            &HdmmOptions {
                restarts: 1,
                seed: 3,
                ..Default::default()
            },
        );
        let three = opt_hdmm(
            &w,
            &HdmmOptions {
                restarts: 3,
                seed: 3,
                ..Default::default()
            },
        );
        // Per-restart seed streams make this exact: restart 0's candidates
        // are identical whether 1 or 3 restarts run, so the 3-restart argmin
        // can only improve on the 1-restart one.
        assert!(three.squared_error <= one.squared_error);
    }

    /// Per-cell candidate losses, keyed by `(restart, operator)`.
    #[derive(Default)]
    struct CellLosses(Mutex<Vec<(usize, &'static str, u64)>>);

    impl Observer for CellLosses {
        fn restart_complete(&self, operator: &'static str, restart: usize, loss: f64, _: Duration) {
            self.0
                .lock()
                .unwrap()
                .push((restart, operator, loss.to_bits()));
        }
    }

    #[test]
    fn restart_streams_are_independent_of_restart_count() {
        // The restart-0 cells must produce the same candidates no matter how
        // many restarts follow; with a shared RNG stream this fails because
        // later restarts would shift earlier draws.
        let restart0_cells = |w: &Workload, choice, restarts| {
            let grams = WorkloadGrams::from_workload(w);
            let opts = HdmmOptions {
                restarts,
                seed: 11,
                ..Default::default()
            };
            let log = CellLosses::default();
            optimize_with_choice_observed(&grams, &default_ps(w), &opts, choice, &log);
            let mut cells = log.0.into_inner().unwrap();
            cells.retain(|&(restart, ..)| restart == 0);
            cells.sort_unstable();
            cells
        };
        let union = builders::range_total_union_2d(8, 8);
        for (choice, cells_per_restart) in
            [(OptimizerChoice::Plus, 1), (OptimizerChoice::Exhaustive, 3)]
        {
            let one = restart0_cells(&union, choice, 1);
            assert_eq!(one.len(), cells_per_restart, "{choice:?}");
            assert_eq!(one, restart0_cells(&union, choice, 3), "{choice:?}");
        }
    }
}
