//! Strategy-selection optimizers for HDMM (§5–6 of the paper).
//!
//! * [`lbfgs`] — projected L-BFGS with box constraints (the scipy `L-BFGS-B`
//!   stand-in every routine below is built on);
//! * [`opt0`](mod@opt0) — `OPT_0`, gradient optimization over p-Identity strategies
//!   with the O(pn²) Woodbury objective/gradient (§5.2, Theorem 4/8);
//! * [`opt_kron`](mod@opt_kron) — `OPT_⊗` for (unions of) Kronecker product workloads via
//!   per-attribute decomposition and one block-coordinate sweep (§6.1–6.2);
//! * [`opt_plus`](mod@opt_plus) — `OPT_+`, union-of-products strategies with optimal
//!   budget shares (Definition 11);
//! * [`opt_marginals`](mod@opt_marginals) — `OPT_M`, weighted-marginals strategies with the
//!   O(4^d) subset-algebra objective (§6.3, Appendix A.4);
//! * [`planner`] — SELECT itself: Algorithm 2's restart grid
//!   ([`optimize_with_choice_observed`]), written once over an operator set,
//!   plus the §7.1 decision rules ([`select_optimizer`]) that pick one
//!   operator from workload shape instead of running them all;
//! * [`opt_hdmm`](mod@opt_hdmm) — the options and result types, and
//!   [`opt_hdmm_grams`]: Algorithm 2 as the paper names it, i.e. the grid
//!   over [`OptimizerChoice::Exhaustive`];
//! * [`restart`] — the per-cell seed derivation.
//!
//! # One SELECT
//!
//! An [`OptimizerChoice`] resolves to an ordered operator set: `Exhaustive`
//! → `{OPT_⊗, OPT_+(g(W)) when the union partition has ≥ 2 groups, OPT_M
//! when 2 ≤ d ≤ 14}`; a single choice → that operator, or
//! `OPT_⊗` where it does not apply. The grid enumerates `(restart, operator)`
//! cells restart-major, seeds each with [`restart_seed`]`(master, restart,
//! tag)`, runs them on `hdmm_mechanism::ScopedExecutor`
//! ([`HdmmOptions::threads`] lanes) and folds the candidates in grid order
//! under strict `<` from the Identity fallback — bitwise identical at any
//! lane count, with `threads = 1` the serial reference.

pub mod lbfgs;
pub mod opt0;
pub mod opt_hdmm;
pub mod opt_kron;
pub mod opt_marginals;
pub mod opt_plus;
pub mod planner;
pub mod restart;

pub use opt0::{opt0, opt0_with, Opt0Options, Opt0Result, PIdentity};
pub use opt_hdmm::{default_ps, opt_hdmm_grams, HdmmOptions, Selected};
pub use opt_kron::{opt_kron, OptKronResult};
pub use opt_marginals::{opt_marginals, MarginalsObjective, OptMarginalsResult};
pub use opt_plus::{group_terms, opt_plus, OptPlusResult};
pub use planner::{
    optimize_with_choice, optimize_with_choice_observed, select_optimizer, OptimizerChoice,
    PlanDecision,
};
pub use restart::restart_seed;

/// The optimizer's name for [`hdmm_obs::Observer`]: SELECT reports
/// [`Observer::grid_planned`](hdmm_obs::Observer::grid_planned) and
/// [`Observer::restart_complete`](hdmm_obs::Observer::restart_complete).
pub use hdmm_obs::Observer as RestartObserver;
