//! The restart-parallelism determinism contract: for every operator family,
//! the selected strategy and its loss are bitwise identical at any restart
//! thread count.
//!
//! Strategies are compared through the canonical plan codec
//! (`hdmm_core::codec::put_strategy`) — the same byte encoding the on-disk
//! plan store uses — so "identical" here means identical down to every `f64`
//! bit of every factor, not merely equal losses.

use hdmm_core::codec;
use hdmm_optimizer::{
    default_ps, opt_hdmm_grams, optimize_with_choice, optimize_with_choice_observed,
    select_optimizer, HdmmOptions, OptimizerChoice, RestartObserver, Selected,
};
use hdmm_workload::{builders, Domain, Workload, WorkloadGrams};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 7];

fn strategy_bytes(sel: &Selected) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_strategy(&mut out, &sel.strategy);
    out
}

fn opts(seed: u64, restarts: usize, threads: usize) -> HdmmOptions {
    HdmmOptions {
        restarts,
        seed,
        threads,
        ..Default::default()
    }
}

/// Runs the optimizer for every thread count in the sweep and asserts the
/// serial (`threads = 1`) selection is reproduced bit for bit.
fn assert_thread_invariant(
    label: &str,
    run: impl Fn(usize) -> Selected,
) -> Result<(), TestCaseError> {
    let reference = run(1);
    let ref_bytes = strategy_bytes(&reference);
    for threads in THREAD_SWEEP {
        let got = run(threads);
        prop_assert!(
            got.squared_error.to_bits() == reference.squared_error.to_bits(),
            "{}: loss diverged at threads={}",
            label,
            threads
        );
        prop_assert!(
            got.operator == reference.operator,
            "{}: operator diverged at threads={}",
            label,
            threads
        );
        prop_assert!(
            strategy_bytes(&got) == ref_bytes,
            "{}: strategy bytes diverged at threads={}",
            label,
            threads
        );
    }
    Ok(())
}

/// One workload per operator family, small enough for a proptest inner loop.
fn families() -> Vec<(&'static str, Workload, OptimizerChoice)> {
    vec![
        ("opt0", builders::all_range_1d(16), OptimizerChoice::Opt0),
        ("kron", builders::prefix_2d(8, 8), OptimizerChoice::Kron),
        (
            "plus",
            builders::range_total_union_2d(8, 8),
            OptimizerChoice::Plus,
        ),
        (
            "marginals",
            builders::upto_kway_marginals(&Domain::new(&[4, 4, 4]), 2),
            OptimizerChoice::Marginals,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `optimize_with_choice` is thread-count invariant for every operator
    /// family, across seeds and restart counts.
    #[test]
    fn targeted_selection_is_thread_invariant(seed in 0u64..1000, restarts in 1usize..4) {
        for (label, workload, choice) in families() {
            let grams = WorkloadGrams::from_workload(&workload);
            let ps = default_ps(&workload);
            assert_thread_invariant(label, |threads| {
                optimize_with_choice(&grams, &ps, &opts(seed, restarts, threads), choice)
            })?;
        }
    }

    /// Full Algorithm 2 (the exhaustive restart grid over every applicable
    /// operator) is thread-count invariant.
    #[test]
    fn exhaustive_selection_is_thread_invariant(seed in 0u64..1000, restarts in 1usize..4) {
        for (label, workload, _) in families() {
            let grams = WorkloadGrams::from_workload(&workload);
            let ps = default_ps(&workload);
            assert_thread_invariant(label, |threads| {
                opt_hdmm_grams(&grams, &ps, &opts(seed, restarts, threads))
            })?;
        }
    }
}

/// Restart-count prefix stability: the restart-`r` cells of a longer run are
/// exactly the cells of a shorter run, so adding restarts can only improve
/// the selection — exactly, not approximately.
#[test]
fn more_restarts_never_hurt_exactly() {
    for (label, workload, choice) in families() {
        let grams = WorkloadGrams::from_workload(&workload);
        let ps = default_ps(&workload);
        let short = optimize_with_choice(&grams, &ps, &opts(9, 1, 1), choice);
        let long = optimize_with_choice(&grams, &ps, &opts(9, 3, 1), choice);
        assert!(
            long.squared_error <= short.squared_error,
            "{label}: 3-restart loss {} worse than 1-restart {}",
            long.squared_error,
            short.squared_error
        );
    }
}

/// `threads = 0` (one lane per core) also reproduces the serial reference.
#[test]
fn auto_thread_count_matches_serial() {
    for (label, workload, choice) in families() {
        let grams = WorkloadGrams::from_workload(&workload);
        let ps = default_ps(&workload);
        let serial = optimize_with_choice(&grams, &ps, &opts(5, 2, 1), choice);
        let auto = optimize_with_choice(&grams, &ps, &opts(5, 2, 0), choice);
        assert_eq!(
            strategy_bytes(&serial),
            strategy_bytes(&auto),
            "{label}: auto thread count diverged from serial"
        );
        assert_eq!(serial.squared_error.to_bits(), auto.squared_error.to_bits());
    }
}

/// Records every finished cell of one SELECT: `(restart, operator, loss bits)`.
#[derive(Default)]
struct CellLog(Mutex<Vec<(usize, &'static str, u64)>>);

impl RestartObserver for CellLog {
    fn restart_complete(&self, operator: &'static str, restart: usize, loss: f64, _: Duration) {
        self.0
            .lock()
            .expect("cell log poisoned")
            .push((restart, operator, loss.to_bits()));
    }
}

impl CellLog {
    /// FNV-1a over the cells in a canonical order (they arrive in completion
    /// order): which cells ran and each one's candidate loss, bit for bit.
    fn digest(&self) -> u64 {
        let mut cells = self.0.lock().expect("cell log poisoned").clone();
        cells.sort_unstable();
        let mut bytes = Vec::new();
        for (restart, operator, loss_bits) in cells {
            codec::put_usize(&mut bytes, restart);
            codec::put_str(&mut bytes, operator);
            codec::put_u64(&mut bytes, loss_bits);
        }
        codec::checksum(&bytes)
    }
}

/// Workloads on which each family's own operator beats Identity, so the
/// golden rows pin optimizer output rather than the fallback.
fn golden_families() -> Vec<(&'static str, Workload)> {
    vec![
        ("opt0", builders::all_range_1d(32)),
        ("kron", builders::prefix_2d(8, 8)),
        ("plus", builders::range_total_union_2d(8, 8)),
        (
            "marginals",
            builders::upto_kway_marginals(&Domain::new(&[6, 6, 6, 6]), 2),
        ),
    ]
}

/// `(family, choice, FNV of the put_strategy bytes, loss bits, winning
/// operator, digest of the grid's cells)` at seed 17, 3 restarts — recorded
/// at commit 102b4c7, when one operator × restarts and the operator set ×
/// restarts were still two separate loops. `opt_hdmm_grams` takes no
/// observer, so its cell digest is that of no cells.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, &str, u64)] = &[
    ("opt0", "own", 0x3ef6b6adf760a4a7, 0x40b4df628a23bc44, "opt0", 0xc324fc03fd54d61a),
    ("opt0", "opt0", 0x3ef6b6adf760a4a7, 0x40b4df628a23bc44, "opt0", 0xc324fc03fd54d61a),
    ("opt0", "kron", 0x3618619199b9f2d8, 0x40b4df628a2efe19, "kron", 0x9768effc7a21e2df),
    ("opt0", "plus", 0x3618619199b9f2d8, 0x40b4df628a2efe19, "kron", 0x9768effc7a21e2df),
    ("opt0", "marginals", 0x3618619199b9f2d8, 0x40b4df628a2efe19, "kron", 0x9768effc7a21e2df),
    ("opt0", "exhaustive", 0x3618619199b9f2d8, 0x40b4df628a2efe19, "kron", 0x9768effc7a21e2df),
    ("opt0", "opt_hdmm_grams", 0x3618619199b9f2d8, 0x40b4df628a2efe19, "kron", 0xcbf29ce484222325),
    ("kron", "own", 0x0651321997bbfe42, 0x40917f3d818ce4e3, "kron", 0x3b6a3bd4e850c8f9),
    ("kron", "opt0", 0x0651321997bbfe42, 0x40917f3d818ce4e3, "kron", 0x3b6a3bd4e850c8f9),
    ("kron", "kron", 0x0651321997bbfe42, 0x40917f3d818ce4e3, "kron", 0x3b6a3bd4e850c8f9),
    ("kron", "plus", 0x0651321997bbfe42, 0x40917f3d818ce4e3, "kron", 0x3b6a3bd4e850c8f9),
    ("kron", "marginals", 0xfe714819cd75fefc, 0x4094400000000000, "identity", 0x59df6f3f1f96809b),
    ("kron", "exhaustive", 0x0651321997bbfe42, 0x40917f3d818ce4e3, "kron", 0x496007b2d6a00917),
    ("kron", "opt_hdmm_grams", 0x0651321997bbfe42, 0x40917f3d818ce4e3, "kron", 0xcbf29ce484222325),
    ("plus", "own", 0x75831f83a98a7905, 0x408dfec41e21e554, "plus", 0x42c6336f7bab3696),
    ("plus", "opt0", 0xbf0c9002553742bd, 0x409b1fdc387ebf44, "kron", 0xe474c206f6c16e48),
    ("plus", "kron", 0xbf0c9002553742bd, 0x409b1fdc387ebf44, "kron", 0xe474c206f6c16e48),
    ("plus", "plus", 0x75831f83a98a7905, 0x408dfec41e21e554, "plus", 0x42c6336f7bab3696),
    ("plus", "marginals", 0x8039f3b777beb1e3, 0x40859b0dea000000, "marginals", 0x2362948e26d15508),
    ("plus", "exhaustive", 0x8039f3b777beb1e3, 0x40859b0dea000000, "marginals", 0x58d8ca6ed705357e),
    ("plus", "opt_hdmm_grams", 0x8039f3b777beb1e3, 0x40859b0dea000000, "marginals", 0xcbf29ce484222325),
    ("marginals", "own", 0xb99a079b6525ab54, 0x40bf23ee00400000, "marginals", 0x291f639b61bab1f9),
    ("marginals", "opt0", 0x7fbe7c128479b66c, 0x40cbd80000000000, "identity", 0x82e0c51ce7db35b9),
    ("marginals", "kron", 0x7fbe7c128479b66c, 0x40cbd80000000000, "identity", 0x82e0c51ce7db35b9),
    ("marginals", "plus", 0x7fbe7c128479b66c, 0x40cbd80000000000, "identity", 0x4394165e03cc5b2c),
    ("marginals", "marginals", 0xb99a079b6525ab54, 0x40bf23ee00400000, "marginals", 0x291f639b61bab1f9),
    ("marginals", "exhaustive", 0xb99a079b6525ab54, 0x40bf23ee00400000, "marginals", 0x6f10d9ee17ae8dd8),
    ("marginals", "opt_hdmm_grams", 0xb99a079b6525ab54, 0x40bf23ee00400000, "marginals", 0xcbf29ce484222325),
];

/// The selections — and every cell's candidate loss — are the ones the two
/// pre-refactor loops produced, at any lane count.
#[test]
fn selections_match_the_table_recorded_before_the_grid_was_unified() {
    let mut rows = GOLDEN.iter();
    for (family, workload) in golden_families() {
        let grams = WorkloadGrams::from_workload(&workload);
        let ps = default_ps(&workload);
        let own = select_optimizer(&workload, &HdmmOptions::default()).choice;
        let choices = [
            ("own", Some(own)),
            ("opt0", Some(OptimizerChoice::Opt0)),
            ("kron", Some(OptimizerChoice::Kron)),
            ("plus", Some(OptimizerChoice::Plus)),
            ("marginals", Some(OptimizerChoice::Marginals)),
            ("exhaustive", Some(OptimizerChoice::Exhaustive)),
            ("opt_hdmm_grams", None),
        ];
        for (label, choice) in choices {
            let row = rows.next();
            for threads in [1, 2, 3] {
                let log = CellLog::default();
                let o = opts(17, 3, threads);
                let sel = match choice {
                    Some(c) => optimize_with_choice_observed(&grams, &ps, &o, c, &log),
                    None => opt_hdmm_grams(&grams, &ps, &o),
                };
                let got = (
                    family,
                    label,
                    codec::checksum(&strategy_bytes(&sel)),
                    sel.squared_error.to_bits(),
                    sel.operator,
                    log.digest(),
                );
                assert_eq!(Some(&got), row, "threads={threads}");
            }
        }
    }
}
