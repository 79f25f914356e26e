//! Figure 5 (Appendix C.4): solution quality vs time for OPT_0 (operating on
//! the explicit 2D workload, N = 64·64) against OPT_⊗ (decomposed
//! per-attribute optimization) on all 2D range queries.
//!
//! OPT_0 searches the larger space and can edge out OPT_⊗, but takes far
//! longer — OPT_⊗ converges almost immediately.

use hdmm_bench::{print_table, timed};
use hdmm_linalg::kron;
use hdmm_optimizer::{opt0_with, opt_kron, Opt0Options};
use hdmm_workload::{blocks, Domain, GramTerm, WorkloadGrams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 64;
    let g1 = blocks::gram_all_range(n);
    // Explicit 2D Gram for OPT_0: (R⊗R)ᵀ(R⊗R) = RᵀR ⊗ RᵀR (N = 4096).
    let big = kron(&g1, &g1);
    let identity = big.trace();

    let mut rows = Vec::new();

    // OPT_⊗ trajectory: essentially one cheap shot.
    let grams = WorkloadGrams::from_terms(
        Domain::new(&[n, n]),
        vec![GramTerm {
            weight: 1.0,
            factors: vec![g1.clone(), g1.clone()],
        }],
    );
    let (kron_res, kron_secs) = timed(|| {
        let mut rng = StdRng::seed_from_u64(0);
        opt_kron(&grams, &[4, 4], &mut rng)
    });
    rows.push(vec![
        "OPT_kron".into(),
        format!("{kron_secs:.1}"),
        format!("{:.0}", kron_res.residual),
    ]);

    // OPT_0 trajectory: deterministic L-BFGS from a fixed seed, probed at
    // increasing iteration budgets (prefix runs replay the same path).
    for iters in [3usize, 6, 12, 25, 50] {
        let (res, secs) = timed(|| {
            let mut rng = StdRng::seed_from_u64(0);
            opt0_with(
                &big,
                &Opt0Options {
                    p: 64,
                    max_iter: iters,
                },
                &mut rng,
            )
        });
        rows.push(vec![
            format!("OPT_0[{iters} it]"),
            format!("{secs:.1}"),
            format!("{:.0}", res.residual),
        ]);
    }
    rows.push(vec![
        "Identity".into(),
        "0.0".into(),
        format!("{identity:.0}"),
    ]);

    print_table(
        "Figure 5 — quality vs time, OPT_0 (explicit, N=4096) vs OPT_⊗ \
         (all 2D range queries on 64×64; paper: Fig 5)",
        &["Method", "Seconds", "SquaredError"],
        &rows,
    );
    println!("\n(paper shape: OPT_⊗ converges in ~1s; OPT_0 needs ~100s to match/edge it)");
}
