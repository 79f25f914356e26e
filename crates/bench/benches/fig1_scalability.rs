//! Figure 1(a)–(c): strategy-selection runtime vs total domain size for the
//! general-purpose algorithms.
//!
//! * (a) Prefix 1D — LRM stand-in / GreedyH / HDMM (all need the explicit
//!   workload Gram; the LRM stand-in is O(N³) per iteration and hits the wall
//!   first, exactly as in the paper).
//! * (b) Prefix 3D — LRM stand-in vs HDMM (OPT_⊗ splits the problem into
//!   three small ones and scales to N = 10⁹).
//! * (c) 3-way marginals, 8D — DataCube vs HDMM (OPT_M), both nearly
//!   independent of the attribute size.
//!
//! `HDMM_LARGE=1` extends every sweep.

use hdmm_baselines::datacube::{datacube, upto_k_masks};
use hdmm_baselines::hierarchy::prefix_energy;
use hdmm_baselines::{general_mechanism, greedy_h_energy};
use hdmm_bench::{large_runs, print_table, timed};
use hdmm_optimizer::{opt0_with, opt_kron, opt_marginals, Opt0Options};
use hdmm_workload::{blocks, builders, Domain, GramTerm, WorkloadGrams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    fig1a();
    fig1b();
    fig1c();
}

fn fig1a() {
    let mut sizes = vec![64usize, 128, 256, 512, 1024];
    if large_runs() {
        sizes.push(2048);
    }
    let lrm_cap = if large_runs() { 512 } else { 256 };
    let mut rows = Vec::new();
    for &n in &sizes {
        let wtw = blocks::gram_prefix(n);
        let lrm = if n <= lrm_cap {
            let (_, secs) = timed(|| {
                let mut rng = StdRng::seed_from_u64(0);
                general_mechanism(&wtw, 25, &mut rng)
            });
            format!("{secs:.2}")
        } else {
            "*".into()
        };
        let (_, greedy_secs) = timed(|| greedy_h_energy(n, &prefix_energy));
        let (_, hdmm_secs) = timed(|| {
            let mut rng = StdRng::seed_from_u64(0);
            opt0_with(
                &wtw,
                &Opt0Options {
                    p: (n / 16).max(1),
                    max_iter: 100,
                },
                &mut rng,
            )
        });
        rows.push(vec![
            n.to_string(),
            lrm,
            format!("{greedy_secs:.2}"),
            format!("{hdmm_secs:.2}"),
        ]);
    }
    print_table(
        "Figure 1a — selection runtime (s) vs N, Prefix 1D (paper: Fig 1a; DataCube N/A)",
        &["N", "LRM*", "GreedyH", "HDMM"],
        &rows,
    );
}

fn fig1b() {
    // N = n³; HDMM decomposes, the LRM stand-in needs the explicit N-sized
    // Gram and dies almost immediately.
    let mut ns = vec![8usize, 16, 32, 64, 256, 1024];
    if large_runs() {
        ns.push(2048); // N ≈ 8.6·10⁹ — selection only, never the data vector
    }
    let mut rows = Vec::new();
    for &n in &ns {
        let total: u128 = (n as u128).pow(3);
        // LRM stand-in on the explicit kron gram.
        let lrm = if n <= 16 {
            let g1 = blocks::gram_prefix(n);
            let big = hdmm_linalg::kron(&hdmm_linalg::kron(&g1, &g1), &g1);
            let (_, secs) = timed(|| {
                let mut rng = StdRng::seed_from_u64(0);
                general_mechanism(&big, 10, &mut rng)
            });
            format!("{secs:.2}")
        } else {
            "*".into()
        };
        let (_, hdmm_secs) = timed(|| {
            let g1 = blocks::gram_prefix(n);
            let grams = WorkloadGrams::from_terms(
                Domain::new(&[n, n, n]),
                vec![GramTerm {
                    weight: 1.0,
                    factors: vec![g1.clone(), g1.clone(), g1],
                }],
            );
            let p = (n / 16).max(1);
            let mut rng = StdRng::seed_from_u64(0);
            opt_kron(&grams, &[p, p, p], &mut rng)
        });
        rows.push(vec![format!("{total:.1e}"), lrm, format!("{hdmm_secs:.2}")]);
    }
    print_table(
        "Figure 1b — selection runtime (s) vs N = n³, Prefix 3D (paper: Fig 1b; \
         GreedyH/DataCube N/A)",
        &["N", "LRM*", "HDMM"],
        &rows,
    );
}

fn fig1c() {
    let d = 8;
    let mut ns = vec![2usize, 3, 4, 6, 8, 10];
    if large_runs() {
        ns.push(13); // N ≈ 8·10⁸
    }
    let masks = upto_k_masks(d, 3)
        .into_iter()
        .filter(|m| m.count_ones() == 3)
        .collect::<Vec<_>>();
    let mut rows = Vec::new();
    for &n in &ns {
        let domain = Domain::new(&vec![n; d]);
        let total: u128 = (n as u128).pow(d as u32);
        let (_, dc_secs) = timed(|| datacube(&domain, &masks));
        let (_, hdmm_secs) = timed(|| {
            let grams = WorkloadGrams::from_workload(&builders::kway_marginals(&domain, 3));
            let mut rng = StdRng::seed_from_u64(0);
            opt_marginals(&grams, &mut rng)
        });
        rows.push(vec![
            format!("{total:.1e}"),
            format!("{dc_secs:.2}"),
            format!("{hdmm_secs:.2}"),
        ]);
    }
    print_table(
        "Figure 1c — selection runtime (s) vs N = n⁸, 3-way marginals 8D \
         (paper: Fig 1c; GreedyH N/A, LRM infeasible)",
        &["N", "DataCube", "HDMM"],
        &rows,
    );
}
