//! Property tests for sharded data domains: a dataset registered with
//! `shards = k` must answer **byte-identically** to the same dataset
//! registered dense, for every k ≥ 1 — across random domains, shard counts
//! (1, 2, 7, non-divisible), and structured/dense strategy mixes.
//!
//! Determinism is the sharding contract (ISSUE 5): the fan-out pipeline
//! never reassociates a floating-point sum and draws noise from the same
//! per-dataset RNG stream in the same order, so partitioning is invisible in
//! the output. These tests compare raw `f64::to_bits`, not approximate
//! equality.

use hdmm::core::{builders, Domain, QueryEngine, Workload};
use hdmm::engine::{Engine, EngineOptions};
use hdmm::mechanism::{
    measure_on, reconstruct_on, reconstruct_with, Kernels, LocalKernels, PreparedReconstruct,
    ScopedExecutor, ShardedView, Strategy,
};
use hdmm::optimizer::HdmmOptions;
use hdmm_mechanism::NoopObserver;
use proptest::prelude::*;
// The mechanism's `Strategy` shadows the prelude's trait of the same name;
// re-import the trait under an alias so `prop_map` stays in scope.
use proptest::strategy::Strategy as PropStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn quick_engine(seed: u64) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed,
        shard_workers: 4,
        ..Default::default()
    })
}

/// A workload over a random small domain, chosen to route through different
/// optimizer families (dense 1-D, structured Kronecker, marginals, union).
fn workload_for(kind: usize, sizes: &[usize]) -> Workload {
    let domain = Domain::new(sizes);
    match kind {
        // 1-D all-range: OPT_0 territory, explicit/dense strategies.
        0 => builders::all_range_1d(sizes[0] * sizes.iter().skip(1).product::<usize>().max(1)),
        // Prefix product: OPT_⊗ with structured (p-Identity / prefix) factors.
        1 => Workload::product(
            domain,
            sizes
                .iter()
                .map(|&n| hdmm::workload::blocks::prefix_block(n))
                .collect(),
        ),
        // Marginals: OPT_M, Identity/Total structured factors.
        2 => builders::upto_kway_marginals(&domain, 2.min(sizes.len())),
        // Range-marginal union on 2-D: OPT_+ union strategies.
        _ => {
            if sizes.len() == 2 {
                builders::range_total_union_2d(sizes[0], sizes[1])
            } else {
                builders::upto_kway_marginals(&domain, 1)
            }
        }
    }
}

/// Serves the same request sequence against a dense and a sharded
/// registration of the same data, same engine seed, and asserts the answer
/// streams are bitwise identical.
fn assert_sharded_matches_dense(
    sizes: &[usize],
    x: &[f64],
    w: &Workload,
    shards: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let serve = |shard_count: usize| {
        let engine = quick_engine(seed);
        engine
            .register_dataset_sharded("d", Domain::new(sizes), x.to_vec(), shard_count, 1e6)
            .expect("registration is valid");
        let a = engine.serve("d", w, 1.0).expect("within budget").answers;
        let b = engine.serve("d", w, 0.5).expect("within budget").answers;
        (a, b)
    };
    let dense = serve(1);
    let sharded = serve(shards);
    prop_assert!(
        bits_eq(&dense.0, &sharded.0),
        "first request diverges: shards={shards} sizes={sizes:?}"
    );
    prop_assert!(
        bits_eq(&dense.1, &sharded.1),
        "second request diverges: shards={shards} sizes={sizes:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-level: sharded registration answers byte-identically to dense
    /// across random domains, shard counts, and optimizer families.
    #[test]
    fn sharded_serving_is_byte_identical_to_dense(
        dims in 1usize..4,
        seed in 0u64..1000,
        kind in 0usize..4,
        shards in 1usize..9,
        raw in proptest::collection::vec(2usize..7, 3),
        cells in proptest::collection::vec(0u32..40, 216),
    ) {
        let sizes: Vec<usize> = raw[..dims].to_vec();
        let n: usize = sizes.iter().product();
        let x: Vec<f64> = cells[..n].iter().map(|&v| f64::from(v)).collect();
        // `kind 0` flattens to 1-D so the workload matches a 1-D domain.
        let (sizes, w) = if kind == 0 {
            (vec![n], workload_for(0, &sizes))
        } else {
            let w = workload_for(kind, &sizes);
            (sizes, w)
        };
        assert_sharded_matches_dense(&sizes, &x, &w, shards, seed)?;
    }

    /// Mechanism-level: measure/reconstruct over an explicit slab view match
    /// the plain pipeline bitwise, for serial and threaded executors, on
    /// structured and dense strategies alike — shard counts 1, 2, 7, and a
    /// non-divisible count included by construction (leading axes are drawn
    /// from 3..=8 while shard counts include 7).
    #[test]
    fn sharded_mechanism_matches_plain_bitwise(
        n1 in 3usize..9,
        n2 in 2usize..6,
        shards in (0usize..3).prop_map(|i| [1usize, 2, 7][i]),
        seed in 0u64..1000,
        threaded in proptest::bool::weighted(0.5),
    ) {
        let domain = Domain::new(&[n1, n2]);
        let w = builders::prefix_2d(n1, n2);
        let x: Vec<f64> = (0..n1 * n2).map(|i| ((i as u64 * 31 + seed) % 23) as f64).collect();
        let strategies = vec![
            Strategy::identity(&domain),
            Strategy::kron(vec![
                hdmm::linalg::StructuredMatrix::prefix(n1).scaled(1.0 / n1 as f64),
                hdmm::linalg::StructuredMatrix::prefix(n2).scaled(1.0 / n2 as f64),
            ]),
            Strategy::kron(vec![
                hdmm::linalg::Matrix::from_fn(n1 + 1, n1, |r, c| {
                    if r == c { 0.8 } else if r == n1 { 0.2 } else { 0.0 }
                }),
                hdmm::linalg::Matrix::from_fn(n2, n2, |r, c| {
                    if c <= r { 1.0 / n2 as f64 } else { 0.0 }
                }),
            ]),
        ];
        for strategy in strategies {
            let mut rng = StdRng::seed_from_u64(seed);
            let plain = hdmm::mechanism::measure(&strategy, &x, 1.0, &mut rng);
            let prepared = PreparedReconstruct::new(&strategy);
            let plain_xhat = reconstruct_with(&prepared, &strategy, &plain);

            let view = ShardedView::partitioned(n1, &x, shards);
            let exec = ScopedExecutor::new(if threaded { 4 } else { 1 });
            let kernels = LocalKernels { view: &view, exec: &exec, observer: &NoopObserver };
            let mut rng = StdRng::seed_from_u64(seed);
            let meas = measure_on(&strategy, None, 1.0, &mut rng, &kernels).unwrap();
            for (a, b) in plain.blocks.iter().zip(&meas.blocks) {
                prop_assert!(bits_eq(&a.noisy, &b.noisy), "measurement diverges");
                prop_assert!(a.noise_scale.to_bits() == b.noise_scale.to_bits());
            }
            let xhat = reconstruct_on(&prepared, &strategy, &meas, &kernels).unwrap();
            prop_assert!(bits_eq(&plain_xhat, &xhat), "reconstruction diverges");
            let answers = kernels.answer(&w, &xhat);
            prop_assert!(bits_eq(&w.answer(&plain_xhat), &answers), "answers diverge");
        }
    }
}

/// Non-random spot checks of the acceptance grid: shard counts 1, 2, 7 and a
/// non-divisible leading axis, against a marginals-routed workload.
#[test]
fn acceptance_grid_non_divisible_axes() {
    let domain = Domain::new(&[7, 3]);
    let w = builders::upto_kway_marginals(&domain, 2);
    let x: Vec<f64> = (0..21).map(|i| ((i * 5) % 11) as f64).collect();
    let serve = |shards: usize| {
        let engine = quick_engine(9);
        engine
            .register_dataset_sharded("d", domain.clone(), x.clone(), shards, 10.0)
            .unwrap();
        engine.serve("d", &w, 1.0).unwrap().answers
    };
    let dense = serve(1);
    for shards in [2usize, 3, 5, 7] {
        assert!(
            bits_eq(&dense, &serve(shards)),
            "shards={shards} must match dense bitwise"
        );
    }
}

/// The pipeline hands MEASURE the marginals algebra cached
/// in `PreparedReconstruct` instead of rebuilding it per request (ISSUE 12):
/// the algebra is a pure function of the domain, so measurements, estimate
/// and answers must keep the plain pipeline's bits at every shard count.
#[test]
fn cached_marginals_algebra_measures_bitwise_like_a_fresh_one() {
    use hdmm::mechanism::{measure, MarginalsStrategy, MechanismRequest};
    let domain = Domain::new(&[6, 3, 2]);
    let w = builders::upto_kway_marginals(&domain, 2);
    // Zero weights exercise the skipped-marginal bookkeeping too.
    let theta = vec![0.0, 0.2, 0.0, 0.1, 0.3, 0.0, 0.1, 0.3];
    let strategy = Strategy::Marginals(MarginalsStrategy::new(domain.clone(), theta));
    let prepared = PreparedReconstruct::new(&strategy);
    assert!(prepared.marginals_algebra().is_some());
    let x: Vec<f64> = (0..domain.size()).map(|i| ((i * 5) % 11) as f64).collect();
    // The reference: plain kernels, MEASURE building its own algebra.
    let meas = measure(&strategy, &x, 1.0, &mut StdRng::seed_from_u64(5));
    let plain_x_hat = reconstruct_with(&prepared, &strategy, &meas);
    let plain_answers = w.answer(&plain_x_hat);
    for shards in [1usize, 2, 4, 6] {
        let view = ShardedView::partitioned(6, &x, shards);
        for exec in [&ScopedExecutor::new(1), &ScopedExecutor::new(4)] {
            let got = MechanismRequest {
                workload: &w,
                strategy: &strategy,
                prepared: &prepared,
                eps: 1.0,
                remaining: 1.0,
            }
            .run(
                &mut StdRng::seed_from_u64(5),
                &LocalKernels {
                    view: &view,
                    exec,
                    observer: &NoopObserver,
                },
                &NoopObserver,
            )
            .unwrap();
            assert!(
                bits_eq(&plain_x_hat, &got.x_hat) && bits_eq(&plain_answers, &got.answers),
                "shards={shards}: cached-algebra pipeline diverges from plain"
            );
        }
    }
}
