//! Sharded-domain microbenchmarks: MEASURE throughput vs. shard count on
//! 2-D domains of ≥ 2²⁰ cells.
//!
//! `sharded_measure/K` times MEASURE over the slab fan-out (the same
//! `measure_on` over `LocalKernels` + `ScopedExecutor` the engine's serving
//! path uses) on a marginal-ranges union strategy over a 1024×1024 domain,
//! sweeping the shard count. The work is constant across K and the outputs
//! are byte-identical for every K (the pipeline never reassociates a sum),
//! so wall clock falling with K is pure fan-out win: the trailing-mode
//! contractions, which carry almost all of the flops, run one slab per lane.
//!
//! `sharded_serve/K` drives a sharded dataset end to end through a
//! multi-worker [`EngineServer`] on a 2048×512 domain (2²⁰ cells). The
//! measurement plan — a range-measuring factor on the leading axis, Total on
//! the trailing one, the `OPT_⊗` shape for marginal-range workloads — is
//! planted through the persistent [`PlanStore`] so every shard-count
//! configuration restarts warm and the iterations time serving, not SELECT.
//! The scaling signal here is the MEASURE phase mean printed from the
//! engine's per-phase telemetry; total serve latency is dominated by this
//! plan's dense inverse-Gram RECONSTRUCT and need not improve on
//! core-starved runners (the server workers and the per-request fan-out
//! share the same cores).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdmm_core::{builders, Domain, Plan, WorkloadGrams};
use hdmm_engine::{Engine, EngineOptions, EngineServer, PlanStore, ServerOptions};
use hdmm_linalg::StructuredMatrix;
use hdmm_mechanism::{measure_on, LocalKernels, ScopedExecutor, ShardedView, Strategy, UnionGroup};
use hdmm_optimizer::{HdmmOptions, Selected};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64).collect()
}

/// The marginal-ranges union strategy shape `OPT_+` produces for
/// `(R ⊗ T) ∪ (T ⊗ R)`: a range-measuring factor on one axis, Total on the
/// other, per group. Small measurement count (noise generation, which must
/// stay sequential for determinism, is negligible) and heavy trailing
/// contractions (the parallel bulk).
fn union_strategy(n1: usize, n2: usize) -> Strategy {
    Strategy::Union(vec![
        UnionGroup::new(
            0.5,
            vec![
                StructuredMatrix::prefix(n1).scaled(1.0 / n1 as f64),
                StructuredMatrix::total(n2),
            ],
            vec![0],
        ),
        UnionGroup::new(
            0.5,
            vec![
                StructuredMatrix::total(n1),
                StructuredMatrix::prefix(n2).scaled(1.0 / n2 as f64),
            ],
            vec![1],
        ),
    ])
}

fn bench_sharded_measure(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_measure");
    group.sample_size(10);
    let (n1, n2) = (1024usize, 1024usize); // 2^20 cells
    let x = data(n1 * n2);
    let strategy = union_strategy(n1, n2);
    for &shards in &SHARD_SWEEP {
        let view = ShardedView::partitioned(n1, &x, shards);
        let exec = ScopedExecutor::new(shards);
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| {
                let kernels = LocalKernels {
                    view: &view,
                    exec: &exec,
                    observer: &(),
                };
                criterion::black_box(measure_on(&strategy, None, 1.0, &mut rng, &kernels))
            });
        });
    }
    group.finish();
}

fn bench_sharded_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_serve");
    group.sample_size(10);
    let (n1, n2) = (2048usize, 512usize); // 2^20 cells, 2048 leading rows
    let domain = Domain::new(&[n1, n2]);
    let workload = builders::prefix_2d(n1, n2);
    let x = data(n1 * n2);

    // Plant the measurement plan in the persistent strategy cache shared by
    // every shard-count configuration: each engine "restarts" warm, so the
    // timed iterations are MEASURE → RECONSTRUCT → ANSWER, never SELECT.
    let cache_dir = std::env::temp_dir().join(format!("hdmm-micro-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let planted = Strategy::Kron(vec![
        StructuredMatrix::prefix(n1).scaled(1.0 / n1 as f64),
        StructuredMatrix::total(n2),
    ]);
    let plan = Plan::from_parts(
        Selected {
            strategy: planted,
            squared_error: 1.0,
            operator: "kron",
        },
        WorkloadGrams::from_workload(&workload),
        workload.query_count(),
    );
    assert!(
        PlanStore::new(&cache_dir).store(&workload.fingerprint(), &plan, workload.domain()),
        "planting the plan must succeed"
    );

    for &shards in &SHARD_SWEEP {
        let engine = Arc::new(Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            shard_workers: shards,
            // Sessions hold 2^20-cell estimates; keep only a few alive.
            session_capacity: 2,
            cache_dir: Some(cache_dir.clone()),
            ..Default::default()
        }));
        engine
            .register_dataset_sharded("taxi", domain.clone(), x.clone(), shards, 1e18)
            .expect("valid registration");
        let server = EngineServer::start(
            Arc::clone(&engine),
            ServerOptions {
                workers: 4,
                queue_capacity: 32,
            },
        );
        // One warm-up pulls the plan off disk into the in-memory cache.
        server
            .submit("taxi", &workload, 1.0)
            .and_then(|t| t.join())
            .expect("warm-up serve");
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| {
                server
                    .submit("taxi", &workload, 1.0)
                    .and_then(|t| t.join())
                    .expect("within budget")
            });
        });
        let t = engine.metrics().telemetry;
        eprintln!(
            "sharded_serve/{shards}: plan_disk_hits={} measure mean {:.2}ms, reconstruct mean \
             {:.1}ms over {} requests",
            t.plan_disk_hits,
            t.measure.mean_ns / 1e6,
            t.reconstruct.mean_ns / 1e6,
            t.measure.count,
        );
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    group.finish();
}

criterion_group!(benches, bench_sharded_measure, bench_sharded_serve);
criterion_main!(benches);
