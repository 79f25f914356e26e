//! Remote fan-out microbenchmarks: a loopback worker-count sweep, with the
//! shard tasks crossing a real TCP hop.
//!
//! `remote_measure/W` times the mechanism pipeline over the RPC kernels
//! (`MechanismRequest::run` over `RpcKernels`, the same path the engine's
//! serving loop takes for sharded datasets with a transport configured, with
//! the per-plan `PreparedReconstruct` and `OperandKeys` built once outside
//! the loop as the engine's cache does) against a pool of W in-process
//! `spawn_worker` loopback workers on a 2¹⁸-cell domain. Slabs are
//! preloaded and factor lists become worker-resident on the first
//! iteration, so iterations measure task fan-out — wire encode, TCP round
//! trip, worker-side contraction, ordered merge — not operand movement.
//! Outputs are byte-identical across W (and to the plain kernels), so any
//! wall-clock change with W is pure distribution effect; on a loopback
//! single machine the workers still share the same cores, so this sweep
//! bounds protocol overhead rather than demonstrating linear speedup.
//!
//! `remote_serve/W` drives the full engine — budget accounting, plan cache,
//! session store — over the same pool, with the measurement plan planted in
//! the persistent [`PlanStore`] so every configuration restarts warm and the
//! timed loop never runs SELECT. Per-worker task counts and mean task
//! latency are printed from [`Engine::metrics`] pool health after each
//! configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdmm_core::{builders, Domain, Plan, QueryEngine, ShardedDataVector, WorkloadGrams};
use hdmm_engine::{Engine, EngineOptions, PlanStore};
use hdmm_linalg::StructuredMatrix;
use hdmm_mechanism::{MechanismRequest, PreparedReconstruct, Strategy};
use hdmm_net::{
    spawn_worker, OperandKeys, RemoteOptions, RetryPolicy, RpcKernels, WorkerHandle, WorkerOptions,
};
use hdmm_optimizer::{HdmmOptions, Selected};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const WORKER_SWEEP: [usize; 3] = [1, 2, 3];
const SHARDS: usize = 4;

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64).collect()
}

fn spawn_pool(workers: usize) -> (Vec<WorkerHandle>, RemoteOptions) {
    let handles: Vec<WorkerHandle> = (0..workers)
        .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).expect("loopback bind"))
        .collect();
    let opts = RemoteOptions {
        workers: handles.iter().map(|h| h.addr().to_string()).collect(),
        policy: RetryPolicy {
            task_timeout: Duration::from_secs(30),
            ..Default::default()
        },
    };
    (handles, opts)
}

/// The `OPT_⊗` shape for prefix-range workloads on a 2-D domain: a
/// range-measuring factor on the leading axis, Total on the trailing one.
fn kron_strategy(n1: usize, n2: usize) -> Strategy {
    Strategy::Kron(vec![
        StructuredMatrix::prefix(n1).scaled(1.0 / n1 as f64),
        StructuredMatrix::total(n2),
    ])
}

fn bench_remote_measure(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote_measure");
    group.sample_size(10);
    let (n1, n2) = (1024usize, 256usize); // 2^18 cells
    let workload = builders::prefix_2d(n1, n2);
    let strategy = kron_strategy(n1, n2);
    let prepared = PreparedReconstruct::new(&strategy);
    let keys = OperandKeys::new(&prepared);
    let sharded = ShardedDataVector::partition(workload.domain(), data(n1 * n2), SHARDS);
    for &workers in &WORKER_SWEEP {
        let (_handles, opts) = spawn_pool(workers);
        let pool = opts.connect();
        for shard in 0..sharded.shard_count() {
            let (rows, values) = sharded.slab(shard);
            let rows = (rows.start as u64, rows.end as u64);
            pool.load_slab("bench", shard as u64, rows, values)
                .expect("loopback preload");
        }
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| {
                let request = MechanismRequest {
                    workload: &workload,
                    prepared: &prepared,
                    eps: 1.0,
                };
                let kernels = RpcKernels {
                    pool: &pool,
                    dataset: "bench",
                    keys: &keys,
                    data: &sharded,
                    observer: &(),
                };
                criterion::black_box(request.run(&mut rng, &kernels, &())).expect("healthy pool")
            });
        });
        let health = pool.health();
        for w in &health.workers {
            eprintln!("remote_measure/{workers}: {}", worker_line(w));
        }
        assert_eq!(health.retries, 0, "loopback pool must not need retries");
    }
    group.finish();
}

fn bench_remote_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote_serve");
    group.sample_size(10);
    let (n1, n2) = (1024usize, 256usize); // 2^18 cells
    let domain = Domain::new(&[n1, n2]);
    let workload = builders::prefix_2d(n1, n2);
    let x = data(n1 * n2);

    // Plant the measurement plan so every worker-count configuration starts
    // warm: the timed loop is MEASURE → RECONSTRUCT → ANSWER, never SELECT.
    let cache_dir = std::env::temp_dir().join(format!("hdmm-micro-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let plan = Plan::from_parts(
        Selected {
            strategy: kron_strategy(n1, n2),
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

    for &workers in &WORKER_SWEEP {
        let (_handles, opts) = spawn_pool(workers);
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            session_capacity: 2,
            cache_dir: Some(cache_dir.clone()),
            remote: Some(opts),
            ..Default::default()
        });
        engine
            .register_dataset_sharded("taxi", domain.clone(), x.clone(), SHARDS, 1e18)
            .expect("valid registration");
        // One warm-up pulls the plan off disk into the in-memory cache.
        engine.serve("taxi", &workload, 1.0).expect("warm-up serve");
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| engine.serve("taxi", &workload, 1.0).expect("within budget"));
        });
        let m = engine.metrics();
        let pool = m.remote.expect("remote engine exposes pool health");
        assert_eq!(
            m.telemetry.remote_fallbacks, 0,
            "healthy loopback pool must never fall back"
        );
        for w in &pool.workers {
            eprintln!("remote_serve/{workers}: {}", worker_line(w));
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    group.finish();
}

/// One worker's task count and mean round trip.
fn worker_line(w: &hdmm_net::WorkerHealth) -> String {
    format!(
        "{} tasks={} mean={:.0}µs",
        w.addr, w.tasks, w.mean_task_micros
    )
}

criterion_group!(benches, bench_remote_measure, bench_remote_serve);
criterion_main!(benches);
