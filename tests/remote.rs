//! Loopback integration tests for the remote shard fan-out (ISSUE 6): an
//! engine serving a sharded 2^16-cell domain through in-process TCP workers
//! must answer **byte-identically** to a dense single-node registration, for
//! worker counts {1, 2, 3} and across strategy families — and a worker
//! killed mid-MEASURE must never fail a request: tasks retry and reassign to
//! survivors, with the failure visible in `Engine::metrics()`.
//!
//! Each slab task carries its trailing factors; a slab reaches a worker on
//! the first task that needs it, and comes back after a worker restart
//! through the typed `UnknownSlab` → re-push choreography. A request that
//! misses is one task per shard per product the workers can slice.
//!
//! The engine computes MEASURE's exact blocks `A·x` once per (dataset,
//! plan): a repeat on one dataset and plan copies them and sends no task
//! (`warm_repeat_sends_no_task`). So every request below that must reach the
//! workers misses that cache: it is the first on its (dataset, plan) pair —
//! the same data registered under a fresh name, or another workload.

use hdmm::core::{builders, Domain, QueryEngine, Workload};
use hdmm::engine::{Engine, EngineOptions, RemoteOptions, RetryPolicy};
use hdmm::linalg::{slab_split, StructuredMatrix};
use hdmm::optimizer::HdmmOptions;
use hdmm_net::{spawn_worker, WorkerHandle, WorkerOptions};
use std::time::Duration;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One plan directory per test process: every engine in a test shares it, so
/// SELECT runs once and each twin serves the identical plan from disk.
fn plan_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hdmm-remote-test-{}-{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn engine_with(seed: u64, tag: &str, remote: Option<RemoteOptions>) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed,
        cache_dir: Some(plan_dir(tag)),
        remote,
        ..Default::default()
    })
}

fn spawn_workers(specs: &[Duration]) -> (Vec<WorkerHandle>, RemoteOptions) {
    let handles: Vec<WorkerHandle> = specs
        .iter()
        .map(|&task_delay| {
            spawn_worker("127.0.0.1:0", WorkerOptions { task_delay }).expect("loopback bind")
        })
        .collect();
    let opts = RemoteOptions {
        workers: handles.iter().map(|h| h.addr().to_string()).collect(),
        policy: RetryPolicy {
            task_timeout: Duration::from_secs(10),
            attempts: 3,
            backoff: Duration::from_millis(10),
        },
    };
    (handles, opts)
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) % 31) as f64).collect()
}

/// Strategy-family coverage: each workload routes SELECT to a different
/// optimizer (OPT_⊗ Kronecker, OPT_M marginals, OPT_+ union, OPT_0 on a 1-D
/// domain), so the remote pipeline is exercised on every strategy form.
fn cases() -> Vec<(&'static str, Domain, Workload)> {
    // The tentpole case: a 2^16-cell domain (64·32·32), Kronecker-routed.
    let d3 = Domain::new(&[64, 32, 32]);
    let kron = Workload::product(
        d3.clone(),
        vec![64, 32, 32]
            .into_iter()
            .map(hdmm::workload::blocks::prefix_block)
            .collect(),
    );
    let marginals = builders::upto_kway_marginals(&d3, 2);
    let d2 = Domain::new(&[64, 32]);
    let union = builders::range_total_union_2d(64, 32);
    // OPT_0's plan is a one-leaf Kron of a p-Identity: no trailing factors,
    // so a per-slab task would be an identity copy and the RPC kernels serve
    // it on the plain kernels.
    let d1 = Domain::one_dim(64);
    let opt0_1d = builders::all_range_1d(64);
    vec![
        ("kron", d3.clone(), kron),
        ("marginals", d3, marginals),
        ("union", d2, union),
        ("opt0_1d", d1, opt0_1d),
    ]
}

/// Two requests against a dense, remote-less engine — the reference stream.
fn dense_answers(seed: u64, tag: &str, domain: &Domain, w: &Workload) -> (Vec<f64>, Vec<f64>) {
    let engine = engine_with(seed, tag, None);
    engine
        .register_dataset("d", domain.clone(), data(domain.size()), 1e6)
        .unwrap();
    let a = engine.serve("d", w, 1.0).unwrap().answers;
    let b = engine.serve("d", w, 0.5).unwrap().answers;
    (a, b)
}

/// The answers of a dense, remote-less engine to `requests` — (dataset,
/// workload) pairs at ε = 0.5 — with every dataset named in them
/// registered over [`data`].
fn dense_serve(
    seed: u64,
    tag: &str,
    domain: &Domain,
    requests: &[(&str, &Workload)],
) -> Vec<Vec<f64>> {
    let engine = engine_with(seed, tag, None);
    for (name, _) in requests {
        let _ = engine.register_dataset(*name, domain.clone(), data(domain.size()), 1e6);
    }
    requests
        .iter()
        .map(|(name, w)| engine.serve(name, w, 0.5).unwrap().answers)
        .collect()
}

#[test]
fn remote_serving_is_byte_identical_to_dense_across_worker_counts() {
    for (tag, domain, w) in cases() {
        let dense = dense_answers(7, tag, &domain, &w);
        for worker_count in [1usize, 2, 3] {
            let (_handles, remote) = spawn_workers(&vec![Duration::ZERO; worker_count]);
            let engine = engine_with(7, tag, Some(remote));
            engine
                .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
                .unwrap();
            let a = engine.serve("d", &w, 1.0).unwrap();
            let b = engine.serve("d", &w, 0.5).unwrap();
            assert_eq!(a.shards, 3.min(domain.attr_size(0)));
            assert!(
                bits_eq(&dense.0, &a.answers) && bits_eq(&dense.1, &b.answers),
                "{tag} workers={worker_count}: remote answers diverge from dense"
            );
            let m = engine.metrics();
            assert_eq!(
                m.telemetry.remote_fallbacks, 0,
                "{tag} workers={worker_count}: healthy pool must not fall back"
            );
            let pool = m.remote.expect("remote engine exposes pool health");
            assert_eq!(pool.workers.len(), worker_count);
            // A 1-D plan runs on the plain kernels; every other family must
            // actually have pushed tasks through the workers.
            let tasks: u64 = pool.workers.iter().map(|h| h.tasks).sum();
            if tag == "opt0_1d" {
                assert_eq!(tasks, 0, "workers={worker_count}: a 1-D plan sent tasks");
            } else {
                assert!(
                    tasks > 0,
                    "{tag} workers={worker_count}: no task reached the pool"
                );
            }
        }
    }
}

#[test]
fn killed_worker_mid_measure_retries_and_reassigns() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = Workload::product(
        domain.clone(),
        vec![64, 32, 32]
            .into_iter()
            .map(hdmm::workload::blocks::prefix_block)
            .collect(),
    );
    let dense = dense_answers(11, "kill", &domain, &w);

    // Worker 0 delays every task by 400ms; shards are assigned round-robin
    // on their first task, so it owns one of the three, and the first
    // MEASURE fan-out is guaranteed to be sitting on it when the kill lands.
    let (handles, remote) =
        spawn_workers(&[Duration::from_millis(400), Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(11, "kill", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();

    let (first, second) = std::thread::scope(|s| {
        let serve = s.spawn(|| {
            let a = engine.serve("d", &w, 1.0).expect("request must survive");
            let b = engine.serve("d", &w, 0.5).expect("request must survive");
            (a.answers, b.answers)
        });
        // Let the MEASURE fan-out reach the slow worker, then kill it
        // mid-task: its connection is hard-closed, so the coordinator's
        // blocked read fails immediately and the task reassigns.
        std::thread::sleep(Duration::from_millis(150));
        handles[0].kill();
        serve.join().expect("serving thread must not panic")
    });
    assert!(
        bits_eq(&dense.0, &first) && bits_eq(&dense.1, &second),
        "answers after a mid-MEASURE worker kill must still match dense"
    );

    let m = engine.metrics();
    let pool = m.remote.expect("remote engine exposes pool health");
    let victim = &pool.workers[0];
    assert!(
        !victim.alive && victim.failures >= 1,
        "the killed worker's failure must be visible in metrics(): {victim:?}"
    );
    assert!(
        pool.retries >= 1,
        "the interrupted task must have been retried: {pool:?}"
    );
    assert!(
        pool.reassignments >= 1 || m.telemetry.remote_fallbacks >= 1,
        "the orphaned shard must have been reassigned (or its blocks \
         computed locally): {pool:?}"
    );
    // Survivors carried the load.
    assert!(
        pool.workers[1..].iter().all(|h| h.alive),
        "surviving workers must stay alive: {pool:?}"
    );
}

#[test]
fn rejected_duplicate_registration_never_touches_worker_state() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = Workload::product(
        domain.clone(),
        vec![64, 32, 32]
            .into_iter()
            .map(hdmm::workload::blocks::prefix_block)
            .collect(),
    );
    // The second request serves another workload, so its (dataset, plan)
    // pair is new and MEASURE reads the slabs on the workers again.
    let w2 = builders::upto_kway_marginals(&domain, 2);
    let dense = dense_serve(13, "dup", &domain, &[("d", &w), ("d", &w2)]);
    let dense = (dense[0].clone(), dense[1].clone());
    let (_handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(13, "dup", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let first = engine.serve("d", &w, 0.5).unwrap().answers;
    assert!(bits_eq(&dense.0, &first));

    // Re-registering the live name with DIFFERENT data must fail — and must
    // not overwrite the live dataset's slabs on the workers: the pool's
    // `loaded` bookkeeping would otherwise skip the re-push and serve the
    // poison data silently.
    let poison = vec![0.0; domain.size()];
    assert!(matches!(
        engine.register_dataset_sharded("d", domain.clone(), poison, 3, 1e6),
        Err(hdmm::EngineError::DatasetExists { .. })
    ));
    let tasks = |engine: &Engine| -> u64 {
        let pool = engine.metrics().remote.expect("pool health");
        pool.workers.iter().map(|h| h.tasks).sum()
    };
    let before = tasks(&engine);
    let second = engine.serve("d", &w2, 0.5).unwrap().answers;
    assert!(
        bits_eq(&dense.1, &second),
        "answers after a rejected duplicate registration must still match dense"
    );
    assert_eq!(
        engine.metrics().telemetry.remote_fallbacks,
        0,
        "the original slabs must still be serving remotely"
    );
    assert!(
        tasks(&engine) > before,
        "the second request reached the workers"
    );
}

#[test]
fn connect_worker_at_runtime_requires_a_transport_and_a_live_worker() {
    let (_handles, remote) = spawn_workers(&[Duration::ZERO]);
    let engine = engine_with(3, "connect", Some(remote));
    let extra = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
    engine.connect_worker(&extra.addr().to_string()).unwrap();
    assert_eq!(engine.metrics().remote.unwrap().workers.len(), 2);
    // A dead address is a typed error.
    extra.kill();
    std::thread::sleep(Duration::from_millis(20));
    assert!(engine.connect_worker(&extra.addr().to_string()).is_err());
    // An engine without a transport rejects worker registration outright.
    let local_only = engine_with(3, "connect", None);
    assert!(matches!(
        local_only.connect_worker("127.0.0.1:1"),
        Err(hdmm::EngineError::WorkerUnavailable { .. })
    ));
}

/// A fresh worker on the address of a killed one: same port, nothing loaded.
/// The old listener closes within one accept poll of the kill, so the bind
/// is retried briefly.
fn respawn(addr: std::net::SocketAddr) -> WorkerHandle {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match spawn_worker(addr, WorkerOptions::default()) {
            Ok(w) => return w,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

fn prefix_product(domain: &Domain) -> Workload {
    Workload::product(
        domain.clone(),
        domain
            .sizes()
            .iter()
            .map(|&n| hdmm::workload::blocks::prefix_block(n))
            .collect(),
    )
}

#[test]
fn restarted_worker_gets_its_factors_back_without_a_fallback() {
    let domain = Domain::new(&[64, 32, 32]);
    let (w, w2) = (
        prefix_product(&domain),
        builders::upto_kway_marginals(&domain, 2),
    );
    // The second request serves another workload on the same dataset, so it
    // misses the engine's cache of MEASURE's exact blocks and fans out over
    // slabs the coordinator already pushed.
    let dense = dense_serve(17, "respawn", &domain, &[("d", &w), ("d", &w2)]);

    // One worker, so the replacement must serve the second request itself:
    // the coordinator still believes the slabs are there, and only the
    // worker's typed UnknownSlab can say otherwise.
    let (mut handles, remote) = spawn_workers(&[Duration::ZERO]);
    let engine = engine_with(17, "respawn", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let first = engine.serve("d", &w, 0.5).unwrap().answers;
    assert!(bits_eq(&dense[0], &first));
    assert_eq!(handles[0].slab_count(), 3);

    let addr = handles[0].addr();
    handles[0].kill();
    handles[0] = respawn(addr);
    assert_eq!(handles[0].slab_count(), 0);

    let second = engine.serve("d", &w2, 0.5).unwrap().answers;
    assert!(
        bits_eq(&dense[1], &second),
        "answers through a restarted worker must still match dense"
    );
    let m = engine.metrics();
    assert_eq!(
        m.telemetry.remote_fallbacks, 0,
        "a restart is recovered on the wire, not by serving locally"
    );
    assert_eq!(
        handles[0].slab_count(),
        3,
        "the restarted worker must have answered UnknownSlab and been sent every slab again"
    );
    let pool = m.remote.expect("pool health");
    assert_eq!(
        (pool.retries, pool.workers[0].failures),
        (1, 1),
        "one failed attempt, on the killed worker's connection: each UnknownSlab \
         is re-pushed inside its attempt: {pool:?}"
    );
}

#[test]
fn plans_with_different_trailing_factors_never_share_a_key() {
    // Two plans over one dataset, served alternately through the same
    // workers, each keep computing with their own factors.
    let domain = Domain::new(&[64, 32, 32]);
    let (wa, wb) = (
        prefix_product(&domain),
        builders::upto_kway_marginals(&domain, 2),
    );
    // The second pair of requests serves the same data under a second name,
    // so each misses the cache of MEASURE's exact blocks and computes again.
    let requests = [("d", &wa), ("d", &wb), ("e", &wa), ("e", &wb)];
    let dense = dense_serve(19, "two-plans", &domain, &requests);
    let (_handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(19, "two-plans", Some(remote));
    for name in ["d", "e"] {
        engine
            .register_dataset_sharded(name, domain.clone(), data(domain.size()), 3, 1e6)
            .unwrap();
    }
    let got: Vec<Vec<f64>> = requests
        .iter()
        .map(|(name, w)| engine.serve(name, w, 0.5).unwrap().answers)
        .collect();
    for (i, (d, g)) in dense.iter().zip(&got).enumerate() {
        assert!(bits_eq(d, g), "request {i} diverges from dense");
    }
    assert_eq!(engine.metrics().telemetry.remote_fallbacks, 0);
}

/// The products of `w`'s plan that the workers slice: a slab split with
/// trailing factors, as `RpcKernels::forward` decides.
fn remotable_products(engine: &Engine, w: &Workload) -> u64 {
    let (plan, _) = engine.plan(w);
    let sliced = plan.prepared().products().iter().filter(|p| {
        let refs: Vec<&StructuredMatrix> = p.factors.iter().collect();
        slab_split(&refs).is_some_and(|split| !split.trailing.is_empty())
    });
    sliced.count() as u64
}

#[test]
fn a_miss_is_one_task_per_shard_per_remotable_product() {
    let domain = Domain::new(&[64, 32, 32]);
    let (wk, wm) = (
        prefix_product(&domain),
        builders::upto_kway_marginals(&domain, 2),
    );
    let (handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(23, "once", Some(remote));
    for name in ["d", "e", "f"] {
        engine
            .register_dataset_sharded(name, domain.clone(), data(domain.size()), 3, 1e6)
            .unwrap();
    }
    let health = |engine: &Engine| engine.metrics().remote.expect("pool health");
    // Five fresh (dataset, plan) pairs: each misses the cache of MEASURE's
    // exact blocks, and the second on a dataset finds its slabs pushed.
    let pairs = [("d", &wk), ("d", &wm), ("e", &wk), ("e", &wm), ("f", &wk)];
    let mut shards_on = std::collections::HashMap::new();
    for (name, w) in pairs {
        let before = health(&engine);
        let resp = engine.serve(name, w, 0.5).unwrap();
        let after = health(&engine);
        let remotable = remotable_products(&engine, w);
        assert!(remotable > 0, "{name}: the plan sends no task");
        let first_touch = !shards_on.contains_key(name);
        let held: &Vec<u64> = shards_on.entry(name).or_insert_with(|| {
            let pushed = before.workers.iter().zip(&after.workers);
            pushed.map(|(b, a)| (a.slabs - b.slabs) as u64).collect()
        });
        assert_eq!(
            held.iter().sum::<u64>(),
            3,
            "{name}: every shard has a link"
        );
        for (i, (b, a)) in before.workers.iter().zip(&after.workers).enumerate() {
            assert_eq!(
                a.tasks - b.tasks,
                held[i] * remotable,
                "{name}, link {i}: one task per shard per remotable product"
            );
        }
        assert_eq!((after.retries, after.reassignments), (0, 0));
        // A slab is pushed once per link, on the first task that needs it.
        let loads = engine
            .trace_spans(resp.trace_id)
            .iter()
            .filter(|s| s.name == "rpc:load")
            .count();
        assert_eq!(
            loads,
            if first_touch { 3 } else { 0 },
            "{name}: slab pushes"
        );
    }
    let end = health(&engine);
    for (link, worker) in end.workers.iter().zip(&handles) {
        assert_eq!(link.slabs, worker.slab_count());
    }
    assert_eq!(engine.metrics().telemetry.remote_fallbacks, 0);
}

#[test]
fn warm_repeat_sends_no_task() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = prefix_product(&domain);
    let dense = dense_answers(29, "repeat", &domain, &w);
    let (_handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(29, "repeat", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let first = engine.serve("d", &w, 1.0).unwrap().answers;
    let filled = engine.metrics();
    let before = filled.remote.expect("pool health");
    assert!(before.workers.iter().map(|h| h.tasks).sum::<u64>() > 0);
    assert_eq!(
        (filled.measure_cache.misses, filled.measure_cache.hits),
        (1, 0)
    );

    // The repeat copies the blocks the first request computed on the
    // workers: no task, no byte either way.
    let second = engine.serve("d", &w, 0.5).unwrap().answers;
    assert!(bits_eq(&dense.0, &first) && bits_eq(&dense.1, &second));
    let m = engine.metrics();
    let after = m.remote.expect("pool health");
    for (b, a) in before.workers.iter().zip(&after.workers) {
        assert_eq!(
            (a.tasks, a.bytes_sent, a.bytes_received),
            (b.tasks, b.bytes_sent, b.bytes_received),
            "a warm repeat reached a worker: {after:?}"
        );
    }
    assert_eq!(m.telemetry.remote_fallbacks, 0);
    assert_eq!((m.measure_cache.misses, m.measure_cache.hits), (1, 1));
}

/// A pool-wide failure: every worker is dead before a cold request on a
/// sharded dataset, so the fan-out for MEASURE's exact blocks fails and the
/// engine computes them on the plain kernels. No noise is drawn before the
/// blocks exist, so the answers are dense serving's bit for bit and ε is
/// charged once; the blocks the fallback computed are cached, so the next
/// request on the pair sends nothing.
#[test]
fn a_dead_pool_falls_back_once_with_dense_bits_and_caches_the_blocks() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = prefix_product(&domain);
    let dense = dense_answers(41, "dead-pool", &domain, &w);
    let (handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(41, "dead-pool", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    for handle in &handles {
        handle.kill();
    }
    // Let the accept loops see the stop and close their listeners.
    std::thread::sleep(Duration::from_millis(50));

    let first = engine.serve("d", &w, 1.0).expect("a dead pool falls back");
    assert!(
        bits_eq(&dense.0, &first.answers),
        "the fallback's answers diverge from dense"
    );
    let m = engine.metrics();
    assert_eq!(m.telemetry.remote_fallbacks, 1);
    assert_eq!(engine.budget("d").unwrap().1, 1.0, "ε charged once");
    assert_eq!(
        (m.measure_cache.entries, m.measure_cache.misses),
        (1, 1),
        "the fallback's blocks are cached"
    );
    let before = m.remote.expect("pool health");
    assert!(
        before.workers.iter().all(|h| !h.alive && h.failures >= 1),
        "the dead pool is visible in metrics(): {before:?}"
    );

    let second = engine.serve("d", &w, 0.5).unwrap();
    assert!(bits_eq(&dense.1, &second.answers));
    let m = engine.metrics();
    assert_eq!(
        m.remote.expect("pool health"),
        before,
        "the repeat reached the pool"
    );
    assert_eq!(m.telemetry.remote_fallbacks, 1);
    assert_eq!((m.measure_cache.misses, m.measure_cache.hits), (1, 1));
    assert_eq!(engine.budget("d").unwrap().1, 1.5);
}
