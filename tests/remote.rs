//! Loopback integration tests for the remote shard fan-out (ISSUE 6): an
//! engine serving a sharded 2^16-cell domain through in-process TCP workers
//! must answer **byte-identically** to a dense single-node registration, for
//! worker counts {1, 2, 3} and across strategy families — and a worker
//! killed mid-MEASURE must never fail a request: tasks retry and reassign to
//! survivors, with the failure visible in `Engine::metrics()`.
//!
//! ISSUE 12 adds the residency contract: trailing-factor lists live on the
//! workers under content keys, ship to each link exactly once in steady
//! state, never alias across plans, and come back after a worker restart
//! through the typed `UnknownFactors` → re-push choreography.

use hdmm::core::{builders, Domain, QueryEngine, Workload};
use hdmm::engine::{Engine, EngineOptions, RemoteOptions, RetryPolicy};
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
        shard_workers: 4,
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
/// optimizer (OPT_⊗ Kronecker, OPT_M marginals, OPT_+ union, OPT_0 dense
/// explicit), so the remote pipeline is exercised on every strategy form.
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
    let d1 = Domain::one_dim(64);
    let explicit = builders::all_range_1d(64);
    vec![
        ("kron", d3.clone(), kron),
        ("marginals", d3, marginals),
        ("union", d2, union),
        ("explicit", d1, explicit),
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
            // The explicit family measures locally by design, but every other
            // family must actually have pushed tasks through the workers.
            if tag != "explicit" {
                assert!(
                    pool.workers.iter().map(|h| h.tasks).sum::<u64>() > 0,
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

    // Worker 0 delays every task by 400ms; with slabs preloaded round-robin
    // it owns shard 0, so the first MEASURE fan-out is guaranteed to be
    // sitting on it when the kill lands.
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
        "the orphaned shard must have been reassigned (or the request \
         re-served locally): {pool:?}"
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
    let dense = dense_answers(13, "dup", &domain, &w);
    let (_handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(13, "dup", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let first = engine.serve("d", &w, 1.0).unwrap().answers;
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
    let second = engine.serve("d", &w, 0.5).unwrap().answers;
    assert!(
        bits_eq(&dense.1, &second),
        "answers after a rejected duplicate registration must still match dense"
    );
    assert_eq!(
        engine.metrics().telemetry.remote_fallbacks,
        0,
        "the original slabs must still be serving remotely"
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
    let w = prefix_product(&domain);
    let dense = dense_answers(17, "respawn", &domain, &w);

    // One worker, so the replacement must serve the second request itself:
    // the coordinator still believes slabs and factors are resident there,
    // and only the worker's typed UnknownSlab / UnknownFactors can say
    // otherwise.
    let (mut handles, remote) = spawn_workers(&[Duration::ZERO]);
    let engine = engine_with(17, "respawn", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let first = engine.serve("d", &w, 1.0).unwrap().answers;
    assert!(bits_eq(&dense.0, &first));
    let before = engine.metrics().remote.expect("pool health");
    assert_eq!(before.factor_misses, 0);

    let addr = handles[0].addr();
    handles[0].kill();
    handles[0] = respawn(addr);
    assert_eq!(handles[0].factor_list_count(), 0);

    let second = engine.serve("d", &w, 0.5).unwrap().answers;
    assert!(
        bits_eq(&dense.1, &second),
        "answers through a restarted worker must still match dense"
    );
    let m = engine.metrics();
    assert_eq!(
        m.telemetry.remote_fallbacks, 0,
        "a restart is recovered on the wire, not by serving locally"
    );
    let pool = m.remote.expect("pool health");
    assert!(
        pool.factor_misses >= 1,
        "the restarted worker must have answered UnknownFactors: {pool:?}"
    );
    assert!(
        pool.workers[0].factor_pushes > before.workers[0].factor_pushes,
        "and been sent the factors again: {pool:?}"
    );
    assert!(handles[0].factor_list_count() >= 1);
}

#[test]
fn plans_with_different_trailing_factors_never_share_a_key() {
    use hdmm::linalg::StructuredMatrix;
    use hdmm::mechanism::{PreparedReconstruct, Strategy};
    use hdmm_net::OperandKeys;

    // Same shapes, same leading factor; only the trailing factors differ.
    let plan = |scale: f64| {
        let s = Strategy::kron(vec![
            StructuredMatrix::prefix(8),
            StructuredMatrix::prefix(4).scaled(scale),
        ]);
        let prepared = PreparedReconstruct::new(&s);
        OperandKeys::new(&s, &prepared)
    };
    let (a, b) = (plan(0.25), plan(0.5));
    for ka in a.keys() {
        assert!(b.keys().all(|kb| kb != ka), "plans alias on {ka:?}");
    }
    assert_eq!(a, plan(0.25), "keys are a pure function of the plan");

    // And on the wire: two plans over one dataset, served alternately
    // through the same workers, each keep computing with their own factors.
    let domain = Domain::new(&[64, 32, 32]);
    let (wa, wb) = (
        prefix_product(&domain),
        builders::upto_kway_marginals(&domain, 2),
    );
    let serve_both = |engine: &Engine| -> Vec<Vec<f64>> {
        [&wa, &wb, &wa, &wb]
            .iter()
            .map(|w| engine.serve("d", w, 0.5).unwrap().answers)
            .collect()
    };
    let dense_engine = engine_with(19, "two-plans", None);
    dense_engine
        .register_dataset("d", domain.clone(), data(domain.size()), 1e6)
        .unwrap();
    let dense = serve_both(&dense_engine);
    let (handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(19, "two-plans", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let got = serve_both(&engine);
    for (i, (d, g)) in dense.iter().zip(&got).enumerate() {
        assert!(bits_eq(d, g), "request {i} diverges from dense");
    }
    assert_eq!(engine.metrics().telemetry.remote_fallbacks, 0);
    assert!(
        handles.iter().all(|h| h.factor_list_count() >= 2),
        "each worker holds both plans' lists side by side"
    );
}

#[test]
fn steady_state_ships_each_factor_list_to_each_link_exactly_once() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = prefix_product(&domain);
    let (handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(23, "once", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    engine.serve("d", &w, 0.5).unwrap();
    let warm = engine.metrics().remote.expect("pool health");
    for (link, worker) in warm.workers.iter().zip(&handles) {
        assert!(
            link.factor_pushes >= 1,
            "the first request pushes: {warm:?}"
        );
        assert_eq!(
            link.factor_pushes as usize,
            worker.factor_list_count(),
            "one push per list the worker holds: {warm:?}"
        );
    }
    for _ in 0..4 {
        engine.serve("d", &w, 0.5).unwrap();
    }
    let steady = engine.metrics().remote.expect("pool health");
    assert_eq!(steady.factor_misses, 0);
    for (before, after) in warm.workers.iter().zip(&steady.workers) {
        assert_eq!(
            before.factor_pushes, after.factor_pushes,
            "warm requests re-ship no factors: {steady:?}"
        );
        assert!(after.tasks > before.tasks && after.bytes_sent > before.bytes_sent);
        assert!(after.bytes_received > before.bytes_received);
    }
}
