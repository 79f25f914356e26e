//! End-to-end engine demo: a census-style serving loop.
//!
//! ```text
//! cargo run --release --example engine_demo
//! ```
//!
//! Shows the full request lifecycle of `hdmm-engine`:
//! 1. the first request optimizes a strategy (cache miss) and spends ε;
//! 2. the second request for the same workload hits the strategy cache;
//! 3. a follow-up workload on the session costs zero additional ε;
//! 4. an over-budget request fails with a typed `BudgetExhausted` error;
//! 5. a batch served through the `EngineServer` thread pool;
//! 6. a dataset registered *sharded* (leading-axis slabs) answers
//!    byte-identically to its dense twin while MEASURE/RECONSTRUCT/ANSWER
//!    fan out per shard;
//! 7. the same sharded dataset served through a pool of in-process TCP
//!    shard workers (`hdmm-net`) — remote answers byte-identical to local;
//! 8. observability: a `/metrics` excerpt with per-worker health, the
//!    Chrome trace, the ε-audit tail — then `Engine::metrics()` in full,
//!    which prints as the same Prometheus page.

use hdmm_core::{builders, Domain, EngineError, QueryEngine};
use hdmm_engine::{Engine, EngineOptions, EngineServer, RemoteOptions, ServerOptions};
use hdmm_net::{spawn_worker, WorkerOptions};
use hdmm_optimizer::HdmmOptions;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A census-style person domain (sex × age-group × race-ish) with
    // all 1- and 2-way marginals — the Table 5 regime.
    let domain = Domain::new(&[2, 16, 8]);
    let workload = builders::upto_kway_marginals(&domain, 2);
    let x: Vec<f64> = (0..domain.size()).map(|i| ((i * 19) % 23) as f64).collect();

    let engine = Arc::new(Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 2,
            ..Default::default()
        },
        seed: 7,
        ..Default::default()
    }));
    engine
        .register_dataset("census", domain.clone(), x, /*total ε=*/ 1.0)
        .expect("registration is valid");

    println!(
        "domain {domain} · {} queries · total budget ε=1.0",
        workload.query_count()
    );
    let decision = engine.explain(&workload);
    println!("planner: {} — {}", decision.choice.tag(), decision.reason);

    // 1. Cold request: SELECT runs (the dominant cost), MEASURE spends ε.
    let t0 = Instant::now();
    let first = engine
        .serve("census", &workload, 0.4)
        .expect("within budget");
    println!(
        "\n#1 cold:  {:>8.1?}  cache_hit={}  operator={}  rmse≈{:.3}",
        t0.elapsed(),
        first.cache_hit,
        first.operator,
        (first.expected_error / workload.query_count() as f64).sqrt(),
    );

    // 2. Warm request: the strategy comes from the cache.
    let t1 = Instant::now();
    let second = engine
        .serve("census", &workload, 0.4)
        .expect("within budget");
    println!(
        "#2 warm:  {:>8.1?}  cache_hit={}  (stats: {:?})",
        t1.elapsed(),
        second.cache_hit,
        engine.cache_stats(),
    );

    // 3. Measure once, answer many: a different workload from the session.
    let follow_up = builders::kway_marginals(&domain, 1);
    let (_, spent, _) = engine.budget("census").expect("dataset exists");
    let free = engine
        .serve_from_session(second.session, &follow_up)
        .expect("same domain");
    let (_, spent_after, remaining) = engine.budget("census").expect("dataset exists");
    println!(
        "#3 session follow-up: {} answers, ε spent {spent} → {spent_after} (zero cost), \
         remaining {remaining:.2}",
        free.len(),
    );

    // 4. Over-budget request: typed rejection, nothing measured.
    match engine.serve("census", &workload, 0.5) {
        Err(EngineError::BudgetExhausted {
            dataset,
            requested,
            remaining,
        }) => println!(
            "#4 over-budget: rejected typed — dataset={dataset} requested={requested} \
             remaining={remaining:.2}"
        ),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }

    // 5. The thread-pool front-end: a second dataset takes a warm batch
    //    through the bounded queue; every response carries its own result.
    engine
        .register_dataset(
            "survey",
            domain.clone(),
            vec![5.0; domain.size()],
            /*total ε=*/ 2.0,
        )
        .expect("registration is valid");
    let server = EngineServer::start(
        Arc::clone(&engine),
        ServerOptions {
            workers: 4,
            queue_capacity: 32,
        },
    );
    let t2 = Instant::now();
    let batch: Vec<_> = std::iter::repeat_n(("survey", &workload, 0.05), 8).collect();
    let results = server.serve_batch(batch);
    let hits = results
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|resp| resp.cache_hit))
        .count();
    println!(
        "\n#5 server batch: 8 requests on 4 workers in {:>8.1?} — {hits}/8 strategy-cache hits",
        t2.elapsed()
    );
    server.shutdown();

    // 6. Sharded domains: the same data registered dense and in 4 leading-
    //    axis slabs — in twin engines with the same seed and dataset name,
    //    so the RNG streams match — answers byte-identically (the fan-out
    //    pipeline never reassociates a floating-point sum and draws noise in
    //    the same order), while the sharded engine's MEASURE/RECONSTRUCT/
    //    ANSWER run as per-shard tasks with per-shard telemetry spans.
    let sharded_x: Vec<f64> = (0..domain.size()).map(|i| ((i * 3) % 7) as f64).collect();
    engine
        .register_dataset_sharded("shardy", domain.clone(), sharded_x.clone(), 4, 2.0)
        .expect("registration is valid");
    let sharded = engine
        .serve("shardy", &workload, 0.5)
        .expect("within budget");
    let dense_twin = Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 2,
            ..Default::default()
        },
        seed: 7,
        ..Default::default()
    });
    dense_twin
        .register_dataset("shardy", domain.clone(), sharded_x.clone(), 2.0)
        .expect("registration is valid");
    let dense = dense_twin
        .serve("shardy", &workload, 0.5)
        .expect("within budget");
    let identical = dense.answers.len() == sharded.answers.len()
        && dense
            .answers
            .iter()
            .zip(&sharded.answers)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    println!(
        "\n#6 sharded: {}-slab dataset answers byte-identical to its dense twin: {identical}",
        sharded.shards
    );

    // 7. Distributed serving: the same sharded registration, but the shard
    //    tasks cross a TCP hop to a pool of `hdmm-shard-worker`s (spawned
    //    in-process here; in production they'd be separate machines). A
    //    third twin engine with the same seed shows the remote answers are
    //    byte-identical to the local sharded (and dense) ones.
    let workers: Vec<_> = (0..3)
        .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).expect("loopback bind"))
        .collect();
    let remote_twin = Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 2,
            ..Default::default()
        },
        seed: 7,
        remote: Some(RemoteOptions {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            ..Default::default()
        }),
        ..Default::default()
    });
    remote_twin
        .register_dataset_sharded("shardy", domain.clone(), sharded_x, 4, 2.0)
        .expect("registration is valid");
    let remote = remote_twin
        .serve("shardy", &workload, 0.5)
        .expect("request must survive");
    let remote_identical = remote
        .answers
        .iter()
        .zip(&sharded.answers)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    println!(
        "\n#7 remote: served over {} TCP workers, byte-identical to local: {remote_identical}",
        workers.len()
    );

    // 8. Observability: every request above carried a deterministic trace
    //    id and assembled a span tree — queue wait, SELECT, phases, shard
    //    tasks, and (for #7) the RPC attempts plus worker-side spans that
    //    crossed the wire. The same engines render their metrics as a
    //    Prometheus page (`hdmm-metrics-exporter` serves it over HTTP), and
    //    the trace exports as Chrome `trace_event` JSON that Perfetto or
    //    `chrome://tracing` loads directly. Per-worker health is the
    //    `hdmm_worker_*` families of that page.
    let prom = remote_twin.render_prometheus();
    let excerpt: Vec<&str> = prom
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with("hdmm_requests_total")
                || l.starts_with("hdmm_phase_duration_seconds_count")
                || l.starts_with("hdmm_dataset_eps_remaining")
                || l.starts_with("hdmm_worker_up")
                || l.starts_with("hdmm_worker_tasks_total")
                || l.starts_with("hdmm_worker_failures_total")
                || l.starts_with("hdmm_worker_mean_task_seconds")
                || l.starts_with("hdmm_spans_collected_total")
        })
        .collect();
    println!(
        "\n#8 observability: /metrics excerpt ({} lines total):",
        prom.lines().count()
    );
    for line in excerpt {
        println!("   {line}");
    }
    let trace_path = std::env::temp_dir().join("hdmm_engine_demo_trace.json");
    match std::fs::write(&trace_path, remote_twin.chrome_trace(remote.trace_id)) {
        Ok(()) => println!(
            "   trace {:#018x} written to {} — open in Perfetto or chrome://tracing",
            remote.trace_id,
            trace_path.display()
        ),
        Err(e) => println!("   trace dump skipped ({e})"),
    }
    let audit_tail = remote_twin.audit().recent();
    println!(
        "   ε-audit stream tail ({} events total):",
        audit_tail.len()
    );
    for event in audit_tail.iter().rev().take(2).rev() {
        println!("   {}", event.to_json());
    }

    // The one-call observability surface, printed as its Prometheus page:
    // cache counters, per-phase latency histograms (select runs once per
    // distinct workload; measure/reconstruct/answer once per served
    // request), per-dataset request/failure counters and ε gauges.
    println!("\nengine metrics:\n{}", engine.metrics());
}
