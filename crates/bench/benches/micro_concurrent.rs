//! Concurrent serving microbenchmarks: cache-hit throughput under thread
//! fan-out, and single-flight deduplication of simultaneous cache misses.
//!
//! `concurrent_cache_hits/T` serves a fixed batch of warm requests split
//! across `T` threads, all on one fingerprint of one dataset. The work is
//! constant; what the threads serialize on is that dataset's RNG and ledger
//! mutexes (plus the engine-wide audit ring and session store), since a
//! cache hit is a read lock and an atomic stamp. Wall clock drops toward
//! `1/cores` only as far as those short critical sections allow.
//! `dedup_under_miss` releases 8 threads onto one cold fingerprint at once;
//! single-flight means the wall clock is ~one SELECT, not eight.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdmm_core::{builders, Domain, QueryEngine};
use hdmm_engine::{Engine, EngineOptions};
use hdmm_optimizer::HdmmOptions;
use std::sync::Barrier;

fn quick_engine() -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed: 0,
        ..Default::default()
    })
}

/// Effectively unlimited ε so warm-path iterations never exhaust the ledger.
const BUDGET: f64 = 1e18;

/// Total warm requests per iteration, split across the thread count so every
/// configuration does the same work and the metric is pure scaling.
const WARM_REQUESTS: usize = 64;

fn bench_concurrent_hits(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_cache_hits");
    group.sample_size(10);
    let n = 64;
    let workload = builders::prefix_1d(n);
    for &threads in &[1usize, 2, 4, 8] {
        let engine = quick_engine();
        engine
            .register_dataset("d", Domain::one_dim(n), vec![1.0; n], BUDGET)
            .expect("valid registration");
        engine.serve("d", &workload, 1.0).expect("pre-warm");
        let per_thread = WARM_REQUESTS / threads;
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        let engine = &engine;
                        let workload = &workload;
                        s.spawn(move || {
                            for _ in 0..per_thread {
                                engine.serve("d", workload, 1.0).expect("within budget");
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

fn bench_dedup_under_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedup_under_miss");
    group.sample_size(10);
    // Small enough that a SELECT is milliseconds (the bench measures dedup
    // overhead, not optimizer throughput), big enough to dwarf thread setup.
    let n = 32;
    let threads = 8;
    let workload = builders::all_range_1d(n);
    group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
        b.iter(|| {
            // Fresh engine per iteration: every round is a true cold miss
            // contested by all threads at once.
            let engine = quick_engine();
            let barrier = Barrier::new(threads);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let engine = &engine;
                    let workload = &workload;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        engine.plan(workload)
                    });
                }
            });
            let t = engine.metrics().telemetry;
            assert_eq!(t.selects_run, 1, "single-flight must hold");
            t.dedup_waits
        });
    });
    group.finish();
}

fn bench_singleflight_hit_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_hit_with_telemetry");
    group.sample_size(20);
    // The full serve path (cache hit + telemetry): directly comparable
    // to `engine_end_to_end`'s engine_warm_cache_hit.
    let n = 64;
    let workload = builders::all_range_1d(n);
    let engine = quick_engine();
    engine
        .register_dataset("d", Domain::one_dim(n), vec![1.0; n], BUDGET)
        .expect("valid registration");
    engine.serve("d", &workload, 1.0).expect("pre-warm");
    group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
        b.iter(|| engine.serve("d", &workload, 1.0).expect("within budget"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_concurrent_hits,
    bench_dedup_under_miss,
    bench_singleflight_hit_overhead
);
criterion_main!(benches);
