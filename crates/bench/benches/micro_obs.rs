//! Observability overhead: warm cache-hit serving with tracing sampled on
//! every request vs sampling disabled, plus the cost of rendering the
//! Prometheus page and exporting a Chrome trace.
//!
//! The acceptance bar (ISSUE 7) is that `trace_sample: 1` stays within 5%
//! of the unsampled path on warm cache hits — compare the two
//! `engine_warm_obs` series, and either against `engine_end_to_end`'s
//! `engine_warm_cache_hit`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdmm_core::{builders, Domain, QueryEngine};
use hdmm_engine::{Engine, EngineOptions};
use hdmm_optimizer::HdmmOptions;

/// Effectively unlimited ε so warm-path iterations never exhaust the ledger.
const BUDGET: f64 = 1e18;

fn engine_with_sampling(trace_sample: u64) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed: 0,
        trace_sample,
        ..Default::default()
    })
}

fn bench_warm_traced_vs_untraced(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_warm_obs");
    group.sample_size(20);
    for &(label, trace_sample) in &[("sampled_every_request", 1u64), ("unsampled", 0u64)] {
        for &n in &[64usize, 128] {
            let workload = builders::all_range_1d(n);
            let engine = engine_with_sampling(trace_sample);
            engine
                .register_dataset("d", Domain::one_dim(n), vec![1.0; n], BUDGET)
                .expect("valid registration");
            engine.serve("d", &workload, 1.0).expect("within budget");
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| engine.serve("d", &workload, 1.0).expect("within budget"))
            });
        }
    }
    group.finish();
}

fn bench_render_prometheus(c: &mut Criterion) {
    let engine = engine_with_sampling(1);
    let n = 64usize;
    engine
        .register_dataset("d", Domain::one_dim(n), vec![1.0; n], BUDGET)
        .expect("valid registration");
    let workload = builders::all_range_1d(n);
    for _ in 0..16 {
        engine.serve("d", &workload, 1.0).expect("within budget");
    }
    c.bench_function("render_prometheus", |b| {
        b.iter(|| engine.render_prometheus())
    });
}

fn bench_chrome_trace_export(c: &mut Criterion) {
    let engine = engine_with_sampling(1);
    let n = 64usize;
    engine
        .register_dataset("d", Domain::one_dim(n), vec![1.0; n], BUDGET)
        .expect("valid registration");
    let workload = builders::all_range_1d(n);
    let trace_id = (0..16)
        .map(|_| engine.serve("d", &workload, 1.0).expect("within budget"))
        .next_back()
        .map(|r| r.trace_id)
        .expect("served");
    c.bench_function("chrome_trace_export", |b| {
        b.iter(|| engine.chrome_trace(trace_id))
    });
}

criterion_group!(
    benches,
    bench_warm_traced_vs_untraced,
    bench_render_prometheus,
    bench_chrome_trace_export
);
criterion_main!(benches);
