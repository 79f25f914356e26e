//! Criterion micro-benchmarks for the hot kernels: Gram computation, one
//! OPT_0 objective/gradient evaluation, Laplace noise generation and the
//! Cholesky trace solve. (The implicit Kronecker product is timed on the
//! ruler, `benchmark/`'s `linalg.kmatvec_ms`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdmm_mechanism::laplace::add_laplace_noise;
use hdmm_optimizer::lbfgs::Objective as _;
use hdmm_optimizer::opt0::Opt0Objective;
use hdmm_workload::blocks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram");
    group.sample_size(20);
    for &n in &[64usize, 256] {
        let w = blocks::prefix(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| w.gram());
        });
    }
    group.finish();
}

fn bench_opt0_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt0_value_grad");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let wtw = blocks::gram_all_range(n);
        let p = n / 16;
        let mut obj = Opt0Objective::new(&wtw, p);
        let mut rng = StdRng::seed_from_u64(0);
        let x: Vec<f64> = (0..p * n).map(|_| rng.gen::<f64>()).collect();
        let mut grad = vec![0.0; p * n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| obj.value_grad(&x, &mut grad));
        });
    }
    group.finish();
}

fn bench_laplace(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    c.bench_function("laplace_100k", |b| {
        let mut v = vec![0.0; 100_000];
        b.iter(|| add_laplace_noise(&mut v, 1.0, &mut rng));
    });
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky_trace_solve");
    group.sample_size(10);
    for &n in &[64usize, 256] {
        let gram = blocks::gram_prefix(n);
        let mut spd = gram.clone();
        for i in 0..n {
            spd[(i, i)] += 1.0;
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let ch = hdmm_linalg::Cholesky::new(&spd).unwrap();
                ch.trace_solve(&gram)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gram,
    bench_opt0_gradient,
    bench_laplace,
    bench_cholesky
);
criterion_main!(benches);
