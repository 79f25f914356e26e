//! MEASURE's exact blocks `A·x`, computed once per (dataset, plan).
//!
//! MEASURE is two steps: `exact_blocks` computes every product's unscaled
//! `A_p·x` over some kernels without touching the RNG, and `measure_on`
//! copies each block, scales it and draws its noise. A registered data
//! vector never changes, so the engine keeps the blocks of the first
//! request on a (dataset, plan) pair and every later request runs the same
//! `measure_on` on them. These tests hold that to the bits of a fresh
//! MEASURE:
//!
//! * for explicit, Kron, marginals and union plans, the blocks over the
//!   plain kernels and over the RPC kernels (two loopback workers) equal
//!   each other and the plain `kmatvec_structured` of every product; a
//!   MEASURE and a whole pipeline run on them give a fresh run's bits and
//!   RNG state, and send no task;
//! * blocks that do not fit the plan are refused before any noise;
//! * a kernel that fails after its first product leaves the RNG as it was
//!   and reports no phase;
//! * in the engine, two datasets with one plan never share an entry, and K
//!   threads racing on one miss answer as K serial requests do, leaving one
//!   entry behind.

use hdmm::core::{builders, Domain, QueryEngine, ShardedDataVector, Workload};
use hdmm::engine::{Engine, EngineOptions};
use hdmm::linalg::{kmatvec_structured, KronScratch, Matrix, StructuredMatrix};
use hdmm::mechanism::{
    exact_blocks, measure, measure_on, Kernels, MarginalsStrategy, Measurements, MechanismError,
    MechanismRequest, PipelineError, PlainKernels, PreparedReconstruct, Strategy, UnionGroup,
};
use hdmm::optimizer::HdmmOptions;
use hdmm::workload::blocks;
use hdmm_net::{spawn_worker, RemoteOptions, RpcKernels, WorkerHandle, WorkerPool};
use hdmm_obs::{Observer, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::convert::Infallible;
use std::fmt::Debug;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// The leading axis of every family's domain: 3 slabs cut it unevenly.
const LEADING: usize = 7;
const SEED: u64 = 5;
const EPS: f64 = 0.8;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Inexact data, so a changed summation order shows in the bits.
fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 11) as f64 * 0.3 + 0.1).collect()
}

/// One plan per family over a `LEADING × …` domain, with its workload.
fn families() -> Vec<(Workload, Strategy)> {
    let explicit = (
        builders::prefix_1d(LEADING),
        Strategy::Explicit(Matrix::from_fn(LEADING + 1, LEADING, |r, c| {
            f64::from(u8::from(c <= r)) / (1.0 + r as f64)
        })),
    );
    let kron = (
        builders::prefix_2d(LEADING, 5),
        Strategy::kron(vec![
            blocks::prefix(LEADING).scaled(1.0 / LEADING as f64),
            blocks::prefix(5).scaled(0.2),
        ]),
    );
    let marginals_domain = Domain::new(&[LEADING, 3, 2]);
    let marginals = (
        builders::upto_kway_marginals(&marginals_domain, 2),
        Strategy::Marginals(MarginalsStrategy::new(
            marginals_domain,
            vec![0.1, 0.2, 0.0, 0.3, 0.1, 0.1, 0.1, 0.1],
        )),
    );
    let union = (
        builders::range_total_union_2d(LEADING, 4),
        Strategy::Union([
            UnionGroup::new(
                0.5,
                vec![
                    blocks::prefix(LEADING).scaled(1.0 / LEADING as f64),
                    blocks::total(4),
                ],
                vec![0],
            ),
            UnionGroup::new(
                0.5,
                vec![blocks::total(LEADING), blocks::prefix(4).scaled(0.25)],
                vec![1],
            ),
        ]),
    );
    vec![explicit, kron, marginals, union]
}

fn spawn_pool() -> (Vec<WorkerHandle>, WorkerPool) {
    let workers: Vec<WorkerHandle> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", Default::default()).expect("loopback bind"))
        .collect();
    let pool = RemoteOptions {
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        ..Default::default()
    }
    .connect();
    (workers, pool)
}

fn tasks(pool: &WorkerPool) -> u64 {
    pool.health().workers.iter().map(|w| w.tasks).sum()
}

/// The exact blocks of `request`'s plan over `kernels`.
fn blocks_over<K: Kernels>(request: &MechanismRequest<'_>, kernels: &K) -> Vec<Vec<f64>>
where
    K::Error: Debug,
{
    exact_blocks(
        request.prepared.products(),
        kernels,
        &mut KronScratch::new(),
    )
    .expect("the kernels serve every product")
}

/// MEASURE at [`SEED`] on `blocks`, and the RNG after it.
fn measure_with(request: &MechanismRequest<'_>, blocks: &[Vec<f64>]) -> (Measurements, u64) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let meas = measure_on(
        request.prepared.products(),
        request.eps,
        &mut rng,
        blocks,
        &mut KronScratch::new(),
    );
    (meas, rng.gen())
}

fn same_measurements(a: &Measurements, b: &Measurements) -> bool {
    a.blocks.len() == b.blocks.len()
        && a.blocks
            .iter()
            .zip(&b.blocks)
            .all(|(a, b)| bits_eq(&a.noisy, &b.noisy) && a.noise_scale == b.noise_scale)
}

/// What a run on blocks computed earlier must reproduce: a fresh pipeline
/// run over one kernel kind — without a task: `sent` (the tasks the workers
/// served so far) does not move while the run on `kept` runs.
fn assert_reuse_is_fresh<K: Kernels>(
    family: &str,
    kind: &str,
    request: &MechanismRequest<'_>,
    kernels: &K,
    kept: &[Vec<f64>],
    sent: &dyn Fn() -> u64,
) where
    K::Error: Debug,
{
    let fresh = request
        .run(&mut StdRng::seed_from_u64(SEED), kernels, &())
        .unwrap_or_else(|e| panic!("{family} over {kind}: {e:?}"));
    let before = sent();
    let reused = request
        .run_with_scratch(
            &mut KronScratch::new(),
            &mut StdRng::seed_from_u64(SEED),
            kernels.data(),
            &(),
            |_| Ok::<_, Infallible>(kept),
        )
        .unwrap_or_else(|e| panic!("{family} over {kind}: {e:?}"));
    assert_eq!(
        sent(),
        before,
        "{family} over {kind}: a reused run sent tasks"
    );
    assert!(
        bits_eq(&fresh.x_hat, &reused.x_hat) && bits_eq(&fresh.answers, &reused.answers),
        "{family} over {kind}: a reused pipeline run diverges from a fresh one"
    );
}

#[test]
fn kept_and_reused_blocks_give_fresh_bits_for_every_family_and_kernel_kind() {
    let (_workers, pool) = spawn_pool();
    for (row, (workload, strategy)) in families().into_iter().enumerate() {
        let family = strategy.kind();
        let x = data(workload.domain().size());
        let prepared = PreparedReconstruct::new(&strategy);
        let request = MechanismRequest {
            workload: &workload,
            prepared: &prepared,
            eps: EPS,
        };
        let sharded = ShardedDataVector::partition(workload.domain(), x.clone(), 3);
        let rpc = RpcKernels {
            pool: &pool,
            dataset: &format!("{row}-{family}"),
            data: &sharded,
            observer: &(),
        };
        let plain = PlainKernels::over(&x);

        // Either kind computes the same unscaled blocks: each product's
        // plain product. MEASURE on them is `measure`'s, bits and RNG.
        let kept_plain = blocks_over(&request, &plain);
        let kept_rpc = blocks_over(&request, &rpc);
        assert_eq!(kept_plain.len(), prepared.products().len());
        for (i, p) in prepared.products().iter().enumerate() {
            let refs: Vec<&StructuredMatrix> = p.factors.iter().collect();
            let exact = kmatvec_structured(&refs, &x);
            assert!(
                bits_eq(&kept_plain[i], &exact) && bits_eq(&kept_rpc[i], &exact),
                "{family}, product {i}: exact blocks are not A·x"
            );
        }
        let mut rng = StdRng::seed_from_u64(SEED);
        let fresh = (measure(&strategy, &x, EPS, &mut rng), rng.gen::<u64>());
        for (kind, kept) in [("plain", &kept_plain), ("rpc", &kept_rpc)] {
            let got = measure_with(&request, kept);
            assert!(
                same_measurements(&fresh.0, &got.0) && fresh.1 == got.1,
                "{family} over {kind}: MEASURE on the blocks is not a fresh MEASURE"
            );
        }

        // A run on them gives a fresh run's bits over either kind, and
        // sends no task.
        let sent = || tasks(&pool);
        assert_reuse_is_fresh(family, "plain", &request, &plain, &kept_plain, &sent);
        assert_reuse_is_fresh(family, "rpc", &request, &rpc, &kept_rpc, &sent);
    }
    assert!(tasks(&pool) > 0, "the RPC kind reached the workers");
}

#[test]
fn reused_blocks_that_do_not_fit_the_plan_are_refused_before_any_noise() {
    let (workload, strategy) = families().swap_remove(2);
    let x = data(workload.domain().size());
    let prepared = PreparedReconstruct::new(&strategy);
    let request = MechanismRequest {
        workload: &workload,
        prepared: &prepared,
        eps: EPS,
    };
    let kept = blocks_over(&request, &PlainKernels::over(&x));
    let mut short_block = kept.clone();
    short_block[1].pop();
    let one_fewer = kept[1..].to_vec();
    for (what, blocks) in [("a short block", short_block), ("a block fewer", one_fewer)] {
        let mut rng = StdRng::seed_from_u64(SEED);
        let got = request.run_with_scratch(&mut KronScratch::new(), &mut rng, &x, &(), |_| {
            Ok::<_, Infallible>(blocks)
        });
        assert!(
            matches!(
                got,
                Err(PipelineError::Rejected(MechanismError::PlanMismatch))
            ),
            "{what}: {got:?}"
        );
        assert_eq!(
            rng.gen::<u64>(),
            StdRng::seed_from_u64(SEED).gen::<u64>(),
            "{what}: no noise was drawn"
        );
    }
}

/// The plain kernels until product `fails_at` (counting the products they
/// are asked for, in order), which they cannot evaluate.
struct FailingAt<'a> {
    plain: PlainKernels<'a>,
    fails_at: usize,
    asked: Cell<usize>,
}

impl Kernels for FailingAt<'_> {
    type Error = usize;

    fn data(&self) -> &[f64] {
        self.plain.data()
    }

    fn forward(&self, factors: &[&StructuredMatrix]) -> Result<Option<Vec<f64>>, usize> {
        let block = self.asked.replace(self.asked.get() + 1);
        if block == self.fails_at {
            Err(block)
        } else {
            self.plain.forward(factors).map_err(|never| match never {})
        }
    }
}

#[derive(Default)]
struct Phases(Mutex<Vec<Phase>>);

impl Observer for Phases {
    fn phase_complete(&self, phase: Phase, _elapsed: Duration) {
        self.0.lock().unwrap().push(phase);
    }
}

/// Every block exists before the first draw: a kernel that fails at a
/// product after the first leaves the RNG as it was, and no phase is
/// reported — so a caller can compute the blocks over other kernels and
/// draw the noise it would have drawn.
#[test]
fn a_kernel_failing_after_the_first_product_leaves_the_rng_untouched() {
    for (workload, strategy) in families() {
        let prepared = PreparedReconstruct::new(&strategy);
        let count = prepared.products().len();
        if count < 2 {
            continue;
        }
        let x = data(workload.domain().size());
        let request = MechanismRequest {
            workload: &workload,
            prepared: &prepared,
            eps: EPS,
        };
        for fails_at in 1..count {
            let family = strategy.kind();
            let mut rng = StdRng::seed_from_u64(SEED);
            let before = rng.clone();
            let phases = Phases::default();
            let kernels = FailingAt {
                plain: PlainKernels::over(&x),
                fails_at,
                asked: Cell::new(0),
            };
            let got = request.run(&mut rng, &kernels, &phases);
            assert!(
                matches!(got, Err(PipelineError::Kernel(at)) if at == fails_at),
                "{family}, failing at {fails_at}: {got:?}"
            );
            let draws = |mut rng: StdRng| -> Vec<u64> { (0..4).map(|_| rng.gen()).collect() };
            assert_eq!(
                draws(rng),
                draws(before),
                "{family}, failing at {fails_at}: the RNG moved"
            );
            assert!(
                phases.0.lock().unwrap().is_empty(),
                "{family}, failing at {fails_at}: a phase was reported"
            );
        }
    }
}

fn engine(seed: u64) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed,
        ..Default::default()
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// Two datasets of the same domain, served with the same plan in turn:
/// each answers as it does alone. A shared entry would answer the second
/// dataset from the first one's blocks.
#[test]
fn two_datasets_with_one_plan_never_share_an_entry() {
    let domain = Domain::new(&[16, 8]);
    let w = builders::prefix_2d(16, 8);
    let xs = [data(domain.size()), data(domain.size() + 3)[3..].to_vec()];
    let both = engine(31);
    for (name, x) in ["a", "b"].iter().zip(&xs) {
        both.register_dataset(*name, domain.clone(), x.clone(), 100.0)
            .unwrap();
    }
    let mut got: [Vec<Vec<u64>>; 2] = Default::default();
    for _ in 0..3 {
        for (i, name) in ["a", "b"].iter().enumerate() {
            got[i].push(bits(&both.serve(name, &w, 0.5).unwrap().answers));
        }
    }
    for (i, name) in ["a", "b"].iter().enumerate() {
        let alone = engine(31);
        alone
            .register_dataset(*name, domain.clone(), xs[i].clone(), 100.0)
            .unwrap();
        let want: Vec<Vec<u64>> = (0..3)
            .map(|_| bits(&alone.serve(name, &w, 0.5).unwrap().answers))
            .collect();
        assert_eq!(
            got[i], want,
            "dataset {name} answered from another's blocks"
        );
    }
    let stats = both.metrics().measure_cache;
    assert_eq!((stats.entries, stats.misses, stats.hits), (2, 2, 4));
}

/// K threads racing on one (dataset, plan) miss: every request draws its
/// own seed off the dataset's stream, so together they answer what K serial
/// requests answer, in some order — whether each computed its blocks or
/// copied another's — and the cache keeps one entry.
#[test]
fn racing_misses_on_one_pair_return_the_serial_answers_and_leave_one_entry() {
    const K: usize = 4;
    let domain = Domain::new(&[24, 3, 4]);
    let w = builders::upto_kway_marginals(&domain, 2);
    let set_up = || {
        let engine = engine(37);
        engine
            .register_dataset("d", domain.clone(), data(domain.size()), 100.0)
            .unwrap();
        engine.plan(&w);
        engine
    };
    let serial = set_up();
    let mut want: Vec<Vec<u64>> = (0..K)
        .map(|_| bits(&serial.serve("d", &w, 0.5).unwrap().answers))
        .collect();
    let racing = set_up();
    let start = Barrier::new(K);
    let mut got: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    bits(&racing.serve("d", &w, 0.5).unwrap().answers)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    want.sort();
    got.sort();
    assert_eq!(got, want);
    let stats = racing.metrics().measure_cache;
    assert_eq!((stats.entries, stats.hits + stats.misses), (1, K as u64));
    assert!(stats.misses >= 1);
    assert_eq!(stats.bytes, serial.metrics().measure_cache.bytes);
}
