//! The one mechanism pipeline, table-driven: strategy family {explicit, Kron,
//! marginals, union} × kernel kind {plain; local fan-out over 1, 2, 3, 7
//! slabs on `ScopedExecutor::new(1)` (serial) and `ScopedExecutor::new(4)`;
//! RPC fan-out over 2 loopback workers}.
//!
//! For every cell of that table `MechanismRequest::run` must (a) produce the
//! `x_hat` and answers of the plain-kernel reference — `measure` +
//! `reconstruct_with` + `Workload::answer` — bit for bit under the same
//! seed, (b) report Measure, Reconstruct, Answer to the observer once each,
//! in order, and (c) refuse an invalid request with the same typed error
//! whatever the kernels, reporting no phase and leaving the RNG untouched.

use hdmm::core::{builders, Domain, Workload};
use hdmm::linalg::Matrix;
use hdmm::mechanism::{
    measure, reconstruct_with, run_mechanism, Kernels, LocalKernels, MarginalsStrategy,
    MechanismError, MechanismRequest, PipelineError, PlainKernels, PreparedReconstruct,
    ScopedExecutor, ShardedView, Strategy, UnionGroup,
};
use hdmm::workload::blocks;
use hdmm_net::{
    spawn_worker, OperandKeys, RemoteOptions, RpcKernels, WorkerHandle, WorkerOptions, WorkerPool,
};
use hdmm_obs::{Observer, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::sync::Mutex;
use std::time::Duration;

/// Every family lives on a domain whose leading axis has 9 rows, so 2 and 7
/// slabs are non-divisible partitions.
const LEADING: usize = 9;
const SEED: u64 = 42;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64).collect()
}

fn families() -> Vec<(Workload, Strategy)> {
    let explicit = (
        builders::prefix_1d(LEADING),
        Strategy::Explicit(Matrix::from_fn(LEADING, LEADING, |r, c| {
            if c <= r {
                1.0 / LEADING as f64
            } else {
                0.0
            }
        })),
    );
    let kron = (
        builders::prefix_2d(LEADING, 5),
        Strategy::kron(vec![
            blocks::prefix(LEADING).scaled(1.0 / LEADING as f64),
            blocks::prefix(5).scaled(0.2),
        ]),
    );
    // A zero weight exercises the skipped-marginal bookkeeping.
    let marginals_domain = Domain::new(&[LEADING, 3]);
    let marginals = (
        builders::all_marginals(&marginals_domain),
        Strategy::Marginals(MarginalsStrategy::new(
            marginals_domain,
            vec![0.0, 0.3, 0.2, 0.5],
        )),
    );
    let union = (
        builders::range_total_union_2d(LEADING, 4),
        Strategy::Union(vec![
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

/// Records the phases the pipeline reports, in order.
#[derive(Default)]
struct Recorder(Mutex<Vec<Phase>>);

impl Observer for Recorder {
    fn phase_complete(&self, phase: Phase, _elapsed: Duration) {
        self.0.lock().unwrap().push(phase);
    }
}

impl Recorder {
    fn phases(&self) -> Vec<Phase> {
        self.0.lock().unwrap().clone()
    }
}

/// What a table row does with one kernel kind (generic, because every kind
/// is its own type with its own error).
trait Row {
    fn check<K: Kernels>(&self, kind: &str, kernels: &K)
    where
        K::Error: Debug;
}

/// Two loopback workers behind one pool.
fn spawn_pool() -> (Vec<WorkerHandle>, WorkerPool) {
    let workers: Vec<WorkerHandle> = (0..2)
        .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).expect("loopback bind"))
        .collect();
    let pool = RemoteOptions {
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        ..Default::default()
    }
    .connect();
    (workers, pool)
}

/// Runs `row` over every kernel kind of the table, all serving the data
/// vector `x`; the RPC row caches its slabs on the workers as `dataset` and
/// names resident operands through `keys`.
fn for_each_kernel_kind(
    x: &[f64],
    dataset: &str,
    keys: &OperandKeys,
    pool: &WorkerPool,
    row: &impl Row,
) {
    row.check("plain", &PlainKernels::over(x));
    let executors = [
        ("serial", &ScopedExecutor::new(1)),
        ("scoped4", &ScopedExecutor::new(4)),
    ];
    for slabs in [1usize, 2, 3, 7] {
        let view = ShardedView::partitioned(LEADING, x, slabs);
        for (name, exec) in executors {
            row.check(
                &format!("local/{name}/{slabs}"),
                &LocalKernels {
                    view: &view,
                    exec,
                    observer: &Recorder::default(),
                },
            );
        }
    }
    let view = ShardedView::partitioned(LEADING, x, 3);
    row.check(
        "rpc/2workers/3",
        &RpcKernels {
            pool,
            dataset,
            keys,
            local: LocalKernels {
                view: &view,
                exec: &ScopedExecutor::new(2),
                observer: &Recorder::default(),
            },
        },
    );
}

/// (a) + (b): the reference bits and the phase sequence.
struct MatchesReference<'a> {
    request: MechanismRequest<'a>,
    x_hat: &'a [f64],
    answers: &'a [f64],
}

impl Row for MatchesReference<'_> {
    fn check<K: Kernels>(&self, kind: &str, kernels: &K)
    where
        K::Error: Debug,
    {
        let family = self.request.strategy.kind();
        let observer = Recorder::default();
        let got = self
            .request
            .run(&mut StdRng::seed_from_u64(SEED), kernels, &observer)
            .unwrap_or_else(|e| panic!("{family} over {kind}: {e:?}"));
        assert!(
            bits_eq(&got.x_hat, self.x_hat),
            "{family} over {kind}: x_hat diverges from the plain reference"
        );
        assert!(
            bits_eq(&got.answers, self.answers),
            "{family} over {kind}: answers diverge from the plain reference"
        );
        assert_eq!(
            observer.phases(),
            [Phase::Measure, Phase::Reconstruct, Phase::Answer],
            "{family} over {kind}: each phase once, in order"
        );
    }
}

#[test]
fn every_kernel_kind_reproduces_the_plain_reference_and_reports_each_phase_once() {
    let (_workers, pool) = spawn_pool();
    for (workload, strategy) in families() {
        let x = data(workload.domain().size());
        let prepared = PreparedReconstruct::new(&strategy);
        let keys = OperandKeys::new(&strategy, &prepared);

        // The reference: the plain kernels called phase by phase, MEASURE
        // building its own marginals algebra.
        let meas = measure(&strategy, &x, 1.0, &mut StdRng::seed_from_u64(SEED));
        let x_hat = reconstruct_with(&prepared, &strategy, &meas);
        let answers = workload.answer(&x_hat);

        // `run_mechanism` is the asserting wrapper of the same pipeline.
        let wrapped = run_mechanism(
            &workload,
            &strategy,
            &x,
            1.0,
            &mut StdRng::seed_from_u64(SEED),
        );
        assert!(bits_eq(&wrapped.x_hat, &x_hat) && bits_eq(&wrapped.answers, &answers));

        for_each_kernel_kind(
            &x,
            strategy.kind(),
            &keys,
            &pool,
            &MatchesReference {
                // A request for exactly the remaining budget passes.
                request: MechanismRequest {
                    workload: &workload,
                    strategy: &strategy,
                    prepared: &prepared,
                    eps: 1.0,
                    remaining: 1.0,
                },
                x_hat: &x_hat,
                answers: &answers,
            },
        );
    }
    let served: u64 = pool.health().workers.iter().map(|w| w.tasks).sum();
    assert!(served > 0, "the RPC row must actually reach the workers");
}

/// (c): one invalid request, the error it must be refused with.
struct Refused<'a> {
    what: &'a str,
    request: MechanismRequest<'a>,
    expected: &'a dyn Fn(&MechanismError) -> bool,
}

impl Row for Refused<'_> {
    fn check<K: Kernels>(&self, kind: &str, kernels: &K)
    where
        K::Error: Debug,
    {
        let what = self.what;
        let observer = Recorder::default();
        let mut rng = StdRng::seed_from_u64(SEED);
        match self.request.run(&mut rng, kernels, &observer) {
            Err(PipelineError::Rejected(e)) => {
                assert!(
                    (self.expected)(&e),
                    "{what} over {kind}: refused with {e:?}"
                )
            }
            other => panic!("{what} over {kind}: expected a rejection, got {other:?}"),
        }
        assert!(
            observer.phases().is_empty(),
            "{what} over {kind}: a refused request reports no phase"
        );
        assert_eq!(
            rng.gen::<u64>(),
            StdRng::seed_from_u64(SEED).gen::<u64>(),
            "{what} over {kind}: a refused request draws no noise"
        );
    }
}

#[test]
fn every_kernel_kind_refuses_invalid_requests_identically_before_any_noise() {
    let (_workers, pool) = spawn_pool();
    let (workload, strategy) = families().swap_remove(1);
    assert_eq!(strategy.kind(), "kron");
    let cells = workload.domain().size();
    let x = data(cells);
    let prepared = PreparedReconstruct::new(&strategy);
    let keys = OperandKeys::new(&strategy, &prepared);
    let valid = MechanismRequest {
        workload: &workload,
        strategy: &strategy,
        prepared: &prepared,
        eps: 1.0,
        remaining: 1.0,
    };

    for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        for_each_kernel_kind(
            &x,
            "valid",
            &keys,
            &pool,
            &Refused {
                what: &format!("eps={eps}"),
                request: MechanismRequest { eps, ..valid },
                expected: &|e| {
                    matches!(e, MechanismError::InvalidEpsilon { eps: got }
                        if got.to_bits() == eps.to_bits())
                },
            },
        );
    }

    for_each_kernel_kind(
        &x,
        "valid",
        &keys,
        &pool,
        &Refused {
            what: "over budget",
            request: MechanismRequest { eps: 2.0, ..valid },
            expected: &|e| {
                *e == MechanismError::BudgetExhausted {
                    requested: 2.0,
                    remaining: 1.0,
                }
            },
        },
    );

    // A dataset one trailing column short of the workload's domain.
    let short = data(cells - LEADING);
    for_each_kernel_kind(
        &short,
        "short",
        &keys,
        &pool,
        &Refused {
            what: "short data vector",
            request: valid,
            expected: &|e| {
                *e == MechanismError::DataVectorMismatch {
                    expected: cells,
                    got: cells - LEADING,
                }
            },
        },
    );

    // Reconstruction state of another strategy family.
    let other = Strategy::Marginals(MarginalsStrategy::uniform(workload.domain().clone()));
    let other_prepared = PreparedReconstruct::new(&other);
    for_each_kernel_kind(
        &x,
        "valid",
        &keys,
        &pool,
        &Refused {
            what: "prepared for another family",
            request: MechanismRequest {
                prepared: &other_prepared,
                ..valid
            },
            expected: &|e| *e == MechanismError::PlanMismatch,
        },
    );

    // Resident operands of another plan: another family's keys, and keys of
    // the right family with another block count. Only the RPC kernels keep
    // any, so only they can refuse; the other kinds serve the valid request.
    let two_groups = Strategy::Union(vec![
        UnionGroup::new(0.5, vec![blocks::total(LEADING), blocks::total(5)], vec![0]),
        UnionGroup::new(0.5, vec![blocks::total(LEADING), blocks::total(5)], vec![0]),
    ]);
    let one_group = Strategy::Union(vec![UnionGroup::new(
        1.0,
        vec![blocks::total(LEADING), blocks::total(5)],
        vec![0],
    )]);
    let union_request = MechanismRequest {
        strategy: &two_groups,
        prepared: &PreparedReconstruct::Union,
        ..valid
    };
    let view = ShardedView::partitioned(LEADING, &x, 3);
    for (what, request, stale_keys) in [
        (
            "keys of another family",
            valid,
            OperandKeys::new(&other, &other_prepared),
        ),
        (
            "keys of another block count",
            union_request,
            OperandKeys::new(&one_group, &PreparedReconstruct::Union),
        ),
    ] {
        Refused {
            what,
            request,
            expected: &|e| *e == MechanismError::PlanMismatch,
        }
        .check(
            "rpc/2workers/3",
            &RpcKernels {
                pool: &pool,
                dataset: "valid",
                keys: &stale_keys,
                local: LocalKernels {
                    view: &view,
                    exec: &ScopedExecutor::new(1),
                    observer: &Recorder::default(),
                },
            },
        );
    }
}
