//! The one mechanism pipeline, table-driven: strategy family {explicit, Kron,
//! marginals, union} × kernel kind {plain; RPC fan-out over 2, 3 and 7 slabs
//! on 2 loopback workers}. The slab counts are non-divisible partitions of
//! the leading axis, so the coordinator's merge and leading contraction are
//! checked bit for bit on uneven slabs of every family.
//!
//! The explicit row and the one-leaf `Dense` Kron row after it hold the same
//! matrix: an explicit strategy is measured as that product, so the two rows
//! must give the same bits too.
//!
//! For every cell of that table `MechanismRequest::run` must (a) produce the
//! `x_hat` and answers of the plain-kernel reference — `measure` +
//! `reconstruct_with` + `Workload::answer` — bit for bit under the same
//! seed, (b) report Measure, Reconstruct, Answer to the observer once each,
//! in order, and (c) refuse an invalid request with the same typed error
//! whatever the kernels, reporting no phase and leaving the RNG untouched.
//!
//! Two rows hold products whose contraction order does not end on the
//! leading mode: the second Kron row's transposed strategy (a tall lead
//! before a prefix, which RECONSTRUCT applies), and the union row's
//! `[Total, AllRange]` workload term and `[Total, Prefix]` group, which every
//! kernel kind must measure unsliced. The third Kron row is SELECT's own
//! shape: p-Identity leaves, whose inverse Grams are Woodbury leaves.
//! The union row has two groups, so it reconstructs by the joint solve:
//! `Σ_g w_g²·A_gᵀy_g` and the joint eigenbasis. The second marginals row has
//! a size-1 attribute and weights only on the full table and one 1-way
//! marginal.
//!
//! RECONSTRUCT runs on the coordinator, which holds the noisy answers, for
//! every family: the RPC kinds must report MEASURE shard tasks for every
//! row over a multi-attribute domain, and no RECONSTRUCT shard task for
//! any row.

use hdmm::core::{builders, Domain, ShardedDataVector, Workload};
use hdmm::linalg::{Matrix, StructuredMatrix};
use hdmm::mechanism::{
    measure, reconstruct_with, run_mechanism, Kernels, MarginalsStrategy, MechanismError,
    MechanismRequest, PipelineError, PlainKernels, PreparedReconstruct, Strategy, UnionGroup,
};
use hdmm::optimizer::PIdentity;
use hdmm::workload::blocks;
use hdmm_net::{spawn_worker, RemoteOptions, RpcKernels, WorkerHandle, WorkerOptions, WorkerPool};
use hdmm_obs::{Observer, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::sync::Mutex;
use std::time::Duration;

/// Every family lives on a domain whose leading axis has 9 rows, so 2 and 7
/// slabs are non-divisible partitions.
const LEADING: usize = 9;
const SLABS: [usize; 3] = [2, 3, 7];
const SEED: u64 = 42;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 13) as f64).collect()
}

fn families() -> Vec<(Workload, Strategy)> {
    // An explicit matrix is measured as a one-leaf `Dense` product: the two
    // rows must give the same bits.
    let lower = Matrix::from_fn(LEADING, LEADING, |r, c| {
        if c <= r {
            1.0 / LEADING as f64
        } else {
            0.0
        }
    });
    let explicit = (
        builders::prefix_1d(LEADING),
        Strategy::Explicit(lower.clone()),
    );
    let one_leaf = (
        builders::prefix_1d(LEADING),
        Strategy::Kron(vec![StructuredMatrix::Dense(lower)]),
    );
    let kron = (
        builders::prefix_2d(LEADING, 5),
        Strategy::kron(vec![
            blocks::prefix(LEADING).scaled(1.0 / LEADING as f64),
            blocks::prefix(5).scaled(0.2),
        ]),
    );
    // A tall lead in front of a square leaf: transposed, the lead shrinks and
    // the prefix does not, so RECONSTRUCT's `Aᵀy` contracts the leading mode
    // first. (A prefix, not an identity: a unit identity gives the same bits
    // in either order, and the row would not tell the orders apart.)
    let tall_lead = (
        builders::prefix_2d(LEADING, 5),
        Strategy::kron(vec![
            Matrix::from_fn(LEADING + 2, LEADING, |r, c| match r {
                r if r < LEADING => f64::from(u8::from(r == c)),
                r if r == LEADING => 0.5,
                _ => (c + 1) as f64 / LEADING as f64,
            }),
            blocks::prefix(5).scaled(0.2),
        ]),
    );
    // OPT_⊗'s own output: p-Identity leaves, whose inverse Grams are Woodbury
    // leaves. The RPC kinds push the trailing p-Identity leaf to workers.
    let theta =
        |p: usize, n: usize| Matrix::from_fn(p, n, |r, c| ((r * 5 + c * 3) % 7) as f64 * 0.3);
    let p_identity = (
        builders::prefix_2d(LEADING, 5),
        Strategy::Kron(vec![
            PIdentity::new(theta(2, LEADING)).leaf(),
            PIdentity::new(theta(1, 5)).leaf(),
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
    // A size-1 attribute, and weights on the full table and the 1-way
    // marginal of the last attribute only.
    let unit_domain = Domain::new(&[LEADING, 1, 3]);
    let mut theta = vec![0.0; 8];
    (theta[0b100], theta[0b111]) = (0.4, 0.6);
    let marginals_unit = (
        builders::all_marginals(&unit_domain),
        Strategy::Marginals(MarginalsStrategy::new(unit_domain, theta)),
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
    vec![
        explicit,
        one_leaf,
        kron,
        tall_lead,
        p_identity,
        marginals,
        marginals_unit,
        union,
    ]
}

/// Records the phases the pipeline reports, in order, and the phase of
/// every shard task the kernels report.
#[derive(Default)]
struct Recorder {
    phases: Mutex<Vec<Phase>>,
    shard_tasks: Mutex<Vec<Phase>>,
}

impl Observer for Recorder {
    fn phase_complete(&self, phase: Phase, _elapsed: Duration) {
        self.phases.lock().unwrap().push(phase);
    }

    fn shard_phase_complete(&self, phase: Phase, _shard: usize, _elapsed: Duration) {
        self.shard_tasks.lock().unwrap().push(phase);
    }
}

impl Recorder {
    fn phases(&self) -> Vec<Phase> {
        self.phases.lock().unwrap().clone()
    }

    fn shard_tasks(&self) -> Vec<Phase> {
        self.shard_tasks.lock().unwrap().clone()
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

/// `x` over a `LEADING × (cells / LEADING)` domain, cut into `slabs`
/// leading-axis slabs.
fn sharded(x: &[f64], slabs: usize) -> ShardedDataVector {
    let domain = Domain::new(&[LEADING, x.len() / LEADING]);
    ShardedDataVector::partition(&domain, x.to_vec(), slabs)
}

/// Runs `row` over every kernel kind of the table, all serving the data
/// vector `x`; the RPC rows cache their slabs on the workers as
/// `<dataset>/<slabs>`. Returns the phases of the shard tasks each RPC kind
/// reported.
fn for_each_kernel_kind(
    x: &[f64],
    dataset: &str,
    pool: &WorkerPool,
    row: &impl Row,
) -> Vec<(String, Vec<Phase>)> {
    row.check("plain", &PlainKernels::over(x));
    let mut shard_tasks = Vec::new();
    for slabs in SLABS {
        let data = sharded(x, slabs);
        let kind = format!("rpc/2workers/{slabs}");
        let tasks = Recorder::default();
        row.check(
            &kind,
            &RpcKernels {
                pool,
                dataset: &format!("{dataset}/{slabs}"),
                data: &data,
                observer: &tasks,
            },
        );
        shard_tasks.push((kind, tasks.shard_tasks()));
    }
    shard_tasks
}

/// (a) + (b): the reference bits and the phase sequence.
struct MatchesReference<'a> {
    family: &'a str,
    request: MechanismRequest<'a>,
    x_hat: &'a [f64],
    answers: &'a [f64],
}

impl Row for MatchesReference<'_> {
    fn check<K: Kernels>(&self, kind: &str, kernels: &K)
    where
        K::Error: Debug,
    {
        let family = self.family;
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
    let mut references = Vec::new();
    for (row, (workload, strategy)) in families().into_iter().enumerate() {
        let x = data(workload.domain().size());
        let prepared = PreparedReconstruct::new(&strategy);
        if let Strategy::Union(_) = &strategy {
            assert!(
                prepared.joint_basis().is_some(),
                "the two-group union row reconstructs by the joint solve"
            );
        }

        // The reference: the plain kernels called phase by phase, MEASURE
        // building its own products.
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

        let shard_tasks = for_each_kernel_kind(
            &x,
            &format!("{row}-{}", strategy.kind()),
            &pool,
            &MatchesReference {
                family: strategy.kind(),
                request: MechanismRequest {
                    workload: &workload,
                    prepared: &prepared,
                    eps: 1.0,
                },
                x_hat: &x_hat,
                answers: &answers,
            },
        );
        // Only MEASURE leaves the coordinator, and only where its input,
        // the dataset, lives in slabs: a product over a multi-attribute
        // domain fans out (a 1-D row's one leaf has no trailing factors to
        // send), and no row runs a RECONSTRUCT shard task.
        let fans_out = workload.domain().dims() > 1;
        for (kind, tasks) in shard_tasks {
            assert!(
                tasks.iter().all(|p| *p == Phase::Measure) && tasks.is_empty() != fans_out,
                "{} row {row} over {kind}: shard tasks {tasks:?}",
                strategy.kind()
            );
        }
        references.push((x_hat, answers));
    }
    // Rows 0 and 1: `Explicit(a)` and `Kron([Dense(a)])`. Every kernel kind
    // reproduced its row's reference, so they agree over every kind.
    let (explicit, one_leaf) = (&references[0], &references[1]);
    assert!(
        bits_eq(&explicit.0, &one_leaf.0) && bits_eq(&explicit.1, &one_leaf.1),
        "an explicit matrix and its one-leaf product diverge"
    );
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
    let (workload, strategy) = families().swap_remove(2);
    assert_eq!(strategy.kind(), "kron");
    let cells = workload.domain().size();
    let x = data(cells);
    let prepared = PreparedReconstruct::new(&strategy);
    let valid = MechanismRequest {
        workload: &workload,
        prepared: &prepared,
        eps: 1.0,
    };

    for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        for_each_kernel_kind(
            &x,
            "valid",
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

    // A dataset one trailing column short of the workload's domain.
    let short = data(cells - LEADING);
    for_each_kernel_kind(
        &short,
        "short",
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

    // A plan prepared for another domain: one trailing column short.
    let narrow = Strategy::kron(vec![
        blocks::prefix(LEADING).scaled(1.0 / LEADING as f64),
        blocks::prefix(4).scaled(0.25),
    ]);
    let narrow_prepared = PreparedReconstruct::new(&narrow);
    for_each_kernel_kind(
        &x,
        "valid",
        &pool,
        &Refused {
            what: "prepared for another domain",
            request: MechanismRequest {
                prepared: &narrow_prepared,
                ..valid
            },
            expected: &|e| *e == MechanismError::PlanMismatch,
        },
    );

    // A union whose groups are over permuted attribute orders: the same cell
    // count, but no joint basis exists, so the plan has no solve, and only
    // the missing solve can refuse it.
    let permuted = Strategy::Union([
        UnionGroup::new(
            0.5,
            vec![blocks::prefix(LEADING), blocks::total(5)],
            vec![0],
        ),
        UnionGroup::new(
            0.5,
            vec![blocks::total(5), blocks::prefix(LEADING)],
            vec![1],
        ),
    ]);
    let permuted_prepared = PreparedReconstruct::new(&permuted);
    assert!(permuted_prepared.joint_basis().is_none());
    for_each_kernel_kind(
        &x,
        "valid",
        &pool,
        &Refused {
            what: "a union over permuted attribute orders",
            request: MechanismRequest {
                prepared: &permuted_prepared,
                ..valid
            },
            expected: &|e| *e == MechanismError::PlanMismatch,
        },
    );
}
