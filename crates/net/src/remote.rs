//! The RPC fan-out: [`RpcKernels`], the [`Kernels`] implementation that
//! sends the per-slab tasks of MEASURE / RECONSTRUCT to TCP shard workers.
//!
//! The split of work mirrors the in-process fan-out exactly: the per-slab
//! trailing-factor products (the bulk of the flops) become
//! [`SlabForwardKeyed`](crate::Frame::SlabForwardKeyed) /
//! [`ApplyKeyed`](crate::Frame::ApplyKeyed) RPCs, while the ordered merge and
//! the leading contraction run on the coordinator through the *same*
//! [`kron_forward_from_parts`] / [`kron_transpose_from_parts`] code
//! [`LocalKernels`] uses. Workers run the same `kmatvec_*_trailing_slab`
//! kernels on the same slices, so — run through the one pipeline,
//! [`MechanismRequest::run`](hdmm_mechanism::MechanismRequest::run) — the
//! answers are **bitwise identical** to the plain single-node kernels for
//! any worker count: the exactness contract of [`hdmm_mechanism::sharded`]
//! extends across the wire unchanged.
//!
//! A warm request costs the local request plus vector traffic: everything
//! that depends only on the strategy — the
//! [`PreparedReconstruct`] inverse Grams / marginals algebra and the content
//! keys of the trailing-factor lists ([`OperandKeys`]) — is built once per
//! plan by the caller and passed in, and the factors themselves live on the
//! workers (see [`crate::wire`]), so tasks carry a key plus a slab reference
//! or a payload.
//!
//! Failure handling lives in [`WorkerPool`]: per-task timeouts, bounded
//! retry with doubling backoff, and shard reassignment to surviving workers
//! (the coordinator keeps the authoritative data, so a reassigned shard is
//! simply re-pushed). Only when *no* worker can complete a task does a
//! kernel surface a [`NetError`] — callers such as the serving engine then
//! rerun the request over [`LocalKernels`] with a reseeded RNG, preserving
//! byte-identity even through total pool loss.

use crate::client::{Operand, RetryPolicy, WorkerPool};
use crate::wire::{FactorKey, NetError};
use hdmm_linalg::{leading_split, partition_rows, Matrix, StructuredMatrix};
use hdmm_mechanism::{
    kron_forward_from_parts, kron_transpose_from_parts, Kernels, LocalKernels, PlanShape,
    PreparedReconstruct, Strategy,
};
use hdmm_obs::{Observer, Phase};
use hdmm_workload::Workload;
use std::ops::Range;
use std::time::Instant;

/// Configuration of the remote fan-out: the [`WorkerPool`] to connect.
#[derive(Debug, Clone, Default)]
pub struct RemoteOptions {
    /// Worker addresses (`host:port`) to register at connect time.
    pub workers: Vec<String>,
    /// Failure-handling policy for shard tasks.
    pub policy: RetryPolicy,
}

impl RemoteOptions {
    /// Connects the configured pool (best-effort: unreachable workers start
    /// dead and are retried lazily).
    pub fn connect(&self) -> WorkerPool {
        WorkerPool::connect(&self.workers, self.policy.clone())
    }
}

/// The content keys of every trailing-factor list [`RpcKernels`] names in
/// its tasks for one plan. Deriving a key encodes and checksums the whole
/// list, so this is built once per plan — memoized beside the plan's
/// [`PreparedReconstruct`] — never per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandKeys {
    /// One per measurement block, in MEASURE order: the trailing factors
    /// MEASURE applies forward and RECONSTRUCT applies transposed.
    blocks: Vec<FactorKey>,
    /// The trailing inverse-Gram factors (Kronecker strategies only).
    gram_pinv: Option<FactorKey>,
}

impl OperandKeys {
    /// Derives the keys for `strategy` and the `prepared` built from it.
    pub fn new(strategy: &Strategy, prepared: &PreparedReconstruct) -> Self {
        fn trailing_key<'a>(factors: impl IntoIterator<Item = &'a StructuredMatrix>) -> FactorKey {
            let refs: Vec<&StructuredMatrix> = factors.into_iter().collect();
            FactorKey::of(&leading_split(&refs).trailing)
        }
        let blocks = match strategy {
            Strategy::Explicit(_) => Vec::new(),
            Strategy::Kron(factors) => vec![trailing_key(factors)],
            Strategy::Union(groups) => groups.iter().map(|g| trailing_key(&g.factors)).collect(),
            Strategy::Marginals(m) => match prepared.marginals_algebra() {
                Some(algebra) => (0..m.theta.len())
                    .filter(|&a| m.theta[a] != 0.0)
                    .map(|a| trailing_key(&algebra.marginal_factors(a)))
                    .collect(),
                None => Vec::new(),
            },
        };
        let gram_pinv = match prepared {
            PreparedReconstruct::Kron { gram_pinvs } => Some(trailing_key(gram_pinvs)),
            _ => None,
        };
        OperandKeys { blocks, gram_pinv }
    }

    /// Every key the plan's tasks can name.
    pub fn keys(&self) -> impl Iterator<Item = FactorKey> + '_ {
        self.blocks.iter().copied().chain(self.gram_pinv)
    }

    /// The shape of the plan these keys were derived for; the pipeline's
    /// validation refuses to run them against a plan of another shape.
    pub fn shape(&self) -> PlanShape {
        PlanShape {
            kron_blocks: self.blocks.len(),
            inverse_grams: self.gram_pinv.is_some(),
        }
    }

    /// The key for measurement block `block`.
    fn block(&self, block: usize) -> Result<FactorKey, NetError> {
        self.blocks.get(block).copied().ok_or(NO_KEY)
    }
}

/// A task asked for a key the plan's [`OperandKeys`] do not hold — the
/// pipeline's validation rules this out, so it is typed rather than trusted.
const NO_KEY: NetError = NetError::Unsupported("no operand key for this product");

/// Runs one task per item on its own scoped thread (each blocks on an RPC)
/// and returns the per-item products in item order. A task thread that
/// panics — the observer is caller code — is reported as
/// [`NetError::TaskPanicked`] instead of unwinding through the request, so
/// the caller's reseeded local rerun takes over.
fn fan_out<I: Sync>(
    items: &[I],
    observer: &dyn Observer,
    phase: Phase,
    task: impl Fn(usize, &I) -> Result<Vec<f64>, NetError> + Sync,
) -> Result<Vec<Vec<f64>>, NetError> {
    let results: Vec<Result<Vec<f64>, NetError>> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(shard, item)| {
                let task = &task;
                s.spawn(move || {
                    let t = Instant::now();
                    let part = task(shard, item);
                    if part.is_ok() {
                        observer.shard_phase_complete(phase, shard, t.elapsed());
                    }
                    part
                })
            })
            .collect();
        // Join every thread before looking at any result: a scope that ends
        // with an unjoined panicked thread panics itself.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(NetError::TaskPanicked)))
            .collect()
    });
    results.into_iter().collect()
}

/// The RPC fan-out behind the [`Kernels`] seam: phase 1 of every Kronecker
/// product — the trailing factors over each slab or payload block — runs on
/// the worker pool; the merge and leading contraction run on the
/// coordinator through `local`'s executor and observer, exactly as
/// [`LocalKernels`] runs them. Explicit products (small 1-D domains, not
/// worth a round trip) and ANSWER (per-request workload factors, resident
/// nowhere) are `local`'s outright.
///
/// `keys` must be the [`OperandKeys`] of the plan being served. When
/// `local`'s observer traces, every RPC attempt of the fan-out (retries
/// included) and every worker-side kernel span shipped back in the replies
/// is recorded into it, parented under the phase spans it pre-allocates —
/// one connected span tree per request even across the wire; the `()`
/// observer runs untraced. Tracing never changes the computation: the
/// observer is consulted outside the numeric path.
pub struct RpcKernels<'a> {
    /// The workers.
    pub pool: &'a WorkerPool,
    /// The name the dataset's slabs are cached under on the workers.
    pub dataset: &'a str,
    /// The served plan's content keys.
    pub keys: &'a OperandKeys,
    /// The coordinator-side stages, the dataset view, and the observer the
    /// shard tasks and RPC spans are reported to.
    pub local: LocalKernels<'a>,
}

impl RpcKernels<'_> {
    /// The slab ranges on the leading axis of `factors`. A product that does
    /// not line up with them has no per-slab tasks to send; the caller
    /// reruns the request over [`LocalKernels`], which serve it plain.
    fn aligned(&self, factors: &[&StructuredMatrix]) -> Result<Vec<Range<usize>>, NetError> {
        self.local
            .aligned_ranges(factors)
            .ok_or(NetError::Unsupported(
                "slab boundaries do not align with the leading factor",
            ))
    }
}

impl Kernels for RpcKernels<'_> {
    type Error = NetError;

    fn cells(&self) -> usize {
        self.local.cells()
    }

    fn resident_plan(&self) -> Option<PlanShape> {
        Some(self.keys.shape())
    }

    fn explicit(&self, a: &Matrix) -> Result<Vec<f64>, NetError> {
        self.local.explicit(a).map_err(|never| match never {})
    }

    /// Slabs are cached on the workers, so tasks are
    /// [`SlabForwardKeyed`](crate::Frame::SlabForwardKeyed) RPCs naming one.
    fn forward(&self, block: usize, factors: &[&StructuredMatrix]) -> Result<Vec<f64>, NetError> {
        let phase = Phase::Measure;
        self.aligned(factors)?;
        let split = leading_split(factors);
        let trailing = Operand::keyed(self.keys.block(block)?, &split.trailing);
        let slabs = &self.local.view.slabs;
        let parts = fan_out(slabs, self.local.observer, phase, |shard, slab| {
            self.pool.run_slab_task(
                self.dataset,
                shard as u64,
                trailing,
                (slab.rows.start as u64, slab.rows.end as u64),
                slab.values,
                self.local.observer,
                phase,
            )
        })?;
        Ok(kron_forward_from_parts(
            factors,
            parts,
            self.local.exec,
            self.local.observer,
            phase,
        ))
    }

    /// Trailing transposes over measurement-axis blocks of `y` run as
    /// [`ApplyKeyed`](crate::Frame::ApplyKeyed) RPCs.
    fn transpose(
        &self,
        block: usize,
        factors: &[&StructuredMatrix],
        y: &[f64],
    ) -> Result<Vec<f64>, NetError> {
        let phase = Phase::Reconstruct;
        let domain_ranges = self.aligned(factors)?;
        let split = leading_split(factors);
        let rest_m = split.trailing_rows();
        let trailing = Operand::keyed(self.keys.block(block)?, &split.trailing);
        let y_blocks = partition_rows(split.leading.rows(), domain_ranges.len());
        let parts = fan_out(&y_blocks, self.local.observer, phase, |shard, b| {
            let payload = &y[b.start * rest_m..b.end * rest_m];
            self.pool
                .apply(true, trailing, payload, shard, self.local.observer, phase)
        })?;
        Ok(kron_transpose_from_parts(
            factors,
            parts,
            &domain_ranges,
            self.local.exec,
            self.local.observer,
            phase,
        ))
    }

    /// The intermediate lives on the coordinator, so payload slices ship
    /// with the [`ApplyKeyed`](crate::Frame::ApplyKeyed) requests.
    fn inverse_grams(
        &self,
        gram_pinvs: &[&StructuredMatrix],
        aty: &[f64],
    ) -> Result<Vec<f64>, NetError> {
        let phase = Phase::Reconstruct;
        let ranges = self.aligned(gram_pinvs)?;
        let split = leading_split(gram_pinvs);
        let rest_n = split.trailing_cols();
        let trailing = Operand::keyed(self.keys.gram_pinv.ok_or(NO_KEY)?, &split.trailing);
        let parts = fan_out(&ranges, self.local.observer, phase, |shard, r| {
            let payload = &aty[r.start * rest_n..r.end * rest_n];
            self.pool
                .apply(false, trailing, payload, shard, self.local.observer, phase)
        })?;
        Ok(kron_forward_from_parts(
            gram_pinvs,
            parts,
            self.local.exec,
            self.local.observer,
            phase,
        ))
    }

    fn answer(&self, workload: &Workload, x_hat: &[f64]) -> Vec<f64> {
        self.local.answer(workload, x_hat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerHandle, WorkerOptions};
    use hdmm_mechanism::{
        run_mechanism, MarginalsStrategy, MechanismRequest, MechanismResult, PipelineError,
        ScopedExecutor, ShardedView, UnionGroup,
    };
    use hdmm_workload::{blocks, builders, Domain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    fn spawn_pool(n: usize) -> (Vec<WorkerHandle>, WorkerPool) {
        let workers: Vec<WorkerHandle> = (0..n)
            .map(|_| spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap())
            .collect();
        let opts = RemoteOptions {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            policy: RetryPolicy {
                task_timeout: Duration::from_secs(2),
                attempts: 3,
                backoff: Duration::from_millis(5),
            },
        };
        (workers, opts.connect())
    }

    /// The pipeline over RPC kernels, with the per-plan state built on the
    /// spot (the engine memoizes it; a test has one request per plan anyway).
    fn run_remote(
        workload: &Workload,
        strategy: &Strategy,
        view: &ShardedView<'_>,
        pool: &WorkerPool,
        observer: &dyn Observer,
    ) -> Result<MechanismResult, PipelineError<NetError>> {
        let prepared = PreparedReconstruct::new(strategy);
        let keys = OperandKeys::new(strategy, &prepared);
        MechanismRequest {
            workload,
            strategy,
            prepared: &prepared,
            eps: 1.0,
            remaining: 1.0,
        }
        .run(
            &mut StdRng::seed_from_u64(42),
            &RpcKernels {
                pool,
                dataset: "test",
                keys: &keys,
                local: LocalKernels {
                    view,
                    exec: &ScopedExecutor::new(2),
                    observer,
                },
            },
            observer,
        )
    }

    fn strategies() -> Vec<(Workload, Strategy)> {
        vec![
            (
                builders::prefix_2d(6, 5),
                Strategy::kron(vec![
                    blocks::prefix(6).scaled(1.0 / 6.0),
                    blocks::prefix(5).scaled(0.2),
                ]),
            ),
            (
                builders::all_marginals(&Domain::new(&[4, 3])),
                Strategy::Marginals(MarginalsStrategy::uniform(Domain::new(&[4, 3]))),
            ),
            (
                builders::range_total_union_2d(4, 4),
                Strategy::Union(vec![
                    UnionGroup::new(
                        0.5,
                        vec![blocks::prefix(4).scaled(0.25), blocks::total(4)],
                        vec![0],
                    ),
                    UnionGroup::new(
                        0.5,
                        vec![blocks::total(4), blocks::prefix(4).scaled(0.25)],
                        vec![1],
                    ),
                ]),
            ),
        ]
    }

    #[test]
    fn remote_pipeline_is_bitwise_identical_to_plain() {
        for (w, s) in strategies() {
            let n = w.domain().size();
            let leading = w.domain().attr_size(0);
            let x = data(n);
            let plain = run_mechanism(&w, &s, &x, 1.0, &mut StdRng::seed_from_u64(42));
            for workers in [1usize, 2, 3] {
                let (_handles, pool) = spawn_pool(workers);
                let view = ShardedView::partitioned(leading, &x, 3);
                let got = run_remote(&w, &s, &view, &pool, &()).unwrap();
                assert!(
                    bits_eq(&got.answers, &plain.answers),
                    "{} workers={workers}: answers diverge",
                    s.kind()
                );
                assert!(
                    bits_eq(&got.x_hat, &plain.x_hat),
                    "{} workers={workers}: x_hat diverges",
                    s.kind()
                );
                let health = pool.health();
                assert!(
                    health.workers.iter().map(|h| h.tasks).sum::<u64>() > 0,
                    "workers must have served tasks"
                );
            }
        }
    }

    #[test]
    fn dead_pool_surfaces_a_net_error() {
        let (handles, pool) = spawn_pool(2);
        for h in &handles {
            h.kill();
        }
        std::thread::sleep(Duration::from_millis(20));
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = ShardedView::partitioned(4, &x, 2);
        let r = run_remote(&w, &s, &view, &pool, &());
        assert!(matches!(r, Err(PipelineError::Kernel(_))));
    }

    #[test]
    fn a_panicking_shard_task_is_a_net_error_not_a_request_panic() {
        /// Caller code on the fan-out threads: panics when shard 1 reports.
        struct PanicsOnShardOne;
        impl Observer for PanicsOnShardOne {
            fn shard_phase_complete(&self, _phase: Phase, shard: usize, _e: Duration) {
                assert_ne!(shard, 1, "observer bug");
            }
        }
        let (_handles, pool) = spawn_pool(2);
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = ShardedView::partitioned(4, &x, 2);
        let r = run_remote(&w, &s, &view, &pool, &PanicsOnShardOne);
        assert!(
            matches!(r, Err(PipelineError::Kernel(NetError::TaskPanicked))),
            "got {r:?}"
        );
    }
}
