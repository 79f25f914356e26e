//! The RPC fan-out: [`RpcKernels`], the [`Kernels`] implementation that
//! sends the per-slab tasks of MEASURE / RECONSTRUCT to TCP shard workers.
//!
//! A Kronecker product over a vector held in leading-axis slabs splits into
//! the per-slab trailing-factor products (the bulk of the flops), their
//! ordered concatenation, and one leading contraction
//! ([`hdmm_linalg::slab_split`]). The first stage becomes
//! [`SlabForwardKeyed`](crate::Frame::SlabForwardKeyed) /
//! [`ApplyKeyed`](crate::Frame::ApplyKeyed) RPCs; the merge and the leading
//! contraction run on the coordinator, through the same
//! [`contract_rows`] / [`contract_transpose_rows`] kernel the plain product
//! runs. Workers run the `kmatvec_*_trailing_slab` kernels on the same
//! slices, so — run through the one pipeline,
//! [`MechanismRequest::run`](hdmm_mechanism::MechanismRequest::run) — the
//! answers are **bitwise identical** to the plain single-node kernels for
//! any worker count. The slabs are those of the registered
//! [`ShardedDataVector`], borrowed as is; everything the workers do not hold
//! runs on [`PlainKernels`] over its whole vector.
//!
//! A warm request costs the local request plus vector traffic: everything
//! that depends only on the strategy — the [`PreparedReconstruct`]'s
//! measured products and solve, and the content keys of their
//! trailing-factor lists ([`OperandKeys`]) — is built once per
//! plan by the caller and passed in, and the factors themselves live on the
//! workers (see [`crate::wire`]), so tasks carry a key plus a slab reference
//! or a payload.
//!
//! Failure handling lives in [`WorkerPool`]: per-task timeouts, bounded
//! retry with doubling backoff, and shard reassignment to surviving workers
//! (the coordinator keeps the authoritative data, so a reassigned shard is
//! simply re-pushed). Only when *no* worker can complete a task does a
//! kernel surface a [`NetError`] — callers such as the serving engine then
//! rerun the request over [`PlainKernels`] with a reseeded RNG, preserving
//! byte-identity even through total pool loss.

use crate::client::{Operand, RetryPolicy, WorkerPool};
use crate::wire::{FactorKey, NetError};
use hdmm_core::ShardedDataVector;
use hdmm_linalg::{
    contract_rows, contract_transpose_rows, leading_split, partition_rows, slab_split,
    StructuredMatrix,
};
use hdmm_mechanism::{Kernels, PlainKernels, PlanShape, PreparedReconstruct};
use hdmm_obs::{Observer, Phase};
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
    /// One per measured product, in MEASURE order: the trailing factors
    /// MEASURE applies forward and RECONSTRUCT applies transposed.
    blocks: Vec<FactorKey>,
    /// The trailing inverse-Gram factors (single-product plans only).
    gram_pinv: Option<FactorKey>,
}

impl OperandKeys {
    /// Derives the keys for the `prepared` plan's products and inverse Grams.
    pub fn new(prepared: &PreparedReconstruct) -> Self {
        fn trailing_key(factors: &[StructuredMatrix]) -> FactorKey {
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            FactorKey::of(&leading_split(&refs).trailing)
        }
        OperandKeys {
            blocks: prepared
                .products()
                .iter()
                .map(|p| trailing_key(&p.factors))
                .collect(),
            gram_pinv: prepared.inverse_grams().map(trailing_key),
        }
    }

    /// Every key the plan's tasks can name.
    pub fn keys(&self) -> impl Iterator<Item = FactorKey> + '_ {
        self.blocks.iter().copied().chain(self.gram_pinv)
    }

    /// The shape of the plan these keys were derived for; the pipeline's
    /// validation refuses to run them against a plan of another shape.
    pub fn shape(&self) -> PlanShape {
        PlanShape {
            products: self.blocks.len(),
            inverse_grams: self.gram_pinv.is_some(),
        }
    }

    /// The key for measured product `block`.
    fn block(&self, block: usize) -> Result<FactorKey, NetError> {
        self.blocks.get(block).copied().ok_or(NO_KEY)
    }
}

/// A task asked for a key the plan's [`OperandKeys`] do not hold — the
/// pipeline's validation rules this out, so it is typed rather than trusted.
const NO_KEY: NetError = NetError::Unsupported("no operand key for this product");

/// Runs tasks `0..shards`, each on its own scoped thread (each blocks on an
/// RPC), and returns the per-shard products in shard order. A task thread
/// that panics — the observer is caller code — is reported as
/// [`NetError::TaskPanicked`] instead of unwinding through the request, so
/// the caller's reseeded local rerun takes over.
fn fan_out(
    shards: usize,
    observer: &dyn Observer,
    phase: Phase,
    task: impl Fn(usize) -> Result<Vec<f64>, NetError> + Sync,
) -> Result<Vec<Vec<f64>>, NetError> {
    let results: Vec<Result<Vec<f64>, NetError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let task = &task;
                s.spawn(move || {
                    let t = Instant::now();
                    let part = task(shard);
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

/// The coordinator's half of a sliced product: the ordered merge of the
/// per-slab trailing products `parts` (slab order, or measurement-block
/// order transposed), then the leading contraction over all of its output
/// rows. `factors` must have a [`slab_split`] in direction `transpose`; the
/// result is then bitwise the plain product — the plain driver contracts the
/// leading mode last through the same kernel, and a row block of that
/// kernel is bitwise its all-rows call's rows.
fn merge_and_contract_leading(
    factors: &[&StructuredMatrix],
    parts: Vec<Vec<f64>>,
    transpose: bool,
) -> Vec<f64> {
    let split = leading_split(factors);
    let merged = parts.concat();
    let leading = split.leading;
    let (rows, right) = match transpose {
        false => (leading.rows(), split.trailing_rows()),
        true => (leading.cols(), split.trailing_cols()),
    };
    let mut out = vec![0.0; rows * right];
    let contract = if transpose {
        contract_transpose_rows
    } else {
        contract_rows
    };
    contract(leading, &merged, &mut out, 1, right, 0..rows);
    out
}

/// The RPC fan-out behind the [`Kernels`] seam: phase 1 of every sliceable
/// Kronecker product — the trailing factors over each slab or payload block
/// — runs on the worker pool, and the merge and leading contraction on the
/// coordinator. Products with no [`slab_split`], and products with no
/// trailing factors (a 1-D plan, whose per-slab task would be an identity
/// copy), run on [`PlainKernels`] over the whole vector.
///
/// `keys` must be the [`OperandKeys`] of the plan being served. When
/// `observer` traces, every RPC attempt of the fan-out (retries included)
/// and every worker-side kernel span shipped back in the replies is recorded
/// into it, parented under the phase spans it pre-allocates — one connected
/// span tree per request even across the wire; the `()` observer runs
/// untraced. Tracing never changes the computation: the observer is
/// consulted outside the numeric path.
pub struct RpcKernels<'a> {
    /// The workers.
    pub pool: &'a WorkerPool,
    /// The name the dataset's slabs are cached under on the workers.
    pub dataset: &'a str,
    /// The served plan's content keys.
    pub keys: &'a OperandKeys,
    /// The dataset, and the slabs the workers hold.
    pub data: &'a ShardedDataVector,
    /// Receives one [`Observer::shard_phase_complete`] per task, and the
    /// RPC spans.
    pub observer: &'a dyn Observer,
}

impl RpcKernels<'_> {
    /// The plain kernels over the whole dataset.
    fn plain(&self) -> PlainKernels<'_> {
        PlainKernels::over(self.data.values())
    }

    /// Whether the product of `factors` in direction `transpose` runs on the
    /// workers: it has a [`slab_split`] with trailing factors to send.
    fn sliced(factors: &[&StructuredMatrix], transpose: bool) -> bool {
        slab_split(factors, transpose).is_some_and(|split| !split.trailing.is_empty())
    }

    /// The slab ranges on the input axis of `factors`' leading leaf. A
    /// product that does not line up with the slabs has none; the caller
    /// reruns the request over [`PlainKernels`].
    fn aligned(&self, factors: &[&StructuredMatrix]) -> Result<Vec<Range<usize>>, NetError> {
        let split = leading_split(factors);
        self.data
            .ranges_on_axis(split.leading.cols(), split.trailing_cols())
            .ok_or(NetError::Unsupported(
                "slab boundaries do not align with the leading factor",
            ))
    }
}

/// The plain kernels never fail.
fn infallible<T>(r: Result<T, std::convert::Infallible>) -> Result<T, NetError> {
    r.map_err(|never| match never {})
}

impl Kernels for RpcKernels<'_> {
    type Error = NetError;

    fn data(&self) -> &[f64] {
        self.data.values()
    }

    fn resident_plan(&self) -> Option<PlanShape> {
        Some(self.keys.shape())
    }

    /// Slabs are cached on the workers, so tasks are
    /// [`SlabForwardKeyed`](crate::Frame::SlabForwardKeyed) RPCs naming one.
    fn forward(&self, block: usize, factors: &[&StructuredMatrix]) -> Result<Vec<f64>, NetError> {
        if !Self::sliced(factors, false) {
            return infallible(self.plain().forward(block, factors));
        }
        // A slab task runs the trailing factors over whole leading rows.
        self.aligned(factors)?;
        let phase = Phase::Measure;
        let split = leading_split(factors);
        let trailing = Operand::keyed(self.keys.block(block)?, &split.trailing);
        let parts = fan_out(self.data.shard_count(), self.observer, phase, |shard| {
            let (rows, values) = self.data.slab(shard);
            self.pool.run_slab_task(
                self.dataset,
                shard as u64,
                trailing,
                (rows.start as u64, rows.end as u64),
                values,
                self.observer,
                phase,
            )
        })?;
        Ok(merge_and_contract_leading(factors, parts, false))
    }

    /// Trailing transposes over measurement-axis blocks of `y` run as
    /// [`ApplyKeyed`](crate::Frame::ApplyKeyed) RPCs, one block per slab.
    fn transpose(
        &self,
        block: usize,
        factors: &[&StructuredMatrix],
        y: &[f64],
    ) -> Result<Vec<f64>, NetError> {
        if !Self::sliced(factors, true) {
            return infallible(self.plain().transpose(block, factors, y));
        }
        let phase = Phase::Reconstruct;
        let split = leading_split(factors);
        let rest_m = split.trailing_rows();
        let trailing = Operand::keyed(self.keys.block(block)?, &split.trailing);
        let y_blocks = partition_rows(split.leading.rows(), self.data.shard_count());
        let parts = fan_out(y_blocks.len(), self.observer, phase, |shard| {
            let b = &y_blocks[shard];
            let payload = &y[b.start * rest_m..b.end * rest_m];
            self.pool
                .apply(true, trailing, payload, shard, self.observer, phase)
        })?;
        Ok(merge_and_contract_leading(factors, parts, true))
    }

    /// The intermediate lives on the coordinator, so payload slices — `Aᵀy`
    /// cut like the data, inverse Grams being square — ship with the
    /// [`ApplyKeyed`](crate::Frame::ApplyKeyed) requests.
    fn inverse_grams(
        &self,
        gram_pinvs: &[&StructuredMatrix],
        aty: &[f64],
    ) -> Result<Vec<f64>, NetError> {
        if !Self::sliced(gram_pinvs, false) {
            return infallible(self.plain().inverse_grams(gram_pinvs, aty));
        }
        let ranges = self.aligned(gram_pinvs)?;
        let phase = Phase::Reconstruct;
        let split = leading_split(gram_pinvs);
        let rest_n = split.trailing_cols();
        let trailing = Operand::keyed(self.keys.gram_pinv.ok_or(NO_KEY)?, &split.trailing);
        let parts = fan_out(ranges.len(), self.observer, phase, |shard| {
            let r = &ranges[shard];
            let payload = &aty[r.start * rest_n..r.end * rest_n];
            self.pool
                .apply(false, trailing, payload, shard, self.observer, phase)
        })?;
        Ok(merge_and_contract_leading(gram_pinvs, parts, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerHandle, WorkerOptions};
    use hdmm_mechanism::{
        run_mechanism, MarginalsStrategy, MechanismRequest, MechanismResult, PipelineError,
        Strategy, UnionGroup,
    };
    use hdmm_workload::{blocks, builders, Domain, Workload};
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
        data: &ShardedDataVector,
        pool: &WorkerPool,
        observer: &dyn Observer,
    ) -> Result<MechanismResult, PipelineError<NetError>> {
        let prepared = PreparedReconstruct::new(strategy);
        let keys = OperandKeys::new(&prepared);
        MechanismRequest {
            workload,
            prepared: &prepared,
            eps: 1.0,
        }
        .run(
            &mut StdRng::seed_from_u64(42),
            &RpcKernels {
                pool,
                dataset: "test",
                keys: &keys,
                data,
                observer,
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
                Strategy::Union([
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
            let x = data(w.domain().size());
            let plain = run_mechanism(&w, &s, &x, 1.0, &mut StdRng::seed_from_u64(42));
            for workers in [1usize, 2, 3] {
                let (_handles, pool) = spawn_pool(workers);
                let sharded = ShardedDataVector::partition(w.domain(), x.clone(), 3);
                let got = run_remote(&w, &s, &sharded, &pool, &()).unwrap();
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
        let sharded = ShardedDataVector::partition(w.domain(), data(16), 2);
        let r = run_remote(&w, &s, &sharded, &pool, &());
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
        let sharded = ShardedDataVector::partition(w.domain(), data(16), 2);
        let r = run_remote(&w, &s, &sharded, &pool, &PanicsOnShardOne);
        assert!(
            matches!(r, Err(PipelineError::Kernel(NetError::TaskPanicked))),
            "got {r:?}"
        );
    }
}
