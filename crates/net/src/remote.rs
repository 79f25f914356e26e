//! `RemoteExecutor`: the distributed MEASURE / RECONSTRUCT pipeline that
//! fans shard tasks out to TCP workers.
//!
//! The split of work mirrors the in-process sharded pipeline exactly: the
//! per-slab trailing-factor products (the bulk of the flops) become
//! [`SlabForwardKeyed`](crate::Frame::SlabForwardKeyed) /
//! [`ApplyKeyed`](crate::Frame::ApplyKeyed) RPCs, while the ordered merge and
//! the leading contraction run on the coordinator through the *same*
//! [`kron_forward_from_parts`] / [`kron_transpose_from_parts`] code the
//! local path uses. Workers run the same `kmatvec_*_trailing_slab` kernels
//! on the same slices, so the answers are **bitwise identical** to the dense
//! single-node pipeline for any worker count — the exactness contract of
//! [`hdmm_mechanism::sharded`] extends across the wire unchanged.
//!
//! A warm request costs the local request plus vector traffic: everything
//! that depends only on the strategy — the [`PreparedReconstruct`] inverse
//! Grams / marginals algebra and the content keys of the trailing-factor
//! lists ([`OperandKeys`]) — is built once per plan by the caller and passed
//! in, and the factors themselves live on the workers (see [`crate::wire`]),
//! so tasks carry a key plus a slab reference or a payload.
//!
//! Failure handling lives in [`WorkerPool`]: per-task timeouts, bounded
//! retry with doubling backoff, and shard reassignment to surviving workers
//! (the coordinator keeps the authoritative data, so a reassigned shard is
//! simply re-pushed). Only when *no* worker can complete a task does the
//! pipeline surface a [`RemoteError`] — callers such as the serving engine
//! then fall back to the local sharded path with a reseeded RNG, preserving
//! byte-identity even through total pool loss.

use crate::client::{Operand, PoolHealth, RetryPolicy, WorkerPool};
use crate::wire::{FactorKey, NetError};
use hdmm_linalg::{leading_split, partition_rows, StructuredMatrix};
use hdmm_mechanism::{
    answer_sharded, explicit_forward_sharded, kron_forward_from_parts, kron_transpose_from_parts,
    measure_with, reconstruct_with, Measurements, MechanismError, MechanismPhase, MechanismResult,
    PhaseObserver, PreparedReconstruct, ScopedExecutor, ShardExecutor, ShardedView, Strategy,
};
use hdmm_obs::SpanSink;
use hdmm_workload::Workload;
use rand::Rng;
use std::ops::Range;
use std::time::Instant;

/// Configuration for a [`RemoteExecutor`].
#[derive(Debug, Clone, Default)]
pub struct RemoteOptions {
    /// Worker addresses (`host:port`) to register at connect time.
    pub workers: Vec<String>,
    /// Failure-handling policy for shard tasks.
    pub policy: RetryPolicy,
    /// Threads for the coordinator-local stages (merge-side contractions and
    /// ANSWER); 0 ⇒ available parallelism.
    pub local_threads: usize,
}

/// A failure of the remote pipeline.
#[derive(Debug)]
pub enum RemoteError {
    /// Request validation failed (budget, epsilon, data shape) — the same
    /// typed errors the local pipeline raises; retrying locally cannot help.
    Mechanism(MechanismError),
    /// The worker pool could not complete a shard task (after retry and
    /// reassignment). The request is still servable locally.
    Net(NetError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Mechanism(e) => write!(f, "{e}"),
            RemoteError::Net(e) => write!(f, "remote shard fan-out failed: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<MechanismError> for RemoteError {
    fn from(e: MechanismError) -> Self {
        RemoteError::Mechanism(e)
    }
}

impl From<NetError> for RemoteError {
    fn from(e: NetError) -> Self {
        RemoteError::Net(e)
    }
}

/// The content keys of every trailing-factor list the remote pipeline names
/// in its tasks for one plan. Deriving a key encodes and checksums the whole
/// list, so this is built once per plan — memoized beside the plan's
/// [`PreparedReconstruct`] — never per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandKeys {
    /// One per measurement block, in [`measure_with`] order: the trailing
    /// factors MEASURE applies forward and RECONSTRUCT applies transposed.
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

    /// The key for measurement block `block`; a miss means the keys were
    /// built for a different plan, which the caller serves locally instead.
    fn block(&self, block: usize) -> Result<FactorKey, NetError> {
        self.blocks.get(block).copied().ok_or(MISMATCHED_PLAN)
    }

    /// Refuses state that visibly belongs to another strategy — a different
    /// family, or a different number of measurement blocks — before any
    /// task names a key. (State of the right shape built from different
    /// factors is the caller's contract, as it is for
    /// [`reconstruct_with`].)
    fn check(&self, strategy: &Strategy, prepared: &PreparedReconstruct) -> Result<(), NetError> {
        let blocks = match (strategy, prepared) {
            (Strategy::Explicit(_), PreparedReconstruct::Explicit { .. }) => 0,
            (Strategy::Kron(_), PreparedReconstruct::Kron { .. }) => 1,
            (Strategy::Union(groups), PreparedReconstruct::Union) => groups.len(),
            (Strategy::Marginals(m), PreparedReconstruct::Marginals { .. }) => {
                m.theta.iter().filter(|&&t| t != 0.0).count()
            }
            _ => return Err(MISMATCHED_PLAN),
        };
        let kron = matches!(strategy, Strategy::Kron(_));
        if self.blocks.len() == blocks && self.gram_pinv.is_some() == kron {
            Ok(())
        } else {
            Err(MISMATCHED_PLAN)
        }
    }
}

/// `prepared` / `keys` do not belong to the strategy they were passed with.
const MISMATCHED_PLAN: NetError =
    NetError::Unsupported("prepared state was built for a different strategy");

/// The distributed shard executor: a worker pool for the RPC fan-out plus a
/// local scoped-thread executor for the coordinator-side stages.
///
/// Implements [`ShardExecutor`] (delegating to the local executor) so it
/// slots anywhere the in-process fan-out does — the merge and leading
/// contractions of the remote pipeline run through exactly that
/// implementation.
pub struct RemoteExecutor {
    pool: WorkerPool,
    local: ScopedExecutor,
}

impl RemoteExecutor {
    /// Connects to the configured workers (best-effort: unreachable workers
    /// start dead and are retried lazily).
    pub fn connect(opts: &RemoteOptions) -> Self {
        RemoteExecutor {
            pool: WorkerPool::connect(&opts.workers, opts.policy.clone()),
            local: ScopedExecutor::new(opts.local_threads),
        }
    }

    /// The worker pool (registry, routing, health).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The coordinator-local executor used for merge-side stages.
    pub fn local(&self) -> &ScopedExecutor {
        &self.local
    }

    /// Point-in-time pool health for `Engine::metrics()`.
    pub fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// Registers one more worker at runtime; fails unless it answers a ping.
    pub fn add_worker(&self, addr: &str) -> Result<(), NetError> {
        self.pool.add_worker(addr)
    }

    /// Eagerly pushes every slab of `view` to its primary worker. Purely a
    /// warm-up: `run_slab_task` re-pushes on demand, so failures here only
    /// cost first-request latency.
    pub fn preload(&self, dataset: &str, view: &ShardedView<'_>) -> Result<(), NetError> {
        for (i, slab) in view.slabs.iter().enumerate() {
            self.pool.load_slab(
                dataset,
                i as u64,
                (slab.rows.start as u64, slab.rows.end as u64),
                slab.values,
            )?;
        }
        Ok(())
    }
}

impl ShardExecutor for RemoteExecutor {
    fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        self.local.run(tasks);
    }
}

impl std::fmt::Debug for RemoteExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteExecutor")
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

/// Runs one task per item on its own scoped thread (each blocks on an RPC)
/// and returns the per-item products in item order. A task thread that
/// panics — an observer or span sink is caller code — is reported as
/// [`NetError::TaskPanicked`] instead of unwinding through the request, so
/// the caller's reseeded local fallback takes over.
fn fan_out<I: Sync>(
    items: &[I],
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
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

/// The remote forward fan-out over a dataset's slabs: phase 1 runs as
/// [`SlabForwardKeyed`](crate::Frame::SlabForwardKeyed) RPCs (slabs are
/// cached on workers), the merge and leading contraction run locally through
/// [`kron_forward_from_parts`] — bitwise identical to
/// [`kron_forward_sharded`](hdmm_mechanism::kron_forward_sharded).
#[allow(clippy::too_many_arguments)]
fn kron_forward_remote(
    exec: &RemoteExecutor,
    dataset: &str,
    factors: &[&StructuredMatrix],
    key: FactorKey,
    view: &ShardedView<'_>,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    sink: &dyn SpanSink,
) -> Result<Vec<f64>, NetError> {
    let split = leading_split(factors);
    if view
        .ranges_on_axis(split.leading.cols(), split.trailing_cols())
        .is_none()
    {
        return Err(NetError::Unsupported(
            "slab boundaries do not align with the leading factor",
        ));
    }
    let trailing = Operand::keyed(key, &split.trailing);
    let parts = fan_out(&view.slabs, observer, phase, |shard, slab| {
        exec.pool().run_slab_task(
            dataset,
            shard as u64,
            trailing,
            (slab.rows.start as u64, slab.rows.end as u64),
            slab.values,
            sink,
            phase.name(),
        )
    })?;
    Ok(kron_forward_from_parts(
        factors,
        parts,
        exec.local(),
        observer,
        phase,
    ))
}

/// The remote forward fan-out over a coordinator-held intermediate (the
/// inverse-Gram pass of RECONSTRUCT): payload slices ship with the request.
#[allow(clippy::too_many_arguments)]
fn kron_forward_remote_payload(
    exec: &RemoteExecutor,
    factors: &[&StructuredMatrix],
    key: FactorKey,
    x: &[f64],
    ranges: &[Range<usize>],
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    sink: &dyn SpanSink,
) -> Result<Vec<f64>, NetError> {
    let split = leading_split(factors);
    let rest_n = split.trailing_cols();
    let trailing = Operand::keyed(key, &split.trailing);
    let parts = fan_out(ranges, observer, phase, |shard, r| {
        let payload = &x[r.start * rest_n..r.end * rest_n];
        exec.pool()
            .apply(false, trailing, payload, shard, sink, phase.name())
    })?;
    Ok(kron_forward_from_parts(
        factors,
        parts,
        exec.local(),
        observer,
        phase,
    ))
}

/// The remote transposed fan-out: trailing transposes run as
/// [`ApplyKeyed`](crate::Frame::ApplyKeyed) RPCs over measurement-axis blocks, the
/// merge and leading transpose run locally — bitwise identical to
/// [`kron_transpose_sharded`](hdmm_mechanism::kron_transpose_sharded).
#[allow(clippy::too_many_arguments)]
fn kron_transpose_remote(
    exec: &RemoteExecutor,
    factors: &[&StructuredMatrix],
    key: FactorKey,
    y: &[f64],
    domain_ranges: &[Range<usize>],
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    sink: &dyn SpanSink,
) -> Result<Vec<f64>, NetError> {
    let split = leading_split(factors);
    let rest_m = split.trailing_rows();
    let trailing = Operand::keyed(key, &split.trailing);
    let y_blocks = partition_rows(split.leading.rows(), domain_ranges.len());
    let parts = fan_out(&y_blocks, observer, phase, |shard, b| {
        let payload = &y[b.start * rest_m..b.end * rest_m];
        exec.pool()
            .apply(true, trailing, payload, shard, sink, phase.name())
    })?;
    Ok(kron_transpose_from_parts(
        factors,
        parts,
        domain_ranges,
        exec.local(),
        observer,
        phase,
    ))
}

/// Remote RECONSTRUCT, mirroring
/// [`reconstruct_sharded_with`](hdmm_mechanism::reconstruct_sharded_with)
/// stage for stage: Kronecker strategies fan both passes out over the wire;
/// explicit and union strategies keep the local serial path (small domains /
/// global LSMR solve); marginals fan the per-marginal `Mᵀy` out and keep the
/// subset-algebra application local. Nothing that depends only on the
/// strategy is built here — it all comes from `prepared` and `keys`.
#[allow(clippy::too_many_arguments)]
fn reconstruct_remote(
    strategy: &Strategy,
    prepared: &PreparedReconstruct,
    keys: &OperandKeys,
    meas: &Measurements,
    view: &ShardedView<'_>,
    exec: &RemoteExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    sink: &dyn SpanSink,
) -> Result<Vec<f64>, NetError> {
    let phase = MechanismPhase::Reconstruct;
    match (strategy, prepared) {
        (Strategy::Explicit(_), PreparedReconstruct::Explicit { .. })
        | (Strategy::Union(_), PreparedReconstruct::Union) => {
            Ok(reconstruct_with(prepared, strategy, meas))
        }
        (Strategy::Kron(factors), PreparedReconstruct::Kron { gram_pinvs }) => {
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            let split = leading_split(&refs);
            let Some(ranges) = view.ranges_on_axis(split.leading.cols(), split.trailing_cols())
            else {
                return Ok(reconstruct_with(prepared, strategy, meas));
            };
            let pinv_key = keys.gram_pinv.ok_or(MISMATCHED_PLAN)?;
            let y = &meas.blocks.first().ok_or(MISMATCHED_PLAN)?.noisy;
            let aty = kron_transpose_remote(
                exec,
                &refs,
                keys.block(0)?,
                y,
                &ranges,
                observer,
                phase,
                sink,
            )?;
            let pinv_refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
            kron_forward_remote_payload(
                exec, &pinv_refs, pinv_key, &aty, &ranges, observer, phase, sink,
            )
        }
        (Strategy::Marginals(m), PreparedReconstruct::Marginals { algebra, v }) => {
            if view.leading != m.domain.attr_size(0) {
                return Ok(reconstruct_with(prepared, strategy, meas));
            }
            let n = m.domain.size();
            let domain_ranges: Vec<Range<usize>> =
                view.slabs.iter().map(|s| s.rows.clone()).collect();
            let mut mty = vec![0.0; n];
            let measured = (0..m.theta.len()).filter(|&a| m.theta[a] != 0.0);
            for (i, a) in measured.enumerate() {
                let block = meas.blocks.get(i).ok_or(MISMATCHED_PLAN)?;
                let q = algebra.marginal_factors(a);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                let back = kron_transpose_remote(
                    exec,
                    &refs,
                    keys.block(i)?,
                    &block.noisy,
                    &domain_ranges,
                    observer,
                    phase,
                    sink,
                )?;
                let theta = m.theta[a];
                for (acc, b) in mty.iter_mut().zip(&back) {
                    *acc += theta * b;
                }
            }
            Ok(algebra.g_apply(v, &mty))
        }
        _ => Err(MISMATCHED_PLAN),
    }
}

/// The full checked remote pipeline with per-phase timing: budget-validated
/// MEASURE with the slab fan-out over the worker pool, remote RECONSTRUCT,
/// and local sharded ANSWER over the reconstructed estimate.
///
/// `prepared` and `keys` are the strategy-only state, built once per plan
/// from `strategy` ([`PreparedReconstruct::new`], [`OperandKeys::new`]) and
/// reused by every request. State of another strategy family or block count
/// is refused with a typed [`NetError::Unsupported`]; beyond that, pairing
/// them with the strategy they were built from is the caller's contract.
///
/// Results are bitwise identical to
/// [`try_run_mechanism_sharded_prepared_observed`](hdmm_mechanism::try_run_mechanism_sharded_prepared_observed)
/// on the same view with the same RNG — and therefore to the plain dense
/// pipeline — for every worker count. On [`RemoteError::Net`] the RNG may be
/// partially consumed; callers that fall back locally must reseed.
///
/// Pass [`NoopSpanSink`](hdmm_obs::NoopSpanSink) as `sink` to run untraced.
/// When `sink` traces, every RPC attempt of the fan-out (retries included)
/// and every worker-side kernel span shipped back in the replies is recorded
/// into it, parented under the phase spans the sink pre-allocates — giving
/// one connected span tree per request even across the wire. Tracing never
/// changes the computation: the sink is consulted outside the numeric path.
#[allow(clippy::too_many_arguments)]
pub fn try_run_mechanism_remote_traced(
    workload: &Workload,
    strategy: &Strategy,
    prepared: &PreparedReconstruct,
    keys: &OperandKeys,
    dataset: &str,
    view: &ShardedView<'_>,
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    exec: &RemoteExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    sink: &dyn SpanSink,
) -> Result<MechanismResult, RemoteError> {
    if !(eps.is_finite() && eps > 0.0) {
        return Err(MechanismError::InvalidEpsilon { eps }.into());
    }
    if eps > remaining * (1.0 + 1e-12) {
        return Err(MechanismError::BudgetExhausted {
            requested: eps,
            remaining,
        }
        .into());
    }
    let expected = workload.domain().size();
    if view.total_len() != expected {
        return Err(MechanismError::DataVectorMismatch {
            expected,
            got: view.total_len(),
        }
        .into());
    }

    keys.check(strategy, prepared)?;

    let phase = MechanismPhase::Measure;
    let t = Instant::now();
    let meas = measure_with(
        strategy,
        prepared.marginals_algebra(),
        eps,
        rng,
        &mut |a| {
            // Explicit strategies live on small 1-D domains — not worth a
            // round-trip; identical to the local sharded path by definition.
            let x = view.assemble();
            Ok(explicit_forward_sharded(
                a,
                &x,
                view.shard_count(),
                exec.local(),
                observer,
                phase,
            ))
        },
        &mut |block, refs| {
            let key = keys.block(block)?;
            kron_forward_remote(exec, dataset, refs, key, view, observer, phase, sink)
        },
    )?;
    observer.phase_complete(MechanismPhase::Measure, t.elapsed());

    let t = Instant::now();
    let x_hat = reconstruct_remote(strategy, prepared, keys, &meas, view, exec, observer, sink)?;
    observer.phase_complete(MechanismPhase::Reconstruct, t.elapsed());

    let t = Instant::now();
    let answers = answer_sharded(workload, &x_hat, view.shard_count(), exec.local(), observer);
    observer.phase_complete(MechanismPhase::Answer, t.elapsed());

    Ok(MechanismResult { x_hat, answers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerHandle, WorkerOptions};
    use hdmm_mechanism::{
        try_run_mechanism, DataSlab, MarginalsStrategy, NoopObserver, UnionGroup,
    };
    use hdmm_obs::NoopSpanSink;
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

    fn view_of(x: &[f64], leading: usize, shards: usize) -> ShardedView<'_> {
        let stride = x.len() / leading;
        let slabs = partition_rows(leading, shards)
            .into_iter()
            .map(|r| DataSlab {
                rows: r.clone(),
                values: &x[r.start * stride..r.end * stride],
            })
            .collect();
        ShardedView::new(leading, slabs)
    }

    fn spawn_pool(n: usize) -> (Vec<WorkerHandle>, RemoteExecutor) {
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
            local_threads: 2,
        };
        let exec = RemoteExecutor::connect(&opts);
        (workers, exec)
    }

    /// The pipeline under test with the per-plan state built on the spot
    /// (the engine memoizes it; a test has one request per plan anyway).
    #[allow(clippy::too_many_arguments)]
    fn run_remote(
        workload: &Workload,
        strategy: &Strategy,
        dataset: &str,
        view: &ShardedView<'_>,
        eps: f64,
        remaining: f64,
        rng: &mut StdRng,
        exec: &RemoteExecutor,
        observer: &impl PhaseObserver,
    ) -> Result<MechanismResult, RemoteError> {
        let prepared = PreparedReconstruct::new(strategy);
        let keys = OperandKeys::new(strategy, &prepared);
        try_run_mechanism_remote_traced(
            workload,
            strategy,
            &prepared,
            &keys,
            dataset,
            view,
            eps,
            remaining,
            rng,
            exec,
            observer,
            &NoopSpanSink,
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
            let plain =
                try_run_mechanism(&w, &s, &x, 1.0, 1.0, &mut StdRng::seed_from_u64(42)).unwrap();
            for workers in [1usize, 2, 3] {
                let (_handles, exec) = spawn_pool(workers);
                let view = view_of(&x, leading, 3);
                let got = run_remote(
                    &w,
                    &s,
                    "test",
                    &view,
                    1.0,
                    1.0,
                    &mut StdRng::seed_from_u64(42),
                    &exec,
                    &NoopObserver,
                )
                .unwrap();
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
                let health = exec.health();
                assert!(
                    health.workers.iter().map(|h| h.tasks).sum::<u64>() > 0,
                    "workers must have served tasks"
                );
            }
        }
    }

    #[test]
    fn remote_validation_is_typed() {
        let (_handles, exec) = spawn_pool(1);
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = view_of(&x, 4, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            run_remote(&w, &s, "d", &view, 2.0, 1.0, &mut rng, &exec, &NoopObserver),
            Err(RemoteError::Mechanism(
                MechanismError::BudgetExhausted { .. }
            ))
        ));
    }

    #[test]
    fn dead_pool_surfaces_a_net_error() {
        let (handles, exec) = spawn_pool(2);
        for h in &handles {
            h.kill();
        }
        std::thread::sleep(Duration::from_millis(20));
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = view_of(&x, 4, 2);
        let r = run_remote(
            &w,
            &s,
            "d",
            &view,
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(0),
            &exec,
            &NoopObserver,
        );
        assert!(matches!(r, Err(RemoteError::Net(_))));
    }

    #[test]
    fn a_panicking_shard_task_is_a_net_error_not_a_request_panic() {
        /// Caller code on the fan-out threads: panics when shard 1 reports.
        struct PanicsOnShardOne;
        impl PhaseObserver for PanicsOnShardOne {
            fn phase_complete(&self, _phase: MechanismPhase, _elapsed: Duration) {}
            fn shard_phase_complete(&self, _phase: MechanismPhase, shard: usize, _e: Duration) {
                assert_ne!(shard, 1, "observer bug");
            }
        }
        let (_handles, exec) = spawn_pool(2);
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let x = data(16);
        let view = view_of(&x, 4, 2);
        let r = run_remote(
            &w,
            &s,
            "d",
            &view,
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(0),
            &exec,
            &PanicsOnShardOne,
        );
        assert!(
            matches!(r, Err(RemoteError::Net(NetError::TaskPanicked))),
            "got {r:?}"
        );
    }

    #[test]
    fn state_prepared_for_another_strategy_family_is_refused() {
        let (_handles, exec) = spawn_pool(1);
        let w = builders::prefix_2d(4, 4);
        let s = Strategy::kron(vec![blocks::prefix(4), blocks::prefix(4)]);
        let other = Strategy::Marginals(MarginalsStrategy::uniform(Domain::new(&[4, 4])));
        let prepared = PreparedReconstruct::new(&other);
        let keys = OperandKeys::new(&other, &prepared);
        let x = data(16);
        let view = view_of(&x, 4, 2);
        let r = try_run_mechanism_remote_traced(
            &w,
            &s,
            &prepared,
            &keys,
            "d",
            &view,
            1.0,
            1.0,
            &mut StdRng::seed_from_u64(0),
            &exec,
            &NoopObserver,
            &NoopSpanSink,
        );
        assert!(
            matches!(r, Err(RemoteError::Net(NetError::Unsupported(_)))),
            "got {r:?}"
        );
    }
}
