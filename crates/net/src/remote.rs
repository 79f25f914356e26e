//! The RPC fan-out: [`RpcKernels`], the [`Kernels`] implementation that
//! sends MEASURE's per-slab tasks to TCP shard workers.
//!
//! A product leaves the coordinator only when its input already lives on a
//! worker, and only MEASURE's input does: the dataset, held there in slabs.
//! RECONSTRUCT works on the noisy answers the coordinator holds, so it runs
//! there ([`reconstruct_on`](hdmm_mechanism::reconstruct_on)) and sends
//! nothing.
//!
//! A Kronecker product over a vector held in leading-axis slabs splits into
//! the per-slab trailing-factor products (the bulk of the flops), their
//! ordered concatenation, and one leading contraction
//! ([`hdmm_linalg::slab_split`]). The first stage becomes
//! [`SlabForward`](crate::Frame::SlabForward) RPCs; the merge and
//! the leading contraction run on the coordinator, through the same
//! [`contract_rows`] kernel the plain product runs. Workers run
//! `kmatvec_trailing_slab` on the same slices, so — run through the one
//! pipeline, [`MechanismRequest::run`](hdmm_mechanism::MechanismRequest::run)
//! — the answers are **bitwise identical** to the plain single-node kernels
//! for any worker count. The slabs are those of the registered
//! [`ShardedDataVector`], borrowed as is; a product the workers cannot
//! slice runs on the coordinator's plain kernels over the whole vector,
//! through the marginal tables MEASURE shares among such products.
//!
//! A request costs the local request plus vector traffic: everything that
//! depends only on the strategy — the
//! [`PreparedReconstruct`](hdmm_mechanism::PreparedReconstruct)'s measured
//! products and solve — is built once per plan by the caller, and a task
//! carries its product's small trailing factors plus a slab reference (see
//! [`crate::wire`]). These kernels only compute MEASURE's exact blocks
//! ([`exact_blocks`](hdmm_mechanism::exact_blocks)); the noise is drawn on
//! the coordinator once every block exists. The serving engine fans out
//! only the first request on each (dataset, plan) pair: it caches that
//! request's blocks, and every request runs MEASURE's noise on them.
//!
//! Failure handling lives in [`WorkerPool`]: per-task timeouts, bounded
//! retry with doubling backoff, and shard reassignment to surviving workers
//! (the coordinator keeps the authoritative data, so a reassigned shard is
//! simply re-pushed). Only when *no* worker can complete a task does a
//! kernel surface a [`NetError`], before any noise is drawn — callers such
//! as the serving engine then compute the blocks over
//! [`PlainKernels`](hdmm_mechanism::PlainKernels), preserving byte-identity
//! even through total pool loss.

use crate::client::{RetryPolicy, WorkerPool};
use crate::wire::NetError;
use hdmm_core::ShardedDataVector;
use hdmm_linalg::{contract_rows, leading_split, slab_split, StructuredMatrix};
use hdmm_mechanism::Kernels;
use hdmm_obs::{Observer, Phase};
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

/// Runs MEASURE's tasks `0..shards`, each on its own scoped thread (each
/// blocks on an RPC) and each reported to `observer` as a MEASURE shard
/// task, and returns the per-shard products in shard order. A task thread
/// that panics — the observer is caller code — is reported as
/// [`NetError::TaskPanicked`] instead of unwinding through the request, so
/// the caller's plain kernels take over.
fn fan_out(
    shards: usize,
    observer: &dyn Observer,
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
                        observer.shard_phase_complete(Phase::Measure, shard, t.elapsed());
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
/// per-slab trailing products `parts`, then the leading contraction over all
/// of its output rows. `factors` must have a [`slab_split`]; the
/// result is then bitwise the plain product — the plain driver contracts the
/// leading mode last through the same kernel, and a row block of that
/// kernel is bitwise its all-rows call's rows.
fn merge_and_contract_leading(factors: &[&StructuredMatrix], parts: Vec<Vec<f64>>) -> Vec<f64> {
    let split = leading_split(factors);
    let (rows, right) = (split.leading.rows(), split.trailing_rows());
    let mut out = vec![0.0; rows * right];
    contract_rows(split.leading, &parts.concat(), &mut out, 1, right, 0..rows);
    out
}

/// The RPC fan-out behind the [`Kernels`] seam: phase 1 of every sliceable
/// MEASURE product — the trailing factors over each slab — runs on the
/// worker pool, and the merge and leading contraction on the coordinator.
/// Products with no [`slab_split`], and products with no trailing factors (a
/// 1-D plan, whose per-slab task would be an identity copy), are left to the
/// plain kernels over the whole vector (`forward` answers `None`).
///
/// When `observer` traces, every RPC attempt of the fan-out (retries included)
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
    /// The dataset, and the slabs the workers hold.
    pub data: &'a ShardedDataVector,
    /// Receives one [`Observer::shard_phase_complete`] per task, and the
    /// RPC spans.
    pub observer: &'a dyn Observer,
}

impl Kernels for RpcKernels<'_> {
    type Error = NetError;

    fn data(&self) -> &[f64] {
        self.data.values()
    }

    /// Slabs are cached on the workers, so tasks are
    /// [`SlabForward`](crate::Frame::SlabForward) RPCs naming one.
    /// A product whose leading leaf does not line up with the slabs is a
    /// [`NetError::Unsupported`]; the caller computes the blocks over
    /// [`PlainKernels`](hdmm_mechanism::PlainKernels).
    fn forward(&self, factors: &[&StructuredMatrix]) -> Result<Option<Vec<f64>>, NetError> {
        if slab_split(factors).is_none_or(|split| split.trailing.is_empty()) {
            return Ok(None);
        }
        // A slab task runs the trailing factors over whole leading rows.
        let split = leading_split(factors);
        self.data
            .ranges_on_axis(split.leading.cols(), split.trailing_cols())
            .ok_or(NetError::Unsupported(
                "slab boundaries do not align with the leading factor",
            ))?;
        let parts = fan_out(self.data.shard_count(), self.observer, |shard| {
            let (rows, values) = self.data.slab(shard);
            self.pool.run_slab_task(
                self.dataset,
                shard as u64,
                &split.trailing,
                (rows.start as u64, rows.end as u64),
                values,
                self.observer,
            )
        })?;
        Ok(Some(merge_and_contract_leading(factors, parts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerHandle, WorkerOptions};
    use hdmm_mechanism::{
        run_mechanism, MarginalsStrategy, MechanismRequest, MechanismResult, PipelineError,
        PreparedReconstruct, Strategy, UnionGroup,
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
    /// spot (a plan owns it in the engine; a test has one request per plan).
    fn run_remote(
        workload: &Workload,
        strategy: &Strategy,
        data: &ShardedDataVector,
        pool: &WorkerPool,
        observer: &dyn Observer,
    ) -> Result<MechanismResult, PipelineError<NetError>> {
        let prepared = PreparedReconstruct::new(strategy);
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
