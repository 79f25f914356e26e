//! Sharded MEASURE / RECONSTRUCT / ANSWER: the fan-out pipeline over
//! leading-axis slabs of the data vector.
//!
//! HDMM's Kronecker structure makes the data vector separable per attribute
//! (§7.2): every mode contraction except the leading one operates
//! independently per leading-axis index, so a dataset partitioned into
//! contiguous slabs along its leading attribute can measure, reconstruct, and
//! answer with per-shard tasks:
//!
//! * **MEASURE** — each shard applies the trailing strategy factors to its
//!   slab (the bulk of the flops); the merged intermediate is then contracted
//!   with the leading factor in parallel over *output-row* blocks, and noise
//!   is added exactly once over the assembled measurement vector — the
//!   privacy analysis is unchanged because the mechanism output distribution
//!   is identical to the unsharded mechanism's.
//! * **RECONSTRUCT** — `Aᵀy` fans out over measurement-axis slabs (trailing
//!   transposes) then domain-axis blocks (leading transpose), and the inverse
//!   Grams scatter `x̂` back per domain slab. Union strategies keep the
//!   global LSMR solve, and the marginals `G(v)` application stays serial;
//!   both are documented single-task stages.
//! * **ANSWER** — each workload term runs the same forward fan-out over `x̂`.
//!
//! ## Exactness contract
//!
//! Every pipeline here is **bitwise identical** to the plain
//! [`measure`](crate::measure) / [`reconstruct`](crate::reconstruct) /
//! [`Workload::answer`] path for *any* shard count, including 1 — floating
//! point sums are never reassociated (see [`hdmm_linalg::apply_leading_rows`]
//! for the kernel-level argument), noise is drawn from the same RNG in the
//! same order, and merges are ordered concatenations. A serving engine can
//! therefore promise: same seed, same dataset, same request order ⇒ same
//! answers, regardless of how the data vector is partitioned.
//!
//! [`Workload::answer`]: hdmm_workload::Workload::answer

use crate::budget::MechanismError;
use crate::laplace::add_laplace_noise;
use crate::phases::{MechanismPhase, PhaseObserver};
use crate::{
    MarginalsAlgebra, MeasuredBlock, Measurements, MechanismResult, PreparedReconstruct, Strategy,
};
use hdmm_linalg::{
    apply_leading_rows, apply_leading_transpose_rows, kmatvec_trailing_slab,
    kmatvec_transpose_trailing_slab, leading_split, matvec_rows, partition_rows, StructuredMatrix,
};
use hdmm_workload::Workload;
use rand::Rng;
use std::ops::Range;
use std::time::Instant;

/// Fallible dense-strategy product `A·x` for [`measure_with`]: how the
/// executor computes the explicit-matrix measurement vector.
pub type ExplicitFn<'a, E> = dyn FnMut(&hdmm_linalg::Matrix) -> Result<Vec<f64>, E> + 'a;

/// Fallible Kronecker forward product over the data for [`measure_with`]:
/// how the executor computes one measurement block from its factors. The
/// first argument is the block's index in strategy order, for executors that
/// keep per-block state keyed the same way (the remote path's operand keys).
pub type ForwardFn<'a, E> = dyn FnMut(usize, &[&StructuredMatrix]) -> Result<Vec<f64>, E> + 'a;

/// One contiguous slab of a row-major data vector: leading-axis rows `rows`
/// holding `rows.len() · (N / leading)` cells.
#[derive(Debug, Clone)]
pub struct DataSlab<'a> {
    /// Leading-axis rows `[start, end)` this slab covers.
    pub rows: Range<usize>,
    /// The slab's cells, row-major.
    pub values: &'a [f64],
}

impl DataSlab<'_> {
    /// Leading-axis rows in this slab.
    pub fn len_rows(&self) -> usize {
        self.rows.end - self.rows.start
    }
}

/// A data vector partitioned into ordered, contiguous leading-axis slabs.
#[derive(Debug, Clone)]
pub struct ShardedView<'a> {
    /// Length of the partitioned leading axis (the first attribute's
    /// cardinality for multi-attribute domains).
    pub leading: usize,
    /// The slabs, in leading-axis order, jointly covering `0..leading`.
    pub slabs: Vec<DataSlab<'a>>,
}

impl<'a> ShardedView<'a> {
    /// Builds a view, validating that the slabs tile `0..leading` in order
    /// and carry consistently sized payloads.
    ///
    /// # Panics
    /// Panics if the slabs do not form an ordered partition of the axis.
    pub fn new(leading: usize, slabs: Vec<DataSlab<'a>>) -> Self {
        assert!(!slabs.is_empty(), "sharded view needs at least one slab");
        assert!(leading > 0, "leading axis must be non-empty");
        let total: usize = slabs.iter().map(|s| s.values.len()).sum();
        assert_eq!(total % leading, 0, "cells must divide evenly by the axis");
        let stride = total / leading;
        let mut next = 0usize;
        for s in &slabs {
            assert_eq!(s.rows.start, next, "slabs must tile the axis in order");
            assert!(s.rows.end >= s.rows.start, "slab range reversed");
            assert_eq!(
                s.values.len(),
                (s.rows.end - s.rows.start) * stride,
                "slab payload does not match its row range"
            );
            next = s.rows.end;
        }
        assert_eq!(next, leading, "slabs must cover the whole axis");
        ShardedView { leading, slabs }
    }

    /// A single-slab view over a whole dense vector.
    pub fn dense(leading: usize, x: &'a [f64]) -> Self {
        ShardedView::new(
            leading,
            vec![DataSlab {
                rows: 0..leading,
                values: x,
            }],
        )
    }

    /// Total cells across all slabs.
    pub fn total_len(&self) -> usize {
        self.slabs.iter().map(|s| s.values.len()).sum()
    }

    /// Cells per leading-axis row.
    pub fn stride(&self) -> usize {
        self.total_len() / self.leading
    }

    /// Number of slabs.
    pub fn shard_count(&self) -> usize {
        self.slabs.len()
    }

    /// Materializes the full vector (ordered concatenation — exact).
    pub fn assemble(&self) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.total_len());
        for s in &self.slabs {
            x.extend_from_slice(s.values);
        }
        x
    }

    /// The slab row ranges translated to an axis of length `axis_len`
    /// (`axis_len` must equal `leading` times an integer or divide it so the
    /// element boundaries stay aligned). Returns `None` when a boundary does
    /// not fall on a whole row of the target axis. Public because remote
    /// executors need the same alignment test before fanning tasks out.
    pub fn ranges_on_axis(&self, axis_len: usize, axis_stride: usize) -> Option<Vec<Range<usize>>> {
        let stride = self.stride();
        let mut out = Vec::with_capacity(self.slabs.len());
        for s in &self.slabs {
            let el_start = s.rows.start * stride;
            let el_end = s.rows.end * stride;
            if !el_start.is_multiple_of(axis_stride) || !el_end.is_multiple_of(axis_stride) {
                return None;
            }
            let r = el_start / axis_stride..el_end / axis_stride;
            if r.end > axis_len {
                return None;
            }
            out.push(r);
        }
        Some(out)
    }
}

/// Runs a batch of independent shard tasks to completion, possibly in
/// parallel. Implementations must execute every task before returning.
pub trait ShardExecutor: Sync {
    /// Executes all tasks; ordering across tasks is unspecified (tasks write
    /// disjoint outputs), completion is awaited.
    fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>);
}

/// Runs shard tasks inline on the calling thread, in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl ShardExecutor for SerialExecutor {
    fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        for t in tasks {
            t();
        }
    }
}

/// Runs shard tasks on scoped threads, at most `threads` at a time.
///
/// Scoped threads (rather than a long-lived task queue) keep the executor
/// deadlock-free by construction: a serving worker that fans out never waits
/// on a pool that could itself be saturated with blocked workers, and the
/// borrowed slab/output slices need no `'static` laundering. Spawn cost is
/// microseconds against shard tasks that are expected to run for
/// milliseconds; with `threads <= 1` tasks run inline.
#[derive(Debug, Clone, Copy)]
pub struct ScopedExecutor {
    threads: usize,
}

impl ScopedExecutor {
    /// An executor using up to `threads` concurrent scoped threads
    /// (0 ⇒ the machine's available parallelism). An explicit `threads` is
    /// honored even above the core count: per-slab lanes also shrink working
    /// sets and keep allocation arenas thread-local, which measurably helps
    /// even when cores are scarce.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        ScopedExecutor { threads }
    }

    /// The concurrency cap.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl ShardExecutor for ScopedExecutor {
    fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        if self.threads <= 1 || tasks.len() <= 1 {
            for t in tasks {
                t();
            }
            return;
        }
        // Deal tasks round-robin into one lane per thread; each lane runs its
        // tasks in order on its own scoped thread.
        let lanes = self.threads.min(tasks.len());
        let mut per_lane: Vec<Vec<Box<dyn FnOnce() + Send + 'a>>> =
            (0..lanes).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            per_lane[i % lanes].push(t);
        }
        std::thread::scope(|s| {
            for lane in per_lane {
                s.spawn(move || {
                    for t in lane {
                        t();
                    }
                });
            }
        });
    }
}

/// Times one shard task and reports it as a shard span.
fn timed_task<'a>(
    observer: &'a (impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    shard: usize,
    body: impl FnOnce() + Send + 'a,
) -> Box<dyn FnOnce() + Send + 'a> {
    Box::new(move || {
        let t = Instant::now();
        body();
        observer.shard_phase_complete(phase, shard, t.elapsed());
    })
}

/// The exact forward fan-out: `(⊗ factors)·x` over the slabs of `view`,
/// bitwise identical to `kmatvec_structured(factors, view.assemble())`.
///
/// Falls back to the assembled plain kernel when the slab boundaries do not
/// align with the leading factor's input mode (the result is identical
/// either way; only the parallelism differs).
pub fn kron_forward_sharded(
    factors: &[&StructuredMatrix],
    view: &ShardedView<'_>,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    let split = leading_split(factors);
    let lead_n = split.leading.cols();
    let rest_n = split.trailing_cols();
    if view.ranges_on_axis(lead_n, rest_n).is_none() {
        return hdmm_linalg::kmatvec_structured(factors, &view.assemble());
    }

    // Phase 1 — trailing factors per slab (parallel over slabs).
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); view.slabs.len()];
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = parts
            .iter_mut()
            .zip(&view.slabs)
            .enumerate()
            .map(|(shard, (part, slab))| {
                let trailing = &split.trailing;
                timed_task(observer, phase, shard, move || {
                    *part = kmatvec_trailing_slab(trailing, slab.values);
                })
            })
            .collect();
        exec.run(tasks);
    }

    kron_forward_from_parts(factors, parts, exec, observer, phase)
}

/// Phases 2–3 of the forward fan-out: the ordered merge of per-slab trailing
/// results, then the leading contraction over disjoint output-row blocks.
///
/// Shared by the in-process and remote executors — phase 1 is where the two
/// differ (scoped threads over borrowed slabs vs. shard-task RPCs), while the
/// merge and leading contraction run here on the coordinator either way, so
/// both paths produce identical bytes by construction. `parts[i]` must be the
/// trailing-factor product over slab `i`, in slab order.
pub fn kron_forward_from_parts(
    factors: &[&StructuredMatrix],
    parts: Vec<Vec<f64>>,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    let split = leading_split(factors);
    let lead_n = split.leading.cols();
    let shards = parts.len();

    // Phase 2 — ordered merge (pure memory move, exact).
    let right = split.trailing_rows();
    let mut merged = Vec::with_capacity(lead_n * right);
    for p in parts {
        merged.extend(p);
    }

    // Phase 3 — leading contraction over disjoint output-row blocks
    // (parallel over blocks; each block replays the unsharded op order).
    let m_lead = split.leading.rows();
    let mut out = vec![0.0; m_lead * right];
    {
        let blocks = partition_rows(m_lead, shards);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(blocks.len());
        let mut rest = out.as_mut_slice();
        for (shard, block) in blocks.into_iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(block.len() * right);
            rest = tail;
            let leading = split.leading;
            let merged = &merged;
            tasks.push(timed_task(observer, phase, shard, move || {
                apply_leading_rows(leading, merged, right, block, chunk);
            }));
        }
        exec.run(tasks);
    }
    out
}

/// The exact transposed fan-out: `(⊗ factors)ᵀ·y`, bitwise identical to
/// `kmatvec_transpose_structured(factors, y)`. `domain_ranges` gives the
/// output (domain-axis) partition, typically the view's slab ranges.
pub fn kron_transpose_sharded(
    factors: &[&StructuredMatrix],
    y: &[f64],
    domain_ranges: &[Range<usize>],
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    let split = leading_split(factors);
    let m_lead = split.leading.rows();
    let rest_m = split.trailing_rows();

    // Phase 1 — trailing transposes per measurement-axis slab.
    let y_blocks = partition_rows(m_lead, domain_ranges.len());
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); y_blocks.len()];
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = parts
            .iter_mut()
            .zip(&y_blocks)
            .enumerate()
            .map(|(shard, (part, block))| {
                let slab = &y[block.start * rest_m..block.end * rest_m];
                let trailing = &split.trailing;
                timed_task(observer, phase, shard, move || {
                    *part = kmatvec_transpose_trailing_slab(trailing, slab);
                })
            })
            .collect();
        exec.run(tasks);
    }

    kron_transpose_from_parts(factors, parts, domain_ranges, exec, observer, phase)
}

/// The merge + leading-transpose half of the transposed fan-out, shared by
/// the in-process and remote executors (see [`kron_forward_from_parts`]).
/// `parts[i]` must be the trailing-transpose product over the `i`-th
/// measurement-axis block of `y` (blocks from `partition_rows(m_lead,
/// domain_ranges.len())`), in block order.
pub fn kron_transpose_from_parts(
    factors: &[&StructuredMatrix],
    parts: Vec<Vec<f64>>,
    domain_ranges: &[Range<usize>],
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    let split = leading_split(factors);
    let m_lead = split.leading.rows();

    let right = split.trailing_cols();
    let mut merged = Vec::with_capacity(m_lead * right);
    for p in parts {
        merged.extend(p);
    }

    // Phase 2 — leading transpose over disjoint domain-axis blocks.
    let lead_n = split.leading.cols();
    let mut out = vec![0.0; lead_n * right];
    {
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(domain_ranges.len());
        let mut rest = out.as_mut_slice();
        for (shard, block) in domain_ranges.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(block.len() * right);
            rest = tail;
            let leading = split.leading;
            let merged = &merged;
            let block = block.clone();
            tasks.push(timed_task(observer, phase, shard, move || {
                apply_leading_transpose_rows(leading, merged, right, block, chunk);
            }));
        }
        exec.run(tasks);
    }
    out
}

/// Row-partitioned explicit matvec, exact w.r.t. `a.matvec(x)`.
pub fn explicit_forward_sharded(
    a: &hdmm_linalg::Matrix,
    x: &[f64],
    parts: usize,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    let mut out = vec![0.0; a.rows()];
    let blocks = partition_rows(a.rows(), parts);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(blocks.len());
    let mut rest = out.as_mut_slice();
    for (shard, block) in blocks.into_iter().enumerate() {
        let (chunk, tail) = rest.split_at_mut(block.len());
        rest = tail;
        tasks.push(timed_task(observer, phase, shard, move || {
            matvec_rows(a, x, block, chunk);
        }));
    }
    exec.run(tasks);
    out
}

/// The strategy-generic MEASURE skeleton, parametrized over the two forward
/// kernels: per-strategy sensitivity, block ordering, theta scaling, and the
/// noise-draw order live here — written exactly once — while `explicit`
/// (dense matvec) and `forward` (Kronecker factor product over the data)
/// decide *where* the flops run. The in-process path supplies infallible
/// closures over the scoped-thread fan-out; the remote path supplies
/// RPC-backed closures that can fail with a transport error. Noise is always
/// drawn *after* a block's forward product succeeds, and blocks are visited
/// in strategy order, so every caller consumes the RNG stream identically —
/// the root of the byte-identity guarantee across executors.
///
/// `algebra` is the marginals subset algebra when the caller already holds
/// one (a [`PreparedReconstruct`] does); `None` builds it here. It is a pure
/// function of the strategy's domain, so the measurements are the same bits
/// either way.
///
/// # Panics
/// Panics if `eps` is not positive (mirror of the plain path; use
/// [`try_run_mechanism_sharded_observed`] for typed validation).
pub fn measure_with<E>(
    strategy: &Strategy,
    algebra: Option<&MarginalsAlgebra>,
    eps: f64,
    rng: &mut impl Rng,
    explicit: &mut ExplicitFn<'_, E>,
    forward: &mut ForwardFn<'_, E>,
) -> Result<Measurements, E> {
    assert!(eps > 0.0, "privacy budget must be positive");
    let blocks = match strategy {
        Strategy::Explicit(a) => {
            let scale = a.norm_l1_operator() / eps;
            let mut noisy = explicit(a)?;
            add_laplace_noise(&mut noisy, scale, rng);
            vec![MeasuredBlock {
                noisy,
                noise_scale: scale,
            }]
        }
        Strategy::Kron(factors) => {
            let sens: f64 = factors.iter().map(StructuredMatrix::sensitivity).product();
            let scale = sens / eps;
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            let mut noisy = forward(0, &refs)?;
            add_laplace_noise(&mut noisy, scale, rng);
            vec![MeasuredBlock {
                noisy,
                noise_scale: scale,
            }]
        }
        Strategy::Marginals(m) => {
            let scale = m.sensitivity() / eps;
            let built;
            let algebra = match algebra {
                Some(cached) => cached,
                None => {
                    built = MarginalsAlgebra::new(&m.domain);
                    &built
                }
            };
            let mut blocks = Vec::new();
            for (a, &theta) in m.theta.iter().enumerate() {
                if theta == 0.0 {
                    continue;
                }
                let q = algebra.marginal_factors(a);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                let mut noisy = forward(blocks.len(), &refs)?;
                for v in &mut noisy {
                    *v *= theta;
                }
                add_laplace_noise(&mut noisy, scale, rng);
                blocks.push(MeasuredBlock {
                    noisy,
                    noise_scale: scale,
                });
            }
            blocks
        }
        Strategy::Union(groups) => {
            let mut blocks = Vec::with_capacity(groups.len());
            for g in groups {
                let sens: f64 = g
                    .factors
                    .iter()
                    .map(StructuredMatrix::sensitivity)
                    .product();
                let scale = sens / (g.share * eps);
                let refs: Vec<&StructuredMatrix> = g.factors.iter().collect();
                let mut noisy = forward(blocks.len(), &refs)?;
                add_laplace_noise(&mut noisy, scale, rng);
                blocks.push(MeasuredBlock {
                    noisy,
                    noise_scale: scale,
                });
            }
            blocks
        }
    };
    Ok(Measurements { blocks, eps })
}

/// Sharded MEASURE: computes `A·x` through the per-slab fan-out and adds
/// Laplace noise exactly once over the assembled measurement vector —
/// bitwise identical to [`measure`](crate::measure) on the assembled data
/// for every shard count, so ε-differential privacy holds unchanged.
///
/// # Panics
/// Panics if `eps` is not positive (mirror of the plain path; use
/// [`try_run_mechanism_sharded_observed`] for typed validation).
pub fn measure_sharded(
    strategy: &Strategy,
    view: &ShardedView<'_>,
    eps: f64,
    rng: &mut impl Rng,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Measurements {
    measure_sharded_on(strategy, None, view, eps, rng, exec, observer)
}

/// [`measure_sharded`] with the marginals algebra optionally supplied (see
/// [`measure_with`]).
fn measure_sharded_on(
    strategy: &Strategy,
    algebra: Option<&MarginalsAlgebra>,
    view: &ShardedView<'_>,
    eps: f64,
    rng: &mut impl Rng,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Measurements {
    let phase = MechanismPhase::Measure;
    let result: Result<Measurements, std::convert::Infallible> = measure_with(
        strategy,
        algebra,
        eps,
        rng,
        &mut |a| {
            let x = view.assemble();
            Ok(explicit_forward_sharded(
                a,
                &x,
                view.shard_count(),
                exec,
                observer,
                phase,
            ))
        },
        &mut |_, refs| Ok(kron_forward_sharded(refs, view, exec, observer, phase)),
    );
    match result {
        Ok(meas) => meas,
        Err(never) => match never {},
    }
}

/// Sharded RECONSTRUCT: scatters `x̂` back per domain slab. Bitwise identical
/// to [`reconstruct`](crate::reconstruct). Kronecker strategies fan both
/// passes out; unions keep the global LSMR solve and marginals keep the
/// subset-algebra `G(v)` application as single-task stages (the `Mᵀy`
/// accumulation still fans out per marginal).
pub fn reconstruct_sharded(
    strategy: &Strategy,
    meas: &Measurements,
    view: &ShardedView<'_>,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Vec<f64> {
    reconstruct_sharded_with(
        &PreparedReconstruct::new(strategy),
        strategy,
        meas,
        view,
        exec,
        observer,
    )
}

/// [`reconstruct_sharded`] with the strategy factorization supplied by the
/// caller ([`PreparedReconstruct`]); the fan-out no longer rebuilds the
/// per-factor inverse Grams (Kron) or the subset algebra (marginals) per
/// request. Bitwise identical to `reconstruct_sharded` for a `prepared` built
/// from the same strategy.
///
/// # Panics
/// Panics if `prepared` was built from a different strategy variant.
pub fn reconstruct_sharded_with(
    prepared: &PreparedReconstruct,
    strategy: &Strategy,
    meas: &Measurements,
    view: &ShardedView<'_>,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Vec<f64> {
    let phase = MechanismPhase::Reconstruct;
    match strategy {
        // Explicit strategies live on small 1-D domains; unions need the
        // global iterative LSMR solve. Both keep the plain serial path.
        Strategy::Explicit(_) | Strategy::Union(_) => {
            crate::reconstruct_with(prepared, strategy, meas)
        }
        Strategy::Kron(factors) => {
            let PreparedReconstruct::Kron { gram_pinvs } = prepared else {
                panic!("PreparedReconstruct was built from a different strategy variant");
            };
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            let split = leading_split(&refs);
            let lead_n = split.leading.cols();
            let rest_n = split.trailing_cols();
            let Some(ranges) = view.ranges_on_axis(lead_n, rest_n) else {
                return crate::reconstruct_with(prepared, strategy, meas);
            };
            let y = &meas.blocks[0].noisy;
            let aty = kron_transpose_sharded(&refs, y, &ranges, exec, observer, phase);
            let pinv_refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
            let aty_view =
                ShardedView::new(lead_n, ranges_to_slabs(&ranges, &aty, lead_n, aty.len()));
            kron_forward_sharded(&pinv_refs, &aty_view, exec, observer, phase)
        }
        Strategy::Marginals(m) => {
            let PreparedReconstruct::Marginals { algebra, v } = prepared else {
                panic!("PreparedReconstruct was built from a different strategy variant");
            };
            // Marginal factors put their attribute-0 block (cols = n₁) first,
            // so the fan-out needs the view's slab ranges to live on that
            // axis; fall back to the plain path otherwise.
            if view.leading != m.domain.attr_size(0) {
                return crate::reconstruct_with(prepared, strategy, meas);
            }
            let n = m.domain.size();
            let domain_ranges: Vec<Range<usize>> =
                view.slabs.iter().map(|s| s.rows.clone()).collect();
            let mut mty = vec![0.0; n];
            let mut block_iter = meas.blocks.iter();
            for (a, &theta) in m.theta.iter().enumerate() {
                if theta == 0.0 {
                    continue;
                }
                let block = block_iter
                    .next()
                    .expect("one block per positive-weight marginal");
                let q = algebra.marginal_factors(a);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                // The marginal factor on attribute 0 has cols == leading, so
                // the view's slab ranges are already in leading-leaf space.
                let back = kron_transpose_sharded(
                    &refs,
                    &block.noisy,
                    &domain_ranges,
                    exec,
                    observer,
                    phase,
                );
                for (acc, b) in mty.iter_mut().zip(&back) {
                    *acc += theta * b;
                }
            }
            algebra.g_apply(v, &mty)
        }
    }
}

/// Reinterprets a contiguous vector as slabs over the given ranges (helper
/// for feeding an intermediate back through the forward fan-out).
fn ranges_to_slabs<'a>(
    ranges: &[Range<usize>],
    x: &'a [f64],
    leading: usize,
    total: usize,
) -> Vec<DataSlab<'a>> {
    let stride = total / leading;
    ranges
        .iter()
        .map(|r| DataSlab {
            rows: r.clone(),
            values: &x[r.start * stride..r.end * stride],
        })
        .collect()
}

/// Sharded ANSWER: evaluates the workload on the reconstructed estimate with
/// the per-term forward fan-out. Bitwise identical to
/// [`Workload::answer`](hdmm_workload::Workload::answer).
pub fn answer_sharded(
    workload: &Workload,
    x_hat: &[f64],
    shards: usize,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Vec<f64> {
    assert_eq!(
        x_hat.len(),
        workload.domain().size(),
        "data vector size mismatch"
    );
    let leading = workload.domain().attr_size(0);
    let stride = x_hat.len() / leading;
    let slabs: Vec<DataSlab<'_>> = partition_rows(leading, shards)
        .into_iter()
        .map(|r| DataSlab {
            rows: r.clone(),
            values: &x_hat[r.start * stride..r.end * stride],
        })
        .collect();
    let view = ShardedView::new(leading, slabs);
    let mut out = Vec::with_capacity(workload.query_count());
    for t in workload.terms() {
        let refs: Vec<&StructuredMatrix> = t.factors.iter().collect();
        let mut y = kron_forward_sharded(&refs, &view, exec, observer, MechanismPhase::Answer);
        if t.weight != 1.0 {
            for v in &mut y {
                *v *= t.weight;
            }
        }
        out.extend(y);
    }
    out
}

/// The full checked sharded pipeline with per-phase timing: budget-validated
/// sharded MEASURE, sharded RECONSTRUCT, sharded ANSWER. Identical results
/// to [`try_run_mechanism_observed`](crate::try_run_mechanism_observed) on
/// the assembled data vector, per seed, for every shard count.
#[allow(clippy::too_many_arguments)]
pub fn try_run_mechanism_sharded_observed(
    workload: &Workload,
    strategy: &Strategy,
    view: &ShardedView<'_>,
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Result<MechanismResult, MechanismError> {
    if !(eps.is_finite() && eps > 0.0) {
        return Err(MechanismError::InvalidEpsilon { eps });
    }
    if eps > remaining * (1.0 + 1e-12) {
        return Err(MechanismError::BudgetExhausted {
            requested: eps,
            remaining,
        });
    }
    let expected = workload.domain().size();
    if view.total_len() != expected {
        return Err(MechanismError::DataVectorMismatch {
            expected,
            got: view.total_len(),
        });
    }

    let t = Instant::now();
    let meas = measure_sharded(strategy, view, eps, rng, exec, observer);
    observer.phase_complete(MechanismPhase::Measure, t.elapsed());

    let t = Instant::now();
    let x_hat = reconstruct_sharded(strategy, &meas, view, exec, observer);
    observer.phase_complete(MechanismPhase::Reconstruct, t.elapsed());

    let t = Instant::now();
    let answers = answer_sharded(workload, &x_hat, view.shard_count(), exec, observer);
    observer.phase_complete(MechanismPhase::Answer, t.elapsed());

    Ok(MechanismResult { x_hat, answers })
}

/// [`try_run_mechanism_sharded_observed`] with the strategy factorization
/// supplied by the caller, mirroring
/// [`try_run_mechanism_prepared_observed`](crate::try_run_mechanism_prepared_observed)
/// for the fan-out path. Bitwise identical to the unprepared sharded variant
/// for a `prepared` built from `strategy`.
#[allow(clippy::too_many_arguments)]
pub fn try_run_mechanism_sharded_prepared_observed(
    workload: &Workload,
    strategy: &Strategy,
    prepared: &PreparedReconstruct,
    view: &ShardedView<'_>,
    eps: f64,
    remaining: f64,
    rng: &mut impl Rng,
    exec: &dyn ShardExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Result<MechanismResult, MechanismError> {
    if !(eps.is_finite() && eps > 0.0) {
        return Err(MechanismError::InvalidEpsilon { eps });
    }
    if eps > remaining * (1.0 + 1e-12) {
        return Err(MechanismError::BudgetExhausted {
            requested: eps,
            remaining,
        });
    }
    let expected = workload.domain().size();
    if view.total_len() != expected {
        return Err(MechanismError::DataVectorMismatch {
            expected,
            got: view.total_len(),
        });
    }

    let t = Instant::now();
    let meas = measure_sharded_on(
        strategy,
        prepared.marginals_algebra(),
        view,
        eps,
        rng,
        exec,
        observer,
    );
    observer.phase_complete(MechanismPhase::Measure, t.elapsed());

    let t = Instant::now();
    let x_hat = reconstruct_sharded_with(prepared, strategy, &meas, view, exec, observer);
    observer.phase_complete(MechanismPhase::Reconstruct, t.elapsed());

    let t = Instant::now();
    let answers = answer_sharded(workload, &x_hat, view.shard_count(), exec, observer);
    observer.phase_complete(MechanismPhase::Answer, t.elapsed());

    Ok(MechanismResult { x_hat, answers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::NoopObserver;
    use crate::{MarginalsStrategy, UnionGroup};
    use hdmm_workload::{blocks, builders, Domain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn strategies() -> Vec<(Workload, Strategy)> {
        let kron = (
            builders::prefix_2d(6, 5),
            Strategy::kron(vec![
                blocks::prefix(6).scaled(1.0 / 6.0),
                blocks::prefix(5).scaled(0.2),
            ]),
        );
        let explicit = (
            builders::prefix_1d(8),
            Strategy::Explicit(hdmm_linalg::Matrix::from_fn(8, 8, |r, c| {
                if c <= r {
                    0.125
                } else {
                    0.0
                }
            })),
        );
        let marginals = (
            builders::all_marginals(&Domain::new(&[4, 3])),
            Strategy::Marginals(MarginalsStrategy::uniform(Domain::new(&[4, 3]))),
        );
        let union = (
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
        );
        vec![kron, explicit, marginals, union]
    }

    #[test]
    fn sharded_pipeline_is_bitwise_identical_to_plain() {
        for (w, s) in strategies() {
            let n = w.domain().size();
            let leading = w.domain().attr_size(0);
            let x = data(n);
            let plain =
                crate::try_run_mechanism(&w, &s, &x, 1.0, 1.0, &mut StdRng::seed_from_u64(42))
                    .unwrap();
            for shards in [1usize, 2, 3, leading] {
                for exec in [
                    &SerialExecutor as &dyn ShardExecutor,
                    &ScopedExecutor::new(4),
                ] {
                    let view = view_of(&x, leading, shards);
                    let got = try_run_mechanism_sharded_observed(
                        &w,
                        &s,
                        &view,
                        1.0,
                        1.0,
                        &mut StdRng::seed_from_u64(42),
                        exec,
                        &NoopObserver,
                    )
                    .unwrap();
                    assert!(
                        bits_eq(&got.answers, &plain.answers),
                        "{} shards={shards}: answers diverge",
                        s.kind()
                    );
                    assert!(
                        bits_eq(&got.x_hat, &plain.x_hat),
                        "{} shards={shards}: x_hat diverges",
                        s.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_sharded_is_bitwise_identical_to_unprepared() {
        for (w, s) in strategies() {
            let n = w.domain().size();
            let leading = w.domain().attr_size(0);
            let x = data(n);
            let prepared = PreparedReconstruct::new(&s);
            for shards in [1usize, 2, leading] {
                let view = view_of(&x, leading, shards);
                let plain = try_run_mechanism_sharded_observed(
                    &w,
                    &s,
                    &view,
                    1.0,
                    1.0,
                    &mut StdRng::seed_from_u64(42),
                    &SerialExecutor,
                    &NoopObserver,
                )
                .unwrap();
                let got = try_run_mechanism_sharded_prepared_observed(
                    &w,
                    &s,
                    &prepared,
                    &view,
                    1.0,
                    1.0,
                    &mut StdRng::seed_from_u64(42),
                    &SerialExecutor,
                    &NoopObserver,
                )
                .unwrap();
                assert!(
                    bits_eq(&got.x_hat, &plain.x_hat) && bits_eq(&got.answers, &plain.answers),
                    "{} shards={shards}: prepared path diverges",
                    s.kind()
                );
            }
        }
    }

    #[test]
    fn sharded_validation_is_typed() {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let x = data(8);
        let view = view_of(&x, 8, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            try_run_mechanism_sharded_observed(
                &w,
                &s,
                &view,
                2.0,
                1.0,
                &mut rng,
                &SerialExecutor,
                &NoopObserver
            ),
            Err(MechanismError::BudgetExhausted { .. })
        ));
        assert!(matches!(
            try_run_mechanism_sharded_observed(
                &w,
                &s,
                &view,
                f64::NAN,
                1.0,
                &mut rng,
                &SerialExecutor,
                &NoopObserver
            ),
            Err(MechanismError::InvalidEpsilon { .. })
        ));
        let short = data(6);
        let bad_view = view_of(&short, 6, 2);
        assert!(matches!(
            try_run_mechanism_sharded_observed(
                &w,
                &s,
                &bad_view,
                0.5,
                1.0,
                &mut rng,
                &SerialExecutor,
                &NoopObserver
            ),
            Err(MechanismError::DataVectorMismatch {
                expected: 8,
                got: 6
            })
        ));
    }

    #[test]
    fn shard_spans_are_reported_per_shard() {
        use std::sync::Mutex;
        struct Spans(Mutex<Vec<(MechanismPhase, usize)>>);
        impl PhaseObserver for Spans {
            fn phase_complete(&self, _p: MechanismPhase, _e: std::time::Duration) {}
            fn shard_phase_complete(
                &self,
                phase: MechanismPhase,
                shard: usize,
                _elapsed: std::time::Duration,
            ) {
                self.0.lock().unwrap().push((phase, shard));
            }
        }
        let w = builders::prefix_2d(6, 4);
        let s = Strategy::kron(vec![blocks::prefix(6), blocks::prefix(4)]);
        let x = data(24);
        let view = view_of(&x, 6, 3);
        let spans = Spans(Mutex::new(Vec::new()));
        let mut rng = StdRng::seed_from_u64(1);
        try_run_mechanism_sharded_observed(
            &w,
            &s,
            &view,
            1.0,
            1.0,
            &mut rng,
            &SerialExecutor,
            &spans,
        )
        .unwrap();
        let seen = spans.0.lock().unwrap();
        for phase in [
            MechanismPhase::Measure,
            MechanismPhase::Reconstruct,
            MechanismPhase::Answer,
        ] {
            for shard in 0..3 {
                assert!(
                    seen.iter().any(|&(p, sh)| p == phase && sh == shard),
                    "missing span {phase:?}/{shard}"
                );
            }
        }
    }

    #[test]
    fn scoped_executor_runs_every_task() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..17)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        ScopedExecutor::new(4).run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn view_validates_its_partition() {
        let x = data(12);
        let ok = ShardedView::new(
            6,
            vec![
                DataSlab {
                    rows: 0..2,
                    values: &x[0..4],
                },
                DataSlab {
                    rows: 2..6,
                    values: &x[4..12],
                },
            ],
        );
        assert_eq!(ok.stride(), 2);
        assert_eq!(ok.assemble(), x);
        let gap = std::panic::catch_unwind(|| {
            ShardedView::new(
                6,
                vec![DataSlab {
                    rows: 1..6,
                    values: &x[2..12],
                }],
            )
        });
        assert!(gap.is_err(), "a slab gap must be rejected");
    }
}
