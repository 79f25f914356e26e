//! The in-process fan-out kernels: MEASURE / RECONSTRUCT / ANSWER products
//! over leading-axis slabs of the data vector ([`LocalKernels`], one of the
//! [`Kernels`] implementations the pipeline runs over).
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
//!   Grams scatter `x̂` back per domain slab. The union LSMR solve and the
//!   marginals `G(v)` application are single coordinator-side stages of
//!   [`reconstruct_on`](crate::reconstruct_on), outside the seam.
//! * **ANSWER** — each workload term runs the same forward fan-out over `x̂`.
//!
//! ## Exactness contract
//!
//! Every product here is **bitwise identical** to the plain
//! [`PlainKernels`] product for *any* shard count,
//! including 1 — floating point sums are never reassociated (the leading
//! step is [`hdmm_linalg::contract_rows`], the kernel the plain product
//! itself runs, called on a row block) and merges are ordered
//! concatenations; the pipeline draws noise from the same RNG in the same
//! order whatever the kernels. A serving engine can therefore promise: same
//! seed, same dataset, same request order ⇒ same answers, regardless of how
//! the data vector is partitioned.

use crate::pipeline::{Kernels, PlainKernels};
use hdmm_linalg::{
    contract_rows, contract_transpose_rows, kmatvec_trailing_slab, kmatvec_transpose_trailing_slab,
    leading_split, matvec_rows, partition_rows, StructuredMatrix,
};
use hdmm_obs::{Observer, Phase};
use hdmm_workload::Workload;
use std::convert::Infallible;
use std::ops::Range;
use std::time::Instant;

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

    /// A view of the contiguous vector `x` as (at most) `shards` near-equal
    /// leading-axis slabs — the canonical [`partition_rows`] split.
    pub fn partitioned(leading: usize, x: &'a [f64], shards: usize) -> Self {
        ShardedView::new(
            leading,
            ranges_to_slabs(&partition_rows(leading, shards), x, leading),
        )
    }

    /// A single-slab view over a whole dense vector.
    pub fn dense(leading: usize, x: &'a [f64]) -> Self {
        ShardedView::partitioned(leading, x, 1)
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

/// Runs a batch of independent shard tasks to completion on scoped threads,
/// at most `threads` at a time; `new(1)` is the serial executor.
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

    /// Executes all tasks; ordering across tasks is unspecified (tasks write
    /// disjoint outputs), completion is awaited.
    pub fn run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
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
    observer: &'a dyn Observer,
    phase: Phase,
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
    exec: &ScopedExecutor,
    observer: &dyn Observer,
    phase: Phase,
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
    exec: &ScopedExecutor,
    observer: &dyn Observer,
    phase: Phase,
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
                contract_rows(leading, merged, chunk, 1, right, block);
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
    exec: &ScopedExecutor,
    observer: &dyn Observer,
    phase: Phase,
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
    exec: &ScopedExecutor,
    observer: &dyn Observer,
    phase: Phase,
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
                contract_transpose_rows(leading, merged, chunk, 1, right, block);
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
    exec: &ScopedExecutor,
    observer: &dyn Observer,
    phase: Phase,
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

/// Reinterprets a contiguous vector as slabs over the given ranges (helper
/// for feeding an intermediate back through the forward fan-out).
fn ranges_to_slabs<'a>(ranges: &[Range<usize>], x: &'a [f64], leading: usize) -> Vec<DataSlab<'a>> {
    let stride = x.len() / leading;
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
    exec: &ScopedExecutor,
    observer: &dyn Observer,
) -> Vec<f64> {
    assert_eq!(
        x_hat.len(),
        workload.domain().size(),
        "data vector size mismatch"
    );
    let view = ShardedView::partitioned(workload.domain().attr_size(0), x_hat, shards);
    let mut out = Vec::with_capacity(workload.query_count());
    for t in workload.terms() {
        let refs: Vec<&StructuredMatrix> = t.factors.iter().collect();
        let mut y = kron_forward_sharded(&refs, &view, exec, observer, Phase::Answer);
        if t.weight != 1.0 {
            for v in &mut y {
                *v *= t.weight;
            }
        }
        out.extend(y);
    }
    out
}

/// The in-process fan-out behind the [`Kernels`] seam: every product runs
/// as per-slab tasks of `view` on `exec`, each task reported to `observer`.
///
/// Where the fan-out has nothing to offer, the product runs on the plain
/// kernel instead — the same bits, only the parallelism differs: a product
/// whose leading factor does not line up with the slab boundaries, and every
/// product of a one-slab view (a contiguous vector, [`ShardedView::dense`]),
/// where the per-slab copy and merge buffers would be pure overhead.
pub struct LocalKernels<'a> {
    /// The dataset, as ordered leading-axis slabs.
    pub view: &'a ShardedView<'a>,
    /// Where the tasks run.
    pub exec: &'a ScopedExecutor,
    /// Receives one [`Observer::shard_phase_complete`] per task.
    pub observer: &'a dyn Observer,
}

impl LocalKernels<'_> {
    /// The plain kernels over the whole dataset, when it is a single slab.
    fn one_slab(&self) -> Option<PlainKernels<'_>> {
        match self.view.slabs.as_slice() {
            [slab] => Some(PlainKernels::over(slab.values)),
            _ => None,
        }
    }

    /// The view's slab ranges on the input axis of `factors`' leading leaf,
    /// when the boundaries fall on whole rows of it.
    pub fn aligned_ranges(&self, factors: &[&StructuredMatrix]) -> Option<Vec<Range<usize>>> {
        let split = leading_split(factors);
        self.view
            .ranges_on_axis(split.leading.cols(), split.trailing_cols())
    }
}

impl Kernels for LocalKernels<'_> {
    type Error = Infallible;

    fn cells(&self) -> usize {
        self.view.total_len()
    }

    fn explicit(&self, a: &hdmm_linalg::Matrix) -> Result<Vec<f64>, Infallible> {
        if let Some(plain) = self.one_slab() {
            return plain.explicit(a);
        }
        Ok(explicit_forward_sharded(
            a,
            &self.view.assemble(),
            self.view.shard_count(),
            self.exec,
            self.observer,
            Phase::Measure,
        ))
    }

    fn forward(&self, block: usize, factors: &[&StructuredMatrix]) -> Result<Vec<f64>, Infallible> {
        if let Some(plain) = self.one_slab() {
            return plain.forward(block, factors);
        }
        Ok(kron_forward_sharded(
            factors,
            self.view,
            self.exec,
            self.observer,
            Phase::Measure,
        ))
    }

    fn transpose(
        &self,
        block: usize,
        factors: &[&StructuredMatrix],
        y: &[f64],
    ) -> Result<Vec<f64>, Infallible> {
        if let Some(plain) = self.one_slab() {
            return plain.transpose(block, factors, y);
        }
        Ok(match self.aligned_ranges(factors) {
            Some(ranges) => kron_transpose_sharded(
                factors,
                y,
                &ranges,
                self.exec,
                self.observer,
                Phase::Reconstruct,
            ),
            None => hdmm_linalg::kmatvec_transpose_structured(factors, y),
        })
    }

    fn inverse_grams(
        &self,
        gram_pinvs: &[&StructuredMatrix],
        aty: &[f64],
    ) -> Result<Vec<f64>, Infallible> {
        if let Some(plain) = self.one_slab() {
            return plain.inverse_grams(gram_pinvs, aty);
        }
        let Some(ranges) = self.aligned_ranges(gram_pinvs) else {
            return Ok(hdmm_linalg::kmatvec_structured(gram_pinvs, aty));
        };
        // Inverse Grams are square, so `Aᵀy` partitions exactly like the data.
        let leading = leading_split(gram_pinvs).leading.cols();
        let aty_view = ShardedView::new(leading, ranges_to_slabs(&ranges, aty, leading));
        Ok(kron_forward_sharded(
            gram_pinvs,
            &aty_view,
            self.exec,
            self.observer,
            Phase::Reconstruct,
        ))
    }

    fn answer(&self, workload: &Workload, x_hat: &[f64]) -> Vec<f64> {
        if let Some(plain) = self.one_slab() {
            return plain.answer(workload, x_hat);
        }
        answer_sharded(
            workload,
            x_hat,
            self.view.shard_count(),
            self.exec,
            self.observer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MechanismRequest, PreparedReconstruct, Strategy};
    use hdmm_workload::{blocks, builders};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    #[test]
    fn shard_spans_are_reported_per_shard() {
        use std::sync::Mutex;
        struct Spans(Mutex<Vec<(Phase, usize)>>);
        impl Observer for Spans {
            fn shard_phase_complete(&self, phase: Phase, shard: usize, _: std::time::Duration) {
                self.0.lock().unwrap().push((phase, shard));
            }
        }
        let w = builders::prefix_2d(6, 4);
        let s = Strategy::kron(vec![blocks::prefix(6), blocks::prefix(4)]);
        let x = data(24);
        let view = ShardedView::partitioned(6, &x, 3);
        let spans = Spans(Mutex::new(Vec::new()));
        MechanismRequest {
            workload: &w,
            strategy: &s,
            prepared: &PreparedReconstruct::new(&s),
            eps: 1.0,
            remaining: 1.0,
        }
        .run(
            &mut StdRng::seed_from_u64(1),
            &LocalKernels {
                view: &view,
                exec: &ScopedExecutor::new(1),
                observer: &spans,
            },
            &spans,
        )
        .unwrap();
        let seen = spans.0.lock().unwrap();
        for phase in [Phase::Measure, Phase::Reconstruct, Phase::Answer] {
            for shard in 0..3 {
                assert!(
                    seen.iter().any(|&(p, sh)| p == phase && sh == shard),
                    "missing span {phase:?}/{shard}"
                );
            }
        }
    }

    #[test]
    fn scoped_executor_runs_every_task_into_its_own_slot() {
        for threads in [1, 2, 4, 7] {
            let mut slots = [0u64; 17];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .zip(1u64..)
                .map(|(slot, i)| Box::new(move || *slot = i * i) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            ScopedExecutor::new(threads).run(tasks);
            assert!(slots.iter().zip(1u64..).all(|(&s, i)| s == i * i));
        }
        assert!(ScopedExecutor::new(0).threads() >= 1);
        assert_eq!(ScopedExecutor::new(3).threads(), 3);
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
