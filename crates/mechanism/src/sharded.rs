//! Slabs and lanes: a data vector read as the contiguous leading-axis slabs
//! remote workers hold ([`ShardedView`]), and the scoped-thread executor the
//! SELECT restart grid and session batches fan out on ([`ScopedExecutor`]).
//!
//! HDMM's Kronecker structure makes the data vector separable per attribute
//! (§7.2): every mode contraction except the leading one operates
//! independently per leading-axis index, so a product over a vector held in
//! contiguous leading-axis slabs is the per-slab trailing contractions, their
//! ordered concatenation, and one leading contraction
//! ([`hdmm_linalg::slab_split`]). `hdmm_net::RpcKernels` runs the per-slab
//! stage on shard workers and the rest on the coordinator, bitwise identical
//! to the plain product; in-process serving runs the plain
//! [`PlainKernels`](crate::PlainKernels) over [`ShardedView::values`], the
//! one vector every slab borrows.

use hdmm_linalg::partition_rows;
use std::ops::Range;

/// One contiguous slab of a row-major data vector: leading-axis rows `rows`
/// holding `rows.len() · (N / leading)` cells.
#[derive(Debug, Clone)]
pub struct DataSlab<'a> {
    /// Leading-axis rows `[start, end)` this slab covers.
    pub rows: Range<usize>,
    /// The slab's cells, row-major.
    pub values: &'a [f64],
}

/// A contiguous row-major data vector read as ordered leading-axis slabs,
/// each a subslice of it.
#[derive(Debug, Clone)]
pub struct ShardedView<'a> {
    /// Length of the partitioned leading axis (the first attribute's
    /// cardinality for multi-attribute domains).
    pub leading: usize,
    /// The whole vector; every slab borrows from it.
    pub values: &'a [f64],
    /// The slabs, in leading-axis order, jointly covering `0..leading`.
    pub slabs: Vec<DataSlab<'a>>,
}

impl<'a> ShardedView<'a> {
    /// Reads `values` as the slabs over the leading-axis row ranges `rows`.
    ///
    /// # Panics
    /// Panics if the ranges do not tile `0..leading` in order, or if the
    /// cells do not divide evenly by the axis.
    pub fn new(
        leading: usize,
        values: &'a [f64],
        rows: impl IntoIterator<Item = Range<usize>>,
    ) -> Self {
        assert!(leading > 0, "leading axis must be non-empty");
        assert_eq!(
            values.len() % leading,
            0,
            "cells must divide evenly by the axis"
        );
        let stride = values.len() / leading;
        let mut next = 0usize;
        let slabs: Vec<DataSlab<'a>> = rows
            .into_iter()
            .map(|r| {
                assert!(
                    r.start == next && r.start <= r.end && r.end <= leading,
                    "slabs must tile the axis in order"
                );
                next = r.end;
                DataSlab {
                    values: &values[r.start * stride..r.end * stride],
                    rows: r,
                }
            })
            .collect();
        assert!(!slabs.is_empty(), "sharded view needs at least one slab");
        assert_eq!(next, leading, "slabs must cover the whole axis");
        ShardedView {
            leading,
            values,
            slabs,
        }
    }

    /// `values` as (at most) `shards` near-equal leading-axis slabs — the
    /// canonical [`partition_rows`] split.
    pub fn partitioned(leading: usize, values: &'a [f64], shards: usize) -> Self {
        ShardedView::new(leading, values, partition_rows(leading, shards))
    }

    /// Cells per leading-axis row.
    pub fn stride(&self) -> usize {
        self.values.len() / self.leading
    }

    /// Number of slabs.
    pub fn shard_count(&self) -> usize {
        self.slabs.len()
    }

    /// The slab row ranges translated to an axis of length `axis_len`
    /// (`axis_len` must equal `leading` times an integer or divide it so the
    /// element boundaries stay aligned). Returns `None` when a boundary does
    /// not fall on a whole row of the target axis — a product whose leading
    /// factor does not line up with the slabs.
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

/// Runs a batch of independent tasks to completion on scoped threads, at
/// most `threads` at a time; `new(1)` is the serial executor.
///
/// Scoped threads (rather than a long-lived task queue) keep the executor
/// deadlock-free by construction: a serving worker that fans out never waits
/// on a pool that could itself be saturated with blocked workers, and the
/// borrowed output slices need no `'static` laundering. Spawn cost is
/// microseconds against tasks that are expected to run for milliseconds;
/// with `threads <= 1` tasks run inline.
#[derive(Debug, Clone, Copy)]
pub struct ScopedExecutor {
    threads: usize,
}

impl ScopedExecutor {
    /// An executor using up to `threads` concurrent scoped threads
    /// (0 ⇒ the machine's available parallelism). An explicit `threads` is
    /// honored even above the core count.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
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
        let ok = ShardedView::new(6, &x, [0..2, 2..6]);
        assert_eq!(ok.stride(), 2);
        assert_eq!(ok.slabs[0].values, &x[0..4]);
        assert_eq!(ok.slabs[1].values, &x[4..12]);
        // A gap at the start, a gap inside, short of the end, no slab at all.
        let bad: [&[(usize, usize)]; 4] = [&[(1, 6)], &[(0, 2), (3, 6)], &[(0, 4)], &[]];
        for bad in bad {
            let rows = bad.iter().map(|&(start, end)| start..end);
            let rejected = std::panic::catch_unwind(|| ShardedView::new(6, &x, rows));
            assert!(rejected.is_err(), "{bad:?} must be rejected");
        }
    }
}
