//! How an engine stores a registered data vector.
//!
//! A dataset lives as a [`ShardedDataVector`]: one contiguous vector plus the
//! leading-axis row bounds of the `k ≥ 1` slabs it is partitioned into.
//! Row-major order makes each slab a contiguous block of cells, so a slab is
//! a subslice of the one vector. The slabs are the unit remote shard workers
//! hold (`hdmm_net::RpcKernels`); in-process serving runs the plain kernels
//! over the whole vector, with bitwise-identical results — sharding is a
//! placement decision, never a semantic one.

use hdmm_workload::Domain;
use std::ops::Range;

/// A data vector partitioned into `k ≥ 1` leading-axis slabs. Immutable once
/// built: the engine serves concurrent requests lock-free against it.
#[derive(Debug, Clone)]
pub struct ShardedDataVector {
    values: Vec<f64>,
    /// Leading-axis row boundaries, length `k + 1`, from 0 to the axis length.
    bounds: Vec<usize>,
}

impl ShardedDataVector {
    /// Partitions a row-major vector over `domain` into `shards` contiguous,
    /// near-equal leading-axis slabs ([`hdmm_linalg::partition_rows`]).
    /// `shards` is clamped to `[1, n₁]` (a slab must span at least one
    /// leading-axis row), so non-divisible shapes get slabs differing by one
    /// row. The vector is kept as is — no copy, whatever the slab count.
    ///
    /// # Panics
    /// Panics if `x.len() != domain.size()`.
    pub fn partition(domain: &Domain, x: Vec<f64>, shards: usize) -> Self {
        assert_eq!(x.len(), domain.size(), "data vector size mismatch");
        let leading = domain.attr_size(0);
        let ranges = hdmm_linalg::partition_rows(leading, shards.clamp(1, leading));
        let bounds = std::iter::once(0)
            .chain(ranges.iter().map(|r| r.end))
            .collect();
        ShardedDataVector { values: x, bounds }
    }

    /// Number of slabs.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The whole vector, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Cells per leading-axis row.
    fn stride(&self) -> usize {
        self.values.len() / self.bounds[self.shard_count()]
    }

    /// Slab `shard`: the leading-axis rows it covers and its cells, a
    /// subslice of [`values`](Self::values).
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn slab(&self, shard: usize) -> (Range<usize>, &[f64]) {
        let rows = self.bounds[shard]..self.bounds[shard + 1];
        let stride = self.stride();
        let cells = &self.values[rows.start * stride..rows.end * stride];
        (rows, cells)
    }

    /// The slab boundaries translated to an axis of `axis_len` elements of
    /// `axis_stride` cells each: one range per slab, in slab order. `None`
    /// when a boundary does not fall on a whole element of that axis — a
    /// product whose leading factor does not line up with the slabs.
    pub fn ranges_on_axis(&self, axis_len: usize, axis_stride: usize) -> Option<Vec<Range<usize>>> {
        let stride = self.stride();
        self.bounds
            .windows(2)
            .map(|b| {
                let (start, end) = (b[0] * stride, b[1] * stride);
                let aligned = start.is_multiple_of(axis_stride) && end.is_multiple_of(axis_stride);
                let r = start / axis_stride..end / axis_stride;
                (aligned && r.end <= axis_len).then_some(r)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Domain {
        Domain::new(&[7, 3])
    }

    fn cells() -> Vec<f64> {
        (0..21).map(|i| i as f64).collect()
    }

    #[test]
    fn every_slab_borrows_the_one_vector() {
        for shards in [1, 3] {
            let x = cells();
            let ptr = x.as_ptr();
            let d = ShardedDataVector::partition(&domain(), x, shards);
            assert_eq!(d.shard_count(), shards);
            assert_eq!(d.values().as_ptr(), ptr, "x was moved, not copied");
            for shard in 0..shards {
                let (rows, values) = d.slab(shard);
                assert_eq!(
                    values.as_ptr(),
                    ptr.wrapping_add(rows.start * 3),
                    "slab {rows:?} borrows the vector at its offset"
                );
            }
        }
    }

    #[test]
    fn partition_tiles_non_divisible_axes() {
        let s = ShardedDataVector::partition(&domain(), cells(), 3);
        assert_eq!(s.shard_count(), 3);
        // 7 rows over 3 shards: 3 + 2 + 2.
        let rows: Vec<_> = (0..3).map(|i| s.slab(i).0).collect();
        assert_eq!(rows, [0..3, 3..5, 5..7]);
        assert_eq!(s.slab(0).1, &cells()[0..9]);
        assert_eq!(s.slab(2).1, &cells()[15..21]);
    }

    #[test]
    fn shard_count_is_clamped_to_the_axis() {
        let s = ShardedDataVector::partition(&domain(), cells(), 100);
        assert_eq!(s.shard_count(), 7, "one slab per leading row at most");
        let one = ShardedDataVector::partition(&domain(), cells(), 0);
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.slab(0).1, &cells()[..]);
    }

    #[test]
    fn ranges_on_axis_follow_the_slab_boundaries() {
        // Rows 0..3 | 3..5 | 5..7 of 3 cells each: cells 0..9 | 9..15 | 15..21.
        let s = ShardedDataVector::partition(&domain(), cells(), 3);
        assert_eq!(s.ranges_on_axis(7, 3), Some(vec![0..3, 3..5, 5..7]));
        assert_eq!(s.ranges_on_axis(21, 1), Some(vec![0..9, 9..15, 15..21]));
        // Elements of 2 cells split the boundary at cell 9; a short axis
        // cannot hold the last slab.
        assert_eq!(s.ranges_on_axis(11, 2), None);
        assert_eq!(s.ranges_on_axis(6, 3), None);
    }
}
