//! How an engine stores a registered data vector.
//!
//! A dataset lives as a [`ShardedDataVector`]: one contiguous vector plus the
//! leading-axis row bounds of the `k ≥ 1` slabs it is partitioned into.
//! Row-major order makes each slab a contiguous block of cells, so a slab is
//! a subslice of the one vector. The slabs are the unit remote shard workers
//! hold (`hdmm_net::RpcKernels`); in-process serving runs the plain kernels
//! over the whole vector, with bitwise-identical results — sharding is a
//! placement decision, never a semantic one.

use hdmm_mechanism::ShardedView;
use hdmm_workload::Domain;

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
    /// near-equal leading-axis slabs. `shards` is clamped to `[1, n₁]`
    /// (a slab must span at least one leading-axis row), so non-divisible
    /// shapes get slabs differing by one row. The vector is kept as is — no
    /// copy, whatever the slab count.
    ///
    /// # Panics
    /// Panics if `x.len() != domain.size()`.
    pub fn partition(domain: &Domain, x: Vec<f64>, shards: usize) -> Self {
        assert_eq!(x.len(), domain.size(), "data vector size mismatch");
        let leading = domain.attr_size(0);
        // The same canonical near-equal partition `ShardedView::partitioned` uses.
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

    /// The vector read as its slabs.
    pub fn view(&self) -> ShardedView<'_> {
        ShardedView::new(
            self.bounds[self.shard_count()],
            &self.values,
            self.bounds.windows(2).map(|b| b[0]..b[1]),
        )
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
            let view = d.view();
            assert_eq!(view.leading, 7);
            assert_eq!(view.values.as_ptr(), ptr);
            for slab in &view.slabs {
                let offset = slab.rows.start * 3;
                assert_eq!(
                    slab.values.as_ptr(),
                    ptr.wrapping_add(offset),
                    "slab {:?} borrows the vector at its offset",
                    slab.rows
                );
            }
        }
    }

    #[test]
    fn partition_tiles_non_divisible_axes() {
        let s = ShardedDataVector::partition(&domain(), cells(), 3);
        assert_eq!(s.shard_count(), 3);
        let view = s.view();
        // 7 rows over 3 shards: 3 + 2 + 2.
        let rows: Vec<_> = view.slabs.iter().map(|s| s.rows.clone()).collect();
        assert_eq!(rows, [0..3, 3..5, 5..7]);
        assert_eq!(view.slabs[0].values, &cells()[0..9]);
        assert_eq!(view.slabs[2].values, &cells()[15..21]);
    }

    #[test]
    fn shard_count_is_clamped_to_the_axis() {
        let s = ShardedDataVector::partition(&domain(), cells(), 100);
        assert_eq!(s.shard_count(), 7, "one slab per leading row at most");
        let one = ShardedDataVector::partition(&domain(), cells(), 0);
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.view().slabs[0].values, &cells()[..]);
    }
}
