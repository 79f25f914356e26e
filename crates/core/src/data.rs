//! How an engine stores a registered data vector.
//!
//! A dataset lives as a [`ShardedDataVector`]: independently allocated slabs
//! partitioning the *leading attribute axis*, of which the ordinary
//! contiguous vector is the one-slab case. Row-major order makes each slab a
//! contiguous block of cells, and HDMM's Kronecker structure lets MEASURE /
//! RECONSTRUCT / ANSWER fan out over slabs with bitwise-identical results
//! (see `hdmm_mechanism::sharded`) — sharding is a storage and parallelism
//! decision, never a semantic one.

use hdmm_mechanism::{DataSlab, ShardedView};
use hdmm_workload::Domain;

/// A data vector partitioned into `k ≥ 1` independently allocated
/// leading-axis slabs — the in-process stand-in for slabs living on
/// different machines. Immutable once built: the engine serves concurrent
/// requests lock-free against it.
#[derive(Debug, Clone)]
pub struct ShardedDataVector {
    slabs: Vec<Vec<f64>>,
    /// Leading-axis row boundaries, length `slabs.len() + 1`, starting at 0.
    bounds: Vec<usize>,
}

impl ShardedDataVector {
    /// Partitions a row-major vector over `domain` into `shards` contiguous,
    /// near-equal leading-axis slabs. `shards` is clamped to `[1, n₁]`
    /// (a slab must span at least one leading-axis row), so non-divisible
    /// shapes get slabs differing by one row. A single slab takes ownership
    /// of `x` as is — no copy.
    ///
    /// # Panics
    /// Panics if `x.len() != domain.size()`.
    pub fn partition(domain: &Domain, x: Vec<f64>, shards: usize) -> Self {
        assert_eq!(x.len(), domain.size(), "data vector size mismatch");
        let leading = domain.attr_size(0);
        let stride = x.len() / leading;
        // The same canonical near-equal partition the fan-out pipelines use.
        let ranges = hdmm_linalg::partition_rows(leading, shards.clamp(1, leading));
        let mut bounds = Vec::with_capacity(ranges.len() + 1);
        bounds.push(0);
        bounds.extend(ranges.iter().map(|r| r.end));
        let slabs = if ranges.len() == 1 {
            vec![x]
        } else {
            ranges
                .iter()
                .map(|r| x[r.start * stride..r.end * stride].to_vec())
                .collect()
        };
        ShardedDataVector { slabs, bounds }
    }

    /// Number of slabs.
    pub fn shard_count(&self) -> usize {
        self.slabs.len()
    }

    /// The slabs as the borrowed view the mechanism pipeline runs over.
    pub fn view(&self) -> ShardedView<'_> {
        let slabs = self
            .slabs
            .iter()
            .zip(self.bounds.windows(2))
            .map(|(values, rows)| DataSlab {
                rows: rows[0]..rows[1],
                values,
            })
            .collect();
        ShardedView::new(self.bounds[self.slabs.len()], slabs)
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
    fn one_slab_takes_the_vector_without_copying() {
        let x = cells();
        let ptr = x.as_ptr();
        let d = ShardedDataVector::partition(&domain(), x, 1);
        assert_eq!(d.shard_count(), 1);
        let view = d.view();
        assert_eq!(view.leading, 7);
        assert_eq!(view.slabs[0].rows, 0..7);
        assert_eq!(view.slabs[0].values, &cells()[..]);
        assert_eq!(
            view.slabs[0].values.as_ptr(),
            ptr,
            "x was moved, not copied"
        );
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
        assert_eq!(view.assemble(), cells());
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
