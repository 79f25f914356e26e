//! Data backends: how an engine stores a registered data vector.
//!
//! The serving layer reads data through the [`DataBackend`] trait instead of
//! a concrete `Vec<f64>`, so a dataset can live as one contiguous vector
//! ([`DenseVector`]) or as independently allocated leading-axis slabs
//! ([`ShardedDataVector`]) without the request path caring. Slabs partition
//! the *leading attribute axis*: row-major order makes each slab a
//! contiguous block of cells, and HDMM's Kronecker structure lets MEASURE /
//! RECONSTRUCT / ANSWER fan out over slabs with bitwise-identical results
//! (see `hdmm_mechanism::sharded`) — sharding is a storage and parallelism
//! decision, never a semantic one.

use hdmm_workload::Domain;

/// Read-only access to a registered data vector, possibly partitioned into
/// contiguous leading-axis slabs.
///
/// Invariants implementations must uphold:
/// * slabs are ordered and tile `0..leading_len()` without gaps;
/// * slab `s` holds exactly `shard_rows(s).len() · len() / leading_len()`
///   cells (row-major);
/// * the data is immutable for the lifetime of the backend (the engine
///   serves concurrent requests lock-free against it).
pub trait DataBackend: Send + Sync {
    /// Total number of cells (the domain size).
    fn len(&self) -> usize;

    /// True when the vector has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the partitioned leading axis (the first attribute's
    /// cardinality).
    fn leading_len(&self) -> usize;

    /// Number of slabs.
    fn shard_count(&self) -> usize;

    /// Leading-axis row range of slab `s` (`s < shard_count()`).
    fn shard_rows(&self, s: usize) -> std::ops::Range<usize>;

    /// The contiguous cells of slab `s`.
    fn shard_values(&self, s: usize) -> &[f64];

    /// Materializes the full vector (ordered slab concatenation).
    fn to_dense(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for s in 0..self.shard_count() {
            out.extend_from_slice(self.shard_values(s));
        }
        out
    }
}

/// The ordinary backend: one contiguous `Vec<f64>`, a single slab.
#[derive(Debug, Clone)]
pub struct DenseVector {
    x: Vec<f64>,
    leading: usize,
}

impl DenseVector {
    /// Wraps a row-major data vector over `domain`.
    ///
    /// # Panics
    /// Panics if `x.len() != domain.size()`.
    pub fn new(domain: &Domain, x: Vec<f64>) -> Self {
        assert_eq!(x.len(), domain.size(), "data vector size mismatch");
        DenseVector {
            x,
            leading: domain.attr_size(0),
        }
    }
}

impl DataBackend for DenseVector {
    fn len(&self) -> usize {
        self.x.len()
    }

    fn leading_len(&self) -> usize {
        self.leading
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn shard_rows(&self, s: usize) -> std::ops::Range<usize> {
        assert_eq!(s, 0, "dense backend has a single slab");
        0..self.leading
    }

    fn shard_values(&self, s: usize) -> &[f64] {
        assert_eq!(s, 0, "dense backend has a single slab");
        &self.x
    }
}

/// A data vector partitioned into `k` independently allocated leading-axis
/// slabs — the in-process stand-in for slabs living on different machines.
#[derive(Debug, Clone)]
pub struct ShardedDataVector {
    slabs: Vec<Vec<f64>>,
    /// Leading-axis row boundaries, length `slabs.len() + 1`, starting at 0.
    bounds: Vec<usize>,
    leading: usize,
    total: usize,
}

impl ShardedDataVector {
    /// Partitions a row-major vector over `domain` into `shards` contiguous,
    /// near-equal leading-axis slabs. `shards` is clamped to `[1, n₁]`
    /// (a slab must span at least one leading-axis row), so non-divisible
    /// shapes get slabs differing by one row.
    ///
    /// # Panics
    /// Panics if `x.len() != domain.size()`.
    pub fn partition(domain: &Domain, x: Vec<f64>, shards: usize) -> Self {
        assert_eq!(x.len(), domain.size(), "data vector size mismatch");
        let leading = domain.attr_size(0);
        let total = x.len();
        let stride = total / leading;
        // The same canonical near-equal partition the fan-out pipelines use.
        let ranges = hdmm_linalg::partition_rows(leading, shards.clamp(1, leading));
        let mut slabs = Vec::with_capacity(ranges.len());
        let mut bounds = Vec::with_capacity(ranges.len() + 1);
        bounds.push(0);
        for r in ranges {
            slabs.push(x[r.start * stride..r.end * stride].to_vec());
            bounds.push(r.end);
        }
        ShardedDataVector {
            slabs,
            bounds,
            leading,
            total,
        }
    }

    /// Builds from pre-existing slabs and their leading-axis row boundaries
    /// (`bounds[0] = 0`, strictly increasing, ending at the leading length).
    ///
    /// # Panics
    /// Panics if the slabs do not tile the axis consistently.
    pub fn from_slabs(domain: &Domain, slabs: Vec<Vec<f64>>, bounds: Vec<usize>) -> Self {
        let leading = domain.attr_size(0);
        let total = domain.size();
        let stride = total / leading;
        assert_eq!(bounds.len(), slabs.len() + 1, "bounds must bracket slabs");
        assert_eq!(bounds[0], 0, "bounds must start at 0");
        assert_eq!(
            *bounds.last().expect("non-empty"),
            leading,
            "bounds must end at n₁"
        );
        for (i, s) in slabs.iter().enumerate() {
            assert!(bounds[i] < bounds[i + 1], "bounds must strictly increase");
            assert_eq!(
                s.len(),
                (bounds[i + 1] - bounds[i]) * stride,
                "slab {i} size does not match its row range"
            );
        }
        ShardedDataVector {
            slabs,
            bounds,
            leading,
            total,
        }
    }
}

impl DataBackend for ShardedDataVector {
    fn len(&self) -> usize {
        self.total
    }

    fn leading_len(&self) -> usize {
        self.leading
    }

    fn shard_count(&self) -> usize {
        self.slabs.len()
    }

    fn shard_rows(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    fn shard_values(&self, s: usize) -> &[f64] {
        &self.slabs[s]
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
    fn dense_is_one_contiguous_slab() {
        let d = DenseVector::new(&domain(), cells());
        assert_eq!(d.len(), 21);
        assert_eq!(d.leading_len(), 7);
        assert_eq!(d.shard_count(), 1);
        assert_eq!(d.shard_rows(0), 0..7);
        assert_eq!(d.shard_values(0), &cells()[..]);
        assert_eq!(d.to_dense(), cells());
    }

    #[test]
    fn partition_tiles_non_divisible_axes() {
        let s = ShardedDataVector::partition(&domain(), cells(), 3);
        assert_eq!(s.shard_count(), 3);
        // 7 rows over 3 shards: 3 + 2 + 2.
        assert_eq!(s.shard_rows(0), 0..3);
        assert_eq!(s.shard_rows(1), 3..5);
        assert_eq!(s.shard_rows(2), 5..7);
        assert_eq!(s.shard_values(0), &cells()[0..9]);
        assert_eq!(s.to_dense(), cells());
    }

    #[test]
    fn shard_count_is_clamped_to_the_axis() {
        let s = ShardedDataVector::partition(&domain(), cells(), 100);
        assert_eq!(s.shard_count(), 7, "one slab per leading row at most");
        let one = ShardedDataVector::partition(&domain(), cells(), 0);
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.shard_values(0), &cells()[..]);
    }

    #[test]
    fn from_slabs_validates_tiling() {
        let x = cells();
        let ok = ShardedDataVector::from_slabs(
            &domain(),
            vec![x[0..6].to_vec(), x[6..21].to_vec()],
            vec![0, 2, 7],
        );
        assert_eq!(ok.to_dense(), x);
        let bad = std::panic::catch_unwind(|| {
            ShardedDataVector::from_slabs(
                &domain(),
                vec![x[0..6].to_vec(), x[6..21].to_vec()],
                vec![0, 3, 7],
            )
        });
        assert!(bad.is_err(), "mis-sized slab must be rejected");
    }
}
