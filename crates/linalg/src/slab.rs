//! Slab-wise Kronecker kernels for sharded data domains.
//!
//! A row-major data vector over a domain `n₁ × n₂ × … × n_d` is separable
//! along its leading axis: cells `[lo·R, hi·R)` (with `R = Π_{i>1} nᵢ`) form
//! a contiguous *slab* covering leading-axis rows `[lo, hi)`. When the
//! chain driver contracts the leading mode *last* — its order (`contract.rs`)
//! is the shrinking leaves, then the rest, each group last-to-first, so that
//! is every product except one whose leading leaf shrinks while some other
//! leaf does not — every mode except the leading one operates independently
//! per leading index, and a Kronecker matvec decomposes into three steps
//! that a sharded engine can fan out:
//!
//! 1. **trailing** ([`kmatvec_trailing_slab`]) — apply all factors except the
//!    leading leaf to each slab independently (the bulk of the flops);
//! 2. **merge** — concatenate the per-slab intermediates in slab order (a
//!    pure memory move);
//! 3. **leading** ([`contract_rows`](crate::contract_rows) with `left = 1`) —
//!    contract the leading factor over the merged tensor, restricted to a
//!    block of *output* rows per task.
//!
//! ## Bit-for-bit exactness
//!
//! The decomposition is not merely numerically close to the unsharded
//! [`kmatvec_structured`](crate::kmatvec_structured) — it is **bitwise
//! identical** for every shard count, which is what lets a serving engine
//! guarantee that answers do not depend on how a dataset is partitioned —
//! because every step *is* the unsharded code (`contract.rs`):
//!
//! * the trailing step runs the same chain driver, with the slab's leading
//!   rows as more of the outermost `left` loop, across which no variant
//!   carries state;
//! * the leading step calls the same kernel the full product calls with
//!   `0..out_dim`, for a block: row-local variants (`Dense`, `Sparse`,
//!   `WidthRange`, …) restrict their loop to it, and variants whose
//!   contraction carries a running accumulator across rows (`Prefix`,
//!   `AllRange`, `Total`) *recompute* the prefix state from row 0 in the
//!   original order instead of splitting the sum, trading a little
//!   redundant work for exact reproducibility.
//!
//! Summing per-shard partial products would be the textbook merge, but
//! floating-point addition is not associative: `((a+b)+c)+d` and
//! `(a+b)+(c+d)` differ in the last ulp. The trailing/merge/leading split is
//! the decomposition that parallelizes *without* reassociating any sum.
//!
//! A product whose order contracts the leading mode early (a leading `Total`
//! in front of a factor that does not shrink) has no such split:
//! [`slab_split`] returns `None` for it, and the sharded executors run it on
//! the assembled plain kernel — the path they already take for slabs that do
//! not align with the leading factor. Same bits either way; only the
//! parallelism differs.

use crate::contract::{chain_order, contract_chain, KronScratch};
use crate::structured::{flatten, StructuredMatrix};
use crate::Matrix;
use std::ops::Range;

/// A flattened factor list split into its leading leaf and trailing leaves.
///
/// The leading leaf is the factor whose input mode the slab partition runs
/// along; everything after it applies independently per leading index.
#[derive(Debug, Clone)]
pub struct LeadingSplit<'a> {
    /// The first flattened leaf factor.
    pub leading: &'a StructuredMatrix,
    /// The remaining leaf factors, in order.
    pub trailing: Vec<&'a StructuredMatrix>,
}

/// Splits a factor list into leading leaf and trailing leaves, flattening
/// nested `Kron` factors first. A split of shapes only: whether a product
/// may be computed through it is [`slab_split`]'s question.
///
/// # Panics
/// Panics if `factors` is empty.
pub fn leading_split<'a>(factors: &[&'a StructuredMatrix]) -> LeadingSplit<'a> {
    let flat = flatten(factors);
    assert!(
        !flat.is_empty(),
        "leading_split requires at least one factor"
    );
    LeadingSplit {
        leading: flat[0],
        trailing: flat[1..].to_vec(),
    }
}

/// The [`leading_split`] of a forward product, when the chain driver
/// contracts its leading mode last — the only order the trailing / merge /
/// leading decomposition reproduces bit for bit. `None` when the leading
/// leaf shrinks (fewer rows than columns) and some other leaf does not: that
/// product must run on the plain kernel.
///
/// # Panics
/// Panics if `factors` is empty.
pub fn slab_split<'a>(factors: &[&'a StructuredMatrix]) -> Option<LeadingSplit<'a>> {
    let leading_last = chain_order(&flatten(factors), false).last() == Some(0);
    leading_last.then(|| leading_split(factors))
}

impl LeadingSplit<'_> {
    /// Product of trailing input dimensions `R = Π cols` (1 when empty).
    pub fn trailing_cols(&self) -> usize {
        self.trailing.iter().map(|f| f.cols()).product()
    }

    /// Product of trailing output dimensions `Π rows` (1 when empty).
    pub fn trailing_rows(&self) -> usize {
        self.trailing.iter().map(|f| f.rows()).product()
    }
}

/// Applies the trailing factors of a Kronecker product to one leading-axis
/// slab: the chain of [`kmatvec_structured`](crate::kmatvec_structured) with
/// the slab's leading rows as extra `left`. The slab must span whole leading
/// rows (`x_slab.len()` a multiple of the trailing input size `R`). Returns
/// the slab of the intermediate tensor, bitwise equal to the corresponding
/// rows of the unsharded intermediate.
///
/// # Panics
/// Panics if the slab length is not aligned to the trailing modes.
pub fn kmatvec_trailing_slab(trailing: &[&StructuredMatrix], x_slab: &[f64]) -> Vec<f64> {
    contract_chain(trailing, x_slab, &mut KronScratch::new(), false)
}

/// Dense matvec restricted to a row block, one [`crate::simd::dot`] per row.
/// [`Matrix::matvec`] is the `0..rows` call, so a row-partitioned explicit
/// strategy measures bitwise identically to the unsharded path.
///
/// # Panics
/// Panics on shape mismatches or `rows` out of bounds.
pub fn matvec_rows(a: &Matrix, x: &[f64], rows: Range<usize>, out: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "matvec dimension mismatch");
    assert!(rows.end <= a.rows(), "row range out of bounds");
    assert_eq!(out.len(), rows.len(), "output length mismatch");
    for (slot, r) in out.iter_mut().zip(rows) {
        *slot = crate::simd::dot(a.row(r), x);
    }
}

/// Splits `0..len` into at most `parts` contiguous, near-equal ranges
/// (never empty unless `len == 0`). The canonical shard partition used by
/// the fan-out pipelines.
pub fn partition_rows(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contract_rows, kmatvec_structured, Csr};

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn leading_variants(n: usize) -> Vec<StructuredMatrix> {
        let dense = Matrix::from_fn(n + 2, n, |r, c| (((r * 5 + c * 3) % 7) as f64) - 3.0);
        vec![
            StructuredMatrix::identity(n).scaled(1.25),
            StructuredMatrix::total(n).scaled(0.5),
            StructuredMatrix::prefix(n).scaled(0.3),
            StructuredMatrix::all_range(n).scaled(0.7),
            StructuredMatrix::width_range(n, 3).scaled(0.3),
            StructuredMatrix::width_range(n, 1),
            StructuredMatrix::Sparse(Csr::from_dense(&dense)),
            StructuredMatrix::Dense(dense),
        ]
    }

    fn data(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(seed | 1)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                ((h >> 40) % 13) as f64 * 0.37 - 2.0
            })
            .collect()
    }

    /// Whether a leaf has fewer rows than columns.
    fn shrinks(a: &StructuredMatrix) -> bool {
        a.rows() < a.cols()
    }

    /// [`slab_split`]'s answer, from the rule rather than from `chain_order`:
    /// only a shrinking lead in front of a non-shrinking leaf is refused.
    fn sliceable(lead: &StructuredMatrix, trailing: &[StructuredMatrix]) -> bool {
        !shrinks(lead) || trailing.iter().all(shrinks)
    }

    #[test]
    fn pipeline_matches_full_kmatvec_bitwise() {
        let n_lead = 7;
        let short =
            || StructuredMatrix::Dense(Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f64 - 3.5));
        // The second list shrinks in every leaf, so a shrinking lead is sliced
        // behind it.
        let trailings = [
            [StructuredMatrix::prefix(3).scaled(0.5), short()],
            [StructuredMatrix::total(3).scaled(1.5), short()],
        ];
        for (trailing, lead) in trailings
            .iter()
            .flat_map(|t| leading_variants(n_lead).into_iter().map(move |l| (t, l)))
        {
            let factors: Vec<&StructuredMatrix> =
                std::iter::once(&lead).chain(trailing.iter()).collect();
            let split = slab_split(&factors);
            assert_eq!(split.is_some(), sliceable(&lead, trailing), "{lead:?}");
            let Some(split) = split else { continue };
            let rest_n = split.trailing_cols();
            let x = data(n_lead * rest_n, 11);
            let full = kmatvec_structured(&factors, &x);

            for shards in [1usize, 2, 3, 5, 7] {
                // trailing per slab, concat in order
                let mut t = Vec::new();
                for r in partition_rows(n_lead, shards) {
                    let slab = &x[r.start * rest_n..r.end * rest_n];
                    t.extend(kmatvec_trailing_slab(&split.trailing, slab));
                }
                // leading, row-partitioned
                let right = split.trailing_rows();
                let m = split.leading.rows();
                let mut out = vec![0.0; m * right];
                for r in partition_rows(m, shards) {
                    let chunk = &mut out[r.start * right..r.end * right];
                    contract_rows(split.leading, &t, chunk, 1, right, r);
                }
                assert!(bits_eq(&out, &full), "{lead:?} shards={shards}");
            }
        }
    }

    #[test]
    fn matvec_rows_matches_matvec_bitwise() {
        let a = Matrix::from_fn(9, 5, |r, c| ((r * 13 + c * 7) % 11) as f64 * 0.31 - 1.4);
        let x = data(5, 3);
        let full = a.matvec(&x);
        for shards in [1usize, 2, 4, 9] {
            let mut out = vec![0.0; 9];
            for r in partition_rows(9, shards) {
                let (start, len) = (r.start, r.len());
                matvec_rows(&a, &x, r, &mut out[start..start + len]);
            }
            assert!(bits_eq(&out, &full), "shards={shards}");
        }
    }

    #[test]
    fn partition_rows_covers_contiguously() {
        for (len, parts) in [(10, 3), (7, 7), (5, 9), (1, 4), (0, 2), (16, 1)] {
            let ranges = partition_rows(len, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len);
            if len > 0 {
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn slab_split_refuses_only_chains_that_contract_the_leading_mode_early() {
        let tall = StructuredMatrix::Dense(Matrix::from_fn(11, 9, |r, c| (r + 2 * c) as f64));
        let identity = StructuredMatrix::identity(5);
        let total = StructuredMatrix::total(6);
        let ranges = StructuredMatrix::all_range(6);
        // A leading Total in front of a leaf that does not shrink.
        assert!(slab_split(&[&total, &ranges]).is_none());
        // The same leaves the other way round, or behind a lead that does
        // not shrink, or in front of leaves that all shrink.
        assert!(slab_split(&[&tall, &identity]).is_some());
        assert!(slab_split(&[&ranges, &total]).is_some());
        assert!(slab_split(&[&total, &total]).is_some());
    }

    #[test]
    fn single_factor_has_empty_trailing() {
        let lead = StructuredMatrix::prefix(4);
        let factors = [&lead];
        let split = leading_split(&factors);
        assert!(split.trailing.is_empty());
        assert_eq!(split.trailing_cols(), 1);
        let x = data(4, 5);
        // Trailing on an empty list is the identity.
        assert!(bits_eq(&kmatvec_trailing_slab(&split.trailing, &x), &x));
    }
}
