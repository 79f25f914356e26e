//! Per-attribute query-matrix building blocks (§3.3).
//!
//! These are the vectorized predicate sets the paper composes into products:
//! `Identity`, `Total`, `Prefix`, `AllRange`, plus the synthetic variants used
//! in the evaluation (`WidthRange`, permuted ranges). Each block is an
//! `m × n` 0/1 matrix over a single attribute of size `n`.
//!
//! The `*_block` constructors return [`StructuredMatrix`] descriptors — O(1)
//! for the closed-form patterns, width-limited ranges included, `n` indices
//! over the `AllRange` descriptor for permuted ranges — and are what
//! [`crate::builders`] emits, so workload construction never allocates a
//! dense `m × n` table. The plain functions materialize dense equivalents for
//! entry-wise consumers (baselines) and serve as test oracles.
//!
//! Closed-form Gram matrices are provided for the structured blocks so that
//! large-domain error computations never materialize the `m × n` query matrix
//! (the paper's "for highly structured workloads, WᵀW can be computed directly
//! without materializing W", §5.2).

use hdmm_linalg::{Matrix, StructuredMatrix};
use rand::seq::SliceRandom;
use rand::Rng;

/// `Identity` block in structured form: O(1) storage.
pub fn identity_block(n: usize) -> StructuredMatrix {
    StructuredMatrix::identity(n)
}

/// `Total` block in structured form: O(1) storage.
pub fn total_block(n: usize) -> StructuredMatrix {
    StructuredMatrix::total(n)
}

/// `Prefix` block in structured form: O(1) storage, O(n) matvec.
pub fn prefix_block(n: usize) -> StructuredMatrix {
    StructuredMatrix::prefix(n)
}

/// `AllRange` block in structured form: O(1) storage for the
/// `n(n+1)/2 × n` query set.
pub fn all_range_block(n: usize) -> StructuredMatrix {
    StructuredMatrix::all_range(n)
}

/// `Permuted Range` block: [`all_range_block`] with its columns shuffled by
/// `rng` (column `c` moves to `perm[c]`), stored as the `AllRange`
/// descriptor plus `n` indices.
pub fn permuted_range_block(n: usize, rng: &mut impl Rng) -> StructuredMatrix {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    // A shuffle of `0..n` over a closed-form block: what
    // `StructuredMatrix::permuted` would check holds by construction.
    StructuredMatrix::Permuted {
        inner: Box::new(all_range_block(n)),
        perm,
    }
}

/// `WidthRange` block in structured form: O(1) storage for the
/// `(n−width+1) × n` query set, with the bits of its CSR form
/// (`Csr::from_dense(&width_range(n, width))`) in every product, Gram and
/// norm.
///
/// # Panics
/// Panics unless `1 ≤ width ≤ n`.
pub fn width_range_block(n: usize, width: usize) -> StructuredMatrix {
    StructuredMatrix::width_range(n, width)
}

/// `Identity` predicate set: one point query per domain element.
pub fn identity(n: usize) -> Matrix {
    Matrix::identity(n)
}

/// `Total` predicate set: the single query counting all records.
pub fn total(n: usize) -> Matrix {
    Matrix::ones(1, n)
}

/// `Prefix` predicate set `P`: queries `[0, i]` for every `i` — the empirical
/// CDF workload.
pub fn prefix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| if c <= r { 1.0 } else { 0.0 })
}

/// `AllRange` predicate set `R`: all `n(n+1)/2` interval queries `[i, j]`.
pub fn all_range(n: usize) -> Matrix {
    let m = n * (n + 1) / 2;
    let mut out = Matrix::zeros(m, n);
    let mut row = 0;
    for i in 0..n {
        for j in i..n {
            for c in i..=j {
                out[(row, c)] = 1.0;
            }
            row += 1;
        }
    }
    out
}

/// All range queries covering exactly `width` contiguous elements
/// (the paper's "Width 32 Range" workload with `width = 32`).
pub fn width_range(n: usize, width: usize) -> Matrix {
    assert!(width >= 1 && width <= n, "width must be in [1, n]");
    let m = n - width + 1;
    let mut out = Matrix::zeros(m, n);
    for r in 0..m {
        for c in r..r + width {
            out[(r, c)] = 1.0;
        }
    }
    out
}

/// Gram matrix `PᵀP` of the [`prefix`] workload without materializing it:
/// `(PᵀP)[i,j] = n − max(i,j)` (the number of prefixes containing both cells).
pub fn gram_prefix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| (n - i.max(j)) as f64)
}

/// Gram matrix `RᵀR` of the [`all_range`] workload without materializing it:
/// `(RᵀR)[i,j] = (min(i,j)+1)·(n − max(i,j))` (ranges containing both cells).
pub fn gram_all_range(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| ((i.min(j) + 1) * (n - i.max(j))) as f64)
}

/// Gram matrix of [`width_range`] without materializing it:
/// the number of width-`w` windows containing both `i` and `j`, filled by
/// the closed-form [`width_range_block`]'s Gram.
pub fn gram_width_range(n: usize, width: usize) -> Matrix {
    width_range_block(n, width).gram_dense()
}

/// True when every row of `w` is either a point query (one-hot) or the total
/// query (all ones) — i.e. the predicate set is contained in `T ∪ I`.
///
/// HDMM's parameter convention (§7.1) assigns `p = 1` to such attributes.
pub fn is_total_or_identity(w: &Matrix) -> bool {
    (0..w.rows()).all(|r| {
        let row = w.row(r);
        let ones = row.iter().filter(|&&v| v == 1.0).count();
        let zeros = row.iter().filter(|&&v| v == 0.0).count();
        ones + zeros == row.len() && (ones == 1 || ones == row.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_block_shape() {
        assert_eq!(identity(5).shape(), (5, 5));
    }

    #[test]
    fn total_is_single_all_ones_row() {
        let t = total(4);
        assert_eq!(t.shape(), (1, 4));
        assert_eq!(t.row(0), &[1.0; 4]);
    }

    #[test]
    fn prefix_rows_are_cdf_queries() {
        let p = prefix(3);
        assert_eq!(p.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(p.row(2), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn all_range_counts() {
        let r = all_range(4);
        assert_eq!(r.rows(), 10); // 4·5/2
                                  // Every row is a contiguous run of ones.
        for i in 0..r.rows() {
            let row = r.row(i);
            let first = row.iter().position(|&v| v == 1.0).unwrap();
            let last = row.iter().rposition(|&v| v == 1.0).unwrap();
            assert!(row[first..=last].iter().all(|&v| v == 1.0));
        }
    }

    #[test]
    fn gram_prefix_matches_explicit() {
        for n in [1, 2, 5, 9] {
            assert!(gram_prefix(n).approx_eq(&prefix(n).gram(), 1e-12));
        }
    }

    #[test]
    fn gram_all_range_matches_explicit() {
        for n in [1, 3, 6, 10] {
            assert!(gram_all_range(n).approx_eq(&all_range(n).gram(), 1e-12));
        }
    }

    #[test]
    fn gram_width_range_matches_explicit() {
        for (n, w) in [(8, 3), (10, 1), (6, 6), (12, 5)] {
            assert!(gram_width_range(n, w).approx_eq(&width_range(n, w).gram(), 1e-12));
        }
    }

    #[test]
    fn width_range_full_width_is_total() {
        assert!(width_range(5, 5).approx_eq(&total(5), 0.0));
    }

    #[test]
    fn permutation_preserves_gram_spectrum_trace() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = all_range(8);
        let pw = permuted_range_block(8, &mut rng).to_dense();
        // Permutation preserves Frobenius norm and Gram trace.
        assert!((w.frobenius_norm() - pw.frobenius_norm()).abs() < 1e-12);
        assert!((w.gram().trace() - pw.gram().trace()).abs() < 1e-12);
    }

    #[test]
    fn permuted_block_reorders_columns() {
        let w = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let p = StructuredMatrix::permuted(w.into(), vec![2, 0, 1]).unwrap();
        assert_eq!(p.to_dense().row(0), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn structured_blocks_match_dense() {
        for n in [1, 2, 5, 9] {
            assert!(identity_block(n).to_dense().approx_eq(&identity(n), 0.0));
            assert!(total_block(n).to_dense().approx_eq(&total(n), 0.0));
            assert!(prefix_block(n).to_dense().approx_eq(&prefix(n), 0.0));
            assert!(all_range_block(n).to_dense().approx_eq(&all_range(n), 0.0));
        }
        for (n, w) in [(8, 3), (10, 1), (6, 6)] {
            assert!(width_range_block(n, w)
                .to_dense()
                .approx_eq(&width_range(n, w), 0.0));
        }
    }

    #[test]
    fn structured_grams_match_closed_forms() {
        for n in [1, 4, 7] {
            assert!(prefix_block(n)
                .gram_dense()
                .approx_eq(&gram_prefix(n), 1e-12));
            assert!(all_range_block(n)
                .gram_dense()
                .approx_eq(&gram_all_range(n), 1e-12));
        }
    }

    #[test]
    fn total_or_identity_detection() {
        assert!(is_total_or_identity(&identity(4)));
        assert!(is_total_or_identity(&total(4)));
        let mut both = Matrix::zeros(2, 3);
        both[(0, 1)] = 1.0;
        both.row_mut(1).copy_from_slice(&[1.0, 1.0, 1.0]);
        assert!(is_total_or_identity(&both));
        assert!(!is_total_or_identity(&prefix(3)));
    }
}
