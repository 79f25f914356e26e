//! Property tests: every `StructuredMatrix` variant agrees with its
//! `to_dense()` equivalent on matvec, rmatvec, Gram, column sums, and
//! sensitivity — including Kronecker compositions — so the structured fast
//! paths can replace dense blocks anywhere without changing semantics.

use hdmm_linalg::{
    contract_rows, contract_transpose_rows, kmatvec_structured, kmatvec_trailing_slab,
    kmatvec_transpose_structured, kron_all, partition_rows, slab_split, Csr, KronScratch, Matrix,
    StructuredMatrix,
};
use hdmm_optimizer::planner::is_total_like;
use hdmm_optimizer::PIdentity;
use hdmm_workload::{blocks, builders, Domain, ProductTerm, Workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The p-Identity leaf OPT_0 would hand on for the non-negative `Θ`.
fn p_identity(theta: Matrix) -> StructuredMatrix {
    PIdentity::new(theta).leaf()
}

/// A random structured variant over a domain of size `n` (2..=7), paired
/// with a generated scale in (0.2, 2.2).
fn variant(n: usize) -> impl Strategy<Value = StructuredMatrix> {
    (
        0usize..8,
        0.2f64..2.2,
        proptest::collection::vec(proptest::bool::weighted(0.35), 3 * n),
    )
        .prop_map(move |(kind, scale, bits)| {
            let pick = |r: usize, c: usize, other: f64| if bits[r * n + c] { scale } else { other };
            match kind {
                0 => StructuredMatrix::identity(n).scaled(scale),
                1 => StructuredMatrix::total(n).scaled(scale),
                2 => StructuredMatrix::prefix(n).scaled(scale),
                3 => StructuredMatrix::all_range(n).scaled(scale),
                4 => StructuredMatrix::Sparse(Csr::from_dense(&Matrix::from_fn(3, n, |r, c| {
                    pick(r, c, 0.0)
                }))),
                5 => StructuredMatrix::Dense(Matrix::from_fn(3, n, |r, c| pick(r, c, -1.0))),
                6 => p_identity(Matrix::from_fn(3, n, |r, c| pick(r, c, 0.0))),
                _ => p_identity(Matrix::from_fn(3, n, |r, c| pick(r, c, 0.0))).gram_pinv(),
            }
        })
}

fn data_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..50, len).prop_map(|v| v.into_iter().map(f64::from).collect())
}

fn assert_close(a: &[f64], b: &[f64], tol: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert!((x - y).abs() <= tol * x.abs().max(1.0), "{x} vs {y}");
    }
    Ok(())
}

/// The signature shared by `contract_rows` and `contract_transpose_rows`.
type Contract = fn(&StructuredMatrix, &[f64], &mut [f64], usize, usize, Range<usize>);

/// All nine leaf variants over a domain of size `n`. The `Dense` / `Sparse`
/// pair is `3 × (64 + n)` with entries from `cells` (0 → 0.0, 1 → `scale`,
/// 2 → −1.0), so its columns cross one 64-wide dense panel and its zeros
/// exercise the skip paths. The p-Identity (p = 3, `Θ` the same cells as
/// 0, `scale`, 2·`scale`) and its Woodbury inverse Gram are `n`-column
/// leaves, and so is the `Permuted` prefix block, its columns reversed and
/// rotated by a cell.
fn leaves(n: usize, scale: f64, cells: &[u32]) -> Vec<StructuredMatrix> {
    let wide = 64 + n;
    let dense = Matrix::from_fn(3, wide, |r, c| match cells[r * wide + c] {
        0 => 0.0,
        1 => scale,
        _ => -1.0,
    });
    let pident = p_identity(Matrix::from_fn(3, n, |r, c| {
        f64::from(cells[r * wide + c]) * scale
    }));
    let woodbury = pident.gram_pinv();
    assert!(matches!(woodbury, StructuredMatrix::Woodbury { .. }));
    let shift = cells[1] as usize;
    let perm = (0..n).map(|c| (2 * n - 1 - c + shift) % n).collect();
    let permuted = StructuredMatrix::permuted(StructuredMatrix::prefix(n).scaled(scale), perm);
    vec![
        StructuredMatrix::Sparse(Csr::from_dense(&dense)),
        StructuredMatrix::Dense(dense),
        StructuredMatrix::identity(n).scaled(scale),
        StructuredMatrix::total(n).scaled(scale),
        StructuredMatrix::prefix(n).scaled(scale),
        StructuredMatrix::all_range(n).scaled(scale),
        pident,
        woodbury,
        permuted.unwrap(),
    ]
}

/// Inexact values (so a reassociated sum would show in the last bit), a
/// fifth of them exactly zero.
fn tensor(len: usize, seed: u64) -> Vec<f64> {
    (0..len as u64)
        .map(|i| {
            let h = (i + 1)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> 40;
            if h % 5 == 0 {
                0.0
            } else {
                (h % 13) as f64 * 0.37 - 2.0
            }
        })
        .collect()
}

/// One direction of the block-vs-full property: `contract` over the
/// `(left, in_dim, right)` tensor for all of `0..out_dim` agrees with the
/// explicit `I_left ⊗ op ⊗ I_right` where that is small enough to
/// materialize, and every block of every partition writes exactly the bits
/// the full call holds in its rows.
fn check_blocks(
    contract: Contract,
    a: &StructuredMatrix,
    op: &Matrix,
    left: usize,
    right: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (out_dim, in_dim) = op.shape();
    let cur = tensor(left * in_dim * right, seed);
    let mut full = vec![0.0; left * out_dim * right];
    contract(a, &cur, &mut full, left, right, 0..out_dim);
    if full.len() * cur.len() <= 1 << 22 {
        let explicit = kron_all(&[&Matrix::identity(left), op, &Matrix::identity(right)]);
        assert_close(&full, &explicit.matvec(&cur), 1e-9)?;
    }
    for parts in 1..=4 {
        for block in partition_rows(out_dim, parts) {
            let mut out = vec![0.0; left * block.len() * right];
            contract(a, &cur, &mut out, left, right, block.clone());
            for (l, lane) in out.chunks_exact(block.len() * right).enumerate() {
                let base = (l * out_dim + block.start) * right;
                let held = &full[base..base + lane.len()];
                prop_assert!(
                    lane.iter()
                        .zip(held)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{a:?} left={left} right={right} l={l} block={block:?}"
                );
            }
        }
    }
    Ok(())
}

/// The chain driver as it was before the contraction order depended on the
/// leaves' shapes: every mode last-to-first, `right` the product of the
/// output extents already produced. The reference the reordered driver must
/// reproduce bit for bit on every chain whose order it keeps.
fn last_to_first(chain: &[&StructuredMatrix], x: &[f64], transpose: bool) -> Vec<f64> {
    let mut cur = x.to_vec();
    let mut right = 1;
    for a in chain.iter().rev() {
        let (m, n) = a.shape();
        let (in_dim, out_dim) = if transpose { (m, n) } else { (n, m) };
        let left = cur.len() / (in_dim * right);
        let mut next = vec![0.0; left * out_dim * right];
        let contract: Contract = if transpose {
            contract_transpose_rows
        } else {
            contract_rows
        };
        contract(a, &cur, &mut next, left, right, 0..out_dim);
        cur = next;
        right *= out_dim;
    }
    cur
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 1 is correct for any mode order, so whatever order the
    /// driver picks for a chain the product is the explicit one; and a chain
    /// with no shrinking leaf (output extent below input extent) before a
    /// non-shrinking one keeps the last-to-first order, and with it its bits.
    /// `Total`, `AllRange`, the short 3×(64+n) `Dense` / `Sparse` pair, the
    /// tall p-Identity, its square Woodbury inverse Gram and a permuted
    /// prefix land in every position, both directions.
    #[test]
    fn chain_in_any_order_matches_explicit(
        len in 2usize..5,
        picks in proptest::collection::vec((0usize..9, 2usize..5), 4),
        scale in 0.2f64..2.2,
        cells_seed in (proptest::collection::vec(0u32..3, 3 * 68), 0u64..1000),
    ) {
        let (cells, seed) = cells_seed;
        let chain: Vec<StructuredMatrix> = picks[..len]
            .iter()
            .map(|&(kind, n)| leaves(n, scale, &cells).swap_remove(kind))
            .collect();
        let refs: Vec<&StructuredMatrix> = chain.iter().collect();
        let rows: usize = refs.iter().map(|a| a.rows()).product();
        let cols: usize = refs.iter().map(|a| a.cols()).product();
        prop_assume!(rows.max(cols) <= 1 << 15);
        let explicit = (rows * cols <= 1 << 22).then(|| {
            let dense: Vec<Matrix> = refs.iter().map(|a| a.to_dense()).collect();
            kron_all(&dense.iter().collect::<Vec<_>>())
        });
        for transpose in [false, true] {
            let input = tensor(if transpose { rows } else { cols }, seed);
            let got = if transpose {
                kmatvec_transpose_structured(&refs, &input)
            } else {
                kmatvec_structured(&refs, &input)
            };
            if let Some(e) = &explicit {
                let want = if transpose { e.t_matvec(&input) } else { e.matvec(&input) };
                assert_close(&got, &want, 1e-9)?;
            }
            let shrinks = |a: &StructuredMatrix| {
                let (m, n) = a.shape();
                if transpose { n < m } else { m < n }
            };
            let reordered = (0..len)
                .any(|i| shrinks(refs[i]) && refs[i + 1..].iter().any(|b| !shrinks(b)));
            if !reordered {
                let old = last_to_first(&refs, &input, transpose);
                prop_assert!(
                    got.len() == old.len()
                        && got.iter().zip(&old).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{refs:?} transpose={transpose}: bits moved on a chain whose order is kept"
                );
            }
        }
    }

    /// Algorithm 1's mode contraction exists once per direction, and the full
    /// contraction is its all-rows block: for every leaf variant, on both
    /// sides of the `right == 1` fast paths and with `left > 1`, a row block
    /// is bitwise the rows of the full call, and the full call is the
    /// explicit product.
    #[test]
    fn row_block_contraction_matches_full_bitwise(
        n in 2usize..6,
        left in 1usize..4,
        scale in 0.2f64..2.2,
        cells_seed in (proptest::collection::vec(0u32..3, 3 * 69), 0u64..1000),
    ) {
        let (cells, seed) = cells_seed;
        for a in leaves(n, scale, &cells) {
            let dense = a.to_dense();
            for right in [1usize, 3, 65] {
                check_blocks(contract_rows, &a, &dense, left, right, seed)?;
                check_blocks(contract_transpose_rows, &a, &dense.transpose(), left, right, seed)?;
            }
        }
    }

    /// matvec and rmatvec agree with the dense equivalent for every variant.
    #[test]
    fn structured_matvec_matches_dense(
        v in (2usize..8).prop_flat_map(variant),
        seed in 0u64..1000,
    ) {
        let d = v.to_dense();
        let x: Vec<f64> = (0..v.cols()).map(|i| ((i as u64 + seed) % 7) as f64).collect();
        let y: Vec<f64> = (0..v.rows()).map(|i| ((i as u64 * 3 + seed) % 5) as f64).collect();
        assert_close(&v.matvec(&x), &d.matvec(&x), 1e-10)?;
        assert_close(&v.rmatvec(&y), &d.t_matvec(&y), 1e-10)?;
    }

    /// Gram, column sums, sensitivity, and Gram trace match the dense path.
    #[test]
    fn structured_gram_and_sensitivity_match_dense(
        v in (2usize..8).prop_flat_map(variant),
    ) {
        let d = v.to_dense();
        prop_assert!(v.gram_dense().approx_eq(&d.gram(), 1e-9));
        assert_close(&v.abs_col_sums(), &d.abs_col_sums(), 1e-10)?;
        prop_assert!((v.sensitivity() - d.norm_l1_operator()).abs() < 1e-9);
        prop_assert!((v.gram_trace() - d.frobenius_norm_sq()).abs()
            < 1e-9 * d.frobenius_norm_sq().max(1.0));
    }

    /// The closed-form Gram pseudo-inverses satisfy G·G⁺·G = G. (Dense and
    /// sparse variants go through the generic Cholesky/spectral fallback,
    /// whose accuracy on near-singular random 0/1 grams is a conditioning
    /// question, not a closed-form one — covered by the linalg pinv tests.)
    #[test]
    fn structured_gram_pinv_is_moore_penrose(
        kind in 0usize..5,
        n in 2usize..9,
        scale in 0.2f64..2.2,
    ) {
        let v = match kind {
            0 => StructuredMatrix::identity(n),
            1 => StructuredMatrix::total(n),
            2 => StructuredMatrix::prefix(n),
            3 => StructuredMatrix::all_range(n),
            _ => p_identity(Matrix::from_fn(2, n, |r, c| ((r + 2 * c) % 5) as f64 * 0.4)),
        }
        .scaled(scale);
        let gram = v.gram_dense();
        let pinv = v.gram_pinv().to_dense();
        let ggg = gram.matmul(&pinv).matmul(&gram);
        prop_assert!(ggg.approx_eq(&gram, 1e-7 * (1.0 + gram.max_abs())));
    }

    /// Kronecker compositions of arbitrary variants match the explicit
    /// Kronecker product on both products and the adjoint identity.
    #[test]
    fn structured_kron_matches_explicit(
        a in (2usize..5).prop_flat_map(variant),
        b in (2usize..5).prop_flat_map(variant),
        x in data_vec(16),
        y in data_vec(30),
    ) {
        let k = StructuredMatrix::kron(vec![a.clone(), b.clone()]);
        let explicit = kron_all(&[&a.to_dense(), &b.to_dense()]);
        prop_assert_eq!(k.shape(), explicit.shape());
        let x = &x[..k.cols().min(x.len())];
        prop_assume!(x.len() == k.cols());
        let y = &y[..k.rows().min(y.len())];
        prop_assume!(y.len() == k.rows());

        let refs = [&a, &b];
        assert_close(&kmatvec_structured(&refs, x), &explicit.matvec(x), 1e-9)?;
        assert_close(
            &kmatvec_transpose_structured(&refs, y),
            &explicit.t_matvec(y),
            1e-9,
        )?;
        prop_assert!((k.sensitivity()
            - a.sensitivity() * b.sensitivity()).abs() < 1e-9);
        prop_assert!(k.gram_dense().approx_eq(&explicit.gram(), 1e-8));
    }

    /// Adjoint consistency `⟨Ax, y⟩ = ⟨x, Aᵀy⟩` holds for three-factor
    /// structured Kronecker operators.
    #[test]
    fn structured_kron_adjoint_identity(
        a in (2usize..4).prop_flat_map(variant),
        b in (2usize..4).prop_flat_map(variant),
        c in (2usize..4).prop_flat_map(variant),
        seed in 0u64..1000,
    ) {
        let refs = [&a, &b, &c];
        let cols: usize = refs.iter().map(|f| f.cols()).product();
        let rows: usize = refs.iter().map(|f| f.rows()).product();
        let x: Vec<f64> = (0..cols).map(|i| ((i as u64 * 7 + seed) % 9) as f64).collect();
        let y: Vec<f64> = (0..rows).map(|i| ((i as u64 * 5 + seed) % 11) as f64).collect();
        let ax = kmatvec_structured(&refs, &x);
        let aty = kmatvec_transpose_structured(&refs, &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    /// `compress` roundtrips: the chosen representation is semantically
    /// identical to the input.
    #[test]
    fn compress_preserves_semantics(
        bits in proptest::collection::vec(proptest::bool::weighted(0.2), 30),
    ) {
        let dense = Matrix::from_fn(5, 6, |r, c| if bits[r * 6 + c] { 1.0 } else { 0.0 });
        let compressed = StructuredMatrix::compress(dense.clone());
        prop_assert!(compressed.to_dense().approx_eq(&dense, 0.0));
    }
}

/// A seeded shuffle of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// `AllRange`, `Prefix`, a `Sparse` (CSR) width range, a `Dense` block and
/// the closed-form width range over `n` columns, each with its columns moved
/// by a seeded permutation.
fn permuted_leaves(n: usize, seed: u64) -> Vec<StructuredMatrix> {
    let dense = Matrix::from_fn(3, n, |r, c| ((r * n + 2 * c) % 5) as f64 - 2.0);
    let inners = [
        StructuredMatrix::all_range(n),
        StructuredMatrix::prefix(n).scaled(1.5),
        StructuredMatrix::Sparse(Csr::from_dense(&blocks::width_range(n, n.min(3)))),
        StructuredMatrix::Dense(dense),
        blocks::width_range_block(n, n.min(3)),
    ];
    inners
        .into_iter()
        .enumerate()
        .map(|(i, inner)| StructuredMatrix::permuted(inner, shuffled(n, seed + i as u64)).unwrap())
        .collect()
}

/// Small integers, so every sum is exact whatever order it is taken in.
fn integers(len: usize, seed: u64) -> Vec<f64> {
    (0..len as u64)
        .map(|i| ((i * 7 + seed) % 11) as f64 - 5.0)
        .collect()
}

/// A `Permuted` leaf is `W·P` with `n` indices instead of `m·n` entries:
/// against its dense oracle it has the same products, Grams, norms and
/// predicate tests, the contraction kernels keep their row-block rule on it,
/// and it composes in a Kronecker chain.
#[test]
fn permuted_leaf_matches_its_dense_oracle() {
    for n in [1usize, 2, 7, 64] {
        for (k, a) in permuted_leaves(n, 11 * n as u64).into_iter().enumerate() {
            let d = a.to_dense();
            let x = integers(a.cols(), k as u64);
            let y = integers(a.rows(), 3 + k as u64);
            assert_close(&a.matvec(&x), &d.matvec(&x), 1e-12).unwrap();
            assert_close(&a.rmatvec(&y), &d.t_matvec(&y), 1e-12).unwrap();
            for left in [1usize, 2] {
                for right in [1usize, 3] {
                    check_blocks(contract_rows, &a, &d, left, right, k as u64).unwrap();
                    check_blocks(contract_transpose_rows, &a, &d.transpose(), left, right, 9)
                        .unwrap();
                }
            }
            let prefix = StructuredMatrix::prefix(3);
            let explicit = kron_all(&[&d, &prefix.to_dense()]);
            let xk = integers(explicit.cols(), 5);
            assert_close(
                &kmatvec_structured(&[&a, &prefix], &xk),
                &explicit.matvec(&xk),
                1e-12,
            )
            .unwrap();
            assert!(a.gram_dense().approx_eq(&d.gram(), 1e-12), "{a:?}");
            assert_close(&a.abs_col_sums(), &d.abs_col_sums(), 1e-12).unwrap();
            assert!((a.sensitivity() - d.norm_l1_operator()).abs() < 1e-12);
            assert!((a.gram_trace() - d.frobenius_norm_sq()).abs() < 1e-12);
            // Both predicates are properties of the row set, which moving
            // columns keeps: the leaf answers with its inner block's value,
            // and the dense oracles of `W·P` and `W` agree. (The `Prefix` /
            // `AllRange` closed forms answer `false` at n = 2, where the
            // dense rows are point and total queries.)
            let StructuredMatrix::Permuted { inner, .. } = &a else {
                unreachable!()
            };
            let (oracle, unmoved) = (
                StructuredMatrix::Dense(d),
                StructuredMatrix::Dense(inner.to_dense()),
            );
            assert_eq!(a.is_total_or_identity(), inner.is_total_or_identity());
            assert_eq!(
                oracle.is_total_or_identity(),
                unmoved.is_total_or_identity()
            );
            assert_eq!(is_total_like(&a), is_total_like(inner));
            assert_eq!(is_total_like(&oracle), is_total_like(&unmoved), "{a:?}");
            assert_eq!(a.storage_size(), inner.storage_size() + n);
        }
    }
    // Both predicates can be true of a permuted block.
    let total = StructuredMatrix::permuted(StructuredMatrix::total(4), shuffled(4, 1)).unwrap();
    assert!(total.is_total_or_identity() && is_total_like(&total));
}

/// `permuted_range_1d` draws the permutation it drew when it built the
/// dense table: one shuffle of `0..n`, column `c` of `all_range(n)` moved to
/// `perm[c]`. The table is bit for bit the one the old builder made.
#[test]
fn permuted_range_1d_draws_the_dense_builders_workload() {
    for (n, seed) in [(1usize, 0u64), (2, 3), (7, 7), (64, 42)] {
        let built = builders::permuted_range_1d(n, &mut StdRng::seed_from_u64(seed));
        let perm = shuffled(n, seed);
        let w = blocks::all_range(n);
        let mut old = Matrix::zeros(w.rows(), w.cols());
        for r in 0..w.rows() {
            for (c, &p) in perm.iter().enumerate() {
                old[(r, p)] = w[(r, c)];
            }
        }
        let new = built.terms()[0].factors[0].to_dense();
        assert_eq!(new.shape(), old.shape());
        assert!(new
            .as_slice()
            .iter()
            .zip(old.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

/// The constructor takes only a bijection on the block's columns, and only
/// a block that is neither permuted already nor a Kronecker product.
#[test]
fn permuted_constructor_refuses_non_bijections_and_nested_blocks() {
    let r = || StructuredMatrix::all_range(4);
    for perm in [
        vec![0, 1, 1, 3],
        vec![0, 1, 2, 4],
        vec![0, 1, 2],
        vec![3, 2, 1, 0, 4],
    ] {
        assert!(
            StructuredMatrix::permuted(r(), perm.clone()).is_err(),
            "{perm:?}"
        );
    }
    let inner = StructuredMatrix::permuted(r(), vec![3, 1, 0, 2]).unwrap();
    assert!(StructuredMatrix::permuted(inner, vec![0, 1, 2, 3]).is_err());
    let kron = StructuredMatrix::kron(vec![
        StructuredMatrix::prefix(2),
        StructuredMatrix::total(2),
    ]);
    assert!(StructuredMatrix::permuted(kron, vec![0, 1, 2, 3]).is_err());
}

/// Every `(n, width, scale)` the width-range tests cover: `n ∈ {1, 2, 7,
/// 128, 256}`, `width ∈ {1, 3, 4, 5, 96, n − 1, n}` (those in `1..=n`) and
/// `scale ∈ {1.0, 0.3}`, each as the closed-form leaf and the CSR block of
/// `blocks::width_range` it replaces, scaled alike. Width 96 puts up to 96
/// windows over a column, enough that `k·0.09` and `k` copies of `0.09`
/// added in order part in the last bit.
fn width_range_pairs() -> Vec<(String, StructuredMatrix, StructuredMatrix)> {
    let mut pairs = Vec::new();
    for n in [1usize, 2, 7, 128, 256] {
        let mut widths = vec![1, 3, 4, 5, 96, n.saturating_sub(1), n];
        widths.retain(|w| (1..=n).contains(w));
        widths.sort_unstable();
        widths.dedup();
        for width in widths {
            for scale in [1.0, 0.3] {
                let closed = blocks::width_range_block(n, width).scaled(scale);
                let csr = StructuredMatrix::Sparse(Csr::from_dense(&blocks::width_range(n, width)))
                    .scaled(scale);
                pairs.push((format!("n={n} width={width} scale={scale}"), closed, csr));
            }
        }
    }
    pairs
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `contract` of `a` over an inexact `(left, in_dim, right)` tensor, for the
/// output block `rows`.
fn contracted(
    contract: Contract,
    a: &StructuredMatrix,
    transpose: bool,
    left: usize,
    right: usize,
    rows: Range<usize>,
) -> Vec<u64> {
    let in_dim = if transpose { a.rows() } else { a.cols() };
    let cur = inexact(left * in_dim * right, (in_dim * right + left) as u64);
    let mut out = vec![0.0; left * rows.len() * right];
    contract(a, &cur, &mut out, left, right, rows);
    bits_of(&out)
}

/// Both contraction kernels, full and in every block of a 1- to 3-way row
/// partition, at `right ∈ {1, 3}` (the `dot_indexed` and entry-order
/// `axpy` arms) and `left ∈ {1, 2}`: `a` and `b` write the same bits.
fn assert_same_contractions(a: &StructuredMatrix, b: &StructuredMatrix, what: &str) {
    for (contract, transpose) in [
        (contract_rows as Contract, false),
        (contract_transpose_rows as Contract, true),
    ] {
        let out_dim = if transpose { a.cols() } else { a.rows() };
        for left in [1usize, 2] {
            for right in [1usize, 3] {
                for parts in 1..=3 {
                    for block in partition_rows(out_dim, parts) {
                        assert_eq!(
                            contracted(contract, a, transpose, left, right, block.clone()),
                            contracted(contract, b, transpose, left, right, block.clone()),
                            "{what} transpose={transpose} left={left} right={right} {block:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The closed-form `WidthRange` leaf has the bits of the CSR block it
/// replaces in every method and kernel: products (forward, transposed, row
/// blocks at `right == 1` and `right > 1`), Kronecker chains in both
/// directions, the slab split, Grams, column sums, sensitivity, Gram trace,
/// scaled and normalized copies, dense form and both predicates — and as
/// the inner block of a `Permuted` leaf. It stores its scale only.
#[test]
fn width_range_leaf_has_its_csr_blocks_bits() {
    let prefix = StructuredMatrix::prefix(3).scaled(0.7);
    let total = StructuredMatrix::total(3).scaled(1.3);
    for (what, closed, csr) in width_range_pairs() {
        let (m, n) = csr.shape();
        assert_eq!(closed.shape(), (m, n), "{what}");
        assert_eq!(closed.storage_size(), 1, "{what}");
        assert_eq!(
            bits_of(closed.to_dense().as_slice()),
            bits_of(csr.to_dense().as_slice()),
            "{what}: to_dense"
        );
        assert_eq!(
            bits_of(closed.gram_dense().as_slice()),
            bits_of(csr.gram_dense().as_slice()),
            "{what}: gram_dense"
        );
        assert_eq!(
            bits_of(&closed.abs_col_sums()),
            bits_of(&csr.abs_col_sums()),
            "{what}: abs_col_sums"
        );
        let scalars = |a: &StructuredMatrix| {
            [
                a.sensitivity(),
                a.gram_trace(),
                a.normalized().sensitivity(),
            ]
            .map(f64::to_bits)
        };
        assert_eq!(scalars(&closed), scalars(&csr), "{what}: norms");
        for copy in [closed.normalized(), closed.scaled(-2.5)] {
            assert!(
                matches!(copy, StructuredMatrix::WidthRange { .. }),
                "{what}"
            );
        }
        assert_eq!(
            bits_of(closed.normalized().to_dense().as_slice()),
            bits_of(csr.normalized().to_dense().as_slice()),
            "{what}: normalized"
        );
        assert_eq!(
            bits_of(closed.scaled(-2.5).to_dense().as_slice()),
            bits_of(csr.scaled(-2.5).to_dense().as_slice()),
            "{what}: scaled"
        );
        assert_eq!(
            (closed.is_total_or_identity(), is_total_like(&closed)),
            (csr.is_total_or_identity(), is_total_like(&csr)),
            "{what}: predicates"
        );

        assert_eq!(
            bits_of(&closed.matvec(&inexact(n, 1))),
            bits_of(&csr.matvec(&inexact(n, 1))),
            "{what}: matvec"
        );
        assert_eq!(
            bits_of(&closed.rmatvec(&inexact(m, 2))),
            bits_of(&csr.rmatvec(&inexact(m, 2))),
            "{what}: rmatvec"
        );
        assert_same_contractions(&closed, &csr, &what);

        // In a chain the leaf contracts at `right > 1` in either order.
        for (other, name) in [(&prefix, "prefix"), (&total, "total")] {
            for chain in [[&closed, other], [other, &closed]] {
                let csr_chain = chain.map(|a| if std::ptr::eq(a, &closed) { &csr } else { a });
                let x = inexact(chain.iter().map(|a| a.cols()).product(), 3);
                let y = inexact(chain.iter().map(|a| a.rows()).product(), 4);
                assert_eq!(
                    bits_of(&kmatvec_structured(&chain, &x)),
                    bits_of(&kmatvec_structured(&csr_chain, &x)),
                    "{what}: kron with {name}"
                );
                assert_eq!(
                    bits_of(&kmatvec_transpose_structured(&chain, &y)),
                    bits_of(&kmatvec_transpose_structured(&csr_chain, &y)),
                    "{what}: kron transposed with {name}"
                );
            }
        }

        // The slab split: refused or taken alike, and a sliced product is
        // the plain product's bits.
        for trailing in [&prefix, &total] {
            let split = slab_split(&[&closed, trailing]);
            assert_eq!(
                split.is_some(),
                slab_split(&[&csr, trailing]).is_some(),
                "{what}"
            );
            let Some(split) = split else { continue };
            let x = inexact(n * trailing.cols(), 5);
            let merged: Vec<f64> = partition_rows(n, 3)
                .into_iter()
                .flat_map(|r| {
                    let slab = &x[r.start * trailing.cols()..r.end * trailing.cols()];
                    kmatvec_trailing_slab(&split.trailing, slab)
                })
                .collect();
            let right = split.trailing_rows();
            let mut out = vec![0.0; m * right];
            for r in partition_rows(m, 3) {
                let chunk = &mut out[r.start * right..r.end * right];
                contract_rows(split.leading, &merged, chunk, 1, right, r);
            }
            assert_eq!(
                bits_of(&out),
                bits_of(&kmatvec_structured(&[&csr, trailing], &x)),
                "{what}: slabs"
            );
        }

        // As the inner block of a permuted leaf.
        let perm = shuffled(n, n as u64);
        let moved = StructuredMatrix::permuted(closed.clone(), perm.clone()).unwrap();
        let moved_csr = StructuredMatrix::permuted(csr.clone(), perm).unwrap();
        assert_same_contractions(&moved, &moved_csr, &format!("{what} permuted"));
        assert_eq!(
            bits_of(moved.gram_dense().as_slice()),
            bits_of(moved_csr.gram_dense().as_slice()),
            "{what}: permuted gram"
        );
        assert_eq!(
            bits_of(&moved.abs_col_sums()),
            bits_of(&moved_csr.abs_col_sums()),
            "{what}: permuted column sums"
        );
    }
}

/// SELECT never sees the representation: on `width_range_1d(256, w)` it
/// picks the strategy it picks on the CSR workload, byte for byte, with the
/// same loss bits. The closed-form block holds at most three values where
/// the CSR block of `width_range_1d(256, 96)` holds 15 456.
#[test]
fn width_range_workloads_select_what_their_csr_form_selects() {
    use hdmm_core::{codec, HdmmOptions, Plan};
    use hdmm_optimizer::planner::select_optimizer;
    let wide = builders::width_range_1d(256, 96);
    let block = &wide.terms()[0].factors[0];
    assert!(block.storage_size() <= 3, "{block:?}");
    let opts = HdmmOptions::default();
    for width in [3usize, 96, 200] {
        let closed = builders::width_range_1d(256, width);
        let csr = Workload::one_dim(StructuredMatrix::Sparse(Csr::from_dense(
            &blocks::width_range(256, width),
        )));
        let selected = |w: &Workload| {
            let plan = Plan::select(w, &opts, select_optimizer(w, &opts).choice, &());
            let mut bytes = Vec::new();
            codec::put_strategy(&mut bytes, plan.strategy());
            (bytes, plan.squared_error_coefficient().to_bits())
        };
        assert_eq!(selected(&closed), selected(&csr), "width {width}");
        assert_ne!(closed.fingerprint(), csr.fingerprint());
    }
}

/// Uniform values in `[-3, 7)`: no sum of them is exact, so a reordered
/// sum shows in the last bit.
fn inexact(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f64>() * 10.0 - 3.0).collect()
}

/// The per-term oracle: every term through its own chain from `x`,
/// [`ProductTerm::answer`](hdmm_workload::ProductTerm::answer), stacked.
fn per_term(w: &Workload, x: &[f64]) -> Vec<f64> {
    w.terms().iter().flat_map(|t| t.answer(x)).collect()
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: answer {i}: {a} vs {b}");
    }
}

/// A seeded leaf over an attribute of size `n`: an unscaled `Total` four
/// times in ten, so that runs of them form, otherwise a leaf that ends a
/// run where it falls — a scaled `Total`, an `Identity` (unit or scaled),
/// `Prefix`, `AllRange` or a `Sparse` block with fewer rows than columns
/// (shrinking, so it goes first in its chain when `n > 1`).
fn mixed_leaf(n: usize, rng: &mut StdRng) -> StructuredMatrix {
    match rng.gen_range(0..10) {
        0..=3 => StructuredMatrix::total(n),
        4 => StructuredMatrix::total(n).scaled(1.5),
        5 => StructuredMatrix::identity(n),
        6 => StructuredMatrix::identity(n).scaled(0.75),
        7 => StructuredMatrix::prefix(n),
        8 => StructuredMatrix::all_range(n),
        _ => {
            let rows = (n / 2).max(1);
            let entries = Matrix::from_fn(rows, n, |r, c| match (r + 2 * c) % 3 {
                0 => 0.0,
                1 => 1.0,
                _ => 0.3,
            });
            StructuredMatrix::Sparse(Csr::from_dense(&entries))
        }
    }
}

/// A seeded union over `domain`: 1–12 terms of [`mixed_leaf`]s with weights
/// in {1, 0.5, 2.5}; on a 4-cell attribute a term sometimes takes a
/// `Total(2) ⊗ Prefix(2)` Kronecker leaf, which keeps the whole term on its
/// own chain.
fn mixed_workload(domain: &Domain, rng: &mut StdRng) -> Workload {
    let terms = (0..rng.gen_range(1..13))
        .map(|_| {
            let factors = domain
                .sizes()
                .iter()
                .map(|&n| {
                    if n == 4 && rng.gen_bool(0.2) {
                        StructuredMatrix::kron(vec![
                            StructuredMatrix::total(2),
                            StructuredMatrix::prefix(2),
                        ])
                    } else {
                        mixed_leaf(n, rng)
                    }
                })
                .collect();
            let weight = [1.0, 0.5, 2.5][rng.gen_range(0..3)];
            ProductTerm::new(weight, factors)
        })
        .collect();
    Workload::new(domain.clone(), terms)
}

/// `Workload::answer` shares marginal tables between the terms whose chains
/// start by summing out attributes with unscaled `Total`s: on inexact data
/// it holds the bits of every term's own chain, whatever the mix of leaves
/// that ends a run early (or keeps a term off the tables), with size-1
/// attributes, term weights and Kronecker leaves.
#[test]
fn shared_tables_answer_seeded_mixes_bit_for_bit() {
    let domains = [
        Domain::new(&[3, 1, 4, 2, 5]),
        Domain::new(&[1, 4, 3]),
        Domain::new(&[2, 2, 2, 2, 2, 2]),
    ];
    let mut shared_runs = 0;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = &domains[seed as usize % domains.len()];
        let w = mixed_workload(domain, &mut rng);
        shared_runs += w
            .terms()
            .iter()
            .filter(|t| {
                let unit_totals = t.factors.iter().filter(
                    |f| matches!(f, StructuredMatrix::Total { scale, .. } if *scale == 1.0),
                );
                unit_totals.count() >= 2
            })
            .count();
        let x = inexact(domain.size(), seed);
        assert_same_bits(&w.answer(&x), &per_term(&w, &x), &format!("seed {seed}"));
    }
    // The mixes do reach tables built from other tables.
    assert!(shared_runs > 60, "{shared_runs}");
}

/// The marginals workloads the engine serves: up-to-3-way marginals and
/// range-marginals on the Adult domain, answered through shared tables,
/// hold the bits of their per-term chains.
#[test]
fn shared_tables_answer_adult_marginals_bit_for_bit() {
    let adult = hdmm_data::adult_domain();
    let x = inexact(adult.size(), 7);
    let numeric = [true, false, false, false, true];
    for (name, w) in [
        (
            "upto_kway_marginals",
            builders::upto_kway_marginals(&adult, 3),
        ),
        (
            "range_marginals",
            builders::range_marginals(&adult, &numeric, Some(2)),
        ),
    ] {
        assert_same_bits(&w.answer(&x), &per_term(&w, &x), name);
    }
}

/// `answer_many_from_parts` answers each workload of a batch through its
/// own tables, in scratches of one pool that both batches share: at 1 and 3
/// lanes, entry `i` holds the per-term bits of workload `i`.
#[test]
fn shared_tables_answer_many_bit_for_bit_at_one_and_three_lanes() {
    let domain = Domain::new(&[3, 1, 4, 2, 5]);
    let mut rng = StdRng::seed_from_u64(11);
    let mut workloads = vec![
        builders::upto_kway_marginals(&domain, 2),
        builders::all_marginals(&domain),
    ];
    workloads.extend((0..4).map(|_| mixed_workload(&domain, &mut rng)));
    let refs: Vec<&Workload> = workloads.iter().collect();
    let x = inexact(domain.size(), 3);
    let pool = hdmm_mechanism::ScratchPool::default();
    for lanes in [1, 3] {
        let exec = hdmm_mechanism::ScopedExecutor::new(lanes);
        let got = hdmm_mechanism::answer_many_from_parts(&x, &refs, &exec, &pool);
        for (i, (answers, w)) in got.iter().zip(&workloads).enumerate() {
            let what = format!("{lanes} lanes, workload {i}");
            assert_same_bits(answers, &per_term(w, &x), &what);
        }
    }
}

/// MEASURE's oracle: every product through its own chain from `x`
/// ([`kmatvec_structured`]), scaled by θ when θ ≠ 1, then noised by
/// `add_laplace_noise` at the product's scale, in list order off one RNG.
fn per_product_measure(
    products: &[hdmm_mechanism::MeasuredProduct],
    x: &[f64],
    eps: f64,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    products
        .iter()
        .map(|p| {
            let refs: Vec<&StructuredMatrix> = p.factors.iter().collect();
            let mut noisy = kmatvec_structured(&refs, x);
            if p.theta != 1.0 {
                for v in &mut noisy {
                    *v *= p.theta;
                }
            }
            let scale = p.sensitivity / (p.share * eps);
            hdmm_mechanism::laplace::add_laplace_noise(&mut noisy, scale, rng);
            noisy
        })
        .collect()
}

/// `exact_blocks` over `PlainKernels` (products through the shared tables
/// of one `SubsetLattice`), then `measure_on` (θ and noise in one pass) vs
/// [`per_product_measure`]:
/// the same bits in every block, and the same RNG state afterwards, in a
/// scratch the caller may have used before.
fn assert_measure_matches_per_product(
    strategy: &hdmm_mechanism::Strategy,
    x: &[f64],
    scratch: &mut KronScratch,
    what: &str,
) {
    let products = strategy.measured_products();
    let eps = 0.7;
    let mut rng = StdRng::seed_from_u64(x.len() as u64);
    let mut oracle_rng = rng.clone();
    let exact =
        hdmm_mechanism::exact_blocks(&products, &hdmm_mechanism::PlainKernels::over(x), scratch)
            .unwrap_or_else(|never| match never {});
    let got = hdmm_mechanism::measure_on(&products, eps, &mut rng, &exact, scratch);
    let want = per_product_measure(&products, x, eps, &mut oracle_rng);
    assert_eq!(got.blocks.len(), want.len(), "{what}");
    for (i, (block, want)) in got.blocks.iter().zip(&want).enumerate() {
        assert_same_bits(&block.noisy, want, &format!("{what}, product {i}"));
    }
    assert_eq!(
        rng.gen::<u64>(),
        oracle_rng.gen::<u64>(),
        "{what}: RNG stream"
    );
}

/// Seeded marginals plans on small domains: every θ support holds the
/// full-domain mask (all `Identity` leaves, no table), the all-`Total` mask
/// (a scalar, the deepest table chain) and every single attribute, plus a
/// random mix of the other masks; θ is sometimes exactly 1. MEASURE through
/// the shared tables holds the per-product bits on inexact data.
#[test]
fn shared_tables_measure_marginals_plans_bit_for_bit() {
    let domains = [
        Domain::new(&[3, 1, 4, 2, 5]),
        Domain::new(&[4, 3]),
        Domain::new(&[2, 3, 1, 2]),
        Domain::new(&[2, 2, 2, 2, 2, 2]),
    ];
    let mut scratch = KronScratch::new();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = &domains[seed as usize % domains.len()];
        let d = domain.dims();
        let full = (1 << d) - 1;
        let theta = (0..1usize << d)
            .map(|a| {
                let forced = a == full || a == 0 || a.count_ones() == 1;
                if forced || rng.gen_bool(0.4) {
                    [1.0, 0.25, 1.75][rng.gen_range(0..3)]
                } else {
                    0.0
                }
            })
            .collect();
        let strategy = hdmm_mechanism::Strategy::Marginals(hdmm_mechanism::MarginalsStrategy::new(
            domain.clone(),
            theta,
        ));
        let x = inexact(domain.size(), seed);
        let what = format!("seed {seed}");
        assert_measure_matches_per_product(&strategy, &x, &mut scratch, &what);
    }
}

/// Kron, explicit and union plans: their products (a unit `Identity` among
/// them, a leading `Total` in front of an expansion, a `Total` run that
/// does reach the tables) keep the per-product bits under the shared-table
/// MEASURE.
#[test]
fn shared_tables_measure_kron_explicit_and_union_plans_bit_for_bit() {
    use hdmm_mechanism::{Strategy as Plan, UnionGroup};
    let tall = Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) % 7) as f64 * 0.3 - 0.4);
    let plans = [
        (
            "kron",
            Plan::Kron(vec![
                StructuredMatrix::prefix(3),
                StructuredMatrix::identity(4),
                StructuredMatrix::Dense(tall.clone()),
            ]),
        ),
        (
            "kron, leading total",
            Plan::Kron(vec![
                StructuredMatrix::total(3),
                StructuredMatrix::all_range(4),
                StructuredMatrix::identity(4).scaled(0.5),
            ]),
        ),
        (
            "kron, total run",
            Plan::Kron(vec![
                StructuredMatrix::identity(3),
                StructuredMatrix::total(4),
                StructuredMatrix::total(4),
            ]),
        ),
        (
            "explicit",
            Plan::Explicit(Matrix::from_fn(7, 48, |r, c| {
                ((r + 3 * c) % 5) as f64 * 0.25
            })),
        ),
        (
            "union",
            Plan::Union([
                UnionGroup::new(
                    0.4,
                    vec![
                        StructuredMatrix::total(3),
                        StructuredMatrix::prefix(4),
                        StructuredMatrix::identity(4),
                    ],
                    vec![0],
                ),
                UnionGroup::new(
                    0.6,
                    vec![
                        StructuredMatrix::identity(3),
                        StructuredMatrix::identity(4),
                        StructuredMatrix::Dense(tall),
                    ],
                    vec![1],
                ),
            ]),
        ),
    ];
    let mut scratch = KronScratch::new();
    for (name, plan) in &plans {
        assert_measure_matches_per_product(plan, &inexact(48, 5), &mut scratch, name);
    }
}

/// One request scratch reused across plans of every family — marginals,
/// Kron, union, explicit, then a marginals plan on twice the cells before
/// one on half of them, so every buffer a later plan draws on still holds
/// another plan's values — gives the bits of the fresh-buffer pipeline
/// (`run_mechanism`) and of `Workload::answer`, in x̂ and in the answers.
#[test]
fn shared_tables_one_scratch_across_plans_bit_for_bit() {
    use hdmm_mechanism::{
        exact_blocks, run_mechanism, MarginalsStrategy, MechanismRequest, PlainKernels,
        PreparedReconstruct, Strategy as Plan, UnionGroup,
    };
    let marginals = |sizes: &[usize]| {
        let domain = Domain::new(sizes);
        // Some masks unmeasured, θ sometimes exactly 1; the full table always.
        let full = (1usize << sizes.len()) - 1;
        let theta = (0..=full)
            .map(|a| {
                if a == full {
                    1.0
                } else {
                    [0.0, 0.5, 1.0, 1.75][a % 4]
                }
            })
            .collect();
        let plan = Plan::Marginals(MarginalsStrategy::new(domain.clone(), theta));
        (builders::upto_kway_marginals(&domain, 2), plan)
    };
    let n = 520;
    let explicit = Matrix::from_fn(n + 8, n, |r, c| {
        if r == c {
            1.0
        } else if r >= n {
            ((r * 7 + c * 3) % 5) as f64 * 0.2
        } else {
            0.0
        }
    });
    let cases = [
        ("marginals", marginals(&[16, 12, 10, 8])),
        (
            "kron",
            (
                builders::prefix_2d(32, 32),
                Plan::kron(vec![
                    StructuredMatrix::prefix(32).scaled(0.25),
                    StructuredMatrix::identity(32),
                ]),
            ),
        ),
        (
            "union",
            (
                builders::range_total_union_2d(32, 32),
                Plan::Union([
                    UnionGroup::new(
                        0.5,
                        vec![
                            StructuredMatrix::prefix(32).scaled(0.25),
                            StructuredMatrix::total(32),
                        ],
                        vec![0],
                    ),
                    UnionGroup::new(
                        0.5,
                        vec![
                            StructuredMatrix::total(32),
                            StructuredMatrix::prefix(32).scaled(0.25),
                        ],
                        vec![1],
                    ),
                ]),
            ),
        ),
        (
            "explicit",
            (builders::width_range_1d(n, 16), Plan::Explicit(explicit)),
        ),
        ("larger marginals", marginals(&[20, 16, 12, 8])),
        ("smaller marginals", marginals(&[16, 12, 10, 8])),
    ];
    let mut scratch = KronScratch::new();
    for (seed, (name, (w, plan))) in cases.iter().enumerate() {
        let x = inexact(w.domain().size(), seed as u64);
        let want = run_mechanism(w, plan, &x, 0.9, &mut StdRng::seed_from_u64(seed as u64));
        let prepared = PreparedReconstruct::new(plan);
        let request = MechanismRequest {
            workload: w,
            prepared: &prepared,
            eps: 0.9,
        };
        let got = request
            .run_with_scratch(
                &mut scratch,
                &mut StdRng::seed_from_u64(seed as u64),
                &x,
                &(),
                |scratch| exact_blocks(prepared.products(), &PlainKernels::over(&x), scratch),
            )
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_same_bits(&got.x_hat, &want.x_hat, &format!("{name}: x̂"));
        assert_same_bits(&got.answers, &want.answers, &format!("{name}: answers"));
        let again = w.answer_with(&got.x_hat, &mut scratch);
        assert_same_bits(
            &again,
            &w.answer(&got.x_hat),
            &format!("{name}: answer_with"),
        );
        scratch.end_request();
    }
}
