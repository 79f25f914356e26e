//! Bitwise-equality properties for the SIMD lane kernels.
//!
//! Every public kernel in `hdmm_linalg::simd` is a hand-unrolled 4-lane
//! path whose summation order is *specified* by the lane-by-lane reference in
//! `simd::scalar`. The whole byte-identity story of the serving layer
//! (sharded == dense == remote, bit for bit) rests on the kernels keeping
//! that order, so these tests pin `to_bits` equality — not approximate
//! closeness — between each kernel and its scalar reference across lengths
//! that cover every tail shape: shorter than one lane block (1–5), around
//! the 32-lane-block unroll boundary (127/128/129), and a long vector (1000).

use hdmm_linalg::simd;
use proptest::prelude::*;

/// Lengths covering empty-tail, partial-tail, and multi-block cases.
const LENS: [usize; 9] = [1, 2, 3, 4, 5, 127, 128, 129, 1000];

fn len() -> impl Strategy<Value = usize> {
    (0..LENS.len()).prop_map(|i| LENS[i])
}

/// Finite values spanning sign and magnitude; sums here are exactly the
/// kind of partially-cancelling reductions where reassociation would show.
fn values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6..1.0e6f64, n)
}

fn pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    len().prop_flat_map(|n| (values(n), values(n)))
}

fn triple() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    len().prop_flat_map(|n| (values(n), values(n), values(n)))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_matches_scalar_bitwise(ab in pair()) {
        let (a, b) = ab;
        prop_assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::scalar::dot(&a, &b).to_bits()
        );
    }

    #[test]
    fn dot_indexed_matches_scalar_bitwise(
        gathered in len().prop_flat_map(|n| {
            (values(n), values(257), proptest::collection::vec(0usize..257, n))
        })
    ) {
        let (vals, x, idx) = gathered;
        prop_assert_eq!(
            simd::dot_indexed(&vals, &idx, &x).to_bits(),
            simd::scalar::dot_indexed(&vals, &idx, &x).to_bits()
        );
    }

    #[test]
    fn axpy_matches_scalar_bitwise(xy in pair(), alpha in -100.0..100.0f64) {
        let (x, y) = xy;
        let mut wide = y.clone();
        let mut reference = y;
        simd::axpy(alpha, &x, &mut wide);
        simd::scalar::axpy(alpha, &x, &mut reference);
        prop_assert_eq!(bits(&wide), bits(&reference));
    }

    #[test]
    fn scale_into_matches_scalar_bitwise(x in len().prop_flat_map(values), alpha in -100.0..100.0f64) {
        let mut wide = vec![0.0; x.len()];
        let mut reference = vec![0.0; x.len()];
        simd::scale_into(alpha, &x, &mut wide);
        simd::scalar::scale_into(alpha, &x, &mut reference);
        prop_assert_eq!(bits(&wide), bits(&reference));
    }

    #[test]
    fn add_into_matches_scalar_bitwise(ab in pair()) {
        let (a, b) = ab;
        let mut wide = vec![0.0; a.len()];
        let mut reference = vec![0.0; a.len()];
        simd::add_into(&a, &b, &mut wide);
        simd::scalar::add_into(&a, &b, &mut reference);
        prop_assert_eq!(bits(&wide), bits(&reference));
    }

    #[test]
    fn cumsum_step_matches_scalar_bitwise(
        state in triple(),
        scale in -100.0..100.0f64
    ) {
        let (acc, src, _) = state;
        let n = acc.len();
        let (mut acc_wide, mut acc_ref) = (acc.clone(), acc);
        let (mut dst_wide, mut dst_ref) = (vec![0.0; n], vec![0.0; n]);
        // Two steps so the carried accumulator state is also compared.
        for _ in 0..2 {
            simd::cumsum_step(&mut acc_wide, &src, &mut dst_wide, scale);
            simd::scalar::cumsum_step(&mut acc_ref, &src, &mut dst_ref, scale);
            prop_assert_eq!(bits(&acc_wide), bits(&acc_ref));
            prop_assert_eq!(bits(&dst_wide), bits(&dst_ref));
        }
    }

    #[test]
    fn diff_scaled_matches_scalar_bitwise(state in triple(), scale in -100.0..100.0f64) {
        let (hi, lo, _) = state;
        let mut wide = vec![0.0; hi.len()];
        let mut reference = vec![0.0; hi.len()];
        simd::diff_scaled(&hi, &lo, scale, &mut wide);
        simd::scalar::diff_scaled(&hi, &lo, scale, &mut reference);
        prop_assert_eq!(bits(&wide), bits(&reference));
    }
}

/// The `+0.0` tail-neutrality claim the wide reductions rely on, pinned
/// explicitly: signed zeros and partial-lane tails still agree bitwise.
#[test]
fn signed_zero_and_tail_edges_agree_bitwise() {
    for n in LENS {
        let a: Vec<f64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    -0.0
                } else {
                    (i as f64) - (n as f64) / 2.0
                }
            })
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 0 { 0.0 } else { -1.25 })
            .collect();
        assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::scalar::dot(&a, &b).to_bits(),
            "dot bits diverge at n={n}"
        );
        let idx: Vec<usize> = (0..n).map(|i| (i * 7) % n.max(1)).collect();
        assert_eq!(
            simd::dot_indexed(&a, &idx, &b).to_bits(),
            simd::scalar::dot_indexed(&a, &idx, &b).to_bits(),
            "dot_indexed bits diverge at n={n}"
        );
    }
}

/// The blocked `gram` kernels (and `StructuredMatrix::gram_dense` on a Dense
/// matrix, which routes through them) agree bitwise with references
/// assembled entirely from the *scalar* kernels — for both dispatch arms:
/// the dense column-dot kernel (`out[i][j] = dot(colᵢ, colⱼ)`) and the
/// sparse-ish zero-skipping rank-1 update loop (ascending-row `axpy`). This
/// is the wide-vs-scalar pin for the gram path: in the default (wide) build
/// the kernels under `gram` are the 4-lane ones, and the references below
/// never call them.
#[test]
fn gram_dense_matches_scalar_assembled_reference_bitwise() {
    use hdmm_linalg::{Matrix, StructuredMatrix};
    for (m, n, dense_fill) in [
        (97, 70, false),
        (97, 70, true),
        (33, 65, false),
        (33, 65, true),
    ] {
        let a = Matrix::from_fn(m, n, |r, c| {
            if !dense_fill && (r * 3 + c) % 2 == 0 {
                0.0 // ~50% zeros: the zero-skipping axpy arm
            } else {
                ((r * 13 + c * 7) as f64).sin()
            }
        });
        let reference = if dense_fill {
            // Dense arm contract: scalar dot over contiguous columns.
            let t = a.transpose();
            Matrix::from_fn(n, n, |i, j| {
                let (lo, hi) = (i.min(j), i.max(j));
                simd::scalar::dot(
                    &t.as_slice()[lo * m..(lo + 1) * m],
                    &t.as_slice()[hi * m..(hi + 1) * m],
                )
            })
        } else {
            // Sparse arm contract: ascending-row rank-1 updates via scalar
            // axpy, zeros skipped, upper triangle mirrored.
            let mut out = Matrix::zeros(n, n);
            for k in 0..m {
                let row = a.row(k).to_vec();
                for (i, &vi) in row.iter().enumerate() {
                    if vi == 0.0 {
                        continue;
                    }
                    simd::scalar::axpy(
                        vi,
                        &row[i..],
                        &mut out.as_mut_slice()[i * n + i..(i + 1) * n],
                    );
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    out.as_mut_slice()[j * n + i] = out.as_slice()[i * n + j];
                }
            }
            out
        };
        let arm = if dense_fill { "dense" } else { "sparse" };
        let gram = a.gram();
        let structured = StructuredMatrix::Dense(a.clone()).gram_dense();
        for (x, y) in gram.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{arm} arm: gram {x} vs {y}");
        }
        for (x, y) in structured.as_slice().iter().zip(gram.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{arm} arm: gram_dense diverges from Matrix::gram"
            );
        }
    }
}
