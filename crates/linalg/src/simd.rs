//! Deterministic 4-lane (`f64x4`-style) kernels for the hot loops.
//!
//! Every dense kernel in this crate funnels through the primitives here so
//! the numeric behaviour of the whole workspace is pinned in one place. The
//! wide path is hand-unrolled over `[f64; 4]` blocks on stable Rust — four
//! independent accumulators with no cross-lane dependency, which LLVM lowers
//! to packed SIMD on every target that has it — and the [`scalar`] reference
//! executes the *same* operation sequence lane by lane, so the two are
//! bitwise identical by construction; `tests/simd_kernels.rs` proptests that
//! claim. The wide path is plain stable Rust with no intrinsics, so it is the
//! only path product code runs on any target.
//!
//! # The summation-order contract
//!
//! Floating-point addition is not associative, and the sharded/remote
//! serving paths promise byte-identical answers to dense serving (see
//! `slab.rs`). That promise survives vectorization only because every kernel
//! here fixes one reduction order and every caller on a byte-identity pair
//! uses the same kernel:
//!
//! * **Reductions** ([`dot`], [`dot_indexed`]): element `i` is assigned to
//!   lane `i mod 4`. Each lane sums its subsequence in ascending index
//!   order, and the four lane totals are combined as
//!   `(l0 + l1) + (l2 + l3)` — never left-to-right, never tree-free.
//!   Changing either the lane assignment or the final combine changes the
//!   bits of every matvec in the workspace.
//! * **Element-wise kernels** ([`axpy`], [`scale_into`], [`add_into`],
//!   [`cumsum_step`], [`diff_scaled`]): output element `i` depends only on
//!   input element(s) `i`, so no sum is ever reassociated and the unrolling
//!   is bit-neutral. The mode contractions (`contract.rs`) accumulate over
//!   the contracted index in ascending order *outside* these kernels;
//!   vectorizing their inner `right`-lane loop is therefore always safe.
//!
//! The contract is documented operationally in `docs/PERFORMANCE.md`.

/// Lane width of the wide path. Part of the summation-order contract:
/// reductions assign element `i` to lane `i mod LANES`.
pub const LANES: usize = 4;

/// Scalar reference implementations of every kernel.
///
/// These execute the wide path's operation sequence lane by lane, so for
/// every kernel `k`, `simd::k(..)` and `simd::scalar::k(..)` return bitwise
/// identical results — the property `tests/simd_kernels.rs` pins. No product
/// code calls them.
pub mod scalar {
    use super::LANES;

    /// Reference dot product: lane `i mod 4` accumulators, combined
    /// `(l0 + l1) + (l2 + l3)`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = [0.0f64; LANES];
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            acc[i % LANES] += x * y;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// Reference sparse dot `Σ_k vals[k]·x[idx[k]]`, same lane contract as
    /// [`dot`] over the entry position `k`.
    ///
    /// # Panics
    /// Panics if `vals` and `idx` differ in length or an index is out of
    /// bounds.
    pub fn dot_indexed(vals: &[f64], idx: &[usize], x: &[f64]) -> f64 {
        assert_eq!(vals.len(), idx.len(), "dot_indexed length mismatch");
        let mut acc = [0.0f64; LANES];
        for (k, (&c, v)) in idx.iter().zip(vals).enumerate() {
            acc[k % LANES] += v * x[c];
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// Reference `y[i] += alpha·x[i]` (element-wise; no reassociation).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Reference `out[i] = alpha·x[i]`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn scale_into(alpha: f64, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), out.len(), "scale_into length mismatch");
        for (o, xi) in out.iter_mut().zip(x) {
            *o = alpha * xi;
        }
    }

    /// Reference `out[i] = a[i] + b[i]`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
        assert_eq!(a.len(), b.len(), "add_into length mismatch");
        assert_eq!(a.len(), out.len(), "add_into output length mismatch");
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    /// Reference strided cumulative-sum step: `acc[i] += src[i];
    /// dst[i] = acc[i]·scale` (the `Prefix` mode kernel's inner lane loop).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn cumsum_step(acc: &mut [f64], src: &[f64], dst: &mut [f64], scale: f64) {
        assert_eq!(acc.len(), src.len(), "cumsum_step length mismatch");
        assert_eq!(acc.len(), dst.len(), "cumsum_step output length mismatch");
        for ((a, d), s) in acc.iter_mut().zip(dst.iter_mut()).zip(src) {
            *a += s;
            *d = *a * scale;
        }
    }

    /// Reference `out[i] = scale·(hi[i] − lo[i])` (the `AllRange` mode
    /// kernel's per-row subtraction).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn diff_scaled(hi: &[f64], lo: &[f64], scale: f64, out: &mut [f64]) {
        assert_eq!(hi.len(), lo.len(), "diff_scaled length mismatch");
        assert_eq!(hi.len(), out.len(), "diff_scaled output length mismatch");
        for ((o, h), l) in out.iter_mut().zip(hi).zip(lo) {
            *o = scale * (h - l);
        }
    }
}

mod wide {
    //! The unrolled 4-lane path. Bitwise identical to [`super::scalar`]:
    //! lane `j` of a reduction sees exactly the products at indices
    //! `j, j+4, j+8, …` in that order (the tail element of a lane, when
    //! present, is that lane's largest index, so adding it after the chunked
    //! loop preserves ascending order), and lanes without a tail element add
    //! a literal `+0.0` — which cannot change any accumulator's bits, since
    //! an accumulator that started at `+0.0` can never become `-0.0` under
    //! round-to-nearest.

    use super::LANES;

    #[inline(always)]
    fn lane_reduce(acc: [f64; LANES]) -> f64 {
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let mut acc = [0.0f64; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            acc[0] += xa[0] * xb[0];
            acc[1] += xa[1] * xb[1];
            acc[2] += xa[2] * xb[2];
            acc[3] += xa[3] * xb[3];
        }
        let mut tail = [0.0f64; LANES];
        for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
            tail[j] = x * y;
        }
        acc[0] += tail[0];
        acc[1] += tail[1];
        acc[2] += tail[2];
        acc[3] += tail[3];
        lane_reduce(acc)
    }

    pub fn dot_indexed(vals: &[f64], idx: &[usize], x: &[f64]) -> f64 {
        assert_eq!(vals.len(), idx.len(), "dot_indexed length mismatch");
        let mut acc = [0.0f64; LANES];
        let mut cv = vals.chunks_exact(LANES);
        let mut ci = idx.chunks_exact(LANES);
        for (v, c) in (&mut cv).zip(&mut ci) {
            acc[0] += v[0] * x[c[0]];
            acc[1] += v[1] * x[c[1]];
            acc[2] += v[2] * x[c[2]];
            acc[3] += v[3] * x[c[3]];
        }
        let mut tail = [0.0f64; LANES];
        for (j, (&c, v)) in ci.remainder().iter().zip(cv.remainder()).enumerate() {
            tail[j] = v * x[c];
        }
        acc[0] += tail[0];
        acc[1] += tail[1];
        acc[2] += tail[2];
        acc[3] += tail[3];
        lane_reduce(acc)
    }

    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        let mut cy = y.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (yc, xc) in (&mut cy).zip(&mut cx) {
            yc[0] += alpha * xc[0];
            yc[1] += alpha * xc[1];
            yc[2] += alpha * xc[2];
            yc[3] += alpha * xc[3];
        }
        for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
            *yi += alpha * xi;
        }
    }

    pub fn scale_into(alpha: f64, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), out.len(), "scale_into length mismatch");
        let mut co = out.chunks_exact_mut(LANES);
        let mut cx = x.chunks_exact(LANES);
        for (oc, xc) in (&mut co).zip(&mut cx) {
            oc[0] = alpha * xc[0];
            oc[1] = alpha * xc[1];
            oc[2] = alpha * xc[2];
            oc[3] = alpha * xc[3];
        }
        for (o, xi) in co.into_remainder().iter_mut().zip(cx.remainder()) {
            *o = alpha * xi;
        }
    }

    pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
        assert_eq!(a.len(), b.len(), "add_into length mismatch");
        assert_eq!(a.len(), out.len(), "add_into output length mismatch");
        let mut co = out.chunks_exact_mut(LANES);
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for ((oc, ac), bc) in (&mut co).zip(&mut ca).zip(&mut cb) {
            oc[0] = ac[0] + bc[0];
            oc[1] = ac[1] + bc[1];
            oc[2] = ac[2] + bc[2];
            oc[3] = ac[3] + bc[3];
        }
        for ((o, x), y) in co
            .into_remainder()
            .iter_mut()
            .zip(ca.remainder())
            .zip(cb.remainder())
        {
            *o = x + y;
        }
    }

    pub fn cumsum_step(acc: &mut [f64], src: &[f64], dst: &mut [f64], scale: f64) {
        assert_eq!(acc.len(), src.len(), "cumsum_step length mismatch");
        assert_eq!(acc.len(), dst.len(), "cumsum_step output length mismatch");
        let mut cacc = acc.chunks_exact_mut(LANES);
        let mut cdst = dst.chunks_exact_mut(LANES);
        let mut csrc = src.chunks_exact(LANES);
        for ((ac, dc), sc) in (&mut cacc).zip(&mut cdst).zip(&mut csrc) {
            ac[0] += sc[0];
            ac[1] += sc[1];
            ac[2] += sc[2];
            ac[3] += sc[3];
            dc[0] = ac[0] * scale;
            dc[1] = ac[1] * scale;
            dc[2] = ac[2] * scale;
            dc[3] = ac[3] * scale;
        }
        for ((a, d), s) in cacc
            .into_remainder()
            .iter_mut()
            .zip(cdst.into_remainder().iter_mut())
            .zip(csrc.remainder())
        {
            *a += s;
            *d = *a * scale;
        }
    }

    pub fn diff_scaled(hi: &[f64], lo: &[f64], scale: f64, out: &mut [f64]) {
        assert_eq!(hi.len(), lo.len(), "diff_scaled length mismatch");
        assert_eq!(hi.len(), out.len(), "diff_scaled output length mismatch");
        let mut co = out.chunks_exact_mut(LANES);
        let mut ch = hi.chunks_exact(LANES);
        let mut cl = lo.chunks_exact(LANES);
        for ((oc, hc), lc) in (&mut co).zip(&mut ch).zip(&mut cl) {
            oc[0] = scale * (hc[0] - lc[0]);
            oc[1] = scale * (hc[1] - lc[1]);
            oc[2] = scale * (hc[2] - lc[2]);
            oc[3] = scale * (hc[3] - lc[3]);
        }
        for ((o, h), l) in co
            .into_remainder()
            .iter_mut()
            .zip(ch.remainder())
            .zip(cl.remainder())
        {
            *o = scale * (h - l);
        }
    }
}

/// Deterministic dot product `Σ aᵢ·bᵢ` under the lane contract: element `i`
/// accumulates in lane `i mod 4`, lanes combine as `(l0+l1)+(l2+l3)`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    wide::dot(a, b)
}

/// Deterministic sparse dot `Σ_k vals[k]·x[idx[k]]` under the lane contract
/// over entry position `k`.
///
/// # Panics
/// Panics if `vals`/`idx` differ in length or an index is out of bounds.
#[inline]
pub fn dot_indexed(vals: &[f64], idx: &[usize], x: &[f64]) -> f64 {
    wide::dot_indexed(vals, idx, x)
}

/// `y[i] += alpha·x[i]`, unrolled; element-wise, so bit-neutral.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    wide::axpy(alpha, x, y)
}

/// `out[i] = alpha·x[i]`, unrolled.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn scale_into(alpha: f64, x: &[f64], out: &mut [f64]) {
    wide::scale_into(alpha, x, out)
}

/// `out[i] = a[i] + b[i]`, unrolled.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    wide::add_into(a, b, out)
}

/// Strided cumulative-sum step `acc[i] += src[i]; dst[i] = acc[i]·scale` —
/// the inner lane loop of the `Prefix` mode contraction (forward and
/// transposed; the caller chooses the traversal direction).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn cumsum_step(acc: &mut [f64], src: &[f64], dst: &mut [f64], scale: f64) {
    wide::cumsum_step(acc, src, dst, scale)
}

/// `out[i] = scale·(hi[i] − lo[i])` — the `AllRange` mode contraction's
/// per-row subtraction of strided prefix sums.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn diff_scaled(hi: &[f64], lo: &[f64], scale: f64, out: &mut [f64]) {
    wide::diff_scaled(hi, lo, scale, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(seed | 1)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                ((h >> 40) % 1000) as f64 * 0.013 - 6.5
            })
            .collect()
    }

    #[test]
    fn dot_matches_scalar_bitwise_across_lengths() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 127, 128, 129, 1000] {
            let a = data(n, 3);
            let b = data(n, 17);
            assert_eq!(
                dot(&a, &b).to_bits(),
                scalar::dot(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn dot_indexed_matches_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 6, 13, 129] {
            let vals = data(n, 5);
            let idx: Vec<usize> = (0..n).map(|i| (i * 7) % (n.max(1) * 2)).collect();
            let x = data(n.max(1) * 2, 9);
            assert_eq!(
                dot_indexed(&vals, &idx, &x).to_bits(),
                scalar::dot_indexed(&vals, &idx, &x).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn elementwise_kernels_match_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 5, 127, 129] {
            let a = data(n, 11);
            let b = data(n, 13);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let (mut y1, mut y2) = (b.clone(), b.clone());
            axpy(0.37, &a, &mut y1);
            scalar::axpy(0.37, &a, &mut y2);
            assert_eq!(bits(&y1), bits(&y2), "axpy n={n}");

            let (mut o1, mut o2) = (vec![0.0; n], vec![0.0; n]);
            scale_into(-1.75, &a, &mut o1);
            scalar::scale_into(-1.75, &a, &mut o2);
            assert_eq!(bits(&o1), bits(&o2), "scale_into n={n}");

            add_into(&a, &b, &mut o1);
            scalar::add_into(&a, &b, &mut o2);
            assert_eq!(bits(&o1), bits(&o2), "add_into n={n}");

            let (mut acc1, mut acc2) = (b.clone(), b.clone());
            cumsum_step(&mut acc1, &a, &mut o1, 0.5);
            scalar::cumsum_step(&mut acc2, &a, &mut o2, 0.5);
            assert_eq!(bits(&acc1), bits(&acc2), "cumsum acc n={n}");
            assert_eq!(bits(&o1), bits(&o2), "cumsum dst n={n}");

            diff_scaled(&a, &b, 2.25, &mut o1);
            scalar::diff_scaled(&a, &b, 2.25, &mut o2);
            assert_eq!(bits(&o1), bits(&o2), "diff_scaled n={n}");
        }
    }

    #[test]
    fn dot_value_is_correct() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 2.0 + 6.0 + 12.0 + 20.0 + 30.0);
    }

    #[test]
    fn negative_zero_products_do_not_flip_accumulators() {
        // Lane products of −0.0 and the wide path's tail +0.0 padding must
        // leave accumulators bitwise identical to the scalar reference.
        let a = [-1.0, 0.0, -3.0, 0.0, -5.0];
        let b = [0.0, -2.0, 0.0, -4.0, 0.0];
        assert_eq!(dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
        assert_eq!(dot(&a, &b).to_bits(), 0.0f64.to_bits());
    }
}
