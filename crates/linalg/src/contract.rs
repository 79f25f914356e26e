//! Algorithm 1 (Appendix A.5), written once: the implicit Kronecker
//! matrix–vector product as a chain of mode contractions over a
//! `(left, n, right)` tensor.
//!
//! There is one kernel per direction — [`contract_rows`] and
//! [`contract_transpose_rows`], each a single `match` over the leaf variants
//! of [`StructuredMatrix`] — and one chain driver behind every public
//! product. A single leaf's product ([`StructuredMatrix::matvec`] /
//! [`StructuredMatrix::rmatvec`]) is a one-mode chain: no variant keeps
//! arithmetic of its own outside these kernels. Both kernels produce a
//! *block of output rows* of the mode:
//!
//! * the full contraction is the block `0..out_dim`;
//! * a shard's leading step (see `slab.rs`) is `left = 1` and its block.
//!
//! A block writes exactly the bits the full contraction holds in those rows:
//! row-local variants (`Dense`, `Sparse`, `WidthRange`, `Identity`,
//! `PIdentity`) restrict their loop, variants that carry a running
//! accumulator along the mode (`Total`, `Prefix`, `AllRange`) replay it from
//! the start of the mode in the original operation order instead of
//! splitting the sum, and `Woodbury` forms its rank-`p` term over the whole
//! mode before restricting.
//! `Permuted` reorders the mode around its inner block's arm: forward it
//! gathers the input and restricts the inner arm to the block; transposed it
//! runs the inner arm over the whole mode and scatters the block's positions.
//! "Sharded equals dense, bit for bit" is therefore a property of this one
//! kernel, not an agreement between two. `PIdentity` and `Woodbury` run
//! their dense parts through `Dense`'s own arms, and `WidthRange` runs
//! `Sparse`'s loops over its windows' `(column, value)` entries, so it has
//! the bits of the CSR block it replaces.
//!
//! # Numeric contract
//!
//! Every output element accumulates its contributions over the contracted
//! index in ascending order, through the element-wise kernels of
//! [`crate::simd`] along the `right` lanes; with `right == 1` the forward
//! `Dense` / `Sparse` / `WidthRange` contraction *is* a matvec and reduces
//! through [`crate::simd::dot`] / [`Csr::row_dot`](crate::Csr::row_dot) —
//! the same bits as [`Matrix::matvec`](crate::Matrix::matvec) and
//! `Csr::matvec`. The dense arms tile the columns into [`PANEL`]-wide blocks
//! for locality, which only reorders *which output row* is touched when.

use crate::simd::{add_into, axpy, cumsum_step, diff_scaled, dot, scale_into};
use crate::structured::{flatten, StructuredMatrix};
use crate::Matrix;
use std::ops::Range;
use StructuredMatrix::*;

/// Column-panel width for the cache-blocked `right > 1` dense contractions:
/// 64 columns × 8 bytes × a typical `right` of a few dozen keeps the active
/// source panel inside L1/L2 while every output row streams over it. Each
/// output element still accumulates in ascending column order, so the tiling
/// is bitwise invisible.
const PANEL: usize = 64;

/// Row `i` of a row-major `(_, width)` tensor.
fn lane(t: &[f64], i: usize, width: usize) -> &[f64] {
    &t[i * width..(i + 1) * width]
}

fn lane_mut(t: &mut [f64], i: usize, width: usize) -> &mut [f64] {
    &mut t[i * width..(i + 1) * width]
}

/// Running sum along a mode, restricted to a block: the `warmup` positions
/// (those the traversal meets before the block) only advance `acc` (zeroed
/// first) — with an `acc += col` bit-identical to [`cumsum_step`]'s — and
/// each `emit` pair then writes `scale·acc`. That replay is what lets a
/// block reproduce the accumulator the full contraction holds at its rows.
fn cumsum_replay<'a>(
    acc: &mut [f64],
    warmup: impl Iterator<Item = &'a [f64]>,
    emit: impl Iterator<Item = (&'a [f64], &'a mut [f64])>,
    scale: f64,
) {
    acc.fill(0.0);
    for col in warmup {
        axpy(1.0, col, acc);
    }
    for (col, out_row) in emit {
        cumsum_step(acc, col, out_row, scale);
    }
}

/// `Dense`'s forward arm on one lane: rows `rows` of `d` against the `(n,
/// right)` lane `src`, into the zero-initialized `(rows.len(), right)` block
/// `dst`. With `right == 1` every row is one [`dot`] — the matvec's bits.
fn dense_rows(d: &Matrix, src: &[f64], dst: &mut [f64], right: usize, rows: Range<usize>) {
    if right == 1 {
        for (slot, r) in dst.iter_mut().zip(rows) {
            *slot = dot(d.row(r), src);
        }
        return;
    }
    let n = d.cols();
    for c0 in (0..n).step_by(PANEL) {
        let c1 = (c0 + PANEL).min(n);
        for (r, out_row) in rows.clone().zip(dst.chunks_exact_mut(right)) {
            for (c, &av) in (c0..c1).zip(&d.row(r)[c0..c1]) {
                if av != 0.0 {
                    axpy(av, lane(src, c, right), out_row);
                }
            }
        }
    }
}

/// `Dense`'s transposed arm on one lane: adds positions `rows` of `dᵀ·src`
/// (`src` an `(m, right)` lane) into `dst`, every output row accumulating
/// over `d`'s rows in ascending order.
fn dense_transpose_rows(
    d: &Matrix,
    src: &[f64],
    dst: &mut [f64],
    right: usize,
    rows: Range<usize>,
) {
    if right == 1 {
        // A `Matrix::t_matvec`-shaped scatter: one axpy along the block per
        // input row.
        for (r, &s) in src.iter().enumerate() {
            if s != 0.0 {
                axpy(s, &d.row(r)[rows.clone()], dst);
            }
        }
        return;
    }
    for c0 in rows.clone().step_by(PANEL) {
        let c1 = (c0 + PANEL).min(rows.end);
        for (r, in_row) in src.chunks_exact(right).enumerate() {
            for (c, &av) in (c0..c1).zip(&d.row(r)[c0..c1]) {
                if av != 0.0 {
                    axpy(av, in_row, lane_mut(dst, c - rows.start, right));
                }
            }
        }
    }
}

/// The `(column, value)` entries of row `r` of a `WidthRange` block: the
/// window's cells in ascending order, each `scale` — the entries of its CSR
/// form.
fn window(r: usize, width: usize, scale: f64) -> impl Iterator<Item = (usize, f64)> {
    (r..r + width).map(move |c| (c, scale))
}

/// The forward arm, at any `right`, of a leaf stored as rows of `(column,
/// value)` entries (`Sparse`, `WidthRange`): output row `r` of the block
/// adds `value · lane(column)` for each of `entries(r)`, in entry order.
fn entry_rows<'a, I: Iterator<Item = (usize, f64)>>(
    entries: impl Fn(usize) -> I,
    lanes: impl Iterator<Item = (&'a [f64], &'a mut [f64])>,
    right: usize,
    rows: Range<usize>,
) {
    for (src, dst) in lanes {
        for (r, out_row) in rows.clone().zip(dst.chunks_exact_mut(right)) {
            for (c, v) in entries(r) {
                axpy(v, lane(src, c, right), out_row);
            }
        }
    }
}

/// The transposed arm of such a leaf: every input row, in order, scatters
/// `value · row` into the block's positions among its entries' columns.
fn entry_transpose_rows<'a, I: Iterator<Item = (usize, f64)>>(
    entries: impl Fn(usize) -> I,
    lanes: impl Iterator<Item = (&'a [f64], &'a mut [f64])>,
    right: usize,
    rows: Range<usize>,
) {
    let k = rows.len();
    for (src, dst) in lanes {
        for (r, in_row) in src.chunks_exact(right).enumerate() {
            for (c, v) in entries(r) {
                // One compare: a column below the block wraps above `k`.
                let at = c.wrapping_sub(rows.start);
                if at < k {
                    axpy(v, in_row, lane_mut(dst, at, right));
                }
            }
        }
    }
}

/// A diagonal on one lane: output row `r` of the block is `diag[r]` times
/// row `r` of `src`.
fn diag_rows(diag: &[f64], src: &[f64], dst: &mut [f64], right: usize, rows: Range<usize>) {
    let src = &src[rows.start * right..rows.end * right];
    let diag = &diag[rows];
    if right == 1 {
        // One product per row: `scale_into`'s bits without a call per row.
        for ((out, &x), &d) in dst.iter_mut().zip(src).zip(diag) {
            *out = d * x;
        }
        return;
    }
    for ((out_row, in_row), &d) in dst
        .chunks_exact_mut(right)
        .zip(src.chunks_exact(right))
        .zip(diag)
    {
        scale_into(d, in_row, out_row);
    }
}

/// Contracts leaf factor `a` (m×n) along the middle mode of the
/// `(left, n, right)` tensor `cur`, producing output rows `rows ⊆ 0..m` into
/// `next` (shape `(left, rows.len(), right)`, zero-initialized by the
/// caller): `next[l, r − rows.start, j] = Σ_c a[r, c]·cur[l, c, j]`.
///
/// # Panics
/// Panics on shape mismatches, `rows` out of bounds, or a `Kron` factor
/// (the chain driver flattens those first).
pub fn contract_rows(
    a: &StructuredMatrix,
    cur: &[f64],
    next: &mut [f64],
    left: usize,
    right: usize,
    rows: Range<usize>,
) {
    let (m, n) = a.shape();
    let k = rows.len();
    assert!(rows.end <= m, "row range out of bounds");
    assert_eq!(cur.len(), left * n * right, "input tensor shape mismatch");
    assert_eq!(next.len(), left * k * right, "output tensor shape mismatch");
    if cur.is_empty() || next.is_empty() {
        return;
    }
    let lanes = cur
        .chunks_exact(n * right)
        .zip(next.chunks_exact_mut(k * right));
    match a {
        Dense(d) => {
            for (src, dst) in lanes {
                dense_rows(d, src, dst, right, rows.clone());
            }
        }
        PIdentity { diag, block } => {
            // Rows below `n` are the diagonal's, the rest are `block`'s.
            let top = rows.start.min(n)..rows.end.min(n);
            let bottom = rows.start.max(n) - n..rows.end.max(n) - n;
            for (src, dst) in lanes {
                let (upper, lower) = dst.split_at_mut(top.len() * right);
                diag_rows(diag, src, upper, right, top.clone());
                dense_rows(block, src, lower, right, bottom.clone());
            }
        }
        Woodbury { diag, u } => {
            // (D − UᵀU)·x = D·x + Uᵀ·(−U·x). `U·x` spans the whole mode, so
            // a block of rows holds exactly the full call's bits.
            let mut t = vec![0.0; u.rows() * right];
            for (src, dst) in lanes {
                t.fill(0.0);
                dense_rows(u, src, &mut t, right, 0..u.rows());
                for v in &mut t {
                    *v = -*v;
                }
                diag_rows(diag, src, dst, right, rows.clone());
                dense_transpose_rows(u, &t, dst, right, rows.clone());
            }
        }
        Sparse(s) if right == 1 => {
            for (src, dst) in lanes {
                for (slot, r) in dst.iter_mut().zip(rows.clone()) {
                    *slot = s.row_dot(r, src);
                }
            }
        }
        Sparse(s) => entry_rows(|r| s.row_entries(r), lanes, right, rows),
        WidthRange { width, scale, .. } if right == 1 => {
            // `Csr::row_dot`'s 4-lane order: entry `k` of the window is
            // `scale · src[r + k]`, as `dot_indexed` forms it.
            let values = vec![*scale; *width];
            for (src, dst) in lanes {
                for (slot, r) in dst.iter_mut().zip(rows.clone()) {
                    *slot = dot(&values, &src[r..r + width]);
                }
            }
        }
        WidthRange { width, scale, .. } => {
            entry_rows(|r| window(r, *width, *scale), lanes, right, rows);
        }
        // Element-wise, so the whole mode of every lane is one contiguous run.
        Identity { scale, .. } if k == n => scale_into(*scale, cur, next),
        Identity { scale, .. } => {
            for (src, dst) in lanes {
                scale_into(*scale, &src[rows.start * right..rows.end * right], dst);
            }
        }
        Total { scale, .. } => {
            // m == 1, so a non-empty block is the single row: the sequential
            // sum over the whole mode.
            for (src, dst) in lanes {
                for col in src.chunks_exact(right) {
                    axpy(*scale, col, dst);
                }
            }
        }
        Prefix { scale, .. } => {
            let mut acc = vec![0.0; right];
            for (src, dst) in lanes {
                let (before, from) = src.split_at(rows.start * right);
                let emit = from.chunks_exact(right).zip(dst.chunks_exact_mut(right));
                cumsum_replay(&mut acc, before.chunks_exact(right), emit, *scale);
            }
        }
        AllRange { scale, .. } => {
            // Strided prefix sums over the whole mode (`sums[0]` stays zero),
            // then every emitted interval row is one subtraction.
            let mut sums = vec![0.0; (n + 1) * right];
            for (src, dst) in lanes {
                for c in 0..n {
                    let (done, rest) = sums.split_at_mut((c + 1) * right);
                    add_into(&done[c * right..], lane(src, c, right), &mut rest[..right]);
                }
                // Intervals starting at `i` are rows `first..first + n - i`.
                let mut first = 0;
                for i in 0..n {
                    for row in rows.start.max(first)..rows.end.min(first + n - i) {
                        diff_scaled(
                            lane(&sums, i + row - first + 1, right),
                            lane(&sums, i, right),
                            *scale,
                            lane_mut(dst, row - rows.start, right),
                        );
                    }
                    first += n - i;
                }
            }
        }
        Permuted { inner, perm } => {
            // Column `c` of `inner` reads input position `perm[c]`.
            let mut gathered = vec![0.0; cur.len()];
            for (src, dst) in cur
                .chunks_exact(n * right)
                .zip(gathered.chunks_exact_mut(n * right))
            {
                for (c, &p) in perm.iter().enumerate() {
                    lane_mut(dst, c, right).copy_from_slice(lane(src, p, right));
                }
            }
            contract_rows(inner, &gathered, next, left, right, rows);
        }
        Kron(_) => unreachable!("Kron factors are flattened before mode contraction"),
    }
}

/// The same contraction with `aᵀ`: `cur` has shape `(left, m, right)` and
/// `rows ⊆ 0..n` are positions along `a`'s *input* mode:
/// `next[l, c − rows.start, j] = Σ_r a[r, c]·cur[l, r, j]`, each output
/// element accumulating over `a`'s rows in ascending order.
///
/// # Panics
/// As [`contract_rows`].
pub fn contract_transpose_rows(
    a: &StructuredMatrix,
    cur: &[f64],
    next: &mut [f64],
    left: usize,
    right: usize,
    rows: Range<usize>,
) {
    let (m, n) = a.shape();
    let k = rows.len();
    assert!(rows.end <= n, "row range out of bounds");
    assert_eq!(cur.len(), left * m * right, "input tensor shape mismatch");
    assert_eq!(next.len(), left * k * right, "output tensor shape mismatch");
    if cur.is_empty() || next.is_empty() {
        return;
    }
    let lanes = cur
        .chunks_exact(m * right)
        .zip(next.chunks_exact_mut(k * right));
    match a {
        Dense(d) => {
            for (src, dst) in lanes {
                dense_transpose_rows(d, src, dst, right, rows.clone());
            }
        }
        PIdentity { diag, block } => {
            // Each output column takes its diagonal term, then the block's
            // rows in ascending order.
            for (src, dst) in lanes {
                let (upper, lower) = src.split_at(n * right);
                diag_rows(diag, upper, dst, right, rows.clone());
                dense_transpose_rows(block, lower, dst, right, rows.clone());
            }
        }
        Sparse(s) => entry_transpose_rows(|r| s.row_entries(r), lanes, right, rows),
        WidthRange { width, scale, .. } => {
            entry_transpose_rows(|r| window(r, *width, *scale), lanes, right, rows);
        }
        // Symmetric.
        Identity { .. } | Woodbury { .. } => contract_rows(a, cur, next, left, right, rows),
        Total { scale, .. } => {
            for (src, dst) in lanes {
                for out_row in dst.chunks_exact_mut(right) {
                    scale_into(*scale, src, out_row);
                }
            }
        }
        Prefix { scale, .. } => {
            // (Pᵀ)·: reversed running sums, replayed from the end of the mode.
            let mut acc = vec![0.0; right];
            for (src, dst) in lanes {
                let (upto, after) = src.split_at(rows.end * right);
                let block = upto[rows.start * right..].chunks_exact(right).rev();
                let emit = block.zip(dst.chunks_exact_mut(right).rev());
                cumsum_replay(&mut acc, after.chunks_exact(right).rev(), emit, *scale);
            }
        }
        AllRange { scale, .. } => {
            // Difference arrays along the mode (interval `(i, j)` adds its
            // value on `[i, j]`), built in row order, then one running sum.
            let mut diff = vec![0.0; (n + 1) * right];
            let mut acc = vec![0.0; right];
            for (src, dst) in lanes {
                diff.fill(0.0);
                let mut in_rows = src.chunks_exact(right);
                for i in 0..n {
                    for (j, in_row) in (i..n).zip(&mut in_rows) {
                        axpy(1.0, in_row, lane_mut(&mut diff, i, right));
                        axpy(-1.0, in_row, lane_mut(&mut diff, j + 1, right));
                    }
                }
                let (before, from) = diff.split_at(rows.start * right);
                let emit = from.chunks_exact(right).zip(dst.chunks_exact_mut(right));
                cumsum_replay(&mut acc, before.chunks_exact(right), emit, *scale);
            }
        }
        Permuted { inner, perm } => {
            // Output position `perm[c]` is the inner block's position `c`.
            let mut full = vec![0.0; left * n * right];
            contract_transpose_rows(inner, cur, &mut full, left, right, 0..n);
            for (src, dst) in full
                .chunks_exact(n * right)
                .zip(next.chunks_exact_mut(k * right))
            {
                for (c, &p) in perm.iter().enumerate() {
                    if rows.contains(&p) {
                        lane_mut(dst, p - rows.start, right).copy_from_slice(lane(src, c, right));
                    }
                }
            }
        }
        Kron(_) => unreachable!("Kron factors are flattened before mode contraction"),
    }
}

/// One request's reusable `f64` buffers: a small free list that MEASURE,
/// RECONSTRUCT and ANSWER draw their large buffers from — a contraction
/// chain's ping-pong pair, the tables of every
/// [`SubsetLattice`](crate::SubsetLattice) sweep, MEASURE's noisy blocks,
/// RECONSTRUCT's work vectors — so a warm request writes to pages an earlier
/// one faulted in instead of the fresh pages the allocator hands out after
/// trimming its heap.
///
/// Reuse is bitwise invisible: [`KronScratch::take`] zero-fills its buffer
/// exactly like the fresh `vec![0.0; len]` it replaces, and the chain writes
/// every other buffer it takes in full before reading it.
///
/// A request for `len` values gets the smallest free buffer that holds them
/// without being twice as large; failing that, the largest smaller one is
/// replaced by one of `len`, so the list never holds a buffer the request
/// could have grown instead. Buffers under [`KronScratch::MIN_VALUES`] are
/// plain allocations, never pooled. [`KronScratch::end_request`] drops every
/// buffer the request did not draw on, so a scratch kept between requests
/// keeps at most its last request's buffers.
#[derive(Debug, Default)]
pub struct KronScratch {
    /// Free buffers, each with whether the current request has drawn on it.
    pub(crate) free: Vec<(Vec<f64>, bool)>,
}

impl KronScratch {
    /// Buffers shorter than this (4 KiB) are plain allocations, never pooled:
    /// the allocator serves them from pages it keeps.
    pub const MIN_VALUES: usize = 512;

    /// An empty scratch; its buffers are what requests give back.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of `len` zeros — the bits of a fresh `vec![0.0; len]`.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.take_empty(len);
        buf.resize(len, 0.0);
        buf
    }

    /// An empty buffer with room for `len` values (see the type's doc for
    /// which). A small one starts with no room and grows as it is filled,
    /// as a fresh `Vec` does.
    fn take_empty(&mut self, len: usize) -> Vec<f64> {
        if len < Self::MIN_VALUES {
            return Vec::new();
        }
        let cap = |i: usize| self.free[i].0.capacity();
        let fit = (0..self.free.len())
            .filter(|&i| (len..=2 * len).contains(&cap(i)))
            .min_by_key(|&i| cap(i));
        let short = || {
            (0..self.free.len())
                .filter(|&i| cap(i) < len)
                .max_by_key(|&i| cap(i))
        };
        match fit.or_else(short) {
            Some(i) if cap(i) >= len => {
                let mut buf = self.free.swap_remove(i).0;
                buf.clear();
                buf
            }
            Some(i) => {
                self.free.swap_remove(i);
                Vec::with_capacity(len)
            }
            None => Vec::with_capacity(len),
        }
    }

    /// A buffer holding a copy of `src` — the bits of `src.to_vec()`.
    pub fn copy_of(&mut self, src: &[f64]) -> Vec<f64> {
        let mut buf = self.take_empty(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a buffer for later [`KronScratch::take`]s (a small one is
    /// dropped).
    pub fn give(&mut self, buf: Vec<f64>) {
        if buf.capacity() >= Self::MIN_VALUES {
            self.free.push((buf, true));
        }
    }

    /// Ends a request: drops the free buffers it did not draw on.
    pub fn end_request(&mut self) {
        self.free.retain(|(_, drawn)| *drawn);
        for (_, drawn) in &mut self.free {
            *drawn = false;
        }
    }

    /// Between requests, takes a buffer some other owner is done with (a
    /// closed session's estimate) for the next request, unless a free
    /// buffer already holds as many values; dropped by that request's
    /// [`KronScratch::end_request`] if it does not draw on it.
    pub fn keep(&mut self, buf: Vec<f64>) {
        let held = |(b, _): &(Vec<f64>, bool)| b.capacity() >= buf.capacity();
        if buf.capacity() >= Self::MIN_VALUES && !self.free.iter().any(held) {
            self.free.push((buf, false));
        }
    }
}

/// A leaf's `(input, output)` extents in a product's direction.
fn extents(a: &StructuredMatrix, transpose: bool) -> (usize, usize) {
    let (m, n) = a.shape();
    if transpose {
        (m, n)
    } else {
        (n, m)
    }
}

/// The order [`contract_chain`] contracts the modes of `leaves` in.
///
/// Every mode of Algorithm 1 costs `left · right · cost(Aᵢ)`, and `left` /
/// `right` hold the modes already contracted at their *output* extents, so a
/// mode that shrinks the tensor should go before the modes that grow it. A
/// leaf *shrinks* when its output extent is below its input extent (`rows <
/// cols` forward, `cols < rows` transposed — a `Total`, a short factor, any
/// tall factor transposed). The order is the shrinking leaves, then the rest,
/// each group last-to-first.
///
/// A chain with no shrinking leaf before a non-shrinking one keeps the plain
/// last-to-first order and its bits: every forward strategy product of tall
/// or square factors, every all-tall transpose, every square inverse-Gram
/// chain. The order depends only on the leaves' shapes and the direction.
pub(crate) fn chain_order<'a>(
    leaves: &'a [&'a StructuredMatrix],
    transpose: bool,
) -> impl Iterator<Item = usize> + 'a {
    let shrinks = move |&i: &usize| {
        let (input, output) = extents(leaves[i], transpose);
        output < input
    };
    let last_to_first = move || (0..leaves.len()).rev();
    last_to_first()
        .filter(shrinks)
        .chain(last_to_first().filter(move |i| !shrinks(i)))
}

/// The one chain driver: flattens nested `Kron` factors so every mode is a
/// leaf, then contracts the modes in [`chain_order`], ping-ponging between
/// two buffers taken from `scratch`, and returns the result in one of them
/// (the other goes back). `x` may hold any whole number of leading rows on
/// top of the factors' own modes — one for a full product, a slab's row
/// count for the trailing step of `slab.rs` — since they are just more of
/// `left`.
///
/// # Panics
/// Panics if `x.len()` is not a multiple of the factors' input size.
pub(crate) fn contract_chain(
    factors: &[&StructuredMatrix],
    x: &[f64],
    scratch: &mut KronScratch,
    transpose: bool,
) -> Vec<f64> {
    // The driver's only allocation besides the scratch: the modes' current
    // extents are read off the order, not kept in a second list.
    let leaves = flatten(factors);
    contract_steps(&leaves, 0, x, scratch, transpose)
}

/// The longest tensor the steps of [`chain_order`] from step `done` on
/// write, starting from one of `len` values: every step maps `len` to
/// `len / input · output`.
fn chain_peak(leaves: &[&StructuredMatrix], done: usize, len: usize, transpose: bool) -> usize {
    let steps = chain_order(leaves, transpose).skip(done);
    let lens = steps.scan(len, |len, i| {
        let (input, output) = extents(leaves[i], transpose);
        *len = (*len).checked_div(input).unwrap_or(0) * output;
        Some(*len)
    });
    lens.fold(0, usize::max)
}

/// Runs the steps of [`chain_order`] from step `done` on, over `x` — the
/// intermediate its first `done` steps leave — and returns the result. The
/// first step reads `x` itself; the steps write into two buffers taken from
/// `scratch` that hold the longest output (the one not holding the result
/// goes back), and a chain that runs no step returns a copy of `x`. For every
/// mode, `left` and `right` are the products of the *current* extents of the
/// modes before and after it — output extents for modes already contracted,
/// input extents for the rest.
///
/// A step whose leaf is `Identity { scale: 1.0 }` is checked for alignment
/// but not run: its kernel writes `1.0·v`, which is `v` bit for bit, and
/// leaves every extent as it was, so the current tensor already is its
/// output.
pub(crate) fn contract_steps(
    leaves: &[&StructuredMatrix],
    done: usize,
    x: &[f64],
    scratch: &mut KronScratch,
    transpose: bool,
) -> Vec<f64> {
    let peak = chain_peak(leaves, done, x.len(), transpose);
    // `None` while the current tensor still is `x`.
    let mut cur: Option<Vec<f64>> = None;
    let mut spare: Option<Vec<f64>> = None;
    for (step, i) in chain_order(leaves, transpose).enumerate().skip(done) {
        let a = leaves[i];
        let src = cur.as_deref().unwrap_or(x);
        let (in_dim, out_dim) = extents(a, transpose);
        // A mode after `i` is at its output extent once an earlier step
        // contracted it.
        let contracted = |j: usize| chain_order(leaves, transpose).take(step).any(|k| k == j);
        let right: usize = (i + 1..leaves.len())
            .map(|j| {
                let (input, output) = extents(leaves[j], transpose);
                if contracted(j) {
                    output
                } else {
                    input
                }
            })
            .product();
        assert_eq!(
            src.len() % (in_dim * right),
            0,
            "input length not aligned to the factor modes"
        );
        if matches!(a, Identity { scale, .. } if *scale == 1.0) {
            continue;
        }
        let left = src.len() / (in_dim * right);
        let mut next = spare.take().unwrap_or_else(|| scratch.take_empty(peak));
        next.clear();
        next.resize(left * out_dim * right, 0.0);
        if transpose {
            contract_transpose_rows(a, src, &mut next, left, right, 0..out_dim);
        } else {
            contract_rows(a, src, &mut next, left, right, 0..out_dim);
        }
        spare = cur.replace(next);
    }
    if let Some(spare) = spare {
        scratch.give(spare);
    }
    cur.unwrap_or_else(|| {
        let mut copy = scratch.take_empty(x.len());
        copy.extend_from_slice(x);
        copy
    })
}

/// Implicit Kronecker matrix–vector product `(A₁ ⊗ … ⊗ A_d)·x` over
/// structured factors (Algorithm 1): `x` has length `Π nᵢ` with the first
/// factor's index varying slowest (row-major tensor flattening), the result
/// length `Π mᵢ`. Each mode contraction dispatches to its factor's
/// closed-form kernel, so an `Identity` mode is a scaled copy and a `Prefix`
/// mode a strided cumulative sum instead of an O(m·n) dense product; space
/// is O(max intermediate) and time O(Σᵢ cost(Aᵢ)·rest), versus O(Π mᵢnᵢ) for
/// the materialized product.
///
/// # Panics
/// Panics if `x.len() != Π nᵢ`.
pub fn kmatvec_structured(factors: &[&StructuredMatrix], x: &[f64]) -> Vec<f64> {
    kmatvec_structured_scratch(factors, x, &mut KronScratch::new())
}

/// Implicit transposed product `(A₁ ⊗ … ⊗ A_d)ᵀ·y` over structured factors.
///
/// # Panics
/// Panics if `y.len() != Π mᵢ`.
pub fn kmatvec_transpose_structured(factors: &[&StructuredMatrix], y: &[f64]) -> Vec<f64> {
    kmatvec_transpose_structured_scratch(factors, y, &mut KronScratch::new())
}

/// [`kmatvec_structured`] in buffers taken from `scratch`, returning the
/// result buffer (give it back when done). Bitwise identical to the
/// allocating variant.
///
/// # Panics
/// As [`kmatvec_structured`].
pub fn kmatvec_structured_scratch(
    factors: &[&StructuredMatrix],
    x: &[f64],
    scratch: &mut KronScratch,
) -> Vec<f64> {
    let expected: usize = factors.iter().map(|f| f.cols()).product();
    assert_eq!(x.len(), expected, "kmatvec input length mismatch");
    contract_chain(factors, x, scratch, false)
}

/// [`kmatvec_transpose_structured`] in buffers taken from `scratch`,
/// returning the result buffer (give it back when done).
///
/// # Panics
/// As [`kmatvec_transpose_structured`].
pub fn kmatvec_transpose_structured_scratch(
    factors: &[&StructuredMatrix],
    y: &[f64],
    scratch: &mut KronScratch,
) -> Vec<f64> {
    let expected: usize = factors.iter().map(|f| f.rows()).product();
    assert_eq!(y.len(), expected, "kmatvec input length mismatch");
    contract_chain(factors, y, scratch, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Csr, Matrix};

    #[test]
    fn single_factor_product_is_the_matvec_bitwise() {
        let a = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) % 5) as f64 * 0.3 - 0.7);
        let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.37 - 1.0).collect();
        let y: Vec<f64> = (0..4).map(|i| i as f64 * 0.41 - 0.5).collect();
        let sparse = Csr::from_dense(&a);
        assert_eq!(
            kmatvec_structured(&[&Sparse(sparse.clone())], &x),
            sparse.matvec(&x)
        );
        let dense = Dense(a.clone());
        assert_eq!(kmatvec_structured(&[&dense], &x), a.matvec(&x));
        assert_eq!(kmatvec_transpose_structured(&[&dense], &y), a.t_matvec(&y));
    }

    #[test]
    fn chain_order_puts_shrinking_leaves_first_and_keeps_the_rest_last_to_first() {
        let total = StructuredMatrix::total(5);
        let ranges = StructuredMatrix::all_range(5);
        let prefix = StructuredMatrix::prefix(5);
        let identity = StructuredMatrix::identity(3);
        let tall = Dense(Matrix::from_fn(7, 5, |r, c| (r + c) as f64));
        let short = Dense(Matrix::from_fn(2, 5, |r, c| (r * c) as f64));
        let table: [(&[&StructuredMatrix], bool, &[usize]); 10] = [
            // A Total in front of the expansion goes first ...
            (&[&total, &ranges], false, &[0, 1]),
            (&[&ranges, &short, &identity], false, &[1, 2, 0]),
            // ... and one already behind it keeps the plain order.
            (&[&ranges, &total], false, &[1, 0]),
            // Forward tall / square pairs, all-tall transposes and square
            // (inverse-Gram) chains: last-to-first.
            (&[&tall, &tall], false, &[1, 0]),
            (&[&tall, &identity, &ranges], false, &[2, 1, 0]),
            (&[&tall, &tall], true, &[1, 0]),
            (&[&prefix, &identity, &prefix], false, &[2, 1, 0]),
            (&[&prefix, &identity, &prefix], true, &[2, 1, 0]),
            // Transposed, a tall leaf shrinks and a Total grows.
            (&[&tall, &identity], true, &[0, 1]),
            (&[&total, &ranges], true, &[1, 0]),
        ];
        for (leaves, transpose, want) in table {
            let got: Vec<usize> = chain_order(leaves, transpose).collect();
            assert_eq!(got, want, "{leaves:?} transpose={transpose}");
        }
    }

    /// Every step of [`chain_order`] run through its kernel, unit
    /// `Identity` steps included, with the extents tracked in a list: the
    /// reference a chain that skips those steps must match. `x` may hold
    /// several leading rows, as a slab does.
    fn step_by_step(leaves: &[&StructuredMatrix], x: &[f64], transpose: bool) -> Vec<f64> {
        let mut dims: Vec<usize> = leaves.iter().map(|a| extents(a, transpose).0).collect();
        let mut cur = x.to_vec();
        for i in chain_order(leaves, transpose) {
            let (in_dim, out_dim) = extents(leaves[i], transpose);
            let right: usize = dims[i + 1..].iter().product();
            let left = cur.len() / (in_dim * right);
            let mut next = vec![0.0; left * out_dim * right];
            if transpose {
                contract_transpose_rows(leaves[i], &cur, &mut next, left, right, 0..out_dim);
            } else {
                contract_rows(leaves[i], &cur, &mut next, left, right, 0..out_dim);
            }
            dims[i] = out_dim;
            cur = next;
        }
        cur
    }

    /// Cycles through `-0.0`, subnormals (of both signs), the smallest
    /// normal and ordinary inexact values.
    fn awkward(len: usize) -> Vec<f64> {
        let pool = [
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(3),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            0.1,
            -2.7,
            0.0,
        ];
        (0..len)
            .map(|i| pool[(i * 5 + i / 3) % pool.len()])
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn unit_identity_steps_are_skipped_bit_for_bit() {
        let id3 = StructuredMatrix::identity(3);
        let id4 = StructuredMatrix::identity(4);
        let twice = StructuredMatrix::identity(4).scaled(2.0);
        let negated = StructuredMatrix::identity(3).scaled(-1.0);
        let total = StructuredMatrix::total(4);
        let prefix = StructuredMatrix::prefix(3);
        let tall = Dense(Matrix::from_fn(5, 3, |r, c| (r + 2 * c) as f64 * 0.3 - 0.5));
        let chains: [&[&StructuredMatrix]; 7] = [
            &[&id3, &id4],
            &[&id3, &total],
            &[&prefix, &id4, &id3],
            &[&id4, &tall, &id3],
            &[&total, &id3, &tall],
            &[&twice, &id3],
            &[&negated, &id4, &twice],
        ];
        for chain in chains {
            for transpose in [false, true] {
                let cols: usize = chain.iter().map(|a| extents(a, transpose).0).product();
                // One row for a full product, five for a slab's trailing step.
                for rows in [1, 5] {
                    let x = awkward(rows * cols);
                    let want = step_by_step(chain, &x, transpose);
                    let got = contract_chain(chain, &x, &mut KronScratch::new(), transpose);
                    let what = format!("{chain:?} transpose={transpose} rows={rows}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn only_unit_identity_steps_are_skipped() {
        // 128 · 4 values: enough for the chain to draw on the scratch.
        let x = awkward(512);
        let twice = StructuredMatrix::identity(4).scaled(2.0);
        let leaves = |a: StructuredMatrix| {
            let mut scratch = KronScratch::new();
            let got = contract_chain(&[&a, &twice], &x, &mut scratch, false);
            // One step writes the result; a second one needs the spare
            // buffer, which comes back to the scratch.
            (bits(&got), scratch.free.len())
        };
        // A unit Identity step runs no kernel: one step, no spare ...
        let (unit, spares) = leaves(StructuredMatrix::identity(128));
        let doubled: Vec<u64> = x.iter().map(|v| (2.0 * v).to_bits()).collect();
        assert_eq!((unit, spares), (doubled, 0));
        // ... a scaled one is still contracted: `2·v`, and `−v`, which turns
        // every `−0.0` into `+0.0`.
        for scale in [2.0, -1.0] {
            let (got, spares) = leaves(StructuredMatrix::identity(128).scaled(scale));
            let want: Vec<u64> = x.iter().map(|v| (scale * (2.0 * v)).to_bits()).collect();
            assert_eq!(got, want, "scale {scale}");
            assert_eq!(spares, 1, "scale {scale}: no kernel ran");
        }
    }

    /// A reused buffer comes back zeroed; a request keeps only the buffers
    /// it drew on; a recycled buffer is kept unless a free one holds as
    /// many values; small buffers are never pooled.
    #[test]
    fn scratch_reuses_zeroes_and_trims_its_buffers() {
        let mut scratch = KronScratch::new();
        let mut a = scratch.take(1000);
        a.fill(7.0);
        let b = scratch.take(3000);
        scratch.give(a);
        scratch.give(b);
        // 600 fits the 1000-value buffer (under twice its size), zeroed.
        let again = scratch.take(600);
        assert_eq!(
            (again.capacity(), again.iter().all(|v| v.to_bits() == 0)),
            (1000, true)
        );
        scratch.give(again);
        scratch.end_request();
        let caps = |s: &KronScratch| s.free.iter().map(|(b, _)| b.capacity()).collect::<Vec<_>>();
        assert_eq!(caps(&scratch).len(), 2, "both were drawn on");
        // The next request draws on the 3000 only: the 1000 goes.
        let c = scratch.take(2000);
        scratch.give(c);
        scratch.end_request();
        assert_eq!(caps(&scratch), [3000]);
        // Between requests: a larger estimate is kept, a smaller one not.
        scratch.keep(vec![0.0; 4000]);
        scratch.keep(vec![0.0; 2500]);
        scratch.keep(vec![0.0; 100]);
        assert_eq!(caps(&scratch), [3000, 4000]);
        // A buffer too small for a request is replaced, not kept beside it
        // (the 4000), and one the request did not draw on goes (the 3000).
        let d = scratch.take(5000);
        assert_eq!(caps(&scratch), [3000]);
        scratch.give(d);
        scratch.end_request();
        assert_eq!(caps(&scratch), [5000]);
        // A copy draws on a free buffer and holds the source's bits.
        let src: Vec<f64> = (0..4000).map(|i| f64::from(i) - 0.5).collect();
        let copy = scratch.copy_of(&src);
        assert_eq!((copy.capacity(), copy == src), (5000, true));
        assert!(caps(&scratch).is_empty());
    }

    #[test]
    fn slab_split_of_a_leading_unit_identity_is_unchanged() {
        use crate::slab::{kmatvec_trailing_slab, slab_split};
        let id3 = StructuredMatrix::identity(3);
        let total = StructuredMatrix::total(4);
        let prefix = StructuredMatrix::prefix(4);
        let tall = Dense(Matrix::from_fn(6, 4, |r, c| (r * c) as f64 * 0.25 - 0.5));
        // Whether a product is sliced follows chain_order's last step, which
        // a skipped step does not change: a leading unit Identity never
        // shrinks, so it is contracted last and the product is sliced.
        let table: [&[&StructuredMatrix]; 5] = [
            &[&id3],
            &[&id3, &total],
            &[&id3, &prefix],
            &[&id3, &tall, &total],
            &[&id3, &tall],
        ];
        for leaves in table {
            let split = slab_split(leaves).expect("a leading Identity is sliced");
            assert!(std::ptr::eq(split.leading, &id3));
            // The trailing slabs, merged, then the leading step over them are
            // the plain product's bits.
            let x = awkward(leaves.iter().map(|a| a.cols()).product());
            let merged = kmatvec_trailing_slab(&split.trailing, &x);
            let right = split.trailing_rows();
            let mut out = vec![0.0; 3 * right];
            contract_rows(split.leading, &merged, &mut out, 1, right, 0..3);
            assert_eq!(bits(&out), bits(&kmatvec_structured(leaves, &x)));
        }
        // A leading shrinking leaf in front of a unit Identity is not.
        assert!(slab_split(&[&total, &id3]).is_none());
    }
}
