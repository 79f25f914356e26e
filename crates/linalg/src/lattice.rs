//! The data-cube lattice of marginal tables (Gray et al. 1997), walked once
//! for every phase that sums a tensor's modes out: MEASURE's and ANSWER's
//! products whose chains start with unit `Total` leaves
//! ([`kmatvec_shared`]), and the marginals RECONSTRUCT's sweeps.
//!
//! A table is named by the modes it *keeps* (bit `j` of a `u64`): the tensor
//! with every other mode summed out by an unscaled `Total`, the kept modes at
//! full extent, row-major. The full table keeps every mode. Every other
//! table has one parent, the table that adds its lowest missing mode `i`:
//! summing the parent's mode `i` out — one [`contract_rows`] with the
//! parent viewed as `(left, nᵢ, right)` — gives the child, and broadcasting
//! the child along mode `i` is the transpose of that step.

use crate::contract::{chain_order, contract_rows, contract_steps, KronScratch};
use crate::{kmatvec_structured_scratch, StructuredMatrix};
use std::{borrow::Cow, collections::BTreeSet};
use StructuredMatrix::{Kron, Total};

/// The tables a computation needs and every table on their paths to the
/// full one, in ascending mask order: every child precedes its parent and
/// the full table is last. Built once per use — per `W·x` call, per
/// MEASURE, once per marginals plan — it holds shapes, never values; the
/// sweeps take their tables from the request's [`KronScratch`].
#[derive(Debug, Clone)]
pub struct SubsetLattice {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The modes the table keeps, and its cells.
    kept: u64,
    cells: usize,
    /// The parent's node (the full table's is itself), and the parent's
    /// table as `(cells / right, n, right)` around the mode it adds.
    parent: usize,
    n: usize,
    right: usize,
}

/// The mask that keeps all of `d ≤ 64` modes.
fn full_mask(d: usize) -> u64 {
    u64::MAX.checked_shr(64 - d as u32).unwrap_or(0)
}

impl SubsetLattice {
    /// The lattice over tensors with mode extents `sizes` that holds the
    /// tables `kept` and their ancestors.
    ///
    /// # Panics
    /// Panics on more than 64 modes or a mask naming a mode beyond them.
    pub fn new(sizes: &[usize], kept: impl IntoIterator<Item = u64>) -> Self {
        assert!(sizes.len() <= 64, "a subset lattice has at most 64 modes");
        let full = full_mask(sizes.len());
        let mut masks = BTreeSet::from([full]);
        for mut a in kept {
            assert_eq!(a & !full, 0, "a kept mode beyond the tensor's modes");
            // Up the parents until a table already held (the full one at
            // the latest).
            while masks.insert(a) {
                a |= !a & (a + 1);
            }
        }
        let masks: Vec<u64> = masks.into_iter().collect();
        let cells = |a: u64, from: usize| -> usize {
            let kept = (from..sizes.len()).filter(|&j| a >> j & 1 == 1);
            kept.map(|j| sizes[j]).product()
        };
        let nodes = masks
            .iter()
            .map(|&a| {
                // The mode the parent adds; the mode count for the full table.
                let i = (!a).trailing_zeros() as usize;
                let parent = (a | !a & a.wrapping_add(1)).min(full);
                Node {
                    kept: a,
                    cells: cells(a, 0),
                    parent: masks.partition_point(|&s| s < parent),
                    n: sizes.get(i).copied().unwrap_or(1),
                    right: cells(a, i + 1),
                }
            })
            .collect();
        SubsetLattice { nodes }
    }

    /// The forward (sum-out) sweep: every table from `x`, the full one, each
    /// summed out of its parent's, depth first. The table that keeps `kept`
    /// goes to `done(kept, table, scratch)` — its last reader — once the
    /// tables below it are done, so tables come to `done` in ascending mask
    /// order and the sweep holds only the tables on the path to the one it
    /// builds; a table `done` does not keep goes back to `scratch` there.
    /// Only the full table can be borrowed: `x` as given.
    ///
    /// # Panics
    /// Panics if `x` is not the full table's size.
    pub fn forward<'x>(
        &self,
        x: Cow<'x, [f64]>,
        scratch: &mut KronScratch,
        mut done: impl FnMut(u64, Cow<'x, [f64]>, &mut KronScratch),
    ) {
        let full = self.nodes.len() - 1;
        assert_eq!(x.len(), self.nodes[full].cells, "full table size mismatch");
        self.visit(full, x, scratch, &mut done);
    }

    /// Builds each child of node `k` from its `table` and visits it, lowest
    /// mask first, then hands `table` to `done`. A child misses one of the
    /// trailing modes `kept` holds; the higher that mode, the lower its mask.
    fn visit<'x, F>(&self, k: usize, table: Cow<'x, [f64]>, scratch: &mut KronScratch, done: &mut F)
    where
        F: FnMut(u64, Cow<'x, [f64]>, &mut KronScratch),
    {
        let kept = self.nodes[k].kept;
        for i in (0..kept.trailing_ones()).rev() {
            let c = self.nodes.partition_point(|n| n.kept < kept & !(1 << i));
            let Some(child) = self.nodes.get(c).filter(|n| n.kept == kept & !(1 << i)) else {
                continue;
            };
            let mut next = scratch.take(child.cells);
            let left = child.cells.checked_div(child.right).unwrap_or(0);
            let total = StructuredMatrix::total(child.n);
            contract_rows(&total, &table, &mut next, left, child.right, 0..1);
            self.visit(c, Cow::Owned(next), scratch, done);
        }
        done(kept, table, scratch);
    }

    /// The transpose (broadcast-add) sweep: `Σ_a Q_aᵀ·t_a` over the given
    /// `(a, t_a)`, at most one per table of the lattice. Each table is added
    /// into its parent's along the mode the parent adds, child before
    /// parent in ascending order, and goes back to `scratch` right after;
    /// returns the full table. A parent without a table of its own starts
    /// from zeros taken from `scratch`.
    ///
    /// # Panics
    /// Panics on a mask the lattice does not hold or a table not of its
    /// size.
    pub fn transpose(
        &self,
        tables: impl IntoIterator<Item = (u64, Vec<f64>)>,
        scratch: &mut KronScratch,
    ) -> Vec<f64> {
        let mut slots = vec![None; self.nodes.len()];
        for (kept, table) in tables {
            let k = self.nodes.partition_point(|n| n.kept < kept);
            let fits = self
                .nodes
                .get(k)
                .is_some_and(|n| (n.kept, n.cells) == (kept, table.len()));
            assert!(fits, "no table of this mask and size in the lattice");
            slots[k] = Some(table);
        }
        let full = self.nodes.len() - 1;
        for (k, node) in self.nodes[..full].iter().enumerate() {
            let Some(table) = slots[k].take() else {
                continue;
            };
            let cells = self.nodes[node.parent].cells;
            let parent = slots[node.parent].get_or_insert_with(|| scratch.take(cells));
            let rows = parent.chunks_exact_mut(node.n * node.right);
            for (src, dst) in table.chunks_exact(node.right).zip(rows) {
                // Inline, not `axpy`: `right` is often a handful of cells.
                for row in dst.chunks_exact_mut(node.right) {
                    row.iter_mut().zip(src).for_each(|(d, s)| *d += s);
                }
            }
            scratch.give(table);
        }
        let cells = self.nodes[full].cells;
        slots[full].take().unwrap_or_else(|| scratch.take(cells))
    }
}

/// The modes the forward chain of `leaves` starts by summing out: the
/// leading steps of [`chain_order`] whose leaf is `Total { scale: 1.0 }`,
/// each on a lower mode than the step before (the order the lattice sums
/// them out in). Empty (`0`) for leaves the lattice cannot serve: a `Kron`
/// leaf, more than 64, or leaves that do not match the modes `sizes`.
fn total_run(leaves: &[&StructuredMatrix], sizes: &[usize]) -> u64 {
    let fits = |(a, &n): (&&StructuredMatrix, &usize)| !matches!(a, Kron(_)) && a.cols() == n;
    if leaves.len() > 64 || leaves.len() != sizes.len() || !leaves.iter().zip(sizes).all(fits) {
        return 0;
    }
    let mut run = 0u64;
    for i in chain_order(leaves, false) {
        let unit_total = matches!(leaves[i], Total { scale, .. } if *scale == 1.0);
        if !unit_total || i >= run.trailing_zeros() as usize {
            break;
        }
        run |= 1 << i;
    }
    run
}

/// `(⊗ A_p)·x` for every product `p` of `products` — each bit for bit
/// [`kmatvec_structured`](crate::kmatvec_structured)'s result — handed to
/// `each(p, result, scratch)` in a buffer taken from `scratch`: a caller
/// that keeps it (MEASURE's blocks) copies nothing, one that does not gives
/// it back. `x` is a row-major tensor with mode extents `sizes`.
///
/// The products share the tables of one [`SubsetLattice`]: a product whose
/// chain starts with a run of unit `Total` leaves runs the rest of its chain
/// on the table that keeps the other modes, summed once for every product
/// that needs it; any other product runs its whole chain on `x`. When no
/// product starts with such a run, no lattice is built and the products run
/// in list order; otherwise they run as the forward sweep hands over their
/// tables, in ascending order of the modes kept — list order for products
/// listed that way, as marginals are.
///
/// Bit for bit: the chain order contracts a product's shrinking leaves
/// first, last to first, so a run of unit `Total` leaves sums out its modes
/// from the highest down, each step with the `(left, n, right)` of the
/// lattice link that removes that mode. Its intermediate after those steps
/// *is* the table, and the rest of its chain runs on the table in the same
/// order.
///
/// # Panics
/// Panics if a product's input size is not `x.len()`.
pub fn kmatvec_shared(
    products: &[Vec<&StructuredMatrix>],
    x: &[f64],
    sizes: &[usize],
    scratch: &mut KronScratch,
    mut each: impl FnMut(usize, Vec<f64>, &mut KronScratch),
) {
    if products.iter().all(|p| total_run(p, sizes) == 0) {
        for (i, p) in products.iter().enumerate() {
            each(i, kmatvec_structured_scratch(p, x, scratch), scratch);
        }
        return;
    }
    let full = full_mask(sizes.len());
    let runs: Vec<u64> = products.iter().map(|p| total_run(p, sizes)).collect();
    let lattice = SubsetLattice::new(sizes, runs.iter().map(|run| full & !run));
    lattice.forward(Cow::Borrowed(x), scratch, |kept, table, scratch| {
        for (i, p) in products.iter().enumerate() {
            if full & !runs[i] == kept {
                let y = match runs[i].count_ones() as usize {
                    0 => kmatvec_structured_scratch(p, &table, scratch),
                    done => contract_steps(p, done, &table, scratch, false),
                };
                each(i, y, scratch);
            }
        }
        if let Cow::Owned(table) = table {
            scratch.give(table);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kmatvec_structured, kmatvec_transpose_structured};

    /// `Q_a`'s leaves: `Identity` on the kept modes, unit `Total` elsewhere.
    fn leaves(sizes: &[usize], kept: u64) -> Vec<StructuredMatrix> {
        let leaf = |(j, &n): (usize, &usize)| {
            if kept >> j & 1 == 1 {
                StructuredMatrix::identity(n)
            } else {
                StructuredMatrix::total(n)
            }
        };
        sizes.iter().enumerate().map(leaf).collect()
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

    /// Inexact values over nine orders of magnitude, so that summing in
    /// another order moves bits.
    fn inexact(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.618_034).sin() * 10f64.powi((i % 9) as i32 - 4))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic masks over `d` modes: a spread of bit patterns, the
    /// empty and the single-mode ones included.
    fn masks(d: usize, count: u64) -> Vec<u64> {
        let full = full_mask(d);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut out = vec![0, 1, full & !1, 1 << (d - 1)];
        for _ in 0..count {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.push(state & full);
        }
        out
    }

    /// Mode extents: small ones with size-1 modes, a 30-mode domain (as
    /// ANSWER serves beyond the marginals algebra's 24 attributes) and a
    /// 64-mode one, each with the masks its lattice holds.
    fn cases() -> Vec<(Vec<usize>, Vec<u64>)> {
        let sized = |d: usize, size: fn(usize) -> usize| (0..d).map(size).collect::<Vec<_>>();
        [
            sized(4, |j| [3, 1, 4, 2][j]),
            sized(3, |_| 1),
            sized(5, |j| [2, 5, 1, 3, 2][j]),
            sized(30, |j| match (j % 7, j % 5) {
                (0, _) => 2,
                (_, 0) => 3,
                _ => 1,
            }),
            sized(64, |j| {
                if [0, 9, 31, 32, 63].contains(&j) {
                    2
                } else {
                    1
                }
            }),
        ]
        .into_iter()
        .map(|sizes| {
            let m = masks(sizes.len(), 6);
            (sizes, m)
        })
        .collect()
    }

    /// Every table of a forward sweep over `x`, by node, checking that the
    /// sweep hands them over once each, in ascending mask order.
    fn forward_tables(lattice: &SubsetLattice, x: &[f64]) -> Vec<Option<Vec<f64>>> {
        let mut seen = vec![None; lattice.nodes.len()];
        let mut handed = 0;
        lattice.forward(Cow::Borrowed(x), &mut KronScratch::new(), |kept, t, _| {
            assert_eq!(kept, lattice.nodes[handed].kept, "out of ascending order");
            seen[handed] = Some(t.into_owned());
            handed += 1;
        });
        seen
    }

    #[test]
    fn lattice_forward_tables_are_the_kmatvec_bits() {
        for (sizes, masks) in cases() {
            let lattice = SubsetLattice::new(&sizes, masks.iter().copied());
            let held = |a: &u64| lattice.nodes.iter().any(|n| n.kept == *a);
            assert!(masks.iter().all(held), "{sizes:?}: a mask is missing");
            let cells = sizes.iter().product();
            for x in [awkward(cells), inexact(cells)] {
                for (node, table) in lattice.nodes.iter().zip(forward_tables(&lattice, &x)) {
                    let q = leaves(&sizes, node.kept);
                    let refs: Vec<&StructuredMatrix> = q.iter().collect();
                    let want = kmatvec_structured(&refs, &x);
                    let got = table.expect("every node is handed over");
                    assert_eq!(bits(&got), bits(&want), "{sizes:?}: table {:#x}", node.kept);
                }
            }
        }
    }

    #[test]
    fn lattice_transpose_sweep_is_the_adjoint_of_the_forward_sweep() {
        // Positive values: no cancellation, so 1e-12 relative bounds the
        // rounding of either order of summation.
        let positive = |len: usize, seed: usize| -> Vec<f64> {
            (0..len)
                .map(|i| 1.0 + ((i * 7 + seed * 13) % 11) as f64 / 11.0)
                .collect()
        };
        for (sizes, masks) in cases() {
            let lattice = SubsetLattice::new(&sizes, masks.iter().copied());
            let x = positive(sizes.iter().product(), 0);
            let qx = forward_tables(&lattice, &x);
            let mut scratch = KronScratch::new();
            for (k, (node, qx)) in lattice.nodes.iter().zip(&qx).enumerate() {
                let qx = qx.as_deref().expect("every node is handed over");
                let t = positive(qx.len(), k + 1);
                let back = lattice.transpose([(node.kept, t.clone())], &mut scratch);
                // ⟨Q_a·x, t⟩ = ⟨x, Q_aᵀ·t⟩; and Q_aᵀ·t is the plain product.
                let lhs: f64 = qx.iter().zip(&t).map(|(a, b)| a * b).sum();
                let rhs: f64 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
                let what = format!("{sizes:?}: table {:#x}", node.kept);
                assert!((lhs - rhs).abs() <= 1e-12 * lhs, "{what}: {lhs} vs {rhs}");
                let q = leaves(&sizes, node.kept);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                let want = kmatvec_transpose_structured(&refs, &t);
                let close = back
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| (g - w).abs() <= 1e-12 * w);
                assert!(close, "{what}: Q_aᵀ·t");
                scratch.give(back);
            }
        }
    }

    #[test]
    fn lattice_tables_go_back_after_their_last_reader() {
        // Twelve modes of 2: every table of 512 cells or more is pooled.
        let sizes = [2; 12];
        let full = 0xfff;
        let caps = |s: &KronScratch| {
            let mut caps: Vec<usize> = s.free.iter().map(|(b, _)| b.capacity()).collect();
            caps.sort_unstable();
            caps
        };
        let give_back = |_: u64, t: Cow<[f64]>, s: &mut KronScratch| {
            if let Cow::Owned(t) = t {
                s.give(t);
            }
        };
        let x = awkward(4096);
        // Three children of the full table: each goes back before the next
        // is built, so one buffer serves all three.
        let siblings = SubsetLattice::new(&sizes, [full & !1, full & !2, full & !4]);
        let mut scratch = KronScratch::new();
        siblings.forward(Cow::Borrowed(&x), &mut scratch, give_back);
        assert_eq!(caps(&scratch), [2048]);
        // A chain (full → ¬{1} → ¬{0, 1}) beside a child of the full table:
        // the child (the lowest mask) goes back before the chain is built,
        // whose first table reuses its buffer.
        let chain = SubsetLattice::new(&sizes, [full & !3, full & !4]);
        let mut scratch = KronScratch::new();
        chain.forward(Cow::Borrowed(&x), &mut scratch, give_back);
        assert_eq!(caps(&scratch), [1024, 2048]);
        // Transposed, every child goes back right after its broadcast: the
        // scratch holds all three, and only the full table is out.
        let mut scratch = KronScratch::new();
        let tables = [1, 2, 4].map(|mode| (full & !mode, awkward(2048)));
        let out = siblings.transpose(tables, &mut scratch);
        assert_eq!((caps(&scratch), out.len()), (vec![2048; 3], 4096));
    }

    #[test]
    fn lattice_products_share_tables_with_their_own_chains_bits() {
        // Products over the 30-mode domain: runs of unit Totals that stop
        // early, scaled Totals, Identity steps, and a product with no run.
        let (sizes, masks) = cases().swap_remove(3);
        let x = inexact(sizes.iter().product());
        let owned: Vec<Vec<StructuredMatrix>> = masks
            .iter()
            .enumerate()
            .map(|(p, &a)| {
                let mut q = leaves(&sizes, a);
                let last = q.len() - 1 - p % 3;
                q[last] = q[last].clone().scaled(0.5 + p as f64);
                q
            })
            .collect();
        let products: Vec<Vec<&StructuredMatrix>> =
            owned.iter().map(|q| q.iter().collect()).collect();
        let mut got = vec![None; products.len()];
        kmatvec_shared(&products, &x, &sizes, &mut KronScratch::new(), |p, y, _| {
            assert!(got[p].replace(y).is_none(), "product {p} answered twice");
        });
        for (p, (q, y)) in products.iter().zip(&got).enumerate() {
            let y = y.as_deref().expect("every product is answered");
            assert_eq!(bits(y), bits(&kmatvec_structured(q, &x)), "product {p}");
        }
    }
}
