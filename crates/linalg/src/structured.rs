//! Structured matrix backend: closed-form representations of the
//! highly-regular operators HDMM composes.
//!
//! The building blocks of real workloads and strategies — `Identity`,
//! `Total`, `Prefix`, `AllRange`, `WidthRange`, sparse predicate sets, and
//! Kronecker products of all of these — are far too regular to store
//! densely. A [`StructuredMatrix`] keeps only the pattern parameters (`n`, a
//! scale) or a CSR payload and implements the whole [`LinOp`](crate::LinOp)
//! surface with closed-form fast paths. Its products are not written here:
//! a leaf's `matvec` / `rmatvec` is a one-mode chain through the contraction
//! kernels of `contract.rs`, exactly like a `Kron` of several leaves.
//!
//! | variant      | storage | matvec         | gram           | sensitivity |
//! |--------------|---------|----------------|----------------|-------------|
//! | `Identity`   | O(1)    | O(n)           | O(1) (implicit)| `\|s\|`     |
//! | `Total`      | O(1)    | O(n)           | O(n²) fill     | `\|s\|`     |
//! | `Prefix`     | O(1)    | O(n) cumsum    | O(n²) fill     | `n·\|s\|`   |
//! | `AllRange`   | O(1)    | O(m) via sums  | O(n²) fill     | closed form |
//! | `WidthRange` | O(1)    | O(m·w)         | O(n²) fill     | O(w)        |
//! | `PIdentity`  | O(pn)   | O(pn)          | O(pn²)         | col sums    |
//! | `Woodbury`   | O(pn)   | O(pn)          | via `to_dense` | col sums    |
//! | `Sparse`     | O(nnz)  | O(nnz)         | O(Σnnz_r²)     | col sums    |
//! | `Dense`      | O(mn)   | O(mn)          | O(mn²)         | col sums    |
//! | `Permuted`   | inner+n | inner's        | inner's, moved | inner's     |
//! | `Kron`       | Σ parts | mode products  | per factor     | product     |
//!
//! versus the dense path where a `Prefix` block on a domain of `2^14` costs
//! 2 GiB just to exist and O(n²) flops per product. `PIdentity` is OPT_0's
//! strategy `[I; Θ]·D` (§5.2) and `Woodbury` its inverse Gram in the closed
//! form of Theorem 8, built from it in O(p²n) by [`gram_pinv`]. `Permuted`
//! is a block with its columns shuffled (the paper's Permuted Range): `n`
//! indices on top of the inner block, whose closed forms answer everything
//! with the indices moved. `WidthRange` is the paper's "Width 32 Range" at
//! any width `w`: the `m = n − w + 1` windows of `w` cells, in three words
//! where a CSR block holds `w·m` entries. Every method keeps the bits of
//! that CSR block: its products walk the same `(column, value)` entries in
//! the same order (`contract.rs`), and its Gram, column sums and Gram trace
//! read a table of repeated sums, entry `k` being `k` copies of `scale²` (or
//! of `|scale|`) added in order — what the CSR loops add up entry by entry.
//! [`to_dense`] remains as the escape hatch for algorithms that genuinely
//! need entries (small-n optimizer internals, tests).
//!
//! [`gram_pinv`]: StructuredMatrix::gram_pinv
//!
//! [`to_dense`]: StructuredMatrix::to_dense

use crate::contract::{kmatvec_structured, kmatvec_transpose_structured};
use crate::csr::Csr;
use crate::kron::kron;
use crate::linop::LinOp;
use crate::{LinalgError, Matrix};

/// Density at or below which [`StructuredMatrix::compress`] converts a dense
/// matrix to CSR.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.25;

/// A matrix in the cheapest faithful representation.
#[derive(Debug, Clone, PartialEq)]
pub enum StructuredMatrix {
    /// An arbitrary dense matrix (the escape hatch).
    Dense(Matrix),
    /// A sparse matrix in CSR form.
    Sparse(Csr),
    /// `scale · I_n`.
    Identity {
        /// Domain size `n`.
        n: usize,
        /// Uniform scale.
        scale: f64,
    },
    /// The total query: a single row of `scale` over `n` cells.
    Total {
        /// Domain size `n`.
        n: usize,
        /// Uniform scale.
        scale: f64,
    },
    /// The prefix (CDF) workload: `scale` times the lower-triangular all-ones
    /// `n×n` matrix; row `i` sums cells `0..=i`.
    Prefix {
        /// Domain size `n`.
        n: usize,
        /// Uniform scale.
        scale: f64,
    },
    /// All `n(n+1)/2` interval queries `[i, j]`, rows ordered `(0,0), (0,1),
    /// …, (0,n-1), (1,1), …` — the same order `blocks::all_range` emits.
    AllRange {
        /// Domain size `n`.
        n: usize,
        /// Uniform scale.
        scale: f64,
    },
    /// Every window of `width` consecutive cells: row `r` sums cells
    /// `r..r + width`, for `r` in `0..=n − width` — the rows, in order, of
    /// `blocks::width_range`. Every method assumes `1 ≤ width ≤ n`, which
    /// [`StructuredMatrix::width_range`] checks.
    WidthRange {
        /// Domain size `n`.
        n: usize,
        /// Cells per window.
        width: usize,
        /// Uniform scale.
        scale: f64,
    },
    /// A p-Identity strategy `[diag(diag); block]` of shape `(n+p)×n`: `n`
    /// scaled point queries over `p` dense rows — `A(Θ) = [I; Θ]·D` with
    /// `diag = d` and `block = Θ·D` (Definition 9).
    PIdentity {
        /// The `n` diagonal entries.
        diag: Vec<f64>,
        /// The `p×n` rows below the diagonal.
        block: Matrix,
    },
    /// `diag(diag) − UᵀU`, square `n×n` and symmetric: the inverse Gram of a
    /// [`PIdentity`](StructuredMatrix::PIdentity) by the Woodbury identity.
    Woodbury {
        /// The `n` diagonal entries.
        diag: Vec<f64>,
        /// The `p×n` low-rank factor `U`.
        u: Matrix,
    },
    /// `inner · P`: column `c` of `inner` becomes column `perm[c]`. Every
    /// method assumes `perm` is a bijection on `0..inner.cols()` and `inner`
    /// is neither `Permuted` nor `Kron`, which [`StructuredMatrix::permuted`]
    /// checks.
    Permuted {
        /// The block before its columns move.
        inner: Box<StructuredMatrix>,
        /// Where each column of `inner` goes.
        perm: Vec<usize>,
    },
    /// An implicit Kronecker product of structured factors.
    Kron(Vec<StructuredMatrix>),
}

use StructuredMatrix::*;

impl StructuredMatrix {
    /// An unscaled identity block.
    pub fn identity(n: usize) -> Self {
        Identity { n, scale: 1.0 }
    }

    /// An unscaled total block (`1×n` all ones).
    pub fn total(n: usize) -> Self {
        Total { n, scale: 1.0 }
    }

    /// An unscaled prefix block.
    pub fn prefix(n: usize) -> Self {
        Prefix { n, scale: 1.0 }
    }

    /// An unscaled all-range block.
    pub fn all_range(n: usize) -> Self {
        AllRange { n, scale: 1.0 }
    }

    /// An unscaled width-range block: the `n − width + 1` windows of
    /// `width` cells.
    ///
    /// # Panics
    /// Panics unless `1 ≤ width ≤ n`.
    pub fn width_range(n: usize, width: usize) -> Self {
        assert!(width >= 1 && width <= n, "width must be in [1, n]");
        WidthRange {
            n,
            width,
            scale: 1.0,
        }
    }

    /// `inner · P`, moving column `c` of `inner` to column `perm[c]`.
    ///
    /// # Errors
    /// Refuses a `perm` that is not a bijection on `0..inner.cols()`, and a
    /// `Permuted` or `Kron` inner block (a product's factors are permuted one
    /// by one).
    pub fn permuted(inner: StructuredMatrix, perm: Vec<usize>) -> Result<Self, &'static str> {
        if matches!(inner, Permuted { .. } | Kron(_)) {
            return Err("nested permuted leaf");
        }
        let not_a_permutation = Err("not a permutation of the block's columns");
        // Before `seen` is sized: a decoded closed-form block's `cols()` is
        // the input's to choose, `perm.len()` is bounded by the input.
        if perm.len() != inner.cols() {
            return not_a_permutation;
        }
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            match seen.get_mut(p) {
                Some(seen) if !*seen => *seen = true,
                _ => return not_a_permutation,
            }
        }
        Ok(Permuted {
            inner: Box::new(inner),
            perm,
        })
    }

    /// A Kronecker product of structured factors, flattening nested products.
    ///
    /// # Panics
    /// Panics if `factors` is empty.
    pub fn kron(factors: Vec<StructuredMatrix>) -> Self {
        assert!(!factors.is_empty(), "Kron requires at least one factor");
        let mut flat = Vec::with_capacity(factors.len());
        for f in factors {
            match f {
                Kron(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("one factor")
        } else {
            Kron(flat)
        }
    }

    /// Wraps a dense matrix, converting to CSR when its density is at most
    /// [`SPARSE_DENSITY_THRESHOLD`].
    pub fn compress(m: Matrix) -> Self {
        let s = Csr::from_dense(&m);
        if s.density() <= SPARSE_DENSITY_THRESHOLD {
            Sparse(s)
        } else {
            Dense(m)
        }
    }

    /// Output dimension (number of queries).
    pub fn rows(&self) -> usize {
        match self {
            Dense(m) => m.rows(),
            Sparse(s) => s.rows(),
            Identity { n, .. } | Prefix { n, .. } => *n,
            Total { .. } => 1,
            AllRange { n, .. } => n * (n + 1) / 2,
            WidthRange { n, width, .. } => n - width + 1,
            PIdentity { diag, block } => diag.len() + block.rows(),
            Woodbury { diag, .. } => diag.len(),
            Permuted { inner, .. } => inner.rows(),
            Kron(fs) => fs.iter().map(StructuredMatrix::rows).product(),
        }
    }

    /// Input dimension (domain size).
    pub fn cols(&self) -> usize {
        match self {
            Dense(m) => m.cols(),
            Sparse(s) => s.cols(),
            Identity { n, .. }
            | Total { n, .. }
            | Prefix { n, .. }
            | AllRange { n, .. }
            | WidthRange { n, .. } => *n,
            PIdentity { diag, .. } | Woodbury { diag, .. } => diag.len(),
            Permuted { perm, .. } => perm.len(),
            Kron(fs) => fs.iter().map(StructuredMatrix::cols).product(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Stored values in this representation (the implicit-size accounting of
    /// the paper's Example 6/7): closed-form variants count only their scale.
    pub fn storage_size(&self) -> usize {
        match self {
            Dense(m) => m.rows() * m.cols(),
            Sparse(s) => s.nnz(),
            Identity { .. }
            | Total { .. }
            | Prefix { .. }
            | AllRange { .. }
            | WidthRange { .. } => 1,
            PIdentity { diag, block: low } | Woodbury { diag, u: low } => {
                diag.len() + low.rows() * low.cols()
            }
            Permuted { inner, perm } => inner.storage_size() + perm.len(),
            Kron(fs) => fs.iter().map(StructuredMatrix::storage_size).sum(),
        }
    }

    /// `A·x`: the one-mode chain of [`kmatvec_structured`], so every
    /// variant runs its closed-form kernel of `contract.rs`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        kmatvec_structured(&[self], x)
    }

    /// `Aᵀ·y`: the one-mode chain of [`kmatvec_transpose_structured`].
    ///
    /// # Panics
    /// Panics if `y.len() != self.rows()`.
    pub fn rmatvec(&self, y: &[f64]) -> Vec<f64> {
        kmatvec_transpose_structured(&[self], y)
    }

    /// The Gram matrix `AᵀA` as a dense `n×n` block, computed from closed
    /// forms without materializing the queries (the §5.2 "WᵀW can be computed
    /// directly" observation). `Kron` expands the explicit product of its
    /// factor Grams — call it only when `Π nᵢ` is small.
    pub fn gram_dense(&self) -> Matrix {
        match self {
            Dense(m) => m.gram(),
            Sparse(s) => s.gram(),
            Identity { n, scale } => Matrix::from_diag(&vec![scale * scale; *n]),
            Total { n, scale } => Matrix::filled(*n, *n, scale * scale),
            Prefix { n, scale } => {
                let s2 = scale * scale;
                Matrix::from_fn(*n, *n, |i, j| s2 * (*n - i.max(j)) as f64)
            }
            AllRange { n, scale } => {
                let s2 = scale * scale;
                Matrix::from_fn(*n, *n, |i, j| {
                    s2 * ((i.min(j) + 1) * (*n - i.max(j))) as f64
                })
            }
            // `Csr::gram` adds `scale·scale` once per window holding both
            // cells, in row order.
            WidthRange { n, width, scale } => {
                let sums = repeated_sums(scale * scale, *width);
                Matrix::from_fn(*n, *n, |i, j| sums[windows_holding(*n, *width, i, j)])
            }
            PIdentity { diag, block } => {
                let mut g = block.gram();
                for (j, d) in diag.iter().enumerate() {
                    g[(j, j)] += d * d;
                }
                g
            }
            Woodbury { .. } => self.to_dense().gram(),
            // G'[perm[i], perm[j]] = G[i, j].
            Permuted { inner, perm } => {
                let g = inner.gram_dense();
                let mut out = Matrix::zeros(g.rows(), g.cols());
                for (i, &pi) in perm.iter().enumerate() {
                    let dst = out.row_mut(pi);
                    for (&v, &pj) in g.row(i).iter().zip(perm) {
                        dst[pj] = v;
                    }
                }
                out
            }
            Kron(fs) => {
                let mut acc = Matrix::identity(1);
                for f in fs {
                    acc = kron(&acc, &f.gram_dense());
                }
                acc
            }
        }
    }

    /// `(AᵀA)⁺` as a structured matrix, for RECONSTRUCT's per-factor inverse
    /// Grams: closed forms keep `Identity` O(1), `Prefix` tridiagonal and
    /// `PIdentity` a [`Woodbury`](StructuredMatrix::Woodbury) leaf; only
    /// `Dense`, `Sparse`, `AllRange`, `WidthRange` and `Woodbury` go through
    /// the dense spectral pseudo-inverse, as does `Permuted`.
    ///
    /// # Errors
    /// [`try_inverse_gram`](crate::try_inverse_gram)'s, from a dense
    /// inverse whose Jacobi fallback fails (a Gram with a NaN entry).
    pub fn try_gram_pinv(&self) -> Result<StructuredMatrix, LinalgError> {
        Ok(match self {
            Identity { n, scale } => Identity {
                n: *n,
                scale: 1.0 / (scale * scale),
            },
            Prefix { n, scale } => {
                // (PᵀP)⁻¹ = P⁻¹P⁻ᵀ/s² = DDᵀ/s²: tridiagonal with 2 on the
                // diagonal (1 in the first row) and −1 off-diagonal.
                let s2 = 1.0 / (scale * scale);
                let n = *n;
                let mut indptr = Vec::with_capacity(n + 1);
                let mut indices = Vec::new();
                let mut data = Vec::new();
                indptr.push(0);
                for i in 0..n {
                    if i > 0 {
                        indices.push(i - 1);
                        data.push(-s2);
                    }
                    indices.push(i);
                    data.push(if i == 0 { s2 } else { 2.0 * s2 });
                    if i + 1 < n {
                        indices.push(i + 1);
                        data.push(-s2);
                    }
                    indptr.push(indices.len());
                }
                Sparse(Csr::new(n, n, indptr, indices, data))
            }
            Total { n, scale } => {
                // (TᵀT)⁺ = 𝟙/(n²s²): the pseudo-inverse of the rank-1 Gram.
                Dense(Matrix::filled(
                    *n,
                    *n,
                    1.0 / (*n as f64 * *n as f64 * scale * scale),
                ))
            }
            PIdentity { diag, block } => match woodbury_inverse_gram(diag, block) {
                Some(woodbury) => woodbury,
                None => self.dense_gram_pinv()?,
            },
            Kron(fs) => Kron(
                fs.iter()
                    .map(StructuredMatrix::try_gram_pinv)
                    .collect::<Result<_, _>>()?,
            ),
            other => other.dense_gram_pinv()?,
        })
    }

    /// [`StructuredMatrix::try_gram_pinv`] for factors whose Gram is finite
    /// by construction.
    ///
    /// # Panics
    /// Panics where `try_gram_pinv` fails.
    pub fn gram_pinv(&self) -> StructuredMatrix {
        self.try_gram_pinv()
            .expect("factor gram eigendecomposition")
    }

    /// `(AᵀA)⁺` from the dense Gram ([`try_inverse_gram`](crate::try_inverse_gram)).
    fn dense_gram_pinv(&self) -> Result<StructuredMatrix, LinalgError> {
        crate::try_inverse_gram(&self.gram_dense()).map(Dense)
    }

    /// Per-column sums of absolute values, in closed form where possible.
    pub fn abs_col_sums(&self) -> Vec<f64> {
        match self {
            Dense(m) => m.abs_col_sums(),
            Sparse(s) => s.abs_col_sums(),
            Identity { n, scale } | Total { n, scale } => vec![scale.abs(); *n],
            Prefix { n, scale } => (0..*n).map(|c| scale.abs() * (*n - c) as f64).collect(),
            AllRange { n, scale } => (0..*n)
                .map(|c| scale.abs() * ((c + 1) * (*n - c)) as f64)
                .collect(),
            // `Csr::abs_col_sums` adds `|scale|` once per window over the
            // column, in row order.
            WidthRange { n, width, scale } => {
                let sums = repeated_sums(scale.abs(), *width);
                (0..*n)
                    .map(|c| sums[windows_holding(*n, *width, c, c)])
                    .collect()
            }
            // From the stored entries, in row order (the dense matrix's
            // bits): never assumed to be 1, so noise is never under-scaled.
            PIdentity { diag, block } => {
                let mut sums: Vec<f64> = diag.iter().map(|d| d.abs()).collect();
                for k in 0..block.rows() {
                    for (s, v) in sums.iter_mut().zip(block.row(k)) {
                        *s += v.abs();
                    }
                }
                sums
            }
            Woodbury { .. } => self.to_dense().abs_col_sums(),
            Permuted { inner, perm } => {
                let sums = inner.abs_col_sums();
                let mut out = vec![0.0; sums.len()];
                for (&v, &p) in sums.iter().zip(perm) {
                    out[p] = v;
                }
                out
            }
            Kron(fs) => {
                let mut acc = vec![1.0];
                for f in fs {
                    acc = crate::kron::kron_vec(&acc, &f.abs_col_sums());
                }
                acc
            }
        }
    }

    /// The L1 operator norm `‖A‖₁` (the query-set sensitivity, Definition 6),
    /// in O(1)–O(n) for closed-form variants.
    pub fn sensitivity(&self) -> f64 {
        match self {
            Dense(m) => m.norm_l1_operator(),
            Sparse(s) => s.norm_l1_operator(),
            Identity { scale, .. } | Total { scale, .. } => scale.abs(),
            Prefix { n, scale } => scale.abs() * *n as f64,
            // Column c is covered by (c+1)(n−c) ranges; the maximum is at the
            // middle of the domain.
            AllRange { n, scale } => {
                let c = (*n - 1) / 2;
                scale.abs() * ((c + 1) * (*n - c)) as f64
            }
            // The largest column sum is the one over the most windows,
            // `min(width, n − width + 1)` of them: a sum of positive terms
            // never falls as terms are added.
            WidthRange { n, width, scale } => {
                repeated_sum(scale.abs(), (*width).min(n - width + 1))
            }
            PIdentity { .. } | Woodbury { .. } => {
                self.abs_col_sums().into_iter().fold(0.0, f64::max)
            }
            Permuted { inner, .. } => inner.sensitivity(),
            Kron(fs) => fs.iter().map(StructuredMatrix::sensitivity).product(),
        }
    }

    /// Trace of the Gram `tr(AᵀA) = ‖A‖²_F`, in closed form.
    pub fn gram_trace(&self) -> f64 {
        match self {
            Dense(m) => m.frobenius_norm_sq(),
            Sparse(s) => s.frobenius_norm_sq(),
            Identity { n, scale } | Total { n, scale } => scale * scale * *n as f64,
            // Σ_i (n − i) = n(n+1)/2.
            Prefix { n, scale } => scale * scale * (*n * (*n + 1) / 2) as f64,
            // Σ_i (i+1)(n−i).
            AllRange { n, scale } => {
                scale * scale * (0..*n).map(|i| ((i + 1) * (*n - i)) as f64).sum::<f64>()
            }
            // `Csr::frobenius_norm_sq`: `scale·scale` once per stored entry,
            // in order.
            WidthRange { n, width, scale } => repeated_sum(scale * scale, width * (n - width + 1)),
            PIdentity { diag, block } => {
                diag.iter().map(|d| d * d).sum::<f64>() + block.frobenius_norm_sq()
            }
            Woodbury { .. } => self.to_dense().frobenius_norm_sq(),
            Permuted { inner, .. } => inner.gram_trace(),
            Kron(fs) => fs.iter().map(StructuredMatrix::gram_trace).product(),
        }
    }

    /// A scaled copy `alpha · A`, staying in the same representation (except
    /// `Woodbury`, which goes `Dense`).
    pub fn scaled(&self, alpha: f64) -> StructuredMatrix {
        match self {
            Dense(m) => Dense(m.scaled(alpha)),
            Sparse(s) => Sparse(s.scaled(alpha)),
            Identity { n, scale } => Identity {
                n: *n,
                scale: scale * alpha,
            },
            Total { n, scale } => Total {
                n: *n,
                scale: scale * alpha,
            },
            Prefix { n, scale } => Prefix {
                n: *n,
                scale: scale * alpha,
            },
            AllRange { n, scale } => AllRange {
                n: *n,
                scale: scale * alpha,
            },
            WidthRange { n, width, scale } => WidthRange {
                n: *n,
                width: *width,
                scale: scale * alpha,
            },
            PIdentity { diag, block } => PIdentity {
                diag: diag.iter().map(|d| d * alpha).collect(),
                block: block.scaled(alpha),
            },
            // An inverse Gram, never a strategy: nothing scales one.
            Woodbury { .. } => Dense(self.to_dense().scaled(alpha)),
            Permuted { inner, perm } => Permuted {
                inner: Box::new(inner.scaled(alpha)),
                perm: perm.clone(),
            },
            Kron(fs) => {
                // Fold the scalar into the first factor only.
                let mut fs = fs.clone();
                fs[0] = fs[0].scaled(alpha);
                Kron(fs)
            }
        }
    }

    /// A sensitivity-1 copy (`A / ‖A‖₁`).
    pub fn normalized(&self) -> StructuredMatrix {
        let s = self.sensitivity();
        if s == 0.0 || s == 1.0 {
            return self.clone();
        }
        self.scaled(1.0 / s)
    }

    /// Materializes the dense equivalent — the escape hatch for entry-wise
    /// algorithms. Quadratic (or worse) in the domain; avoid on hot paths.
    pub fn to_dense(&self) -> Matrix {
        match self {
            Dense(m) => m.clone(),
            Sparse(s) => s.to_dense(),
            Identity { n, scale } => Matrix::from_diag(&vec![*scale; *n]),
            Total { n, scale } => Matrix::filled(1, *n, *scale),
            Prefix { n, scale } => {
                Matrix::from_fn(*n, *n, |r, c| if c <= r { *scale } else { 0.0 })
            }
            AllRange { n, scale } => {
                let mut out = Matrix::zeros(n * (n + 1) / 2, *n);
                let mut row = 0;
                for i in 0..*n {
                    for j in i..*n {
                        for c in i..=j {
                            out[(row, c)] = *scale;
                        }
                        row += 1;
                    }
                }
                out
            }
            WidthRange { n, width, scale } => Matrix::from_fn(n - width + 1, *n, |r, c| {
                if (r..r + width).contains(&c) {
                    *scale
                } else {
                    0.0
                }
            }),
            PIdentity { diag, block } => {
                let n = diag.len();
                let mut a = Matrix::zeros(n + block.rows(), n);
                for (j, &d) in diag.iter().enumerate() {
                    a[(j, j)] = d;
                }
                for k in 0..block.rows() {
                    a.row_mut(n + k).copy_from_slice(block.row(k));
                }
                a
            }
            Woodbury { diag, u } => Matrix::from_diag(diag).sub(&u.t_matmul(u)),
            Permuted { inner, perm } => {
                let w = inner.to_dense();
                let mut out = Matrix::zeros(w.rows(), w.cols());
                for r in 0..w.rows() {
                    let dst = out.row_mut(r);
                    for (&v, &p) in w.row(r).iter().zip(perm) {
                        dst[p] = v;
                    }
                }
                out
            }
            Kron(fs) => {
                let mut acc = Matrix::identity(1);
                for f in fs {
                    acc = kron(&acc, &f.to_dense());
                }
                acc
            }
        }
    }

    /// True when every row is a point query or the total query — the §7.1
    /// `p = 1` convention's predicate test, answered without materializing
    /// (strategy-only variants excepted).
    pub fn is_total_or_identity(&self) -> bool {
        match self {
            Identity { scale, .. } | Total { scale, .. } => *scale == 1.0,
            // Up to n = 2 every row is a point query or the total query.
            Prefix { n, scale } | AllRange { n, scale } => *n <= 2 && *scale == 1.0,
            // One-cell windows are point queries, an `n`-cell one the total.
            WidthRange { n, width, scale } => (*width == 1 || width == n) && *scale == 1.0,
            Dense(m) => dense_is_total_or_identity(m),
            Sparse(s) => s.rows_are_total_or_identity(),
            PIdentity { .. } | Woodbury { .. } => dense_is_total_or_identity(&self.to_dense()),
            // Moving columns keeps a point query a point query.
            Permuted { inner, .. } => inner.is_total_or_identity(),
            Kron(_) => false,
        }
    }

    /// True when every stored entry and scale is finite: the check a
    /// workload's leaves pass before they are served and a decoded leaf
    /// passes before it is trusted.
    pub fn is_finite(&self) -> bool {
        match self {
            Dense(m) => all_finite(m.as_slice()),
            Sparse(s) => all_finite(s.values()),
            Identity { scale, .. }
            | Total { scale, .. }
            | Prefix { scale, .. }
            | AllRange { scale, .. }
            | WidthRange { scale, .. } => scale.is_finite(),
            PIdentity { diag, block: low } | Woodbury { diag, u: low } => {
                all_finite(diag) && all_finite(low.as_slice())
            }
            Permuted { inner, .. } => inner.is_finite(),
            Kron(fs) => fs.iter().all(StructuredMatrix::is_finite),
        }
    }
}

/// `[0, v, v + v, …]`: entry `k` is `k` copies of `v` added in order, from
/// `0.0` — the bits of a CSR loop that adds `v` into a zeroed slot once per
/// stored entry it meets, for every count up to `most`.
fn repeated_sums(v: f64, most: usize) -> Vec<f64> {
    let mut sums = Vec::with_capacity(most + 1);
    let mut acc = 0.0;
    sums.push(acc);
    for _ in 0..most {
        acc += v;
        sums.push(acc);
    }
    sums
}

/// Entry `count` of [`repeated_sums`], without the table.
fn repeated_sum(v: f64, count: usize) -> f64 {
    (0..count).fold(0.0, |acc, _| acc + v)
}

/// How many of the `n − width + 1` windows of `width` cells hold both cells
/// `i` and `j`: the window starts `s` with `s ≤ min(i, j)`,
/// `s + width > max(i, j)` and `s ≤ n − width`.
fn windows_holding(n: usize, width: usize, i: usize, j: usize) -> usize {
    let (lo, hi) = (i.min(j), i.max(j));
    let first = (hi + 1).saturating_sub(width);
    let last = lo.min(n - width);
    (last + 1).saturating_sub(first)
}

/// True when every entry is finite (neither NaN nor ±∞).
pub fn all_finite(entries: &[f64]) -> bool {
    entries.iter().all(|v| v.is_finite())
}

/// `(D² + BᵀB)⁻¹` for the p-Identity `[D; B]` by the Woodbury identity
/// (Theorem 8), as `diag(E) − UᵀU` with `E = D⁻²`, `LLᵀ = I_p + (B·E)·Bᵀ`
/// and `U = L⁻¹·B·E`: O(p²n) to build and O(pn) per vector to apply. `None`
/// only when the `p×p` factorization fails, which it cannot for a finite
/// nonzero `D` (`I_p + BEBᵀ` is SPD by construction).
fn woodbury_inverse_gram(diag: &[f64], block: &Matrix) -> Option<StructuredMatrix> {
    let e: Vec<f64> = diag.iter().map(|d| 1.0 / (d * d)).collect();
    let mut u = block.clone();
    for k in 0..u.rows() {
        for (v, &ej) in u.row_mut(k).iter_mut().zip(&e) {
            *v *= ej;
        }
    }
    let mut inner = u.matmul_t(block);
    for k in 0..inner.rows() {
        inner[(k, k)] += 1.0;
    }
    crate::Cholesky::new(&inner)
        .ok()?
        .solve_lower_rows_in_place(&mut u);
    Some(Woodbury { diag: e, u })
}

fn dense_is_total_or_identity(w: &Matrix) -> bool {
    (0..w.rows()).all(|r| {
        let row = w.row(r);
        let ones = row.iter().filter(|&&v| v == 1.0).count();
        let zeros = row.iter().filter(|&&v| v == 0.0).count();
        ones + zeros == row.len() && (ones == 1 || ones == row.len())
    })
}

impl From<Matrix> for StructuredMatrix {
    fn from(m: Matrix) -> Self {
        Dense(m)
    }
}

impl From<Csr> for StructuredMatrix {
    fn from(s: Csr) -> Self {
        Sparse(s)
    }
}

impl LinOp for StructuredMatrix {
    fn rows(&self) -> usize {
        StructuredMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        StructuredMatrix::cols(self)
    }
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        StructuredMatrix::matvec(self, x)
    }
    fn rmatvec(&self, y: &[f64]) -> Vec<f64> {
        StructuredMatrix::rmatvec(self, y)
    }
}

/// Flattens nested `Kron` factors into their leaves, in order.
pub(crate) fn flatten<'a>(factors: &[&'a StructuredMatrix]) -> Vec<&'a StructuredMatrix> {
    let mut flat = Vec::with_capacity(factors.len());
    for &f in factors {
        match f {
            Kron(inner) => flat.extend(flatten(&inner.iter().collect::<Vec<_>>())),
            leaf => flat.push(leaf),
        }
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kron::kron_all;

    /// OPT_0's strategy `[I; Θ]·D` for a non-negative `Θ`, with the column
    /// scales `d_j = 1/(1 + Σ_k Θ_kj)`.
    fn p_identity(theta: Matrix) -> StructuredMatrix {
        let diag: Vec<f64> = (0..theta.cols())
            .map(|j| 1.0 / (1.0 + (0..theta.rows()).map(|k| theta[(k, j)]).sum::<f64>()))
            .collect();
        let mut block = theta;
        for (j, &d) in diag.iter().enumerate() {
            block.scale_col(j, d);
        }
        PIdentity { diag, block }
    }

    fn variants(n: usize) -> Vec<StructuredMatrix> {
        let dense = Matrix::from_fn(3, n, |r, c| ((r * n + c) % 5) as f64 - 2.0);
        let pident = p_identity(Matrix::from_fn(3, n, |r, c| ((r * n + c) % 4) as f64 * 0.5));
        vec![
            StructuredMatrix::identity(n).scaled(1.5),
            StructuredMatrix::total(n).scaled(0.5),
            StructuredMatrix::prefix(n).scaled(2.0),
            StructuredMatrix::all_range(n),
            StructuredMatrix::width_range(n, 3).scaled(0.3),
            Sparse(Csr::from_dense(&dense)),
            Dense(dense),
            pident.gram_pinv(),
            pident,
        ]
    }

    fn vec_of(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 3) % 11) as f64 - 5.0)
            .collect()
    }

    #[test]
    fn matvec_rmatvec_match_dense() {
        for v in variants(6) {
            let d = v.to_dense();
            let x = vec_of(v.cols(), 7);
            let y = vec_of(v.rows(), 13);
            let fast = v.matvec(&x);
            let slow = d.matvec(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-10, "{v:?}: {a} vs {b}");
            }
            let fast_t = v.rmatvec(&y);
            let slow_t = d.t_matvec(&y);
            for (a, b) in fast_t.iter().zip(&slow_t) {
                assert!((a - b).abs() < 1e-10, "{v:?}ᵀ: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gram_sensitivity_trace_match_dense() {
        for v in variants(5) {
            let d = v.to_dense();
            assert!(v.gram_dense().approx_eq(&d.gram(), 1e-10), "{v:?}");
            assert!(
                (v.sensitivity() - d.norm_l1_operator()).abs() < 1e-10,
                "{v:?}"
            );
            assert!(
                (v.gram_trace() - d.frobenius_norm_sq()).abs() < 1e-10,
                "{v:?}"
            );
            let cs = v.abs_col_sums();
            for (a, b) in cs.iter().zip(&d.abs_col_sums()) {
                assert!((a - b).abs() < 1e-10, "{v:?}");
            }
        }
    }

    #[test]
    fn kron_composite_matches_explicit() {
        let k = StructuredMatrix::kron(vec![
            StructuredMatrix::prefix(3),
            StructuredMatrix::total(4),
            StructuredMatrix::identity(2).scaled(0.5),
        ]);
        let dense_factors = [
            StructuredMatrix::prefix(3).to_dense(),
            StructuredMatrix::total(4).to_dense(),
            StructuredMatrix::identity(2).scaled(0.5).to_dense(),
        ];
        let explicit = kron_all(&dense_factors.iter().collect::<Vec<_>>());
        assert_eq!(k.shape(), explicit.shape());
        let x = vec_of(k.cols(), 3);
        let y = vec_of(k.rows(), 5);
        for (a, b) in k.matvec(&x).iter().zip(&explicit.matvec(&x)) {
            assert!((a - b).abs() < 1e-10);
        }
        for (a, b) in k.rmatvec(&y).iter().zip(&explicit.t_matvec(&y)) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((k.sensitivity() - explicit.norm_l1_operator()).abs() < 1e-10);
        assert!(k.gram_dense().approx_eq(&explicit.gram(), 1e-10));
    }

    #[test]
    fn nested_kron_flattens() {
        let k = StructuredMatrix::kron(vec![
            StructuredMatrix::kron(vec![
                StructuredMatrix::identity(2),
                StructuredMatrix::total(3),
            ]),
            StructuredMatrix::prefix(2),
        ]);
        match &k {
            Kron(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flattened Kron, got {other:?}"),
        }
    }

    /// Every closed form is a Moore–Penrose inverse of the Gram; a
    /// p-Identity's is the Woodbury leaf, and that is the dense Cholesky
    /// inverse it replaces to 1e-9 in relative Frobenius norm, up to column
    /// scales `1 + Σ_k Θ_kj` of 1e2 (where its `E − UᵀU` cancels hardest).
    /// A Gram whose Cholesky fails (a zero pivot) and whose Jacobi fallback
    /// cannot converge (a NaN entry) is a typed error, never a panic —
    /// through a dense leaf, a Kron leaf and a p-Identity whose Woodbury
    /// form is refused first.
    #[test]
    fn try_gram_pinv_types_a_failed_fallback() {
        let singular_nan = Dense(Matrix::from_rows(&[&[0.0, f64::NAN]]));
        let kron =
            StructuredMatrix::kron(vec![StructuredMatrix::identity(2), singular_nan.clone()]);
        for leaf in [&singular_nan, &kron] {
            assert!(
                matches!(leaf.try_gram_pinv(), Err(LinalgError::NonFinite)),
                "{leaf:?}"
            );
        }
        let fine = StructuredMatrix::prefix(4).try_gram_pinv().unwrap();
        assert_eq!(fine, StructuredMatrix::prefix(4).gram_pinv());
    }

    #[test]
    fn gram_pinv_closed_forms() {
        // Θ entries up to `theta_max` over p = 4 rows: column scales ≤ 1e2.
        let p_identities = [0.5, 5.0, 24.75].map(|theta_max| {
            p_identity(Matrix::from_fn(4, 24, |r, c| {
                ((r * 7 + c * 3) % 11) as f64 * theta_max / 10.0
            }))
        });
        for v in [
            StructuredMatrix::identity(4).scaled(0.5),
            StructuredMatrix::prefix(5).scaled(0.2),
            StructuredMatrix::total(3).scaled(2.0),
            StructuredMatrix::all_range(4),
        ]
        .into_iter()
        .chain(p_identities)
        {
            let closed = v.gram_pinv();
            let pinv = closed.to_dense();
            let gram = v.gram_dense();
            // Moore–Penrose on the (symmetric PSD) Gram: G·G⁺·G = G.
            let ggg = gram.matmul(&pinv).matmul(&gram);
            assert!(ggg.approx_eq(&gram, 1e-8), "{v:?}");
            if let PIdentity { diag, .. } = &v {
                assert!(diag.iter().all(|d| 1.0 / d <= 1e2));
                assert!(matches!(closed, Woodbury { .. }), "{closed:?}");
                assert_eq!(closed.storage_size(), 24 + 4 * 24);
                let dense = crate::Cholesky::new(&gram).unwrap().inverse();
                let gap = pinv.sub(&dense).frobenius_norm() / dense.frobenius_norm();
                assert!(gap <= 1e-9, "{diag:?}: relative gap {gap:e}");
            }
        }
    }

    #[test]
    fn compress_picks_sparse_for_sparse_inputs() {
        assert!(matches!(
            StructuredMatrix::compress(Matrix::identity(16)),
            Sparse(_)
        ));
        assert!(matches!(
            StructuredMatrix::compress(Matrix::ones(4, 4)),
            Dense(_)
        ));
    }

    #[test]
    fn normalized_has_unit_sensitivity() {
        for v in variants(7) {
            let n = v.normalized();
            assert!((n.sensitivity() - 1.0).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn total_or_identity_closed_forms_match_their_dense_rows() {
        for n in 1..=4 {
            for scale in [1.0, 2.0] {
                let closed = [
                    StructuredMatrix::identity(n),
                    StructuredMatrix::total(n),
                    StructuredMatrix::prefix(n),
                    StructuredMatrix::all_range(n),
                ];
                let windows = (1..=n).map(|w| StructuredMatrix::width_range(n, w));
                for block in closed.into_iter().chain(windows) {
                    let block = block.scaled(scale);
                    let reversed = (0..n).rev().collect();
                    let moved = StructuredMatrix::permuted(block.clone(), reversed).unwrap();
                    for a in [block, moved] {
                        assert_eq!(
                            a.is_total_or_identity(),
                            dense_is_total_or_identity(&a.to_dense()),
                            "{a:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn storage_size_is_constant_for_closed_forms() {
        assert_eq!(StructuredMatrix::prefix(1 << 14).storage_size(), 1);
        assert_eq!(StructuredMatrix::all_range(1 << 14).storage_size(), 1);
        assert_eq!(StructuredMatrix::width_range(1 << 14, 32).storage_size(), 1);
        assert_eq!(
            StructuredMatrix::kron(vec![
                StructuredMatrix::prefix(8),
                StructuredMatrix::identity(8),
            ])
            .storage_size(),
            2
        );
    }
}
