//! Linear algebra substrate for the HDMM reproduction.
//!
//! The paper's Python implementation leans on numpy/scipy; this crate provides
//! the equivalents built from scratch: a row-major dense [`Matrix`], the
//! Cholesky factorization, a cyclic Jacobi symmetric eigendecomposition,
//! Moore–Penrose pseudo-inverses, the LSMR iterative least-squares solver on a
//! matrix-free [`LinOp`], and Kronecker products — explicit ([`kron_all`], the
//! test oracle) and the implicit one of Appendix A.5 over structured factors
//! ([`kmatvec_structured`]).
//!
//! # The structured backend
//!
//! On top of the dense substrate sits the [`StructuredMatrix`] backend: an
//! enum over `Dense`, `Sparse` ([`Csr`]), closed-form `Identity`, `Total`,
//! `Prefix`, `AllRange`, `WidthRange`, `Permuted` and `Kron` variants, and
//! the diagonal-plus-low-rank
//! `PIdentity` (OPT_0's strategy) and `Woodbury` (its inverse Gram). HDMM's
//! per-attribute building blocks are exactly these shapes, so workloads and
//! strategies carry O(1) pattern descriptors (O(pn) for p-Identity) instead
//! of O(n²) entry tables:
//!
//! * `matvec`/`rmatvec` run in O(n) for `Identity`/`Total`/`Prefix` (a
//!   cumulative sum) and O(output) for `AllRange` (prefix sums plus a
//!   difference-array adjoint) — versus O(m·n) dense;
//! * `gram_dense` fills the `n×n` Gram from the §5.2 closed forms without
//!   ever materializing the `m×n` query matrix (for `AllRange`, m = n(n+1)/2);
//! * `sensitivity` (the L1 operator norm of Definition 6) is O(1)–O(n);
//! * [`kmatvec_structured`] dispatches each mode contraction of Algorithm 1
//!   to the factor's fast kernel, so MEASURE/RECONSTRUCT over large attribute
//!   domains allocate nothing quadratic — one kernel per direction
//!   ([`contract_rows`], [`contract_transpose_rows`]) and one chain driver
//!   serve the full product, the scratch variants and the sharded steps;
//! * [`StructuredMatrix::to_dense`] is the escape hatch for entry-wise
//!   algorithms (small-n optimizer internals, tests).
//!
//! Everything is `f64`. The *dense* matrices involved in HDMM strategy
//! selection are per-attribute blocks (n ≤ a few thousand), where a
//! straightforward implementation with cache-aware loop ordering is the right
//! tool; the structured variants are what make serving-scale domains
//! (n = 2¹⁴ and beyond) affordable.

mod cholesky;
mod contract;
mod csr;
mod eigen;
mod kron;
mod lattice;
mod linop;
mod lsmr;
mod matrix;
mod pinv;
pub mod simd;
mod slab;
mod structured;

pub use cholesky::Cholesky;
pub use contract::{
    contract_rows, contract_transpose_rows, kmatvec_structured, kmatvec_structured_scratch,
    kmatvec_transpose_structured, kmatvec_transpose_structured_scratch, KronScratch,
};
pub use csr::Csr;
pub use eigen::SymEigen;
pub use kron::{kron, kron_all, kron_vec};
pub use lattice::{kmatvec_shared, SubsetLattice};
pub use linop::{LinOp, ScaledOp, StackedOp};
pub use lsmr::{lsmr, LsmrOptions, LsmrResult};
pub use matrix::Matrix;
pub use pinv::{
    inverse_gram, joint_diagonalize, pinv, pinv_psd, try_inverse_gram, JointEigen, RCOND,
};
pub use slab::{
    kmatvec_trailing_slab, leading_split, matvec_rows, partition_rows, slab_split, LeadingSplit,
};
pub use structured::{all_finite, StructuredMatrix, SPARSE_DENSITY_THRESHOLD};

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix was expected to be square.
    NotSquare { rows: usize, cols: usize },
    /// Dimension mismatch between operands.
    DimensionMismatch(String),
    /// Matrix is singular (or not positive definite for Cholesky).
    Singular,
    /// An iterative method failed to converge.
    NoConvergence { iterations: usize },
    /// The input holds a NaN or ±∞ entry.
    NonFinite,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::Singular => write!(f, "matrix is singular or not positive definite"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinalgError::NonFinite => write!(f, "matrix has a non-finite entry"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
