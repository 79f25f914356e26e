//! Strategies, measurement, reconstruction, and error accounting for HDMM.
//!
//! This crate implements the MEASURE and RECONSTRUCT phases of Table 1(b) of
//! the paper, plus the closed-form expected-error arithmetic (Definition 7)
//! that both strategy selection and the evaluation harness rely on:
//!
//! * [`Strategy`] — implicit strategy representations (explicit blocks,
//!   Kronecker products, unions of products, weighted marginals) with
//!   sensitivity per Theorem 3;
//! * [`marginals`] — the `C(a)/G(v)/X(u)` subset algebra of §6.3 and
//!   Appendix A.4, including the linear-system pseudo-inverse;
//! * [`error`] — `‖WA⁺‖²_F` for every strategy form, decomposed per
//!   Theorems 5/6 so only per-attribute blocks are touched;
//! * [`laplace`] — the vector-form Laplace mechanism (Definition 6);
//! * [`pipeline`] — the one request pipeline, validate → MEASURE →
//!   RECONSTRUCT → ANSWER ([`MechanismRequest::run`]), written once over the
//!   [`Kernels`] seam that says only *where* each Kronecker product runs:
//!   the plain reference kernels ([`PlainKernels`], behind [`measure`] /
//!   [`reconstruct_with`] / [`run_mechanism`]), the in-process slab fan-out
//!   ([`LocalKernels`] in [`sharded`]), or `hdmm-net`'s RPC fan-out. Every
//!   phase and shard task is reported to one [`hdmm_obs::Observer`].

pub mod error;
pub mod laplace;
pub mod marginals;
mod mechanism;
pub mod pipeline;
pub mod sharded;
mod strategy;

pub use marginals::{MarginalsAlgebra, MarginalsStrategy};
pub use mechanism::MeasuredBlock;
pub use mechanism::{
    answer_many_from_parts, answer_workload, measure, reconstruct_with, run_mechanism,
    Measurements, MechanismResult, PreparedReconstruct,
};
pub use pipeline::{
    measure_on, reconstruct_on, Kernels, MechanismError, MechanismRequest, PipelineError,
    PlainKernels, PlanShape,
};
pub use sharded::{
    answer_sharded, explicit_forward_sharded, kron_forward_from_parts, kron_forward_sharded,
    kron_transpose_from_parts, kron_transpose_sharded, DataSlab, LocalKernels, ScopedExecutor,
    ShardedView,
};
pub use strategy::{Strategy, UnionGroup};
