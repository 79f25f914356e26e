//! Strategies, measurement, reconstruction, and error accounting for HDMM.
//!
//! This crate implements the MEASURE and RECONSTRUCT phases of Table 1(b) of
//! the paper, plus the closed-form expected-error arithmetic (Definition 7)
//! that both strategy selection and the evaluation harness rely on:
//!
//! * [`Strategy`] — implicit strategy representations (explicit blocks,
//!   Kronecker products, unions of products, weighted marginals) with
//!   sensitivity per Theorem 3, each measured as a list of
//!   [`MeasuredProduct`]s (an explicit matrix as a one-leaf product);
//! * [`marginals`] — the `C(a)/G(v)/X(u)` subset algebra of §6.3 and
//!   Appendix A.4, including the linear-system pseudo-inverse;
//! * [`error`] — `‖WA⁺‖²_F` for every strategy form, decomposed per
//!   Theorems 5/6 so only per-attribute blocks are touched;
//! * [`laplace`] — the vector-form Laplace mechanism (Definition 6);
//! * [`pipeline`] — the one request pipeline, validate → MEASURE →
//!   RECONSTRUCT → ANSWER ([`MechanismRequest::run`]), written once over a
//!   plan's [`PreparedReconstruct`] — its measured products and its family's
//!   solve — and the [`Kernels`] seam that says only *where* MEASURE's
//!   Kronecker products run: the plain reference kernels ([`PlainKernels`],
//!   behind [`measure`] / [`run_mechanism`]) or `hdmm-net`'s RPC fan-out
//!   over the slabs of an `hdmm_core::ShardedDataVector`. RECONSTRUCT runs
//!   on the coordinator, which holds the noisy answers. Every phase and
//!   remote shard task is reported to one [`hdmm_obs::Observer`];
//! * [`ScopedExecutor`] — the scoped-thread lanes the SELECT restart grid
//!   and session batches fan out on.

pub mod error;
mod executor;
mod joint;
pub mod laplace;
pub mod marginals;
mod mechanism;
pub mod pipeline;
mod strategy;

pub use executor::ScopedExecutor;
pub use joint::JointBasis;
pub use marginals::{MarginalsAlgebra, MarginalsStrategy};
pub use mechanism::MeasuredBlock;
pub use mechanism::{
    answer_many_from_parts, answer_workload, measure, reconstruct_with, run_mechanism,
    Measurements, MechanismResult, PooledScratch, PreparedReconstruct, ScratchPool,
};
pub use pipeline::{
    exact_blocks, measure_on, reconstruct_on, Kernels, MechanismError, MechanismRequest,
    PipelineError, PlainKernels,
};
pub use strategy::{MeasuredProduct, Strategy, UnionGroup};
