//! Distributed shard fan-out for the HDMM serving engine.
//!
//! This crate runs the slab-split Kronecker products of §7.2 on remote shard
//! workers, over the slabs of an [`hdmm_core::ShardedDataVector`]:
//!
//! * [`wire`] — a length-prefixed, checksummed frame codec for shard-task
//!   RPCs, one frame layout built on the same [`hdmm_core::codec`]
//!   primitives as the plan store on disk;
//! * [`worker`] — the shard worker: a TCP server owning pushed data slabs
//!   and evaluating pure kernels over them with the factors each task
//!   carries (also shipped as the `hdmm-shard-worker` binary);
//! * [`client`] — the coordinator's [`WorkerPool`]: task routing with
//!   per-task timeouts, bounded retry with backoff, shard reassignment to
//!   surviving workers, and per-worker health counters;
//! * [`remote`] — [`RpcKernels`], the kernel implementation that runs the
//!   one mechanism pipeline's slab tasks on the pool, bitwise identical to
//!   the plain single-node kernels for every worker count.
//!
//! The design keeps workers stateless in the failure sense: the coordinator
//! holds the authoritative data, slabs are pushed (and re-pushed) on demand,
//! each task carries its factors, and tasks are pure and idempotent — which is what makes at-least-once
//! retry and reassignment safe without any distributed coordination.

pub mod client;
pub mod remote;
pub mod wire;
pub mod worker;

pub use client::{PoolHealth, RetryPolicy, WorkerHealth, WorkerPool};
pub use remote::{RemoteOptions, RpcKernels};
pub use wire::{
    decode_frame, encode_frame, read_frame, slab_load_into, write_frame, ErrorCode, Frame,
    NetError, SlabLoad, TraceExt, WireSpan, MAX_FRAME_BYTES, PROTO_V2, WIRE_PREFIX,
};
pub use worker::{spawn_worker, WorkerHandle, WorkerOptions};
