//! The one observer trait every layer reports through.
//!
//! HDMM is one fixed pipeline — Algorithm 2's restart grid for SELECT, then
//! MEASURE / RECONSTRUCT / ANSWER (Table 1(b)) — so one trait carries every
//! timed event of it, from the numeric crates up to the engine: the
//! optimizer reports its grid and each restart cell, the mechanism each
//! phase and each shard task, `hdmm-net` each RPC attempt as a span. Every
//! method is a no-op by default, so an implementation names only the events
//! it consumes, and `()` is the observer that consumes none.

use crate::trace::{Span, TraceContext};
use std::time::{Duration, Instant};

/// One observable phase of the per-request pipeline (Table 1(b); SELECT is
/// reported through [`Observer::grid_planned`] and
/// [`Observer::restart_complete`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Vector-form Laplace measurement of the strategy queries.
    Measure,
    /// Least-squares reconstruction of the data-vector estimate.
    Reconstruct,
    /// Workload answering from the reconstructed estimate.
    Answer,
}

impl Phase {
    /// Stable lowercase name (histogram label, span name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Measure => "measure",
            Phase::Reconstruct => "reconstruct",
            Phase::Answer => "answer",
        }
    }
}

/// Receives the pipeline's events. Implementations must be cheap and
/// non-blocking — every method runs on the serving path — and `Sync`, since
/// restart cells and shard tasks complete concurrently on executor threads,
/// in completion order.
pub trait Observer: Sync {
    /// A phase finished, once per phase, immediately after it completes.
    fn phase_complete(&self, _phase: Phase, _elapsed: Duration) {}

    /// One shard task of a fanned-out phase finished, with the shard index
    /// it served.
    fn shard_phase_complete(&self, _phase: Phase, _shard: usize, _elapsed: Duration) {}

    /// SELECT's restart grid holds `total_cells` cells; called once, before
    /// any cell runs.
    fn grid_planned(&self, _total_cells: usize) {}

    /// One `(restart, operator)` cell finished with the given candidate loss
    /// (`f64::INFINITY` when it produced no valid candidate). The selection
    /// is folded in grid order after every cell finished, so the winner
    /// cannot be read off the callback order.
    fn restart_complete(
        &self,
        _operator: &'static str,
        _restart: usize,
        _loss: f64,
        _took: Duration,
    ) {
    }

    /// The trace to propagate (over the wire, into child spans); `None`
    /// disables tracing, and callers then skip span construction entirely.
    fn context(&self) -> Option<TraceContext> {
        None
    }

    /// A fresh span id, unique within the current trace.
    fn next_span_id(&self) -> u64 {
        0
    }

    /// The span id children created during `phase` parent under; `None`
    /// parents them under the context's span.
    fn parent_for(&self, _phase: Phase) -> Option<u64> {
        None
    }

    /// An instant as span-clock nanoseconds.
    fn rel_ns(&self, _at: Instant) -> u64 {
        0
    }

    /// Records one completed span.
    fn record(&self, _span: Span) {}
}

/// The observer that discards every event.
impl Observer for () {}
