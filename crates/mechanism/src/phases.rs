//! Per-phase timing hooks for the serving layer.
//!
//! The mechanism pipeline has three observable phases — MEASURE,
//! RECONSTRUCT, answer (Table 1(b); SELECT happens upstream in the planner) —
//! whose relative cost drives serving decisions: the paper's Figure 6 shows
//! SELECT dominating, which is what justifies strategy caching, while the
//! per-request phases here are the floor a cache hit pays. An engine passes a
//! [`PhaseObserver`] to [`crate::MechanismRequest::run`] to feed its latency
//! histograms without this crate depending on any telemetry machinery.

use std::time::Duration;

/// One observable phase of the per-request pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismPhase {
    /// Vector-form Laplace measurement of the strategy queries.
    Measure,
    /// Least-squares reconstruction of the data-vector estimate.
    Reconstruct,
    /// Workload answering from the reconstructed estimate.
    Answer,
}

impl MechanismPhase {
    /// Stable lowercase name (telemetry label).
    pub fn name(self) -> &'static str {
        match self {
            MechanismPhase::Measure => "measure",
            MechanismPhase::Reconstruct => "reconstruct",
            MechanismPhase::Answer => "answer",
        }
    }
}

/// Receives the wall-clock duration of each completed phase.
///
/// Implementations must be cheap and non-blocking — the hook runs on the
/// serving path. `Sync` so one observer (an engine's telemetry registry) can
/// be shared by every worker thread.
pub trait PhaseObserver: Sync {
    /// Called once per phase, immediately after the phase finishes.
    fn phase_complete(&self, phase: MechanismPhase, elapsed: Duration);

    /// Called once per completed *shard task* of a fanned-out phase
    /// ([`crate::LocalKernels`] and friends), with the shard index the task
    /// served — lane 0 alone for a one-slab dataset. Default: ignored, so
    /// plain observers need no changes.
    fn shard_phase_complete(&self, phase: MechanismPhase, shard: usize, elapsed: Duration) {
        let _ = (phase, shard, elapsed);
    }
}

/// Observer that discards timings ([`crate::run_mechanism`] uses it).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PhaseObserver for NoopObserver {
    fn phase_complete(&self, _phase: MechanismPhase, _elapsed: Duration) {}
}
