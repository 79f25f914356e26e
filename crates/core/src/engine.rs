//! Engine abstractions: the contracts an end-to-end private query-answering
//! service implements, plus its typed error domain.
//!
//! The math crates stay policy-free; this module defines the *serving*
//! vocabulary shared between them and `hdmm-engine`:
//!
//! * [`BudgetAccountant`] — tracks ε spend per dataset across sequential
//!   measurements (sequential composition) and rejects overspend;
//! * [`QueryEngine`] — the request lifecycle: plan (cached), spend, measure,
//!   reconstruct, answer;
//! * [`EngineError`] — every way a request can fail, as typed variants.

use hdmm_mechanism::MechanismError;
use hdmm_workload::{Domain, Workload};

/// Opaque identifier of a measurement session within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Typed failures of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request would overspend the dataset's remaining privacy budget.
    BudgetExhausted {
        /// Dataset whose ledger rejected the spend.
        dataset: String,
        /// ε requested by this measurement.
        requested: f64,
        /// ε still available.
        remaining: f64,
    },
    /// The privacy parameter is not a positive finite number.
    InvalidEpsilon {
        /// The offending value.
        eps: f64,
    },
    /// No dataset registered under this name.
    UnknownDataset {
        /// The requested name.
        name: String,
    },
    /// No session with this id (expired or never created).
    UnknownSession {
        /// The requested id.
        id: SessionId,
    },
    /// A workload term weight or leaf entry is NaN or ±∞, so every answer
    /// it touches would be too: refused before any ε is reserved.
    NonFiniteWorkload,
    /// The workload's domain does not match the session/dataset domain.
    DomainMismatch {
        /// Domain the engine holds.
        expected: Domain,
        /// Domain the workload was built over.
        got: Domain,
    },
    /// The registered data vector does not match its domain size.
    DataVectorMismatch {
        /// Cells expected by the domain.
        expected: usize,
        /// Cells provided.
        got: usize,
    },
    /// A dataset name was registered twice.
    DatasetExists {
        /// The duplicated name.
        name: String,
    },
    /// The request would overspend the owning tenant's ε quota, even though
    /// the dataset's own ledger still had room.
    TenantBudgetExceeded {
        /// The tenant whose quota rejected the spend.
        tenant: String,
        /// ε requested by this measurement.
        requested: f64,
        /// ε still available under the tenant quota.
        remaining: f64,
    },
    /// Shared engine state was poisoned by a panicking request and could not
    /// be recovered (also returned when a serving worker dies mid-request).
    StatePoisoned {
        /// Which piece of state, for operators.
        what: String,
    },
    /// A remote shard worker could not be reached — at registration, or
    /// because the engine was built without a remote transport.
    WorkerUnavailable {
        /// The worker address that failed to answer.
        addr: String,
    },
    /// The server's bounded request queue is full — backpressure, retry later.
    QueueFull {
        /// The queue's capacity, for sizing decisions.
        capacity: usize,
    },
    /// The server is shutting down and no longer accepts requests.
    Shutdown,
    /// The durable budget ledger (write-ahead log) failed: recovery found
    /// corrupt state it refuses to serve over, or a journal append on a path
    /// that must be durable (reserve, registration) hit the filesystem.
    WalFailed {
        /// What failed, for operators.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BudgetExhausted { dataset, requested, remaining } => write!(
                f,
                "dataset '{dataset}': requested eps={requested} exceeds remaining budget {remaining}"
            ),
            EngineError::InvalidEpsilon { eps } => {
                write!(f, "privacy parameter must be positive and finite, got {eps}")
            }
            EngineError::UnknownDataset { name } => write!(f, "no dataset named '{name}'"),
            EngineError::UnknownSession { id } => write!(f, "no such {id}"),
            EngineError::NonFiniteWorkload => {
                write!(f, "workload has a non-finite weight or entry")
            }
            EngineError::DomainMismatch { expected, got } => {
                write!(f, "workload domain {got} does not match engine domain {expected}")
            }
            EngineError::DataVectorMismatch { expected, got } => {
                write!(f, "data vector has {got} cells, domain has {expected}")
            }
            EngineError::DatasetExists { name } => {
                write!(f, "dataset '{name}' is already registered")
            }
            EngineError::TenantBudgetExceeded {
                tenant,
                requested,
                remaining,
            } => write!(
                f,
                "tenant '{tenant}': requested eps={requested} exceeds remaining tenant quota {remaining}"
            ),
            EngineError::StatePoisoned { what } => {
                write!(f, "engine state poisoned: {what}")
            }
            EngineError::WorkerUnavailable { addr } => {
                write!(f, "shard worker '{addr}' is unavailable")
            }
            EngineError::QueueFull { capacity } => {
                write!(f, "request queue is full (capacity {capacity}); retry later")
            }
            EngineError::Shutdown => write!(f, "engine server is shutting down"),
            EngineError::WalFailed { detail } => {
                write!(f, "budget WAL failed: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Lifts a mechanism-layer error into the engine's error domain. Budget
/// refusals never come from the mechanism: the engine's reservation is the
/// one budget gate.
impl From<MechanismError> for EngineError {
    fn from(err: MechanismError) -> EngineError {
        match err {
            MechanismError::InvalidEpsilon { eps } => EngineError::InvalidEpsilon { eps },
            MechanismError::DataVectorMismatch { expected, got } => {
                EngineError::DataVectorMismatch { expected, got }
            }
            // A serving layer memoizes per-plan state next to the plan, so
            // this is a broken cache invariant, not a caller mistake.
            MechanismError::PlanMismatch => EngineError::StatePoisoned {
                what: err.to_string(),
            },
        }
    }
}

/// Tracks ε spend for one dataset under sequential composition.
///
/// `Send` because a serving engine moves ledgers across worker threads;
/// mutation stays exclusive (`&mut self`), so no `Sync` bound is needed.
pub trait BudgetAccountant: Send {
    /// The total budget granted at registration.
    fn total_budget(&self) -> f64;

    /// ε consumed so far.
    fn spent(&self) -> f64;

    /// ε still available (never negative).
    fn remaining(&self) -> f64 {
        (self.total_budget() - self.spent()).max(0.0)
    }

    /// Records a spend of `eps`, or rejects it with a typed error. Must be
    /// all-or-nothing: a rejected spend leaves the ledger unchanged.
    fn try_spend(&mut self, eps: f64) -> Result<(), EngineError>;
}

/// Summary of one served request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Private answers to the requested workload, in workload query order.
    pub answers: Vec<f64>,
    /// Session created by this request (for zero-ε follow-ups).
    pub session: SessionId,
    /// ε actually consumed.
    pub eps_spent: f64,
    /// Whether the strategy came from the cache (true) or was optimized now.
    pub cache_hit: bool,
    /// Which optimizer produced the strategy (`opt0`, `kron`, `plus`, …).
    pub operator: &'static str,
    /// Closed-form expected total squared error at the spent ε (Definition 7).
    pub expected_error: f64,
    /// How many leading-axis slabs the dataset is stored in (1 = dense). Only
    /// remote shard workers split a request by slab; in-process serving runs
    /// over the whole vector.
    pub shards: usize,
    /// Trace id of the request (deterministic under the engine seed; 0 when
    /// the serving engine does not trace). Look up the request's span tree
    /// with it — e.g. `Engine::chrome_trace` in `hdmm-engine`.
    pub trace_id: u64,
}

/// The end-to-end request lifecycle of a private query-answering service.
///
/// `Send + Sync` is part of the contract: an engine is shared behind an
/// `Arc` by a pool of serving threads, so every implementation must be safe
/// to call concurrently (the methods take `&self` for the same reason).
pub trait QueryEngine: Send + Sync {
    /// Serves one batched linear-query request against a registered dataset:
    /// select (cache-aware), spend, measure, reconstruct, answer.
    fn serve(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
    ) -> Result<QueryResponse, EngineError>;

    /// Answers a follow-up workload from an existing session at zero ε cost.
    fn serve_from_session(
        &self,
        session: SessionId,
        workload: &Workload,
    ) -> Result<Vec<f64>, EngineError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let err = EngineError::BudgetExhausted {
            dataset: "census".into(),
            requested: 2.0,
            remaining: 0.5,
        };
        let msg = err.to_string();
        assert!(
            msg.contains("census") && msg.contains('2') && msg.contains("0.5"),
            "{msg}"
        );
    }

    #[test]
    fn mechanism_errors_lift_into_the_engine_domain() {
        assert_eq!(
            EngineError::from(MechanismError::DataVectorMismatch {
                expected: 4,
                got: 3
            }),
            EngineError::DataVectorMismatch {
                expected: 4,
                got: 3
            }
        );
        assert_eq!(
            EngineError::from(MechanismError::InvalidEpsilon { eps: -1.0 }),
            EngineError::InvalidEpsilon { eps: -1.0 }
        );
    }

    #[test]
    fn default_remaining_clamps_at_zero() {
        struct Over;
        impl BudgetAccountant for Over {
            fn total_budget(&self) -> f64 {
                1.0
            }
            fn spent(&self) -> f64 {
                2.0
            }
            fn try_spend(&mut self, _eps: f64) -> Result<(), EngineError> {
                unreachable!()
            }
        }
        assert_eq!(Over.remaining(), 0.0);
    }
}
