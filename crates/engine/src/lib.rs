//! # hdmm-engine — an end-to-end private query-answering engine
//!
//! The math crates reproduce HDMM's phases (SELECT / MEASURE / RECONSTRUCT,
//! Table 1(b) of McKenna et al., PVLDB 2018) as pure functions. This crate
//! owns the *request lifecycle* around them, the way a serving system would:
//!
//! * **Strategy cache** — SELECT is a pure function of the workload and the
//!   dominant per-request cost (Fig. 6), so plans are memoized under a
//!   canonical [`hdmm_core::WorkloadFingerprint`]; repeated workloads skip
//!   re-optimization entirely.
//! * **Privacy-budget accountant** — every dataset registers with a total ε;
//!   sequential measurements accumulate spend, and over-budget requests fail
//!   with a typed [`EngineError::BudgetExhausted`] before any noise is drawn.
//!   The whole transition — reserve before MEASURE, commit once noise was
//!   drawn, refund on any other exit, deny — is one `Reservation` object
//!   (`reservation.rs`), the only code that moves ε or appends a budget
//!   record to the ledger log.
//! * **A·x once per (dataset, plan)** — a registered data vector never
//!   changes, so MEASURE's unscaled blocks `A_p·x` are computed by the
//!   first request on a (dataset, plan) pair and copied by every later one,
//!   which only scales them and draws fresh noise: the same answer bits, no
//!   remote task. The cache is bounded in bytes and never leaves memory.
//! * **Measure-once / answer-many sessions** — each served request yields a
//!   [`Session`] holding the reconstructed estimate `x̄`; follow-up workloads
//!   over the same domain are answered from `x̄` at **zero** additional ε
//!   (post-processing).
//! * **Planner** — workload structure picks the optimizer the paper's
//!   decision rules prescribe (`OPT_0` for 1-D, `OPT_M` for marginals,
//!   `OPT_+` for structured unions, `OPT_⊗` otherwise), instead of running
//!   all of Algorithm 2 per request.
//! * **Concurrent serving core** — one `serve` takes, in order: the registry
//!   read lock, the strategy-cache read lock, its dataset's RNG mutex, its
//!   dataset (and tenant) ledger mutexes, the ledger log's mutex, the
//!   measure cache's mutex and the session store's write lock —
//!   each briefly, never two at once, and none across MEASURE/RECONSTRUCT. Concurrent misses on one
//!   fingerprint share the cache's one in-flight SELECT (a shared
//!   `Arc<Plan>` for everyone); and [`EngineServer`] fronts the engine with
//!   a bounded queue and a pool of std worker threads.
//! * **Telemetry** — lock-free per-phase latency histograms
//!   (select/measure/reconstruct/answer) and serving counters, exported in
//!   one call via [`Engine::metrics`], whose `Display` is the Prometheus
//!   page. Every layer reports to one [`hdmm_obs::Observer`]: the request's
//!   tracer feeds the histograms and the span tree from the same events.
//! * **Remote shard fan-out** — with [`EngineOptions::remote`] configured,
//!   sharded datasets MEASURE over a pool of `hdmm-shard-worker` processes
//!   ([`hdmm_net`]), RECONSTRUCT on the coordinator: per-task timeouts, bounded retry with backoff,
//!   shard reassignment to surviving workers, per-worker health in
//!   [`Engine::metrics`] — and byte-identical answers to local serving, even
//!   through the local fallback taken when the whole pool is down.
//! * **Observability** — every request carries a deterministic
//!   [`TraceContext`]; queue wait, SELECT, each mechanism phase, per-shard
//!   tasks, and remote RPC attempts (plus worker-side spans shipped back
//!   over the wire) assemble into one span tree per query, retained in a
//!   bounded [`SpanCollector`] and exportable as Chrome `trace_event` JSON
//!   via [`Engine::chrome_trace`]. [`render_prometheus`] renders
//!   [`Engine::metrics`] in Prometheus text format (also served over HTTP
//!   by [`MetricsExporter`] and the `hdmm-metrics-exporter` binary), and
//!   [`Engine::audit`] streams the ledger log's records — every ε
//!   reserve/commit/refund/deny, trace-correlated, and every registration
//!   and quota change.
//! * **One ledger log** — every budget transition and administrative record
//!   is one append to [`Wal`], whose last records are the audit stream.
//!   With [`EngineOptions::wal_dir`] set it is a checksummed write-ahead log
//!   ([`wal`]): commits are fsynced before the answer is released, ledger
//!   state is snapshotted with log truncation, and [`Engine::open`] replays
//!   snapshot + log (tolerating a torn final record) so spent ε survives
//!   crashes — the on-disk format and recovery protocol are specified in
//!   `docs/DURABILITY.md`.
//!
//! ## Quickstart
//!
//! ```
//! use hdmm_core::{builders, Domain, EngineError, QueryEngine};
//! use hdmm_engine::Engine;
//!
//! let engine = Engine::with_seed(7);
//!
//! // Register a dataset: domain, histogram, and a total privacy budget.
//! let domain = Domain::one_dim(16);
//! engine.register_dataset("toy", domain, vec![10.0; 16], /*total ε=*/ 1.0)?;
//!
//! // Serve a workload. SELECT runs once (cache miss), MEASURE spends ε.
//! let workload = builders::prefix_1d(16);
//! let first = engine.serve("toy", &workload, 0.5)?;
//! assert!(!first.cache_hit);
//!
//! // The same workload again: the strategy comes from the cache.
//! let again = engine.serve("toy", &workload, 0.5)?;
//! assert!(again.cache_hit);
//!
//! // Follow-up workloads on the session cost nothing.
//! let ranges = builders::all_range_1d(16);
//! let free = engine.serve_from_session(again.session, &ranges)?;
//! assert_eq!(free.len(), ranges.query_count());
//!
//! // The budget is now exhausted: further measurement is refused, typed.
//! match engine.serve("toy", &workload, 0.1) {
//!     Err(EngineError::BudgetExhausted { remaining, .. }) => assert!(remaining < 1e-9),
//!     other => panic!("expected BudgetExhausted, got {other:?}"),
//! }
//! # Ok::<(), hdmm_core::EngineError>(())
//! ```
//!
//! ## Layering
//!
//! Inside the crate, `engine.rs` is construction, `plan`, `serve` and the
//! read-only accessors; what it serves over lives in one module per concern:
//! `reservation.rs` (ε transitions), `registry.rs` (datasets, tenants,
//! recovered spend), `session.rs` ([`Session`] and the bounded store),
//! `accountant.rs` (the two ledgers), `cache.rs` / `persist.rs` (plans),
//! `measure_cache.rs` (MEASURE's exact blocks per dataset and plan), [`wal`]
//! (the durable ledger).
//!
//! `hdmm-engine` sits above [`hdmm_core`] (planner API, engine traits) and
//! below any transport. It adds no new privacy analysis: privacy follows
//! from the Laplace mechanism's guarantee per measurement, sequential
//! composition across measurements (the accountant), and post-processing for
//! everything served from a session.

mod accountant;
mod cache;
mod engine;
mod exporter;
mod measure_cache;
mod persist;
mod prometheus;
mod registry;
mod reservation;
mod server;
mod session;
mod sync;
mod telemetry;
mod tracing;
pub mod wal;

pub use accountant::{EpsAccountant, TenantLedger};
pub use cache::CacheStats;
pub use engine::{Engine, EngineOptions};
pub use exporter::MetricsExporter;
pub use measure_cache::MeasureCacheStats;
pub use persist::PlanStore;
pub use prometheus::render_prometheus;
pub use registry::DatasetConfig;
pub use server::{EngineServer, ServerOptions, Ticket};
pub use session::Session;
pub use telemetry::{
    DatasetMetrics, EngineMetrics, ObsMetrics, PhaseHistogram, PhaseSnapshot, Telemetry,
    TelemetrySnapshot, TenantMetrics,
};
pub use wal::{AuditKind, AuditTail, Wal, WalError, WalMetrics, WalRecord};

pub use hdmm_core::{BudgetAccountant, EngineError, QueryEngine, QueryResponse, SessionId};
pub use hdmm_net::{PoolHealth, RemoteOptions, RetryPolicy, WorkerHealth};
pub use hdmm_obs::{chrome_trace, Span, SpanCollector, TraceContext};
