//! The engine: construction, `plan`, `serve`, and the read-only accessors.
//!
//! One request is one pass through [`Engine::serve_resolved`]: SELECT
//! (cache-aware, single-flight — pure, no data, no budget), one
//! [`Reservation`] taken before any noise is drawn, the mechanism pipeline
//! run lock-free over the dataset's vector, `commit()` once the pipeline
//! returned `Ok`, and a [`Session`] for zero-ε follow-ups. Everything that
//! moves ε lives in [`crate::reservation`]; what is registered lives in
//! [`crate::registry`]; sessions live in [`crate::session`].
//!
//! ## Concurrency architecture
//!
//! One `serve` takes these locks, in order, each for one short critical
//! section and never two at once:
//!
//! 1. the **registry** read lock, to clone the dataset's handle;
//! 2. the **strategy cache** read lock, for the plan and again for its
//!    memoized factorization. A miss takes the write lock once to join or
//!    lead the fingerprint's one SELECT, which runs outside every lock;
//! 3. the **dataset RNG** mutex, to draw the request's seed;
//! 4. the **dataset ledger** mutex, then the **tenant ledger** mutex when a
//!    tenant owns the dataset — on Reserve;
//! 5. the **ledger log** mutex ([`Wal`]), once per ε transition (Reserve,
//!    Commit), which also writes the record when a durable ledger is set;
//! 6. the **measure cache** mutex ([`MeasureCache`]), to get the request's
//!    exact blocks at the start of MEASURE and, on a miss, to insert them
//!    once computed, before any noise is drawn (so before the Commit's 5);
//! 7. the **session store** write lock, to insert the request's session.
//!
//! MEASURE/RECONSTRUCT/ANSWER hold no lock. Around them the request pops a
//! scratch off the **scratch pool** mutex and pushes it back (as does every
//! session-batch task), and a session that leaves the store hands its
//! estimate to the pool under the same mutex. A traced request adds the span
//! collector's mutex once, at the end. Datasets never contend on 3 and 4;
//! every request shares 1, 2, 5, 6, 7 and the pool.
//!
//! ## Memory
//!
//! Each in-flight request answers in one [`KronScratch`](hdmm_linalg::KronScratch)
//! of the pool ([`ScratchPool`]): MEASURE's tables and noisy blocks,
//! RECONSTRUCT's sweeps and `x̄`, ANSWER's tables and chain buffers are
//! taken from it and given back, so a warm request writes to pages the last
//! one faulted in. The pool holds at most as many scratches as requests ran
//! at once, each at most its last request's working set, and a session's
//! `x̄` goes back to the pool when the last [`Arc`] of the session is
//! dropped by the store (close or eviction) — never while a caller still
//! holds it.
//!
//! MEASURE is blocks then noise, and its exact blocks `A_p·x` are a value
//! of the (dataset, plan) pair: the first request on the pair computes them
//! — over the workers, or locally when the pool is gone — and the
//! [`MeasureCache`] keeps an exact-length copy. Every request then copies
//! the blocks into its scratch and only scales them and draws noise — the
//! same bits, and, once cached, no marginal table over `x` and no RPC task.
//! The cache holds one `f64` per strategy query per cached pair, at most
//! `MEASURE_CACHE_BYTES` (64 MiB) in all, evicting least recently used
//! pairs; a plan whose blocks exceed the bound alone has them computed on
//! every request. Its blocks are exact answers over private data, held like
//! `x` itself: in memory only, never in the plan store, the WAL, a worker or
//! a log.
//!
//! Lock poisoning is recovered rather than propagated: every critical
//! section leaves its state consistent (single map operations, validated
//! single-field ledger updates), so a panicking request cannot wedge the
//! engine — see [`crate::sync`].

use crate::cache::{FlightProgress, Lookup, StrategyCache, MEASURE_CACHE_BYTES, PLAN_CAPACITY};
use crate::measure_cache::MeasureCache;
use crate::persist::PlanStore;
use crate::registry::{DatasetConfig, DatasetState, Registry};
use crate::reservation::Reservation;
use crate::session::{Session, SessionStore};
use crate::sync::lock_recover;
use crate::telemetry::{EngineMetrics, ObsMetrics, Telemetry};
use crate::tracing::{RequestTracer, TRACE_CAPACITY};
use crate::wal::{AuditTail, Wal, SNAPSHOT_EVERY};
use hdmm_core::{
    Domain, EngineError, HdmmOptions, Plan, QueryEngine, QueryResponse, SessionId, Workload,
    WorkloadFingerprint,
};
use hdmm_linalg::KronScratch;
use hdmm_mechanism::{
    exact_blocks, MechanismError, MechanismRequest, PlainKernels, ScopedExecutor, ScratchPool,
};
use hdmm_net::{RemoteOptions, RpcKernels, WorkerPool};
use hdmm_obs::{Observer, Phase, Span, SpanCollector, TraceContext};
use hdmm_optimizer::select_optimizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Optimizer options (restarts, seeds, p overrides) used by SELECT.
    pub hdmm: HdmmOptions,
    /// Maximum number of retained sessions; the oldest is dropped when full
    /// (each session holds a domain-sized estimate, so this bounds memory).
    pub session_capacity: usize,
    /// Master seed: each dataset derives its own RNG stream from this seed
    /// and its name, so answers are deterministic per (seed, dataset,
    /// per-dataset request order) regardless of thread interleaving across
    /// datasets.
    pub seed: u64,
    /// Directory for the persistent strategy cache. `None` disables spill;
    /// with a directory set, plans survive restarts: the store is probed
    /// lazily on each in-memory cache miss and written back after each
    /// fresh SELECT (best-effort — I/O failures never fail a request).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Remote shard fan-out. With a transport configured, sharded datasets
    /// MEASURE over the worker pool and RECONSTRUCT on the coordinator
    /// (answers stay byte-identical to local serving); dense datasets and a
    /// fully failed pool serve locally. `None` keeps everything in-process, on the plain kernels.
    pub remote: Option<RemoteOptions>,
    /// Requests slower than this flush their span tree to the collector
    /// eagerly (even when unsampled) and count in
    /// [`crate::TelemetrySnapshot::slow_queries`]. `None` disables the
    /// slow-query log.
    pub slow_query_threshold: Option<Duration>,
    /// Trace-sampling stride: every `trace_sample`-th request flushes its
    /// span tree to the collector (1 = every request, 0 = only slow ones).
    /// Phase events always reach the latency histograms regardless.
    pub trace_sample: u64,
    /// Directory for the durable ε-ledger ([`crate::wal`]). `None` keeps the
    /// ledgers, and the ledger log whose tail [`Engine::audit`] reads, in
    /// memory only. With a directory set, every budget transition
    /// is journaled (commits fsynced before the answer is released), the
    /// ledger state is snapshotted periodically, and [`Engine::open`] replays
    /// snapshot + log to reconstruct exact spent-budget state after a crash —
    /// see `docs/DURABILITY.md`.
    pub wal_dir: Option<std::path::PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            hdmm: HdmmOptions::default(),
            session_capacity: 1024,
            seed: 0,
            cache_dir: None,
            remote: None,
            slow_query_threshold: None,
            trace_sample: 1,
            wal_dir: None,
        }
    }
}

/// An end-to-end private query-answering engine.
///
/// Owns registered datasets (each with its own ε ledger and seeded RNG
/// stream, so measurements on different datasets proceed concurrently and
/// deterministically), a strategy cache keyed by canonical workload
/// fingerprints that runs at most one SELECT per fingerprint, a bounded
/// store of the sessions produced by completed measurements, and a
/// lock-free telemetry registry. Shareable across threads behind an `Arc`;
/// every method takes `&self`.
pub struct Engine {
    options: EngineOptions,
    cache: StrategyCache,
    plan_store: Option<PlanStore>,
    registry: Registry,
    sessions: SessionStore,
    telemetry: Telemetry,
    /// The lanes session batches fan out on (the machine's parallelism).
    batch_exec: ScopedExecutor,
    /// The request scratches between requests (see "Memory" above).
    scratches: ScratchPool,
    /// MEASURE's exact blocks per (dataset, plan) (see "Memory" above).
    measure_cache: MeasureCache,
    remote: Option<WorkerPool>,
    next_session: AtomicU64,
    collector: SpanCollector,
    /// Per-request trace counter; trace ids derive from `(seed, counter)`.
    next_trace: AtomicU64,
    /// The one ledger log: durable when [`EngineOptions::wal_dir`] is set,
    /// memory-only otherwise; its tail is the ε-audit stream.
    log: Wal,
}

/// SELECT's events as one in-flight optimization sees them: the grid size
/// and every finished restart cell move the flight's progress (`done/total`,
/// read by concurrent callers through [`Engine::select_progress`]) and reach
/// `request` — the request's tracer, or the engine's telemetry — unchanged.
/// SELECT reports nothing else.
struct Flight<'a, 'f> {
    request: &'a dyn Observer,
    progress: &'f FlightProgress<'f>,
}

impl Observer for Flight<'_, '_> {
    fn grid_planned(&self, total_cells: usize) {
        self.progress.set_total(total_cells as u64);
        self.request.grid_planned(total_cells);
    }

    fn restart_complete(&self, operator: &'static str, restart: usize, loss: f64, took: Duration) {
        self.progress.tick();
        self.request.restart_complete(operator, restart, loss, took);
    }
}

impl Engine {
    /// An engine with explicit options.
    ///
    /// # Panics
    /// Panics if [`EngineOptions::wal_dir`] is set and WAL recovery fails
    /// (corrupt snapshot, unreadable directory). Use [`Engine::open`] to
    /// handle recovery failure as a typed error instead.
    pub fn new(options: EngineOptions) -> Self {
        let wal_dir = options.wal_dir.clone();
        Engine::open(options).unwrap_or_else(|e| {
            let dir = wal_dir
                .map(|d| format!(" in {}", d.display()))
                .unwrap_or_default();
            panic!(
                "WAL recovery failed{dir}: {e}; restore the directory from backup \
                 or move it aside (losing budget history), or call Engine::open \
                 to handle this as a typed error"
            )
        })
    }

    /// An engine with explicit options, running durable-ledger recovery when
    /// [`EngineOptions::wal_dir`] is set: the ε spent before the crash (or
    /// clean shutdown) is reconstructed from snapshot + log *before* the
    /// engine serves its first query. Recovered tenant quotas are live
    /// immediately; recovered dataset ledgers re-attach when a dataset is
    /// re-registered under the same name (see `docs/DURABILITY.md` §6).
    ///
    /// Fails with [`EngineError::WalFailed`] when the durable state is
    /// corrupt beyond the tolerated torn tail — serving anyway could
    /// under-count spent ε, so the engine refuses to start.
    pub fn open(options: EngineOptions) -> Result<Self, EngineError> {
        let log = match &options.wal_dir {
            Some(dir) => Wal::open(dir.clone(), SNAPSHOT_EVERY)?,
            None => Wal::in_memory(),
        };
        let telemetry = Telemetry::default();
        telemetry.set_select_threads(ScopedExecutor::new(options.hdmm.threads).threads() as u64);
        Ok(Engine {
            cache: StrategyCache::new(PLAN_CAPACITY),
            plan_store: options.cache_dir.clone().map(PlanStore::new),
            registry: Registry::new(options.seed, log.recovered()),
            sessions: SessionStore::new(options.session_capacity),
            telemetry,
            batch_exec: ScopedExecutor::new(0),
            scratches: ScratchPool::default(),
            measure_cache: MeasureCache::new(MEASURE_CACHE_BYTES),
            remote: options.remote.as_ref().map(RemoteOptions::connect),
            collector: SpanCollector::new(TRACE_CAPACITY),
            options,
            next_session: AtomicU64::new(1),
            next_trace: AtomicU64::new(0),
            log,
        })
    }

    /// An engine with default options and the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        Engine::new(EngineOptions {
            seed,
            ..Default::default()
        })
    }

    /// Registers a dataset: its domain, data vector (cell counts in row-major
    /// order), and total ε budget, stored densely. The engine holds the only
    /// reference the serving path ever takes to raw data.
    pub fn register_dataset(
        &self,
        name: impl Into<String>,
        domain: Domain,
        x: Vec<f64>,
        total_eps: f64,
    ) -> Result<(), EngineError> {
        self.register_dataset_with(name, domain, x, DatasetConfig::new(total_eps))
    }

    /// Registers a dataset partitioned into `shards` leading-axis slabs —
    /// the unit remote shard workers hold ([`EngineOptions::remote`]); the
    /// engine keeps one contiguous vector either way and serves it locally
    /// with the plain kernels. Sharding is purely a placement decision:
    /// answers are byte-identical to a dense registration with the same name
    /// and seed, for every `shards ≥ 1` (including non-divisible leading
    /// axes).
    pub fn register_dataset_sharded(
        &self,
        name: impl Into<String>,
        domain: Domain,
        x: Vec<f64>,
        shards: usize,
        total_eps: f64,
    ) -> Result<(), EngineError> {
        self.register_dataset_with(
            name,
            domain,
            x,
            DatasetConfig::new(total_eps).with_shards(shards),
        )
    }

    /// Full-control registration: shard count and tenant ownership.
    pub fn register_dataset_with(
        &self,
        name: impl Into<String>,
        domain: Domain,
        x: Vec<f64>,
        config: DatasetConfig,
    ) -> Result<(), EngineError> {
        self.registry
            .register(name.into(), domain, x, config, &self.log)
    }

    /// Registers one more shard worker at runtime; subsequent sharded
    /// requests may route tasks (and reassigned shards) to it. Fails with
    /// [`EngineError::WorkerUnavailable`] when the worker does not answer a
    /// ping — or when the engine was built without a remote transport.
    pub fn connect_worker(&self, addr: &str) -> Result<(), EngineError> {
        let Some(remote) = &self.remote else {
            return Err(EngineError::WorkerUnavailable {
                addr: addr.to_string(),
            });
        };
        remote
            .add_worker(addr)
            .map_err(|_| EngineError::WorkerUnavailable {
                addr: addr.to_string(),
            })
    }

    /// Sets (or updates) a tenant's ε quota: the sum of spends across all of
    /// the tenant's datasets may not exceed `eps_cap`. Lowering the cap
    /// below spend blocks further measurement until it is raised.
    pub fn set_tenant_quota(&self, tenant: &str, eps_cap: f64) -> Result<(), EngineError> {
        self.registry.set_tenant_quota(tenant, eps_cap, &self.log)
    }

    /// Spent ε recovered from the durable ledger for a dataset that has not
    /// been re-registered since the restart. Returns `None` once the dataset
    /// re-attaches (its live ledger then carries the spend) or when nothing
    /// was recovered under the name.
    pub fn recovered_spent(&self, dataset: &str) -> Option<f64> {
        self.registry.recovered_spent(dataset)
    }

    /// Forces a durable-ledger snapshot now (serialize ledger state, fsync,
    /// truncate the log) instead of waiting for the next automatic one.
    /// No-op without a WAL.
    pub fn snapshot_wal(&self) -> Result<(), EngineError> {
        self.log.snapshot_now().map_err(EngineError::from)
    }

    /// (cap, spent, remaining) ε for a tenant's quota.
    pub fn tenant_budget(&self, tenant: &str) -> Option<(f64, f64, f64)> {
        self.registry.tenant_budget(tenant)
    }

    /// Returns the optimized plan for `workload`, consulting the strategy
    /// cache first. The boolean is `true` on a cache hit. Selection is pure —
    /// no data, no budget — so this is safe to call speculatively (e.g. to
    /// pre-warm the cache before traffic arrives).
    ///
    /// Concurrent misses on the same fingerprint are deduplicated: one caller
    /// runs SELECT while the others wait and share the resulting plan
    /// (counted in [`crate::TelemetrySnapshot::dedup_waits`]).
    pub fn plan(&self, workload: &Workload) -> (Arc<Plan>, bool) {
        let fingerprint = workload.fingerprint();
        self.plan_keyed(&fingerprint, workload, &self.telemetry)
    }

    /// Live progress of an in-flight SELECT for `workload`, as
    /// `(restarts_done, restarts_total)` — the leader publishes a tick per
    /// completed restart cell. `None` when no SELECT for this workload is in
    /// flight (including after it lands in the cache); `Some((0, 0))` while
    /// a flight exists but its restart grid has not been planned yet. Lets a
    /// dashboard distinguish "optimizer 7/12 done" from a silent block.
    pub fn select_progress(&self, workload: &Workload) -> Option<(u64, u64)> {
        self.cache.progress(&workload.fingerprint())
    }

    /// [`Engine::plan`] with the fingerprint supplied by the caller, so the
    /// serving path hashes the workload once, and with the observer a SELECT
    /// reports its restart cells to.
    fn plan_keyed(
        &self,
        fingerprint: &WorkloadFingerprint,
        workload: &Workload,
        observer: &dyn Observer,
    ) -> (Arc<Plan>, bool) {
        // SELECT can take seconds while cached requests keep flowing: the
        // cache runs it outside every lock, once per fingerprint.
        let mut freshly_optimized = false;
        let (plan, lookup) = self.cache.get_or_select(fingerprint, |flight| {
            // Lazy reload from the persistent store: a plan optimized before
            // a restart is exactly as good now (selection is a pure function
            // of the workload), so a disk hit skips SELECT entirely.
            if let Some(store) = &self.plan_store {
                if let Some(plan) = store.load(fingerprint, workload) {
                    self.telemetry.record_plan_disk_hit();
                    return Arc::new(plan);
                }
            }
            let _inflight = self.telemetry.select_started();
            let t = Instant::now();
            let observer = Flight {
                request: observer,
                progress: flight,
            };
            let opts = &self.options.hdmm;
            let choice = select_optimizer(workload, opts).choice;
            let plan = Arc::new(Plan::select(workload, opts, choice, &observer));
            self.telemetry.record_select(t.elapsed());
            freshly_optimized = true;
            plan
        });
        match lookup {
            Lookup::Hit => return (plan, true),
            Lookup::Joined => self.telemetry.record_dedup_wait(),
            Lookup::Led => {}
        }
        // Spill *after* the flight completes: the plan is already published
        // to the memory cache and the flight's waiters, so the disk write
        // (best-effort, fsync included) never sits on the serving path of
        // anyone but this leader's tail.
        if freshly_optimized {
            if let Some(store) = &self.plan_store {
                store.store(fingerprint, &plan, workload.domain());
            }
        }
        (plan, false)
    }

    /// The planner decision for a workload, without running the optimization
    /// (`EXPLAIN` for the SELECT phase).
    pub fn explain(&self, workload: &Workload) -> hdmm_optimizer::PlanDecision {
        select_optimizer(workload, &self.options.hdmm)
    }

    /// Looks up a session produced by a previous [`QueryEngine::serve`] call.
    pub fn session(&self, id: SessionId) -> Result<Arc<Session>, EngineError> {
        self.sessions
            .get(id)
            .ok_or(EngineError::UnknownSession { id })
    }

    /// Answers a batch of follow-up workloads from a stored session in one
    /// call — the serving-layer face of [`Session::answer_batch`]. The
    /// workloads fan out over one lane per available core, each as an
    /// independent `W·x̄` task with its own scratch buffers, so a dashboard
    /// refiring `k` follow-ups pays one reconstruction (already done at
    /// session creation) and `k` answer passes that overlap. Zero
    /// additional ε; entry `i` is bitwise identical to answering
    /// `workloads[i]` through the session individually, at any lane count.
    /// The whole batch is recorded as one answer-phase observation.
    pub fn serve_batch_from_session(
        &self,
        id: SessionId,
        workloads: &[&Workload],
    ) -> Result<Vec<Vec<f64>>, EngineError> {
        let session = self.session(id)?;
        let t = Instant::now();
        let out = session.answer_batch(workloads, &self.batch_exec, &self.scratches)?;
        self.telemetry.phase_complete(Phase::Answer, t.elapsed());
        Ok(out)
    }

    /// Drops a session, releasing its domain-sized estimate immediately
    /// instead of waiting for capacity eviction: to the next request's
    /// scratch, unless a caller still holds the session.
    pub fn close_session(&self, id: SessionId) -> Result<(), EngineError> {
        let session = self
            .sessions
            .remove(id)
            .ok_or(EngineError::UnknownSession { id })?;
        self.recycle(session);
        Ok(())
    }

    /// Hands the estimate of a session the store let go of to the scratch
    /// pool, if that was its last reference.
    fn recycle(&self, session: Arc<Session>) {
        if let Some(session) = Arc::into_inner(session) {
            self.scratches.recycle(session.into_estimate());
        }
    }

    /// (total, spent, remaining) ε for a dataset.
    pub fn budget(&self, dataset: &str) -> Result<(f64, f64, f64), EngineError> {
        Ok(self.registry.get(dataset)?.ledgers.budget())
    }

    /// Strategy-cache effectiveness counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// One-call observability: strategy-cache counters, per-phase latency
    /// histograms (select/measure/reconstruct/answer), serving counters,
    /// per-dataset request/failure counters and ε-budget gauges, tenant
    /// quotas, and span/audit pipeline counters. Its `Display` is the
    /// Prometheus page [`Engine::render_prometheus`] serves.
    pub fn metrics(&self) -> EngineMetrics {
        let log = self.log.metrics();
        EngineMetrics {
            cache: self.cache.stats(),
            measure_cache: self.measure_cache.stats(),
            telemetry: self.telemetry.snapshot(),
            datasets: self.registry.dataset_metrics(),
            tenants: self.registry.tenant_metrics(),
            obs: ObsMetrics {
                spans_collected: self.collector.collected(),
                spans_dropped: self.collector.dropped(),
                trace_capacity: self.collector.capacity(),
                audit_events: log.appends,
                audit_subscriber_drops: log.subscriber_drops,
            },
            remote: self.remote.as_ref().map(WorkerPool::health),
            wal: self.options.wal_dir.as_ref().map(|_| log),
        }
    }

    /// The live telemetry registry (histograms keep accumulating; use
    /// [`Engine::metrics`] for a consistent snapshot).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's span collector (a bounded ring; overflow overwrites the
    /// oldest span and is drop-counted).
    pub fn collector(&self) -> &SpanCollector {
        &self.collector
    }

    /// The ε-budget audit stream: the ledger log, whose records are every
    /// reserve / commit / refund / denial (with the trace id of the request
    /// that caused it) and every registration and quota change. Subscribe
    /// for live records or read / dump its retained tail as JSONL; the view
    /// cannot append.
    pub fn audit(&self) -> AuditTail<'_> {
        AuditTail(&self.log)
    }

    /// The retained spans of one trace (the `trace_id` of a
    /// [`QueryResponse`]), sorted by start time.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<Span> {
        self.collector.trace(trace_id)
    }

    /// One trace rendered as Chrome `trace_event` JSON — open the string in
    /// Perfetto or `chrome://tracing` as-is.
    pub fn chrome_trace(&self, trace_id: u64) -> String {
        hdmm_obs::chrome_trace(&self.trace_spans(trace_id))
    }

    /// [`Engine::metrics`] rendered in the Prometheus text exposition format
    /// (version 0.0.4) — what the `hdmm-metrics-exporter` binary serves at
    /// `/metrics`.
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render_prometheus(&self.metrics())
    }

    /// The request lifecycle around [`Engine::serve_resolved`]: mints the
    /// request's deterministic [`TraceContext`], runs the request under a
    /// [`RequestTracer`], counts it (on the engine and, once resolved, on
    /// its dataset) whatever the exit, and at the end flushes the span tree
    /// to the collector when the request is sampled or slow.
    fn serve_with_trace(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
        enqueued: Option<Instant>,
    ) -> Result<QueryResponse, EngineError> {
        let mut record = RecordRequestOnDrop {
            telemetry: &self.telemetry,
            dataset: None,
            ok: false,
        };
        let counter = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceContext::derive(self.options.seed, counter);
        // Stride 0 disables sampling entirely (the guard also keeps
        // `is_multiple_of(0)` from sampling request 0). Decided up front: a
        // request that can neither be sampled nor be slow buffers no spans.
        let sampled =
            self.options.trace_sample != 0 && counter.is_multiple_of(self.options.trace_sample);
        let slow_threshold = self.options.slow_query_threshold;
        let tracer = RequestTracer::new(
            ctx,
            &self.collector,
            &self.telemetry,
            sampled || slow_threshold.is_some(),
        );
        if let Some(at) = enqueued {
            tracer.record_queue(at);
        }
        // Cheap validation first (microseconds, short registry read lock) so
        // a typo'd dataset or mismatched domain never pays for SELECT or
        // occupies a cache slot.
        let handle = self.registry.resolve(dataset, workload);
        record.dataset = handle.as_ref().ok().cloned();
        let result = handle.and_then(|h| self.serve_resolved(dataset, &h, workload, eps, &tracer));
        record.ok = result.is_ok();
        let slow = tracer.finish(dataset, result.is_ok(), sampled, slow_threshold);
        if slow {
            self.telemetry.record_slow_query();
        }
        result
    }

    /// [`QueryEngine::serve`] for a request that waited on a queue since
    /// `enqueued` (the [`crate::EngineServer`] worker loop calls this): the
    /// queue wait becomes the trace's `queue` span, so operators can tell
    /// backpressure latency from serving latency in one span tree.
    pub fn serve_queued(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
        enqueued: Instant,
    ) -> Result<QueryResponse, EngineError> {
        self.serve_with_trace(dataset, workload, eps, Some(enqueued))
    }

    fn serve_resolved(
        &self,
        dataset: &str,
        handle: &DatasetState,
        workload: &Workload,
        eps: f64,
        tracer: &RequestTracer<'_>,
    ) -> Result<QueryResponse, EngineError> {
        // SELECT (cache-aware, single-flight) — pure, no data, no budget.
        let select_started = Instant::now();
        let fingerprint = workload.fingerprint();
        // Read off the fingerprint's walk: a NaN or ±∞ entry would spend ε
        // on answers that carry no information.
        if !workload.is_finite() {
            return Err(EngineError::NonFiniteWorkload);
        }
        let (plan, cache_hit) = self.plan_keyed(&fingerprint, workload, tracer);
        tracer.record_select(select_started, cache_hit);

        // One u64 off the dataset's stream seeds a per-request RNG: the
        // dataset lock is held for nanoseconds, and the answer sequence is
        // deterministic per (engine seed, dataset, request order) no matter
        // how threads interleave across datasets.
        let mut rng = StdRng::seed_from_u64(lock_recover(&handle.rng).gen());

        // Reserve the budget *before* measuring. Any exit from here short of
        // `commit()` — typed error or panic — refunds it, since either way
        // no noise was drawn against the ε.
        let trace_id = tracer.trace_id();
        let reservation = Reservation::reserve(&handle.ledgers, dataset, eps, trace_id, &self.log)?;

        // MEASURE + RECONSTRUCT + answer, lock-free: the data is immutable
        // and the reservation already guaranteed the budget. Every request
        // goes through the one pipeline, in one pooled scratch, on the exact
        // blocks of its (dataset, plan): cached, or computed now — over the
        // RPC kernels when workers hold the dataset's slabs, else (or when
        // no worker could finish the fan-out) over the plain kernels on its
        // vector, the same bits either way — and cached for the next one.
        let data = &handle.data;
        let request = MechanismRequest {
            workload,
            // Built with the plan: every warm hit reuses its measured
            // products and their inverse Grams (or the marginals / union
            // equivalent).
            prepared: plan.prepared(),
            eps,
        };
        let products = request.prepared.products();
        let plain = PlainKernels::over(data.values());
        let exact = |scratch: &mut KronScratch| -> Result<_, Infallible> {
            if let Some(blocks) = self.measure_cache.get(handle.id, &plan) {
                return Ok(blocks);
            }
            let computed = match &self.remote {
                Some(pool) if data.shard_count() > 1 => {
                    let rpc = RpcKernels {
                        pool,
                        dataset,
                        data,
                        observer: tracer,
                    };
                    exact_blocks(products, &rpc, scratch).or_else(|_| {
                        // No worker could finish the fan-out, even after
                        // retry and reassignment: compute the blocks here.
                        self.telemetry.record_remote_fallback();
                        exact_blocks(products, &plain, scratch)
                    })
                }
                _ => exact_blocks(products, &plain, scratch),
            }?;
            Ok(self
                .measure_cache
                .insert(handle.id, &plan, computed, scratch))
        };
        let mut scratch = self.scratches.pop();
        let result = request
            .run_with_scratch(&mut scratch, &mut rng, data.values(), tracer, exact)
            .map_err(MechanismError::from);
        // Back to the pool before the session store lets go of an estimate.
        drop(scratch);
        let result = result?;
        // Noise was drawn: the ε is genuinely spent, keep the reservation.
        reservation.commit();

        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
        let session = Arc::new(Session::new(
            id,
            dataset.to_string(),
            handle.domain.clone(),
            result.x_hat,
            eps,
        ));
        if let Some(evicted) = self.sessions.insert(session) {
            self.recycle(evicted);
        }

        Ok(QueryResponse {
            answers: result.answers,
            session: id,
            eps_spent: eps,
            cache_hit,
            operator: plan.operator(),
            expected_error: plan.expected_error(eps),
            shards: data.shard_count(),
            trace_id,
        })
    }
}

/// Counts every request exactly once — on the engine and, once it resolved,
/// on its dataset — panics included: a request that unwinds (answered as a
/// typed error by the server's catch-guard) must show up in
/// `requests`/`failures`, or fleets suffering panic-inducing workloads would
/// report `failures=0`.
struct RecordRequestOnDrop<'a> {
    telemetry: &'a Telemetry,
    /// The dataset the request resolved to, once it has.
    dataset: Option<Arc<DatasetState>>,
    ok: bool,
}

impl Drop for RecordRequestOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(state) = &self.dataset {
            state.requests.fetch_add(1, Ordering::Relaxed);
            if !self.ok {
                state.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.telemetry.record_request(self.ok);
    }
}

impl QueryEngine for Engine {
    fn serve(
        &self,
        dataset: &str,
        workload: &Workload,
        eps: f64,
    ) -> Result<QueryResponse, EngineError> {
        self.serve_with_trace(dataset, workload, eps, None)
    }

    fn serve_from_session(
        &self,
        session: SessionId,
        workload: &Workload,
    ) -> Result<Vec<f64>, EngineError> {
        self.session(session)?.answer(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_core::builders;

    fn quick_engine(seed: u64) -> Engine {
        Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn serve_requires_a_registered_dataset() {
        let engine = quick_engine(0);
        let w = builders::prefix_1d(8);
        assert!(matches!(
            engine.serve("nope", &w, 0.1),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    #[test]
    fn registration_validates_shape_budget_and_uniqueness() {
        let engine = quick_engine(0);
        let d = Domain::one_dim(8);
        assert!(matches!(
            engine.register_dataset("d", d.clone(), vec![0.0; 7], 1.0),
            Err(EngineError::DataVectorMismatch {
                expected: 8,
                got: 7
            })
        ));
        assert!(matches!(
            engine.register_dataset("d", d.clone(), vec![0.0; 8], 0.0),
            Err(EngineError::InvalidEpsilon { .. })
        ));
        engine
            .register_dataset("d", d.clone(), vec![0.0; 8], 1.0)
            .unwrap();
        assert!(matches!(
            engine.register_dataset("d", d, vec![0.0; 8], 1.0),
            Err(EngineError::DatasetExists { .. })
        ));
    }

    #[test]
    fn serve_spends_budget_and_mismatched_domain_is_rejected() {
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![5.0; 8], 1.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        let resp = engine.serve("d", &w, 0.25).unwrap();
        assert_eq!(resp.answers.len(), w.query_count());
        let (total, spent, remaining) = engine.budget("d").unwrap();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((spent - 0.25).abs() < 1e-12);
        assert!((remaining - 0.75).abs() < 1e-12);

        let wrong = builders::prefix_1d(16);
        assert!(matches!(
            engine.serve("d", &wrong, 0.1),
            Err(EngineError::DomainMismatch { .. })
        ));
        // A failed request spends nothing.
        assert!((engine.budget("d").unwrap().1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn batch_from_session_matches_individual_follow_ups_bitwise() {
        let engine = quick_engine(11);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![3.0; 8], 1.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        let resp = engine.serve("d", &w, 0.5).unwrap();
        let ranges = builders::all_range_1d(8);
        let batch = engine
            .serve_batch_from_session(resp.session, &[&w, &ranges])
            .unwrap();
        assert_eq!(
            batch[0],
            engine.serve_from_session(resp.session, &w).unwrap()
        );
        assert_eq!(
            batch[1],
            engine.serve_from_session(resp.session, &ranges).unwrap()
        );
        // Post-processing: the batch spent nothing.
        assert!((engine.budget("d").unwrap().1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_reserve_append_does_not_journal_an_unmatched_refund() {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-engine-reserve-fail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = Engine::new(EngineOptions {
                hdmm: HdmmOptions {
                    restarts: 1,
                    ..Default::default()
                },
                wal_dir: Some(dir.clone()),
                ..Default::default()
            });
            engine
                .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
                .unwrap();
            let w = builders::prefix_1d(8);
            engine.serve("d", &w, 0.25).unwrap();

            // Every WAL append now fails: the reserve path must fail the
            // request, refund the in-memory ledger, and journal *neither*
            // half of the aborted reservation (DURABILITY.md §7) — an
            // unmatched Refund would subtract the committed 0.25 on replay.
            let wal = &engine.log;
            wal.fail_appends
                .store(1, std::sync::atomic::Ordering::Relaxed);
            assert!(matches!(
                engine.serve("d", &w, 0.25),
                Err(EngineError::WalFailed { .. })
            ));
            wal.fail_appends
                .store(0, std::sync::atomic::Ordering::Relaxed);
            // In memory: the failed reservation was refunded.
            assert!((engine.budget("d").unwrap().1 - 0.25).abs() < 1e-12);
        }
        // On disk: recovery reproduces exactly the committed spend.
        let wal = Wal::open(&dir, SNAPSHOT_EVERY).unwrap();
        let spent = wal.recovered().datasets["d"].spent;
        assert!(
            (spent - 0.25).abs() < 1e-12,
            "recovered spent {spent} != committed 0.25 (unmatched record in WAL)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_is_cached_by_fingerprint() {
        let engine = quick_engine(0);
        let w = builders::prefix_2d(8, 8);
        let (_, hit1) = engine.plan(&w);
        let (_, hit2) = engine.plan(&w);
        assert!(!hit1 && hit2);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    /// An engine serving 2-D workloads whose estimates (1024 cells) and
    /// work vectors are large enough to be pooled.
    fn pooled_engine(session_capacity: usize, datasets: usize) -> Engine {
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            session_capacity,
            seed: 7,
            ..Default::default()
        });
        for d in 0..datasets {
            let x = (0..1024)
                .map(|i| ((i * 37 + d * 11) % 29) as f64 * 0.75)
                .collect();
            engine
                .register_dataset(format!("d{d}"), Domain::new(&[32, 32]), x, 1e6)
                .unwrap();
        }
        engine
    }

    fn pooled_workloads() -> [Workload; 2] {
        [
            builders::prefix_2d(32, 32),
            builders::upto_kway_marginals(&Domain::new(&[32, 32]), 1),
        ]
    }

    /// A caller holding a session across `close_session`, evictions and
    /// later serves reads its original estimate bit for bit: the estimate
    /// goes back to the scratch pool only with the session's last `Arc`.
    #[test]
    fn a_held_session_keeps_its_estimate_while_others_are_recycled() {
        let engine = pooled_engine(2, 1);
        let workloads = pooled_workloads();
        let first = engine.serve("d0", &workloads[0], 0.5).unwrap().session;
        let held = engine.session(first).unwrap();
        let bits: Vec<u64> = held.estimate().iter().map(|v| v.to_bits()).collect();
        engine.close_session(first).unwrap();
        for i in 0..12 {
            let reply = engine.serve("d0", &workloads[i % 2], 0.5).unwrap();
            // Every other session is closed (recycled); the rest are evicted.
            if i % 2 == 0 {
                engine.close_session(reply.session).unwrap();
            }
            let now: Vec<u64> = held.estimate().iter().map(|v| v.to_bits()).collect();
            assert_eq!(now, bits, "request {i} changed a held estimate");
        }
        // Serial requests share one scratch.
        assert_eq!(engine.scratches.idle(), 1);
    }

    /// K = 4 threads serving at once (one dataset each, so every dataset's
    /// noise stream is consumed in the same order) answer as one thread
    /// serving the same requests in turn, and the pool never holds more
    /// scratches than ran at once.
    #[test]
    fn concurrent_serves_match_serial_and_pool_at_most_k_scratches() {
        const K: usize = 4;
        let workloads = pooled_workloads();
        let serve_all = |engine: &Engine, d: usize| -> Vec<Vec<u64>> {
            (0..6)
                .map(|i| {
                    let reply = engine
                        .serve(&format!("d{d}"), &workloads[i % 2], 0.5)
                        .unwrap();
                    engine.close_session(reply.session).unwrap();
                    reply.answers.iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        let serial_engine = pooled_engine(1024, K);
        let serial: Vec<_> = (0..K).map(|d| serve_all(&serial_engine, d)).collect();
        let engine = pooled_engine(1024, K);
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..K)
                .map(|d| {
                    let engine = &engine;
                    let serve_all = &serve_all;
                    s.spawn(move || serve_all(engine, d))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(concurrent, serial);
        assert!((1..=K).contains(&engine.scratches.idle()));
        assert_eq!(serial_engine.scratches.idle(), 1);
    }

    /// The families SELECT emits (OPT_0's 1-D leaf, OPT_⊗, OPT_M, OPT_+),
    /// each served three times on one dataset: an engine that copies the
    /// blocks of the first request answers with the bits of one whose cache
    /// holds nothing, where every plan is oversize and its blocks are
    /// computed on every request.
    #[test]
    fn reused_exact_blocks_answer_as_uncached_ones_for_every_family() {
        let line = Domain::one_dim(64);
        let grid = Domain::new(&[12, 6]);
        let cases = [
            ("line", &line, builders::all_range_1d(64)),
            ("grid", &grid, builders::prefix_2d(12, 6)),
            ("grid", &grid, builders::upto_kway_marginals(&grid, 1)),
            ("grid", &grid, builders::range_total_union_2d(12, 6)),
        ];
        let serve_all = |engine: &Engine| {
            for (name, domain) in [("line", &line), ("grid", &grid)] {
                let x = (0..domain.size()).map(|i| (i % 7) as f64 + 0.5).collect();
                engine
                    .register_dataset(name, domain.clone(), x, 1e6)
                    .unwrap();
            }
            let mut operators = Vec::new();
            let mut answers = Vec::new();
            for _ in 0..3 {
                for (name, _, w) in &cases {
                    let reply = engine.serve(name, w, 0.5).unwrap();
                    operators.push(reply.operator);
                    answers.push(
                        reply
                            .answers
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                    );
                }
            }
            (operators, answers)
        };
        let cached = quick_engine(41);
        let mut uncached = quick_engine(41);
        uncached.measure_cache = MeasureCache::new(0);
        let (operators, want) = serve_all(&uncached);
        assert_eq!(operators[..4], ["opt0", "kron", "marginals", "plus"]);
        assert_eq!(serve_all(&cached).1, want);
        let hit = cached.metrics().measure_cache;
        assert_eq!((hit.entries, hit.misses, hit.hits), (4, 4, 8));
        let none = uncached.metrics().measure_cache;
        assert_eq!((none.entries, none.bytes, none.hits), (0, 0, 0));
    }

    #[test]
    fn session_store_is_bounded_and_closable() {
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            session_capacity: 2,
            ..Default::default()
        });
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 100.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        let s1 = engine.serve("d", &w, 0.1).unwrap().session;
        let s2 = engine.serve("d", &w, 0.1).unwrap().session;
        let s3 = engine.serve("d", &w, 0.1).unwrap().session;
        // Capacity 2: the oldest session was evicted.
        assert!(matches!(
            engine.session(s1),
            Err(EngineError::UnknownSession { .. })
        ));
        assert!(engine.session(s2).is_ok() && engine.session(s3).is_ok());
        // Explicit close releases immediately; closing twice is typed.
        engine.close_session(s2).unwrap();
        assert!(matches!(
            engine.close_session(s2),
            Err(EngineError::UnknownSession { .. })
        ));
    }

    #[test]
    fn invalid_requests_never_occupy_the_strategy_cache() {
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
            .unwrap();
        let wrong_domain = builders::prefix_1d(16);
        assert!(engine.serve("d", &wrong_domain, 0.1).is_err());
        assert!(engine.serve("nope", &wrong_domain, 0.1).is_err());
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.len, stats.misses),
            (0, 0),
            "rejected requests must not reach SELECT: {stats:?}"
        );
        let t = engine.metrics().telemetry;
        assert_eq!((t.requests, t.failures), (2, 2));
    }

    #[test]
    fn same_seed_same_answers() {
        let w = builders::all_range_1d(16);
        let run = |seed| {
            let engine = quick_engine(seed);
            engine
                .register_dataset("d", Domain::one_dim(16), vec![3.0; 16], 2.0)
                .unwrap();
            engine.serve("d", &w, 1.0).unwrap().answers
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should perturb the noise");
    }

    #[test]
    fn dataset_streams_are_independent_of_cross_dataset_order() {
        // Serving d1 then d2 and d2 then d1 must produce identical answers
        // per dataset: each dataset draws from its own seeded stream.
        let w = builders::prefix_1d(8);
        let serve_both = |first: &str, second: &str| {
            let engine = quick_engine(5);
            for name in ["d1", "d2"] {
                engine
                    .register_dataset(name, Domain::one_dim(8), vec![2.0; 8], 10.0)
                    .unwrap();
            }
            let a = engine.serve(first, &w, 1.0).unwrap().answers;
            let b = engine.serve(second, &w, 1.0).unwrap().answers;
            (a, b)
        };
        let (d1_first, d2_second) = serve_both("d1", "d2");
        let (d2_first, d1_second) = serve_both("d2", "d1");
        assert_eq!(d1_first, d1_second, "d1's stream ignores d2's traffic");
        assert_eq!(d2_second, d2_first, "d2's stream ignores d1's traffic");
        assert_ne!(d1_first, d2_first, "streams are distinct per dataset");
    }

    #[test]
    fn metrics_expose_phase_latencies_and_select_counts() {
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        let w = builders::prefix_1d(16);
        engine.serve("d", &w, 1.0).unwrap();
        engine.serve("d", &w, 1.0).unwrap();
        let m = engine.metrics();
        assert_eq!(m.cache.hits, 1);
        assert_eq!(m.telemetry.selects_run, 1, "second serve hit the cache");
        assert_eq!(m.telemetry.select.count, 1);
        assert_eq!(m.telemetry.measure.count, 2);
        assert_eq!(m.telemetry.reconstruct.count, 2);
        assert_eq!(m.telemetry.answer.count, 2);
        assert_eq!(m.telemetry.requests, 2);
        assert_eq!(m.telemetry.inflight_selects, 0);
        assert!(
            m.telemetry.restarts_run >= 1,
            "the cold SELECT must report its restart cells, got {}",
            m.telemetry.restarts_run
        );
        assert!(
            m.telemetry.select_threads >= 1,
            "the resolved lane count is at least one"
        );
        assert_eq!(
            engine.select_progress(&w),
            None,
            "no SELECT in flight after the plan landed in the cache"
        );
    }

    #[test]
    fn restart_counter_scales_with_the_grid() {
        // 3 restarts on a 1-D workload: the targeted planner runs exactly one
        // operator per restart, so the counter equals the restart count.
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 3,
                ..Default::default()
            },
            ..Default::default()
        });
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        engine.serve("d", &builders::prefix_1d(16), 1.0).unwrap();
        let m = engine.metrics();
        assert_eq!(m.telemetry.restarts_run, 3);
    }

    #[test]
    fn panicking_requests_are_counted_as_failures() {
        let telemetry = Telemetry::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _record = RecordRequestOnDrop {
                telemetry: &telemetry,
                dataset: None,
                ok: false,
            };
            panic!("request died before returning");
        }));
        assert!(unwound.is_err());
        let t = telemetry.snapshot();
        assert_eq!((t.requests, t.failures), (1, 1));
    }

    #[test]
    fn concurrent_serves_on_one_dataset_never_overspend() {
        // 8 threads race 0.25-ε requests against a total budget of 1.0: the
        // reserve-before-measure ledger admits exactly 4.
        let engine = quick_engine(0);
        engine
            .register_dataset("d", Domain::one_dim(8), vec![1.0; 8], 1.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        engine.plan(&w); // pre-warm so the race is over the ledger, not SELECT
        let successes: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let engine = &engine;
                    let w = &w;
                    s.spawn(move || engine.serve("d", w, 0.25).is_ok() as usize)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(successes, 4, "exactly total/eps requests fit the budget");
        let (_, spent, remaining) = engine.budget("d").unwrap();
        assert!((spent - 1.0).abs() < 1e-9, "spent {spent}");
        assert!(remaining < 1e-9);
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn sharded_registration_serves_byte_identical_answers() {
        let domain = Domain::new(&[6, 4]);
        let x: Vec<f64> = (0..24).map(|i| ((i * 11) % 17) as f64).collect();
        let w = builders::prefix_2d(6, 4);
        let serve = |shards: usize| {
            let engine = quick_engine(3);
            engine
                .register_dataset_sharded("d", domain.clone(), x.clone(), shards, 10.0)
                .unwrap();
            let r1 = engine.serve("d", &w, 1.0).unwrap();
            let r2 = engine.serve("d", &w, 1.0).unwrap();
            assert_eq!(r1.shards, shards.clamp(1, 6));
            (r1.answers, r2.answers)
        };
        let dense = serve(1);
        for shards in [2usize, 3, 5, 6, 100] {
            let sharded = serve(shards);
            assert!(
                bits_eq(&dense.0, &sharded.0) && bits_eq(&dense.1, &sharded.1),
                "shards={shards}: answers must be byte-identical to dense"
            );
        }
    }

    #[test]
    fn local_sharded_requests_run_no_shard_tasks() {
        let engine = quick_engine(0);
        engine
            .register_dataset_sharded("d", Domain::new(&[8, 4]), vec![1.0; 32], 4, 10.0)
            .unwrap();
        let w = builders::prefix_2d(8, 4);
        let resp = engine.serve("d", &w, 1.0).unwrap();
        assert_eq!(resp.shards, 4);
        let spans = engine.trace_spans(resp.trace_id);
        assert!(spans.iter().any(|s| s.name == "measure"));
        assert!(
            spans.iter().all(|s| !s.name.starts_with("shard:")),
            "without workers the plain kernels serve every slab at once: {spans:?}"
        );
    }

    #[test]
    fn cold_select_records_per_restart_spans() {
        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        let resp = engine.serve("d", &builders::prefix_1d(16), 1.0).unwrap();
        let spans = engine.trace_spans(resp.trace_id);
        let restarts: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("restart:"))
            .collect();
        assert_eq!(restarts.len(), 2, "one span per restart cell: {spans:?}");
        assert!(
            restarts
                .iter()
                .all(|s| s.parent_id == crate::tracing::SELECT_SPAN_ID),
            "restart spans parent under the SELECT span"
        );
        // The warm path records none.
        let warm = engine.serve("d", &builders::prefix_1d(16), 1.0).unwrap();
        let warm_spans = engine.trace_spans(warm.trace_id);
        assert!(warm_spans.iter().all(|s| !s.name.starts_with("restart:")));
    }

    #[test]
    fn per_dataset_counters_split_sharded_and_dense() {
        let engine = quick_engine(0);
        engine
            .register_dataset("dense", Domain::one_dim(8), vec![1.0; 8], 10.0)
            .unwrap();
        engine
            .register_dataset_sharded("sharded", Domain::new(&[8]), vec![1.0; 8], 4, 0.5)
            .unwrap();
        let w = builders::prefix_1d(8);
        engine.serve("dense", &w, 0.25).unwrap();
        engine.serve("sharded", &w, 0.25).unwrap();
        // Second spend overshoots the sharded dataset's ledger: a failure.
        assert!(engine.serve("sharded", &w, 0.5).is_err());
        let m = engine.metrics();
        assert_eq!(m.datasets.len(), 2);
        let dense = &m.datasets[0];
        let sharded = &m.datasets[1];
        assert_eq!(
            (dense.name.as_str(), dense.requests, dense.failures),
            ("dense", 1, 0)
        );
        assert_eq!(
            (sharded.name.as_str(), sharded.requests, sharded.failures),
            ("sharded", 2, 1)
        );
        assert_eq!((dense.shards, sharded.shards), (1, 4));
    }

    #[test]
    fn tenant_quota_caps_across_datasets_and_refunds() {
        let engine = quick_engine(0);
        engine.set_tenant_quota("acme", 0.5).unwrap();
        for name in ["a", "b"] {
            engine
                .register_dataset_with(
                    name,
                    Domain::one_dim(8),
                    vec![1.0; 8],
                    DatasetConfig::new(10.0).with_tenant("acme"),
                )
                .unwrap();
        }
        let w = builders::prefix_1d(8);
        engine.serve("a", &w, 0.3).unwrap();
        // Dataset "b" has plenty of its own budget, but the tenant quota
        // rejects — and the dataset ledger reservation is refunded.
        let err = engine.serve("b", &w, 0.3).unwrap_err();
        assert!(
            matches!(err, EngineError::TenantBudgetExceeded { ref tenant, .. } if tenant == "acme"),
            "{err:?}"
        );
        let (_, spent_b, _) = engine.budget("b").unwrap();
        assert!(spent_b.abs() < 1e-12, "refused spend must be refunded");
        // A smaller request still fits the remaining tenant quota.
        engine.serve("b", &w, 0.2).unwrap();
        let (cap, spent, remaining) = engine.tenant_budget("acme").unwrap();
        assert!((cap - 0.5).abs() < 1e-12);
        assert!((spent - 0.5).abs() < 1e-12);
        assert!(remaining < 1e-12);
    }

    #[test]
    fn tenantless_datasets_ignore_quotas() {
        let engine = quick_engine(0);
        engine.set_tenant_quota("acme", 0.1).unwrap();
        engine
            .register_dataset("free", Domain::one_dim(8), vec![1.0; 8], 10.0)
            .unwrap();
        let w = builders::prefix_1d(8);
        engine.serve("free", &w, 5.0).unwrap();
        assert!(engine.tenant_budget("nobody").is_none());
    }

    #[test]
    fn plan_store_survives_engine_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-engine-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        let w = builders::prefix_2d(8, 8);

        let first = Engine::new(opts());
        let (plan_a, hit) = first.plan(&w);
        assert!(!hit);
        assert_eq!(first.metrics().telemetry.selects_run, 1);

        // A fresh engine (a "restart") finds the plan on disk: no SELECT.
        let second = Engine::new(opts());
        let (plan_b, hit) = second.plan(&w);
        assert!(!hit, "memory cache is cold after a restart");
        let t = second.metrics().telemetry;
        assert_eq!(t.selects_run, 0, "disk hit must skip optimization");
        assert_eq!(t.plan_disk_hits, 1);
        assert_eq!(plan_b.operator(), plan_a.operator());
        assert!(
            (plan_b.expected_error(1.0) - plan_a.expected_error(1.0)).abs()
                < 1e-12 * plan_a.expected_error(1.0),
        );
        // And the reloaded plan is a working strategy end to end.
        second
            .register_dataset("d", Domain::new(&[8, 8]), vec![2.0; 64], 10.0)
            .unwrap();
        let resp = second.serve("d", &w, 1.0).unwrap();
        assert_eq!(resp.answers.len(), w.query_count());

        // Corrupt every cached file: the third engine quietly re-optimizes.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
        }
        let third = Engine::new(opts());
        let _ = third.plan(&w);
        let t = third.metrics().telemetry;
        assert_eq!((t.plan_disk_hits, t.selects_run), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Plan files written while OPT_⊗ factors were stored as CSR matrices
    /// still load, and serve the answers of the p-Identity leaf plan up to
    /// the rounding of the inverse Grams (the same noise, the dense inverse
    /// Gram instead of the Woodbury one).
    #[test]
    fn plan_files_with_csr_p_identity_factors_still_load_and_serve() {
        use hdmm_linalg::StructuredMatrix;
        use hdmm_mechanism::Strategy;
        let dir = std::env::temp_dir().join(format!(
            "hdmm-engine-csr-plan-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        let w = builders::prefix_2d(16, 16);
        let fresh = Engine::new(opts());
        let (plan, _) = fresh.plan(&w);
        let Strategy::Kron(leaves) = plan.strategy() else {
            panic!("OPT_⊗ selects a Kronecker strategy");
        };
        assert!(leaves
            .iter()
            .all(|f| matches!(f, StructuredMatrix::PIdentity { .. })));

        // The same factors as the CSR matrices plan files used to carry.
        let csr = Strategy::kron(leaves.iter().map(StructuredMatrix::to_dense).collect());
        let Strategy::Kron(factors) = &csr else {
            unreachable!()
        };
        assert!(factors
            .iter()
            .all(|f| matches!(f, StructuredMatrix::Sparse(_))));
        let old = Plan::from_parts(
            hdmm_optimizer::Selected {
                strategy: csr,
                squared_error: plan.squared_error_coefficient(),
                operator: plan.operator(),
            },
            hdmm_core::WorkloadGrams::from_workload(&w),
            w.query_count(),
        );
        assert!(PlanStore::new(&dir).store(&w.fingerprint(), &old, w.domain()));

        let restarted = Engine::new(opts());
        let x: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        for engine in [&fresh, &restarted] {
            engine
                .register_dataset("d", Domain::new(&[16, 16]), x.clone(), 10.0)
                .unwrap();
        }
        let want = fresh.serve("d", &w, 1.0).unwrap();
        let got = restarted.serve("d", &w, 1.0).unwrap();
        let t = restarted.metrics().telemetry;
        assert_eq!((t.plan_disk_hits, t.selects_run), (1, 0));
        assert_eq!(got.answers.len(), want.answers.len());
        for (a, b) in got.answers.iter().zip(&want.answers) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
