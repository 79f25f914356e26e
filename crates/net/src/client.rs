//! The coordinator's side of the shard-worker protocol: a registry of
//! worker links with per-task timeouts, bounded retry with exponential
//! backoff, shard reassignment to surviving workers, and per-worker health
//! telemetry.
//!
//! The pool never owns data — the engine keeps the authoritative copy of
//! every slab and passes it alongside each task, so reassignment is always
//! possible while at least one worker answers: the new primary simply gets
//! the slab re-pushed before the task runs. Tasks are pure and idempotent
//! (see [`crate::wire`]), which is what makes at-least-once retry safe: a
//! task that timed out but actually completed on the worker changes nothing
//! when it runs again elsewhere.
//!
//! Tasks name their trailing factors by [`FactorKey`] instead of carrying
//! them (see [`crate::wire`]): each link remembers which keys it has pushed,
//! pushes a list the first time a task on that link needs it, and answers a
//! worker's typed `UnknownFactors` (restart, eviction) by re-pushing and
//! retrying inside the same attempt — the `UnknownSlab` choreography, for
//! the other kind of worker-resident operand. In steady state a request
//! moves only vectors.

use crate::wire::{
    frame_into, keyed_task_into, read_frame_ext_buf, ErrorCode, FactorKey, Frame, KeyedTask,
    NetError, TraceExt,
};
use hdmm_linalg::StructuredMatrix;
use hdmm_obs::{Observer, Phase, Span};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Failure-handling policy for shard tasks.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-attempt deadline: connect, write, and read must all finish within
    /// this window or the attempt counts as failed.
    pub task_timeout: Duration,
    /// Maximum attempts per task across all candidate workers (≥ 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per subsequent attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            task_timeout: Duration::from_secs(5),
            attempts: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

/// Point-in-time health of one worker, as exposed through
/// `Engine::metrics()`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerHealth {
    /// The worker's address.
    pub addr: String,
    /// Whether the last interaction succeeded.
    pub alive: bool,
    /// Tasks completed successfully.
    pub tasks: u64,
    /// Failed attempts attributed to this worker.
    pub failures: u64,
    /// Mean per-task round-trip latency in microseconds.
    pub mean_task_micros: f64,
    /// Slabs currently assigned (pushed) to this worker.
    pub slabs: usize,
    /// Bytes written to this worker's socket (frames, length prefixes
    /// included) — with `bytes_received`, "bytes per request" read off the
    /// pool instead of computed from the plan.
    pub bytes_sent: u64,
    /// Bytes read back from this worker's socket.
    pub bytes_received: u64,
    /// Factor lists pushed to this worker (first use of a key on the link,
    /// plus every re-push after an `UnknownFactors` reply).
    pub factor_pushes: u64,
}

/// Point-in-time health of the whole pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolHealth {
    /// Per-worker health, in registration order.
    pub workers: Vec<WorkerHealth>,
    /// Task attempts that were retried after a failure.
    pub retries: u64,
    /// Shards moved to a surviving worker after their primary failed.
    pub reassignments: u64,
    /// Keyed tasks a worker answered with `UnknownFactors` (it restarted or
    /// evicted the list); each one cost a re-push and a retry.
    pub factor_misses: u64,
}

/// One coordinator→worker link: a lazily (re)connected TCP stream plus
/// health counters. The stream is mutex-serialized; concurrent shard tasks
/// to *different* workers run fully in parallel, tasks to the same worker
/// queue on its link.
struct WorkerLink {
    addr: String,
    conn: Mutex<Conn>,
    alive: AtomicBool,
    tasks: AtomicU64,
    failures: AtomicU64,
    task_nanos: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    factor_pushes: AtomicU64,
    loaded: Mutex<HashSet<(String, u64)>>,
    /// Factor lists this link has pushed. Only a hint: the worker is the
    /// authority and says `UnknownFactors` when the hint is stale.
    factors: Mutex<HashSet<FactorKey>>,
}

impl WorkerLink {
    fn new(addr: &str) -> Self {
        WorkerLink {
            addr: addr.to_string(),
            conn: Mutex::new(Conn {
                stream: None,
                buf: Vec::new(),
            }),
            alive: AtomicBool::new(false),
            tasks: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            task_nanos: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            factor_pushes: AtomicU64::new(0),
            loaded: Mutex::new(HashSet::new()),
            factors: Mutex::new(HashSet::new()),
        }
    }

    /// One request/response exchange under the per-attempt deadline:
    /// connect, write, and read all share one `timeout` window, enforced by
    /// [`DeadlineStream`] so a worker trickling bytes cannot stretch the
    /// attempt past it. Any failure drops the connection (the next call
    /// reconnects) — half-read streams cannot be resynchronized, so
    /// reconnect-and-retry is the only safe recovery. The request is encoded
    /// into the link's buffer and leaves in one write; the reply is read
    /// back into the same buffer.
    fn call_raw(
        &self,
        request: &Request<'_>,
        ext: Option<&TraceExt>,
        timeout: Duration,
    ) -> Result<(Frame, Option<TraceExt>), NetError> {
        let mut guard = self.conn.lock().expect("worker link poisoned");
        let Conn { stream, buf } = &mut *guard;
        let deadline = Instant::now() + timeout;
        let connected = match &mut *stream {
            Some(connected) => connected,
            vacant => {
                let addr = self
                    .addr
                    .parse::<std::net::SocketAddr>()
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
                let fresh = TcpStream::connect_timeout(&addr, timeout)?;
                fresh.set_nodelay(true)?;
                vacant.insert(fresh)
            }
        };
        let mut io = DeadlineStream {
            stream: connected,
            deadline,
        };
        let exchange = request
            .encode_into(buf, ext)
            .and_then(|()| io.write_all(buf))
            .map_err(NetError::from)
            .and_then(|()| {
                self.bytes_sent
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
                read_frame_ext_buf(&mut io, buf)
            });
        match &exchange {
            Ok(_) => {
                self.bytes_received
                    .fetch_add(4 + buf.len() as u64, Ordering::Relaxed);
            }
            Err(_) => *stream = None,
        }
        exchange
    }

    /// Untraced exchange: the request carries no trace extension, and the
    /// worker answers in kind.
    fn call(&self, request: &Request<'_>, timeout: Duration) -> Result<Frame, NetError> {
        self.call_raw(request, None, timeout).map(|(f, _)| f)
    }

    fn health(&self) -> WorkerHealth {
        let tasks = self.tasks.load(Ordering::Relaxed);
        let nanos = self.task_nanos.load(Ordering::Relaxed);
        WorkerHealth {
            addr: self.addr.clone(),
            alive: self.alive.load(Ordering::Relaxed),
            tasks,
            failures: self.failures.load(Ordering::Relaxed),
            mean_task_micros: if tasks == 0 {
                0.0
            } else {
                nanos as f64 / tasks as f64 / 1_000.0
            },
            slabs: self.loaded.lock().expect("loaded set poisoned").len(),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            factor_pushes: self.factor_pushes.load(Ordering::Relaxed),
        }
    }
}

/// A link's lazily (re)connected socket and the buffer every exchange on it
/// encodes into and reads back into — one allocation per link, not per task.
struct Conn {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// What one exchange sends: an owned control frame (ping, operand pushes) or
/// a keyed task encoded straight from the caller's borrowed slices.
enum Request<'a> {
    Frame(&'a Frame),
    Task(KeyedTask<'a>),
}

impl Request<'_> {
    fn encode_into(&self, buf: &mut Vec<u8>, ext: Option<&TraceExt>) -> std::io::Result<()> {
        match self {
            Request::Frame(frame) => frame_into(buf, frame, ext),
            Request::Task(task) => keyed_task_into(buf, task, ext),
        }
    }
}

/// A trailing-factor list as a worker-resident operand: the factors (pushed
/// to a link the first time it needs them) and the content key tasks send in
/// their place.
#[derive(Debug, Clone, Copy)]
pub struct Operand<'a> {
    key: FactorKey,
    factors: &'a [&'a StructuredMatrix],
}

impl<'a> Operand<'a> {
    /// Derives the key from the factors — an encode plus a checksum of the
    /// whole list, so the request path does not do this per task: it
    /// memoizes keys per plan ([`OperandKeys`](crate::OperandKeys)).
    pub fn new(factors: &'a [&'a StructuredMatrix]) -> Self {
        Operand {
            key: FactorKey::of(factors),
            factors,
        }
    }

    /// An operand under a key derived earlier by [`FactorKey::of`] the same
    /// factors.
    pub(crate) fn keyed(key: FactorKey, factors: &'a [&'a StructuredMatrix]) -> Self {
        Operand { key, factors }
    }
}

/// The coordinator's authoritative copy of one slab, passed with every slab
/// task so any link can be (re)seeded with it.
#[derive(Clone, Copy)]
struct SlabRef<'a> {
    /// `(dataset, shard)`, as the links' `loaded` sets key it.
    id: &'a (String, u64),
    rows: (u64, u64),
    values: &'a [f64],
}

/// A [`TcpStream`] view that enforces an absolute attempt deadline: before
/// every read/write syscall the socket timeout is shrunk to the time left,
/// and an exhausted deadline fails with `TimedOut` immediately. Socket
/// timeouts alone apply *per syscall*, so without this a worker trickling
/// one byte per timeout window could stretch a single attempt far beyond
/// [`RetryPolicy::task_timeout`].
struct DeadlineStream<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl DeadlineStream<'_> {
    fn remaining(&self) -> std::io::Result<Duration> {
        self.deadline
            .checked_duration_since(Instant::now())
            .filter(|left| !left.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "attempt deadline exceeded")
            })
    }
}

impl std::io::Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.remaining()?))?;
        self.stream.read(buf)
    }
}

impl std::io::Write for DeadlineStream<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.remaining()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Identity of one RPC attempt inside a request's span tree: which observer
/// to record into, what to call the span, and which phase span to parent
/// under.
#[derive(Clone, Copy)]
struct RpcSpan<'a> {
    observer: &'a dyn Observer,
    /// Span name: `rpc:forward`, `rpc:apply`, `rpc:load`.
    name: &'static str,
    /// The phase whose span is the parent ([`Observer::parent_for`]).
    phase: Phase,
    /// Shard (or block) index — also the Chrome-trace lane, so concurrent
    /// shard RPCs render side by side instead of falsely nested.
    shard: u64,
    attempt: u32,
}

/// The coordinator's worker registry and task router.
pub struct WorkerPool {
    workers: RwLock<Vec<Arc<WorkerLink>>>,
    policy: RetryPolicy,
    /// `(dataset, shard) → worker index`: the current primary assignment.
    primary: Mutex<HashMap<(String, u64), usize>>,
    next_rr: AtomicUsize,
    retries: AtomicU64,
    reassignments: AtomicU64,
    factor_misses: AtomicU64,
}

impl WorkerPool {
    /// Builds a pool over `addrs` and probes each worker once (best-effort —
    /// an unreachable worker starts dead and is skipped until it answers).
    /// Probes run concurrently, so startup blocks for at most one
    /// `task_timeout` even when every worker is unreachable, rather than
    /// workers × timeout.
    pub fn connect(addrs: &[String], policy: RetryPolicy) -> Self {
        let pool = WorkerPool {
            workers: RwLock::new(addrs.iter().map(|a| Arc::new(WorkerLink::new(a))).collect()),
            policy,
            primary: Mutex::new(HashMap::new()),
            next_rr: AtomicUsize::new(0),
            retries: AtomicU64::new(0),
            reassignments: AtomicU64::new(0),
            factor_misses: AtomicU64::new(0),
        };
        {
            let workers = pool.workers.read().expect("worker registry poisoned");
            let timeout = pool.policy.task_timeout;
            std::thread::scope(|s| {
                for w in workers.iter() {
                    s.spawn(move || {
                        let alive = matches!(
                            w.call(&Request::Frame(&Frame::Ping), timeout),
                            Ok(Frame::Pong { .. })
                        );
                        w.alive.store(alive, Ordering::Relaxed);
                    });
                }
            });
        }
        pool
    }

    /// Registers one more worker at runtime; fails unless it answers a ping.
    pub fn add_worker(&self, addr: &str) -> Result<(), NetError> {
        let link = Arc::new(WorkerLink::new(addr));
        match link.call(&Request::Frame(&Frame::Ping), self.policy.task_timeout)? {
            Frame::Pong { .. } => {
                link.alive.store(true, Ordering::Relaxed);
                self.workers
                    .write()
                    .expect("worker registry poisoned")
                    .push(link);
                Ok(())
            }
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
    }

    /// Number of registered workers.
    pub fn worker_count(&self) -> usize {
        self.workers.read().expect("worker registry poisoned").len()
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Point-in-time pool health (per-worker counters + pool counters).
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            workers: self
                .workers
                .read()
                .expect("worker registry poisoned")
                .iter()
                .map(|w| w.health())
                .collect(),
            retries: self.retries.load(Ordering::Relaxed),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            factor_misses: self.factor_misses.load(Ordering::Relaxed),
        }
    }

    /// Eagerly pushes a slab to its primary worker (assigned round-robin on
    /// first touch). Registration-time warm-up: failures are returned but
    /// harmless — `run_slab_task` re-pushes on demand.
    pub fn load_slab(
        &self,
        dataset: &str,
        shard: u64,
        rows: (u64, u64),
        values: &[f64],
    ) -> Result<(), NetError> {
        let key = (dataset.to_string(), shard);
        let Some(link) = self.pick_worker(&key) else {
            return Err(NetError::NoWorkers);
        };
        let rpc = RpcSpan {
            observer: &(),
            name: "rpc:load",
            phase: Phase::Measure,
            shard,
            attempt: 0,
        };
        let slab = SlabRef {
            id: &key,
            rows,
            values,
        };
        self.push_slab(&link, slab, &rpc)
    }

    /// Runs one MEASURE phase-1 task: the product of the `trailing` factors
    /// over the given slab, on whichever worker currently holds (or
    /// receives) it.
    ///
    /// Failure handling: per-attempt timeout, up to `policy.attempts` total
    /// attempts with doubling backoff, and reassignment to the next live
    /// worker when the primary fails — re-pushing the slab from the
    /// coordinator's authoritative copy (`rows`/`values`), and the factors
    /// from `trailing`, as needed.
    ///
    /// When `observer` traces, every attempt (including failed and retried
    /// ones) is recorded as an `rpc:forward` span — annotated with worker
    /// address, shard, attempt index, and outcome — parented under `phase`'s
    /// span, with the worker's own kernel spans re-based beneath it. The `()`
    /// observer runs untraced.
    #[allow(clippy::too_many_arguments)]
    pub fn run_slab_task(
        &self,
        dataset: &str,
        shard: u64,
        trailing: Operand<'_>,
        rows: (u64, u64),
        values: &[f64],
        observer: &dyn Observer,
        phase: Phase,
    ) -> Result<Vec<f64>, NetError> {
        let key = (dataset.to_string(), shard);
        let task = KeyedTask::SlabForward {
            dataset,
            shard,
            key: trailing.key,
        };
        let slab = SlabRef {
            id: &key,
            rows,
            values,
        };
        self.with_retry(
            |_| self.pick_worker(&key),
            |link, attempt| {
                let rpc = RpcSpan {
                    observer,
                    name: "rpc:forward",
                    phase,
                    shard,
                    attempt,
                };
                self.attempt(link, task, trailing, Some(slab), &rpc)
            },
        )
    }

    /// Runs one stateless task (RECONSTRUCT passes): the `trailing` factors
    /// (or their transposes) against a payload shipped with the request.
    /// `hint` spreads blocks across live workers; failures retry on the next
    /// live worker with the same policy. Traced attempts are recorded as
    /// `rpc:apply` spans (see [`WorkerPool::run_slab_task`]).
    pub fn apply(
        &self,
        transpose: bool,
        trailing: Operand<'_>,
        payload: &[f64],
        hint: usize,
        observer: &dyn Observer,
        phase: Phase,
    ) -> Result<Vec<f64>, NetError> {
        let task = KeyedTask::Apply {
            transpose,
            key: trailing.key,
            payload,
        };
        self.with_retry(
            |attempt| self.pick_any(hint + attempt as usize),
            |link, attempt| {
                let rpc = RpcSpan {
                    observer,
                    name: "rpc:apply",
                    phase,
                    shard: hint as u64,
                    attempt,
                };
                self.attempt(link, task, trailing, None, &rpc)
            },
        )
    }

    /// The retry policy around one task: up to `policy.attempts` attempts,
    /// each on the link `pick` chooses, with failures counted against that
    /// link and doubling backoff in between.
    fn with_retry(
        &self,
        pick: impl Fn(u32) -> Option<Arc<WorkerLink>>,
        run: impl Fn(&WorkerLink, u32) -> Result<Vec<f64>, NetError>,
    ) -> Result<Vec<f64>, NetError> {
        let mut delay = self.policy.backoff;
        let mut last_err = NetError::NoWorkers;
        for attempt in 0..self.policy.attempts.max(1) {
            let Some(link) = pick(attempt) else {
                break;
            };
            match run(&link, attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = self.note_failure(&link, e, attempt, &mut delay),
            }
        }
        Err(last_err)
    }

    /// One attempt of a keyed task on `link`. Operands the link has not
    /// pushed yet go first; then the task runs, and a worker that turns out
    /// not to hold an operand after all (it restarted, or evicted the
    /// factors) says so with a typed error — the operand is re-pushed and
    /// the task retried on the same worker, each operand at most once per
    /// attempt.
    fn attempt(
        &self,
        link: &WorkerLink,
        task: KeyedTask<'_>,
        trailing: Operand<'_>,
        slab: Option<SlabRef<'_>>,
        rpc: &RpcSpan<'_>,
    ) -> Result<Vec<f64>, NetError> {
        let load = RpcSpan {
            name: "rpc:load",
            ..*rpc
        };
        if let Some(slab) = slab {
            if !link
                .loaded
                .lock()
                .expect("loaded set poisoned")
                .contains(slab.id)
            {
                self.push_slab(link, slab, &load)?;
            }
        }
        self.ensure_factors(link, trailing, false, &load)?;
        let (mut slab_repushed, mut factors_repushed) = (false, false);
        loop {
            let result = self.exec(link, &Request::Task(task), rpc);
            let miss = match &result {
                Err(NetError::Remote { code, .. }) => Some(*code),
                _ => None,
            };
            match (miss, slab) {
                (Some(ErrorCode::UnknownSlab), Some(slab)) if !slab_repushed => {
                    slab_repushed = true;
                    link.loaded
                        .lock()
                        .expect("loaded set poisoned")
                        .remove(slab.id);
                    self.push_slab(link, slab, &load)?;
                }
                (Some(ErrorCode::UnknownFactors), _) if !factors_repushed => {
                    factors_repushed = true;
                    self.factor_misses.fetch_add(1, Ordering::Relaxed);
                    self.ensure_factors(link, trailing, true, &load)?;
                }
                _ => return result,
            }
        }
    }

    /// One request/response exchange, recorded as one attempt span when the
    /// observer traces. The attempt span covers connect-to-reply wall time; any
    /// worker-side spans in the reply are parented beneath it, re-based onto
    /// the coordinator clock as ending when the reply arrived (accurate to
    /// within the attempt's network round-trip, since only durations travel).
    fn roundtrip(
        &self,
        link: &WorkerLink,
        request: &Request<'_>,
        rpc: &RpcSpan<'_>,
    ) -> Result<Frame, NetError> {
        let Some(ctx) = rpc.observer.context() else {
            return link.call(request, self.policy.task_timeout);
        };
        let span_id = rpc.observer.next_span_id();
        let ext = TraceExt::request(ctx.trace_id, span_id);
        let start = Instant::now();
        let result = link.call_raw(request, Some(&ext), self.policy.task_timeout);
        let end = Instant::now();
        let outcome = match &result {
            Ok((Frame::Error { .. }, _)) => "remote-error",
            Ok(_) => "ok",
            Err(_) => "transport-error",
        };
        let start_ns = rpc.observer.rel_ns(start);
        let end_ns = rpc.observer.rel_ns(end);
        let parent = rpc.observer.parent_for(rpc.phase).unwrap_or(ctx.span_id);
        let lane = rpc.shard.to_string();
        rpc.observer.record(
            Span::new(
                ctx.trace_id,
                span_id,
                parent,
                rpc.name,
                start_ns,
                end_ns.saturating_sub(start_ns),
            )
            .attr("worker", &link.addr)
            .attr("shard", rpc.shard.to_string())
            .attr("attempt", rpc.attempt.to_string())
            .attr("outcome", outcome)
            .attr("lane", &lane),
        );
        if let Ok((_, Some(reply_ext))) = &result {
            for ws in &reply_ext.spans {
                rpc.observer.record(
                    Span::new(
                        ctx.trace_id,
                        rpc.observer.next_span_id(),
                        span_id,
                        ws.name.clone(),
                        end_ns.saturating_sub(ws.dur_ns),
                        ws.dur_ns,
                    )
                    .attr("worker", &link.addr)
                    .attr("lane", &lane),
                );
            }
        }
        result.map(|(f, _)| f)
    }

    /// One timed, counted exchange expecting a `Part` response.
    fn exec(
        &self,
        link: &WorkerLink,
        request: &Request<'_>,
        rpc: &RpcSpan<'_>,
    ) -> Result<Vec<f64>, NetError> {
        let t = Instant::now();
        match self.roundtrip(link, request, rpc)? {
            Frame::Part { values } => {
                link.tasks.fetch_add(1, Ordering::Relaxed);
                link.task_nanos
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                link.alive.store(true, Ordering::Relaxed);
                Ok(values)
            }
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
    }

    /// One operand push expecting a `Loaded` response.
    fn push(&self, link: &WorkerLink, frame: &Frame, rpc: &RpcSpan<'_>) -> Result<(), NetError> {
        match self.roundtrip(link, &Request::Frame(frame), rpc)? {
            Frame::Loaded => {
                link.alive.store(true, Ordering::Relaxed);
                Ok(())
            }
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
    }

    fn push_slab(
        &self,
        link: &WorkerLink,
        slab: SlabRef<'_>,
        rpc: &RpcSpan<'_>,
    ) -> Result<(), NetError> {
        let frame = Frame::LoadSlab {
            dataset: slab.id.0.clone(),
            shard: slab.id.1,
            rows: slab.rows,
            values: slab.values.to_vec(),
        };
        self.push(link, &frame, rpc)?;
        link.loaded
            .lock()
            .expect("loaded set poisoned")
            .insert(slab.id.clone());
        Ok(())
    }

    /// Makes `trailing` resident on `link`'s worker: a no-op when the link
    /// already pushed the key, unless the worker just said it is `missing`.
    /// The link's key set stays locked across the push, so concurrent tasks
    /// that need the same list wait for the one push instead of each sending
    /// their own (they queue on the link's socket anyway). The set is valid
    /// after every single step, so a poisoned lock — an observer panicked
    /// under it — is recovered rather than propagated.
    fn ensure_factors(
        &self,
        link: &WorkerLink,
        trailing: Operand<'_>,
        missing: bool,
        rpc: &RpcSpan<'_>,
    ) -> Result<(), NetError> {
        let mut pushed = link
            .factors
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if missing {
            pushed.remove(&trailing.key);
        } else if pushed.contains(&trailing.key) {
            return Ok(());
        }
        let frame = Frame::LoadFactors {
            key: trailing.key,
            factors: trailing.factors.iter().map(|f| (*f).clone()).collect(),
        };
        self.push(link, &frame, rpc)?;
        link.factor_pushes.fetch_add(1, Ordering::Relaxed);
        pushed.insert(trailing.key);
        Ok(())
    }

    /// Marks a failed attempt against `link`, applies backoff, and returns
    /// the error for `last_err` bookkeeping. Worker-side task errors
    /// (`Remote`) mark the attempt failed but keep the link alive — the
    /// transport works; the task is at fault.
    fn note_failure(
        &self,
        link: &WorkerLink,
        e: NetError,
        attempt: u32,
        delay: &mut Duration,
    ) -> NetError {
        link.failures.fetch_add(1, Ordering::Relaxed);
        if !matches!(e, NetError::Remote { .. }) {
            link.alive.store(false, Ordering::Relaxed);
        }
        self.retries.fetch_add(1, Ordering::Relaxed);
        if attempt + 1 < self.policy.attempts {
            std::thread::sleep(*delay);
            *delay = delay.saturating_mul(2);
        }
        e
    }

    /// The worker for a keyed (slab-owning) task: the current primary while
    /// it is alive, otherwise the next live worker scanning cyclically —
    /// recording a reassignment. With every worker dead, the primary is
    /// returned anyway: the connect acts as a recovery probe, and a still-
    /// dead pool surfaces as a pool-level error the engine can fall back on.
    fn pick_worker(&self, key: &(String, u64)) -> Option<Arc<WorkerLink>> {
        let workers = self.workers.read().expect("worker registry poisoned");
        if workers.is_empty() {
            return None;
        }
        let mut primary = self.primary.lock().expect("assignment map poisoned");
        let idx = *primary
            .entry(key.clone())
            .or_insert_with(|| self.next_rr.fetch_add(1, Ordering::Relaxed) % workers.len());
        if workers[idx].alive.load(Ordering::Relaxed) {
            return Some(Arc::clone(&workers[idx]));
        }
        for step in 1..workers.len() {
            let cand = (idx + step) % workers.len();
            if workers[cand].alive.load(Ordering::Relaxed) {
                primary.insert(key.clone(), cand);
                self.reassignments.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(&workers[cand]));
            }
        }
        Some(Arc::clone(&workers[idx]))
    }

    /// Any live worker for a stateless task, preferring `hint % n`; falls
    /// back to the hint slot when the whole pool looks dead.
    fn pick_any(&self, hint: usize) -> Option<Arc<WorkerLink>> {
        let workers = self.workers.read().expect("worker registry poisoned");
        if workers.is_empty() {
            return None;
        }
        let start = hint % workers.len();
        for step in 0..workers.len() {
            let cand = (start + step) % workers.len();
            if workers[cand].alive.load(Ordering::Relaxed) {
                return Some(Arc::clone(&workers[cand]));
            }
        }
        Some(Arc::clone(&workers[start]))
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{spawn_worker, WorkerOptions};

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            task_timeout: Duration::from_millis(500),
            attempts: 3,
            backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn slab_tasks_route_and_reassign_on_failure() {
        let w1 = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let w2 = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let pool = WorkerPool::connect(
            &[w1.addr().to_string(), w2.addr().to_string()],
            quick_policy(),
        );
        let values: Vec<f64> = (0..8).map(f64::from).collect();
        let total = StructuredMatrix::total(4);
        let refs = [&total];
        let trailing = Operand::new(&refs);
        let first = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &(), Phase::Measure)
            .unwrap();
        assert_eq!(first, vec![6.0, 22.0]);

        // Kill every worker the shard could live on except one; the task
        // must reassign (with the slab re-pushed) and still succeed.
        let health_before = pool.health();
        let primary = health_before
            .workers
            .iter()
            .position(|w| w.slabs == 1)
            .expect("one worker holds the slab");
        if primary == 0 {
            w1.kill()
        } else {
            w2.kill()
        }
        std::thread::sleep(Duration::from_millis(20));
        let again = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &(), Phase::Measure)
            .unwrap();
        assert_eq!(again, first, "reassigned task must compute the same bytes");
        let health = pool.health();
        assert!(health.reassignments >= 1, "reassignment must be recorded");
        assert!(
            health.workers[primary].failures >= 1 && !health.workers[primary].alive,
            "the killed worker's failure must be visible in health"
        );
    }

    #[test]
    fn all_workers_dead_is_a_pool_level_error() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let pool = WorkerPool::connect(&[w.addr().to_string()], quick_policy());
        w.kill();
        std::thread::sleep(Duration::from_millis(20));
        let total = StructuredMatrix::total(2);
        let refs = [&total];
        let trailing = Operand::new(&refs);
        let r = pool.apply(false, trailing, &[1.0, 2.0], 0, &(), Phase::Measure);
        assert!(r.is_err(), "a dead pool must surface an error");
    }

    /// A fresh worker on the address of a killed one: same port, no slabs,
    /// no factors. The old listener closes within one poll of the kill, so
    /// the bind is retried briefly.
    fn respawn(addr: std::net::SocketAddr) -> crate::worker::WorkerHandle {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match spawn_worker(addr, WorkerOptions::default()) {
                Ok(w) => return w,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("could not rebind {addr}: {e}"),
            }
        }
    }

    #[test]
    fn factors_ship_once_per_link_and_tasks_carry_only_the_key() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let pool = WorkerPool::connect(&[w.addr().to_string()], quick_policy());
        let dense: StructuredMatrix =
            hdmm_linalg::Matrix::from_fn(64, 64, |r, c| (r * 64 + c) as f64).into();
        let refs = [&dense];
        let trailing = Operand::new(&refs);
        let payload = vec![1.0; 64];
        let first = pool
            .apply(false, trailing, &payload, 0, &(), Phase::Measure)
            .unwrap();
        let after_first = pool.health().workers[0].clone();
        assert_eq!(after_first.factor_pushes, 1);
        for _ in 0..5 {
            let again = pool
                .apply(false, trailing, &payload, 0, &(), Phase::Measure)
                .unwrap();
            assert_eq!(again, first);
        }
        let health = pool.health();
        let link = &health.workers[0];
        assert_eq!(link.factor_pushes, 1, "steady state re-ships nothing");
        assert_eq!(health.factor_misses, 0);
        assert_eq!(w.factor_list_count(), 1);
        // Five warm tasks moved five payloads and five keys — far less than
        // one copy of the 32 KiB factor.
        let warm_sent = link.bytes_sent - after_first.bytes_sent;
        assert!(
            warm_sent < 5 * (64 * 8 + 128),
            "warm tasks must not carry the factors: {warm_sent} bytes for 5 tasks"
        );
        assert!(link.bytes_received > after_first.bytes_received);
    }

    #[test]
    fn a_restarted_worker_says_unknown_factors_and_gets_them_again() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let addr = w.addr();
        let pool = WorkerPool::connect(&[addr.to_string()], quick_policy());
        let prefix = StructuredMatrix::prefix(4);
        let refs = [&prefix];
        let trailing = Operand::new(&refs);
        let values: Vec<f64> = (0..8).map(f64::from).collect();
        let payload = [1.0, 2.0, 3.0, 4.0];
        let slab_first = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &(), Phase::Measure)
            .unwrap();
        let apply_first = pool
            .apply(true, trailing, &payload, 0, &(), Phase::Measure)
            .unwrap();

        // The replacement holds nothing, while the link still believes both
        // operands are resident: only the worker's typed replies can say so.
        w.kill();
        let fresh = respawn(addr);
        let apply_again = pool
            .apply(true, trailing, &payload, 0, &(), Phase::Measure)
            .unwrap();
        assert_eq!(apply_again, apply_first);
        assert_eq!(pool.health().factor_misses, 1);
        // A slab task needs both operands back: UnknownSlab, then (the
        // factors are resident again by now) straight through.
        let slab_again = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &(), Phase::Measure)
            .unwrap();
        assert_eq!(slab_again, slab_first);
        let health = pool.health();
        assert_eq!(health.workers[0].factor_pushes, 2, "one push, one re-push");
        assert_eq!((fresh.slab_count(), fresh.factor_list_count()), (1, 1));
    }

    #[test]
    fn different_factor_lists_never_share_a_key() {
        let (p4, p5, t4) = (
            StructuredMatrix::prefix(4),
            StructuredMatrix::prefix(5),
            StructuredMatrix::total(4),
        );
        let lists: [&[&StructuredMatrix]; 5] = [&[], &[&p4], &[&p5], &[&t4], &[&p4, &t4]];
        let keys: Vec<FactorKey> = lists.iter().map(|l| FactorKey::of(l)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(FactorKey::of(&[&p4]), keys[1], "keys are content");
    }
}
