//! The coordinator's side of the shard-worker protocol: a registry of
//! worker links with per-task timeouts, bounded retry with exponential
//! backoff, shard reassignment to surviving workers, and per-worker health
//! telemetry. Its one task is MEASURE's: the trailing factors over a data
//! slab the worker holds ([`WorkerPool::run_slab_task`]). RECONSTRUCT reads
//! only the noisy answers the coordinator already holds, so it sends none.
//!
//! The pool never owns data — the engine keeps the authoritative copy of
//! every slab and passes it alongside each task, so reassignment is always
//! possible while at least one worker answers: the new primary simply gets
//! the slab re-pushed before the task runs. Tasks are pure and idempotent
//! (see [`crate::wire`]), which is what makes at-least-once retry safe: a
//! task that timed out but actually completed on the worker changes nothing
//! when it runs again elsewhere.
//!
//! Slabs reach a worker one way only: lazily, on the first task on a link
//! that needs one. Each link remembers the slabs it has pushed, and a
//! worker's typed `UnknownSlab` (it restarted) makes the link re-push and
//! retry inside the same attempt. A task carries its trailing factors
//! inline (see [`crate::wire`]) and a slab reference; its reply is the
//! slab's partial product.

use crate::wire::{
    frame_into, read_frame_buf, slab_load_into, slab_task_into, ErrorCode, Frame, NetError,
    SlabLoad, SlabTask, TraceExt,
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
    /// Slabs this link has pushed. Only a hint: the worker is the authority
    /// and says `UnknownSlab` when the hint is stale.
    loaded: Mutex<HashSet<(String, u64)>>,
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
            loaded: Mutex::new(HashSet::new()),
        }
    }

    /// One request/response exchange under the per-attempt deadline:
    /// connect, write, and read all share one `timeout` window, enforced by
    /// [`DeadlineStream`] so a worker trickling bytes cannot stretch the
    /// attempt past it. Any failure drops the connection (the next call
    /// reconnects) — half-read streams cannot be resynchronized, so
    /// reconnect-and-retry is the only safe recovery. The request carries
    /// `ext` (the default for an untraced call), is encoded into the link's
    /// buffer and leaves in one write; the reply is read back into the same
    /// buffer.
    fn call(
        &self,
        request: &Request<'_>,
        ext: &TraceExt,
        timeout: Duration,
    ) -> Result<(Frame, TraceExt), NetError> {
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
                read_frame_buf(&mut io, buf)
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
        }
    }
}

/// A link's lazily (re)connected socket and the buffer every exchange on it
/// encodes into and reads back into — one allocation per link, not per task.
struct Conn {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// What one exchange sends: an owned control frame (ping, slab push) or a
/// slab task encoded straight from the caller's borrowed fields.
enum Request<'a> {
    Frame(&'a Frame),
    Load(SlabLoad<'a>),
    Task(SlabTask<'a>),
}

impl Request<'_> {
    fn encode_into(&self, buf: &mut Vec<u8>, ext: &TraceExt) -> std::io::Result<()> {
        match self {
            Request::Frame(frame) => frame_into(buf, frame, ext),
            Request::Load(load) => slab_load_into(buf, load, ext),
            Request::Task(task) => slab_task_into(buf, task, ext),
        }
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
/// to record into and what to call the span. Every task is MEASURE's, so
/// every span is parented under the MEASURE phase span.
#[derive(Clone, Copy)]
struct RpcSpan<'a> {
    observer: &'a dyn Observer,
    /// Span name: `rpc:forward`, `rpc:load`.
    name: &'static str,
    /// Shard index — also the Chrome-trace lane, so concurrent shard RPCs
    /// render side by side instead of falsely nested.
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
        };
        {
            let workers = pool.workers.read().expect("worker registry poisoned");
            let timeout = pool.policy.task_timeout;
            std::thread::scope(|s| {
                for w in workers.iter() {
                    s.spawn(move || {
                        let alive = matches!(
                            w.call(&Request::Frame(&Frame::Ping), &TraceExt::default(), timeout),
                            Ok((Frame::Pong { .. }, _))
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
        let ping = Request::Frame(&Frame::Ping);
        match link
            .call(&ping, &TraceExt::default(), self.policy.task_timeout)?
            .0
        {
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
        }
    }

    /// Runs one MEASURE phase-1 task: the product of the `trailing` factors
    /// over the given slab, on whichever worker currently holds (or
    /// receives) it. The task frame carries the `trailing` factors.
    ///
    /// Failure handling: per-attempt timeout, up to `policy.attempts` total
    /// attempts with doubling backoff, and reassignment to the next live
    /// worker when the primary fails — re-pushing the slab from the
    /// coordinator's authoritative copy (`rows`/`values`) as needed.
    ///
    /// When `observer` traces, every attempt (including failed and retried
    /// ones) is recorded as an `rpc:forward` span — annotated with worker
    /// address, shard, attempt index, and outcome — parented under the
    /// MEASURE phase span, with the worker's own kernel spans re-based
    /// beneath it. The `()` observer runs untraced.
    pub fn run_slab_task(
        &self,
        dataset: &str,
        shard: u64,
        trailing: &[&StructuredMatrix],
        rows: (u64, u64),
        values: &[f64],
        observer: &dyn Observer,
    ) -> Result<Vec<f64>, NetError> {
        let key = (dataset.to_string(), shard);
        let task = SlabTask {
            dataset,
            shard,
            factors: trailing,
        };
        let slab = SlabRef {
            id: &key,
            rows,
            values,
        };
        let mut delay = self.policy.backoff;
        let mut last_err = NetError::NoWorkers;
        for attempt in 0..self.policy.attempts.max(1) {
            let Some(link) = self.pick_worker(&key) else {
                break;
            };
            let rpc = RpcSpan {
                observer,
                name: "rpc:forward",
                shard,
                attempt,
            };
            match self.attempt(&link, task, slab, &rpc) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = self.note_failure(&link, e, attempt, &mut delay),
            }
        }
        Err(last_err)
    }

    /// One attempt of a slab task on `link`. A slab the link has not pushed
    /// yet goes first; then the task runs, and a worker that turns out not
    /// to hold the slab after all (it restarted) says so with a typed
    /// `UnknownSlab` — the slab is re-pushed and the task retried on the
    /// same worker, once per attempt.
    fn attempt(
        &self,
        link: &WorkerLink,
        task: SlabTask<'_>,
        slab: SlabRef<'_>,
        rpc: &RpcSpan<'_>,
    ) -> Result<Vec<f64>, NetError> {
        let load = RpcSpan {
            name: "rpc:load",
            ..*rpc
        };
        if !link
            .loaded
            .lock()
            .expect("loaded set poisoned")
            .contains(slab.id)
        {
            self.push_slab(link, slab, &load)?;
        }
        let task = Request::Task(task);
        match self.exec(link, &task, rpc) {
            Err(NetError::Remote {
                code: ErrorCode::UnknownSlab,
                ..
            }) => {
                link.loaded
                    .lock()
                    .expect("loaded set poisoned")
                    .remove(slab.id);
                self.push_slab(link, slab, &load)?;
                self.exec(link, &task, rpc)
            }
            result => result,
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
            let untraced = link.call(request, &TraceExt::default(), self.policy.task_timeout);
            return untraced.map(|(f, _)| f);
        };
        let span_id = rpc.observer.next_span_id();
        let ext = TraceExt::request(ctx.trace_id, span_id);
        let start = Instant::now();
        let result = link.call(request, &ext, self.policy.task_timeout);
        let end = Instant::now();
        let outcome = match &result {
            Ok((Frame::Error { .. }, _)) => "remote-error",
            Ok(_) => "ok",
            Err(_) => "transport-error",
        };
        let start_ns = rpc.observer.rel_ns(start);
        let end_ns = rpc.observer.rel_ns(end);
        let parent = rpc
            .observer
            .parent_for(Phase::Measure)
            .unwrap_or(ctx.span_id);
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
        if let Ok((_, reply_ext)) = &result {
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

    /// Pushes `slab` to `link`'s worker, expecting a `Loaded` response, and
    /// records it in the link's `loaded` set.
    fn push_slab(
        &self,
        link: &WorkerLink,
        slab: SlabRef<'_>,
        rpc: &RpcSpan<'_>,
    ) -> Result<(), NetError> {
        let load = SlabLoad {
            dataset: &slab.id.0,
            shard: slab.id.1,
            rows: slab.rows,
            values: slab.values,
        };
        match self.roundtrip(link, &Request::Load(load), rpc)? {
            Frame::Loaded => {
                link.alive.store(true, Ordering::Relaxed);
                link.loaded
                    .lock()
                    .expect("loaded set poisoned")
                    .insert(slab.id.clone());
                Ok(())
            }
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Unexpected { got: other.kind() }),
        }
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

    /// The worker for a (slab-owning) task: the current primary while
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
        let trailing: &[&StructuredMatrix] = &[&total];
        let first = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &())
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
            .run_slab_task("d", 0, trailing, (0, 2), &values, &())
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
        let r = pool.run_slab_task("d", 0, &[&total], (0, 1), &[1.0, 2.0], &());
        assert!(r.is_err(), "a dead pool must surface an error");
    }

    /// A fresh worker on the address of a killed one: same port, no slabs.
    /// The old listener closes within one poll of the kill, so the bind is
    /// retried briefly.
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
    fn a_slab_ships_once_per_link_and_every_task_carries_its_factors() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let pool = WorkerPool::connect(&[w.addr().to_string()], quick_policy());
        let prefix = StructuredMatrix::prefix(8);
        let trailing: &[&StructuredMatrix] = &[&prefix];
        let values: Vec<f64> = (0..64).map(f64::from).collect();
        let first = pool
            .run_slab_task("d", 0, trailing, (0, 8), &values, &())
            .unwrap();
        let after_first = pool.health().workers[0].clone();
        for _ in 0..5 {
            let again = pool
                .run_slab_task("d", 0, trailing, (0, 8), &values, &())
                .unwrap();
            assert_eq!(again, first);
        }
        let link = &pool.health().workers[0];
        assert_eq!((link.slabs, w.slab_count()), (1, 1));
        assert_eq!(link.tasks, 6);
        // Each later task is one inline task frame and no slab push.
        let task = Frame::SlabForward {
            dataset: "d".into(),
            shard: 0,
            factors: vec![prefix.clone()],
        };
        let frame_bytes = 4 + crate::wire::encode_frame(&task).len() as u64;
        assert_eq!(link.bytes_sent - after_first.bytes_sent, 5 * frame_bytes);
    }

    #[test]
    fn a_restarted_worker_says_unknown_slab_and_gets_it_again() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let addr = w.addr();
        let pool = WorkerPool::connect(&[addr.to_string()], quick_policy());
        let prefix = StructuredMatrix::prefix(4);
        let trailing: &[&StructuredMatrix] = &[&prefix];
        let values: Vec<f64> = (0..8).map(f64::from).collect();
        let first = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &())
            .unwrap();

        // The replacement holds nothing, while the link still believes the
        // slab is there: only the worker's typed UnknownSlab can say so. The
        // slab is re-pushed and the task goes through.
        w.kill();
        let fresh = respawn(addr);
        let again = pool
            .run_slab_task("d", 0, trailing, (0, 2), &values, &())
            .unwrap();
        assert_eq!(again, first);
        let health = pool.health();
        assert_eq!(health.workers[0].tasks, 2);
        assert_eq!(
            fresh.slab_count(),
            1,
            "only an UnknownSlab re-push reaches it"
        );
        // One failed attempt, on the killed worker's connection: the re-push
        // and the task's second run happen inside the next attempt.
        assert_eq!((health.retries, health.workers[0].failures), (1, 1));
    }
}
