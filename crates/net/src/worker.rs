//! The shard worker: a TCP server that owns data slabs and answers task
//! frames.
//!
//! A worker is deliberately dumb — it holds `(dataset, shard) → slab`
//! entries and [`FactorKey`] → trailing-factor-list entries pushed by the
//! coordinator and evaluates pure kernels against them. All policy
//! (assignment, retry, reassignment, fallback) lives on the coordinator side
//! ([`WorkerPool`](crate::WorkerPool)), which keeps the authoritative copy of
//! both; a worker that crashes loses nothing that cannot be re-pushed.
//!
//! **Resident operands.** Keyed slab tasks ([`Frame::SlabForwardKeyed`],
//! MEASURE's one task) name their factors instead of carrying them. A key
//! the worker does not hold — never pushed, lost in a restart, or evicted —
//! is answered with a typed [`ErrorCode::UnknownFactors`], and the
//! coordinator re-pushes with [`Frame::LoadFactors`] and retries (the
//! [`ErrorCode::UnknownSlab`] choreography). Resident factor lists are
//! bounded by [`FACTOR_BUDGET_BYTES`], least-recently-used first; the list
//! just pushed is never the victim, so a single over-budget list still
//! serves. An inline-factor [`Frame::SlabForward`] runs the same kernel with
//! the factors it carries, touching no factor store. [`Frame::Apply`] (a
//! payload shipped with the task) is answered [`ErrorCode::BadTask`]: no
//! coordinator sends it, since RECONSTRUCT runs on the coordinator.
//!
//! Every reply echoes the request's [`TraceExt`] identity; a traced request
//! (trace id ≠ 0) also gets the worker's kernel spans back in it.
//!
//! Task kernels run under `catch_unwind`, so a shape mismatch that would
//! panic in-process comes back as a typed [`Frame::Error`] instead of
//! killing the connection. The accept loop is non-blocking with a short
//! poll, and every live connection is registered so [`WorkerHandle::kill`]
//! can hard-close them — which makes coordinator-observed failure (and thus
//! the retry path) deterministic in tests. Registry entries are pruned when
//! a connection's serve loop exits, so coordinator reconnects (which happen
//! on every timeout) do not leak file descriptors over a worker's lifetime.
//!
//! **Security.** The protocol is deliberately unauthenticated: any client
//! that can reach the port can load slabs or read them back (a
//! [`Frame::SlabForward`] with identity trailing factors returns the raw
//! private data slab). Bind workers to loopback or a trusted private
//! network only — never expose the port beyond the coordinator's network.

use crate::wire::{frame_into, read_frame_buf, ErrorCode, FactorKey, Frame, TraceExt, WireSpan};
use hdmm_linalg::{kmatvec_trailing_slab, StructuredMatrix};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Artificial latency added before every compute task — fault-injection
    /// hook for tests and demos (a "slow worker"); zero in production.
    pub task_delay: Duration,
}

struct Slab {
    values: Vec<f64>,
}

/// Cap on the encoded bytes of factor lists a worker keeps resident. A fixed
/// constant, not an option: factors are small next to slabs (a 256×256 dense
/// factor is 0.5 MB), so the cap only has to stop unbounded growth across
/// many plans, and eviction costs one re-push.
pub const FACTOR_BUDGET_BYTES: u64 = 64 << 20;

/// The worker-resident factor lists: content-keyed, LRU-bounded by bytes.
struct FactorStore {
    budget: u64,
    /// `key → (factors, last-use stamp)`; the smallest stamp is the LRU list.
    lists: HashMap<FactorKey, (Arc<Vec<StructuredMatrix>>, u64)>,
    bytes: u64,
    clock: u64,
}

impl FactorStore {
    fn new(budget: u64) -> Self {
        FactorStore {
            budget,
            lists: HashMap::new(),
            bytes: 0,
            clock: 0,
        }
    }

    fn insert(&mut self, key: FactorKey, factors: Vec<StructuredMatrix>) {
        self.clock += 1;
        if self
            .lists
            .insert(key, (Arc::new(factors), self.clock))
            .is_none()
        {
            self.bytes += key.len;
        }
        while self.bytes > self.budget {
            let victim = self
                .lists
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            self.lists.remove(&victim);
            self.bytes -= victim.len;
        }
    }

    fn get(&mut self, key: FactorKey) -> Option<Arc<Vec<StructuredMatrix>>> {
        self.clock += 1;
        let (factors, used) = self.lists.get_mut(&key)?;
        *used = self.clock;
        Some(Arc::clone(factors))
    }
}

struct Shared {
    stop: AtomicBool,
    slabs: Mutex<HashMap<(String, u64), Slab>>,
    factors: Mutex<FactorStore>,
    /// Kill-registry of live connections, keyed by accept-order id so each
    /// entry can be pruned when its serve loop exits.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
    opts: WorkerOptions,
}

/// Handle to a running in-process shard worker (see [`spawn_worker`]).
pub struct WorkerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl WorkerHandle {
    /// The address the worker is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of slabs currently loaded.
    pub fn slab_count(&self) -> usize {
        self.shared.slabs.lock().expect("slab map poisoned").len()
    }

    /// Number of factor lists currently resident.
    pub fn factor_list_count(&self) -> usize {
        self.shared
            .factors
            .lock()
            .expect("factor store poisoned")
            .lists
            .len()
    }

    /// Hard-stops the worker: the accept loop exits and every live
    /// connection is shut down, so a coordinator blocked on a response
    /// observes the failure immediately (mid-task kills included).
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for (_, conn) in self
            .shared
            .conns
            .lock()
            .expect("conn registry poisoned")
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns a shard worker listening on `listen` (use `"127.0.0.1:0"` for an
/// ephemeral loopback port). Serving threads are detached; the returned
/// handle stops them on [`WorkerHandle::kill`] or drop.
pub fn spawn_worker(
    listen: impl ToSocketAddrs,
    opts: WorkerOptions,
) -> std::io::Result<WorkerHandle> {
    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        slabs: Mutex::new(HashMap::new()),
        factors: Mutex::new(FactorStore::new(FACTOR_BUDGET_BYTES)),
        conns: Mutex::new(Vec::new()),
        next_conn: AtomicU64::new(0),
        opts,
    });
    let accept_shared = Arc::clone(&shared);
    std::thread::spawn(move || {
        while !accept_shared.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let id = accept_shared.next_conn.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        accept_shared
                            .conns
                            .lock()
                            .expect("conn registry poisoned")
                            .push((id, clone));
                    }
                    let conn_shared = Arc::clone(&accept_shared);
                    std::thread::spawn(move || {
                        serve_connection(stream, &conn_shared);
                        // Prune the kill-registry entry; without this every
                        // coordinator reconnect leaks one fd for the
                        // worker's lifetime.
                        let mut conns = conn_shared.conns.lock().expect("conn registry poisoned");
                        if let Some(i) = conns.iter().position(|(cid, _)| *cid == id) {
                            conns.swap_remove(i);
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
    });
    Ok(WorkerHandle { addr, shared })
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // One buffer per connection, reused for every request and reply.
    let mut buf = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let (request, ext) = match read_frame_buf(&mut stream, &mut buf) {
            Ok(pair) => pair,
            // EOF, reset, or garbage: drop the connection. The coordinator
            // reconnects and retries; tasks are idempotent.
            Err(_) => return,
        };
        // The reply echoes the request's trace identity; a traced request
        // also gets the worker's spans back.
        let (response, spans) = handle(request, shared);
        let reply_ext = TraceExt {
            spans: if ext.trace_id == 0 { Vec::new() } else { spans },
            ..ext
        };
        let sent =
            frame_into(&mut buf, &response, &reply_ext).and_then(|()| stream.write_all(&buf));
        if sent.is_err() {
            return;
        }
    }
}

/// Times one worker-side section into `spans` (only traced requests pay for
/// the bookkeeping; the caller drops the vector for untraced ones).
fn timed<T>(spans: &mut Vec<WireSpan>, name: &'static str, work: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = work();
    spans.push(WireSpan {
        name: name.to_string(),
        dur_ns: u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
    });
    out
}

fn handle(request: Frame, shared: &Shared) -> (Frame, Vec<WireSpan>) {
    let mut spans = Vec::new();
    let response = match request {
        Frame::Ping => Frame::Pong {
            slabs: shared.slabs.lock().expect("slab map poisoned").len() as u64,
        },
        Frame::LoadSlab {
            dataset,
            shard,
            rows,
            values,
        } => {
            if rows.1 <= rows.0 {
                return (
                    Frame::Error {
                        code: ErrorCode::BadTask,
                        message: format!("empty slab row range {rows:?}"),
                    },
                    spans,
                );
            }
            if !values.len().is_multiple_of((rows.1 - rows.0) as usize) {
                return (
                    Frame::Error {
                        code: ErrorCode::BadTask,
                        message: format!(
                            "slab payload of {} cells does not tile rows {rows:?}",
                            values.len()
                        ),
                    },
                    spans,
                );
            }
            timed(&mut spans, "worker:load", || {
                shared
                    .slabs
                    .lock()
                    .expect("slab map poisoned")
                    .insert((dataset, shard), Slab { values });
            });
            Frame::Loaded
        }
        Frame::LoadFactors { key, factors } => {
            timed(&mut spans, "worker:load", || {
                shared
                    .factors
                    .lock()
                    .expect("factor store poisoned")
                    .insert(key, factors);
            });
            Frame::Loaded
        }
        Frame::SlabForward {
            dataset,
            shard,
            factors,
        } => slab_forward(shared, &mut spans, &dataset, shard, &factors),
        Frame::SlabForwardKeyed {
            dataset,
            shard,
            key,
        } => match resident(shared, key) {
            Ok(factors) => slab_forward(shared, &mut spans, &dataset, shard, &factors),
            Err(unknown) => unknown,
        },
        // Response frames are not valid requests, and `Apply` is not served:
        // no coordinator sends it, RECONSTRUCT runs on the coordinator.
        other => Frame::Error {
            code: ErrorCode::BadTask,
            message: format!("frame kind {:?} is not a request", other.kind()),
        },
    };
    (response, spans)
}

/// The factor list a keyed task names, or the typed miss that makes the
/// coordinator re-push it.
fn resident(shared: &Shared, key: FactorKey) -> Result<Arc<Vec<StructuredMatrix>>, Frame> {
    let held = shared
        .factors
        .lock()
        .expect("factor store poisoned")
        .get(key);
    held.ok_or_else(|| Frame::Error {
        code: ErrorCode::UnknownFactors,
        message: format!("no factor list {:#018x}/{} resident", key.sum, key.len),
    })
}

fn slab_forward(
    shared: &Shared,
    spans: &mut Vec<WireSpan>,
    dataset: &str,
    shard: u64,
    factors: &[StructuredMatrix],
) -> Frame {
    std::thread::sleep(shared.opts.task_delay);
    let slabs = shared.slabs.lock().expect("slab map poisoned");
    let Some(slab) = slabs.get(&(dataset.to_string(), shard)) else {
        return Frame::Error {
            code: ErrorCode::UnknownSlab,
            message: format!("no slab {shard} of dataset {dataset:?} loaded"),
        };
    };
    timed(spans, "worker:forward", || compute(factors, &slab.values))
}

/// Runs the trailing kernel under `catch_unwind` so shape mismatches come
/// back as typed errors instead of dead connections.
fn compute(factors: &[StructuredMatrix], payload: &[f64]) -> Frame {
    let refs: Vec<&StructuredMatrix> = factors.iter().collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        kmatvec_trailing_slab(&refs, payload)
    }));
    match result {
        Ok(values) => Frame::Part { values },
        Err(_) => Frame::Error {
            code: ErrorCode::Internal,
            message: "task kernel panicked (shape mismatch?)".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, NetError};

    fn call(addr: SocketAddr, frame: &Frame) -> Result<Frame, NetError> {
        call_traced(addr, frame, &TraceExt::default()).map(|(reply, _)| reply)
    }

    fn call_traced(
        addr: SocketAddr,
        frame: &Frame,
        ext: &TraceExt,
    ) -> Result<(Frame, TraceExt), NetError> {
        let mut stream = TcpStream::connect(addr)?;
        write_frame(&mut stream, frame, ext)?;
        read_frame(&mut stream)
    }

    #[test]
    fn traced_requests_get_worker_spans_back() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let load = Frame::LoadSlab {
            dataset: "d".into(),
            shard: 0,
            rows: (0, 2),
            values: (0..6).map(f64::from).collect(),
        };
        let (reply, ext) = call_traced(w.addr(), &load, &TraceExt::request(77, 5)).unwrap();
        assert_eq!(reply, Frame::Loaded);
        assert_eq!((ext.trace_id, ext.span_id), (77, 5), "identity echoed");
        assert_eq!(ext.spans.len(), 1);
        assert_eq!(ext.spans[0].name, "worker:load");

        let fwd = Frame::SlabForward {
            dataset: "d".into(),
            shard: 0,
            factors: vec![StructuredMatrix::total(3)],
        };
        let (reply, ext) = call_traced(w.addr(), &fwd, &TraceExt::request(77, 6)).unwrap();
        assert!(matches!(reply, Frame::Part { .. }));
        assert_eq!(ext.spans[0].name, "worker:forward");

        // An untraced request gets the empty extension back, no spans.
        let (reply, ext) = call_traced(w.addr(), &fwd, &TraceExt::default()).unwrap();
        assert!(matches!(reply, Frame::Part { .. }));
        assert_eq!(ext, TraceExt::default());
        w.kill();
    }

    #[test]
    fn worker_answers_ping_load_and_forward() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        assert_eq!(
            call(w.addr(), &Frame::Ping).unwrap(),
            Frame::Pong { slabs: 0 }
        );

        let values: Vec<f64> = (0..6).map(f64::from).collect();
        let load = Frame::LoadSlab {
            dataset: "d".into(),
            shard: 0,
            rows: (0, 2),
            values: values.clone(),
        };
        assert_eq!(call(w.addr(), &load).unwrap(), Frame::Loaded);
        assert_eq!(w.slab_count(), 1);

        // Trailing factor Total(3): each leading row collapses to its sum.
        let fwd = Frame::SlabForward {
            dataset: "d".into(),
            shard: 0,
            factors: vec![StructuredMatrix::total(3)],
        };
        match call(w.addr(), &fwd).unwrap() {
            Frame::Part { values } => assert_eq!(values, vec![3.0, 12.0]),
            other => panic!("expected Part, got {other:?}"),
        }

        // Unknown slabs are a typed, retryable error.
        let missing = Frame::SlabForward {
            dataset: "d".into(),
            shard: 9,
            factors: vec![StructuredMatrix::total(3)],
        };
        match call(w.addr(), &missing).unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSlab),
            other => panic!("expected UnknownSlab, got {other:?}"),
        }
        w.kill();
    }

    #[test]
    fn closed_connections_are_pruned_from_the_kill_registry() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        for _ in 0..4 {
            // Each call connects, exchanges one frame, and drops the stream.
            assert!(call(w.addr(), &Frame::Ping).is_ok());
        }
        // The serve loops observe EOF asynchronously; poll until drained.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let live = w.shared.conns.lock().unwrap().len();
            if live == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{live} closed connections still registered — fd leak"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        w.kill();
    }

    #[test]
    fn killed_worker_fails_connections_fast() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let addr = w.addr();
        assert!(call(addr, &Frame::Ping).is_ok());
        w.kill();
        std::thread::sleep(Duration::from_millis(20));
        let mut ok = false;
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            ok = write_frame(&mut s, &Frame::Ping, &TraceExt::default()).is_ok()
                && read_frame(&mut s).is_ok();
        }
        assert!(!ok, "a killed worker must stop answering");
    }

    #[test]
    fn keyed_tasks_use_resident_factors_and_miss_typed() {
        let w = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
        let factors = vec![StructuredMatrix::prefix(3)];
        let key = FactorKey::of(&factors);
        let values: Vec<f64> = (0..6).map(f64::from).collect();
        let slab_task = Frame::SlabForwardKeyed {
            dataset: "d".into(),
            shard: 0,
            key,
        };

        // Not pushed yet: a typed miss, not a dropped connection.
        match call(w.addr(), &slab_task).unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownFactors),
            other => panic!("expected UnknownFactors, got {other:?}"),
        }
        let load = Frame::LoadFactors {
            key,
            factors: factors.clone(),
        };
        assert_eq!(call(w.addr(), &load).unwrap(), Frame::Loaded);
        assert_eq!(w.factor_list_count(), 1);

        // Keyed slab tasks need both operands; each miss has its own code.
        match call(w.addr(), &slab_task).unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSlab),
            other => panic!("expected UnknownSlab, got {other:?}"),
        }
        let load_slab = Frame::LoadSlab {
            dataset: "d".into(),
            shard: 0,
            rows: (0, 2),
            values: values.clone(),
        };
        assert_eq!(call(w.addr(), &load_slab).unwrap(), Frame::Loaded);

        // The keyed task and the inline one run the same kernel on the same
        // factors: identical bits.
        let via_key = call(w.addr(), &slab_task).unwrap();
        assert!(matches!(via_key, Frame::Part { .. }));
        let inline_forward = Frame::SlabForward {
            dataset: "d".into(),
            shard: 0,
            factors: factors.clone(),
        };
        assert_eq!(via_key, call(w.addr(), &inline_forward).unwrap());

        // An `Apply` still decodes, but is not served; the worker goes on.
        let inline_apply = Frame::Apply {
            transpose: false,
            factors,
            payload: values,
        };
        match call(w.addr(), &inline_apply).unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadTask),
            other => panic!("expected BadTask, got {other:?}"),
        }
        assert_eq!(
            call(w.addr(), &Frame::Ping).unwrap(),
            Frame::Pong { slabs: 1 }
        );
        w.kill();
    }

    #[test]
    fn factor_store_evicts_least_recently_used_down_to_its_budget() {
        let key = |sum: u64, len: u64| FactorKey { sum, len };
        let list = || vec![StructuredMatrix::total(2)];
        let mut store = FactorStore::new(100);
        store.insert(key(1, 40), list());
        store.insert(key(2, 40), list());
        assert!(store.get(key(1, 40)).is_some(), "touch 1: 2 is now oldest");
        store.insert(key(3, 40), list());
        assert!(store.get(key(2, 40)).is_none(), "LRU list evicted");
        assert!(store.get(key(1, 40)).is_some() && store.get(key(3, 40)).is_some());
        assert_eq!(store.bytes, 80);

        // Re-inserting a resident key is idempotent in the accounting.
        store.insert(key(3, 40), list());
        assert_eq!(store.bytes, 80);

        // A list larger than the whole budget still serves, alone.
        store.insert(key(4, 500), list());
        assert!(store.get(key(4, 500)).is_some());
        assert_eq!((store.lists.len(), store.bytes), (1, 500));
    }
}
