//! The shard worker: a TCP server that owns data slabs and answers task
//! frames.
//!
//! A worker is deliberately dumb — it holds `(dataset, shard) → slab`
//! entries pushed by the coordinator and evaluates pure kernels against
//! them. All policy (assignment, retry, reassignment, fallback) lives on the
//! coordinator side ([`WorkerPool`](crate::WorkerPool)), which keeps the
//! authoritative copy of every slab; a worker that crashes loses nothing
//! that cannot be re-pushed.
//!
//! **One task.** A [`Frame::SlabForward`] (MEASURE's one task) carries its
//! trailing factors and names a slab; the worker runs the trailing kernel
//! with those factors over that slab and keeps nothing of the task. A slab
//! the worker does not hold — never pushed, or lost in a restart — is
//! answered with a typed [`ErrorCode::UnknownSlab`], and the coordinator
//! re-pushes it with [`Frame::LoadSlab`] and retries. [`Frame::Apply`] (a
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

use crate::wire::{frame_into, read_frame_buf, ErrorCode, Frame, TraceExt, WireSpan};
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

struct Shared {
    stop: AtomicBool,
    slabs: Mutex<HashMap<(String, u64), Slab>>,
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
        Frame::SlabForward {
            dataset,
            shard,
            factors,
        } => slab_forward(shared, &mut spans, &dataset, shard, &factors),
        // Response frames are not valid requests, and `Apply` is not served:
        // no coordinator sends it, RECONSTRUCT runs on the coordinator.
        other => Frame::Error {
            code: ErrorCode::BadTask,
            message: format!("frame kind {:?} is not a request", other.kind()),
        },
    };
    (response, spans)
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

        // An `Apply` still decodes, but is not served; the worker goes on.
        let apply = Frame::Apply {
            transpose: false,
            factors: vec![StructuredMatrix::total(3)],
            payload: values,
        };
        match call(w.addr(), &apply).unwrap() {
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
}
