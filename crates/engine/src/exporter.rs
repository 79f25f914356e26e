//! A minimal HTTP exporter for the engine's observability surfaces.
//!
//! [`MetricsExporter`] binds a std `TcpListener` (no async runtime, no HTTP
//! dependency — a scrape endpoint needs four routes and `Connection:
//! close`):
//!
//! | route            | payload                                            |
//! |------------------|----------------------------------------------------|
//! | `/metrics`       | Prometheus text format ([`crate::Engine::render_prometheus`]) |
//! | `/trace.json`    | every retained span as Chrome `trace_event` JSON   |
//! | `/trace/<id>.json` | one trace by id (decimal or hex)                 |
//! | `/audit.jsonl`   | the ledger log's retained tail, one JSON record per line |
//!
//! The listener accepts on a background thread and answers each connection
//! on a short-lived handler thread, so one slow client never stalls a
//! scrape. Requests are size-bounded and parsed only as far as the request
//! line; anything else is a 404/400. Dropping the handle (or calling
//! [`MetricsExporter::shutdown`]) stops the listener.
//!
//! **Security.** Like the shard-worker protocol, the exporter is
//! unauthenticated — and traces/audit events name datasets and tenants.
//! Bind to loopback or a trusted network only.

use crate::engine::Engine;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head (request line + headers) the exporter reads.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout, both directions.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A running exporter; see the module docs for routes.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port) and
    /// serves the engine's observability routes until shutdown.
    pub fn bind(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hdmm-metrics-exporter".into())
                .spawn(move || accept_loop(&listener, &engine, &stop))?
        };
        Ok(MetricsExporter {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins the accept thread. Also runs on drop.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.finish();
    }
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let engine = Arc::clone(engine);
        // One thread per connection: connections are scrapes — rare, short,
        // and bounded by the socket timeout — so the thread is cheaper than
        // letting a slow peer block the accept loop.
        let _ = std::thread::Builder::new()
            .name("hdmm-exporter-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &engine);
            });
    }
}

fn handle_connection(mut stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let Some(path) = read_request_path(&mut stream)? else {
        return respond(&mut stream, 400, "text/plain", "bad request");
    };
    match route(engine, &path) {
        Some((content_type, body)) => respond(&mut stream, 200, content_type, &body),
        None => respond(&mut stream, 404, "text/plain", "not found"),
    }
}

/// Reads up to the end of the header block and returns the GET path, or
/// `None` for anything malformed or non-GET.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() >= MAX_REQUEST_BYTES {
            return Ok(None);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

/// Maps a path to `(content_type, body)`; `None` is a 404.
fn route(engine: &Engine, path: &str) -> Option<(&'static str, String)> {
    // Ignore any query string: scrapers sometimes append cache-busters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/" => Some((
            "text/plain",
            "hdmm-metrics-exporter\n/metrics\n/trace.json\n/trace/<id>.json\n/audit.jsonl\n"
                .to_string(),
        )),
        "/metrics" => Some((
            "text/plain; version=0.0.4; charset=utf-8",
            engine.render_prometheus(),
        )),
        "/trace.json" => Some((
            "application/json",
            hdmm_obs::chrome_trace(&engine.collector().snapshot()),
        )),
        "/audit.jsonl" => Some(("application/x-ndjson", engine.audit().dump_jsonl())),
        _ => {
            let id = path
                .strip_prefix("/trace/")
                .and_then(|rest| rest.strip_suffix(".json"))?;
            let held = |id: u64| !engine.trace_spans(id).is_empty();
            let id = parse_trace_id(id, held)?;
            Some(("application/json", engine.chrome_trace(id)))
        }
    }
}

/// Accepts decimal (`QueryResponse::trace_id` printed with `{}`) and hex
/// (`0x`-prefixed, or the 16-digit `016x` form the Chrome export embeds)
/// trace ids. A 16-digit id of decimal digits only reads both ways: it names
/// the reading `held` (the collector holds spans for it) accepts, hex first.
fn parse_trace_id(s: &str, held: impl Fn(u64) -> bool) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).ok();
    }
    let hex = (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten();
    let decimal = s.parse::<u64>().ok();
    match (hex, decimal) {
        (Some(hex), Some(decimal)) if !held(hex) && held(decimal) => Some(decimal),
        (hex, decimal) => hex.or(decimal),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use hdmm_core::{builders, Domain, HdmmOptions, QueryEngine};

    fn demo_engine() -> Arc<Engine> {
        let engine = Arc::new(Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            ..Default::default()
        }));
        engine
            .register_dataset("d", Domain::one_dim(16), vec![1.0; 16], 10.0)
            .unwrap();
        engine.serve("d", &builders::prefix_1d(16), 0.5).unwrap();
        engine
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let status = out
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let body = out
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_traces_and_audit() {
        let engine = demo_engine();
        let exporter = MetricsExporter::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = exporter.addr();

        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("hdmm_requests_total 1"), "{metrics}");

        let (status, trace) = get(addr, "/trace.json");
        assert_eq!(status, 200);
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"name\":\"request\""), "{trace}");

        let (status, audit) = get(addr, "/audit.jsonl");
        assert_eq!(status, 200);
        assert!(audit.contains("\"kind\":\"reserve\""), "{audit}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        exporter.shutdown();
    }

    #[test]
    fn serves_single_traces_by_decimal_and_hex_id() {
        let engine = demo_engine();
        let id = engine
            .serve("d", &builders::prefix_1d(16), 0.5)
            .unwrap()
            .trace_id;
        let exporter = MetricsExporter::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let (status, body) = get(exporter.addr(), &format!("/trace/{id}.json"));
        assert_eq!(status, 200);
        assert!(body.contains(&format!("{id:016x}")), "{body}");
        let (status, hex_body) = get(exporter.addr(), &format!("/trace/0x{id:x}.json"));
        assert_eq!(status, 200);
        assert_eq!(body, hex_body);
        exporter.shutdown();
    }

    /// `{:016x}` of this id is all decimal digits: the route must still
    /// serve the trace the Chrome export names by it.
    #[test]
    fn a_sixteen_digit_id_names_the_trace_the_collector_holds() {
        let engine = demo_engine();
        let id = 0x1234_5678_9012_3456;
        engine
            .collector()
            .push(hdmm_obs::Span::new(id, 1, 0, "request", 0, 1));
        let exporter = MetricsExporter::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let (status, body) = get(exporter.addr(), &format!("/trace/{id:016x}.json"));
        assert_eq!(status, 200);
        assert!(body.contains("\"name\":\"request\""), "{body}");
        assert!(
            body.contains(&format!("\"trace_id\":\"{id:016x}\"")),
            "{body}"
        );
        exporter.shutdown();
        // The decimal reading wins only when it is the one held.
        let decimal = 1_234_567_890_123_456;
        assert_eq!(
            parse_trace_id("1234567890123456", |t| t == decimal),
            Some(decimal)
        );
        assert_eq!(parse_trace_id("1234567890123456", |_| false), Some(id));
    }
}
