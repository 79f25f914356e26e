//! # hdmm-obs — observability primitives for the HDMM serving engine
//!
//! The serving stack spans threads, shards, and processes: a single query's
//! latency is the sum of queue wait, SELECT, per-shard RPC round-trips
//! (retries included), and the merge. Aggregate histograms cannot explain
//! one slow request. This crate holds the pieces, free of any workspace
//! dependency so every layer (optimizer, mechanism, net, engine) can use
//! them:
//!
//! * [`observer`] — [`Observer`], the one trait every layer reports its
//!   events through (SELECT's restart grid, each [`Phase`] and shard task,
//!   spans), and `()`, the observer that discards them;
//! * [`trace`] — [`TraceContext`] (trace id + span id, FNV-derived and
//!   deterministic under a seed) and [`Span`], the unit of causality;
//! * [`collector`] — [`SpanCollector`], one mutex-guarded bounded ring that
//!   each traced request pushes its finished span tree into under one lock,
//!   with drop counting on overflow and Chrome `trace_event` JSON export
//!   ([`chrome_trace`]) so any query opens in Perfetto / `chrome://tracing`;
//! * [`prom`] — [`PromBuf`], a Prometheus text-format (version 0.0.4)
//!   renderer: escaped labels, cumulative histogram buckets, and a guarantee
//!   that no `NaN`/`Inf` sample values leak into scrape output.
//!
//! The ε-budget audit stream is the engine's ledger log (`hdmm_engine::wal`),
//! whose `/audit.jsonl` lines are escaped with [`json_escape`].

pub mod collector;
pub mod observer;
pub mod prom;
pub mod trace;

pub use collector::{chrome_trace, SpanCollector};
pub use observer::{Observer, Phase};
pub use prom::PromBuf;
pub use trace::{Span, TraceContext};

/// Appends `s` to `out` as the body of a JSON string (the Chrome trace
/// export and the engine's `/audit.jsonl` share it).
pub fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}
