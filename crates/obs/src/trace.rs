//! Trace identity and the span model.
//!
//! A **trace** is one engine request, end to end: queue wait, SELECT, the
//! MEASURE / RECONSTRUCT / ANSWER phases, every per-shard task (local thread
//! or remote RPC attempt, retries included), and the worker-side kernel
//! spans shipped back over the wire. A **span** is one timed node of that
//! tree. Identity is plain `u64`s — FNV-derived from the engine seed and a
//! request counter, so trace ids are *deterministic under a seed*: a test
//! that replays the same request order against the same seed sees the same
//! ids, which makes span-tree assertions exact rather than fuzzy.

use std::time::Duration;

/// FNV-1a over a byte slice, the repo-wide cheap stable hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The propagated identity of one request: which trace spans belong to, and
/// which span new children should parent under. This is what crosses the
/// shard-worker RPC boundary (the v2 frame extension of `hdmm-net`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Trace id shared by every span of the request.
    pub trace_id: u64,
    /// Span id of the current parent (the span a new child nests under).
    pub span_id: u64,
}

impl TraceContext {
    /// Derives the deterministic trace id of the `counter`-th request of an
    /// engine seeded with `seed`. Never returns 0 (0 means "untraced" on the
    /// wire).
    pub fn derive(seed: u64, counter: u64) -> TraceContext {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(&counter.to_le_bytes());
        let id = fnv1a(&bytes).max(1);
        TraceContext {
            trace_id: id,
            span_id: ROOT_SPAN_ID,
        }
    }

    /// The same trace, reparented under `span_id`.
    pub fn with_parent(self, span_id: u64) -> TraceContext {
        TraceContext { span_id, ..self }
    }
}

/// Span id of every trace's root ("request") span.
pub const ROOT_SPAN_ID: u64 = 1;

/// One completed, timed node of a trace tree.
///
/// Timestamps are nanoseconds relative to the owning [`SpanCollector`]'s
/// epoch (`Instant`s are not portable across processes; worker-side spans
/// are re-based by the coordinator when they arrive — see
/// [`crate::collector::chrome_trace`] for the resulting accuracy note).
///
/// [`SpanCollector`]: crate::SpanCollector
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within its trace.
    pub span_id: u64,
    /// Parent span id; 0 for the root.
    pub parent_id: u64,
    /// Short name: `request`, `queue`, `select`, `measure`, `rpc:forward`,
    /// `worker:forward`, `shard:measure`, …
    pub name: String,
    /// Start, in nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form key/value annotations (shard index, worker address,
    /// attempt number, outcome, …).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// A span with no annotations.
    pub fn new(
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: impl Into<String>,
        start_ns: u64,
        dur_ns: u64,
    ) -> Span {
        Span {
            trace_id,
            span_id,
            parent_id,
            name: name.into(),
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        }
    }

    /// Appends one annotation (builder-style).
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Span {
        self.attrs.push((key.into(), value.into()));
        self
    }
}

/// Duration → saturating nanoseconds (shared convention with telemetry).
pub fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_seed_sensitive() {
        let a = TraceContext::derive(7, 0);
        let b = TraceContext::derive(7, 0);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceContext::derive(7, 1).trace_id);
        assert_ne!(a.trace_id, TraceContext::derive(8, 0).trace_id);
        assert_ne!(a.trace_id, 0, "0 is reserved for untraced");
        assert_eq!(a.span_id, ROOT_SPAN_ID);
    }

    #[test]
    fn reparenting_keeps_the_trace() {
        let ctx = TraceContext::derive(1, 2).with_parent(42);
        assert_eq!(ctx.span_id, 42);
        assert_eq!(ctx.trace_id, TraceContext::derive(1, 2).trace_id);
    }

    #[test]
    fn spans_build_with_attrs() {
        let s = Span::new(9, 2, 1, "rpc:forward", 100, 50)
            .attr("shard", "3")
            .attr("attempt", "0");
        assert_eq!(s.attrs.len(), 2);
        assert_eq!(s.name, "rpc:forward");
    }
}
